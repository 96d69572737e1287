// JSONL event exporter: one JSON object per event, one event per line.
//
//   {"type":"activation","t":3,"robot":0,"x":1.25,"y":-0.5}
//   {"type":"bit_decoded","t":17,"robot":1,"peer":0,"aux":1,"bit":1}
//
// Fields are emitted in a fixed order (type, t, robot, peer, aux, x, y,
// value, bit, label) and only when meaningful for the event type, so the
// stream is deterministic and golden-testable. The file is self-describing:
// external tooling can filter on `type` without knowing the full schema.
//
// A run's position history (`stigsim --jsonl`) has its own two records:
//
//   {"type":"header","robots":3,"instants":120}
//   {"type":"config","t":0,"p":[[0,0],[5,0],[2,4]]}
#pragma once

#include <fstream>
#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "geom/vec.hpp"
#include "obs/sink.hpp"

namespace stig::obs {

class JsonlEventSink final : public EventSink {
 public:
  /// Writes to `out` (not owned; must outlive the sink).
  explicit JsonlEventSink(std::ostream& out) : out_(&out) {}

  /// Opens `path` for writing; returns nullptr on I/O failure.
  static std::unique_ptr<JsonlEventSink> open(const std::string& path);

  void on_event(const Event& e) override;
  void flush() override;

  /// Renders one event exactly as `on_event` writes it (minus newline).
  [[nodiscard]] static std::string to_json(const Event& e);

 private:
  JsonlEventSink(std::unique_ptr<std::ofstream> owned);

  std::unique_ptr<std::ofstream> owned_;
  std::ostream* out_;
};

/// Writes a position history (`history[t]` is the configuration at instant
/// t) as one header record and one config record per instant, every
/// coordinate at 17 significant digits so doubles round-trip exactly.
/// Returns false when `history` is empty or `out` fails.
bool write_history_jsonl(std::ostream& out,
                         const std::vector<std::vector<geom::Vec2>>& history);

}  // namespace stig::obs
