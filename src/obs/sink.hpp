// EventSink — where telemetry events go.
//
// The engine and the protocol drivers hold a raw `EventSink*` that is null
// by default; the hot path pays exactly one branch when telemetry is off
// and one virtual dispatch per event when it is on. Sinks compose through
// `MultiSink`; `CollectSink` buffers events in memory (tests, ad-hoc
// analysis); `CountingSink` discards them (overhead measurement).
//
// Concurrency model: a sink belongs to one simulation, and a simulation
// runs on one thread — sinks are therefore single-threaded by contract and
// take no locks. Parallel batch runs (src/par) follow the same pattern as
// obs::MetricsRegistry: each task wires its own sink into its own
// ChatNetwork and the driver combines the buffered results after the task
// joins. Never share one sink instance across concurrently-running cases.
#pragma once

#include <cstdint>
#include <vector>

#include "obs/event.hpp"

namespace stig::obs {

/// Consumer of a telemetry event stream.
class EventSink {
 public:
  EventSink() = default;
  EventSink(const EventSink&) = delete;
  EventSink& operator=(const EventSink&) = delete;
  virtual ~EventSink() = default;

  /// Receives one event. Called on the emitting thread, in timeline order.
  virtual void on_event(const Event& e) = 0;

  /// Finalizes output (exporters override; flushing twice is harmless).
  virtual void flush() {}
};

/// Fans one stream out to several sinks (non-owning).
class MultiSink final : public EventSink {
 public:
  MultiSink() = default;
  explicit MultiSink(std::vector<EventSink*> sinks)
      : sinks_(std::move(sinks)) {}

  void add(EventSink* sink) {
    if (sink != nullptr) sinks_.push_back(sink);
  }
  [[nodiscard]] bool empty() const noexcept { return sinks_.empty(); }

  void on_event(const Event& e) override {
    for (EventSink* s : sinks_) s->on_event(e);
  }
  void flush() override {
    for (EventSink* s : sinks_) s->flush();
  }

 private:
  std::vector<EventSink*> sinks_;
};

/// Buffers every event in memory, in arrival order.
class CollectSink final : public EventSink {
 public:
  void on_event(const Event& e) override { events_.push_back(e); }

  [[nodiscard]] const std::vector<Event>& events() const noexcept {
    return events_;
  }
  void clear() { events_.clear(); }

 private:
  std::vector<Event> events_;
};

/// Counts events and drops them — the cheapest possible attached sink, used
/// to measure the engine's telemetry dispatch overhead (bench E1).
class CountingSink final : public EventSink {
 public:
  void on_event(const Event& e) override {
    ++total_;
    ++per_type_[static_cast<unsigned>(e.type)];
  }

  [[nodiscard]] std::uint64_t total() const noexcept { return total_; }
  [[nodiscard]] std::uint64_t count(EventType t) const noexcept {
    return per_type_[static_cast<unsigned>(t)];
  }

 private:
  std::uint64_t total_ = 0;
  std::uint64_t per_type_[kEventTypeCount] = {};
};

}  // namespace stig::obs
