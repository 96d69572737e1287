// Watchdog — online invariant checking over the event stream.
//
// A Watchdog is an EventSink that verifies the paper's correctness
// invariants *while the run happens*, instead of post-hoc in tests:
//
//   separation   StepComplete's min pairwise separation stays above the
//                configured floor, and no Collision event ever arrives
//                (Lemma 3.x collision avoidance).
//   granular     every Move keeps the robot inside the granular disc of
//                its t0 Voronoi cell (radius = geom::granular_radius);
//                armed only for the granular protocols — Sync2/Async2
//                signal on the segment joining the two robots and the
//                unbounded Async2 variant drifts by design (E8).
//   bit_order    BitEmitted instants are non-decreasing per sender, and
//                BitDecoded instants non-decreasing per (receiver,
//                sender) stream — the monotone ordering every frame
//                reassembly depends on.
//   ack_window   AckObserved latency never exceeds the configured bound
//                (Lemma 4.1's window, widened by observation delay).
//   framing      replaying each receiver's BitDecoded stream through the
//                framing codec never yields a CRC-corrupt frame.
//   crash_silence  a robot the fault plan crash-stopped (FaultInjected with
//                label "crash") never activates, moves, emits or decodes a
//                bit at or after its crash instant — the crash-stop model's
//                defining property.
//   mask_agreement  the redundancy layer's voted deliveries are consistent:
//                two MaskedDelivery events for the same logical stream and
//                delivery ordinal always carry the same payload hash, and
//                every vote has at least one agreeing lane.
//   reconverged  after a transient state corruption (FaultInjected with a
//                "corrupt*" label), some CRC-clean frame delivery follows
//                within the configured instant budget — the self-
//                stabilization contract of docs/STABILIZATION.md. Requires
//                the harness to call finalize(end) so a run that ends
//                without ever recovering is caught too.
//
// In report mode violations accumulate (bounded) and `report()` renders
// them; in abort mode the first violation throws WatchdogError, which
// unwinds out of Engine::step like a collision does. Either way, an
// attached FlightRecorder dumps the last N events to the configured path
// on the first violation — the black-box snapshot of what led up to it.
#pragma once

#include <cstdint>
#include <map>
#include <optional>
#include <ostream>
#include <stdexcept>
#include <string>
#include <vector>

#include "analyze/flight_recorder.hpp"
#include "encode/framing.hpp"
#include "geom/vec.hpp"
#include "obs/sink.hpp"

namespace stig::obs {

/// Thrown in abort mode on the first violated invariant.
class WatchdogError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

struct WatchdogOptions {
  /// StepComplete separation below this is a violation. 0 keeps only the
  /// hard floor (Collision events are always violations).
  double min_separation = 0.0;
  bool check_separation = true;
  /// Granular containment. Requires t0 positions at construction; armed
  /// only then.
  bool check_granular = false;
  bool check_framing = true;
  /// AckObserved latency above this is a violation; 0 disables.
  double max_ack_window = 0.0;
  /// Reconvergence budget (instants) after a transient corruption: each
  /// FaultInjected event whose label starts with "corrupt" (re-)arms the
  /// check; the next FrameDelivered at or after that instant clears it —
  /// or violates if it arrives more than this many instants later. Call
  /// finalize(end) at end of run to catch corruptions that never cleared.
  /// 0 disables (the default: corruption-free runs never arm it anyway).
  std::uint64_t reconverge_budget = 0;
  /// Throw WatchdogError on the first violation instead of recording.
  bool abort_on_violation = false;
  /// Violations recorded after this many are counted but not stored.
  std::size_t max_recorded = 64;
};

/// One tripped invariant.
struct WatchdogViolation {
  std::string invariant;  ///< "separation", "granular", "bit_order", ...
  std::uint64_t t = 0;
  std::int64_t robot = -1;
  std::int64_t peer = -1;
  double value = 0.0;     ///< Measured quantity (separation, latency, ...).
  std::string detail;     ///< Human-readable one-liner.
};

class Watchdog final : public EventSink {
 public:
  /// `t0_positions` anchor the granular-containment check (center of robot
  /// i's granular = its t0 position, radius = geom::granular_radius);
  /// leave empty when `check_granular` is off.
  explicit Watchdog(WatchdogOptions options,
                    std::vector<geom::Vec2> t0_positions = {});

  void on_event(const Event& e) override;

  /// End-of-run check for the `reconverged` invariant: decides a
  /// corruption still awaiting its recovery delivery. It violates when the
  /// run ran at least `reconverge_budget` instants past the corruption;
  /// a shorter run is counted as inconclusive (`reconverge_inconclusive`),
  /// not a violation. Idempotent; safe without corruptions.
  void finalize(std::uint64_t end_t);

  /// A corruption fired and no frame delivery has followed it yet.
  [[nodiscard]] bool reconverge_pending() const noexcept {
    return corrupt_pending_t_.has_value();
  }

  /// Reconvergence checks `finalize` left undecided: the run ended fewer
  /// than `reconverge_budget` instants after a corruption that no frame
  /// delivery had followed yet.
  [[nodiscard]] std::uint64_t reconverge_inconclusive() const noexcept {
    return reconverge_inconclusive_;
  }

  [[nodiscard]] bool ok() const noexcept { return total_violations_ == 0; }
  [[nodiscard]] std::uint64_t total_violations() const noexcept {
    return total_violations_;
  }
  [[nodiscard]] const std::vector<WatchdogViolation>& violations()
      const noexcept {
    return violations_;
  }

  /// Dumps `recorder` to `dump_path` on the first violation (not owned;
  /// null detaches).
  void set_flight_recorder(FlightRecorder* recorder, std::string dump_path);

  /// Human-readable verdict: one line per recorded violation plus a
  /// summary; "watchdog: all invariants held" when clean; and a line for
  /// inconclusive reconvergence checks, when there are any.
  void report(std::ostream& out) const;
  /// Machine-readable verdict (one JSON object).
  void write_json(std::ostream& out) const;

 private:
  void violate(WatchdogViolation v);
  void check_granular(const Event& e);
  void check_crash_silence(const Event& e, const char* activity);

  WatchdogOptions options_;
  std::vector<geom::Vec2> anchors_;        ///< t0 positions.
  std::vector<double> radii_;              ///< Granular radii at t0.
  std::vector<bool> granular_disarmed_;    ///< Set by Teleport (fault).
  std::map<std::int64_t, std::uint64_t> last_emit_t_;
  std::map<std::pair<std::int64_t, std::int64_t>, std::uint64_t>
      last_decode_t_;                      ///< (receiver, sender).
  /// (receiver, sender, addressee) -> replayed stream parser.
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t>,
           encode::FrameParser>
      streams_;
  std::map<std::int64_t, std::uint64_t> crash_t_;  ///< robot -> crash time.
  /// Latest corruption instant still awaiting a frame delivery.
  std::optional<std::uint64_t> corrupt_pending_t_;
  /// (receiver, sender, delivery ordinal, broadcast) -> voted payload hash.
  std::map<std::tuple<std::int64_t, std::int64_t, std::int64_t, bool>,
           std::uint32_t>
      mask_hashes_;
  std::vector<WatchdogViolation> violations_;
  std::uint64_t total_violations_ = 0;
  std::uint64_t reconverge_inconclusive_ = 0;
  FlightRecorder* recorder_ = nullptr;
  std::string dump_path_;
  bool dumped_ = false;
};

}  // namespace stig::obs
