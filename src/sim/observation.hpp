// Observation bookkeeping for the asynchronous protocols.
//
// Lemma 4.1 is the paper's implicit-acknowledgment engine: "if r observes
// that the position of r' has changed twice, then r' must have observed that
// the position of r has changed at least once" (given r keeps moving in one
// direction). Implementing it faithfully needs two small pieces of state on
// every robot:
//
//  * ChangeTracker — per peer, the last position the robot observed and a
//    monotone counter of observed position changes; updated only at the
//    robot's own activations, exactly as the model allows.
//  * AckBarrier — a "wait until every tracked peer has changed at least k
//    times since I armed the barrier" condition built on those counters.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "geom/vec.hpp"

namespace stig::sim {

/// Counts observed position changes per peer.
class ChangeTracker {
 public:
  /// `peers`: number of tracked peers (caller-defined slots). `tolerance`:
  /// two observations closer than this count as "did not move" — far below
  /// any step a protocol robot takes, so genuine moves are never missed.
  explicit ChangeTracker(std::size_t peers, double tolerance = 1e-9)
      : states_(peers), tolerance_(tolerance) {}

  /// Records that the owner observed `peer` at `position` (in any frame the
  /// owner uses consistently). Increments the peer's change counter when the
  /// position differs from the previous observation.
  void observe(std::size_t peer, const geom::Vec2& position) {
    PeerState& s = states_.at(peer);
    if (s.last && std::is_gt(geom::dist_cmp(*s.last, position, tolerance_))) {
      ++s.changes;
    }
    s.last = position;
  }

  /// Number of observed changes for `peer` so far.
  [[nodiscard]] std::uint64_t changes(std::size_t peer) const {
    return states_.at(peer).changes;
  }

  /// Last observed position of `peer`, if any observation happened yet.
  [[nodiscard]] std::optional<geom::Vec2> last(std::size_t peer) const {
    return states_.at(peer).last;
  }

  [[nodiscard]] std::size_t peer_count() const noexcept {
    return states_.size();
  }

 private:
  struct PeerState {
    std::optional<geom::Vec2> last;
    std::uint64_t changes = 0;
  };
  std::vector<PeerState> states_;
  double tolerance_;
};

/// "Keep doing X until every peer's position has been observed to change at
/// least `required` times since this barrier was armed."
class AckBarrier {
 public:
  /// Arms the barrier over all peers of `tracker` except `self_slot` (pass
  /// an out-of-range slot such as `tracker.peer_count()` to track everyone).
  void arm(const ChangeTracker& tracker, std::size_t self_slot,
           std::uint64_t required = 2) {
    baselines_.clear();
    required_ = required;
    for (std::size_t p = 0; p < tracker.peer_count(); ++p) {
      if (p == self_slot) continue;
      baselines_.emplace_back(p, tracker.changes(p));
    }
  }

  /// True when every armed peer has accumulated `required` further changes.
  [[nodiscard]] bool satisfied(const ChangeTracker& tracker) const {
    for (const auto& [peer, base] : baselines_) {
      if (tracker.changes(peer) < base + required_) return false;
    }
    return true;
  }

  [[nodiscard]] bool armed() const noexcept { return !baselines_.empty(); }

 private:
  std::vector<std::pair<std::size_t, std::uint64_t>> baselines_;
  std::uint64_t required_ = 2;
};

}  // namespace stig::sim
