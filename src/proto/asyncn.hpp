// Asynchronous one-to-one communication among any number of robots
// (Section 4.2, Figure 6).
//
// Combines the granular/naming machinery of Section 3 with the Section 4
// implicit acknowledgments. Each granular is sliced into n+1 diameters: the
// extra diameter kappa lies on the robot's horizon line H_r (the SEC radius
// through r) and plays the role of the idle line — a robot with nothing to
// send oscillates on kappa (an active robot always moves). Diameter k+1
// addresses the robot of rank k in the sender's labeling.
//
// Per bit, a sender: returns to its granular center if away; moves out on
// the addressee's diameter (positive side = 0, negative = 1) and keeps to
// that ray until it has observed *every* robot change position twice (so
// everyone, in particular the addressee, saw the signal — Lemma 4.1); comes
// back to the center; then moves on kappa until everyone changed twice
// again, separating this bit from the next.
//
// Border avoidance: the paper shrinks step sizes by 1/x per move, which it
// itself flags as requiring infinitesimally small movements. We instead
// bounce inside fixed radial bands (idle: |offset| <= 0.7R on kappa; data:
// offset in [0.35R, 0.85R]), which keeps every step at full size — no
// numerical floor, no Zeno — while preserving the decodable structure:
// neutral positions (center or kappa slice) between bits, positions on the
// addressee's ray during a bit.
#pragma once

#include <cstdint>
#include <utility>
#include <vector>

#include "proto/common.hpp"
#include "proto/slices.hpp"
#include "sim/observation.hpp"

namespace stig::proto {

/// Configuration for AsyncNRobot.
struct AsyncNOptions {
  /// Naming scheme; `relative` (the paper's weakest assumption) by default.
  NamingMode naming = NamingMode::relative;
  /// The robot's own maximum per-activation travel, in local units.
  double sigma_local = 1.0;
  /// Movement step as a fraction of the own granular radius. Chosen
  /// irrational-ish so bounce orbits never become exactly periodic.
  double step_fraction = 0.113371;
  /// Best-effort stabilization: after this many consecutive *neutral*
  /// observations of a sender, its streams are reset to a frame boundary.
  /// Must exceed the longest bit separator the scheduler can produce
  /// (a few fairness bounds); 0 disables. Unlike the synchronous
  /// protocols' 3-instant rule this is a heuristic — asynchronous senders
  /// legitimately sit on kappa between bits — so the threshold is large.
  std::uint32_t idle_resync_threshold = 4096;
  /// Observed changes required per acknowledgment window: 2 under atomic
  /// observation (Lemma 4.1), 2d + 2 with d-stale observations.
  std::uint64_t ack_changes = 2;
  /// The swarm's naming tables and this robot's permutation into them
  /// (core::ChatNetwork fills it); empty = build own tables at t0.
  SharedNaming shared_naming;
};

class AsyncNRobot final : public ChatRobot {
 public:
  explicit AsyncNRobot(AsyncNOptions options)
      : options_(std::move(options)) {}

  void initialize(const sim::Snapshot& snap) override;
  geom::Vec2 on_activate(const sim::Snapshot& snap) override;

  /// Slots are ranks in this robot's own labeling.
  [[nodiscard]] std::size_t self_slot() const override {
    return core_.rank(core_.self_index(), core_.self_index());
  }
  [[nodiscard]] std::size_t slot_count() const override {
    return core_.robot_count();
  }

  [[nodiscard]] std::size_t slot_of_t0_index(std::size_t i) const override {
    return core_.rank(core_.self_index(), i);
  }

  [[nodiscard]] const SlicedCore& core() const noexcept { return core_; }

 protected:
  void corrupt_protocol_state(CorruptKind kind,
                              std::uint64_t garbage) override;

 private:
  enum class Phase : unsigned char {
    idle,       ///< Oscillating on kappa; no bit in flight.
    go_center,  ///< Returning to the center to start a bit.
    out,        ///< On the addressee's ray, waiting for the global ack.
    back,       ///< Returning to the center after the ack.
    separator,  ///< On kappa, waiting for the separator ack.
  };

  /// The kappa diameter index (0) addresses nobody; diameter k+1 addresses
  /// rank k.
  static constexpr std::size_t kKappa = 0;

  [[nodiscard]] double step_size() const;
  [[nodiscard]] geom::Vec2 kappa_move(const geom::Vec2& cur);
  [[nodiscard]] geom::Vec2 out_move(const geom::Vec2& cur);
  [[nodiscard]] geom::Vec2 center_move(const geom::Vec2& cur) const;
  /// Feeds every other robot's memoized signal to its decoder.
  void decode();

  AsyncNOptions options_;
  SlicedCore core_;
  Phase phase_ = Phase::idle;
  geom::Vec2 kappa_dir_;     ///< Positive half of kappa (own granular).
  geom::Vec2 out_dir_;       ///< Ray of the bit in flight.
  int kappa_sign_ = 1;       ///< Idle bounce direction along kappa.
  int out_sign_ = 1;         ///< Data bounce direction along the ray.
  sim::ChangeTracker tracker_{0};
  sim::AckBarrier barrier_;
  /// Decoder state per robot: the last classification, encoded as
  /// diameter+1 with sign for the side, 0 for neutral.
  std::vector<std::int64_t> peer_state_;
  std::vector<std::uint32_t> peer_idle_;  ///< Consecutive neutral
                                          ///< observations (resync).
};

}  // namespace stig::proto
