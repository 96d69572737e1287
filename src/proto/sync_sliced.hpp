// Synchronous one-to-one communication for n >= 2 robots
// (Sections 3.2, 3.3 and 3.4 — the naming mode selects which).
//
// Preprocessing at t0 builds the Voronoi/granular substrate. To send a bit
// to the robot of rank d, the sender moves from its granular center out on
// the diameter labeled d — Northern/Eastern side for 0, Southern/Western for
// 1 — and returns to the center on the next step: two steps per bit. The
// protocol is *silent*: a robot with nothing to send does not move.
//
// Precondition: a synchronous scheduler (every robot active each instant);
// that is what makes every movement observed by everyone, so no
// acknowledgment is needed.
//
// The class also implements the Section 5 flocking remark: an optional
// common drift velocity is added to every move and subtracted before
// decoding, so the swarm travels while chatting.
#pragma once

#include <utility>
#include <vector>

#include "proto/common.hpp"
#include "proto/slices.hpp"

namespace stig::proto {

/// Configuration for SyncSlicedRobot.
struct SyncSlicedOptions {
  NamingMode naming = NamingMode::lexicographic;
  /// The robot's own maximum per-activation travel, in its local units.
  double sigma_local = 1.0;
  /// Fraction of the granular radius used as signal amplitude.
  double amplitude_fraction = 0.45;
  /// Common flocking velocity (local units per instant). Must be the same
  /// global vector for every robot (the "agreed upon global flocking
  /// movement"); zero disables flocking. With flocking enabled the protocol
  /// is no longer silent.
  geom::Vec2 flock_velocity{0.0, 0.0};
  /// The swarm's naming tables and this robot's permutation into them
  /// (core::ChatNetwork fills it); empty = build own tables at t0.
  SharedNaming shared_naming;
};

class SyncSlicedRobot final : public ChatRobot {
 public:
  explicit SyncSlicedRobot(SyncSlicedOptions options)
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
  [[nodiscard]] geom::Vec2 drift_at(std::uint64_t t) const {
    return options_.flock_velocity * static_cast<double>(t);
  }
  [[nodiscard]] double drift_speed() const {
    return options_.flock_velocity.norm();
  }

  SyncSlicedOptions options_;
  SlicedCore core_;
  std::uint64_t step_ = 0;          ///< Own activation count (== global t in
                                    ///< a synchronous system).
  bool displaced_ = false;          ///< Mid-bit: next move returns to center.
  std::vector<bool> peer_was_off_;  ///< Decoder edge detector per robot.
  std::vector<std::uint8_t> peer_idle_;  ///< Consecutive at-center
                                         ///< observations, for stream
                                         ///< resynchronization.
  /// Activations left in which every peer is decoded: set after the
  /// decoder state was reset or scrambled, until every reset idle counter
  /// has run out.
  std::uint8_t decode_all_ = 0;
  /// Peers whose idle counter still runs, ascending; `live_` is scratch.
  std::vector<std::uint32_t> pending_;
  std::vector<std::uint32_t> live_;
  /// Drift-shifted snapshot when flocking, reused across activations.
  sim::Snapshot snap_scratch_;
};

}  // namespace stig::proto
