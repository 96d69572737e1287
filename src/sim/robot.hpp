// The robot program interface and what a robot can observe.
//
// Per the SSM: an active robot observes the instantaneous configuration
// (positions of all robots, in its own local coordinate system), computes a
// destination in that local system, and moves toward it by at most sigma_r.
// Robots are non-oblivious: implementations keep whatever state they like.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <vector>

#include "geom/vec.hpp"
#include "sim/types.hpp"

namespace stig::sim {

/// One robot as seen by an observer.
struct ObservedRobot {
  /// Position in the observer's (anchored) local frame.
  geom::Vec2 position;
  /// Visible identifier; present only in identified systems.
  std::optional<VisibleId> id;
};

/// Which entries of a snapshot may differ from the observer's previous
/// snapshot (DESIGN.md §14). The engine fills it; a hand-built snapshot
/// carries none (`known` false), and a reader must then assume that any
/// entry changed. It names listing slots, never robots. It covers every
/// slot a robot would find by diffing its two snapshots, and may list
/// more: the extra, unchanged slots come from engine state (two robots
/// that swapped exact positions, say). Protocol code may use a hint only
/// to skip work whose result the snapshots alone decide, never to decide
/// anything.
struct ChangeHint {
  bool known = false;
  /// `t` of the previous snapshot the slots are relative to.
  Time since = 0;
  /// Ascending indices into `Snapshot::robots`: every entry whose position
  /// or id may differ from the previous snapshot's entry at that index, or
  /// that the previous snapshot did not have. May list unchanged entries.
  std::vector<std::uint32_t> slots;
};

/// Engine snapshots of a swarm of at most this many robots carry no change
/// hint, and the engine keeps no rows or write stamps for it; sliced cores
/// and drivers of such a swarm skip their hint bookkeeping too (DESIGN.md
/// §14). Most of a small swarm moves between two looks of an asynchronous
/// robot, so listing it from scratch costs less than tracking what moved:
/// with every layer hinted, asynchronous four-robot chats spent about 17%
/// more CPU per instant, two thirds of it in the engine. The cutoff itself
/// is not tuned: the benchmarks run n <= 6 and n >= 128, which every value
/// from 6 to 127 treats alike.
inline constexpr std::size_t kUnhintedSwarmMax = 16;

/// Everything an active robot perceives at one instant.
///
/// `robots` contains every robot the observer sees, itself included: all
/// of them, unless a visibility radius hides the robots beyond it. In
/// anonymous systems entries are sorted lexicographically by local position
/// so that the ordering leaks no identity; in identified systems they are
/// sorted by visible id. `self` is the index of the observer's own entry —
/// a robot can always recognize itself (it knows its own position by
/// odometry; see sim/frame.hpp on anchored frames).
struct Snapshot {
  Time t = 0;
  std::vector<ObservedRobot> robots;
  std::size_t self = 0;
  ChangeHint hint;

  [[nodiscard]] const ObservedRobot& self_robot() const {
    return robots[self];
  }
  [[nodiscard]] std::size_t size() const noexcept { return robots.size(); }
};

/// A robot program.
///
/// The engine calls `initialize` exactly once for every robot at t0 (the
/// paper's Section 4.2 assumption that all robots know P(t0) / are awake at
/// t0), then `on_activate` at every instant the scheduler activates the
/// robot. The return value is the destination point in the robot's local
/// frame; returning the current position means "stay".
class Robot {
 public:
  Robot() = default;
  Robot(const Robot&) = delete;
  Robot& operator=(const Robot&) = delete;
  virtual ~Robot() = default;

  /// One-time preprocessing with the initial configuration P(t0).
  virtual void initialize(const Snapshot& snap) = 0;

  /// Activation: observe, compute, return destination (local frame).
  virtual geom::Vec2 on_activate(const Snapshot& snap) = 0;
};

}  // namespace stig::sim
