// Asynchronous two-robot one-to-one communication (Section 4.1, Figure 5).
//
// Under a fair (semi-synchronous) scheduler a robot can miss movements, so
// the protocol builds an implicit acknowledgment from Lemma 4.1: a robot
// that keeps moving in one direction and observes the peer's position change
// twice knows the peer observed it at least once.
//
// Protocol Async2, per robot r:
//  * North_r is the direction away from the peer along the common horizon
//    line H (the line through the two robots). While idle — and between
//    bits — r marches North along H (Remark 4.3: an active robot always
//    moves).
//  * To send a bit, r leaves H perpendicularly — East of H w.r.t. North_r
//    for 0, West for 1 — and keeps going until it has observed the peer
//    change position twice (the ack). It then returns to H, marches North
//    until it observes the peer change twice again (separating consecutive
//    bits), and may then send the next bit.
//
// `BoundKind::banded` implements the paper's closing remark that the robots
// need not drift apart forever: movement along H alternates inside a fixed
// band around the start position instead of going North unboundedly. The
// paper suggests shrinking step sizes by 1/x per move, which it itself notes
// requires infinitesimally small movements; bouncing inside a band keeps
// every step at full size (no numerical floor) while preserving exactly the
// observable structure decoding relies on: on-H positions between bits,
// strictly-East/West positions during a bit.
#pragma once

#include <cmath>

#include "geom/vec.hpp"
#include "proto/common.hpp"
#include "sim/observation.hpp"

namespace stig::proto {

/// Spatial behaviour of the idle/separator march along H.
enum class BoundKind : unsigned char {
  unbounded,  ///< Faithful Section 4.1: march North forever.
  banded,     ///< Bounded footprint: bounce inside [0, band] along North.
};

/// Configuration for Async2Robot.
struct Async2Options {
  /// The robot's own maximum per-activation travel, in local units.
  double sigma_local = 1.0;
  BoundKind bound = BoundKind::unbounded;
  /// March/excursion step as a fraction of the t0 separation.
  double step_fraction = 1.0 / 64.0;
  /// banded only: half-extent of the march band, fraction of separation.
  double band_fraction = 1.0 / 4.0;
  /// Observed position changes required per acknowledgment window. The
  /// paper's Lemma 4.1 needs 2 under atomic observation; with observations
  /// `d` instants stale the bound becomes 2d + 2 (the first d-ish changes
  /// may predate the window as the peer sees it).
  std::uint64_t ack_changes = 2;
};

/// Slot convention: slot 0 = self, slot 1 = the peer.
class Async2Robot final : public ChatRobot {
 public:
  explicit Async2Robot(Async2Options options) : options_(options) {}

  void initialize(const sim::Snapshot& snap) override;
  geom::Vec2 on_activate(const sim::Snapshot& snap) override;

  [[nodiscard]] std::size_t self_slot() const override { return 0; }
  [[nodiscard]] std::size_t slot_count() const override { return 2; }
  [[nodiscard]] std::size_t slot_of_t0_index(std::size_t i) const override {
    return i == self_t0_ ? 0 : 1;
  }

 protected:
  void corrupt_protocol_state(CorruptKind kind,
                              std::uint64_t garbage) override;

 private:
  std::size_t self_t0_ = 0;  ///< Own index in the t0 snapshot.
  enum class Phase : unsigned char { march, excurse, go_back };

  [[nodiscard]] double step_size() const;
  [[nodiscard]] geom::Vec2 march_move(const geom::Vec2& cur);
  /// Orthogonal projection of `p` onto H.
  [[nodiscard]] geom::Vec2 onto_horizon(const geom::Vec2& p) const {
    return base_ + h_unit_ * geom::dot(p - base_, h_unit_);
  }
  /// Euclidean distance from `p` to H.
  [[nodiscard]] double off_horizon(const geom::Vec2& p) const {
    return std::fabs(geom::cross(h_unit_, p - base_));
  }

  Async2Options options_;
  geom::Vec2 base_;          ///< t0 position; H passes through it.
  /// H's unit direction, north_.normalized(): it may differ from north_
  /// in the last bit, and the projections onto H are pinned with it.
  geom::Vec2 h_unit_;
  geom::Vec2 north_;         ///< Unit North_self.
  geom::Vec2 east_;          ///< Unit East w.r.t. North_self.
  geom::Vec2 peer_east_;     ///< East w.r.t. the peer's North.
  double sep_ = 0.0;         ///< t0 separation (local units).
  double tolerance_ = 0.0;   ///< On-H classification threshold.
  Phase phase_ = Phase::march;
  geom::Vec2 exc_dir_;       ///< Direction of the current excursion.
  int march_sign_ = 1;       ///< banded: current bounce direction.
  sim::ChangeTracker tracker_{1};
  sim::AckBarrier barrier_;
  int peer_state_ = 0;  ///< Decoder: -1 west, 0 on H, +1 east.
};

}  // namespace stig::proto
