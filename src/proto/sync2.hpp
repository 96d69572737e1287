// Two-robot synchronous coding (Section 3.1, Figure 1).
//
// "Each even step is used by each robot to send a bit in {0,1}. To send 0
// (resp. 1) to the other robot r', a robot r moves on its right (resp. left)
// with respect to the direction given by r'. Each odd step is used by the
// robots to come back to its first position." Silent: a robot with nothing
// to send stays put.
//
// The Section 3.1 remark — dividing the excursion range into amplitude
// levels to carry several bits per movement — is implemented via
// `bits_per_symbol > 1`. Levels are defined relative to the robots' t0
// separation (a quantity both observe), so no knowledge of the peer's sigma
// is needed and the scheme stays frame-invariant.
//
// Precondition: exactly 2 robots, synchronous scheduler, chirality.
#pragma once

#include "encode/amplitude.hpp"
#include "proto/common.hpp"

namespace stig::proto {

/// Configuration for Sync2Robot.
struct Sync2Options {
  /// The robot's own maximum per-activation travel, in local units.
  double sigma_local = 1.0;
  /// Bits carried per movement; must divide 8. 1 reproduces the paper's
  /// basic protocol, >1 the byte-coding remark.
  unsigned bits_per_symbol = 1;
};

/// Slot convention (both directions of a 2-robot chat): slot 0 is the robot
/// itself, slot 1 the peer. `send_message(1, ...)` sends to the peer.
class Sync2Robot final : public ChatRobot {
 public:
  explicit Sync2Robot(Sync2Options options);

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
  /// Signed amplitude (along the sender's "right" axis) for a symbol, and
  /// the inverse. Level 0 is full-left, the top level full-right; bit 0 of
  /// the basic protocol maps to "right" = positive.
  [[nodiscard]] double symbol_amplitude(std::uint32_t symbol) const;

  Sync2Options options_;
  encode::AmplitudeCodec codec_;
  geom::Vec2 base_self_;   ///< Own t0 position (local frame).
  geom::Vec2 base_peer_;   ///< Peer t0 position.
  geom::Vec2 right_self_;  ///< My "right" when facing the peer.
  geom::Vec2 right_peer_;  ///< Peer's "right" when facing me.
  double tolerance_ = 0.0; ///< At-base detection threshold.
  bool displaced_ = false; ///< Mid-signal: next move returns to base.
  bool peer_was_off_ = false;
  std::uint8_t peer_idle_ = 0;  ///< Consecutive at-base observations.
};

}  // namespace stig::proto
