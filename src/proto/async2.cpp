#include "proto/async2.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "geom/angle.hpp"

namespace stig::proto {

void Async2Robot::initialize(const sim::Snapshot& snap) {
  if (snap.robots.size() != 2) {
    throw std::invalid_argument("Async2Robot requires exactly two robots");
  }
  self_t0_ = snap.self;
  const geom::Vec2 self = snap.self_robot().position;
  const geom::Vec2 peer = snap.robots.position(1 - snap.self);
  sep_ = geom::dist(self, peer);
  north_ = (self - peer).normalized();  // Away from the peer.
  east_ = geom::rotate_clockwise(north_, geom::kPi / 2.0);
  peer_east_ = geom::rotate_clockwise(-north_, geom::kPi / 2.0);
  base_ = self;
  h_unit_ = north_.normalized();
  tolerance_ = 1e-7 * sep_;
  // Initial march window doubles as the handshake: no bit is sent before
  // the peer has been observed to change twice (Corollary 4.2).
  barrier_.arm(tracker_, /*self_slot=*/1, options_.ack_changes);
}

double Async2Robot::step_size() const {
  double step = options_.step_fraction * sep_;
  step = std::min(step, 0.9 * options_.sigma_local);
  if (options_.bound == BoundKind::banded) {
    step = std::min(step, options_.band_fraction * sep_ / 4.0);
  }
  return step;
}

geom::Vec2 Async2Robot::march_move(const geom::Vec2& cur) {
  // Stabilization recovery: marching assumes the robot sits on H. A
  // corrupted phase flag can enter the march mid-return; marching parallel
  // to H would then signal the stale side forever — and Async2 has no idle
  // window to heal through. Walk home first. Unreachable in a correct run
  // (the go_back -> march transition requires distance <= tolerance / 2,
  // and marching preserves the off-H component).
  if (off_horizon(cur) > 0.5 * tolerance_) {
    return onto_horizon(cur);  // sigma-clamped by the engine.
  }
  const double step = step_size();
  if (options_.bound == BoundKind::unbounded) {
    return cur + north_ * step;
  }
  // Banded: bounce along H inside [0, band] North of the start position.
  const double band = options_.band_fraction * sep_;
  const double offset = geom::dot(cur - base_, north_);
  if (march_sign_ > 0 && offset + step > band) march_sign_ = -1;
  if (march_sign_ < 0 && offset - step < 0.0) march_sign_ = 1;
  return cur + north_ * (static_cast<double>(march_sign_) * step);
}

void Async2Robot::corrupt_protocol_state(CorruptKind kind,
                                         std::uint64_t garbage) {
  // No naming tables with two robots, so ::naming is vacuous here.
  if (kind != CorruptKind::phase) return;
  // Restricted-by-design envelope (docs/STABILIZATION.md): Async2 has no
  // idle window — Remark 4.3 keeps both robots moving forever — so any
  // corruption that inserts or deletes a stream bit (a phantom excursion,
  // a flipped decoder side, a re-signaled bit in flight) could never be
  // realigned. What *is* writable: the bounce direction (self-correcting
  // at the band edges), the ack barrier (re-armed with a garbage-widened
  // threshold — wider only delays, and the re-arm itself restores the
  // Lemma 4.1 guarantee), and the march/go_back flags (the march recovery
  // branch walks an off-H robot home; the re-armed barrier restores the
  // separator guarantee). The excursion phase is left alone: leaving it
  // early would signal the bit in flight twice.
  march_sign_ = (garbage & 1) != 0 ? 1 : -1;
  if (phase_ != Phase::excurse) {
    phase_ = (garbage & 2) != 0 ? Phase::march : Phase::go_back;
  }
  barrier_.arm(tracker_, /*self_slot=*/1, options_.ack_changes + garbage % 8);
}

geom::Vec2 Async2Robot::on_activate(const sim::Snapshot& snap) {
  note_activation(snap);
  const geom::Vec2 self = snap.self_robot().position;
  const geom::Vec2 peer = snap.robots.position(1 - snap.self);
  tracker_.observe(0, peer);

  // Decode the peer: which side of H is it on? (East/West are relative to
  // the *peer's* North; chirality makes the convention common.)
  const double e = geom::dot(peer - onto_horizon(peer), peer_east_);
  const int cls = e > tolerance_ ? 1 : (e < -tolerance_ ? -1 : 0);
  if (cls != 0 && cls != peer_state_) {
    on_bit_decoded(/*sender=*/1, /*addressee=*/0, cls > 0 ? 0 : 1);
  }
  peer_state_ = cls;

  // Our own move.
  switch (phase_) {
    case Phase::march: {
      note_phase("march");
      const auto bit = peek_bit();
      if (bit && barrier_.satisfied(tracker_)) {
        // Slot 1 is the peer; slot 0 (our own) is the broadcast lane,
        // which with two robots reaches the same single peer, as in Sync2.
        assert(bit->first < slot_count());
        exc_dir_ = bit->second == 0 ? east_ : -east_;
        barrier_.arm(tracker_, 1, options_.ack_changes);
        note_ack_window();
        note_phase("excursion");
        phase_ = Phase::excurse;
        return self + exc_dir_ * step_size();
      }
      return march_move(self);
    }
    case Phase::excurse: {
      note_phase("excursion");
      if (barrier_.satisfied(tracker_)) {
        // Ack received: the peer saw this excursion. Head back to H.
        note_ack(/*peer_slot=*/1);
        advance_outbox();
        note_phase("return");
        phase_ = Phase::go_back;
        return onto_horizon(self);
      }
      return self + exc_dir_ * step_size();
    }
    case Phase::go_back: {
      note_phase("return");
      if (off_horizon(self) <= 0.5 * tolerance_) {
        note_phase("march");
        phase_ = Phase::march;
        barrier_.arm(tracker_, 1, options_.ack_changes);  // Separator window.
        return march_move(self);
      }
      return onto_horizon(self);  // sigma-clamped by the engine.
    }
  }
  return self;  // Unreachable.
}

}  // namespace stig::proto
