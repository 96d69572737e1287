#include "proto/sync2.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "geom/angle.hpp"

namespace stig::proto {

Sync2Robot::Sync2Robot(Sync2Options options)
    : options_(options),
      codec_(options.bits_per_symbol, /*max_amplitude=*/1.0) {
  if (options.bits_per_symbol == 0 || 8 % options.bits_per_symbol != 0) {
    throw std::invalid_argument("bits_per_symbol must divide 8");
  }
}

void Sync2Robot::initialize(const sim::Snapshot& snap) {
  if (snap.robots.size() != 2) {
    throw std::invalid_argument("Sync2Robot requires exactly two robots");
  }
  self_t0_ = snap.self;
  base_self_ = snap.self_robot().position;
  base_peer_ = snap.robots.position(1 - snap.self);
  const geom::Vec2 facing = (base_peer_ - base_self_).normalized();
  // "Right with respect to the direction given by the peer": 90 degrees
  // clockwise from the facing direction, in the shared handedness.
  right_self_ = geom::rotate_clockwise(facing, geom::kPi / 2.0);
  right_peer_ = geom::rotate_clockwise(-facing, geom::kPi / 2.0);
  const double sep = geom::dist(base_self_, base_peer_);
  const double max_amp =
      std::min(options_.amplitude_fraction * sep, 0.8 * options_.sigma_local);
  assert(max_amp > 0.0);
  codec_ = encode::AmplitudeCodec(options_.bits_per_symbol, max_amp);
  tolerance_ = 1e-9 * sep;
}

double Sync2Robot::symbol_amplitude(std::uint32_t symbol) const {
  // Map so that the all-zero symbol lands on +max ("0 -> right") and the
  // all-one symbol on -max ("1 -> left"), generalizing the basic protocol.
  return codec_.level(codec_.levels() - 1 - symbol);
}

void Sync2Robot::corrupt_protocol_state(CorruptKind kind,
                                        std::uint64_t garbage) {
  // No naming tables with two robots, so ::naming is vacuous here.
  if (kind != CorruptKind::phase) return;
  // Recoverable envelope: each field below only garbles or drops signals
  // (a spurious return consumes an unsignaled symbol, a cleared mid-signal
  // flag skips one, a flipped edge tracker misses or repeats a decode, a
  // scrambled idle counter can fire a spurious mid-frame stream reset).
  // All of that is frame *content/alignment* damage the CRC rejects, and
  // the 3-idle rule realigns every stream once the peer provably rests —
  // at the latest when the network quiesces.
  displaced_ = (garbage & 1) != 0;
  peer_was_off_ = (garbage & 2) != 0;
  // Strictly below the 3-idle threshold: the reset fires on the ++ == 3
  // transition, so a counter planted at 3 would suppress resyncs instead
  // of forcing one.
  peer_idle_ = static_cast<std::uint8_t>((garbage >> 2) % 3);
}

geom::Vec2 Sync2Robot::on_activate(const sim::Snapshot& snap) {
  note_activation(snap);
  const geom::Vec2 peer = snap.robots.position(1 - snap.self);

  // Decode: the peer's displacement from its base along its "right" axis.
  const geom::Vec2 disp = peer - base_peer_;
  const bool off = std::is_gt(geom::dist_cmp(peer, base_peer_, tolerance_));
  if (off && !peer_was_off_) {
    const double amplitude = geom::dot(disp, right_peer_);
    if (const auto level = codec_.decode(amplitude)) {
      const std::uint32_t symbol = codec_.levels() - 1 - *level;
      for (unsigned i = options_.bits_per_symbol; i-- > 0;) {
        on_bit_decoded(/*sender=*/1, /*addressee=*/0,
                       static_cast<std::uint8_t>((symbol >> i) & 1U));
      }
    }
  }
  peer_was_off_ = off;
  // Stream resynchronization: 3 consecutive at-base observations mean the
  // peer sits at a frame boundary (a correct sender rests at most 1 instant
  // between bits); heal any fault-misaligned stream.
  if (off) {
    peer_idle_ = 0;
  } else if (peer_idle_ < 3 && ++peer_idle_ == 3) {
    reset_streams_from(1);
  }

  // Our own move: out on even signals, back on the following step; silent
  // when nothing is queued.
  if (displaced_) {
    note_phase("return");
    displaced_ = false;
    advance_outbox(options_.bits_per_symbol);
    return base_self_;
  }
  if (const auto sym = peek_symbol(options_.bits_per_symbol)) {
    note_phase("signal");
    displaced_ = true;
    return base_self_ + right_self_ * symbol_amplitude(sym->second);
  }
  // Silent — resting at the base also walks a fault-displaced robot home.
  note_phase("idle");
  return base_self_;
}

}  // namespace stig::proto
