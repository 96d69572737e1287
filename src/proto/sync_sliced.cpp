#include "proto/sync_sliced.hpp"

#include <algorithm>
#include <cassert>
#include <iterator>
#include <span>
#include <utility>

namespace stig::proto {

namespace {
/// Consecutive at-center observations of a sender after which its streams
/// are reset to a frame boundary. A correct sender pauses at most one
/// instant between bits of a frame (the return step), so 3 is safe; after
/// a transient fault this is what heals misaligned streams.
constexpr std::uint8_t kResyncGap = 3;

/// Capacity the live-peer lists start with (see SlicedCore::changed).
constexpr std::size_t kLiveCapacity = 8;
}  // namespace

void SyncSlicedRobot::initialize(const sim::Snapshot& snap) {
  core_ = SlicedCore(snap, options_.naming, snap.robots.size(),
                     std::move(options_.shared_naming));
  peer_was_off_.assign(core_.robot_count(), false);
  peer_idle_.assign(core_.robot_count(), 0);
  decode_all_ = kResyncGap;
  if (core_.tracks_changes()) {
    pending_.reserve(kLiveCapacity);
    live_.reserve(kLiveCapacity);
  }
}

geom::Vec2 SyncSlicedRobot::on_activate(const sim::Snapshot& snap) {
  note_activation(snap);
  const std::size_t self = core_.self_index();
  // Stabilization: re-derive the flocking clock from observed time instead
  // of trusting the stored counter. In a synchronous system the two are
  // equal (bit-identical in a correct run); after a transient corruption
  // of step_ the drift estimate self-heals on the very next activation.
  step_ = snap.t;
  const geom::Vec2 drift = drift_at(step_);

  // Granular-naming audit (stabilization), O(1) unless this robot's
  // tables were scrambled. A detected repair also resets every stream: a
  // robot with corrupted names has been filing decoded bits under the
  // wrong (sender, addressee) keys, so all reassembly state is suspect.
  if (core_.audit_naming()) {
    for (std::size_t j = 0; j < core_.robot_count(); ++j) {
      reset_streams_from(j);
      peer_was_off_[j] = false;
      peer_idle_[j] = 0;
    }
    decode_all_ = kResyncGap;
  }

  // Undo the common flocking drift to recover protocol-space positions
  // (into a driver-owned snapshot copy that reuses its capacity). The
  // copy moves every entry, so it carries no change hint.
  if (options_.flock_velocity == geom::Vec2{0.0, 0.0}) {
    core_.observe(snap);
  } else {
    snap_scratch_.t = snap.t;
    snap_scratch_.self = snap.self;
    snap_scratch_.robots.clear();
    for (sim::ObservedRobot r : snap.robots) {
      r.position -= drift;
      snap_scratch_.robots.push_back(r);
    }
    core_.observe(snap_scratch_);
  }

  // Decode every other robot's movement signal. A bit is emitted on the
  // center -> off-center transition; the sender names the addressee by the
  // diameter label *in its own labeling*, which we reconstruct. A peer
  // whose memo did not change reads the signal it read last time, so its
  // update changes nothing once its idle counter has run out: only the
  // peers whose memo changed and those still counting are decoded, in
  // ascending order, as a loop over every peer would meet them. A core
  // that does not track changes (a small swarm) has every peer decoded.
  const bool all = decode_all_ != 0 || !core_.tracks_changes();
  if (decode_all_ != 0) --decode_all_;
  live_.clear();
  if (!all) {
    const std::span<const std::uint32_t> changed = core_.changed();
    std::set_union(changed.begin(), changed.end(), pending_.begin(),
                   pending_.end(), std::back_inserter(live_));
  }
  // The peers whose counter runs on are rebuilt by the last activation
  // that decodes them all, and by every other one.
  const bool track = decode_all_ == 0 && core_.tracks_changes();
  pending_.clear();
  const std::size_t count = all ? core_.robot_count() : live_.size();
  for (std::size_t c = 0; c < count; ++c) {
    const std::size_t j = all ? c : live_[c];
    if (j == self) continue;
    const auto signal = core_.signal(j);
    if (signal && !peer_was_off_[j]) {
      const std::size_t addressee_robot =
          core_.robot_with_rank(j, signal->diameter);
      on_bit_decoded(core_.rank(self, j), core_.rank(self, addressee_robot),
                     signal->side == geom::DiameterSide::positive ? 0 : 1);
    }
    peer_was_off_[j] = signal.has_value();
    // Stream resynchronization (stabilization): a sender at rest for
    // several instants is at a frame boundary; drop any partial frame a
    // transient fault may have left in its streams.
    if (signal) {
      peer_idle_[j] = 0;
    } else if (peer_idle_[j] < kResyncGap &&
               ++peer_idle_[j] == kResyncGap) {
      reset_streams_from(core_.rank(self, j));
    } else if (track && peer_idle_[j] < kResyncGap) {
      pending_.push_back(static_cast<std::uint32_t>(j));
    }
  }

  // Our own move (protocol space), then re-apply drift for the next instant.
  geom::Vec2 target;
  if (displaced_) {
    note_phase("return");
    target = core_.center(self);
    displaced_ = false;
    advance_outbox();  // The out-and-back signal is now complete.
  } else if (const auto bit = peek_bit()) {
    note_phase("signal");
    const double headroom =
        std::max(0.0, options_.sigma_local - drift_speed());
    const double amp =
        std::min(0.8 * headroom,
                 options_.amplitude_fraction * core_.radius(self));
    assert(amp > 0.0 && "sigma too small to signal");
    const Signal s{bit->first, bit->second == 0
                                   ? geom::DiameterSide::positive
                                   : geom::DiameterSide::negative};
    target = core_.signal_point(s, amp);
    displaced_ = true;
  }
  else {
    // Silent — and self-healing: the rest position is the granular center,
    // so a robot displaced by a transient fault walks back instead of
    // resting wherever the fault left it. In a correct run this is a no-op.
    note_phase("idle");
    target = core_.center(self);
  }

  return target + drift_at(step_ + 1);
}

void SyncSlicedRobot::corrupt_protocol_state(CorruptKind kind,
                                             std::uint64_t garbage) {
  if (kind == CorruptKind::naming) {
    core_.scramble_naming(garbage);
    return;
  }
  // Recoverable phase envelope: a flipped mid-bit flag drops or repeats a
  // signal, scrambled edge/idle trackers miss, duplicate or spuriously
  // reset a stream — all frame content/alignment damage the CRC rejects
  // and the kResyncGap idle rule realigns once the sender rests. The
  // flocking clock heals on the next activation (re-derived from snap.t).
  displaced_ = (garbage & 1) != 0;
  step_ += (garbage >> 32) | 1;
  decode_all_ = kResyncGap;
  if (!peer_was_off_.empty()) {
    peer_was_off_[(garbage >> 8) % peer_was_off_.size()] =
        (garbage & 2) != 0;
    // Strictly below kResyncGap: the reset fires on the ++ == gap
    // transition, so a counter planted at the gap would suppress resyncs
    // for that stream instead of forcing one.
    peer_idle_[(garbage >> 16) % peer_idle_.size()] =
        static_cast<std::uint8_t>(garbage % kResyncGap);
  }
}

}  // namespace stig::proto
