#include "proto/asyncn.hpp"

#include <algorithm>
#include <cassert>
#include <utility>

namespace stig::proto {
namespace {

/// Idle oscillation stays within this fraction of the radius on kappa.
constexpr double kKappaBand = 0.7;
/// Data-ray bounce band (fractions of the radius). The lower edge stays far
/// above the at-center threshold so a bit in flight never reads as neutral.
constexpr double kOutLow = 0.35;
constexpr double kOutHigh = 0.85;
/// Arrival threshold at the center, as a fraction of the radius; strictly
/// below SlicedCore's at-center classification band.
constexpr double kArrive = 1e-9;
/// Movement step as a fraction of the own granular radius. Chosen
/// irrational-ish so bounce orbits never become exactly periodic.
constexpr double kStepFraction = 0.113371;
/// Best-effort stabilization: after this many consecutive *neutral*
/// observations of a sender, its streams are reset to a frame boundary.
/// Must exceed the longest bit separator the scheduler can produce (a few
/// fairness bounds). Unlike the synchronous protocols' 3-instant rule this
/// is a heuristic — asynchronous senders legitimately sit on kappa between
/// bits — so the threshold is large.
constexpr std::uint32_t kIdleResyncThreshold = 4096;

}  // namespace

void AsyncNRobot::initialize(const sim::Snapshot& snap) {
  // n + 1 diameters: kappa plus one per rank.
  core_ = SlicedCore(snap, options_.naming, snap.robots.size() + 1,
                     std::move(options_.shared_naming));
  tracker_ = sim::ChangeTracker(core_.robot_count(),
                                1e-9 * core_.min_radius());
  peer_state_.assign(core_.robot_count(), 0);
  peer_idle_.assign(core_.robot_count(), 0);
  phase_ = Phase::idle;
  kappa_dir_ = core_.granular(core_.self_index())
                   .direction(kKappa, geom::DiameterSide::positive);
}

double AsyncNRobot::step_size() const {
  return std::min(0.9 * options_.sigma_local,
                  kStepFraction * core_.radius(core_.self_index()));
}

geom::Vec2 AsyncNRobot::kappa_move(const geom::Vec2& cur) {
  const geom::Granular& g = core_.granular(core_.self_index());
  const double band = kKappaBand * g.radius();
  const double step = step_size();
  const double offset = geom::dot(cur - g.center(), kappa_dir_);
  if (kappa_sign_ > 0 && offset + step > band) kappa_sign_ = -1;
  if (kappa_sign_ < 0 && offset - step < -band) kappa_sign_ = 1;
  // Recomputing from the center keeps the orbit exactly on the kappa line.
  return g.center() +
         kappa_dir_ * (offset + static_cast<double>(kappa_sign_) * step);
}

geom::Vec2 AsyncNRobot::out_move(const geom::Vec2& cur) {
  const geom::Granular& g = core_.granular(core_.self_index());
  const double step = step_size();
  const double lo = kOutLow * g.radius();
  const double hi = kOutHigh * g.radius();
  const double offset = geom::dot(cur - g.center(), out_dir_);
  if (out_sign_ > 0 && offset + step > hi) out_sign_ = -1;
  if (out_sign_ < 0 && offset - step < lo) out_sign_ = 1;
  return g.center() +
         out_dir_ * (offset + static_cast<double>(out_sign_) * step);
}

geom::Vec2 AsyncNRobot::center_move(const geom::Vec2& /*cur*/) const {
  // The engine clamps to sigma, preserving the direction.
  return core_.center(core_.self_index());
}

void AsyncNRobot::decode() {
  const std::size_t self = core_.self_index();
  for (std::size_t j = 0; j < core_.robot_count(); ++j) {
    if (j == self) continue;
    const auto sig = core_.signal(j);
    std::int64_t code = 0;
    if (sig && sig->diameter != kKappa) {
      code = static_cast<std::int64_t>(sig->diameter);
      if (sig->side == geom::DiameterSide::negative) code = -code;
    }
    if (code != 0 && code != peer_state_[j]) {
      const std::size_t rank = sig->diameter - 1;  // kappa shifts by one.
      const std::size_t addressee = core_.robot_with_rank(j, rank);
      on_bit_decoded(core_.rank(self, j), core_.rank(self, addressee),
                     sig->side == geom::DiameterSide::positive ? 0 : 1);
    }
    peer_state_[j] = code;
    if (code != 0) {
      peer_idle_[j] = 0;
    } else if (peer_idle_[j] < kIdleResyncThreshold &&
               ++peer_idle_[j] == kIdleResyncThreshold) {
      reset_streams_from(core_.rank(self, j));
    }
  }
}

geom::Vec2 AsyncNRobot::on_activate(const sim::Snapshot& snap) {
  note_activation(snap);
  const std::size_t self = core_.self_index();

  // Granular-naming audit (stabilization) — see SyncSlicedRobot. A repair
  // invalidates all rank-keyed reassembly, and this protocol's idle-resync
  // heuristic is far too slow to be trusted with it, so the repair resets
  // everything itself.
  if (core_.audit_naming()) {
    for (std::size_t j = 0; j < core_.robot_count(); ++j) {
      reset_streams_from(j);
      peer_state_[j] = 0;
      peer_idle_[j] = 0;
    }
  }

  core_.observe(snap);
  for (std::size_t j = 0; j < core_.robot_count(); ++j) {
    if (j != self) tracker_.observe(j, core_.position(j));
  }
  decode();

  const geom::Vec2 cur = core_.position(self);
  const double arrive = kArrive * core_.radius(self);

  if (phase_ == Phase::idle && peek_bit()) phase_ = Phase::go_center;

  switch (phase_) {
    case Phase::idle:
      note_phase("idle");
      return kappa_move(cur);

    case Phase::go_center: {
      note_phase("go_center");
      if (std::is_gt(geom::dist_cmp(cur, core_.center(self), arrive))) {
        return center_move(cur);
      }
      // At the center: start the bit. The ack window opens with this move.
      const auto bit = peek_bit();
      if (!bit) {
        // Reachable only through a corrupted phase flag (go_center is
        // entered with a bit pending): fall back to the idle oscillation.
        note_phase("idle");
        phase_ = Phase::idle;
        return kappa_move(cur);
      }
      // bit->first == self_slot() is the broadcast lane; kappa occupies
      // diameter 0.
      out_dir_ = core_.granular(self).direction(
          bit->first + 1, bit->second == 0 ? geom::DiameterSide::positive
                                           : geom::DiameterSide::negative);
      barrier_.arm(tracker_, self, options_.ack_changes);
      note_ack_window();
      out_sign_ = 1;
      note_phase("signal");
      phase_ = Phase::out;
      return out_move(cur);
    }

    case Phase::out:
      note_phase("signal");
      if (barrier_.satisfied(tracker_)) {
        // Everyone observed the signal (Lemma 4.1): bit acknowledged.
        note_ack();  // Global barrier: every peer changed twice.
        advance_outbox();
        note_phase("return");
        phase_ = Phase::back;
        return center_move(cur);
      }
      return out_move(cur);

    case Phase::back:
      note_phase("return");
      if (std::is_gt(geom::dist_cmp(cur, core_.center(self), arrive))) {
        return center_move(cur);
      }
      barrier_.arm(tracker_, self, options_.ack_changes);  // Separator.
      kappa_sign_ = 1;
      note_phase("separator");
      phase_ = Phase::separator;
      return kappa_move(cur);

    case Phase::separator:
      note_phase("separator");
      if (barrier_.satisfied(tracker_)) {
        phase_ = peek_bit() ? Phase::go_center : Phase::idle;
        // Either way this activation still moves; go_center starts heading
        // back from wherever the kappa oscillation left us.
        return phase_ == Phase::go_center ? center_move(cur)
                                          : kappa_move(cur);
      }
      return kappa_move(cur);
  }
  return cur;  // Unreachable.
}

void AsyncNRobot::corrupt_protocol_state(CorruptKind kind,
                                         std::uint64_t garbage) {
  if (kind == CorruptKind::naming) {
    core_.scramble_naming(garbage);
    return;
  }
  // Restricted-by-design envelope (docs/STABILIZATION.md): like Async2,
  // this protocol has no fast idle window — the 4096-neutral heuristic is
  // far too slow to count on — so nothing that inserts or deletes a
  // stream bit is writable: not the decoder's edge states, not the ray of
  // a bit in flight, and not the out/back/separator phases (leaving any
  // of them early re-signals or under-separates the bit in flight).
  // Writable: the bounce directions (self-correcting at the band edges),
  // the ack barrier (re-armed wider — delay only, and the re-arm restores
  // the Lemma 4.1 guarantee), the idle<->go_center flags (mutually
  // self-healing: idle re-enters go_center while a bit is pending, and
  // go_center without one falls back to idle), and an idle-resync counter
  // cleared to 0 (a pure delay of the heuristic — planting a high value
  // could fire a spurious mid-frame reset this protocol cannot outrun).
  kappa_sign_ = (garbage & 1) != 0 ? 1 : -1;
  out_sign_ = (garbage & 2) != 0 ? 1 : -1;
  if (phase_ == Phase::idle || phase_ == Phase::go_center) {
    phase_ = (garbage & 4) != 0 ? Phase::go_center : Phase::idle;
  }
  barrier_.arm(tracker_, core_.self_index(),
               options_.ack_changes + garbage % 8);
  if (!peer_idle_.empty()) {
    peer_idle_[(garbage >> 8) % peer_idle_.size()] = 0;
  }
}

}  // namespace stig::proto
