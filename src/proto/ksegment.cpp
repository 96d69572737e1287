#include "proto/ksegment.hpp"

#include <algorithm>
#include <cassert>
#include <stdexcept>
#include <utility>

namespace stig::proto {

namespace {
/// Fraction of the granular radius used as signal amplitude.
constexpr double kAmplitudeFraction = 0.45;
}  // namespace

KSegmentRobot::KSegmentRobot(KSegmentOptions options)
    : options_(std::move(options)) {
  if (options_.k < 2) {
    throw std::invalid_argument("KSegmentRobot requires k >= 2");
  }
}

void KSegmentRobot::initialize(const sim::Snapshot& snap) {
  core_ = SlicedCore(snap, options_.naming, options_.k + 1,
                     std::move(options_.shared_naming));
  digits_ = encode::digits_needed(snap.robots.size(), options_.k);
  decode_.clear();
  decode_.resize(snap.robots.size());
}

geom::Vec2 KSegmentRobot::on_activate(const sim::Snapshot& snap) {
  note_activation(snap);
  const std::size_t self = core_.self_index();

  // Granular-naming audit (stabilization) — see SyncSlicedRobot. A repair
  // invalidates all rank-keyed reassembly.
  if (core_.audit_naming()) {
    for (std::size_t j = 0; j < core_.robot_count(); ++j) {
      reset_streams_from(j);
      DecodeState& st = decode_[j];
      st.digits.clear();
      st.in_payload = false;
      st.end_detector.reset();
      st.last_code = 0;
      st.idle = 0;
    }
  }

  core_.observe(snap);

  // --- Decode all other robots' symbols.
  for (std::size_t j = 0; j < core_.robot_count(); ++j) {
    if (j == self) continue;
    DecodeState& st = decode_[j];
    const auto sig = core_.signal(j);
    std::int64_t code = 0;
    if (sig) {
      code = static_cast<std::int64_t>(sig->diameter + 1);
      if (sig->side == geom::DiameterSide::negative) code = -code;
    }
    if (code != 0 && code != st.last_code) {
      if (!st.in_payload) {
        // Digit symbol: diameter 1+d encodes digit d.
        if (sig->diameter >= 1) {
          st.digits.push_back(static_cast<std::uint32_t>(sig->diameter - 1));
          if (st.digits.size() == digits_) {
            st.addressee_rank = encode::decode_index(st.digits, options_.k);
            st.digits.clear();
            // Stabilization guard: base-k prefixes can spell indices up to
            // k^D - 1 >= n, so a corruption-garbled prefix may name a rank
            // no robot has. A conforming sender never does; discard the
            // prefix and let the idle rule resync the stream.
            if (st.addressee_rank < core_.robot_count()) {
              st.in_payload = true;
            }
          }
        }
        // A payload symbol (diameter 0) mid-prefix cannot be produced by a
        // conforming sender under a synchronous scheduler; ignore.
      } else {
        if (sig->diameter == 0) {
          const std::uint8_t bit =
              sig->side == geom::DiameterSide::positive ? 0 : 1;
          const std::size_t addressee =
              core_.robot_with_rank(j, st.addressee_rank);
          on_bit_decoded(core_.rank(self, j), core_.rank(self, addressee),
                         bit);
          st.end_detector.push_bit(bit);
          if (!st.end_detector.take_messages().empty()) {
            st.in_payload = false;  // Frame over: next symbols are digits.
          }
        }
        // A digit symbol mid-payload is likewise non-conforming; ignore.
      }
    }
    st.last_code = code;
    // Stream resynchronization (stabilization): a sender resting for 3
    // instants is between frames; clear its digit prefix and any partial
    // frame left by a transient fault.
    if (code != 0) {
      st.idle = 0;
    } else if (st.idle < 3 && ++st.idle == 3) {
      st.digits.clear();
      st.in_payload = false;
      st.end_detector.reset();
      reset_streams_from(core_.rank(self, j));
    }
  }

  // --- Our own symbol.
  if (displaced_) {
    note_phase("return");
    displaced_ = false;
    if (!pending_digits_.empty()) {
      pending_digits_.erase(pending_digits_.begin());
      if (pending_digits_.empty()) prefix_done_ = true;
    } else {
      advance_outbox();
      if (outbox_.empty() || outbox_.front().cursor == 0) {
        prefix_done_ = false;  // Frame finished; next one needs a prefix.
      }
    }
    return core_.center(self);
  }

  const auto bit = peek_bit();
  // Silent — resting at the center also heals a fault displacement.
  if (!bit) {
    note_phase("idle");
    return core_.center(self);
  }

  // Starting a new frame? Queue its digit prefix first.
  if (!prefix_done_ && pending_digits_.empty()) {
    pending_digits_ = encode::encode_index(bit->first, core_.robot_count(),
                                           options_.k);
  }

  const double amp = std::min(0.8 * options_.sigma_local,
                              kAmplitudeFraction * core_.radius(self));
  Signal s;
  if (!pending_digits_.empty()) {
    note_phase("address");
    s = Signal{1 + pending_digits_.front(), geom::DiameterSide::positive};
  } else {
    note_phase("payload");
    s = Signal{0, bit->second == 0 ? geom::DiameterSide::positive
                                   : geom::DiameterSide::negative};
  }
  displaced_ = true;
  return core_.signal_point(s, amp);
}

void KSegmentRobot::corrupt_protocol_state(CorruptKind kind,
                                           std::uint64_t garbage) {
  if (kind == CorruptKind::naming) {
    core_.scramble_naming(garbage);
    return;
  }
  // Recoverable phase envelope. Sender side: a flipped mid-symbol flag
  // drops or repeats one symbol, a flipped prefix flag sends a payload
  // without a prefix (the receiver ignores it) or inserts a prefix
  // mid-frame (ignored mid-payload), a cleared prefix truncates the
  // address. Receiver side: one per-sender decoder gets an in-domain
  // scramble — garbage digits (the decode_index guard catches impossible
  // ranks), a flipped payload flag, a misrouting addressee rank. All of
  // it loses or misroutes at most the frames in flight; the 3-idle rule
  // clears digit state and realigns streams once the sender rests.
  displaced_ = (garbage & 1) != 0;
  prefix_done_ = (garbage & 2) != 0;
  pending_digits_.clear();
  if (!decode_.empty()) {
    DecodeState& st = decode_[(garbage >> 8) % decode_.size()];
    st.digits.clear();
    if (digits_ > 1) {
      st.digits.push_back(
          static_cast<std::uint32_t>((garbage >> 16) % options_.k));
    }
    st.in_payload = (garbage & 4) != 0;
    st.addressee_rank = (garbage >> 24) % core_.robot_count();
    st.last_code = 0;
    // Strictly below the 3-idle threshold: the reset fires on the ++ == 3
    // transition, so a counter planted *at* 3 would suppress resyncs for
    // this stream instead of forcing one.
    st.idle = static_cast<std::uint8_t>(garbage % 3);
  }
}

}  // namespace stig::proto
