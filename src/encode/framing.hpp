// Message framing over a raw bit stream.
//
// The movement protocols deliver an ordered stream of bits per
// (sender, addressee) pair. Frames make that stream carry whole messages:
//
//   frame := varint(payload_length) | payload bytes | crc8(payload)
//
// transmitted MSB-first bit by bit. The parser is incremental: feed it one
// bit per decoded movement signal and collect completed messages.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "encode/bits.hpp"
#include "obs/cov.hpp"

namespace stig::encode {

/// Encodes one payload into its on-the-wire bit representation.
[[nodiscard]] BitString encode_frame(std::span<const std::uint8_t> payload);

/// Incremental frame parser; one instance per in-order bit stream.
class FrameParser {
 public:
  /// Feeds one bit (0 or 1) into the parser.
  void push_bit(std::uint8_t bit);

  /// Completed, CRC-valid payloads accumulated so far; caller takes
  /// ownership and the internal list is cleared.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> take_messages();

  /// Number of frames dropped due to CRC mismatch or malformed length.
  [[nodiscard]] std::uint64_t corrupt_frames() const noexcept {
    return corrupt_;
  }

  /// Bits consumed over the parser's lifetime.
  [[nodiscard]] std::uint64_t bits_consumed() const noexcept { return bits_; }

  /// True when a frame is partially assembled (bits received since the
  /// last completed frame).
  [[nodiscard]] bool mid_frame() const noexcept {
    return partial_count_ != 0 || !buffer_.empty();
  }

  /// Drops any partially assembled frame and realigns the bit stream.
  /// Receivers call this when the sender provably sits at a frame boundary
  /// (a correct sender never pauses mid-frame), healing streams corrupted
  /// by transient faults — the stabilization mechanism of Section 5.
  void reset();

  /// Transient-corruption hook (proto::CorruptKind::parser): overwrites
  /// the assembly state with arbitrary seed-derived bytes — a fake partial
  /// buffer and possibly resync mode — as if the parser had been struck
  /// mid-frame. The mid-byte bit count is deliberately preserved: frames
  /// are whole bytes, so byte-level try_resync can recover any byte-content
  /// damage, but a shifted bit phase is invisible to it and only reset()
  /// (which needs an idle sender) can heal it — and the async 2-robot
  /// protocol never idles. Recovery is the normal discipline: the CRC
  /// rejects the inconsistent frame and try_resync / reset() realign the
  /// stream. Counters (corrupt_frames, bits_consumed) are left alone so
  /// accounting stays monotone.
  void scramble(std::uint64_t garbage) {
    buffer_.assign(1 + (garbage & 7), static_cast<std::uint8_t>(garbage));
    partial_ = static_cast<std::uint8_t>(garbage >> 8);
    resync_ = (garbage & 1) != 0;
  }

  /// Attaches a coverage map (not owned; null detaches): records
  /// frame-domain edges between parse outcomes (accept, the three
  /// corruption kinds, resync recovery, mid-frame reset), so a corpus
  /// proves which parser transitions it exercised.
  void set_coverage(obs::cov::CovMap* map) noexcept;

 private:
  /// Records outcome `s` as a frame-domain edge from the previous outcome.
  void cov_note(obs::cov::StateId s) noexcept {
    if (cov_ != nullptr) {
      cov_->hit(obs::cov::Domain::frame, cov_prev_, s);
      cov_prev_ = s;
    }
  }

  void try_parse();
  /// Post-corruption recovery: accepts the first complete, CRC-valid frame
  /// at *any* buffer offset (garbage before it is discarded). Returns true
  /// when a frame was recovered and normal parsing may resume.
  bool try_resync();

  std::vector<std::uint8_t> buffer_;  ///< Whole bytes assembled so far.
  std::uint8_t partial_ = 0;          ///< Bits of the byte in flight.
  std::size_t partial_count_ = 0;
  std::vector<std::vector<std::uint8_t>> messages_;
  std::uint64_t corrupt_ = 0;
  std::uint64_t bits_ = 0;
  bool resync_ = false;  ///< Hunting for a frame after a corrupt prefix.
  obs::cov::CovMap* cov_ = nullptr;  ///< Not owned; null when off.
  /// Interned outcome states (valid while cov_ != nullptr).
  obs::cov::StateId cov_accept_ = 0, cov_corrupt_varint_ = 0,
                    cov_corrupt_len_ = 0, cov_corrupt_crc_ = 0,
                    cov_recovered_ = 0, cov_reset_ = 0;
  obs::cov::StateId cov_prev_ = obs::cov::kInvalidState;
};

}  // namespace stig::encode
