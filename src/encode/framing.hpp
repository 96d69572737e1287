// Message framing over a raw bit stream.
//
// The movement protocols deliver an ordered stream of bits per
// (sender, addressee) pair. Frames make that stream carry whole messages:
//
//   frame := varint(payload_length) | payload bytes | crc8(payload)
//
// transmitted MSB-first bit by bit. The parser is incremental: feed it one
// bit per decoded movement signal and collect completed messages. stigd's
// wire protocol (serve/wire.hpp) carries the same frames over a byte
// stream, read by the same Deframer.
#pragma once

#include <array>
#include <cstdint>
#include <span>
#include <utility>
#include <vector>

#include "encode/bits.hpp"
#include "obs/cov.hpp"

namespace stig::encode {

/// Upper bound on accepted payload sizes; anything larger on the wire is
/// treated as corruption rather than waited for indefinitely.
inline constexpr std::uint64_t kMaxPayload = 1 << 20;

/// Wraps one payload into its on-the-wire bytes.
[[nodiscard]] std::vector<std::uint8_t> frame_bytes(
    std::span<const std::uint8_t> payload);

/// Encodes one payload into its on-the-wire bit representation.
[[nodiscard]] BitString encode_frame(std::span<const std::uint8_t> payload);

/// Incremental byte-stream deframer; one instance per in-order stream.
///
/// A bad varint, an oversized declared length or a CRC mismatch counts one
/// corrupt frame, drops one byte, and starts a hunt for the next complete,
/// CRC-valid frame at any offset (garbage before it is discarded), so a
/// stream joined mid-frame or damaged in flight heals at the next frame
/// boundary. Frames come out as if the bytes had arrived one at a time:
/// how a stream is cut into `feed` calls changes nothing.
class Deframer {
 public:
  /// Appends bytes and extracts every frame they complete.
  void feed(std::span<const std::uint8_t> bytes);

  /// Completed, CRC-valid payloads accumulated so far; caller takes
  /// ownership and the internal list is cleared.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> take_frames() {
    return std::exchange(frames_, {});
  }

  /// Frames dropped due to CRC mismatch, malformed or oversized length,
  /// or a reset mid-frame.
  [[nodiscard]] std::uint64_t corrupt_frames() const noexcept {
    return corrupt_;
  }

  /// True when bytes of an unfinished frame are buffered.
  [[nodiscard]] bool buffered() const noexcept { return !buffer_.empty(); }

  /// Drops the buffered bytes and ends any hunt. Dropping a `partial`
  /// frame counts as one corrupt frame.
  void reset(bool partial);

  /// Transient-corruption hook: replaces the buffer with `length` copies
  /// of `byte`, hunting or not. Counters are left alone.
  void scramble(std::size_t length, std::uint8_t byte, bool hunting) {
    buffer_.assign(length, byte);
    resync_ = hunting;
  }

  /// Attaches a coverage map (not owned; null detaches): records
  /// frame-domain edges between parse outcomes (accept, the three
  /// corruption kinds, hunt recovery, mid-frame reset).
  void set_coverage(obs::cov::CovMap* map) noexcept;

 private:
  enum Outcome : std::uint8_t {
    accept, corrupt_varint, corrupt_len, corrupt_crc, recovered, reset_partial,
    kOutcomes
  };
  /// Records outcome `o` as a frame-domain edge from the previous one.
  void note(Outcome o) noexcept {
    if (cov_.map != nullptr) {
      cov_.map->hit(obs::cov::Domain::frame, cov_.prev, cov_.states[o]);
      cov_.prev = cov_.states[o];
    }
  }
  [[nodiscard]] std::size_t hunt(std::size_t seen);

  std::vector<std::uint8_t> buffer_;  ///< Bytes of frames not yet complete.
  std::vector<std::vector<std::uint8_t>> frames_;
  std::uint64_t corrupt_ = 0;
  // A struct of its own: flattened, these fields would pack with resync_
  // and shrink every FrameParser (one per stream), which the exact PERF
  // byte counts would see.
  struct {
    obs::cov::CovMap* map = nullptr;  ///< Not owned; null when off.
    std::array<obs::cov::StateId, kOutcomes> states{};  ///< Interned.
    obs::cov::StateId prev = obs::cov::kInvalidState;
  } cov_;
  bool resync_ = false;  ///< Hunting for a frame after a corrupt prefix.
};

/// Incremental frame parser; one instance per in-order bit stream. It
/// assembles bytes for its Deframer.
class FrameParser {
 public:
  /// Feeds one bit (0 or 1) into the parser.
  void push_bit(std::uint8_t bit);

  /// The Deframer's take_frames and corrupt_frames.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> take_messages() {
    return deframer_.take_frames();
  }
  [[nodiscard]] std::uint64_t corrupt_frames() const noexcept {
    return deframer_.corrupt_frames();
  }

  /// Bits consumed over the parser's lifetime.
  [[nodiscard]] std::uint64_t bits_consumed() const noexcept { return bits_; }

  /// True when a frame is partially assembled (bits received since the
  /// last completed frame).
  [[nodiscard]] bool mid_frame() const noexcept {
    return partial_count_ != 0 || deframer_.buffered();
  }

  /// Drops any partially assembled frame and realigns the bit stream.
  /// Receivers call this when the sender provably sits at a frame boundary
  /// (a correct sender never pauses mid-frame), healing streams corrupted
  /// by transient faults — the stabilization mechanism of Section 5.
  void reset() {
    deframer_.reset(mid_frame());
    partial_ = 0;
    partial_count_ = 0;
  }

  /// Transient-corruption hook (proto::CorruptKind::parser): overwrites
  /// the assembly state with arbitrary seed-derived bytes — a fake partial
  /// buffer of 1–8 bytes and possibly a hunt — as if the parser had been
  /// struck mid-frame. The mid-byte bit count is deliberately preserved:
  /// frames are whole bytes, so the byte-level hunt can recover any
  /// byte-content damage, but a shifted bit phase is invisible to it and
  /// only reset() (which needs an idle sender) can heal it — and the async
  /// 2-robot protocol never idles. Recovery is the normal discipline: the
  /// CRC rejects the inconsistent frame and the hunt / reset() realign the
  /// stream. Counters (corrupt_frames, bits_consumed) are left alone so
  /// accounting stays monotone.
  void scramble(std::uint64_t garbage) {
    deframer_.scramble(1 + (garbage & 7), static_cast<std::uint8_t>(garbage),
                       (garbage & 1) != 0);
    partial_ = static_cast<std::uint8_t>(garbage >> 8);
  }

  /// The Deframer's set_coverage.
  void set_coverage(obs::cov::CovMap* map) noexcept {
    deframer_.set_coverage(map);
  }

 private:
  Deframer deframer_;
  std::uint8_t partial_ = 0;  ///< Bits of the byte in flight.
  std::size_t partial_count_ = 0;
  std::uint64_t bits_ = 0;
};

}  // namespace stig::encode
