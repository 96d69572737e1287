#include "encode/framing.hpp"

#include <algorithm>

#include "encode/crc.hpp"
#include "encode/varint.hpp"

namespace stig::encode {

std::vector<std::uint8_t> frame_bytes(std::span<const std::uint8_t> payload) {
  std::vector<std::uint8_t> wire;
  wire.reserve(payload.size() + 4);
  append_varint(wire, payload.size());
  wire.insert(wire.end(), payload.begin(), payload.end());
  wire.push_back(crc8(payload));
  return wire;
}

BitString encode_frame(std::span<const std::uint8_t> payload) {
  return to_bits(frame_bytes(payload));
}

void Deframer::set_coverage(obs::cov::CovMap* map) noexcept {
  cov_.map = map;
  if (map == nullptr) return;
  static constexpr const char* kNames[kOutcomes] = {
      "frame.accept",      "frame.corrupt_varint", "frame.corrupt_len",
      "frame.corrupt_crc", "frame.recovered",      "frame.reset"};
  for (std::size_t o = 0; o < kOutcomes; ++o) {
    cov_.states[o] = map->state(kNames[o]);
  }
  // The first outcome's edge starts from an explicit start state.
  cov_.prev = map->state("frame.start");
}

void Deframer::feed(std::span<const std::uint8_t> bytes) {
  // `seen`: how many buffered bytes a parser fed one byte at a time would
  // have read when the next decision falls due (the first new byte's
  // arrival, or later). Every decision is taken as of that byte, which is
  // what makes the cut of the stream into calls invisible.
  std::size_t seen = buffer_.size() + 1;
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
  // A corrupt frame is known at byte `at`. Its length field may be what
  // was damaged, so `total` may lie about its extent, and dropping that
  // many bytes could eat the valid frame that follows: drop one byte and
  // hunt instead.
  const auto corrupt = [&](Outcome o, std::size_t at) {
    ++corrupt_;
    note(o);
    buffer_.erase(buffer_.begin());
    seen = std::max(seen, at) - 1;
    resync_ = true;
  };
  for (;;) {
    if (resync_) {
      const std::size_t end = hunt(seen);
      if (end == 0) return;  // Still hunting; wait for more bytes.
      seen = std::max(seen, end) - end;
      resync_ = false;
      continue;  // A frame was recovered; resume normal parsing.
    }
    if (buffer_.empty()) return;
    const auto header = decode_varint(buffer_);
    if (!header) {
      if (buffer_.size() < 10) return;  // Truncated varint: wait.
      // An overlong varint can never complete: the stream is corrupted.
      corrupt(corrupt_varint, 10);
      continue;
    }
    if (header->value > kMaxPayload) {
      corrupt(corrupt_len, header->consumed);
      continue;
    }
    const std::size_t len = static_cast<std::size_t>(header->value);
    const std::size_t total = header->consumed + len + 1;  // +1 for CRC.
    if (buffer_.size() < total) return;  // Wait for the full frame.
    const std::span<const std::uint8_t> payload(
        buffer_.data() + header->consumed, len);
    if (crc8(payload) != buffer_[header->consumed + len]) {
      corrupt(corrupt_crc, total);
      continue;
    }
    frames_.emplace_back(payload.begin(), payload.end());
    note(accept);
    buffer_.erase(buffer_.begin(),
                  buffer_.begin() + static_cast<std::ptrdiff_t>(total));
    seen = std::max(seen, total) - total;
  }
}

std::size_t Deframer::hunt(std::size_t seen) {
  // The corrupt prefix poisons the framing: a garbage byte read as a
  // length would make the normal parser wait (possibly forever) for a
  // frame that is not there. Hunt instead: accept a *complete*, CRC-valid
  // frame at any offset, dropping whatever garbage precedes it. Read one
  // byte at a time, the stream offers first the frames complete within
  // its first `seen` bytes, the lowest offset winning; failing those, the
  // frame that completes first. Incomplete candidates are not waited for.
  std::size_t best_end = 0;  // 0: none yet.
  std::size_t best_len = 0;
  for (std::size_t at = 0; at < buffer_.size(); ++at) {
    if (best_end != 0 && at + 2 > best_end) break;  // None completes sooner.
    const std::span<const std::uint8_t> tail(buffer_.data() + at,
                                             buffer_.size() - at);
    const auto header = decode_varint(tail);
    if (!header || header->value > kMaxPayload) continue;
    const std::size_t len = static_cast<std::size_t>(header->value);
    const std::size_t total = header->consumed + len + 1;
    if (tail.size() < total || (best_end != 0 && at + total >= best_end) ||
        crc8(tail.subspan(header->consumed, len)) !=
            tail[header->consumed + len]) {
      continue;
    }
    best_end = at + total;
    best_len = len;
    if (best_end <= seen) break;
  }
  if (best_end == 0) {
    // Nothing recoverable yet. A byte deeper than the longest frame (a
    // 10-byte varint, kMaxPayload bytes and the CRC) can begin no frame
    // the hunt would still accept, so trimming it bounds memory without
    // losing one.
    constexpr std::size_t kLongestFrame = kMaxPayload + 11;
    if (buffer_.size() > kLongestFrame) {
      buffer_.erase(buffer_.begin(),
                    buffer_.end() - static_cast<std::ptrdiff_t>(kLongestFrame));
    }
    return 0;
  }
  // The payload sits just before the frame's CRC byte.
  const auto crc = buffer_.begin() + static_cast<std::ptrdiff_t>(best_end - 1);
  frames_.emplace_back(crc - static_cast<std::ptrdiff_t>(best_len), crc);
  note(recovered);
  buffer_.erase(buffer_.begin(), crc + 1);
  return best_end;
}

void Deframer::reset(bool partial) {
  if (partial) {
    ++corrupt_;
    note(reset_partial);
  }
  buffer_.clear();
  resync_ = false;
}

void FrameParser::push_bit(std::uint8_t bit) {
  ++bits_;
  partial_ = static_cast<std::uint8_t>((partial_ << 1) | (bit & 1U));
  if (++partial_count_ == 8) {
    const std::uint8_t byte = partial_;
    partial_ = 0;
    partial_count_ = 0;
    deframer_.feed(std::span<const std::uint8_t>(&byte, 1));
  }
}

}  // namespace stig::encode
