// Differential test of the two frame parsers: the motion channel's
// FrameParser, fed bit by bit, and stigd's WireParser, fed in random
// chunks, read the same byte streams through one Deframer and must agree
// on every frame and every corrupt-frame count, whatever the damage and
// however the stream was cut.
#include <gtest/gtest.h>

#include "encode/framing.hpp"
#include "encode/varint.hpp"
#include "serve/wire.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using Bytes = std::vector<std::uint8_t>;

void append(Bytes& out, const Bytes& more) {
  out.insert(out.end(), more.begin(), more.end());
}

Bytes random_bytes(sim::Rng& rng, std::size_t count) {
  Bytes out(count);
  for (auto& b : out) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return out;
}

Bytes random_frame(sim::Rng& rng) {
  // Mostly short payloads; a few long enough for a 2-byte length.
  const std::size_t len = rng.uniform_int(0, 9) == 0
                              ? rng.uniform_int(128, 200)
                              : rng.uniform_int(0, 24);
  return encode::frame_bytes(random_bytes(rng, len));
}

/// One stream of valid frames mixed with every kind of damage the parsers
/// must heal from.
Bytes random_stream(sim::Rng& rng) {
  Bytes out;
  if (rng.uniform_int(0, 1) == 0) {
    append(out, random_bytes(rng, rng.uniform_int(1, 16)));  // Garbage.
  }
  const std::size_t segments = rng.uniform_int(1, 12);
  for (std::size_t s = 0; s < segments; ++s) {
    Bytes frame = random_frame(rng);
    switch (rng.uniform_int(0, 7)) {
      case 0:  // A flipped bit anywhere in the frame.
        frame[rng.uniform_int(0, frame.size() - 1)] ^=
            static_cast<std::uint8_t>(1U << rng.uniform_int(0, 7));
        break;
      case 1:  // An overlong varint before the frame.
        append(out, Bytes(10 + rng.uniform_int(0, 3), 0x80));
        break;
      case 2:  // A declared length over the cap.
        encode::append_varint(out, encode::kMaxPayload + 1 +
                                       rng.uniform_int(0, 1U << 24));
        break;
      case 3:  // A join mid-frame: the frame's head is lost.
        frame.erase(frame.begin(),
                    frame.begin() + static_cast<std::ptrdiff_t>(
                                        rng.uniform_int(1, frame.size() - 1)));
        break;
      case 4:  // Garbage between frames.
        append(out, random_bytes(rng, rng.uniform_int(1, 16)));
        break;
      default:
        break;
    }
    append(out, frame);
  }
  return out;
}

struct Parsed {
  std::vector<Bytes> frames;
  std::uint64_t corrupt = 0;
};

Parsed by_bits(const Bytes& stream) {
  encode::FrameParser parser;
  for (const std::uint8_t bit : encode::to_bits(stream)) parser.push_bit(bit);
  return {parser.take_messages(), parser.corrupt_frames()};
}

Parsed by_chunks(const Bytes& stream, sim::Rng& rng) {
  serve::WireParser parser;
  std::size_t at = 0;
  while (at < stream.size()) {
    const std::size_t n = std::min<std::size_t>(
        stream.size() - at,
        rng.uniform_int(0, 3) == 0 ? rng.uniform_int(1, 256)
                                   : rng.uniform_int(1, 8));
    parser.feed(std::span<const std::uint8_t>(stream).subspan(at, n));
    at += n;
  }
  EXPECT_EQ(parser.bytes_consumed(), stream.size());
  return {parser.take_frames(), parser.corrupt_frames()};
}

Parsed by_whole(const Bytes& stream) {
  serve::WireParser parser;
  parser.feed(stream);
  return {parser.take_frames(), parser.corrupt_frames()};
}

TEST(Deframer, BitwiseAndChunkedParsersAgree) {
  sim::Rng rng(20261021);
  std::size_t frames = 0;
  std::uint64_t corrupt = 0;
  for (int round = 0; round < 2000; ++round) {
    const Bytes stream = random_stream(rng);
    const Parsed bits = by_bits(stream);
    const Parsed chunks = by_chunks(stream, rng);
    ASSERT_EQ(bits.frames, chunks.frames) << "round " << round;
    ASSERT_EQ(bits.corrupt, chunks.corrupt) << "round " << round;
    // The other extreme cut: the whole stream in one call.
    const Parsed whole = by_whole(stream);
    ASSERT_EQ(bits.frames, whole.frames) << "round " << round;
    ASSERT_EQ(bits.corrupt, whole.corrupt) << "round " << round;
    frames += bits.frames.size();
    corrupt += bits.corrupt;
  }
  // The streams exercised both outcomes at volume.
  EXPECT_GT(frames, 4000u);
  EXPECT_GT(corrupt, 2500u);
}

TEST(Deframer, HuntPrefersTheFrameThatCompletesFirst) {
  // A garbage byte declares a 4-byte body that swallows the next frame,
  // and its CRC happens to check: read a byte at a time, the real frame
  // completes first and is the one recovered. Fed whole, the same.
  const Bytes real = encode::frame_bytes(Bytes{0x41});  // 01 41 crc
  Bytes spurious{0x04};
  append(spurious, real);
  spurious.push_back(0x00);
  const Bytes body(spurious.begin() + 1, spurious.end() - 1);
  spurious.push_back(encode::frame_bytes(body).back());
  Bytes stream{0xFF, 0xFF, 0xFF, 0x7F};  // Over the cap: starts the hunt.
  append(stream, spurious);
  for (const Parsed& got : {by_bits(stream), by_whole(stream)}) {
    ASSERT_FALSE(got.frames.empty());
    EXPECT_EQ(got.frames.front(), Bytes{0x41});
  }
}

}  // namespace
}  // namespace stig
