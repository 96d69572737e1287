// Sync2 protocol tests (Section 3.1): coding correctness, silence, the
// amplitude (byte) extension, bidirectional chatter, chirality.
#include <gtest/gtest.h>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::Synchrony;

ChatNetworkOptions sync2_options() {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  return opt;
}

std::vector<std::uint8_t> random_payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

TEST(Sync2, TwoStepsPerBit) {
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{5, 0}}, sync2_options());
  const auto msg = random_payload(4, 1);
  net.send(0, 1, msg);
  const std::uint64_t frame_bits =
      encode::encode_frame(msg).size();  // varint + payload + crc.
  ASSERT_TRUE(net.run_until_quiescent(10'000));
  // Exactly 2 instants per bit: one out, one back.
  EXPECT_EQ(net.engine().now(), 2 * frame_bits);
  EXPECT_EQ(net.stats(0).bits_sent, frame_bits);
}

TEST(Sync2, SilentWhenIdle) {
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{5, 0}}, sync2_options());
  net.run(100);
  // The Section 5 "silent" property: no message, no movement.
  EXPECT_EQ(net.engine().motion(0).moves, 0u);
  EXPECT_EQ(net.engine().motion(1).moves, 0u);
  EXPECT_EQ(net.stats(0).idle_activations, 100u);
}

TEST(Sync2, SimultaneousBidirectional) {
  ChatNetwork net({geom::Vec2{1, 2}, geom::Vec2{-3, 7}}, sync2_options());
  const auto a = random_payload(16, 2);
  const auto b = random_payload(11, 3);
  net.send(0, 1, a);
  net.send(1, 0, b);
  ASSERT_TRUE(net.run_until_quiescent(10'000));
  net.run(4);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, a);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, b);
}

TEST(Sync2, SeveralMessagesInOrder) {
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{4, 0}}, sync2_options());
  std::vector<std::vector<std::uint8_t>> msgs;
  for (std::uint64_t i = 0; i < 5; ++i) {
    msgs.push_back(random_payload(3 + i, 10 + i));
    net.send(0, 1, msgs.back());
  }
  ASSERT_TRUE(net.run_until_quiescent(20'000));
  net.run(4);
  ASSERT_EQ(net.received(1).size(), 5u);
  for (std::size_t i = 0; i < 5; ++i) {
    EXPECT_EQ(net.received(1)[i].payload, msgs[i]);
  }
}

TEST(Sync2, MirroredFramesStillWork) {
  // Chirality = both robots share (here: left) handedness.
  ChatNetworkOptions opt = sync2_options();
  opt.mirrored_frames = true;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{3, 3}}, opt);
  const auto msg = random_payload(8, 21);
  net.send(1, 0, msg);
  ASSERT_TRUE(net.run_until_quiescent(10'000));
  net.run(4);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, msg);
}

TEST(Sync2, RobotsReturnToBaseBetweenBits) {
  ChatNetworkOptions opt = sync2_options();
  opt.record_positions = true;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{5, 0}}, opt);
  net.send(0, 1, random_payload(2, 4));
  ASSERT_TRUE(net.run_until_quiescent(10'000));
  const auto& hist = net.position_history();
  // Even-indexed configurations (0, 2, 4, ...) have robot 0 at its base.
  for (std::size_t t = 0; t < hist.size(); t += 2) {
    EXPECT_NEAR(geom::dist(hist[t][0], geom::Vec2{0, 0}), 0.0, 1e-9)
        << "t=" << t;
  }
}

// The byte-coding remark: sweep symbol widths; messages arrive intact and
// the instant count shrinks proportionally.
class Sync2AmplitudeTest : public ::testing::TestWithParam<unsigned> {};

TEST_P(Sync2AmplitudeTest, DeliversWithFewerSteps) {
  const unsigned bits = GetParam();
  ChatNetworkOptions opt = sync2_options();
  opt.sync2_bits_per_symbol = bits;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{8, 0}}, opt);
  const auto msg = random_payload(32, 5 + bits);
  net.send(0, 1, msg);
  const std::uint64_t frame_bits = encode::encode_frame(msg).size();
  ASSERT_TRUE(net.run_until_quiescent(10'000));
  net.run(4);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, msg);
  EXPECT_EQ(net.stats(0).bits_sent, frame_bits);
  // 2 instants per symbol, bits/symbol bits per symbol.
  EXPECT_LE(net.engine().now() - 4, 2 * frame_bits / bits + 2);
}

INSTANTIATE_TEST_SUITE_P(SymbolWidths, Sync2AmplitudeTest,
                         ::testing::Values(1, 2, 4, 8));

// Property sweep: random payloads and geometries, both directions.
class Sync2PropertyTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(Sync2PropertyTest, RandomChatterRoundTrips) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed);
  ChatNetworkOptions opt = sync2_options();
  opt.seed = seed;
  const geom::Vec2 p0{rng.uniform(-50, 50), rng.uniform(-50, 50)};
  geom::Vec2 p1;
  do {
    p1 = geom::Vec2{rng.uniform(-50, 50), rng.uniform(-50, 50)};
  } while (geom::dist(p0, p1) < 1.0);
  ChatNetwork net({p0, p1}, opt);
  const auto a = random_payload(1 + seed % 40, seed * 3);
  const auto b = random_payload(1 + seed % 23, seed * 5);
  net.send(0, 1, a);
  net.send(1, 0, b);
  ASSERT_TRUE(net.run_until_quiescent(20'000));
  net.run(4);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, a);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, b);
}

INSTANTIATE_TEST_SUITE_P(Seeds, Sync2PropertyTest,
                         ::testing::Range<std::uint64_t>(1, 21));

}  // namespace
}  // namespace stig
