// Remaining unit coverage: Rng determinism, horizon-direction edge
// geometry, relative naming on collinear/minimal sets, ChatStats
// accounting.
#include <gtest/gtest.h>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "encode/framing.hpp"
#include "geom/angle.hpp"
#include "proto/naming.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using geom::Vec2;

TEST(Rng, SeededStreamsReproducible) {
  sim::Rng a(42);
  sim::Rng b(42);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.uniform_int(0, 1'000'000), b.uniform_int(0, 1'000'000));
  }
  sim::Rng c(43);
  bool differs = false;
  sim::Rng a2(42);
  for (int i = 0; i < 10; ++i) {
    differs = differs ||
              (a2.uniform_int(0, 1'000'000) != c.uniform_int(0, 1'000'000));
  }
  EXPECT_TRUE(differs);
}

TEST(Rng, UniformInRange) {
  sim::Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double v = rng.uniform(-2.0, 3.0);
    EXPECT_GE(v, -2.0);
    EXPECT_LT(v, 3.0);
  }
}

TEST(HorizonDirection, TwoRobotsPointAwayFromEachOther) {
  const std::vector<Vec2> pts{Vec2{-3, 0}, Vec2{3, 0}};
  const Vec2 h0 = proto::horizon_direction(pts, 0);
  const Vec2 h1 = proto::horizon_direction(pts, 1);
  EXPECT_TRUE(geom::nearly_equal(h0, Vec2{-1, 0}, 1e-7));
  EXPECT_TRUE(geom::nearly_equal(h1, Vec2{1, 0}, 1e-7));
}

TEST(RelativeNaming, CollinearConfiguration) {
  // All robots on one line: every angle is 0 or pi from any horizon; the
  // distance-from-O tie-break must produce a consistent permutation.
  const std::vector<Vec2> pts{Vec2{-6, 0}, Vec2{-2, 0}, Vec2{1, 0},
                              Vec2{6, 0}};
  for (std::size_t self = 0; self < pts.size(); ++self) {
    const auto naming = proto::relative_naming(pts, self);
    std::vector<bool> seen(pts.size(), false);
    for (std::size_t r : naming.ranks) {
      ASSERT_LT(r, pts.size());
      EXPECT_FALSE(seen[r]);
      seen[r] = true;
    }
  }
  // And the construction stays frame-invariant here too.
  const sim::Frame f(Vec2{1, 1}, 0.83, 2.5, false);
  std::vector<Vec2> local;
  for (const Vec2& p : pts) local.push_back(f.to_local(p));
  for (std::size_t self = 0; self < pts.size(); ++self) {
    EXPECT_EQ(proto::relative_naming(local, self).ranks,
              proto::relative_naming(pts, self).ranks);
  }
}

TEST(RelativeNaming, MinimalPair) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{4, 0}};
  const auto n0 = proto::relative_naming(pts, 0);
  // Both on the SEC boundary; self's radius hosts self, the peer is on the
  // opposite radius (angle pi).
  EXPECT_EQ(n0.ranks[0], 0u);
  EXPECT_EQ(n0.ranks[1], 1u);
}

TEST(ChatStats, AccountingAddsUp) {
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  core::ChatNetwork net({Vec2{0, 0}, Vec2{6, 0}}, opt);
  const auto msg = encode::bytes_of("stats");
  const std::uint64_t frame_bits = encode::encode_frame(msg).size();
  net.send(0, 1, msg);
  net.run_until_quiescent(10'000);
  net.run(2);
  EXPECT_EQ(net.stats(0).bits_sent, frame_bits);
  EXPECT_EQ(net.stats(0).messages_sent, 1u);
  EXPECT_EQ(net.stats(1).bits_decoded, frame_bits);
  EXPECT_EQ(net.stats(1).messages_received, 1u);
  EXPECT_EQ(net.stats(1).messages_overheard, 0u);
  // The receiver never had anything to send.
  EXPECT_EQ(net.stats(1).idle_activations, net.stats(1).activations);
  // The sender was busy for exactly the transmission.
  EXPECT_EQ(net.stats(0).activations - net.stats(0).idle_activations,
            2 * frame_bits);
}

TEST(ChatStats, OverheardCountedSeparately) {
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  core::ChatNetwork net({Vec2{0, 0}, Vec2{8, 0}, Vec2{4, 7}}, opt);
  net.send(0, 1, encode::bytes_of("x"));
  net.run_until_quiescent(10'000);
  net.run(2);
  EXPECT_EQ(net.stats(2).messages_overheard, 1u);
  EXPECT_EQ(net.stats(2).messages_received, 0u);
}

}  // namespace
}  // namespace stig
