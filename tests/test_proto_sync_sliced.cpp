// SyncSliced protocol tests (Sections 3.2-3.4): all three naming modes,
// concurrent senders, eavesdropping/redundancy, collision avoidance inside
// granulars, silence, flocking, and randomized property sweeps.
#include <gtest/gtest.h>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "geom/angle.hpp"
#include "geom/voronoi.hpp"
#include "proto/sync_sliced.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::Capabilities;
using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed,
                                double extent = 30.0, double min_gap = 2.0) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, extent, min_gap);
}

std::vector<std::uint8_t> random_payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

ChatNetworkOptions sliced_options(bool ids, bool sod) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.visible_ids = ids;
  opt.caps.sense_of_direction = sod;
  return opt;
}

struct NamingCase {
  bool ids;
  bool sod;
  const char* name;
};

class SlicedNamingTest : public ::testing::TestWithParam<NamingCase> {};

TEST_P(SlicedNamingTest, AllPairsDeliver) {
  const NamingCase& c = GetParam();
  const std::size_t n = 5;
  ChatNetwork net(scatter(n, 77), sliced_options(c.ids, c.sod));
  // Every ordered pair exchanges a distinct message.
  std::vector<std::vector<std::vector<std::uint8_t>>> msgs(
      n, std::vector<std::vector<std::uint8_t>>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      msgs[i][j] = random_payload(2 + (i * n + j) % 5, 100 + i * n + j);
      net.send(i, j, msgs[i][j]);
    }
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000)) << c.name;
  net.run(4);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(net.received(j).size(), n - 1) << c.name;
    for (const auto& d : net.received(j)) {
      EXPECT_EQ(d.payload, msgs[d.from][j]) << c.name;
      EXPECT_EQ(d.to, j);
    }
  }
}

TEST_P(SlicedNamingTest, EverybodyOverhearsEverything) {
  const NamingCase& c = GetParam();
  const std::size_t n = 4;
  ChatNetwork net(scatter(n, 31), sliced_options(c.ids, c.sod));
  const auto msg = random_payload(6, 9);
  net.send(0, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(50'000));
  net.run(4);
  // The paper's redundancy remark: every robot can decode every message.
  for (std::size_t j = 2; j < n; ++j) {
    ASSERT_EQ(net.overheard(j).size(), 1u) << c.name << " robot " << j;
    EXPECT_EQ(net.overheard(j)[0].payload, msg);
    EXPECT_EQ(net.overheard(j)[0].from, 0u);
    EXPECT_EQ(net.overheard(j)[0].to, 1u);
  }
  // The addressee files it as received, not overheard.
  EXPECT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.overheard(1).size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Namings, SlicedNamingTest,
    ::testing::Values(NamingCase{true, true, "ids"},
                      NamingCase{false, true, "lexicographic"},
                      NamingCase{false, false, "relative"}),
    [](const auto& info) { return info.param.name; });

TEST(SyncSliced, SilentWhenIdle) {
  ChatNetwork net(scatter(6, 3), sliced_options(false, true));
  net.run(200);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(net.engine().trace().stats(i).moves, 0u) << i;
  }
}

TEST(SyncSliced, StaysInsideGranulars) {
  ChatNetworkOptions opt = sliced_options(false, true);
  opt.record_positions = true;
  const auto pts = scatter(5, 13);
  ChatNetwork net(pts, opt);
  for (std::size_t i = 0; i < 5; ++i) {
    net.send(i, (i + 2) % 5, random_payload(8, i));
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  // Collision avoidance, the strong form: every robot stayed within its
  // granular (half nearest-neighbor distance) the whole run.
  std::vector<double> radius(5);
  for (std::size_t i = 0; i < 5; ++i) {
    radius[i] = geom::granular_radius(pts, i);
  }
  for (const auto& config : net.engine().trace().positions()) {
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_LT(geom::dist(config[i], pts[i]), radius[i]);
    }
  }
  EXPECT_GT(net.engine().trace().min_separation(), 0.0);
}

TEST(SyncSliced, TwoInstantsPerBitEvenWithConcurrentSenders) {
  const std::size_t n = 6;
  ChatNetwork net(scatter(n, 5), sliced_options(false, true));
  const auto msg = random_payload(10, 3);
  const std::uint64_t frame_bits = encode::encode_frame(msg).size();
  for (std::size_t i = 0; i < n; ++i) {
    net.send(i, (i + 1) % n, msg);  // All robots send concurrently.
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  // Concurrency is free: the slowest sender still needs only 2/bit.
  EXPECT_EQ(net.engine().now(), 2 * frame_bits);
}

TEST(SyncSliced, MirroredSwarmWorks) {
  ChatNetworkOptions opt = sliced_options(false, false);
  opt.mirrored_frames = true;
  ChatNetwork net(scatter(5, 41), opt);
  const auto msg = random_payload(7, 2);
  net.send(3, 0, msg);
  ASSERT_TRUE(net.run_until_quiescent(50'000));
  net.run(4);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, msg);
}

TEST(SyncSliced, FlockingChatDrifts) {
  ChatNetworkOptions opt = sliced_options(false, true);
  opt.flock_velocity = geom::Vec2{0.05, 0.02};
  opt.sigma = 0.5;
  opt.record_positions = true;
  const auto pts = scatter(4, 19);
  ChatNetwork net(pts, opt);
  const auto msg = random_payload(12, 8);
  net.send(0, 3, msg);
  ASSERT_TRUE(net.run_until_quiescent(50'000));
  net.run(4);
  ASSERT_EQ(net.received(3).size(), 1u);
  EXPECT_EQ(net.received(3)[0].payload, msg);
  // The swarm really moved: every robot drifted by t * v.
  const auto t = static_cast<double>(net.engine().now());
  const geom::Vec2 expected_drift = opt.flock_velocity * t;
  for (std::size_t i = 0; i < 4; ++i) {
    const geom::Vec2 drift = net.engine().positions()[i] - pts[i];
    EXPECT_NEAR(geom::dist(drift, expected_drift), 0.0, 1e-6) << i;
  }
}

TEST(SyncSliced, WorksAtScale) {
  const std::size_t n = 40;
  ChatNetwork net(scatter(n, 23, 100.0, 3.0), sliced_options(false, false));
  const auto msg = random_payload(5, 77);
  net.send(0, n - 1, msg);
  net.send(n / 2, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(4);
  ASSERT_EQ(net.received(n - 1).size(), 1u);
  ASSERT_EQ(net.received(1).size(), 1u);
}

// Property sweep over swarm sizes and seeds: random sender/receiver pairs.
class SlicedPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(SlicedPropertyTest, RandomPairsDeliver) {
  const auto [n, sod] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ChatNetworkOptions opt = sliced_options(false, sod);
    opt.seed = seed;
    sim::Rng rng(seed * 51);
    ChatNetwork net(scatter(n, seed * 7 + n), opt);
    const std::size_t sender = rng.uniform_int(0, n - 1);
    std::size_t receiver;
    do {
      receiver = rng.uniform_int(0, n - 1);
    } while (receiver == sender);
    const auto msg = random_payload(1 + seed % 9, seed);
    net.send(sender, receiver, msg);
    ASSERT_TRUE(net.run_until_quiescent(50'000))
        << "n=" << n << " seed=" << seed;
    net.run(4);
    ASSERT_EQ(net.received(receiver).size(), 1u)
        << "n=" << n << " seed=" << seed;
    EXPECT_EQ(net.received(receiver)[0].payload, msg);
    EXPECT_EQ(net.received(receiver)[0].from, sender);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlicedPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 4, 8, 16, 32),
                       ::testing::Bool()));

}  // namespace
}  // namespace stig
