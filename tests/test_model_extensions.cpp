// Tests for the Section 5 model extensions: one-to-all broadcast, sensor
// quantization (round-off), observation delay (partial asynchrony), limited
// visibility, and stabilization under transient faults (teleport injection).
#include <gtest/gtest.h>

#include <cmath>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "encode/framing.hpp"
#include "geom/angle.hpp"
#include "geom/voronoi.hpp"
#include "sim/engine.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed,
                                double extent = 30.0, double min_gap = 3.0) {
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

// ---------------------------------------------------------------------------
// One-to-all broadcast.

TEST(Broadcast, SlicedReachesEveryoneWithOneSignalPerBit) {
  const std::size_t n = 6;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(scatter(n, 3), opt);
  const auto msg = random_payload(8, 1);
  net.broadcast(2, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  const auto frame_bits = encode::encode_frame(msg).size();
  EXPECT_EQ(net.engine().now(), 2 * frame_bits);  // One lane, not n-1.
  net.run(2);
  for (std::size_t j = 0; j < n; ++j) {
    if (j == 2) continue;
    ASSERT_EQ(net.received(j).size(), 1u) << j;
    EXPECT_EQ(net.received(j)[0].payload, msg);
    EXPECT_TRUE(net.received(j)[0].broadcast);
    EXPECT_EQ(net.received(j)[0].from, 2u);
    EXPECT_TRUE(net.overheard(j).empty());
  }
}

TEST(Broadcast, RelativeNamingBroadcastWorks) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;  // Chirality only.
  ChatNetwork net(scatter(5, 7), opt);
  const auto msg = random_payload(4, 2);
  net.broadcast(0, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  for (std::size_t j = 1; j < 5; ++j) {
    ASSERT_EQ(net.received(j).size(), 1u) << j;
    EXPECT_EQ(net.received(j)[0].payload, msg);
    EXPECT_TRUE(net.received(j)[0].broadcast);
  }
}

TEST(Broadcast, AsyncNBroadcast) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 11;
  ChatNetwork net(scatter(4, 13), opt);
  const auto msg = random_payload(2, 3);
  net.broadcast(1, msg);
  ASSERT_TRUE(net.run_until_quiescent(3'000'000));
  net.run(512);
  for (std::size_t j = 0; j < 4; ++j) {
    if (j == 1) continue;
    ASSERT_EQ(net.received(j).size(), 1u) << j;
    EXPECT_EQ(net.received(j)[0].payload, msg);
    EXPECT_TRUE(net.received(j)[0].broadcast);
  }
}

TEST(Broadcast, KSegmentBroadcast) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.protocol = ProtocolKind::ksegment;
  opt.ksegment_k = 3;
  ChatNetwork net(scatter(7, 17), opt);
  const auto msg = random_payload(3, 4);
  net.broadcast(6, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  for (std::size_t j = 0; j < 6; ++j) {
    ASSERT_EQ(net.received(j).size(), 1u) << j;
    EXPECT_TRUE(net.received(j)[0].broadcast);
  }
}

TEST(Broadcast, MixedUnicastAndBroadcastInterleave) {
  const std::size_t n = 5;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(scatter(n, 19), opt);
  const auto uni = random_payload(3, 5);
  const auto bc = random_payload(3, 6);
  net.send(0, 2, uni);
  net.broadcast(0, bc);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  ASSERT_EQ(net.received(2).size(), 2u);
  EXPECT_EQ(net.received(2)[0].payload, uni);
  EXPECT_FALSE(net.received(2)[0].broadcast);
  EXPECT_EQ(net.received(2)[1].payload, bc);
  EXPECT_TRUE(net.received(2)[1].broadcast);
  ASSERT_EQ(net.received(4).size(), 1u);  // Broadcast only.
  EXPECT_TRUE(net.received(4)[0].broadcast);
}

// ---------------------------------------------------------------------------
// Sensor quantization (Section 5 round-off discussion).

TEST(Quantization, FineGridStillDelivers) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.observation_quantum = 0.002;
  ChatNetwork net(scatter(8, 23), opt);
  const auto msg = random_payload(6, 7);
  net.send(1, 5, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  ASSERT_EQ(net.received(5).size(), 1u);
  EXPECT_EQ(net.received(5)[0].payload, msg);
}

TEST(Quantization, CoarseGridBreaksFineSlicingButNotKSegment) {
  // The Section 5 motivation for k-segment addressing: at n=32 the 2n-slice
  // protocol needs angular resolution the sensor grid cannot provide, so
  // some lanes (deterministically, per geometry) become unreadable; the
  // (k+1)-diameter variant's slices are wide enough to absorb the same
  // grid. We run several sender/addressee pairs and compare delivery.
  const std::size_t n = 32;
  const auto pts = scatter(n, 29, 60.0, 3.0);
  const std::size_t kPairs = 8;

  const auto run_pairs = [&](ChatNetworkOptions opt) {
    ChatNetwork net(pts, opt);
    for (std::size_t p = 0; p < kPairs; ++p) {
      net.send(p, n - 1 - p, random_payload(4, 8 + p));
    }
    net.run_until_quiescent(500'000);
    net.run(2);
    std::size_t delivered = 0;
    for (std::size_t p = 0; p < kPairs; ++p) {
      delivered += net.received(n - 1 - p).size();
    }
    return delivered;
  };

  ChatNetworkOptions flat;
  flat.synchrony = Synchrony::synchronous;
  flat.caps.sense_of_direction = true;
  flat.observation_quantum = 0.05;
  flat.sigma = 1.0;  // Signal amplitude 0.8: amp/quantum = 16.
  EXPECT_LT(run_pairs(flat), kPairs)
      << "some 2n-slice lanes should be unreadable at this resolution";

  ChatNetworkOptions kseg = flat;
  kseg.protocol = ProtocolKind::ksegment;
  kseg.ksegment_k = 2;  // 3 diameters: slice width pi/3.
  EXPECT_EQ(run_pairs(kseg), kPairs)
      << "the k-segment variant must absorb the same sensor grid";
}

TEST(Quantization, Sync2ToleratesCoarseGrid) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.observation_quantum = 0.05;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{6, 0}}, opt);
  const auto msg = random_payload(8, 9);
  net.send(0, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, msg);
}

// ---------------------------------------------------------------------------
// Observation delay (toward CORDA).

class DelayTest : public ::testing::TestWithParam<sim::Time> {};

TEST_P(DelayTest, SynchronousProtocolsAreDelayInvariant) {
  // A uniform observation delay shifts every decoded signal in time but
  // drops none: the synchronous protocols deliver unchanged.
  const sim::Time d = GetParam();
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.observation_delay = d;
  ChatNetwork net(scatter(5, 31), opt);
  const auto msg = random_payload(5, 10);
  net.send(3, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000)) << "delay=" << d;
  net.run(2 + d);
  ASSERT_EQ(net.received(1).size(), 1u) << "delay=" << d;
  EXPECT_EQ(net.received(1)[0].payload, msg);
}

INSTANTIATE_TEST_SUITE_P(Delays, DelayTest,
                         ::testing::Values<sim::Time>(1, 2, 5, 10));

class AsyncDelayTest : public ::testing::TestWithParam<sim::Time> {};

TEST_P(AsyncDelayTest, Async2DeliversWithWidenedAckWindow) {
  // With d-stale observations the Lemma 4.1 "twice" bound no longer
  // implies the peer saw the excursion; ChatNetwork widens the ack
  // requirement to 2d + 2 changes, restoring delivery.
  const sim::Time d = GetParam();
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.observation_delay = d;
  opt.seed = 37;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{6, 0}}, opt);
  const auto msg = random_payload(4, 11);
  net.send(0, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(4'000'000)) << "d=" << d;
  net.run(512);
  ASSERT_EQ(net.received(1).size(), 1u) << "d=" << d;
  EXPECT_EQ(net.received(1)[0].payload, msg);
}

TEST_P(AsyncDelayTest, AsyncNDeliversWithWidenedAckWindow) {
  const sim::Time d = GetParam();
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.observation_delay = d;
  opt.seed = 61;
  ChatNetwork net(scatter(3, 67), opt);
  const auto msg = random_payload(2, 12);
  net.send(0, 2, msg);
  ASSERT_TRUE(net.run_until_quiescent(4'000'000)) << "d=" << d;
  net.run(512);
  ASSERT_EQ(net.received(2).size(), 1u) << "d=" << d;
  EXPECT_EQ(net.received(2)[0].payload, msg);
}

INSTANTIATE_TEST_SUITE_P(Delays, AsyncDelayTest,
                         ::testing::Values<sim::Time>(1, 2, 4));

// ---------------------------------------------------------------------------
// Limited visibility (Section 5 open problem).

TEST(Visibility, EngineFiltersInvisibleRobots) {
  class Recorder final : public sim::Robot {
   public:
    void initialize(const sim::Snapshot& snap) override { seen = snap; }
    geom::Vec2 on_activate(const sim::Snapshot& snap) override {
      seen = snap;
      return snap.self_robot().position;
    }
    sim::Snapshot seen;
  };
  std::vector<sim::RobotSpec> specs{{.position = geom::Vec2{0, 0}},
                                    {.position = geom::Vec2{10, 0}},
                                    {.position = geom::Vec2{20, 0}}};
  std::vector<std::unique_ptr<sim::Robot>> programs;
  for (int i = 0; i < 3; ++i) programs.push_back(std::make_unique<Recorder>());
  auto* middle = static_cast<Recorder*>(programs[1].get());
  auto* end = static_cast<Recorder*>(programs[0].get());
  sim::EngineOptions eopt;
  eopt.visibility_radius = 12.0;
  sim::Engine engine(specs, std::move(programs),
                     std::make_unique<sim::SynchronousScheduler>(), eopt);
  // The middle robot sees all three; the end robots see only two.
  EXPECT_EQ(middle->seen.robots.size(), 3u);
  EXPECT_EQ(end->seen.robots.size(), 2u);
  // Self is always visible and correctly indexed.
  EXPECT_TRUE(geom::nearly_equal(end->seen.self_robot().position,
                                 geom::Vec2{0, 0}));
}

TEST(Visibility, MutuallyVisibleSwarmDelivers) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.visibility_radius = 200.0;
  ChatNetwork net(scatter(5, 41), opt);
  const auto msg = random_payload(3, 12);
  net.send(0, 4, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  ASSERT_EQ(net.received(4).size(), 1u);
}

TEST(Visibility, NonVisibleConfigurationRejected) {
  ChatNetworkOptions opt;
  opt.visibility_radius = 3.0;
  EXPECT_THROW(ChatNetwork({geom::Vec2{0, 0}, geom::Vec2{10, 0}}, opt),
               std::invalid_argument);
}

TEST(Visibility, MutualVisibilityAnswersAsHypotDoes) {
  // (0, 0) and (3, 4) are exactly 5 apart: visible at radius 5. Moving
  // (3, 4) up by one ulp of 4 puts them an ulp of 5 apart: refused.
  const geom::Vec2 o{0, 0};
  const geom::Vec2 at{3, 4};
  const geom::Vec2 beyond{3, std::nextafter(4.0, 5.0)};
  ASSERT_EQ(geom::dist(o, at), 5.0);
  ASSERT_GT(geom::dist(o, beyond), 5.0);
  ChatNetworkOptions opt;
  opt.visibility_radius = 5.0;
  EXPECT_NO_THROW(ChatNetwork({o, at}, opt));
  EXPECT_THROW(ChatNetwork({o, beyond}, opt), std::invalid_argument);
  // Pairs within a few ulps of the radius: accepted exactly when hypot
  // puts them within it.
  sim::Rng rng(77);
  int accepted = 0;
  for (int trial = 0; trial < 200; ++trial) {
    const double r = rng.uniform(1.0, 100.0);
    const double a = rng.uniform(0.0, geom::kTwoPi);
    geom::Vec2 p{r * std::cos(a), r * std::sin(a)};
    for (int k = static_cast<int>(rng.uniform_int(0, 6)); k > 0; --k) {
      p.x = std::nextafter(p.x, trial % 2 == 0 ? 1e9 : -1e9);
    }
    opt.visibility_radius = r;
    const bool visible = !(geom::dist(o, p) > r);
    bool built = true;
    try {
      ChatNetwork net({o, p}, opt);
    } catch (const std::invalid_argument&) {
      built = false;
    }
    EXPECT_EQ(built, visible) << "trial " << trial;
    accepted += built ? 1 : 0;
  }
  EXPECT_GT(accepted, 0);
  EXPECT_LT(accepted, 200);
}

// ---------------------------------------------------------------------------
// Stabilization: transient faults (teleports) heal.

TEST(Stabilization, SlicedRecoversFromTeleport) {
  const std::size_t n = 5;
  const auto pts = scatter(n, 43);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(pts, opt);

  // Healthy exchange first.
  const auto msg1 = random_payload(4, 13);
  net.send(0, 3, msg1);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  ASSERT_EQ(net.received(3).size(), 1u);

  // Transient fault: robot 1 is shoved onto one of its data diameters.
  const double r1 = geom::granular_radius(pts, 1);
  net.engine().teleport(1, pts[1] + geom::Vec2{0.4 * r1, 0.0});
  // The spurious signal is decoded by everyone; the robot walks home
  // (self-healing rest position) and after 3 quiet instants every receiver
  // resets its streams to a frame boundary.
  net.run(20);
  EXPECT_TRUE(geom::nearly_equal(net.engine().positions()[1], pts[1], 1e-6));

  // Subsequent traffic — including from the faulted robot — is intact.
  const auto msg2 = random_payload(5, 14);
  const auto msg3 = random_payload(6, 15);
  net.send(1, 0, msg2);
  net.send(0, 3, msg3);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, msg2);
  ASSERT_EQ(net.received(3).size(), 2u);
  EXPECT_EQ(net.received(3)[1].payload, msg3);
}

TEST(Stabilization, SlicedRecoversEvenWhenFaultHitsMidFrame) {
  const std::size_t n = 4;
  const auto pts = scatter(n, 47);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(pts, opt);
  // Robot 0 is mid-frame when robot 2 (a bystander) gets shoved: the
  // receiver's stream from 0 is unaffected; the spurious stream from 2
  // resyncs.
  net.send(0, 1, random_payload(16, 16));
  net.run(10);  // Mid-frame.
  const double r2 = geom::granular_radius(pts, 2);
  net.engine().teleport(2, pts[2] + geom::Vec2{0.0, 0.4 * r2});
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(8);
  ASSERT_EQ(net.received(1).size(), 1u);  // In-flight frame survived.
  // And robot 2 can still send afterwards.
  const auto msg = random_payload(3, 17);
  net.send(2, 0, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, msg);
}

TEST(Stabilization, Sync2RecoversFromTeleport) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{6, 0}}, opt);
  net.engine().teleport(1, geom::Vec2{6, 0.4});  // Looks like a "bit 1".
  net.run(20);  // Spurious bit decoded; robot walks home; streams reset.
  const auto msg = random_payload(6, 18);
  net.send(1, 0, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, msg);
}

TEST(Stabilization, AsyncNHealsWithIdleResync) {
  const std::size_t n = 4;
  const auto pts = scatter(n, 53);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 59;
  ChatNetwork net(pts, opt);

  // Fault an idle robot onto a data ray.
  const double r0 = geom::granular_radius(pts, 0);
  const geom::Vec2 dir =
      (pts[1] - pts[0]).normalized();  // Arbitrary off-kappa direction.
  net.engine().teleport(0, pts[0] + dir * (0.5 * r0));
  // It snaps back onto kappa at its next activation; observers may have
  // decoded a spurious bit. Idle long enough for the (default 4096
  // neutral observations) resync to fire on every receiver.
  net.run(20'000);
  // New traffic from the faulted robot decodes cleanly.
  const auto msg = random_payload(2, 19);
  net.send(0, 2, msg);
  ASSERT_TRUE(net.run_until_quiescent(3'000'000));
  net.run(512);
  ASSERT_EQ(net.received(2).size(), 1u);
  EXPECT_EQ(net.received(2)[0].payload, msg);
}

TEST(Stabilization, TeleportIntoAnotherRobotIsACollision) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{6, 0}}, opt);
  EXPECT_THROW(net.engine().teleport(0, geom::Vec2{6, 0}),
               sim::CollisionError);
}

}  // namespace
}  // namespace stig
