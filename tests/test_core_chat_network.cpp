// End-to-end tests of the ChatNetwork public API: every protocol the
// capability lattice can select, driven through the real engine with
// randomized frames.
#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "geom/angle.hpp"
#include "encode/bits.hpp"
#include "sim/rng.hpp"

#include "listing_reference.hpp"

namespace stig {
namespace {

using core::Capabilities;
using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::SchedulerKind;
using core::Synchrony;

std::vector<std::uint8_t> payload(std::string_view text) {
  return encode::bytes_of(text);
}

std::vector<geom::Vec2> ring_positions(std::size_t n, double radius,
                                       std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<geom::Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double a = geom::kTwoPi * static_cast<double>(i) /
                         static_cast<double>(n) +
                     rng.uniform(-0.1, 0.1);
    const double r = radius * rng.uniform(0.7, 1.3);
    pts.push_back(geom::Vec2{r * std::cos(a), r * std::sin(a)});
  }
  return pts;
}

TEST(ChatNetwork, Sync2DeliversBothDirections) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  ChatNetwork net({geom::Vec2{0.0, 0.0}, geom::Vec2{4.0, 1.0}}, opt);
  EXPECT_EQ(net.protocol_kind(), ProtocolKind::sync2);

  net.send(0, 1, payload("hello"));
  net.send(1, 0, payload("world!"));
  ASSERT_TRUE(net.run_until_quiescent(10'000));
  // One extra step so the last return move completes decoding bookkeeping.
  net.run(4);

  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, payload("hello"));
  EXPECT_EQ(net.received(1)[0].from, 0u);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, payload("world!"));
}

TEST(ChatNetwork, SyncSlicedWithIdsDelivers) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.visible_ids = true;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(ring_positions(6, 10.0, 42), opt);
  EXPECT_EQ(net.protocol_kind(), ProtocolKind::sliced);

  net.send(0, 3, payload("to three"));
  net.send(2, 5, payload("to five"));
  net.send(4, 0, payload("to zero"));
  ASSERT_TRUE(net.run_until_quiescent(10'000));
  net.run(4);

  ASSERT_EQ(net.received(3).size(), 1u);
  EXPECT_EQ(net.received(3)[0].payload, payload("to three"));
  EXPECT_EQ(net.received(3)[0].from, 0u);
  ASSERT_EQ(net.received(5).size(), 1u);
  EXPECT_EQ(net.received(5)[0].payload, payload("to five"));
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, payload("to zero"));
}

TEST(ChatNetwork, SyncSlicedAnonymousSenseOfDirection) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(ring_positions(5, 8.0, 7), opt);

  net.send(1, 4, payload("anon"));
  ASSERT_TRUE(net.run_until_quiescent(10'000));
  net.run(4);
  ASSERT_EQ(net.received(4).size(), 1u);
  EXPECT_EQ(net.received(4)[0].payload, payload("anon"));
  EXPECT_EQ(net.received(4)[0].from, 1u);
}

TEST(ChatNetwork, SyncSlicedChiralityOnlyRelativeNaming) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  // No ids, no sense of direction: frames get random rotations.
  ChatNetwork net(ring_positions(7, 12.0, 99), opt);

  net.send(6, 2, payload("relative"));
  net.send(3, 6, payload("back"));
  ASSERT_TRUE(net.run_until_quiescent(20'000));
  net.run(4);
  ASSERT_EQ(net.received(2).size(), 1u);
  EXPECT_EQ(net.received(2)[0].payload, payload("relative"));
  EXPECT_EQ(net.received(2)[0].from, 6u);
  ASSERT_EQ(net.received(6).size(), 1u);
  EXPECT_EQ(net.received(6)[0].payload, payload("back"));
}

TEST(ChatNetwork, Async2Delivers) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.activation_probability = 0.5;
  ChatNetwork net({geom::Vec2{-2.0, 0.0}, geom::Vec2{2.0, 0.0}}, opt);
  EXPECT_EQ(net.protocol_kind(), ProtocolKind::async2);

  net.send(0, 1, payload("async"));
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(64);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, payload("async"));
}

TEST(ChatNetwork, Async2BroadcastReachesThePeer) {
  // A broadcast queues on the sender's own slot, the broadcast lane. With
  // two robots that lane reaches the single peer, as with Sync2; it once
  // tripped Async2's "the peer is slot 1" assertion.
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.activation_probability = 0.5;
  ChatNetwork net({geom::Vec2{-2.0, 0.0}, geom::Vec2{2.0, 0.0}}, opt);
  ASSERT_EQ(net.protocol_kind(), ProtocolKind::async2);

  net.broadcast(1, payload("all"));
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(64);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, payload("all"));
  EXPECT_EQ(net.received(0)[0].from, 1u);
  EXPECT_TRUE(net.received(1).empty());
}

TEST(ChatNetwork, AsyncNDelivers) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.activation_probability = 0.6;
  ChatNetwork net(ring_positions(4, 9.0, 5), opt);
  EXPECT_EQ(net.protocol_kind(), ProtocolKind::asyncn);

  net.send(0, 2, payload("swarm"));
  ASSERT_TRUE(net.run_until_quiescent(300'000));
  net.run(128);
  ASSERT_EQ(net.received(2).size(), 1u);
  EXPECT_EQ(net.received(2)[0].payload, payload("swarm"));
  EXPECT_EQ(net.received(2)[0].from, 0u);
}

TEST(ChatNetwork, KSegmentDelivers) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.protocol = ProtocolKind::ksegment;
  opt.ksegment_k = 3;
  ChatNetwork net(ring_positions(9, 15.0, 11), opt);

  net.send(8, 1, payload("ksegment"));
  ASSERT_TRUE(net.run_until_quiescent(20'000));
  net.run(4);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, payload("ksegment"));
}

TEST(ChatNetwork, QuantizedListingNamesTheRightRobot) {
  // Robots 0 and 1 share a quantized x (10.000), so every other robot's t0
  // snapshot lists them by y: robot 1 first, though robot 0's exact x is
  // smaller. The slot tables must follow the snapshot robots actually
  // receive, not a sort of exact positions, or robot 2 names the wrong one.
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.randomize_frames = false;
  opt.observation_quantum = 0.001;
  ChatNetwork net({geom::Vec2{10.0001, 20}, geom::Vec2{10.0004, 0},
                   geom::Vec2{0, 10}, geom::Vec2{20, 10}, geom::Vec2{5, 3},
                   geom::Vec2{15, 25}},
                  opt);
  for (sim::RobotIndex i = 0; i < net.robot_count(); ++i) {
    const std::vector<sim::RobotIndex> order = oracle::t0_listing(
        net.engine(), i, {.observation_quantum = opt.observation_quantum});
    const sim::Snapshot t0 = net.engine().make_snapshot(i);
    ASSERT_EQ(order.size(), t0.robots.size());
    EXPECT_EQ(order[t0.self], i) << "observer " << i;
  }
  const std::vector<std::uint8_t> answer{42};
  net.send(2, 0, answer);
  ASSERT_TRUE(net.run_until_quiescent(20'000));
  net.run(4);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].from, 2u);
  EXPECT_EQ(net.received(0)[0].payload, answer);
  EXPECT_TRUE(net.received(1).empty());
}

TEST(ChatNetwork, PositionHistoryOnlyWhenAsked) {
  ChatNetworkOptions off;
  ChatNetworkOptions on;
  on.record_positions = true;
  const std::vector<geom::Vec2> pts{{0, 0}, {5, 0}};
  ChatNetwork quiet(pts, off);
  ChatNetwork recorded(pts, on);
  recorded.send(0, 1, encode::bytes_of("h"));
  quiet.run(3);
  recorded.run(3);
  EXPECT_TRUE(quiet.position_history().empty());
  // P(t0), then the configuration each step produced.
  const auto& history = recorded.position_history();
  ASSERT_EQ(history.size(), 4u);
  EXPECT_EQ(history[0], pts);
  const auto now = recorded.engine().positions();
  EXPECT_EQ(history[3], std::vector<geom::Vec2>(now.begin(), now.end()));
  EXPECT_NE(history[1], history[0]);  // The sender signaled.
}

TEST(ChatNetwork, RejectsSelfSend) {
  ChatNetworkOptions opt;
  ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{1, 0}}, opt);
  EXPECT_THROW(net.send(0, 0, payload("x")), std::invalid_argument);
}

TEST(ChatNetwork, RejectsTooFewRobots) {
  ChatNetworkOptions opt;
  EXPECT_THROW(ChatNetwork({geom::Vec2{0, 0}}, opt), std::invalid_argument);
}

TEST(ChatNetwork, KindNamesParseBack) {
  // stigsim's flags and repro files name kinds; core owns both directions.
  for (const ProtocolKind k :
       {ProtocolKind::automatic, ProtocolKind::sync2, ProtocolKind::sliced,
        ProtocolKind::ksegment, ProtocolKind::async2, ProtocolKind::asyncn}) {
    EXPECT_EQ(core::protocol_kind_from_name(core::protocol_kind_name(k)), k);
  }
  for (const SchedulerKind k :
       {SchedulerKind::bernoulli, SchedulerKind::centralized,
        SchedulerKind::ksubset, SchedulerKind::adversarial}) {
    EXPECT_EQ(core::scheduler_kind_from_name(core::scheduler_kind_name(k)),
              k);
  }
  EXPECT_FALSE(core::protocol_kind_from_name("unknown").has_value());
  EXPECT_FALSE(core::scheduler_kind_from_name("").has_value());
}

}  // namespace
}  // namespace stig
