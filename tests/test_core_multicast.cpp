// MulticastService tests: group addressing over the broadcast lane,
// envelope filtering, coexistence with unicast and plain broadcast.
#include <gtest/gtest.h>

#include "core/multicast.hpp"
#include "encode/bits.hpp"
#include "encode/framing.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::MulticastService;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, 30.0, 3.0);
}

ChatNetworkOptions sync_options() {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  return opt;
}

TEST(Multicast, OnlyRecipientsGetThePayload) {
  const std::size_t n = 7;
  ChatNetwork net(scatter(n, 5), sync_options());
  MulticastService mc(net);
  const auto payload = encode::bytes_of("group msg");
  const std::vector<sim::RobotIndex> group{1, 3, 6};
  mc.multicast(0, group, payload);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  mc.poll();
  for (sim::RobotIndex i = 0; i < n; ++i) {
    const bool member =
        std::find(group.begin(), group.end(), i) != group.end();
    if (member) {
      ASSERT_EQ(mc.group_received(i).size(), 1u) << i;
      EXPECT_EQ(mc.group_received(i)[0].payload, payload);
      EXPECT_EQ(mc.group_received(i)[0].from, 0u);
    } else {
      EXPECT_TRUE(mc.group_received(i).empty()) << i;
    }
    EXPECT_TRUE(mc.received(i).empty()) << i;  // No plain traffic.
  }
}

TEST(Multicast, SingleTransmissionRegardlessOfGroupSize) {
  const std::size_t n = 8;
  const auto pts = scatter(n, 9);
  const auto payload = encode::bytes_of("pay");

  const auto instants_for = [&](std::size_t group_size) {
    ChatNetwork net(pts, sync_options());
    MulticastService mc(net);
    std::vector<sim::RobotIndex> group;
    for (std::size_t g = 1; g <= group_size; ++g) group.push_back(g);
    mc.multicast(0, group, payload);
    net.run_until_quiescent(100'000);
    return net.engine().now();
  };
  EXPECT_EQ(instants_for(1), instants_for(7));  // Cost independent of k.
}

TEST(Multicast, CoexistsWithUnicastAndPlainBroadcast) {
  const std::size_t n = 5;
  ChatNetwork net(scatter(n, 13), sync_options());
  MulticastService mc(net);
  const auto uni = encode::bytes_of("uni");
  const auto bc = encode::bytes_of("bc");
  const auto grp = encode::bytes_of("grp");
  mc.send(0, 2, uni);
  mc.broadcast(1, bc);
  const std::vector<sim::RobotIndex> group{2, 4};
  mc.multicast(3, group, grp);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  mc.poll();

  // Robot 2: the unicast, the broadcast, and the multicast. Delivery order
  // across different senders is not specified; check as a set.
  ASSERT_EQ(mc.received(2).size(), 2u);
  const auto& r2 = mc.received(2);
  EXPECT_TRUE((r2[0].payload == uni && r2[1].payload == bc) ||
              (r2[0].payload == bc && r2[1].payload == uni));
  ASSERT_EQ(mc.group_received(2).size(), 1u);
  EXPECT_EQ(mc.group_received(2)[0].payload, grp);
  // Robot 0: only robot 1's broadcast.
  ASSERT_EQ(mc.received(0).size(), 1u);
  EXPECT_EQ(mc.received(0)[0].payload, bc);
  EXPECT_TRUE(mc.group_received(0).empty());
}

TEST(Multicast, EmptyGroupDeliversToNobody) {
  const std::size_t n = 4;
  ChatNetwork net(scatter(n, 17), sync_options());
  MulticastService mc(net);
  mc.multicast(0, {}, encode::bytes_of("void"));
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  mc.poll();
  for (sim::RobotIndex i = 0; i < n; ++i) {
    EXPECT_TRUE(mc.group_received(i).empty());
  }
}

TEST(Multicast, CheaperThanRepeatedUnicastForTwoPlusRecipients) {
  const std::size_t n = 8;
  const auto pts = scatter(n, 21);
  const auto payload = encode::bytes_of("abcdefgh");

  ChatNetwork uni_net(pts, sync_options());
  for (sim::RobotIndex r = 1; r <= 3; ++r) uni_net.send(0, r, payload);
  uni_net.run_until_quiescent(100'000);

  ChatNetwork mc_net(pts, sync_options());
  MulticastService mc(mc_net);
  const std::vector<sim::RobotIndex> group{1, 2, 3};
  mc.multicast(0, group, payload);
  mc_net.run_until_quiescent(100'000);

  EXPECT_LT(mc_net.engine().now(), uni_net.engine().now());
}

TEST(Multicast, AsynchronousGroupDelivery) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 3;
  const std::size_t n = 4;
  ChatNetwork net(scatter(n, 23), opt);
  MulticastService mc(net);
  const auto payload = encode::bytes_of("ag");
  const std::vector<sim::RobotIndex> group{1, 2};
  mc.multicast(3, group, payload);
  ASSERT_TRUE(net.run_until_quiescent(3'000'000));
  net.run(512);
  mc.poll();
  ASSERT_EQ(mc.group_received(1).size(), 1u);
  ASSERT_EQ(mc.group_received(2).size(), 1u);
  EXPECT_TRUE(mc.group_received(0).empty());
  EXPECT_EQ(mc.group_received(1)[0].payload, payload);
}

}  // namespace
}  // namespace stig
