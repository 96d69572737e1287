// Stream-ordering and cross-observer consistency properties: per-stream
// FIFO delivery (sync and async), interleaved streams, and the guarantee
// that every robot in the swarm — addressee or eavesdropper — decodes the
// identical message sequence from a given sender.
#include <gtest/gtest.h>

#include "core/chat_network.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, 30.0, 3.5);
}

std::vector<std::uint8_t> numbered(std::uint8_t k, std::size_t len = 4) {
  std::vector<std::uint8_t> p(len, k);
  p[0] = k;
  return p;
}

TEST(Ordering, FifoPerStreamSynchronous) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(scatter(4, 3), opt);
  for (std::uint8_t k = 0; k < 8; ++k) net.send(0, 2, numbered(k));
  ASSERT_TRUE(net.run_until_quiescent(200'000));
  net.run(2);
  ASSERT_EQ(net.received(2).size(), 8u);
  for (std::uint8_t k = 0; k < 8; ++k) {
    EXPECT_EQ(net.received(2)[k].payload[0], k) << int{k};
  }
}

TEST(Ordering, FifoPerStreamAsynchronous) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 7;
  ChatNetwork net(scatter(3, 5), opt);
  for (std::uint8_t k = 0; k < 4; ++k) net.send(1, 0, numbered(k, 1));
  ASSERT_TRUE(net.run_until_quiescent(5'000'000));
  net.run(512);
  ASSERT_EQ(net.received(0).size(), 4u);
  for (std::uint8_t k = 0; k < 4; ++k) {
    EXPECT_EQ(net.received(0)[k].payload[0], k);
  }
}

TEST(Ordering, InterleavedAddresseesKeepPerStreamOrder) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(scatter(5, 7), opt);
  // Alternate addressees from one sender; each stream must stay ordered.
  for (std::uint8_t k = 0; k < 6; ++k) {
    net.send(0, 1 + (k % 2) * 2, numbered(k));  // -> robots 1 and 3.
  }
  ASSERT_TRUE(net.run_until_quiescent(200'000));
  net.run(2);
  ASSERT_EQ(net.received(1).size(), 3u);
  ASSERT_EQ(net.received(3).size(), 3u);
  EXPECT_EQ(net.received(1)[0].payload[0], 0);
  EXPECT_EQ(net.received(1)[1].payload[0], 2);
  EXPECT_EQ(net.received(1)[2].payload[0], 4);
  EXPECT_EQ(net.received(3)[0].payload[0], 1);
  EXPECT_EQ(net.received(3)[1].payload[0], 3);
  EXPECT_EQ(net.received(3)[2].payload[0], 5);
}

TEST(Ordering, EveryObserverSeesTheSameStream) {
  const std::size_t n = 6;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;  // Relative naming, anonymous.
  ChatNetwork net(scatter(n, 11), opt);
  for (std::uint8_t k = 0; k < 5; ++k) net.send(2, 4, numbered(k));
  ASSERT_TRUE(net.run_until_quiescent(200'000));
  net.run(2);
  // The addressee's view...
  ASSERT_EQ(net.received(4).size(), 5u);
  // ...must match every eavesdropper's, message for message, in order.
  for (std::size_t j = 0; j < n; ++j) {
    if (j == 2 || j == 4) continue;
    ASSERT_EQ(net.overheard(j).size(), 5u) << j;
    for (std::size_t k = 0; k < 5; ++k) {
      EXPECT_EQ(net.overheard(j)[k].payload, net.received(4)[k].payload)
          << "observer " << j << " message " << k;
      EXPECT_EQ(net.overheard(j)[k].from, 2u);
      EXPECT_EQ(net.overheard(j)[k].to, 4u);
    }
  }
}

TEST(Ordering, AsyncEavesdroppersConsistentToo) {
  const std::size_t n = 4;
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 13;
  ChatNetwork net(scatter(n, 13), opt);
  for (std::uint8_t k = 0; k < 3; ++k) net.send(0, 1, numbered(k, 1));
  ASSERT_TRUE(net.run_until_quiescent(10'000'000));
  net.run(512);
  ASSERT_EQ(net.received(1).size(), 3u);
  for (std::size_t j = 2; j < n; ++j) {
    ASSERT_EQ(net.overheard(j).size(), 3u) << j;
    for (std::size_t k = 0; k < 3; ++k) {
      EXPECT_EQ(net.overheard(j)[k].payload, net.received(1)[k].payload);
    }
  }
}

TEST(Ordering, BroadcastSerializedWithUnicastsFromOneSender) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  ChatNetwork net(scatter(4, 17), opt);
  net.send(0, 1, numbered(10));
  net.broadcast(0, numbered(20));
  net.send(0, 1, numbered(30));
  ASSERT_TRUE(net.run_until_quiescent(200'000));
  net.run(2);
  // Robot 1 sees all three, in submission order.
  ASSERT_EQ(net.received(1).size(), 3u);
  EXPECT_EQ(net.received(1)[0].payload[0], 10);
  EXPECT_EQ(net.received(1)[1].payload[0], 20);
  EXPECT_TRUE(net.received(1)[1].broadcast);
  EXPECT_EQ(net.received(1)[2].payload[0], 30);
}

}  // namespace
}  // namespace stig
