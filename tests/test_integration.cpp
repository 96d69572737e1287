// Cross-module integration and property tests: an empirical check of
// Lemma 4.1, the Figure-3 symmetric configuration end-to-end, determinism
// under seeds, and a randomized soak across the protocol lattice.
#include <gtest/gtest.h>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "geom/angle.hpp"
#include "sim/engine.hpp"
#include "sim/observation.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::SchedulerKind;
using core::Synchrony;

// ---------------------------------------------------------------------------
// Lemma 4.1, empirically: r moves in one direction every activation; if r
// observes r' change twice, r' observed r change at least once. We
// instrument two robots, run them under every scheduler, and check the
// implication at every instant.
class LemmaRobot final : public sim::Robot {
 public:
  LemmaRobot(geom::Vec2 dir, double step) : dir_(dir), step_(step) {}

  void initialize(const sim::Snapshot&) override {}

  geom::Vec2 on_activate(const sim::Snapshot& snap) override {
    const geom::Vec2 peer = snap.robots[1 - snap.self].position;
    tracker_.observe(0, peer);
    return snap.self_robot().position + dir_ * step_;
  }

  [[nodiscard]] std::uint64_t peer_changes() const {
    return tracker_.changes(0);
  }

 private:
  geom::Vec2 dir_;
  double step_;
  sim::ChangeTracker tracker_{1, 1e-9};
};

class Lemma41Test : public ::testing::TestWithParam<int> {};

TEST_P(Lemma41Test, ObservedTwiceImpliesPeerObservedOnce) {
  std::unique_ptr<sim::Scheduler> sched;
  switch (GetParam()) {
    case 0:
      sched = std::make_unique<sim::BernoulliScheduler>(0.3, 5, 32);
      break;
    case 1:
      sched = std::make_unique<sim::CentralizedScheduler>();
      break;
    case 2:
      sched = std::make_unique<sim::AdversarialScheduler>(16);
      break;
    default:
      sched = std::make_unique<sim::KSubsetScheduler>(1, 7, 32);
      break;
  }
  std::vector<sim::RobotSpec> specs{{.position = geom::Vec2{0, 0}},
                                    {.position = geom::Vec2{10, 0}}};
  std::vector<std::unique_ptr<sim::Robot>> programs;
  programs.push_back(
      std::make_unique<LemmaRobot>(geom::Vec2{0, 1}, 0.25));
  programs.push_back(
      std::make_unique<LemmaRobot>(geom::Vec2{0, -1}, 0.1));
  auto* r0 = static_cast<LemmaRobot*>(programs[0].get());
  auto* r1 = static_cast<LemmaRobot*>(programs[1].get());
  sim::Engine engine(specs, std::move(programs), std::move(sched));
  for (int t = 0; t < 3000; ++t) {
    engine.step();
    // The lemma, both directions, at every instant.
    if (r0->peer_changes() >= 2) {
      EXPECT_GE(r1->peer_changes(), 1u) << t;
    }
    if (r1->peer_changes() >= 2) {
      EXPECT_GE(r0->peer_changes(), 1u) << t;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Schedulers, Lemma41Test, ::testing::Range(0, 4));

// ---------------------------------------------------------------------------
// Figure 3: six robots in a rotationally symmetric configuration. No common
// naming exists, yet the relative-naming protocol delivers between every
// pair — in both the synchronous and asynchronous settings.
std::vector<geom::Vec2> figure3_configuration() {
  std::vector<geom::Vec2> pts;
  for (int i = 0; i < 6; ++i) {
    const double a = geom::kTwoPi * i / 6.0;
    pts.push_back(geom::Vec2{8 * std::cos(a), 8 * std::sin(a)});
  }
  return pts;
}

TEST(SymmetricConfiguration, SyncRelativeNamingDelivers) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;  // Chirality only.
  ChatNetwork net(figure3_configuration(), opt);
  for (std::size_t i = 0; i < 6; ++i) {
    const std::vector<std::uint8_t> one{static_cast<std::uint8_t>(i)};
    net.send(i, (i + 3) % 6, one);
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(4);
  for (std::size_t i = 0; i < 6; ++i) {
    const std::size_t to = (i + 3) % 6;
    ASSERT_EQ(net.received(to).size(), 1u);
    EXPECT_EQ(net.received(to)[0].payload[0], static_cast<std::uint8_t>(i));
    EXPECT_EQ(net.received(to)[0].from, i);
  }
}

TEST(SymmetricConfiguration, AsyncRelativeNamingDelivers) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 3;
  ChatNetwork net(figure3_configuration(), opt);
  net.send(0, 3, encode::bytes_of("sym"));
  ASSERT_TRUE(net.run_until_quiescent(3'000'000));
  net.run(512);
  ASSERT_EQ(net.received(3).size(), 1u);
  EXPECT_EQ(net.received(3)[0].payload, encode::bytes_of("sym"));
}

// ---------------------------------------------------------------------------
// Determinism: the whole stack (scheduler, frames, protocols) is seeded, so
// two identical runs give identical traces.
TEST(Determinism, IdenticalSeedsIdenticalRuns) {
  const auto run_once = [] {
    ChatNetworkOptions opt;
    opt.synchrony = Synchrony::asynchronous;
    opt.seed = 42;
    ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{5, 1}, geom::Vec2{-3, 4}},
                    opt);
    net.send(0, 2, encode::bytes_of("det"));
    net.run(5000);
    // positions() is a view into the engine's epoch ring; copy it out
    // before the network (and the ring) is destroyed.
    const auto view = net.engine().positions();
    return std::vector<geom::Vec2>(view.begin(), view.end());
  };
  const auto a = run_once();
  const auto b = run_once();
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i], b[i]) << i;  // Bit-for-bit equality.
  }
}

TEST(Determinism, DifferentSeedsDiverge) {
  const auto run_once = [](std::uint64_t seed) {
    ChatNetworkOptions opt;
    opt.synchrony = Synchrony::asynchronous;
    opt.seed = seed;
    ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{5, 1}}, opt);
    net.run(100);
    const auto view = net.engine().positions();
    return std::vector<geom::Vec2>(view.begin(), view.end());
  };
  EXPECT_NE(run_once(1)[0], run_once(2)[0]);
}

// ---------------------------------------------------------------------------
// Randomized soak across the whole lattice: pick random capabilities,
// synchrony, geometry and payloads; everything must deliver.
class LatticeSoakTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(LatticeSoakTest, RandomScenarioDelivers) {
  const std::uint64_t seed = GetParam();
  sim::Rng rng(seed * 7919);
  ChatNetworkOptions opt;
  const bool synchronous = rng.flip(0.5);
  opt.synchrony =
      synchronous ? Synchrony::synchronous : Synchrony::asynchronous;
  opt.caps.visible_ids = rng.flip(0.3);
  opt.caps.sense_of_direction = opt.caps.visible_ids || rng.flip(0.5);
  opt.mirrored_frames = rng.flip(0.3);
  opt.seed = seed;
  opt.activation_probability = rng.uniform(0.3, 0.9);
  // Async runs are expensive; keep swarms smaller there.
  const std::size_t n = synchronous ? 2 + rng.uniform_int(0, 8)
                                    : 2 + rng.uniform_int(0, 3);
  const std::vector<geom::Vec2> pts = sim::scatter(rng, n, 25.0, 2.0);
  ChatNetwork net(pts, opt);
  const std::size_t from = rng.uniform_int(0, n - 1);
  std::size_t to;
  do {
    to = rng.uniform_int(0, n - 1);
  } while (to == from);
  std::vector<std::uint8_t> msg(1 + rng.uniform_int(0, 6));
  for (auto& b : msg) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  net.send(from, to, msg);
  ASSERT_TRUE(net.run_until_quiescent(4'000'000))
      << "seed=" << seed << " n=" << n << " sync=" << synchronous;
  net.run(synchronous ? 4 : 512);
  ASSERT_EQ(net.received(to).size(), 1u)
      << "seed=" << seed << " n=" << n << " sync=" << synchronous;
  EXPECT_EQ(net.received(to)[0].payload, msg);
  EXPECT_EQ(net.received(to)[0].from, from);
  EXPECT_GT(net.engine().min_separation(), 0.0);
}

INSTANTIATE_TEST_SUITE_P(Seeds, LatticeSoakTest,
                         ::testing::Range<std::uint64_t>(1, 26));

}  // namespace
}  // namespace stig
