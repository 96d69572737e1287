// Scheduler tests: the SSM contract (non-empty activation sets), the
// fairness bound, determinism under seeds, the adversarial pattern, and
// schedule replay (including logs that end before quiescence).
#include <gtest/gtest.h>

#include <memory>
#include <numeric>
#include <vector>

#include "core/chat_network.hpp"
#include "sim/rng.hpp"
#include "sim/schedule_log.hpp"
#include "sim/scheduler.hpp"

namespace stig::sim {
namespace {

std::size_t count_active(const ActivationSet& a) {
  return static_cast<std::size_t>(std::count(a.begin(), a.end(), true));
}

TEST(SynchronousScheduler, ActivatesEveryone) {
  SynchronousScheduler s;
  for (Time t = 0; t < 10; ++t) {
    const ActivationSet a = s.activate(t, 7);
    EXPECT_EQ(count_active(a), 7u);
  }
}

TEST(BernoulliScheduler, NeverEmpty) {
  BernoulliScheduler s(0.01, 3, 1000);
  for (Time t = 0; t < 2000; ++t) {
    EXPECT_GE(count_active(s.activate(t, 5)), 1u);
  }
}

TEST(BernoulliScheduler, RespectsFairnessBound) {
  const std::size_t bound = 16;
  BernoulliScheduler s(0.05, 11, bound);
  const std::size_t n = 6;
  std::vector<std::size_t> streak(n, 0);
  for (Time t = 0; t < 5000; ++t) {
    const ActivationSet a = s.activate(t, n);
    for (std::size_t i = 0; i < n; ++i) {
      streak[i] = a[i] ? 0 : streak[i] + 1;
      EXPECT_LT(streak[i], bound) << "robot " << i << " starved at " << t;
    }
  }
}

TEST(BernoulliScheduler, ActivationRateNearP) {
  const double p = 0.3;
  BernoulliScheduler s(p, 21, 1 << 20);  // Bound high enough not to bias.
  const std::size_t n = 10;
  std::uint64_t total = 0;
  const Time steps = 20000;
  for (Time t = 0; t < steps; ++t) total += count_active(s.activate(t, n));
  const double rate = static_cast<double>(total) /
                      static_cast<double>(steps * n);
  EXPECT_NEAR(rate, p, 0.02);
}

TEST(BernoulliScheduler, DeterministicUnderSeed) {
  BernoulliScheduler s1(0.4, 99, 32);
  BernoulliScheduler s2(0.4, 99, 32);
  for (Time t = 0; t < 200; ++t) {
    EXPECT_EQ(s1.activate(t, 8), s2.activate(t, 8));
  }
}

TEST(CentralizedScheduler, ExactlyOneRoundRobin) {
  CentralizedScheduler s;
  for (Time t = 0; t < 30; ++t) {
    const ActivationSet a = s.activate(t, 5);
    EXPECT_EQ(count_active(a), 1u);
    EXPECT_TRUE(a[t % 5]);
  }
}

TEST(KSubsetScheduler, ExactlyKActive) {
  KSubsetScheduler s(3, 7, 1 << 20);
  for (Time t = 0; t < 500; ++t) {
    EXPECT_EQ(count_active(s.activate(t, 9)), 3u);
  }
}

TEST(KSubsetScheduler, KLargerThanNActivatesAll) {
  KSubsetScheduler s(10, 7, 64);
  EXPECT_EQ(count_active(s.activate(0, 4)), 4u);
}

TEST(KSubsetScheduler, RespectsFairnessBound) {
  const std::size_t bound = 8;
  KSubsetScheduler s(1, 5, bound);
  const std::size_t n = 4;
  std::vector<std::size_t> streak(n, 0);
  for (Time t = 0; t < 3000; ++t) {
    const ActivationSet a = s.activate(t, n);
    for (std::size_t i = 0; i < n; ++i) {
      streak[i] = a[i] ? 0 : streak[i] + 1;
      EXPECT_LT(streak[i], bound);
    }
  }
}

TEST(AdversarialScheduler, StarvesUpToBoundThenRotates) {
  const std::size_t bound = 10;
  AdversarialScheduler s(bound);
  const std::size_t n = 3;
  std::vector<std::size_t> streak(n, 0);
  std::vector<std::size_t> max_streak(n, 0);
  for (Time t = 0; t < 1000; ++t) {
    const ActivationSet a = s.activate(t, n);
    EXPECT_GE(count_active(a), n - 1);
    for (std::size_t i = 0; i < n; ++i) {
      streak[i] = a[i] ? 0 : streak[i] + 1;
      max_streak[i] = std::max(max_streak[i], streak[i]);
      EXPECT_LT(streak[i], bound);
    }
  }
  // The adversary actually pushes each robot to the edge of the bound.
  for (std::size_t i = 0; i < n; ++i) {
    EXPECT_GE(max_streak[i], bound - 2) << "robot " << i;
  }
}

TEST(SchedulerFairness, NoRobotInactivePastBoundAcross10kFuzzedInstants) {
  // Property behind Lemma 4.4's fairness premise: under every randomized
  // and adversarial scheduler, for every bound B — including the
  // degenerate B = 1, which forbids any inactivity at all — no robot is
  // ever inactive for B consecutive instants. The pre-fix
  // AdversarialScheduler starved its freshly rotated victim regardless of
  // the bound, so at B = 1 a robot sat out an instant every rotation.
  const Time kInstants = 10'000;
  for (const std::size_t bound : {1u, 2u, 3u, 64u}) {
    for (const std::size_t n : {1u, 2u, 5u}) {
      std::vector<std::unique_ptr<Scheduler>> schedulers;
      schedulers.push_back(
          std::make_unique<BernoulliScheduler>(0.05, 7, bound));
      schedulers.push_back(
          std::make_unique<BernoulliScheduler>(0.9, 11, bound));
      schedulers.push_back(std::make_unique<KSubsetScheduler>(1, 13, bound));
      schedulers.push_back(std::make_unique<KSubsetScheduler>(2, 17, bound));
      schedulers.push_back(std::make_unique<AdversarialScheduler>(bound));
      for (std::size_t s = 0; s < schedulers.size(); ++s) {
        std::vector<std::size_t> streak(n, 0);
        for (Time t = 0; t < kInstants; ++t) {
          const ActivationSet a = schedulers[s]->activate(t, n);
          ASSERT_GE(count_active(a), 1u)
              << "scheduler " << s << " bound " << bound << " t " << t;
          for (std::size_t i = 0; i < n; ++i) {
            streak[i] = a[i] ? 0 : streak[i] + 1;
            ASSERT_LT(streak[i], bound)
                << "scheduler " << s << " starved robot " << i << "/" << n
                << " past bound " << bound << " at t " << t;
          }
        }
      }
    }
  }
}

TEST(AdversarialScheduler, SingleRobotAlwaysActive) {
  AdversarialScheduler s(4);
  for (Time t = 0; t < 20; ++t) {
    EXPECT_EQ(count_active(s.activate(t, 1)), 1u);
  }
}

TEST(ReplayScheduler, TruncatedLogFallsBackToAllActive) {
  // A log that ends before the run does: every instant past the end must
  // come back all-active (the fallback the fuzz replay tail relies on),
  // including when the log held sets for a different swarm size.
  ScheduleLog log;
  log.push(ActivationSet{true, false, false});
  log.push(ActivationSet{false, true, false});
  ASSERT_EQ(log.instants(), 2u);
  EXPECT_EQ(log.robots(1), 3u);
  ReplayScheduler s(&log);
  EXPECT_EQ(s.activate(0, 3), (ActivationSet{true, false, false}));
  EXPECT_EQ(s.activate(1, 3), (ActivationSet{false, true, false}));
  for (Time t = 2; t < 10; ++t) {
    EXPECT_EQ(s.activate(t, 3), ActivationSet(3, true));
  }

  // Size mismatch: the recorded set is unusable, the scheduler must still
  // return a valid all-active set and keep consuming the log.
  ReplayScheduler wrong_n(&log);
  EXPECT_EQ(wrong_n.activate(0, 5), ActivationSet(5, true));
  EXPECT_EQ(wrong_n.activate(1, 5), ActivationSet(5, true));

  // Truncation keeps the prefix: instant 0 replays, instant 1 falls back.
  log.truncate(1);
  ASSERT_EQ(log.instants(), 1u);
  ReplayScheduler cut(&log);
  EXPECT_EQ(cut.activate(0, 3), (ActivationSet{true, false, false}));
  EXPECT_EQ(cut.activate(1, 3), ActivationSet(3, true));
}

/// The digest's definition: FNV-1a, one byte at a time, over each
/// instant's index and robot count (8 little-endian bytes each) and then
/// one byte per activation bit.
std::uint64_t reference_digest(const std::vector<ActivationSet>& sets) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto byte = [&h](std::uint64_t b) {
    h ^= b;
    h *= 0x100000001b3ULL;
  };
  for (std::size_t t = 0; t < sets.size(); ++t) {
    for (int k = 0; k < 8; ++k) byte((t >> (8 * k)) & 0xffU);
    for (int k = 0; k < 8; ++k) byte((sets[t].size() >> (8 * k)) & 0xffU);
    for (const bool b : sets[t]) byte(b ? 1U : 0U);
  }
  return h;
}

/// What `push` must store: every set's bits appended one at a time,
/// where each instant ends.
struct BitLog {
  std::vector<bool> bits;
  std::vector<std::size_t> ends;

  void push(const ActivationSet& set) {
    for (const bool b : set) bits.push_back(b);
    ends.push_back(bits.size());
  }
  [[nodiscard]] ActivationSet read(std::size_t t) const {
    const std::size_t first = t == 0 ? 0 : ends[t - 1];
    return ActivationSet(bits.begin() + static_cast<std::ptrdiff_t>(first),
                         bits.begin() + static_cast<std::ptrdiff_t>(ends[t]));
  }
};

TEST(ScheduleLog, DigestEqualsByteLoop) {
  // Random logs: sparse and dense sets, zero runs far past 64 bits, empty
  // sets, and more than 256 instants so t spans two bytes. Sets of every
  // length land at every bit offset of a word, so `push` splits them
  // across words every way; each log reads back as the bit-at-a-time
  // reference stores it, and truncating one equals pushing its prefix.
  Rng rng(2024);
  for (int round = 0; round < 200; ++round) {
    ScheduleLog log;
    BitLog ref;
    std::vector<ActivationSet> sets;
    const std::size_t instants = rng.uniform_int(0, 600);
    const double density = rng.uniform(0.0, 1.0);
    for (std::size_t t = 0; t < instants; ++t) {
      ActivationSet set(rng.uniform_int(0, rng.flip(0.1) ? 300 : 9));
      for (std::size_t i = 0; i < set.size(); ++i) set[i] = rng.flip(density);
      log.push(set);
      ref.push(set);
      sets.push_back(std::move(set));
    }
    ASSERT_EQ(log.digest(), reference_digest(sets)) << "round " << round;
    ASSERT_EQ(log.instants(), ref.ends.size());
    ActivationSet got(3, true);  // read() must overwrite, not append.
    for (std::size_t t = 0; t < instants; ++t) {
      log.read(t, got);
      ASSERT_EQ(log.robots(t), sets[t].size()) << "round " << round;
      ASSERT_EQ(got, ref.read(t)) << "round " << round << " t " << t;
    }
    const std::size_t keep = rng.uniform_int(0, instants);
    ScheduleLog prefix;
    for (std::size_t t = 0; t < keep; ++t) prefix.push(sets[t]);
    ScheduleLog cut = log;
    cut.truncate(keep);
    ASSERT_EQ(cut, prefix) << "round " << round << " keep " << keep;
    ASSERT_EQ(cut.digest(), prefix.digest());
    if (keep < instants) {
      // Pushing after a cut stores the new bits, not the cut ones.
      ActivationSet flipped = sets[keep];
      flipped.flip();
      cut.push(flipped);
      prefix.push(flipped);
      ASSERT_EQ(cut, prefix) << "round " << round;
      ASSERT_EQ(cut == log, sets[keep].empty() && keep + 1 == instants);
    }
  }
  // Past 65536 instants t takes three bytes.
  ScheduleLog log;
  std::vector<ActivationSet> sets(70'000, ActivationSet{false, true});
  for (const ActivationSet& set : sets) log.push(set);
  EXPECT_EQ(log.digest(), reference_digest(sets));
}

TEST(ReplayScheduler, TruncatedScheduleStillReachesQuiescence) {
  // The fuzz harness's replay claim survives truncation: replaying only a
  // prefix of a recorded schedule still drives the network to quiescence
  // and the same delivery, because the tail falls back to all-active.
  const std::vector<geom::Vec2> pts = {{0.0, 0.0}, {8.0, 0.0}};
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::asynchronous;
  opt.scheduler = core::SchedulerKind::bernoulli;
  opt.seed = 77;
  const std::vector<std::uint8_t> payload{0x42};

  ScheduleLog full;
  opt.record_schedule = &full;
  core::ChatNetwork a(pts, opt);
  a.send(0, 1, payload);
  ASSERT_TRUE(a.run_until_quiescent(400'000));
  a.run(512);
  ASSERT_EQ(a.received(1).size(), 1u);
  ASSERT_GT(full.instants(), 4u);

  ScheduleLog truncated = full;
  truncated.truncate(full.instants() / 2);  // Ends before quiescence.
  ASSERT_EQ(truncated.instants(), full.instants() / 2);
  opt.record_schedule = nullptr;
  opt.replay_schedule = &truncated;
  core::ChatNetwork b(pts, opt);
  b.send(0, 1, payload);
  ASSERT_TRUE(b.run_until_quiescent(400'000));
  b.run(512);
  ASSERT_EQ(b.received(1).size(), 1u);
  EXPECT_EQ(b.received(1)[0].payload, payload);
}

}  // namespace
}  // namespace stig::sim
