// Engine tests: the SSM step semantics (two-phase observation, sigma clamp),
// snapshot construction for identified/anonymous systems, collision
// detection and separation on both sides of the grid threshold, motion
// counters, and construction validation.
#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <stdexcept>
#include <vector>

#include "geom/angle.hpp"
#include "obs/sink.hpp"
#include "sim/engine.hpp"
#include "sim/observation.hpp"

#include "listing_reference.hpp"

namespace stig::sim {
namespace {

using geom::Vec2;

/// A robot that walks a fixed local direction every activation.
class Walker final : public Robot {
 public:
  explicit Walker(Vec2 dir) : dir_(dir) {}
  void initialize(const Snapshot& snap) override { t0_ = snap; }
  Vec2 on_activate(const Snapshot& snap) override {
    last_ = snap;
    ++activations_;
    return snap.self_robot().position + dir_;
  }
  Snapshot t0_;
  Snapshot last_;
  Vec2 dir_;
  int activations_ = 0;
};

/// A robot that never moves.
class Sitter final : public Robot {
 public:
  void initialize(const Snapshot&) override {}
  Vec2 on_activate(const Snapshot& snap) override {
    return snap.self_robot().position;
  }
};

std::vector<std::unique_ptr<Robot>> walkers(std::initializer_list<Vec2> dirs) {
  std::vector<std::unique_ptr<Robot>> v;
  for (const Vec2& d : dirs) v.push_back(std::make_unique<Walker>(d));
  return v;
}

TEST(Engine, InitializeGivesEveryRobotT0) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}},
                               {.position = Vec2{5, 0}}};
  auto programs = walkers({Vec2{0, 0.1}, Vec2{0, 0.1}});
  auto* w0 = static_cast<Walker*>(programs[0].get());
  auto* w1 = static_cast<Walker*>(programs[1].get());
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>());
  EXPECT_EQ(w0->t0_.robots.size(), 2u);
  EXPECT_EQ(w1->t0_.robots.size(), 2u);
  // Anchored local frames: each sees itself at the origin at t0.
  EXPECT_TRUE(nearly_equal(w0->t0_.self_robot().position, Vec2{0, 0}));
  EXPECT_TRUE(nearly_equal(w1->t0_.self_robot().position, Vec2{0, 0}));
  // And the other 5 away.
  EXPECT_NEAR(geom::dist(w0->t0_.robots[0].position,
                         w0->t0_.robots[1].position),
              5.0, 1e-9);
}

TEST(Engine, SigmaClampsTravelPreservingDirection) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 0.5},
                               {.position = Vec2{5, 0}, .sigma = 10.0}};
  Engine e(specs, walkers({Vec2{3, 4}, Vec2{3, 4}}),
           std::make_unique<SynchronousScheduler>());
  e.step();
  // Robot 0 wanted |(3,4)| = 5 but travels 0.5 in that direction.
  EXPECT_TRUE(nearly_equal(e.positions()[0], Vec2{0.3, 0.4}, 1e-9));
  // Robot 1 is unconstrained.
  EXPECT_TRUE(nearly_equal(e.positions()[1], Vec2{8, 4}, 1e-9));
}

TEST(Engine, TwoPhaseObservation) {
  // Both robots walk toward each other's *observed* position; with the
  // two-phase step they observe pre-move positions, so after one step they
  // meet exactly in the middle if sigma allows... use sigma to stop short
  // and verify the observation was the pre-move configuration.
  class Chaser final : public Robot {
   public:
    void initialize(const Snapshot&) override {}
    Vec2 on_activate(const Snapshot& snap) override {
      const Vec2 other = snap.robots[1 - snap.self].position;
      const Vec2 self = snap.self_robot().position;
      observed_gaps_.push_back(geom::dist(other, self));
      return self + (other - self) * 0.1;
    }
    std::vector<double> observed_gaps_;
  };
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 100},
                               {.position = Vec2{10, 0}, .sigma = 100}};
  std::vector<std::unique_ptr<Robot>> programs;
  programs.push_back(std::make_unique<Chaser>());
  programs.push_back(std::make_unique<Chaser>());
  auto* c0 = static_cast<Chaser*>(programs[0].get());
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>());
  e.step();
  e.step();
  // First observation: the peer at distance 10 (pre-move). Second: both
  // moved 1 toward each other -> distance 8. If robots saw same-instant
  // moves, the second gap would be 9 instead.
  ASSERT_EQ(c0->observed_gaps_.size(), 2u);
  EXPECT_NEAR(c0->observed_gaps_[0], 10.0, 1e-9);
  EXPECT_NEAR(c0->observed_gaps_[1], 8.0, 1e-9);
}

TEST(Engine, InactiveRobotsDoNotMoveOrObserve) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}},
                               {.position = Vec2{5, 0}}};
  auto programs = walkers({Vec2{0.1, 0}, Vec2{0.1, 0}});
  auto* w1 = static_cast<Walker*>(programs[1].get());
  // Centralized: robot 0 at t0, robot 1 at t1, ...
  Engine e(specs, std::move(programs),
           std::make_unique<CentralizedScheduler>());
  e.step();
  EXPECT_EQ(w1->activations_, 0);
  EXPECT_TRUE(nearly_equal(e.positions()[1], Vec2{5, 0}));
  e.step();
  EXPECT_EQ(w1->activations_, 1);
}

TEST(Engine, SnapshotAnonymousSortedAndUnidentified) {
  std::vector<RobotSpec> specs{{.position = Vec2{3, 0}},
                               {.position = Vec2{0, 0}},
                               {.position = Vec2{-4, 2}}};
  Engine e(specs, walkers({Vec2{0, 0}, Vec2{0, 0}, Vec2{0, 0}}),
           std::make_unique<SynchronousScheduler>());
  EXPECT_FALSE(e.identified());
  const Snapshot s = e.make_snapshot(1);
  ASSERT_EQ(s.robots.size(), 3u);
  for (std::size_t i = 0; i + 1 < s.robots.size(); ++i) {
    EXPECT_LT(s.robots[i].position, s.robots[i + 1].position);
    EXPECT_FALSE(s.robots[i].id.has_value());
  }
  EXPECT_TRUE(nearly_equal(s.robots[s.self].position, Vec2{0, 0}));
}

TEST(Engine, SnapshotIdentifiedSortedById) {
  std::vector<RobotSpec> specs{{.position = Vec2{3, 0}, .id = 30},
                               {.position = Vec2{0, 0}, .id = 10},
                               {.position = Vec2{-4, 2}, .id = 20}};
  Engine e(specs, walkers({Vec2{0, 0}, Vec2{0, 0}, Vec2{0, 0}}),
           std::make_unique<SynchronousScheduler>());
  EXPECT_TRUE(e.identified());
  const Snapshot s = e.make_snapshot(0);
  ASSERT_EQ(s.robots.size(), 3u);
  EXPECT_EQ(s.robots[0].id, 10u);
  EXPECT_EQ(s.robots[1].id, 20u);
  EXPECT_EQ(s.robots[2].id, 30u);
  EXPECT_EQ(s.self, 2u);  // id 30.
}

TEST(Engine, InitialObservationOrderMatchesSnapshot) {
  std::vector<RobotSpec> specs{
      {.position = Vec2{3, 0}, .frame_rotation = 1.0, .frame_unit = 2.0},
      {.position = Vec2{0, 0}, .frame_rotation = 2.0},
      {.position = Vec2{-4, 2}, .frame_rotation = 0.5}};
  Engine e(specs, walkers({Vec2{0, 0}, Vec2{0, 0}, Vec2{0, 0}}),
           std::make_unique<SynchronousScheduler>());
  for (RobotIndex i = 0; i < 3; ++i) {
    const auto order = oracle::t0_listing(specs, i);
    const Snapshot s = e.make_snapshot(i);  // Still at t0 positions.
    for (std::size_t k = 0; k < order.size(); ++k) {
      EXPECT_TRUE(nearly_equal(
          s.robots[k].position,
          e.frame(i).to_local(specs[order[k]].position), 1e-9))
          << "observer " << i << " slot " << k;
    }
  }
}

TEST(Engine, CollisionDetected) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{2, 0}, .sigma = 10}};
  // Robot 0 walks exactly onto robot 1's position; robot 1 stays.
  std::vector<std::unique_ptr<Robot>> programs;
  programs.push_back(std::make_unique<Walker>(Vec2{2, 0}));
  programs.push_back(std::make_unique<Sitter>());
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>());
  EXPECT_THROW(e.step(), CollisionError);
}

TEST(Engine, RejectsCoincidentStart) {
  std::vector<RobotSpec> specs{{.position = Vec2{1, 1}},
                               {.position = Vec2{1, 1}}};
  EXPECT_THROW(Engine(specs, walkers({Vec2{0, 0}, Vec2{0, 0}}),
                      std::make_unique<SynchronousScheduler>()),
               std::invalid_argument);
}

TEST(Engine, RejectsMixedIdentification) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .id = 1},
                               {.position = Vec2{5, 0}}};
  EXPECT_THROW(Engine(specs, walkers({Vec2{0, 0}, Vec2{0, 0}}),
                      std::make_unique<SynchronousScheduler>()),
               std::invalid_argument);
}

TEST(Engine, RejectsBadSigmaAndUnit) {
  std::vector<RobotSpec> bad_sigma{{.position = Vec2{0, 0}, .sigma = 0.0},
                                   {.position = Vec2{5, 0}}};
  EXPECT_THROW(Engine(bad_sigma, walkers({Vec2{0, 0}, Vec2{0, 0}}),
                      std::make_unique<SynchronousScheduler>()),
               std::invalid_argument);
  std::vector<RobotSpec> bad_unit{
      {.position = Vec2{0, 0}, .frame_unit = -1.0},
      {.position = Vec2{5, 0}}};
  EXPECT_THROW(Engine(bad_unit, walkers({Vec2{0, 0}, Vec2{0, 0}}),
                      std::make_unique<SynchronousScheduler>()),
               std::invalid_argument);
}

TEST(Engine, MotionCountsMovesAndDistance) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{5, 0}, .sigma = 10}};
  std::vector<std::unique_ptr<Robot>> programs;
  programs.push_back(std::make_unique<Walker>(Vec2{0, 1}));
  programs.push_back(std::make_unique<Sitter>());
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>());
  e.run(10);
  EXPECT_EQ(e.now(), 10u);
  EXPECT_EQ(e.motion(0).activations, 10u);
  EXPECT_EQ(e.motion(0).moves, 10u);
  EXPECT_NEAR(e.motion(0).distance, 10.0, 1e-9);
  EXPECT_EQ(e.motion(1).activations, 10u);
  EXPECT_EQ(e.motion(1).moves, 0u);
  EXPECT_GT(e.min_separation(), 4.9);
}

TEST(Engine, InactiveRobotsNotCharged) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}},
                               {.position = Vec2{5, 0}}};
  // Centralized: only robot 0 is active at t0.
  Engine e(specs, walkers({Vec2{0, 1}, Vec2{0, 1}}),
           std::make_unique<CentralizedScheduler>());
  e.step();
  EXPECT_EQ(e.motion(0).activations, 1u);
  EXPECT_EQ(e.motion(1).activations, 0u);
  EXPECT_EQ(e.motion(0).moves, 1u);
  EXPECT_EQ(e.motion(1).moves, 0u);
  EXPECT_NEAR(e.motion(0).distance, 1.0, 1e-12);
}

/// A robot that walks a scripted local displacement per activation, then
/// stays.
class Script final : public Robot {
 public:
  explicit Script(std::vector<Vec2> moves) : moves_(std::move(moves)) {}
  void initialize(const Snapshot&) override {}
  Vec2 on_activate(const Snapshot& snap) override {
    const Vec2 self = snap.self_robot().position;
    return next_ < moves_.size() ? self + moves_[next_++] : self;
  }

 private:
  std::vector<Vec2> moves_;
  std::size_t next_ = 0;
};

TEST(Engine, MinSeparationTracksClosestApproach) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{10, 0}, .sigma = 10}};
  std::vector<std::unique_ptr<Robot>> programs;
  programs.push_back(std::make_unique<Sitter>());
  programs.push_back(std::make_unique<Script>(
      std::vector<Vec2>{Vec2{-7, 0}, Vec2{5, 0}}));
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>());
  EXPECT_EQ(e.min_separation(), std::numeric_limits<double>::infinity());
  e.run(2);  // Separation 3, then 8.
  EXPECT_EQ(e.min_separation(), 3.0);
  EXPECT_TRUE(nearly_equal(e.positions()[1], Vec2{8, 0}));
}

// One pair scan serves the t0 check and every step, all pairs below 128
// robots and a PointGrid at or above. These run each case at n = 5 and
// n = 130: the answers must not depend on the side.

/// `n` robots: the five given positions, then the rest on a lattice of
/// spacing 2 from (0, 5) up, far from the first five.
std::vector<RobotSpec> swarm(std::size_t n, std::initializer_list<Vec2> first) {
  std::vector<RobotSpec> specs;
  for (const Vec2& p : first) specs.push_back({.position = p, .sigma = 10});
  for (std::size_t k = 0; specs.size() < n; ++k) {
    const Vec2 p{2.0 * static_cast<double>(k % 12),
                 5.0 + 2.0 * static_cast<double>(k / 12)};
    specs.push_back({.position = p, .sigma = 10});
  }
  return specs;
}

/// Sitters, except robot i walks `moves[i]` once when it is given.
std::vector<std::unique_ptr<Robot>> scripted(
    std::size_t n, const std::vector<std::vector<Vec2>>& moves) {
  std::vector<std::unique_ptr<Robot>> v;
  for (std::size_t i = 0; i < n; ++i) {
    v.push_back(std::make_unique<Script>(
        i < moves.size() ? moves[i] : std::vector<Vec2>{}));
  }
  return v;
}

/// The values the StepComplete events of a run carried.
std::vector<double> separations(const obs::CollectSink& sink) {
  std::vector<double> out;
  for (const obs::Event& ev : sink.events()) {
    if (ev.type == obs::EventType::StepComplete) out.push_back(ev.value);
  }
  return out;
}

TEST(EnginePairScan, SeparationRuleOnEachSideOfTheGrid) {
  // The closest pair is robots 0 and 1. Below the grid threshold the
  // separation is the smallest hypot, at or above it the root of the
  // smallest squared distance; for this pair glibc's hypot and the root
  // differ by an ulp, so each side's rule is pinned.
  for (const std::size_t n : {std::size_t{5}, std::size_t{130}}) {
    obs::CollectSink sink;
    Engine e(swarm(n, {Vec2{0, 0}, Vec2{0.51, 0.54}, Vec2{3, 0}, Vec2{6, 0},
                       Vec2{9, 0}}),
             scripted(n, {}), std::make_unique<SynchronousScheduler>());
    e.set_event_sink(&sink);
    // From the engine's own positions: a constant-folded hypot could be
    // rounded differently from the library's.
    const auto p = e.positions();
    const double by_hypot = geom::dist(p[0], p[1]);
    const double by_root = std::sqrt(geom::dist2(p[0], p[1]));
    e.run(2);
    const std::vector<double> want(2, n < 128 ? by_hypot : by_root);
    EXPECT_EQ(separations(sink), want) << "n=" << n;
  }
}

TEST(EnginePairScan, FirstCollidingPairAtBothSizes) {
  // Robot 4 lands on robot 1 and robot 3 on robot 2: pairs (1,4) and
  // (2,3) collide, and (1,4) comes first.
  for (const std::size_t n : {std::size_t{5}, std::size_t{130}}) {
    obs::CollectSink sink;
    Engine e(swarm(n, {Vec2{0, 0}, Vec2{3, 0}, Vec2{6, 0}, Vec2{9, 0},
                       Vec2{12, 0}}),
             scripted(n, {{}, {}, {}, {Vec2{-3, 0}}, {Vec2{-9, 0}}}),
             std::make_unique<SynchronousScheduler>());
    e.set_event_sink(&sink);
    try {
      e.step();
      ADD_FAILURE() << "no collision at n=" << n;
    } catch (const CollisionError& err) {
      EXPECT_STREQ(err.what(), "robots 1 and 4 collided at instant 0")
          << "n=" << n;
    }
    ASSERT_FALSE(sink.events().empty());
    const obs::Event& last = sink.events().back();
    EXPECT_EQ(last.type, obs::EventType::Collision) << "n=" << n;
    EXPECT_EQ(last.robot, 1) << "n=" << n;
    EXPECT_EQ(last.peer, 4) << "n=" << n;
    EXPECT_TRUE(separations(sink).empty()) << "n=" << n;
  }
}

TEST(EnginePairScan, CollisionDistanceIsInclusive) {
  // Robot 1 steps from (x, 1) straight down to (x, 0), x from robot 0.
  const double at = kCollisionDistance;
  const double beyond = std::nextafter(at, 1.0);
  for (const std::size_t n : {std::size_t{5}, std::size_t{130}}) {
    for (const double x : {at, beyond}) {
      Engine e(swarm(n, {Vec2{0, 0}, Vec2{x, 1}, Vec2{3, 0}, Vec2{6, 0},
                         Vec2{9, 0}}),
               scripted(n, {{}, {Vec2{0, -1}}}),
               std::make_unique<SynchronousScheduler>());
      if (x == at) {
        EXPECT_THROW(e.step(), CollisionError) << "n=" << n;
      } else {
        EXPECT_NO_THROW(e.step()) << "n=" << n;
        EXPECT_EQ(e.positions()[1], (Vec2{x, 0})) << "n=" << n;
      }
    }
  }
}

TEST(EnginePairScan, CoincidentStartRefusedAtBothSizes) {
  for (const std::size_t n : {std::size_t{5}, std::size_t{130}}) {
    // Robot 4 starts on robot 2.
    EXPECT_THROW(Engine(swarm(n, {Vec2{0, 0}, Vec2{3, 0}, Vec2{6, 0},
                                  Vec2{9, 0}, Vec2{6, 0}}),
                        scripted(n, {}),
                        std::make_unique<SynchronousScheduler>()),
                 std::invalid_argument)
        << "n=" << n;
  }
}

TEST(Engine, RunUntilPredicate) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{5, 0}, .sigma = 10}};
  Engine e(specs, walkers({Vec2{0, 1}, Vec2{0, 1}}),
           std::make_unique<SynchronousScheduler>());
  EXPECT_TRUE(e.run_until([&] { return e.now() >= 7; }, 100));
  EXPECT_EQ(e.now(), 7u);
  EXPECT_FALSE(e.run_until([&] { return false; }, 5));
}

TEST(Engine, EpochRingServesLiveHistory) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{5, 0}, .sigma = 10}};
  std::vector<std::unique_ptr<Robot>> programs;
  programs.push_back(std::make_unique<Walker>(Vec2{0, 1}));
  programs.push_back(std::make_unique<Sitter>());
  EngineOptions opt;
  opt.observation_delay = 1;  // Ring capacity delay + 2 = 3.
  Engine e(specs, std::move(programs),
           std::make_unique<SynchronousScheduler>(), opt);

  EXPECT_EQ(e.config_epoch(), 0u);
  EXPECT_TRUE(e.epoch_live(0));
  EXPECT_FALSE(e.epoch_live(1));  // The future is not live.

  // Record every configuration as the run publishes it, then check the
  // ring serves exactly the live window, bit-for-bit.
  std::vector<std::vector<Vec2>> history;
  history.emplace_back(e.positions().begin(), e.positions().end());
  for (Time s = 1; s <= 5; ++s) {
    e.step();
    history.emplace_back(e.positions().begin(), e.positions().end());
    EXPECT_EQ(e.config_epoch(), s);
    for (Time ep = 0; ep <= s; ++ep) {
      if (s - ep < 3) {
        ASSERT_TRUE(e.epoch_live(ep)) << "epoch " << ep << " at t=" << s;
        const auto cfg = e.config(ep);
        const std::vector<Vec2>& want = history[ep];
        ASSERT_EQ(cfg.size(), want.size());
        for (std::size_t i = 0; i < cfg.size(); ++i) {
          EXPECT_EQ(cfg[i].x, want[i].x) << "epoch " << ep << " robot " << i;
          EXPECT_EQ(cfg[i].y, want[i].y) << "epoch " << ep << " robot " << i;
        }
      } else {
        EXPECT_FALSE(e.epoch_live(ep)) << "epoch " << ep << " at t=" << s;
        EXPECT_THROW((void)e.config(ep), std::out_of_range);
      }
    }
  }
}

TEST(Engine, PositionsSpanAliasesCurrentEpoch) {
  std::vector<RobotSpec> specs{{.position = Vec2{0, 0}, .sigma = 10},
                               {.position = Vec2{5, 0}, .sigma = 10}};
  Engine e(specs, walkers({Vec2{1, 0}, Vec2{1, 0}}),
           std::make_unique<SynchronousScheduler>());
  // `positions()` is a view of the current epoch's slot, not a copy.
  EXPECT_EQ(e.positions().data(), e.config(e.config_epoch()).data());
  e.step();
  EXPECT_EQ(e.positions().data(), e.config(e.config_epoch()).data());
  // Stepping publishes a new epoch; the previous one stays readable and
  // unchanged while live (delay 0 -> capacity 2).
  const std::vector<Vec2> before(e.positions().begin(), e.positions().end());
  const Time prev = e.config_epoch();
  e.step();
  ASSERT_TRUE(e.epoch_live(prev));
  const auto old_cfg = e.config(prev);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_EQ(old_cfg[i].x, before[i].x);
    EXPECT_EQ(old_cfg[i].y, before[i].y);
  }
  EXPECT_FALSE(e.epoch_live(prev - 1));
}

TEST(ChangeTracker, CountsDistinctObservations) {
  ChangeTracker t(2, 1e-9);
  t.observe(0, Vec2{0, 0});
  EXPECT_EQ(t.changes(0), 0u);  // First observation is a baseline.
  t.observe(0, Vec2{0, 0});
  EXPECT_EQ(t.changes(0), 0u);
  t.observe(0, Vec2{1, 0});
  EXPECT_EQ(t.changes(0), 1u);
  t.observe(0, Vec2{1, 0});
  t.observe(0, Vec2{2, 0});
  EXPECT_EQ(t.changes(0), 2u);
  EXPECT_EQ(t.changes(1), 0u);
  EXPECT_TRUE(t.last(0).has_value());
  EXPECT_FALSE(t.last(1).has_value());
}

TEST(ChangeTracker, ToleranceSuppressesJitter) {
  ChangeTracker t(1, 0.1);
  t.observe(0, Vec2{0, 0});
  t.observe(0, Vec2{0.05, 0});
  EXPECT_EQ(t.changes(0), 0u);
  t.observe(0, Vec2{0.2, 0});
  EXPECT_EQ(t.changes(0), 1u);
}

TEST(AckBarrier, RequiresTwoChangesFromEveryPeer) {
  ChangeTracker t(3, 1e-9);
  for (std::size_t p = 0; p < 3; ++p) t.observe(p, Vec2{0, 0});
  AckBarrier b;
  b.arm(t, /*self_slot=*/1);  // Track peers 0 and 2.
  EXPECT_FALSE(b.satisfied(t));
  t.observe(0, Vec2{1, 0});
  t.observe(0, Vec2{2, 0});
  EXPECT_FALSE(b.satisfied(t));  // Peer 2 has not changed.
  t.observe(2, Vec2{1, 0});
  EXPECT_FALSE(b.satisfied(t));  // Only once.
  t.observe(2, Vec2{2, 0});
  EXPECT_TRUE(b.satisfied(t));
  // Self slot 1 never mattered.
  EXPECT_EQ(t.changes(1), 0u);
}

TEST(AckBarrier, RearmResetsBaselines) {
  ChangeTracker t(1, 1e-9);
  t.observe(0, Vec2{0, 0});
  t.observe(0, Vec2{1, 0});
  t.observe(0, Vec2{2, 0});
  AckBarrier b;
  b.arm(t, 1);
  EXPECT_FALSE(b.satisfied(t));  // Changes before arming do not count.
  t.observe(0, Vec2{3, 0});
  t.observe(0, Vec2{4, 0});
  EXPECT_TRUE(b.satisfied(t));
}

}  // namespace
}  // namespace stig::sim
