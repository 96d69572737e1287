// Differential tests for the observation paths that pay for what moved.
//
// Engine: each observer's snapshot is listed from the rows it listed last:
// only robots written since are re-sighted, the order is repaired (moved
// rows, insertion sort, std::sort fallback on exact ties). Every snapshot a
// robot receives must equal a from-scratch reference — entries in index
// order, std::sort-ed by local position (by id when identified) — field
// for field, `self` included; and its change hint must name every slot
// whose entry differs from the observer's previous snapshot.
//
// `sim::initial_observation_order`, which core::ChatNetwork builds its
// tables from, must list every t0 snapshot in the engine's order,
// quantized and limited-visibility views included.
//
// SlicedCore: `observe` matches an unchanged entry by its bits and tries a
// mover against its own slot before a scan of the centers, skips the
// entries a change hint leaves out, and `signal` classifies only what
// moved; granular geometry is built on first use. Every activation must
// give the positions and signals of the full path it replaced —
// association of every entry, then classification of every robot against
// eagerly built granulars — which lives here as the oracle; a hinted
// observe must also report the changed granulars an unhinted one
// reports.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "geom/sec.hpp"
#include "geom/voronoi.hpp"
#include "proto/naming.hpp"
#include "proto/slices.hpp"
#include "sim/engine.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using geom::Vec2;
using sim::Engine;
using sim::EngineOptions;
using sim::RobotIndex;
using sim::Snapshot;

/// The snapshot robot `i` observes at `e`'s current instant, built the
/// legacy way: visible entries appended in index order, then std::sort-ed
/// by local position (anonymous) or by id (identified). `order`, when
/// given, receives the robot index of each entry.
Snapshot reference_snapshot(const Engine& e, const EngineOptions& o,
                            RobotIndex i,
                            std::vector<RobotIndex>* order = nullptr) {
  struct Row {
    sim::ObservedRobot obs;
    RobotIndex index = 0;
  };
  const sim::Time t = e.now();
  const sim::Time d = o.observation_delay;
  const auto config = e.config(t);
  const auto stale = e.config(t >= d ? t - d : 0);
  const double q = o.observation_quantum;
  std::vector<Row> rows;
  for (RobotIndex j = 0; j < e.robot_count(); ++j) {
    Vec2 g = j == i ? config[j] : stale[j];
    if (j != i && o.visibility_radius > 0.0 &&
        geom::dist(g, config[i]) > o.visibility_radius) {
      continue;
    }
    if (j != i && q > 0.0) {
      g = Vec2{std::round(g.x / q) * q, std::round(g.y / q) * q};
    }
    rows.push_back(Row{{e.frame(i).to_local(g), e.spec(j).id}, j});
  }
  if (e.identified()) {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return *a.obs.id < *b.obs.id;
    });
  } else {
    std::sort(rows.begin(), rows.end(), [](const Row& a, const Row& b) {
      return a.obs.position < b.obs.position;
    });
  }
  Snapshot s;
  s.t = t;
  if (order != nullptr) order->clear();
  for (std::size_t k = 0; k < rows.size(); ++k) {
    if (rows[k].index == i) s.self = k;
    s.robots.push_back(rows[k].obs);
    if (order != nullptr) order->push_back(rows[k].index);
  }
  return s;
}

/// Empty when equal, else the first differing field.
std::string diff(const Snapshot& got, const Snapshot& want) {
  std::ostringstream out;
  if (got.t != want.t) {
    out << "t " << got.t << " vs " << want.t;
  } else if (got.self != want.self) {
    out << "self " << got.self << " vs " << want.self;
  } else if (got.robots.size() != want.robots.size()) {
    out << "size " << got.robots.size() << " vs " << want.robots.size();
  } else {
    for (std::size_t k = 0; k < got.robots.size(); ++k) {
      const sim::ObservedRobot& a = got.robots[k];
      const sim::ObservedRobot& b = want.robots[k];
      if (a.position.x != b.position.x || a.position.y != b.position.y ||
          a.id != b.id) {
        out << "entry " << k << ": " << a.position << " vs " << b.position;
        break;
      }
    }
  }
  return out.str();
}

/// Empty when `snap`'s change hint covers every slot whose entry differs
/// from `prev` (the observer's previous snapshot), else what is wrong. A
/// swarm of `n` <= sim::kUnhintedSwarmMax robots must carry no hint.
std::string hint_gap(const Snapshot& snap, const Snapshot& prev,
                     std::size_t n) {
  const sim::ChangeHint& h = snap.hint;
  if (n <= sim::kUnhintedSwarmMax) {
    return h.known ? "hint in a small swarm" : "";
  }
  if (!h.known) return "no hint";
  if (h.since != prev.t) {
    return "hint since " + std::to_string(h.since) + ", previous t " +
           std::to_string(prev.t);
  }
  for (std::size_t k = 0; k < h.slots.size(); ++k) {
    if (h.slots[k] >= snap.size() || (k > 0 && h.slots[k] <= h.slots[k - 1])) {
      return "hint slots not ascending in range";
    }
  }
  for (std::size_t k = 0; k < snap.size(); ++k) {
    const bool differs =
        k >= prev.size() ||
        !geom::same_bits(snap.robots[k].position, prev.robots[k].position) ||
        snap.robots[k].id != prev.robots[k].id;
    if (differs && !std::binary_search(h.slots.begin(), h.slots.end(),
                                       static_cast<std::uint32_t>(k))) {
      return "changed slot " + std::to_string(k) + " not hinted";
    }
  }
  return "";
}

/// Checks every snapshot it receives against the reference and its hint
/// against its previous snapshot, and counts the activations whose listing
/// differs from its previous one; then walks `velocity` (global units per
/// instant) for `leg` instants, then back.
class Probe final : public sim::Robot {
 public:
  Probe(RobotIndex self, Vec2 velocity, sim::Time leg)
      : self_(self), velocity_(velocity), leg_(leg) {}

  void initialize(const Snapshot& snap) override {
    t0 = snap;
    last = snap;
  }

  Vec2 on_activate(const Snapshot& snap) override {
    ++checked;
    std::vector<RobotIndex> order;
    std::string d =
        diff(snap, reference_snapshot(*engine, *options, self_, &order));
    if (d.empty()) d = hint_gap(snap, last, engine->robot_count());
    hinted += snap.hint.slots.size();
    listed += snap.size();
    for (std::size_t k = 1; k < snap.size(); ++k) {
      if (snap.robots.position(k) == snap.robots.position(k - 1)) {
        ++tied;
        break;
      }
    }
    last = snap;
    if (!last_order_.empty() && order != last_order_) ++reorders;
    last_order_ = std::move(order);
    if (!d.empty() && first_mismatch.empty()) {
      first_mismatch = "robot " + std::to_string(self_) + " at t=" +
                       std::to_string(snap.t) + ": " + d;
    }
    const sim::Frame& f = engine->frame(self_);
    const bool back = leg_ > 0 && (snap.t / leg_) % 2 == 1;
    const Vec2 step =
        f.to_local(velocity_ * (back ? -1.0 : 1.0)) - f.to_local(Vec2{0, 0});
    return snap.self_robot().position + step;
  }

  const Engine* engine = nullptr;
  const EngineOptions* options = nullptr;
  Snapshot t0;
  Snapshot last;  ///< The previous snapshot received.
  std::size_t checked = 0;
  std::size_t reorders = 0;
  std::size_t hinted = 0;  ///< Hinted slots over all snapshots.
  std::size_t listed = 0;  ///< Entries over all snapshots.
  std::size_t tied = 0;    ///< Snapshots with two equal entries.
  std::string first_mismatch;

 private:
  std::vector<RobotIndex> last_order_;
  RobotIndex self_;
  Vec2 velocity_;
  sim::Time leg_;
};

struct Swarm {
  std::size_t n = 8;
  std::uint64_t seed = 1;
  bool identified = false;
  /// Bound on each velocity component (global units per instant).
  double speed = 0.4;
  bool flock = false;  ///< Every robot gets the same velocity.
  sim::Time leg = 6;
  /// Every even robot sits still exactly on the quantum grid, where the
  /// quantized sightings of its neighbours can tie with its own position.
  bool on_grid = false;
  /// When positive, only robots 0 .. movers - 1 move.
  std::size_t movers = 0;
  /// Robots 0, 5, 10 and 15 sit still in one cell of the sensor quantum,
  /// so every other observer's listing ties them at every look.
  bool cluster = false;
  /// Calls make_snapshot for every robot between steps and checks it.
  bool probe_between = false;
  EngineOptions options;
  /// Displacements by Engine::teleport before the step of instant `at`
  /// (at 0: before the first step, after the t0 wake-up).
  struct Shove {
    sim::Time at = 0;
    RobotIndex robot = 0;
    Vec2 by;
  };
  std::vector<Shove> shoves;
  sim::StepInterceptor* interceptor = nullptr;
};

struct Tally {
  std::size_t checked = 0;   ///< Snapshots compared with the reference.
  std::size_t reorders = 0;  ///< Activations whose listing changed.
  std::size_t hinted = 0;    ///< Hinted slots over all snapshots.
  std::size_t listed = 0;    ///< Entries over all snapshots.
  std::size_t tied = 0;      ///< Snapshots with two equal entries.
  /// Engine::row_visits of each step.
  std::vector<std::uint64_t> step_visits;
};

/// Runs `s` for `instants` under `scheduler`; fails the test on the first
/// mismatch.
Tally run_swarm(const Swarm& s, sim::Time instants,
                std::unique_ptr<sim::Scheduler> scheduler) {
  sim::Rng rng(s.seed);
  const double side = 3.0 * std::ceil(std::sqrt(static_cast<double>(s.n)));
  std::vector<sim::RobotSpec> specs;
  std::vector<RobotIndex> ids(s.n);
  std::iota(ids.begin(), ids.end(), RobotIndex{1});
  std::shuffle(ids.begin(), ids.end(), std::mt19937_64(s.seed));
  while (specs.size() < s.n) {
    sim::RobotSpec spec;
    spec.position = Vec2{rng.uniform(0.0, side), rng.uniform(0.0, side)};
    if ((s.on_grid && specs.size() % 2 == 0) ||
        (s.cluster && specs.size() == 0)) {
      const double q = s.options.observation_quantum;
      spec.position = Vec2{std::round(spec.position.x / q) * q,
                           std::round(spec.position.y / q) * q};
    }
    if (s.cluster && specs.size() % 5 == 0 && specs.size() > 0 &&
        specs.size() < 20) {
      const double q = s.options.observation_quantum;
      const double k = static_cast<double>(specs.size() / 5);
      spec.position = specs[0].position + Vec2{0.1 * k * q, -0.1 * k * q};
    }
    if (std::any_of(specs.begin(), specs.end(), [&](const auto& o) {
          return o.position == spec.position;
        })) {
      continue;
    }
    spec.sigma = 1.0;
    spec.frame_rotation = rng.uniform(-3.2, 3.2);
    spec.frame_unit = rng.uniform(0.25, 4.0);
    spec.frame_mirrored = rng.uniform(0.0, 1.0) < 0.5;
    if (s.identified) spec.id = static_cast<sim::VisibleId>(ids[specs.size()]);
    specs.push_back(spec);
  }
  const Vec2 shared{rng.uniform(-s.speed, s.speed),
                    rng.uniform(-s.speed, s.speed)};
  std::vector<std::unique_ptr<sim::Robot>> programs;
  std::vector<Probe*> probes;
  for (RobotIndex i = 0; i < s.n; ++i) {
    Vec2 v = s.flock ? shared
                     : Vec2{rng.uniform(-s.speed, s.speed),
                            rng.uniform(-s.speed, s.speed)};
    if (s.on_grid && i % 2 == 0) v = Vec2{0.0, 0.0};
    if (s.movers > 0 && i >= s.movers) v = Vec2{0.0, 0.0};
    if (s.cluster && i % 5 == 0 && i < 20) v = Vec2{0.0, 0.0};
    auto p = std::make_unique<Probe>(i, v, s.leg);
    probes.push_back(p.get());
    programs.push_back(std::move(p));
  }
  Engine e(specs, std::move(programs), std::move(scheduler), s.options);
  for (RobotIndex i = 0; i < s.n; ++i) {
    probes[i]->engine = &e;
    probes[i]->options = &s.options;
    std::vector<RobotIndex> listed;
    const std::string d =
        diff(probes[i]->t0, reference_snapshot(e, s.options, i, &listed));
    EXPECT_TRUE(d.empty()) << "t0 snapshot of robot " << i << ": " << d;
    // The t0 listing by the engine's rule (what core::ChatNetwork builds
    // its tables from): the robots it sees, in this order, are the t0
    // snapshot.
    const std::vector<RobotIndex> order =
        sim::initial_observation_order(specs, i, s.options);
    std::vector<bool> seen(s.n, false);
    for (const RobotIndex j : listed) seen[j] = true;
    std::vector<RobotIndex> visible;
    for (const RobotIndex j : order) {
      if (seen[j]) visible.push_back(j);
    }
    EXPECT_EQ(visible, listed) << "t0 order of robot " << i;
  }
  e.set_step_interceptor(s.interceptor);
  Tally tally;
  for (sim::Time t = 0; t < instants; ++t) {
    for (const Swarm::Shove& shove : s.shoves) {
      if (shove.at == t) {
        e.teleport(shove.robot, e.positions()[shove.robot] + shove.by);
      }
    }
    if (s.probe_between && s.options.observation_delay == 0) {
      // make_snapshot works on copies: it must agree with the reference
      // and leave the rows the next step repairs untouched.
      for (RobotIndex i = 0; i < s.n; ++i) {
        const Snapshot snap = e.make_snapshot(i);
        std::string d = diff(snap, reference_snapshot(e, s.options, i));
        if (d.empty()) d = hint_gap(snap, probes[i]->last, s.n);
        EXPECT_TRUE(d.empty())
            << "make_snapshot(" << i << ") before t=" << t << ": " << d;
      }
    }
    const std::uint64_t before = e.row_visits();
    e.step();
    tally.step_visits.push_back(e.row_visits() - before);
  }
  for (const Probe* p : probes) {
    EXPECT_TRUE(p->first_mismatch.empty()) << p->first_mismatch;
    tally.checked += p->checked;
    tally.reorders += p->reorders;
    tally.hinted += p->hinted;
    tally.listed += p->listed;
    tally.tied += p->tied;
  }
  if (s.options.observation_delay == 0) {
    // Between steps make_snapshot sees the current instant; it repairs a
    // copy of the stored rows and must agree with the reference too, its
    // hint relative to the robot's last snapshot from a step.
    for (RobotIndex i = 0; i < s.n; ++i) {
      const Snapshot snap = e.make_snapshot(i);
      std::string d = diff(snap, reference_snapshot(e, s.options, i));
      if (d.empty()) d = hint_gap(snap, probes[i]->last, s.n);
      EXPECT_TRUE(d.empty()) << "make_snapshot(" << i << "): " << d;
    }
  }
  return tally;
}

std::unique_ptr<sim::Scheduler> sync() {
  return std::make_unique<sim::SynchronousScheduler>();
}

std::unique_ptr<sim::Scheduler> bernoulli(std::uint64_t seed) {
  return std::make_unique<sim::BernoulliScheduler>(0.3, seed, 8);
}

TEST(ObservationDiff, AnonymousSwarmsMatchFromScratchSort) {
  for (const std::size_t n : {2u, 3u, 5u, 64u, 257u}) {
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
      Swarm s;
      s.n = n;
      s.seed = 100 * n + seed;
      const sim::Time instants = n > 100 ? 14 : 40;
      EXPECT_GT(run_swarm(s, instants, sync()).checked, 0u) << "n=" << n;
      EXPECT_GT(run_swarm(s, instants, bernoulli(seed)).checked, 0u)
          << "n=" << n;
    }
  }
}

TEST(ObservationDiff, CrossingRobotsMatchFromScratchSort) {
  // Fast robots on short legs pass each other in every frame's x order
  // over and over: the stored order is repaired by many inversions.
  for (const std::size_t n : {5u, 64u}) {
    Swarm s;
    s.n = n;
    s.seed = 7 + n;
    s.speed = 0.9;
    s.leg = 3;
    EXPECT_GT(run_swarm(s, 60, sync()).reorders, 0u);
    EXPECT_GT(run_swarm(s, 60, bernoulli(3)).reorders, 0u);
  }
}

TEST(ObservationDiff, FlockingDriftMatchesFromScratchSort) {
  // A common drift keeps every frame's order: the repair is O(n).
  for (const std::size_t n : {3u, 64u, 257u}) {
    Swarm s;
    s.n = n;
    s.seed = 11 + n;
    s.flock = true;
    s.leg = 0;
    const Tally t = run_swarm(s, 12, sync());
    EXPECT_GT(t.checked, 0u);
    EXPECT_EQ(t.reorders, 0u);
  }
}

TEST(ObservationDiff, QuantizedTiesFallBackToLegacySort) {
  // A coarse sensor grid snaps many robots onto one point; half the swarm
  // sits exactly on the grid, so an observer can tie with others too and
  // `self` depends on std::sort's unstable placement. n > 16 makes
  // std::sort partition rather than insertion-sort.
  for (const std::size_t n : {5u, 64u, 257u}) {
    Swarm s;
    s.n = n;
    s.seed = 23 + n;
    s.options.observation_quantum = 4.0;
    s.on_grid = true;
    s.speed = 0.2;
    EXPECT_GT(run_swarm(s, 10, sync()).checked, 0u);
    EXPECT_GT(run_swarm(s, 10, bernoulli(5)).checked, 0u);
  }
}

TEST(ObservationDiff, DelayedObservationMatchesReference) {
  for (const std::size_t n : {3u, 64u}) {
    Swarm s;
    s.n = n;
    s.seed = 31 + n;
    s.speed = 0.8;
    s.leg = 4;
    s.options.observation_delay = 2;
    EXPECT_GT(run_swarm(s, 30, sync()).reorders, 0u);
    EXPECT_GT(run_swarm(s, 30, bernoulli(7)).reorders, 0u);
  }
}

TEST(ObservationDiff, LimitedVisibilityMatchesReference) {
  for (const std::size_t n : {5u, 64u}) {
    Swarm s;
    s.n = n;
    s.seed = 41 + n;
    s.speed = 0.8;
    s.options.visibility_radius = 7.0;
    EXPECT_GT(run_swarm(s, 30, sync()).checked, 0u);
    // With quantization ties as well: the fallback sorts only the visible.
    s.options.observation_quantum = 4.0;
    s.on_grid = true;
    EXPECT_GT(run_swarm(s, 10, bernoulli(9)).checked, 0u);
  }
}

TEST(ObservationDiff, HintsCoverEveryChangeUnderEveryScheduler) {
  // Five schedulers, observation delays 0-2, a sensor quantum with ties,
  // a visibility radius; teleports before the first step and between
  // steps, and a jitter fault that shoves robots after the moves of an
  // instant. n = 5 is listed from scratch and carries no hint; n = 40
  // re-sights only what was written.
  const auto schedulers = [](std::uint64_t seed) {
    std::vector<std::unique_ptr<sim::Scheduler>> out;
    out.push_back(std::make_unique<sim::SynchronousScheduler>());
    out.push_back(std::make_unique<sim::BernoulliScheduler>(0.3, seed, 8));
    out.push_back(std::make_unique<sim::CentralizedScheduler>());
    out.push_back(std::make_unique<sim::KSubsetScheduler>(3, seed, 8));
    out.push_back(std::make_unique<sim::AdversarialScheduler>(6));
    return out;
  };
  for (const std::size_t n : {5u, 40u}) {
    for (sim::Time delay = 0; delay <= 2; ++delay) {
      for (int variant = 0; variant < 3; ++variant) {
        fault::FaultPlan plan;
        plan.jitters.push_back(fault::JitterFault{3, 5, 200, -150});
        plan.jitters.push_back(fault::JitterFault{0, 11, -90, 60});
        std::size_t kind = 0;
        for (auto& scheduler : schedulers(60 + n + delay)) {
          fault::FaultInjector jitter(plan);
          Swarm s;
          s.n = n;
          s.seed = 61 + 7 * n + 3 * delay + static_cast<std::uint64_t>(variant);
          s.speed = 0.5;
          s.leg = 4;
          s.options.observation_delay = delay;
          if (variant == 1) {
            s.options.observation_quantum = 4.0;
            s.on_grid = true;
          }
          if (variant == 2) s.options.visibility_radius = 9.0;
          s.shoves = {{0, 1, Vec2{0.3, -0.2}},
                      {7, 2, Vec2{-0.25, 0.15}},
                      {13, 0, Vec2{0.2, 0.35}}};
          s.interceptor = &jitter;
          EXPECT_GT(run_swarm(s, 24, std::move(scheduler)).checked, 0u)
              << "n=" << n << " delay=" << delay << " variant=" << variant
              << " scheduler=" << kind;
          ++kind;
        }
      }
    }
  }
}

TEST(ObservationDiff, HintsNameOnlyWhatMoved) {
  // Three movers among 64 (and 257) robots: an observer's hint lists the
  // movers' slots and the neighbours they pass, not the swarm.
  for (const std::size_t n : {64u, 257u}) {
    Swarm s;
    s.n = n;
    s.seed = 71 + n;
    s.speed = 0.6;
    s.leg = 3;
    s.movers = 3;
    const Tally t = run_swarm(s, 12, sync());
    EXPECT_GT(t.reorders, 0u);
    EXPECT_LT(4 * t.hinted, t.listed) << "n=" << n;
  }
}

TEST(ObservationDiff, IdentifiedSwarmsListInIdOrder) {
  for (const std::size_t n : {2u, 64u}) {
    Swarm s;
    s.n = n;
    s.seed = 53 + n;
    s.identified = true;
    EXPECT_GT(run_swarm(s, 20, sync()).checked, 0u);
    s.options.visibility_radius = 9.0;
    EXPECT_GT(run_swarm(s, 20, bernoulli(11)).checked, 0u);
  }
}

/// Bernoulli activations, except that robot `sleeper` is kept asleep in
/// [from, to) and is the only robot active at `to`.
class SleeperScheduler final : public sim::Scheduler {
 public:
  SleeperScheduler(std::uint64_t seed, RobotIndex sleeper, sim::Time from,
                   sim::Time to)
      : base_(0.5, seed, 8), sleeper_(sleeper), from_(from), to_(to) {}

  void activate_into(sim::Time t, std::size_t n,
                     sim::ActivationSet& out) override {
    base_.activate_into(t, n, out);
    if (t == to_) {
      std::fill(out.begin(), out.end(), false);
      out[sleeper_] = true;
    } else if (t >= from_ && t < to_) {
      out[sleeper_] = false;
      out[(sleeper_ + 1) % n] = true;
    }
  }

 private:
  sim::BernoulliScheduler base_;
  RobotIndex sleeper_;
  sim::Time from_, to_;
};

TEST(ObservationDiff, SleeperOlderThanTheWriteLogResightsEveryone) {
  // An asynchronous hinted swarm: while robot 3 sleeps, the others write
  // more positions than the write log holds, so its next look re-sights
  // every robot — and must still match the reference, hint included.
  for (const std::size_t n : {20u, 40u}) {
    for (sim::Time delay = 0; delay <= 1; ++delay) {
      Swarm s;
      s.n = n;
      s.seed = 300 + n + delay;
      s.speed = 0.5;
      s.leg = 4;
      s.options.observation_delay = delay;
      const sim::Time wake = 20;
      const Tally t = run_swarm(
          s, 30, std::make_unique<SleeperScheduler>(s.seed, 3, 4, wake));
      EXPECT_GT(t.checked, 0u);
      // Only the sleeper looks at `wake`: everyone re-sighted is n rows.
      EXPECT_GE(t.step_visits[wake], n) << "n=" << n << " delay=" << delay;
    }
  }
}

TEST(ObservationDiff, DelayedSynchronousSwarmsMatchReference) {
  for (sim::Time delay = 1; delay <= 3; ++delay) {
    Swarm s;
    s.n = 40;
    s.seed = 320 + delay;
    s.speed = 0.7;
    s.leg = 3;
    s.options.observation_delay = delay;
    EXPECT_GT(run_swarm(s, 24, sync()).reorders, 0u) << "delay=" << delay;
  }
}

TEST(ObservationDiff, TeleportsAndShovesBetweenLooksMatchReference) {
  // Teleports before the first step and between steps, and a jitter
  // fault that shoves robots after the moves of an instant; the robots'
  // stored rows must follow every write.
  fault::FaultPlan plan;
  plan.jitters.push_back(fault::JitterFault{2, 5, 120, -80});
  plan.jitters.push_back(fault::JitterFault{6, 17, -60, 90});
  for (const std::size_t n : {24u, 40u}) {
    fault::FaultInjector jitter(plan);
    Swarm s;
    s.n = n;
    s.seed = 330 + n;
    s.speed = 0.3;
    s.leg = 5;
    s.shoves = {{0, 4, Vec2{0.4, -0.3}},
                {3, 9, Vec2{-0.3, 0.2}},
                {3, 10, Vec2{0.25, 0.25}},
                {9, 0, Vec2{0.1, 0.45}}};
    s.interceptor = &jitter;
    s.probe_between = true;
    EXPECT_GT(run_swarm(s, 16, sync()).checked, 0u) << "n=" << n;
  }
}

TEST(ObservationDiff, UnmovedClusterStaysTiedWhileOthersMove) {
  // Four robots sit still in one quantum cell: every other observer sees
  // them at one point at every look, a tie between robots that never
  // move. Each such listing is the legacy std::sort's, every look.
  for (const std::size_t n : {24u, 48u}) {
    Swarm s;
    s.n = n;
    s.seed = 340 + n;
    s.speed = 0.3;
    s.leg = 4;
    s.options.observation_quantum = 1.5;
    s.cluster = true;
    s.probe_between = true;
    const Tally t = run_swarm(s, 12, sync());
    EXPECT_GE(t.tied, (n - 2) * 12) << "n=" << n;
    EXPECT_GT(run_swarm(s, 12, bernoulli(n)).tied, 0u) << "n=" << n;
  }
}

TEST(ObservationDiff, MoverTyingWithTheObserverOnItsRight) {
  // Identity frames and a unit quantum: robot 1 walks right along y = 0
  // into the grid point robot 0 sits on, so in robot 0's listing the row
  // that moved ties with robot 0's own row, on its right. Which of two
  // equal entries is `self` is std::sort's call. A visibility radius hides
  // the other 18 robots (they make the swarm hinted), so robot 0 sorts at
  // most 16 robots, where std::sort is an insertion sort and keeps index
  // order: robot 0's own entry first, before the row that moved.
  EngineOptions o;
  o.observation_quantum = 1.0;
  o.visibility_radius = 5.0;
  std::vector<sim::RobotSpec> specs;
  const auto add = [&](Vec2 p) {
    sim::RobotSpec spec;
    spec.position = p;
    specs.push_back(spec);
  };
  add(Vec2{5.0, 0.0});
  add(Vec2{2.3, 0.2});
  for (int k = 0; k < 18; ++k) {
    add(Vec2{3.0 * (k % 6) + 0.4, 12.0 + 3.0 * (k / 6)});
  }
  std::vector<std::unique_ptr<sim::Robot>> programs;
  std::vector<Probe*> probes;
  for (RobotIndex i = 0; i < specs.size(); ++i) {
    auto p = std::make_unique<Probe>(i, i == 1 ? Vec2{0.9, 0.0} : Vec2{}, 0);
    probes.push_back(p.get());
    programs.push_back(std::move(p));
  }
  Engine e(specs, std::move(programs), sync(), o);
  for (Probe* p : probes) {
    p->engine = &e;
    p->options = &o;
  }
  e.run(6);
  for (const Probe* p : probes) {
    EXPECT_TRUE(p->first_mismatch.empty()) << p->first_mismatch;
  }
  EXPECT_GT(probes[0]->tied, 0u);
}

TEST(ObservationDiff, MakeSnapshotsBetweenStepsLeaveTheRowsAlone) {
  for (const std::size_t n : {5u, 40u}) {
    Swarm s;
    s.n = n;
    s.seed = 350 + n;
    s.speed = 0.6;
    s.leg = 3;
    s.probe_between = true;
    EXPECT_GT(run_swarm(s, 14, sync()).reorders, 0u) << "n=" << n;
    EXPECT_GT(run_swarm(s, 14, bernoulli(n)).checked, 0u) << "n=" << n;
  }
}

TEST(ObservationDiff, TheT0SnapshotOutlivesLaterSteps) {
  // perfbench keeps make_snapshot(0) from before the chat and reads it
  // after the chat ran: the snapshot owns its entries.
  sim::Rng rng(360);
  core::ChatNetworkOptions opt;
  opt.seed = 361;
  core::ChatNetwork net(sim::jittered_grid(rng, 40), opt);
  const EngineOptions none;
  std::optional<Snapshot> t0_view = net.engine().make_snapshot(0);
  const Snapshot want = reference_snapshot(net.engine(), none, 0);
  net.broadcast(0, std::vector<std::uint8_t>{0x5a});
  net.run(10);
  EXPECT_EQ(diff(*t0_view, want), "");
  EXPECT_EQ(t0_view->size(), 40u);
}

TEST(ObservationDiff, ChatNetworkSlotsFollowTheEngineT0Listings) {
  // ChatNetwork reads its slot tables from the engine's t0 listings; they
  // must name the robots the engine's t0 rule lists, view by view.
  for (int variant = 0; variant < 3; ++variant) {
    for (const std::size_t n : {6u, 24u}) {
      sim::Rng rng(370 + n);
      core::ChatNetworkOptions opt;
      opt.seed = 371 + static_cast<std::uint64_t>(variant);
      if (variant == 0) opt.observation_quantum = 0.75;
      if (variant == 1) opt.visibility_radius = 1e3;
      if (variant == 2) {
        opt.caps.visible_ids = true;
        opt.caps.sense_of_direction = true;
      }
      core::ChatNetwork net(sim::jittered_grid(rng, n), opt);
      for (RobotIndex i = 0; i < n; ++i) {
        const std::vector<RobotIndex> order =
            net.engine().initial_observation_order(i);
        const std::span<const std::uint32_t> slots = net.slots(i);
        for (std::size_t k = 0; k < n; ++k) {
          EXPECT_EQ(slots[net.chat_robot(i).slot_of_t0_index(k)], order[k])
              << "variant " << variant << " n=" << n << " robot " << i;
        }
      }
    }
  }
}

TEST(ObservationDiff, OneMoverCostsLinearRowsPerStep) {
  // A hinted synchronous swarm in which one robot moves: each look
  // re-sights that robot, shifts it past a few rows and hands over their
  // slots, so a step visits O(n) rows, not the n^2 of a full pass.
  Swarm s;
  s.n = 256;
  s.seed = 380;
  s.speed = 0.1;
  s.leg = 4;
  s.movers = 1;
  const Tally t = run_swarm(s, 10, sync());
  for (std::size_t k = 1; k < t.step_visits.size(); ++k) {
    EXPECT_LE(t.step_visits[k], 16 * s.n) << "step " << k;
  }
  EXPECT_GT(t.step_visits.back(), 0u);
}

// ---- SlicedCore association and the decode memo.

/// Brute nearest-center association: ascending scan, lowest index on
/// exact ties, later entries overwrite earlier ones.
std::vector<Vec2> brute_associate(const std::vector<Vec2>& centers,
                                  const Snapshot& snap) {
  std::vector<Vec2> out(centers.size(), Vec2{});
  for (const sim::ObservedRobot& r : snap.robots) {
    std::size_t best = 0;
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < centers.size(); ++i) {
      const double d2 = geom::dist2(r.position, centers[i]);
      if (d2 < best_d2) {
        best_d2 = d2;
        best = i;
      }
    }
    out[best] = r.position;
  }
  return out;
}

/// The granulars a core used to build eagerly in its constructor: the
/// closed-form radii, North or (relative naming) each robot's SEC horizon,
/// `diameters` slices.
std::vector<geom::Granular> eager_granulars(const std::vector<Vec2>& centers,
                                            proto::NamingMode naming,
                                            std::size_t diameters) {
  const std::size_t n = centers.size();
  std::vector<Vec2> references(n, Vec2{0.0, 1.0});
  if (naming == proto::NamingMode::relative) {
    const geom::Circle sec = geom::smallest_enclosing_circle(centers);
    for (std::size_t i = 0; i < n; ++i) {
      references[i] = proto::horizon_direction(centers, i, sec);
    }
  }
  std::vector<geom::Granular> out;
  for (std::size_t i = 0; i < n; ++i) {
    out.emplace_back(centers[i], geom::granular_radius(centers, i), diameters,
                     references[i]);
  }
  return out;
}

/// One activation decoded the way the drivers did before the memo: every
/// entry associated (own slot within 0.9 r, else nearest center), then
/// every robot classified against its eagerly built granular.
struct FullDecode {
  std::vector<Vec2> positions;
  std::vector<std::optional<proto::Signal>> signals;
};

FullDecode full_decode(const std::vector<geom::Granular>& granulars,
                       const Snapshot& snap) {
  const std::size_t n = granulars.size();
  FullDecode out;
  out.positions.assign(n, Vec2{});
  for (std::size_t k = 0; k < snap.robots.size(); ++k) {
    const Vec2& p = snap.robots[k].position;
    std::size_t best = 0;
    const double own = k < n ? 0.9 * granulars[k].radius() : 0.0;
    if (k < n && geom::dist2(p, granulars[k].center()) <= own * own) {
      best = k;
    } else {
      double best_d2 = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const double d2 = geom::dist2(p, granulars[i].center());
        if (d2 < best_d2) {
          best_d2 = d2;
          best = i;
        }
      }
    }
    out.positions[best] = p;
  }
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Granular& g = granulars[i];
    const auto fix = g.classify(out.positions[i], 1e-7 * g.radius(),
                                g.slice_width() / 4.0);
    out.signals.push_back(
        fix ? std::optional<proto::Signal>(proto::Signal{fix->diameter,
                                                         fix->side})
            : std::nullopt);
  }
  return out;
}

bool same_granular(const geom::Granular& a, const geom::Granular& b) {
  return same_bits(a.center(), b.center()) &&
         std::bit_cast<std::uint64_t>(a.radius()) ==
             std::bit_cast<std::uint64_t>(b.radius()) &&
         a.diameter_count() == b.diameter_count() &&
         same_bits(a.reference(), b.reference());
}

Snapshot snapshot_of(const std::vector<Vec2>& pts) {
  Snapshot s;
  for (const Vec2& p : pts) s.robots.push_back(sim::ObservedRobot{p, {}});
  return s;
}

/// Jittered-grid centers, lexicographically sorted like a t0 snapshot.
std::vector<Vec2> t0_centers(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<Vec2> pts = sim::jittered_grid(rng, n);
  std::sort(pts.begin(), pts.end());
  return pts;
}

Vec2 unit(double angle) { return Vec2{std::cos(angle), std::sin(angle)}; }

/// Feeds snapshots to one core and checks each activation against the
/// full path. The drivers ask for every peer's signal each activation;
/// this caller leaves some unasked for a while, so a change must survive
/// until the next ask.
class MemoChecker {
 public:
  MemoChecker(const Snapshot& t0, proto::NamingMode naming,
              std::size_t diameters)
      : core_(t0, naming, diameters),
        eager_(eager_granulars(centers_of(t0), naming, diameters)),
        last_(centers_of(t0)) {}

  /// Checks one activation; returns the number of robots whose position
  /// changed since the previous one.
  std::size_t check(const Snapshot& snap, const std::string& what) {
    ++activations_;
    core_.observe(snap);
    const FullDecode want = full_decode(eager_, snap);
    std::size_t moved = 0;
    for (std::size_t i = 0; i < eager_.size(); ++i) {
      const Vec2 got = core_.position(i);
      EXPECT_TRUE(same_bits(got, want.positions[i]))
          << what << ": robot " << i << " at " << got << ", full path "
          << want.positions[i];
      moved += same_bits(got, last_[i]) ? 0 : 1;
      last_[i] = got;
      if ((i + activations_) % 5 == 0) continue;  // Asked next time.
      EXPECT_EQ(core_.signal(i), want.signals[i])
          << what << ": robot " << i << " signal";
    }
    return moved;
  }

  proto::SlicedCore& core() { return core_; }

 private:
  static std::vector<Vec2> centers_of(const Snapshot& t0) {
    std::vector<Vec2> out;
    for (const sim::ObservedRobot& r : t0.robots) out.push_back(r.position);
    return out;
  }

  proto::SlicedCore core_;
  std::vector<geom::Granular> eager_;
  std::vector<Vec2> last_;  ///< Positions at the previous activation.
  std::size_t activations_ = 0;
};

/// Robot i at pos[i], with id 100 + 3i for by_ids.
std::vector<sim::ObservedRobot> entries(const std::vector<Vec2>& pos,
                                        proto::NamingMode naming) {
  std::vector<sim::ObservedRobot> out;
  for (std::size_t k = 0; k < pos.size(); ++k) {
    out.push_back(sim::ObservedRobot{pos[k], std::nullopt});
    if (naming == proto::NamingMode::by_ids) {
      out.back().id = static_cast<sim::VisibleId>(100 + 3 * k);
    }
  }
  return out;
}

Snapshot snapshot_of(const std::vector<sim::ObservedRobot>& rows) {
  Snapshot s;
  for (const sim::ObservedRobot& r : rows) s.robots.push_back(r);
  return s;
}

/// A t0 view as a snapshot: listed lexicographically (anonymous) or by id.
Snapshot t0_view(const std::vector<Vec2>& centers, proto::NamingMode naming) {
  return snapshot_of(entries(centers, naming));
}

/// Robots at `pos` (robot i at pos[i]) listed as an observer would list
/// them: by id for by_ids, else lexicographically by position. With
/// `drop_last`, the last entry is left out.
Snapshot listed(const std::vector<Vec2>& pos, proto::NamingMode naming,
                bool drop_last = false) {
  std::vector<sim::ObservedRobot> rows = entries(pos, naming);
  if (naming != proto::NamingMode::by_ids) {
    std::stable_sort(rows.begin(), rows.end(),
                     [](const sim::ObservedRobot& a,
                        const sim::ObservedRobot& b) {
                       return a.position < b.position;
                     });
  }
  if (drop_last) rows.pop_back();
  return snapshot_of(rows);
}

constexpr proto::NamingMode kModes[] = {proto::NamingMode::by_ids,
                                        proto::NamingMode::lexicographic,
                                        proto::NamingMode::relative};

TEST(DecodeMemo, LazyGeometryEqualsEagerConstruction) {
  // Granulars built on first use, in any order, are the constructor's.
  for (const proto::NamingMode naming : kModes) {
    for (const std::size_t n : {2u, 3u, 5u, 63u, 64u, 257u}) {
      const std::vector<Vec2> centers = t0_centers(n, 700 + n);
      const std::size_t diameters = n + 1;
      const proto::SlicedCore core(t0_view(centers, naming), naming,
                                   diameters);
      const std::vector<geom::Granular> eager =
          eager_granulars(centers, naming, diameters);
      std::vector<std::size_t> order(n);
      std::iota(order.begin(), order.end(), std::size_t{0});
      std::shuffle(order.begin(), order.end(), std::mt19937_64(n));
      double min_radius = std::numeric_limits<double>::infinity();
      for (const std::size_t i : order) {
        EXPECT_TRUE(same_granular(core.granular(i), eager[i]))
            << "n=" << n << " robot " << i;
        min_radius = std::min(min_radius, eager[i].radius());
      }
      for (std::size_t i = 0; i < n; ++i) {  // Kept, not rebuilt.
        EXPECT_TRUE(same_granular(core.granular(i), eager[i]));
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(core.min_radius()),
                std::bit_cast<std::uint64_t>(min_radius))
          << "n=" << n;
    }
  }
}

TEST(DecodeMemo, FirstActivationAfterT0) {
  for (const proto::NamingMode naming : kModes) {
    for (const std::size_t n : {2u, 3u, 5u, 63u, 64u, 257u}) {
      const std::vector<Vec2> centers = t0_centers(n, 710 + n);
      MemoChecker quiet(t0_view(centers, naming), naming, n);
      EXPECT_EQ(quiet.check(listed(centers, naming), "quiet"), 0u);
      // A sender already out on a diameter at the first activation.
      MemoChecker busy(t0_view(centers, naming), naming, n);
      const proto::Signal s{(n / 2) % n, geom::DiameterSide::negative};
      std::vector<Vec2> pos = centers;
      pos[n - 1] = busy.core().granular(n - 1).point_on(
          s.diameter, s.side, 0.45 * busy.core().radius(n - 1));
      busy.check(listed(pos, naming), "busy");
    }
  }
}

TEST(DecodeMemo, SendersAndListingShiftsMatchTheFullPath) {
  // Synchronous chats: a few senders go out on a diameter and come back,
  // everyone else stays put. Under the anonymous namings a sender's move
  // can pass neighbours in the listing, shifting unmoved robots into
  // other slots.
  std::size_t shifted = 0;
  for (const proto::NamingMode naming : kModes) {
    for (const std::size_t n : {2u, 3u, 5u, 63u, 64u, 257u}) {
      const std::vector<Vec2> centers = t0_centers(n, 720 + n);
      MemoChecker checker(t0_view(centers, naming), naming, n);
      proto::SlicedCore& core = checker.core();
      sim::Rng rng(730 + n);
      std::vector<Vec2> pos = centers;
      for (int t = 0; t < 24; ++t) {
        if (t % 2 == 0) {
          for (int m = 0; m < 3; ++m) {
            const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
            const proto::Signal s{
                static_cast<std::size_t>(rng.uniform_int(0, n - 1)),
                rng.uniform(0.0, 1.0) < 0.5 ? geom::DiameterSide::positive
                                            : geom::DiameterSide::negative};
            pos[j] = core.granular(j).point_on(s.diameter, s.side,
                                               0.45 * core.radius(j));
          }
        } else {
          pos = centers;
        }
        const Snapshot snap = listed(pos, naming);
        for (std::size_t k = 0; k < n; ++k) {
          shifted += same_bits(snap.robots[k].position, pos[k]) ? 0 : 1;
        }
        checker.check(snap, "t=" + std::to_string(t));
      }
    }
  }
  EXPECT_GT(shifted, 0u) << "no sender ever passed a neighbour";
}

TEST(DecodeMemo, MoverPassingNeighboursInTheListing) {
  // One robot steps along x past exactly 1, 2 and 3 neighbours in the
  // lexicographic listing (staying inside its granular), then back.
  const std::size_t n = 257;
  const std::vector<Vec2> centers = t0_centers(n, 740);
  for (const std::size_t passes : {1u, 2u, 3u}) {
    bool found = false;
    for (std::size_t j = 0; j + passes < n && !found; ++j) {
      MemoChecker checker(t0_view(centers, proto::NamingMode::lexicographic),
                          proto::NamingMode::lexicographic, n);
      const double r = checker.core().radius(j);
      const Vec2 target{centers[j + passes].x + 1e-9, centers[j].y};
      if (!(target.x - centers[j].x < 0.8 * r) ||
          centers[j + passes + (j + passes + 1 < n ? 1 : 0)].x <= target.x) {
        continue;
      }
      std::vector<Vec2> pos = centers;
      pos[j] = target;
      const Snapshot snap = listed(pos, proto::NamingMode::lexicographic);
      if (!same_bits(snap.robots[j + passes].position, target)) continue;
      found = true;
      EXPECT_EQ(checker.check(snap, "out past " + std::to_string(passes)),
                1u);
      checker.check(listed(centers, proto::NamingMode::lexicographic),
                    "back");
    }
    EXPECT_TRUE(found) << "no robot can pass " << passes << " neighbours";
  }
}

TEST(DecodeMemo, TeleportedAndHiddenRobots) {
  // A robot pushed outside every granular (still nearest its own center)
  // and one missing from the snapshot, whose granular reads zero.
  for (const proto::NamingMode naming : kModes) {
    for (const std::size_t n : {3u, 5u, 63u, 64u, 257u}) {
      const std::vector<Vec2> centers = t0_centers(n, 750 + n);
      MemoChecker checker(t0_view(centers, naming), naming, n);
      const proto::SlicedCore& core = checker.core();
      std::vector<Vec2> pos = centers;
      const std::size_t j = n / 2;
      sim::Rng rng(760 + n);
      for (int attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 1000);
        const Vec2 p = centers[j] + unit(rng.uniform(0.0, 6.3)) *
                                        (rng.uniform(1.02, 1.3) *
                                         core.radius(j));
        if (brute_associate(centers, snapshot_of({p}))[j] == p) {
          pos[j] = p;
          break;
        }
      }
      checker.check(listed(pos, naming), "teleported");
      checker.check(listed(pos, naming), "teleported, again");
      const Snapshot hidden = listed(pos, naming, /*drop_last=*/true);
      checker.check(hidden, "one hidden");
      checker.check(hidden, "one hidden, again");
      checker.check(listed(centers, naming), "all back");
    }
  }
}

TEST(DecodeMemo, FlockingDriftMovesEveryRobot) {
  // The sliced driver subtracts the common drift before association: the
  // round trip moves every position by an ulp or so, so every entry is a
  // mover every instant, and one robot also signals.
  for (const std::size_t n : {5u, 64u}) {
    const std::vector<Vec2> centers = t0_centers(n, 770 + n);
    MemoChecker checker(t0_view(centers, proto::NamingMode::relative),
                        proto::NamingMode::relative, n);
    const Vec2 v{0.037, -0.011};
    std::size_t moved = 0;
    for (int t = 1; t <= 8; ++t) {
      std::vector<Vec2> pos = centers;
      if (t % 2 == 1) {
        pos[1] = checker.core().granular(1).point_on(
            2, geom::DiameterSide::positive, 0.45 * checker.core().radius(1));
      }
      const Vec2 drift = v * static_cast<double>(t);
      for (Vec2& p : pos) p = (p + drift) - drift;
      moved += checker.check(listed(pos, proto::NamingMode::relative),
                             "t=" + std::to_string(t));
    }
    EXPECT_GT(moved, 0u);
  }
}

TEST(DecodeMemo, QuantizedObservation) {
  // Positions snapped to a sensor grid, as the engine quantizes others.
  const double q = 0.01;
  const auto snap_to_grid = [q](Vec2 p) {
    return Vec2{std::round(p.x / q) * q, std::round(p.y / q) * q};
  };
  for (const proto::NamingMode naming : kModes) {
    for (const std::size_t n : {5u, 64u}) {
      std::vector<Vec2> centers = t0_centers(n, 780 + n);
      for (Vec2& c : centers) c = snap_to_grid(c);
      std::sort(centers.begin(), centers.end());
      MemoChecker checker(t0_view(centers, naming), naming, n);
      sim::Rng rng(790 + n);
      for (int t = 0; t < 10; ++t) {
        std::vector<Vec2> pos = centers;
        for (int m = 0; m < 4; ++m) {
          const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
          pos[j] = snap_to_grid(checker.core().granular(j).point_on(
              static_cast<std::size_t>(rng.uniform_int(0, n - 1)),
              geom::DiameterSide::negative,
              0.45 * checker.core().radius(j)));
        }
        checker.check(listed(pos, naming), "t=" + std::to_string(t));
      }
    }
  }
}

/// `cur` at instant `t` with the exact change hint relative to `prev`:
/// every slot whose entry differs, or that `prev` lacks.
Snapshot hinted(Snapshot cur, const Snapshot& prev, sim::Time t) {
  cur.t = t;
  cur.hint.known = true;
  cur.hint.since = prev.t;
  cur.hint.slots.clear();
  for (std::size_t k = 0; k < cur.size(); ++k) {
    if (k >= prev.size() ||
        !geom::same_bits(cur.robots[k].position, prev.robots[k].position)) {
      cur.hint.slots.push_back(static_cast<std::uint32_t>(k));
    }
  }
  return cur;
}

/// Feeds one snapshot sequence to two cores from the same t0: one as
/// given, one with every hint dropped (the full pass). After each observe
/// both must hold the same positions, signals and changed granulars.
class HintChecker {
 public:
  HintChecker(const Snapshot& t0, proto::NamingMode naming)
      : hinted_(t0, naming, t0.size()), full_(t0, naming, t0.size()) {}

  void check(const Snapshot& snap, const std::string& what) {
    Snapshot plain = snap;
    plain.hint = sim::ChangeHint{};
    hinted_.observe(snap);
    full_.observe(plain);
    const std::span<const std::uint32_t> a = hinted_.changed();
    const std::span<const std::uint32_t> b = full_.changed();
    EXPECT_TRUE(std::equal(a.begin(), a.end(), b.begin(), b.end()))
        << what << ": changed granulars differ (" << a.size() << " vs "
        << b.size() << ")";
    for (std::size_t i = 0; i < full_.robot_count(); ++i) {
      EXPECT_TRUE(geom::same_bits(hinted_.position(i), full_.position(i)))
          << what << ": robot " << i << " at " << hinted_.position(i)
          << ", full pass " << full_.position(i);
      EXPECT_EQ(hinted_.signal(i), full_.signal(i))
          << what << ": robot " << i << " signal";
    }
  }

  proto::SlicedCore& core() { return full_; }

 private:
  proto::SlicedCore hinted_;
  proto::SlicedCore full_;
};

TEST(DecodeMemo, HintedObserveEqualsTheFullPass) {
  // Synchronous chats, every snapshot hinted relative to the one before:
  // senders go out and back, passing neighbours in anonymous listings.
  std::size_t shifted = 0;
  for (const proto::NamingMode naming : kModes) {
    for (const std::size_t n : {5u, 63u, 64u, 257u}) {
      const std::vector<Vec2> centers = t0_centers(n, 820 + n);
      const Snapshot t0 = t0_view(centers, naming);
      HintChecker checker(t0, naming);
      proto::SlicedCore& core = checker.core();
      sim::Rng rng(830 + n);
      std::vector<Vec2> pos = centers;
      Snapshot prev = t0;
      for (sim::Time t = 1; t <= 24; ++t) {
        if (t % 2 == 1) {
          for (int m = 0; m < 3; ++m) {
            const auto j = static_cast<std::size_t>(rng.uniform_int(0, n - 1));
            pos[j] = core.granular(j).point_on(
                static_cast<std::size_t>(rng.uniform_int(0, n - 1)),
                rng.uniform(0.0, 1.0) < 0.5 ? geom::DiameterSide::positive
                                            : geom::DiameterSide::negative,
                0.45 * core.radius(j));
          }
        } else {
          pos = centers;
        }
        const Snapshot snap = hinted(listed(pos, naming), prev, t);
        for (std::size_t k = 0; k < n; ++k) {
          shifted += geom::same_bits(snap.robots[k].position, pos[k]) ? 0 : 1;
        }
        checker.check(snap, "n=" + std::to_string(n) + " t=" +
                                std::to_string(t));
        prev = snap;
      }
    }
  }
  EXPECT_GT(shifted, 0u) << "no sender ever passed a neighbour";
}

TEST(DecodeMemo, HintedMoverPassingNeighbours) {
  // One robot steps along x past exactly 1, 2 and 3 neighbours in the
  // lexicographic listing and back, each snapshot hinted: the hint names
  // the mover's slot and the slots it shifted.
  const std::size_t n = 257;
  const std::vector<Vec2> centers = t0_centers(n, 740);
  const Snapshot t0 = t0_view(centers, proto::NamingMode::lexicographic);
  for (const std::size_t passes : {1u, 2u, 3u}) {
    bool found = false;
    for (std::size_t j = 0; j + passes < n && !found; ++j) {
      HintChecker checker(t0, proto::NamingMode::lexicographic);
      const double r = checker.core().radius(j);
      const Vec2 target{centers[j + passes].x + 1e-9, centers[j].y};
      if (!(target.x - centers[j].x < 0.8 * r) ||
          centers[j + passes + (j + passes + 1 < n ? 1 : 0)].x <= target.x) {
        continue;
      }
      std::vector<Vec2> pos = centers;
      pos[j] = target;
      const Snapshot out = hinted(
          listed(pos, proto::NamingMode::lexicographic), t0, 1);
      if (!geom::same_bits(out.robots[j + passes].position, target)) continue;
      found = true;
      EXPECT_EQ(out.hint.slots.size(), passes + 1);
      checker.check(out, "out past " + std::to_string(passes));
      checker.check(
          hinted(listed(centers, proto::NamingMode::lexicographic), out, 2),
          "back");
    }
    EXPECT_TRUE(found) << "no robot can pass " << passes << " neighbours";
  }
}

TEST(DecodeMemo, HintsOnlyCountRelativeToTheSnapshotObserved) {
  // A hint is relative to the snapshot its `since` names. After a
  // hand-built snapshot (no hint) at that same instant, or for a hint
  // relative to another instant, the core must pass over every entry: the
  // hints below leave out a change the core has not seen.
  for (const std::size_t n : {5u, 64u}) {
    const std::vector<Vec2> centers = t0_centers(n, 850 + n);
    const Snapshot t0 = t0_view(centers, proto::NamingMode::relative);
    HintChecker checker(t0, proto::NamingMode::relative);
    proto::SlicedCore& core = checker.core();
    const std::size_t j = n / 2;
    std::vector<Vec2> moved = centers;
    moved[j] = core.granular(j).point_on(1, geom::DiameterSide::positive,
                                         0.45 * core.radius(j));
    const Snapshot s1 = hinted(listed(centers, proto::NamingMode::relative),
                               t0, 3);
    checker.check(s1, "engine snapshot");
    Snapshot hand = listed(moved, proto::NamingMode::relative);
    hand.t = s1.t;  // Same instant, no hint.
    checker.check(hand, "hand-built");
    // Relative to s1 nothing changed, so the hint is empty; the core last
    // saw `hand`, where robot j was out.
    checker.check(hinted(listed(centers, proto::NamingMode::relative), s1, 4),
                  "after the hand-built snapshot");

    checker.check(hinted(listed(moved, proto::NamingMode::relative), s1, 5),
                  "robot j out again");
    // Names instant 2, which the core never observed; relative to the
    // last snapshot (t 5) robot j moved back.
    Snapshot other = listed(centers, proto::NamingMode::relative);
    other.t = 6;
    other.hint.known = true;
    other.hint.since = 2;
    checker.check(other, "hint relative to another t");
  }
}

void expect_matches_brute(proto::SlicedCore& core,
                          const std::vector<Vec2>& centers,
                          const std::vector<Vec2>& observed,
                          const std::string& what) {
  const Snapshot snap = snapshot_of(observed);
  const std::vector<Vec2> want = brute_associate(centers, snap);
  core.observe(snap);
  for (std::size_t i = 0; i < want.size(); ++i) {
    const Vec2 got = core.position(i);
    ASSERT_TRUE(got.x == want[i].x && got.y == want[i].y)
        << what << ": granular " << i << " got " << got << " want "
        << want[i];
  }
}

TEST(AssociateDiff, MatchesBruteNearestCenter) {
  // Small and large swarms alike: whatever no proof places is scanned.
  for (const std::size_t n : {5u, 64u, 200u}) {
    const std::vector<Vec2> centers = t0_centers(n, 900 + n);
    proto::SlicedCore core(snapshot_of(centers),
                           proto::NamingMode::lexicographic, n);
    std::vector<double> radius(n);
    for (std::size_t k = 0; k < n; ++k) {
      radius[k] = geom::granular_radius(centers, k);
      ASSERT_DOUBLE_EQ(core.radius(k), radius[k]);
    }
    sim::Rng rng(n);
    const auto around = [&](double fraction) {
      std::vector<Vec2> pts;
      for (std::size_t k = 0; k < n; ++k) {
        pts.push_back(centers[k] +
                      unit(rng.uniform(0.0, 6.3)) * (fraction * radius[k]));
      }
      return pts;
    };
    expect_matches_brute(core, centers, centers, "at the centers");
    expect_matches_brute(core, centers, around(0.9 * (1 - 1e-9)),
                         "just inside the guard");
    expect_matches_brute(core, centers, around(0.9 * (1 + 1e-9)),
                         "just outside the guard");
    expect_matches_brute(core, centers, around(0.97),
                         "between the guard and the granular edge");

    // Outside every granular but still nearest to its own center (a
    // point nearer c_k than c_j cannot lie in granular j), so no two
    // entries share a granular.
    std::vector<Vec2> outside;
    for (std::size_t k = 0; k < n; ++k) {
      Vec2 p;
      for (int attempt = 0;; ++attempt) {
        ASSERT_LT(attempt, 1000);
        p = centers[k] + unit(rng.uniform(0.0, 6.3)) *
                             (rng.uniform(1.02, 1.3) * radius[k]);
        std::size_t nearest = 0;
        for (std::size_t j = 1; j < n; ++j) {
          if (geom::dist2(p, centers[j]) < geom::dist2(p, centers[nearest])) {
            nearest = j;
          }
        }
        if (nearest == k) break;
      }
      outside.push_back(p);
    }
    expect_matches_brute(core, centers, outside, "outside every granular");

    // Listed in a different order from t0 (a cyclic shift, so entry k is
    // never robot k): every own-slot candidate misses.
    std::vector<Vec2> shifted = around(0.5);
    std::rotate(shifted.begin(), shifted.begin() + 1, shifted.end());
    for (std::size_t k = 0; k < n; ++k) {
      ASSERT_GT(geom::dist(shifted[k], centers[k]), 0.9 * radius[k]);
    }
    expect_matches_brute(core, centers, shifted, "shifted listing");
  }
}

TEST(AssociateDiff, SwappedNeighboursMissTheirSlots) {
  // Mutual nearest-neighbour pairs 2 apart (r = 1), pairs 8 apart. Each
  // robot leans 0.99 toward its partner and the listing swaps the pair, so
  // entry k lies 1.01 r from center k but belongs to its partner: a guard
  // of r or more would take the wrong granular.
  for (const std::size_t pairs : {3u, 40u}) {
    std::vector<Vec2> centers;
    for (std::size_t m = 0; m < pairs; ++m) {
      centers.push_back(Vec2{10.0 * static_cast<double>(m), 0.0});
      centers.push_back(Vec2{10.0 * static_cast<double>(m) + 2.0, 0.0});
    }
    const std::size_t n = centers.size();
    proto::SlicedCore core(snapshot_of(centers),
                           proto::NamingMode::lexicographic, n);
    std::vector<Vec2> swapped(n);
    for (std::size_t k = 0; k < n; ++k) {
      const std::size_t partner = k ^ 1u;
      ASSERT_DOUBLE_EQ(core.radius(k), 1.0);
      swapped[k] = centers[partner] + (centers[k] - centers[partner]) * 0.495;
    }
    expect_matches_brute(core, centers, swapped, "swapped pairs");
  }
}

}  // namespace
}  // namespace stig
