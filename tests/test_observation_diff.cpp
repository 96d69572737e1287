// Differential tests for the two linear-time observation paths.
//
// Engine: each anonymous observer's snapshot is listed by repairing the
// order it listed last (insertion sort, std::sort fallback on exact ties).
// Every snapshot a robot receives must equal a from-scratch reference —
// entries in index order, std::sort-ed by local position (by id when
// identified) — field for field, `self` included.
//
// SlicedCore: `associate_into` first tries entry k against granular k.
// Its result must equal a brute nearest-center scan (lowest index on ties,
// later entries overwriting earlier ones).
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>
#include <numeric>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "geom/voronoi.hpp"
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

/// Checks every snapshot it receives against the reference, and counts the
/// activations whose listing differs from its previous one; then walks
/// `velocity` (global units per instant) for `leg` instants, then back.
class Probe final : public sim::Robot {
 public:
  Probe(RobotIndex self, Vec2 velocity, sim::Time leg)
      : self_(self), velocity_(velocity), leg_(leg) {}

  void initialize(const Snapshot& snap) override { t0 = snap; }

  Vec2 on_activate(const Snapshot& snap) override {
    ++checked;
    std::vector<RobotIndex> order;
    const std::string d =
        diff(snap, reference_snapshot(*engine, *options, self_, &order));
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
  std::size_t checked = 0;
  std::size_t reorders = 0;
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
  EngineOptions options;
};

struct Tally {
  std::size_t checked = 0;   ///< Snapshots compared with the reference.
  std::size_t reorders = 0;  ///< Activations whose listing changed.
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
    if (s.on_grid && specs.size() % 2 == 0) {
      const double q = s.options.observation_quantum;
      spec.position = Vec2{std::round(spec.position.x / q) * q,
                           std::round(spec.position.y / q) * q};
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
    auto p = std::make_unique<Probe>(i, v, s.leg);
    probes.push_back(p.get());
    programs.push_back(std::move(p));
  }
  Engine e(specs, std::move(programs), std::move(scheduler), s.options);
  for (RobotIndex i = 0; i < s.n; ++i) {
    probes[i]->engine = &e;
    probes[i]->options = &s.options;
    const std::string d =
        diff(probes[i]->t0, reference_snapshot(e, s.options, i));
    EXPECT_TRUE(d.empty()) << "t0 snapshot of robot " << i << ": " << d;
  }
  e.run(instants);
  Tally tally;
  for (const Probe* p : probes) {
    EXPECT_TRUE(p->first_mismatch.empty()) << p->first_mismatch;
    tally.checked += p->checked;
    tally.reorders += p->reorders;
  }
  if (s.options.observation_delay == 0) {
    // Between steps make_snapshot sees the current instant; it repairs a
    // copy of the stored order and must agree with the reference too.
    for (RobotIndex i = 0; i < s.n; ++i) {
      const std::string d =
          diff(e.make_snapshot(i), reference_snapshot(e, s.options, i));
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

TEST(ObservationDiff, IdentifiedSwarmsListInIdOrder) {
  for (const std::size_t n : {2u, 64u}) {
    Swarm s;
    s.n = n;
    s.seed = 53 + n;
    s.identified = true;
    s.options.visibility_radius = 9.0;
    EXPECT_GT(run_swarm(s, 20, bernoulli(11)).checked, 0u);
  }
}

// ---- SlicedCore association.

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

void expect_matches_brute(const proto::SlicedCore& core,
                          const std::vector<Vec2>& centers,
                          const std::vector<Vec2>& observed,
                          const std::string& what) {
  const Snapshot snap = snapshot_of(observed);
  const std::vector<Vec2> want = brute_associate(centers, snap);
  std::vector<Vec2> got;
  core.associate_into(snap, got);
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_TRUE(got[i].x == want[i].x && got[i].y == want[i].y)
        << what << ": granular " << i << " got " << got[i] << " want "
        << want[i];
  }
}

TEST(AssociateDiff, MatchesBruteNearestCenter) {
  // n = 5 takes the scan fallback, n >= 64 the center grid.
  for (const std::size_t n : {5u, 64u, 200u}) {
    const std::vector<Vec2> centers = t0_centers(n, 900 + n);
    const proto::SlicedCore core(snapshot_of(centers),
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
    const proto::SlicedCore core(snapshot_of(centers),
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
