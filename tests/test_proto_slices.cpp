// SlicedCore unit tests: granular construction from a snapshot, rank
// tables, association of observed configurations, signal classification.
#include <gtest/gtest.h>

#include "geom/angle.hpp"
#include "proto/slices.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

namespace stig::proto {
namespace {

using geom::Vec2;

/// Builds a t0-style snapshot directly (identity frame, anonymous).
sim::Snapshot snapshot_of(std::vector<Vec2> pts, std::size_t self,
                          bool with_ids = false) {
  sim::Snapshot s;
  s.t = 0;
  s.self = self;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    sim::ObservedRobot r;
    r.position = pts[i];
    if (with_ids) r.id = static_cast<sim::VisibleId>(10 * (i + 1));
    s.robots.push_back(r);
  }
  return s;
}

TEST(SlicedCore, GranularRadiiAreHalfNearestNeighbor) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{4, 0}, Vec2{0, 3}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::lexicographic, 3);
  EXPECT_NEAR(core.radius(0), 1.5, 1e-9);  // Nearest to (0,0) is (0,3).
  EXPECT_NEAR(core.radius(1), 2.0, 1e-9);  // Nearest to (4,0) is (0,0).
  EXPECT_NEAR(core.radius(2), 1.5, 1e-9);
  EXPECT_EQ(core.robot_count(), 3u);
  EXPECT_EQ(core.self_index(), 0u);
  EXPECT_EQ(core.diameter_count(), 3u);
}

TEST(SlicedCore, LexicographicRanksSharedByAll) {
  const std::vector<Vec2> pts{Vec2{5, 0}, Vec2{-1, 2}, Vec2{3, -4}};
  SlicedCore core(snapshot_of(pts, 1), NamingMode::lexicographic, 3);
  // Sorted lex: (-1,2) < (3,-4) < (5,0).
  for (std::size_t i = 0; i < 3; ++i) {
    EXPECT_EQ(core.rank(i, 1), 0u);
    EXPECT_EQ(core.rank(i, 2), 1u);
    EXPECT_EQ(core.rank(i, 0), 2u);
  }
  EXPECT_EQ(core.robot_with_rank(0, 0), 1u);
  EXPECT_EQ(core.robot_with_rank(0, 2), 0u);
}

TEST(SlicedCore, IdRanksRequireIds) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{4, 0}};
  EXPECT_THROW(SlicedCore(snapshot_of(pts, 0), NamingMode::by_ids, 2),
               std::invalid_argument);
  SlicedCore core(snapshot_of(pts, 0, /*with_ids=*/true),
                  NamingMode::by_ids, 2);
  EXPECT_EQ(core.rank(0, 0), 0u);  // id 10 < id 20.
  EXPECT_EQ(core.rank(0, 1), 1u);
}

TEST(SlicedCore, RelativeNamingDiffersPerRobot) {
  // An asymmetric configuration: relative rank tables are per-robot.
  const std::vector<Vec2> pts{Vec2{5, 0}, Vec2{-5, 0}, Vec2{0, 4},
                              Vec2{1, 1}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::relative, 5);
  // Each row is a permutation and all rows are computable by anyone.
  for (std::size_t i = 0; i < 4; ++i) {
    std::vector<bool> seen(4, false);
    for (std::size_t j = 0; j < 4; ++j) {
      const std::size_t r = core.rank(i, j);
      ASSERT_LT(r, 4u);
      EXPECT_FALSE(seen[r]);
      seen[r] = true;
      EXPECT_EQ(core.robot_with_rank(i, r), j);
    }
  }
}

TEST(SlicedCore, AssociateRecoverPositionsUnderDisplacement) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{6, 0}, Vec2{0, 8}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::lexicographic, 3);
  // Robots displaced within their granulars; snapshot arrives re-sorted
  // (anonymous ordering is by position).
  std::vector<Vec2> moved{Vec2{0.5, 0.3}, Vec2{5.2, -0.4}, Vec2{-0.7, 7.6}};
  std::vector<Vec2> listed = moved;
  std::sort(listed.begin(), listed.end());
  core.observe(snapshot_of(listed, 0));
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_TRUE(geom::nearly_equal(core.position(i), moved[i]));
  }
}

TEST(SlicedCore, ClassifyRoundTripsOwnSignals) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{6, 0}, Vec2{0, 8},
                              Vec2{-7, -2}};
  for (std::size_t self = 0; self < pts.size(); ++self) {
    SlicedCore core(snapshot_of(pts, self), NamingMode::relative, 5);
    for (std::size_t d = 0; d < 5; ++d) {
      for (const auto side :
           {geom::DiameterSide::positive, geom::DiameterSide::negative}) {
        const Signal s{d, side};
        const Vec2 p = core.signal_point(s, core.radius(self) * 0.4);
        const auto fix = core.classify(self, p);
        ASSERT_TRUE(fix.has_value());
        EXPECT_EQ(*fix, s) << "self=" << self << " d=" << d;
      }
    }
    // At (or indistinguishably near) the center: no signal.
    EXPECT_FALSE(core.classify(self, core.center(self)).has_value());
  }
}

TEST(SlicedCore, ClassifyUsesPerRobotReference) {
  // With relative naming each robot's diameter 0 points along its own
  // horizon line, so the same global displacement classifies differently
  // per sender.
  const std::vector<Vec2> pts{Vec2{5, 0}, Vec2{-5, 0}, Vec2{0, 4}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::relative, 4);
  // Robot 0's horizon is +x, robot 1's is -x.
  const auto fix0 = core.classify(0, pts[0] + Vec2{0.5, 0});
  const auto fix1 = core.classify(1, pts[1] + Vec2{0.5, 0});
  ASSERT_TRUE(fix0 && fix1);
  EXPECT_EQ(fix0->diameter, 0u);
  EXPECT_EQ(fix0->side, geom::DiameterSide::positive);
  EXPECT_EQ(fix1->diameter, 0u);
  EXPECT_EQ(fix1->side, geom::DiameterSide::negative);
}

TEST(SlicedCore, RejectsOffAxisNoise) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{6, 0}};
  SlicedCore core(snapshot_of(pts, 0), NamingMode::lexicographic, 2);
  // Halfway between two diameters (45 degrees off with 2 diameters means
  // exactly on the boundary of the slices) -> angular error near the
  // maximum, above the quarter-slice acceptance threshold.
  const Vec2 diag =
      (core.granular(0).direction(0, geom::DiameterSide::positive) +
       core.granular(0).direction(1, geom::DiameterSide::positive))
          .normalized();
  const auto fix = core.classify(0, core.center(0) + diag * 1.0);
  EXPECT_FALSE(fix.has_value());
}

}  // namespace
}  // namespace stig::proto
