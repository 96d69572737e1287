// Naming-scheme tests, centered on the property all decoding rests on:
// the constructions are invariant under each observer's frame (translation,
// rotation, positive uniform scale) as long as handedness is shared.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "geom/angle.hpp"
#include "geom/sec.hpp"
#include "obs/alloc_track.hpp"
#include "proto/naming.hpp"
#include "sim/frame.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig::proto {
namespace {

using geom::Vec2;

std::vector<Vec2> random_points(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, 20.0, 0.5);
}

std::vector<Vec2> transform_all(const std::vector<Vec2>& pts,
                                const sim::Frame& f) {
  std::vector<Vec2> out;
  out.reserve(pts.size());
  for (const Vec2& p : pts) out.push_back(f.to_local(p));
  return out;
}

TEST(LexRanks, OrdersLexicographically) {
  const std::vector<Vec2> pts{Vec2{2, 0}, Vec2{0, 5}, Vec2{0, -1},
                              Vec2{2, -3}};
  const auto ranks = lex_ranks(pts);
  // Sorted: (0,-1), (0,5), (2,-3), (2,0).
  EXPECT_EQ(ranks[2], 0u);
  EXPECT_EQ(ranks[1], 1u);
  EXPECT_EQ(ranks[3], 2u);
  EXPECT_EQ(ranks[0], 3u);
}

TEST(LexRanks, InvariantUnderTranslationAndScale) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pts = random_points(9, seed);
    const auto base = lex_ranks(pts);
    sim::Rng rng(seed + 100);
    // Translation and positive scaling only (sense of direction fixes the
    // axes; units and origins still differ).
    const sim::Frame f(Vec2{rng.uniform(-5, 5), rng.uniform(-5, 5)}, 0.0,
                       rng.uniform(0.2, 5.0), false);
    EXPECT_EQ(lex_ranks(transform_all(pts, f)), base) << seed;
  }
}

TEST(IdRanks, OrdersById) {
  const std::vector<sim::VisibleId> ids{42, 7, 100, 9};
  const auto ranks = id_ranks(ids);
  EXPECT_EQ(ranks[1], 0u);
  EXPECT_EQ(ranks[3], 1u);
  EXPECT_EQ(ranks[0], 2u);
  EXPECT_EQ(ranks[2], 3u);
}

TEST(HorizonDirection, PointsOutwardFromSecCenter) {
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pts = random_points(8, seed * 3);
    const geom::Circle sec = geom::smallest_enclosing_circle(pts);
    for (std::size_t i = 0; i < pts.size(); ++i) {
      if (geom::dist(pts[i], sec.center) < 1e-6) continue;
      const Vec2 h = horizon_direction(pts, i);
      EXPECT_NEAR(h.norm(), 1.0, 1e-9);
      EXPECT_GT(geom::dot(h, pts[i] - sec.center), 0.0);
    }
  }
}

TEST(HorizonDirection, DegenerateCenterIsDeterministicAndInvariant) {
  // Robot 0 exactly at the SEC center of the others.
  std::vector<Vec2> pts{Vec2{0, 0}, Vec2{3, 0}, Vec2{-3, 0}, Vec2{0, 3},
                        Vec2{1, 1}};
  const Vec2 h = horizon_direction(pts, 0);
  EXPECT_NEAR(h.norm(), 1.0, 1e-9);
  // Same rule under a rotated/scaled frame gives the transformed direction.
  const sim::Frame f(Vec2{2, -1}, 1.234, 3.0, false);
  const Vec2 h2 = horizon_direction(transform_all(pts, f), 0);
  const Vec2 expected =
      (f.to_local(pts[0] + h) - f.to_local(pts[0])).normalized();
  EXPECT_NEAR(geom::dist(h2, expected), 0.0, 1e-7);
}

TEST(RelativeNaming, PaperOrdering) {
  // A hand-built configuration: self on the East of the SEC, one robot on
  // the same radius nearer the center, others spread clockwise.
  // SEC of the set below is centered at the origin with radius 5.
  const std::vector<Vec2> pts{
      Vec2{5, 0},    // 0: self, on its own radius (angle 0).
      Vec2{2, 0},    // 1: same radius as self, closer to O -> rank before.
      Vec2{0, -5},   // 2: 90deg clockwise from East (pointing South).
      Vec2{-5, 0},   // 3: 180deg.
      Vec2{0, 5},    // 4: 270deg clockwise.
  };
  const RelativeNaming naming = relative_naming(pts, 0);
  EXPECT_TRUE(geom::nearly_equal(naming.sec_center, Vec2{0, 0}, 1e-7));
  // H_0 points East; robots on it ordered from O: 1 then 0.
  EXPECT_EQ(naming.ranks[1], 0u);
  EXPECT_EQ(naming.ranks[0], 1u);
  EXPECT_EQ(naming.ranks[2], 2u);  // First clockwise radius.
  EXPECT_EQ(naming.ranks[3], 3u);
  EXPECT_EQ(naming.ranks[4], 4u);
}

TEST(RelativeNaming, RanksAreAPermutation) {
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const auto pts = random_points(11, seed * 7);
    for (std::size_t self = 0; self < pts.size(); ++self) {
      const auto naming = relative_naming(pts, self);
      std::vector<bool> seen(pts.size(), false);
      for (const std::size_t r : naming.ranks) {
        ASSERT_LT(r, pts.size());
        EXPECT_FALSE(seen[r]);
        seen[r] = true;
      }
    }
  }
}

// The core invariance property: every observer, whatever its frame
// (rotation, scale, translation — same handedness), reconstructs the same
// relative naming of every robot. This is what makes Section 3.4 decodable.
class RelativeNamingInvariance
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RelativeNamingInvariance, SameRanksInAnySameHandedFrame) {
  const std::size_t n = GetParam();
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const auto pts = random_points(n, seed * 13 + n);
    sim::Rng rng(seed);
    for (int frame_trial = 0; frame_trial < 4; ++frame_trial) {
      const sim::Frame f(Vec2{rng.uniform(-30, 30), rng.uniform(-30, 30)},
                         rng.uniform(0.0, geom::kTwoPi),
                         rng.uniform(0.2, 5.0), false);
      const auto local = transform_all(pts, f);
      for (std::size_t self = 0; self < n; ++self) {
        EXPECT_EQ(relative_naming(local, self).ranks,
                  relative_naming(pts, self).ranks)
            << "n=" << n << " seed=" << seed << " self=" << self;
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, RelativeNamingInvariance,
                         ::testing::Values(2, 3, 4, 6, 10, 25));

TEST(RelativeNaming, MirroredFramesAgreeWithEachOther) {
  // Chirality: two LEFT-handed observers agree (even though they disagree
  // with right-handed ones).
  const auto pts = random_points(7, 5);
  const sim::Frame f1(Vec2{1, 2}, 0.7, 2.0, true);
  const sim::Frame f2(Vec2{-3, 0}, 2.9, 0.5, true);
  for (std::size_t self = 0; self < pts.size(); ++self) {
    EXPECT_EQ(relative_naming(transform_all(pts, f1), self).ranks,
              relative_naming(transform_all(pts, f2), self).ranks);
  }
}

TEST(RelativeNaming, SymmetricConfigurationStillRelativelyConsistent) {
  // The paper's Figure 3 point: a rotationally symmetric configuration has
  // no common global naming — but the *relative* naming per robot is still
  // well-defined and computable by everyone.
  std::vector<Vec2> pts;
  for (int i = 0; i < 6; ++i) {
    const double a = geom::kTwoPi * i / 6.0;
    pts.push_back(Vec2{4 * std::cos(a), 4 * std::sin(a)});
  }
  // Under the symmetry, every robot sees the same *pattern* of ranks
  // relative to itself: its own rank equal, and the full rank multiset
  // identical.
  const auto base = relative_naming(pts, 0);
  for (std::size_t self = 1; self < 6; ++self) {
    const auto naming = relative_naming(pts, self);
    EXPECT_EQ(naming.ranks[self], base.ranks[0]);
  }
  // And frame invariance holds here too.
  const sim::Frame f(Vec2{0.5, 0.5}, 1.1, 3.0, false);
  const auto local = transform_all(pts, f);
  for (std::size_t self = 0; self < 6; ++self) {
    EXPECT_EQ(relative_naming(local, self).ranks,
              relative_naming(pts, self).ranks);
  }
}

// ---- NamingTables(relative) pins: an FNV-1a digest of every rank and
// inverse cell for five fixed swarms. The digests were taken from the
// per-row build (one relative_naming per robot); the one-sweep build must
// reproduce every cell.

/// FNV-1a, 64-bit, over every rank then every inverse cell, each as four
/// little-endian bytes.
std::uint64_t table_digest(const NamingTables& t) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  const auto mix = [&h](std::uint32_t v) {
    for (int b = 0; b < 4; ++b) {
      h ^= (v >> (8 * b)) & 0xffu;
      h *= 0x100000001b3ull;
    }
  };
  const std::size_t n = t.robot_count();
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) mix(t.rank(a, b));
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t r = 0; r < n; ++r) mix(t.robot_with_rank(a, r));
  }
  return h;
}

std::uint64_t relative_digest(const std::vector<Vec2>& pts) {
  return table_digest(NamingTables(pts, {}, NamingMode::relative));
}

TEST(NamingTablesPin, JitteredGridN128) {
  sim::Rng rng(23);
  EXPECT_EQ(relative_digest(sim::jittered_grid(rng, 128)),
            0xeff8ceafd77d4a25ull);
}

TEST(NamingTablesPin, ExactGridN64) {
  std::vector<Vec2> pts;
  for (int k = 0; k < 64; ++k) {
    pts.push_back(Vec2{3.0 * (k % 8), 3.0 * (k / 8)});
  }
  EXPECT_EQ(relative_digest(pts), 0xb0d8833c8006d925ull);
}

TEST(NamingTablesPin, Figure3HexagonWithItsCenterRobot) {
  std::vector<Vec2> pts;
  for (int k = 0; k < 6; ++k) {
    const double a = geom::kTwoPi * k / 6.0;
    pts.push_back(Vec2{8 * std::cos(a), 8 * std::sin(a)});
  }
  pts.push_back(Vec2{0, 0});
  EXPECT_EQ(relative_digest(pts), 0x900c2202f2b99455ull);
}

TEST(NamingTablesPin, FiveCollinearRobots) {
  const std::vector<Vec2> pts{Vec2{0, 0}, Vec2{1, 0.5}, Vec2{2, 1},
                              Vec2{3.5, 1.75}, Vec2{5, 2.5}};
  EXPECT_EQ(relative_digest(pts), 0xe4e847f106f29005ull);
}

TEST(NamingTablesPin, TwoRobots) {
  EXPECT_EQ(relative_digest({Vec2{0, 0}, Vec2{3, 1}}), 0x061ff87a8de3f485ull);
}

// ---- The one-sweep build against the per-row oracle: every cell of
// NamingTables(relative) equals relative_naming's, robot by robot.

/// Checks every rank and inverse cell of the relative tables of `pts`
/// against relative_naming, and returns what the build did.
NamingTables::SweepStats expect_sweep_matches_rows(const std::vector<Vec2>& pts,
                                                   const std::string& what) {
  NamingTables::SweepStats stats;
  const NamingTables tables(pts, {}, NamingMode::relative, &stats);
  const geom::Circle sec = geom::smallest_enclosing_circle(pts);
  const std::size_t n = pts.size();
  EXPECT_EQ(tables.entries(), n * n) << what;
  for (std::size_t i = 0; i < n; ++i) {
    const RelativeNaming row = relative_naming(pts, i, sec);
    for (std::size_t j = 0; j < n; ++j) {
      if (tables.rank(i, j) != row.ranks[j] ||
          tables.robot_with_rank(i, row.ranks[j]) != j) {
        ADD_FAILURE() << what << ": row " << i << " robot " << j << " rank "
                      << tables.rank(i, j) << ", relative_naming "
                      << row.ranks[j];
        return stats;
      }
    }
  }
  return stats;
}

/// `pts` seen through a random frame: rotation, unit, origin and, when
/// `mirrored`, the other handedness.
std::vector<Vec2> random_view(const std::vector<Vec2>& pts, sim::Rng& rng,
                              bool mirrored) {
  const sim::Frame f(Vec2{rng.uniform(-50, 50), rng.uniform(-50, 50)},
                     rng.uniform(0.0, geom::kTwoPi), rng.uniform(0.01, 100.0),
                     mirrored);
  return transform_all(pts, f);
}

/// `count` robots on a regular polygon of radius `radius`, turned by
/// `phase`.
std::vector<Vec2> polygon(std::size_t count, double radius, double phase) {
  std::vector<Vec2> pts;
  for (std::size_t k = 0; k < count; ++k) {
    const double a = phase + geom::kTwoPi * static_cast<double>(k) /
                                 static_cast<double>(count);
    pts.push_back(Vec2{radius * std::cos(a), radius * std::sin(a)});
  }
  return pts;
}

TEST(NamingTablesSweep, MatchesRelativeNamingOnAThousandSwarms) {
  sim::Rng rng(2009);
  std::size_t swarms = 0;
  std::size_t center_rows = 0;
  const auto check = [&](const std::vector<Vec2>& base,
                         const std::string& what) {
    for (const bool mirrored : {false, true}) {
      const NamingTables::SweepStats st = expect_sweep_matches_rows(
          random_view(base, rng, mirrored),
          what + (mirrored ? " mirrored" : ""));
      center_rows += st.center_rows;
      ++swarms;
    }
  };
  for (std::size_t trial = 0; trial < 160; ++trial) {
    // Mostly small swarms, every size from 2 up, a few up to 300.
    const std::size_t n = trial < 100 ? 2 + trial % 40
                                      : static_cast<std::size_t>(
                                            rng.uniform_int(41, 300));
    const std::string tag = " n=" + std::to_string(n) + " trial=" +
                            std::to_string(trial);
    check(sim::scatter(rng, n, 20.0, 0.5), "random" + tag);
    check(sim::jittered_grid(rng, n), "jittered grid" + tag);
  }
  for (std::size_t cols = 1; cols <= 17; ++cols) {
    for (const std::size_t rows : {std::size_t{1}, std::size_t{2}, cols,
                                   cols + 3}) {
      if (cols * rows < 2) continue;
      std::vector<Vec2> grid;
      for (std::size_t k = 0; k < cols * rows; ++k) {
        grid.push_back(Vec2{3.0 * static_cast<double>(k % cols),
                            3.0 * static_cast<double>(k / cols)});
      }
      check(grid, "exact grid " + std::to_string(cols) + "x" +
                      std::to_string(rows));
    }
  }
  for (std::size_t count = 2; count <= 40; ++count) {
    for (const bool center : {false, true}) {
      std::vector<Vec2> pts = polygon(count, 8.0, 0.0);
      if (center) pts.push_back(Vec2{0, 0});
      const std::string tag = " " + std::to_string(count) +
                              (center ? " with center" : "");
      check(pts, "polygon" + tag);
      // Two aligned rings: every radius holds two robots, tied in angle.
      std::vector<Vec2> rings = polygon(count, 4.0, 0.3);
      for (const Vec2& p : polygon(count, 8.0, 0.3)) rings.push_back(p);
      if (center) rings.push_back(Vec2{0, 0});
      check(rings, "aligned rings" + tag);
    }
  }
  for (std::size_t n = 2; n <= 40; ++n) {
    // Collinear: two opposite rays from O, uneven spacing.
    std::vector<Vec2> line;
    double at = 0.0;
    for (std::size_t k = 0; k < n; ++k) {
      line.push_back(Vec2{at, 0.5 * at});
      at += rng.uniform(0.5, 3.0);
    }
    check(line, "collinear n=" + std::to_string(n));
  }
  EXPECT_GE(swarms, 1000u);
  EXPECT_GT(center_rows, 0u);
}

TEST(NamingTablesSweep, KeysAtARoundingBoundaryTakeClockwiseAngle) {
  // (-10, 0) and (10, 0) span the SEC, centered exactly at the origin.
  // Each pair (P, Q) puts Q (k + 1/2) quanta clockwise of P's radius, so
  // the angle of Q in P's labeling lies within about 1e-15 rad of a
  // rounding boundary (and P's in Q's labeling does, once mirrored).
  sim::Rng rng(100000);
  for (std::size_t trial = 0; trial < 40; ++trial) {
    std::vector<Vec2> pts{Vec2{-10, 0}, Vec2{10, 0}};
    const std::size_t pairs = 1 + trial % 6;
    for (std::size_t p = 0; p < pairs; ++p) {
      const double alpha = rng.uniform(0.0, geom::kTwoPi);
      const double k = static_cast<double>(rng.uniform_int(0, 30));
      const double beta = alpha - (k + 0.5) * 1e-7;
      const double r1 = rng.uniform(1.0, 9.0);
      const double r2 = rng.uniform(1.0, 9.0);
      pts.push_back(Vec2{r1 * std::cos(alpha), r1 * std::sin(alpha)});
      pts.push_back(Vec2{r2 * std::cos(beta), r2 * std::sin(beta)});
    }
    for (const Vec2& p : random_points(trial % 5, trial + 77)) {
      pts.push_back(p * 0.25);
    }
    const std::string tag = "trial " + std::to_string(trial);
    EXPECT_GE(expect_sweep_matches_rows(pts, tag).libm_keys, pairs) << tag;
    for (const bool mirrored : {false, true}) {
      const auto st = expect_sweep_matches_rows(
          random_view(pts, rng, mirrored), tag + " view");
      EXPECT_GE(st.libm_keys, pairs) << tag << " mirrored=" << mirrored;
    }
  }
}

TEST(NamingTablesSweep, CrowdedRadiusFallsBackToASort) {
  // Sixty robots on one radius (and one opposite, to fix O), listed from
  // the rim inward: the sweep meets the tie group in index order, the
  // reverse of its (radial, index) order, far past the insertion budget.
  std::vector<Vec2> pts{Vec2{-10, 0}, Vec2{10, 0}};
  for (int k = 0; k < 60; ++k) pts.push_back(Vec2{9.9 - 0.15 * k, 0.0});
  const auto st = expect_sweep_matches_rows(pts, "crowded radius");
  EXPECT_GT(st.sorted_rows, 0u);
}

TEST(NamingTablesSweep, AllocatesFourVectorsBesideTheSec) {
  // The sweep's own scratch is two vectors beside the two tables (the SEC
  // allocates on its own); the per-row build took two per robot.
  if (!obs::alloc::active()) GTEST_SKIP() << "allocation tracking off";
  for (const std::size_t n : {2u, 3u, 5u, 8u, 64u}) {
    const auto pts = random_points(n, 31 + n);
    const obs::alloc::Counters a0 = obs::alloc::snapshot();
    const geom::Circle sec = geom::smallest_enclosing_circle(pts);
    const obs::alloc::Counters a1 = obs::alloc::snapshot();
    const NamingTables tables(pts, {}, NamingMode::relative);
    const obs::alloc::Counters a2 = obs::alloc::snapshot();
    EXPECT_LE(a2.allocs - a1.allocs, 4 + (a1.allocs - a0.allocs))
        << "n=" << n << " sec radius " << sec.radius;
  }
}

}  // namespace
}  // namespace stig::proto
