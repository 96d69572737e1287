// Naming-scheme tests, centered on the property all decoding rests on:
// the constructions are invariant under each observer's frame (translation,
// rotation, positive uniform scale) as long as handedness is shared.
#include <gtest/gtest.h>

#include <vector>

#include "geom/angle.hpp"
#include "geom/sec.hpp"
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

}  // namespace
}  // namespace stig::proto
