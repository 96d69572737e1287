// Placement tests: sim::scatter and sim::jittered_grid reproduce, bit for
// bit and draw for draw, the loops every pinned layout was captured with;
// the widened box places any n; bad arguments throw.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <string>
#include <vector>

#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig::sim {
namespace {

using geom::Vec2;

/// The rejection loop every caller carried before sim::scatter: a fixed
/// box, no widening. Reference for the layouts baselines were captured on.
std::vector<Vec2> reference_scatter(Rng& rng, std::size_t n, double extent,
                                    double min_gap) {
  std::vector<Vec2> pts;
  while (pts.size() < n) {
    const Vec2 p{rng.uniform(-extent, extent), rng.uniform(-extent, extent)};
    bool ok = true;
    for (const Vec2& q : pts) {
      if (geom::dist(p, q) < min_gap) ok = false;
    }
    if (ok) pts.push_back(p);
  }
  return pts;
}

/// The jittered grid as perf_matrix and bench_e13 built it.
std::vector<Vec2> reference_grid(Rng& rng, std::size_t n) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<Vec2> pts;
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % side) * 3.0;
    const double y = static_cast<double>(i / side) * 3.0;
    pts.push_back(Vec2{x + rng.uniform(-0.5, 0.5), y + rng.uniform(-0.5, 0.5)});
  }
  return pts;
}

/// Same points bit for bit, and both generators left in the same state, so
/// a caller that keeps drawing after placing sees the same stream too.
void expect_identical(const std::vector<Vec2>& got,
                      const std::vector<Vec2>& want, Rng& got_rng,
                      Rng& want_rng, const std::string& what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (std::size_t i = 0; i < got.size(); ++i) {
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].x),
              std::bit_cast<std::uint64_t>(want[i].x))
        << what << " point " << i;
    ASSERT_EQ(std::bit_cast<std::uint64_t>(got[i].y),
              std::bit_cast<std::uint64_t>(want[i].y))
        << what << " point " << i;
  }
  EXPECT_EQ(got_rng.engine()(), want_rng.engine()()) << what;
}

struct Layout {
  std::size_t n;
  double extent;
  double min_gap;
};

void expect_scatter_matches(const Layout& l, std::uint64_t seed) {
  Rng got_rng(seed);
  Rng want_rng(seed);
  const auto got = scatter(got_rng, l.n, l.extent, l.min_gap);
  const auto want = reference_scatter(want_rng, l.n, l.extent, l.min_gap);
  expect_identical(got, want, got_rng, want_rng,
                   "n=" + std::to_string(l.n) +
                       " extent=" + std::to_string(l.extent) +
                       " gap=" + std::to_string(l.min_gap) +
                       " seed=" + std::to_string(seed));
}

TEST(Placement, ScatterMatchesFuzzLayouts) {
  // fuzz::scatter: Rng(seed ^ 0x5745), 30 / 3. stigfuzz draws n from
  // {2, 3, 5}; stigsim's smoke and telemetry runs use 4, 6, 9 and 16.
  for (const std::size_t n : {2u, 3u, 4u, 5u, 6u, 9u, 16u}) {
    for (const std::uint64_t seed : {1u, 2u, 3u, 17u}) {
      expect_scatter_matches({n, 30.0, 3.0}, seed ^ 0x5745);
    }
  }
}

TEST(Placement, ScatterMatchesServeLayouts) {
  // serve::scatter_positions: the box is max(30, 6 sqrt(n)), n up to the
  // default 32-robot session cap.
  for (std::size_t n = 2; n <= 32; ++n) {
    const double extent =
        std::max(30.0, 6.0 * std::sqrt(static_cast<double>(n)));
    for (const std::uint64_t seed : {1u, 5u, 11u}) {
      expect_scatter_matches({n, extent, 3.0}, seed ^ 0x53455256ULL);
    }
  }
}

TEST(Placement, ScatterMatchesPerfAndBenchLayouts) {
  const std::vector<Layout> layouts = {
      // stigperf cells below 257 robots.
      {8, 40.0, 3.0}, {32, 40.0, 3.0}, {64, 40.0, 3.0},
      // bench::scatter rows.
      {2, 10.0, 4.0}, {4, 30.0, 4.0}, {5, 15.0, 4.0}, {5, 20.0, 4.0},
      {6, 30.0, 4.0}, {8, 30.0, 4.0}, {9, 20.0, 3.0}, {12, 25.0, 4.0},
      {16, 50.0, 3.0}, {24, 60.0, 3.0}, {32, 50.0, 3.0}, {32, 60.0, 3.0},
      {64, 80.0, 3.0}, {64, 120.0, 3.0}, {4096, 1000.0, 0.5}};
  for (const Layout& l : layouts) {
    for (const std::uint64_t seed : {7u, 77u, 1234u}) {
      expect_scatter_matches(l, seed);
    }
  }
}

TEST(Placement, GridMatchesReference) {
  for (const std::size_t n : {1u, 2u, 1024u, 4096u}) {
    for (const std::uint64_t seed : {1u, 9u, 1300u}) {
      Rng got_rng(seed);
      Rng want_rng(seed);
      const auto got = jittered_grid(got_rng, n);
      const auto want = reference_grid(want_rng, n);
      expect_identical(got, want, got_rng, want_rng,
                       "grid n=" + std::to_string(n) +
                           " seed=" + std::to_string(seed));
    }
  }
}

TEST(Placement, EmptySwarmsDrawNothing) {
  Rng rng(3);
  Rng untouched(3);
  EXPECT_TRUE(scatter(rng, 0, 30.0, 3.0).empty());
  EXPECT_TRUE(jittered_grid(rng, 0).empty());
  EXPECT_EQ(rng.engine()(), untouched.engine()());
}

TEST(Placement, DenseSwarmWidensTheBox) {
  // 4096 robots 3 apart cannot fit a 60x60 box; the fixed-box loop never
  // returns here. The widened box is 3 * sqrt(4096) = 192 a side.
  Rng rng(5);
  const std::size_t n = 4096;
  const auto pts = scatter(rng, n, 30.0, 3.0);
  ASSERT_EQ(pts.size(), n);
  const double e = 3.0 * std::sqrt(static_cast<double>(n));
  for (const Vec2& p : pts) {
    EXPECT_LE(std::abs(p.x), e);
    EXPECT_LE(std::abs(p.y), e);
  }
  double closest = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = i + 1; j < n; ++j) {
      closest = std::min(closest, geom::dist(pts[i], pts[j]));
    }
  }
  EXPECT_GE(closest, 3.0);
}

TEST(Placement, RejectsBadArguments) {
  Rng rng(1);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const double inf = std::numeric_limits<double>::infinity();
  EXPECT_THROW((void)scatter(rng, 4, nan, 3.0), std::invalid_argument);
  EXPECT_THROW((void)scatter(rng, 4, inf, 3.0), std::invalid_argument);
  EXPECT_THROW((void)scatter(rng, 4, -inf, 3.0), std::invalid_argument);
  EXPECT_THROW((void)scatter(rng, 4, 30.0, -1.0), std::invalid_argument);
  EXPECT_THROW((void)scatter(rng, 4, 30.0, nan), std::invalid_argument);
  EXPECT_THROW((void)scatter(rng, 4, 30.0, inf), std::invalid_argument);
}

}  // namespace
}  // namespace stig::sim
