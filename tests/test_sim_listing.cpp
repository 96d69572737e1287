// The listing pass (sim/listing.hpp) against the legacy std::sort.
//
// `sort_listing` must list every view exactly as `legacy_listing` does:
// by its bucket and insertion passes where positions are distinct and
// finite, and by the legacy sort itself on small views, exact ties,
// non-finite coordinates and views too skewed for its budget — each path
// asserted here. The engine's t0 listings, which go through it, must
// equal the from-scratch reference (listing_reference.hpp), which keeps
// std::sort.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <map>
#include <memory>
#include <numeric>
#include <span>
#include <string>
#include <vector>

#include "geom/angle.hpp"
#include "sim/engine.hpp"
#include "sim/frame.hpp"
#include "sim/listing.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

#include "listing_reference.hpp"

namespace stig::sim {
namespace {

using geom::Vec2;

/// Lists `positions` both ways from index order; expects one order and
/// returns the path `sort_listing` took.
ListingPath expect_same_listing(const std::vector<Vec2>& positions,
                                const std::string& what) {
  const auto position_of = [&](std::uint32_t j) -> const Vec2& {
    return positions[j];
  };
  std::vector<std::uint32_t> fast(positions.size());
  std::iota(fast.begin(), fast.end(), std::uint32_t{0});
  std::vector<std::uint32_t> legacy = fast;
  std::vector<std::uint32_t> scratch;
  const ListingPath path =
      sort_listing(std::span<std::uint32_t>(fast), position_of, scratch);
  legacy_listing(std::span<std::uint32_t>(legacy), position_of);
  EXPECT_EQ(fast, legacy) << what;
  return path;
}

/// `pts` seen through a random frame.
std::vector<Vec2> random_view(const std::vector<Vec2>& pts, Rng& rng) {
  const Frame f(pts[rng.uniform_int(0, pts.size() - 1)],
                rng.uniform(0.0, geom::kTwoPi), rng.uniform(0.1, 10.0),
                rng.uniform_int(0, 1) == 1);
  std::vector<Vec2> out;
  out.reserve(pts.size());
  for (const Vec2& p : pts) out.push_back(f.to_local(p));
  return out;
}

TEST(SortListing, MatchesStdSortOnRandomViews) {
  Rng rng(4201);
  std::map<ListingPath, int> paths;
  for (int trial = 0; trial < 300; ++trial) {
    const std::size_t n =
        trial < 100 ? 2 + static_cast<std::size_t>(trial)
                    : static_cast<std::size_t>(rng.uniform_int(17, 700));
    const std::vector<Vec2> base = trial % 2 == 0
                                       ? jittered_grid(rng, n)
                                       : scatter(rng, n, 30.0, 0.2);
    const std::string what = "trial " + std::to_string(trial);
    ++paths[expect_same_listing(random_view(base, rng), what)];
    // Sense of direction: unrotated views list grid columns.
    ++paths[expect_same_listing(base, what + " unrotated")];
  }
  EXPECT_GT(paths[ListingPath::bucket], 300);
  EXPECT_GT(paths[ListingPath::small], 0);
  EXPECT_EQ(paths[ListingPath::tie], 0);
  EXPECT_EQ(paths[ListingPath::budget], 0);
}

TEST(SortListing, QuantizedViewsWithTiesTakeTheLegacySort) {
  // A coarse sensor snaps several robots to one grid point; which of two
  // equal entries comes first is the legacy sort's call.
  Rng rng(4202);
  for (int trial = 0; trial < 60; ++trial) {
    const std::size_t n = static_cast<std::size_t>(rng.uniform_int(20, 400));
    const double q = rng.uniform(4.0, 8.0);  // The grid's spacing is 3.
    std::vector<Vec2> snapped;
    for (const Vec2& p : jittered_grid(rng, n)) {
      snapped.push_back(
          Vec2{std::round(p.x / q) * q, std::round(p.y / q) * q});
    }
    const std::vector<Vec2> view = random_view(snapped, rng);
    EXPECT_EQ(expect_same_listing(view, "trial " + std::to_string(trial)),
              ListingPath::tie)
        << "trial " << trial;
  }
}

TEST(SortListing, NonFiniteCoordinatesTakeTheLegacySort) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Rng rng(4203);
  for (int trial = 0; trial < 30; ++trial) {
    std::vector<Vec2> view =
        random_view(jittered_grid(rng, 20 + static_cast<std::size_t>(trial)),
                    rng);
    const std::size_t k = rng.uniform_int(0, view.size() - 1);
    switch (trial % 3) {
      case 0: view[k].x = kInf; break;
      case 1: view[k].y = -kInf; break;
      // NaN only in y, where distinct x keep the legacy comparison a
      // strict weak order.
      case 2: view[k].y = std::numeric_limits<double>::quiet_NaN(); break;
    }
    EXPECT_EQ(expect_same_listing(view, "trial " + std::to_string(trial)),
              ListingPath::non_finite)
        << "trial " << trial;
  }
}

TEST(SortListing, SkewedXOutrunsTheBudget) {
  // One robot far out on x puts everyone else in the first bucket, where
  // the insertion pass would go quadratic.
  Rng rng(4204);
  for (const std::size_t n : {64u, 300u, 1000u}) {
    std::vector<Vec2> view;
    for (std::size_t j = 0; j + 1 < n; ++j) {
      view.push_back(Vec2{rng.uniform(0.0, 1.0), rng.uniform(0.0, 1.0)});
    }
    view.push_back(Vec2{1e9, 0.0});
    EXPECT_EQ(expect_same_listing(view, "n=" + std::to_string(n)),
              ListingPath::budget)
        << n;
  }
}

TEST(SortListing, SmallViewsTakeTheLegacySort) {
  Rng rng(4205);
  for (std::size_t n = 1; n <= kListingSmall; ++n) {
    const std::vector<Vec2> view = random_view(scatter(rng, n, 10.0, 0.5), rng);
    EXPECT_EQ(expect_same_listing(view, "n=" + std::to_string(n)),
              ListingPath::small);
  }
}

TEST(SortListing, EngineT0ListingsMatchInitialObservationOrder) {
  // Hinted and unhinted swarms, random frames and mirroring, exact and
  // quantized sensors (ties), limited visibility (hidden robots last).
  Rng rng(4206);
  for (int variant = 0; variant < 3; ++variant) {
    for (const std::size_t n : {9u, 17u, 64u, 257u}) {
      std::vector<RobotSpec> specs;
      for (const Vec2& p : jittered_grid(rng, n)) {
        RobotSpec s;
        s.position = p;
        s.frame_rotation = rng.uniform(0.0, geom::kTwoPi);
        s.frame_unit = rng.uniform(0.5, 2.0);
        s.frame_mirrored = variant == 1;
        specs.push_back(s);
      }
      EngineOptions options;
      if (variant == 1) options.observation_quantum = 2.0;
      if (variant == 2) options.visibility_radius = 12.0;
      const Engine engine(specs, std::make_unique<SynchronousScheduler>(),
                          options);
      for (RobotIndex i = 0; i < n; ++i) {
        const std::vector<RobotIndex> order =
            oracle::t0_listing(specs, i, options);
        const std::span<const std::uint32_t> listing = engine.listing(i);
        ASSERT_EQ(listing.size(), order.size());
        for (std::size_t k = 0; k < n; ++k) {
          ASSERT_EQ(listing[k], order[k])
              << "variant " << variant << " n=" << n << " observer " << i
              << " row " << k;
        }
      }
    }
  }
}

}  // namespace
}  // namespace stig::sim
