// Exact filters (DESIGN.md §12): `dist_cmp` must answer exactly as
// `hypot(...) <=> r`, and `Granular::classify` exactly as the libm
// classification it replaced, on every input — the filters only skip
// libm where the answer cannot differ. The oracles here are the libm
// expressions themselves.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <limits>
#include <optional>
#include <vector>

#include "geom/angle.hpp"
#include "geom/granular.hpp"
#include "geom/vec.hpp"
#include "sim/rng.hpp"

namespace stig::geom {
namespace {

constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

const char* name(std::partial_ordering o) {
  if (o == std::partial_ordering::less) return "less";
  if (o == std::partial_ordering::greater) return "greater";
  if (o == std::partial_ordering::equivalent) return "equivalent";
  return "unordered";
}

/// Counts comparisons and fails on the first mismatch with the oracle.
struct DistChecker {
  std::size_t checked = 0;
  void operator()(const Vec2& a, const Vec2& b, double r) {
    ++checked;
    const std::partial_ordering want = std::hypot(a.x - b.x, a.y - b.y) <=> r;
    const std::partial_ordering got = dist_cmp(a, b, r);
    ASSERT_TRUE(got == want)
        << "a=" << a << " b=" << b << " r=" << r << ": got " << name(got)
        << ", hypot says " << name(want);
  }
};

/// `r` moved by `k` ulps (negative: down).
double ulps(double r, int k) {
  for (; k > 0; --k) r = std::nextafter(r, kInf);
  for (; k < 0; ++k) r = std::nextafter(r, -kInf);
  return r;
}

TEST(DistCmp, RandomInputs) {
  DistChecker check;
  sim::Rng rng(41);
  for (int i = 0; i < 200'000; ++i) {
    const double scale = std::pow(10.0, rng.uniform(-6.0, 6.0));
    const Vec2 a{rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale};
    const Vec2 b{rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale};
    check(a, b, rng.uniform(0.0, 3.0) * scale);
    if (HasFatalFailure()) return;
  }
  EXPECT_EQ(check.checked, 200'000U);
}

TEST(DistCmp, NearTheBoundary) {
  // r within 64 ulps of hypot itself, where only hypot can tell.
  DistChecker check;
  sim::Rng rng(42);
  for (int i = 0; i < 4'000; ++i) {
    const double scale = std::pow(10.0, rng.uniform(-100.0, 100.0));
    const Vec2 a{rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale};
    const Vec2 b{rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale};
    const double h = std::hypot(a.x - b.x, a.y - b.y);
    for (int k = -64; k <= 64; ++k) {
      check(a, b, ulps(h, k));
      if (HasFatalFailure()) return;
    }
    // Just outside the band on both sides: decided without hypot.
    check(a, b, h * (1.0 + 4 * kDistBand));
    check(a, b, h * (1.0 - 4 * kDistBand));
  }
}

TEST(DistCmp, SubnormalHugeAndZero) {
  DistChecker check;
  sim::Rng rng(43);
  const double tiny = std::numeric_limits<double>::denorm_min();
  const double min_normal = std::numeric_limits<double>::min();
  const double big = std::numeric_limits<double>::max();
  // Squares that underflow (|d| < 1.5e-154) or overflow (|d| > 1.3e154),
  // subnormal coordinates, and the largest finite ones.
  for (const double scale : {1e-320, 1e-310, 1e-200, 1e-160, 1e-154, 1e-150,
                             1e150, 1e154, 1e155, 1e200, 1e300}) {
    for (int i = 0; i < 2'000; ++i) {
      const Vec2 a{rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale};
      const Vec2 b{rng.uniform(-1, 1) * scale, rng.uniform(-1, 1) * scale};
      const double h = std::hypot(a.x - b.x, a.y - b.y);
      for (const double r : {h, ulps(h, 1), ulps(h, -1), h * 2, h / 2,
                             rng.uniform(0.0, 2.0) * scale, scale}) {
        check(a, b, r);
        if (HasFatalFailure()) return;
      }
    }
  }
  for (const double r : {0.0, -0.0, tiny, min_normal, 1.0, big, kInf}) {
    check(Vec2{1, 2}, Vec2{1, 2}, r);  // Zero displacement.
    check(Vec2{-0.0, 0.0}, Vec2{0.0, -0.0}, r);
    check(Vec2{tiny, 0}, Vec2{0, 0}, r);
    check(Vec2{0, tiny}, Vec2{0, -tiny}, r);
    check(Vec2{big, 0}, Vec2{-big, 0}, r);  // Difference overflows.
    check(Vec2{big, big}, Vec2{0, 0}, r);
  }
}

TEST(DistCmp, NegativeRNaNAndInfinity) {
  DistChecker check;
  const std::vector<double> coords = {0.0, -0.0, 1.0, -2.5, 1e-300, 1e300,
                                      kInf, -kInf, kNaN};
  const std::vector<double> radii = {-1.0, -0.0, 0.0, -kInf, kInf, kNaN,
                                     1.0, 2.5, 1e-300, 1e300};
  for (const double ax : coords) {
    for (const double ay : coords) {
      for (const double bx : {0.0, 1.0, kInf, kNaN}) {
        for (const double r : radii) {
          check(Vec2{ax, ay}, Vec2{bx, 0.5}, r);
          if (HasFatalFailure()) return;
        }
      }
    }
  }
}

/// Today's libm classification, as the sliced protocols ran it: hypot
/// against the min distance, atan2/fmod for the angle, llround for the
/// nearest half-diameter, and the caller's rejection of a fix whose
/// angular error exceeds the threshold. Finite inputs only.
std::optional<SliceFix> libm_classify(const Granular& g, const Vec2& p,
                                      double min_distance, double max_error) {
  const Vec2 d = p - g.center();
  if (std::hypot(d.x, d.y) <= min_distance) return std::nullopt;
  const double theta = clockwise_angle(g.reference(), d);
  const double half_width = g.slice_width();
  const std::size_t m = g.diameter_count();
  const auto nearest =
      static_cast<std::size_t>(std::llround(theta / half_width)) % (2 * m);
  const double angular_error =
      angular_distance(theta, static_cast<double>(nearest) * half_width);
  if (angular_error > max_error) return std::nullopt;
  return SliceFix{nearest % m, nearest < m ? DiameterSide::positive
                                           : DiameterSide::negative};
}

/// Compares classify with the oracle at `center + r * (reference turned
/// clockwise by angle)`.
struct SliceChecker {
  const Granular& g;
  double min_distance;
  double max_error;
  std::size_t checked = 0;
  std::size_t accepted = 0;

  void at(double angle, double r) {
    const Vec2 p = g.center() + rotate_clockwise(g.reference(), angle) * r;
    ++checked;
    const auto want = libm_classify(g, p, min_distance, max_error);
    const auto got = g.classify(p, min_distance, max_error);
    ASSERT_EQ(got.has_value(), want.has_value())
        << "m=" << g.diameter_count() << " angle=" << angle << " r=" << r
        << " max_error=" << max_error;
    if (!want) return;
    ++accepted;
    ASSERT_EQ(got->diameter, want->diameter)
        << "m=" << g.diameter_count() << " angle=" << angle;
    ASSERT_EQ(got->side, want->side)
        << "m=" << g.diameter_count() << " angle=" << angle;
  }

  /// 2 * steps + 1 angles spaced `step` apart, centred on `angle`.
  void sweep(double angle, double step, int steps, double r) {
    for (int k = -steps; k <= steps; ++k) {
      at(angle + k * step, r);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
};

TEST(GranularClassify, EqualsLibmAcrossBoundaries) {
  sim::Rng rng(44);
  for (const std::size_t m : {2U, 3U, 6U, 129U, 4097U}) {
    const double ref_angle = rng.uniform(0.0, kTwoPi);
    const double radius = rng.uniform(0.5, 40.0);
    const Granular g(Vec2{rng.uniform(-50, 50), rng.uniform(-50, 50)},
                     radius, m, Vec2{std::cos(ref_angle), std::sin(ref_angle)});
    const double w = g.slice_width();
    // The protocols' threshold (a quarter slice), a conformance-style
    // tolerance, one tighter than the filter's margin, and none at all.
    for (const double max_error : {w / 4.0, 1e-6, 3e-8, kPi}) {
      SliceChecker check{g, 1e-7 * radius, max_error};
      for (const double r : {1e-6 * radius, 0.3 * radius, 0.95 * radius}) {
        for (const std::size_t k :
             {std::size_t{0}, std::size_t{1}, m - 1, m, 2 * m - 1}) {
          const double ray = static_cast<double>(k) * w;
          // The rounding boundary half a slice past the ray, at three
          // scales: the filter's margin, ~100 ulps, and a few ulps.
          for (const double step : {2e-10, 1e-14, 4e-16}) {
            check.sweep(ray + 0.5 * w, step, 1'500, r);
            // The acceptance boundary on both sides of the ray.
            check.sweep(ray + max_error, step, 1'500, r);
            check.sweep(ray - max_error, step, 1'500, r);
          }
          if (HasFatalFailure()) return;
        }
        // The 2*pi wrap of the clockwise angle.
        for (const double step : {2e-10, 1e-14, 1e-300}) {
          check.sweep(0.0, step, 1'500, r);
          check.sweep(kTwoPi, step, 1'500, r);
        }
        if (HasFatalFailure()) return;
      }
      // Random positions anywhere in and around the granular.
      for (int i = 0; i < 20'000; ++i) {
        check.at(rng.uniform(-1.0, 7.5), rng.uniform(0.0, 1.2 * radius));
        if (HasFatalFailure()) return;
      }
      EXPECT_GT(check.accepted, 0U) << "m=" << m;
    }
    // The min-distance boundary, within a few ulps.
    const double min_distance = 1e-7 * radius;
    SliceChecker check{g, min_distance, w / 4.0};
    for (int k = -8; k <= 8; ++k) {
      check.at(0.0, ulps(min_distance, k));
      check.at(0.7, ulps(min_distance, k));
    }
  }
}

TEST(BoundedAtan2, StaysWellBelowTheFilterBound) {
  // 3 x 3.4e6 angles over the full circle, octant edges included, at the
  // smallest, a middling and the largest magnitude the filter admits.
  constexpr int kAngles = 3'400'000;
  double worst = 0.0;
  for (const double mag : {1e-150, 1.0, 1e150}) {
    for (int i = 0; i <= kAngles; ++i) {
      const double a = -kPi + kTwoPi * static_cast<double>(i) / kAngles;
      const double x = mag * std::cos(a);
      const double y = mag * std::sin(a);
      worst = std::max(worst, std::fabs(atan2_bounded(y, x) - std::atan2(y, x)));
    }
    for (const Vec2 v : {Vec2{1, 0}, Vec2{1, 1}, Vec2{0, 1}, Vec2{-1, 1},
                         Vec2{-1, 0}, Vec2{-1, -1}, Vec2{0, -1}, Vec2{1, -1},
                         Vec2{-1, -0.0}}) {
      const double x = mag * v.x;
      const double y = mag * v.y;
      worst = std::max(worst, std::fabs(atan2_bounded(y, x) - std::atan2(y, x)));
    }
  }
  EXPECT_LE(1.5 * worst, kAtan2Bound) << "worst error " << worst;
  std::cout << "bounded atan2: worst error " << worst << " rad, bound "
            << kAtan2Bound << "\n";
}

}  // namespace
}  // namespace stig::geom
