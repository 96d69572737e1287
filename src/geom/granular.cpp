#include "geom/granular.hpp"

#include <cmath>
#include <cstdint>
#include <numbers>

namespace stig::geom {
namespace {

/// The fix of half-diameter `half` in [0, 2 * count).
SliceFix fix_of(std::size_t half, std::size_t count) {
  return half < count ? SliceFix{half, DiameterSide::positive}
                      : SliceFix{half - count, DiameterSide::negative};
}

/// The libm classification of a finite displacement `d` past the
/// min-distance test: the answer the filtered path reproduces, and its
/// fallback near a decision boundary.
std::optional<SliceFix> classify_libm(const Vec2& d, const Vec2& reference,
                                      std::size_t count, double max_error) {
  const double theta = clockwise_angle(reference, d);
  if (!std::isfinite(theta)) return std::nullopt;  // Guards llround.
  const double half_width = kPi / static_cast<double>(count);
  const auto nearest =
      static_cast<std::size_t>(std::llround(theta / half_width)) %
      (2 * count);
  const double error =
      angular_distance(theta, static_cast<double>(nearest) * half_width);
  if (!(error <= max_error)) return std::nullopt;
  return fix_of(nearest, count);
}

}  // namespace

std::optional<SliceFix> Granular::classify(const Vec2& p, double min_distance,
                                           double max_error) const noexcept {
  const Vec2 d = p - center_;
  if (!std::isfinite(d.x) || !std::isfinite(d.y)) return std::nullopt;
  if (std::is_lteq(dist_cmp(p, center_, min_distance))) return std::nullopt;
  // A normal squared magnitude keeps the atan2 arguments finite and not
  // both zero.
  if (in_dist_band_range(d.norm2())) {
    // q: clockwise angle in half-diameter units; half-diameter k sits at
    // q = k, the rounding boundaries at k + 1/2, q = 2 * count_ wraps to 0.
    double theta = atan2_bounded(cross(d, reference_), dot(d, reference_));
    if (theta < 0.0) theta += kTwoPi;
    if (theta >= 0.0 && theta <= kTwoPi) {  // So 0 <= k <= 2 * count_.
      const double per_radian =
          static_cast<double>(count_) * std::numbers::inv_pi;
      const double q = theta * per_radian;
      const auto k = static_cast<std::int64_t>(q + 0.5);
      const double off = std::fabs(q - static_cast<double>(k));
      const double limit = max_error * per_radian;
      // Two atan2 bounds clear of the rounding and acceptance boundaries,
      // the libm path decides the same way.
      const double margin = 2.0 * kAtan2Bound * per_radian;
      if (off < 0.5 - margin && std::fabs(off - limit) > margin) {
        if (off > limit) return std::nullopt;
        const auto half = static_cast<std::size_t>(k);
        return fix_of(half == 2 * count_ ? 0 : half, count_);
      }
    }
  }
  return classify_libm(d, reference_, count_, max_error);
}

}  // namespace stig::geom
