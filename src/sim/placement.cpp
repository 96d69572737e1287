#include "sim/placement.hpp"

#include <algorithm>
#include <cmath>
#include <stdexcept>

namespace stig::sim {

std::vector<geom::Vec2> scatter(Rng& rng, std::size_t n, double extent,
                                double min_gap) {
  if (!std::isfinite(extent) || !std::isfinite(min_gap) || min_gap < 0.0) {
    throw std::invalid_argument(
        "scatter: extent must be finite and min_gap finite and >= 0");
  }
  // n disks of area pi * min_gap^2 cover at most pi/4 of a box of side
  // 2 * min_gap * sqrt(n).
  const double e =
      std::max(extent, min_gap * std::sqrt(static_cast<double>(n)));
  std::vector<geom::Vec2> pts;
  pts.reserve(n);
  while (pts.size() < n) {
    const geom::Vec2 p{rng.uniform(-e, e), rng.uniform(-e, e)};
    if (std::none_of(pts.begin(), pts.end(), [&](const geom::Vec2& q) {
          return geom::dist(p, q) < min_gap;
        })) {
      pts.push_back(p);
    }
  }
  return pts;
}

std::vector<geom::Vec2> jittered_grid(Rng& rng, std::size_t n) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<geom::Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    pts.push_back(geom::Vec2{
        static_cast<double>(i % side) * 3.0 + rng.uniform(-0.5, 0.5),
        static_cast<double>(i / side) * 3.0 + rng.uniform(-0.5, 0.5)});
  }
  return pts;
}

}  // namespace stig::sim
