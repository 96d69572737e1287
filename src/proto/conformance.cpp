#include "proto/conformance.hpp"

#include <string>

#include "geom/geom_cache.hpp"
#include "geom/granular.hpp"
#include "geom/line.hpp"
#include "geom/voronoi.hpp"
#include "proto/naming.hpp"

namespace stig::proto {

std::vector<Violation> validate_sliced_trace(
    std::span<const geom::Vec2> t0_positions,
    const std::vector<std::vector<geom::Vec2>>& history, NamingMode naming,
    std::size_t diameters, double angle_tolerance) {
  const std::size_t n = t0_positions.size();
  std::vector<geom::Granular> granulars;
  granulars.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec2 reference =
        naming == NamingMode::relative
            ? horizon_direction(t0_positions, i)
            : geom::Vec2{0.0, 1.0};
    granulars.emplace_back(t0_positions[i],
                           geom::cached_granular_radius(t0_positions, i),
                           diameters,
                           reference);
  }

  std::vector<Violation> violations;
  for (std::size_t t = 0; t < history.size(); ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Granular& g = granulars[i];
      const geom::Vec2& pos = history[t][i];
      const double d = geom::dist(pos, g.center());
      if (d >= g.radius()) {
        violations.push_back({i, t, "outside granular"});
        continue;
      }
      if (d <= 1e-7 * g.radius()) continue;  // At the center.
      if (!g.classify(pos, 1e-7 * g.radius(), angle_tolerance)) {
        violations.push_back({i, t, "off every labeled ray"});
      }
    }
  }
  return violations;
}

std::vector<Violation> validate_async2_trace(
    const geom::Vec2& base_a, const geom::Vec2& base_b,
    const std::vector<std::vector<geom::Vec2>>& history, double tolerance) {
  const double sep = geom::dist(base_a, base_b);
  const geom::Line h = geom::Line::through(base_a, base_b);
  const geom::Vec2 north_a = (base_a - base_b).normalized();
  const geom::Vec2 north_b = -north_a;

  std::vector<Violation> violations;
  for (std::size_t t = 0; t < history.size(); ++t) {
    const geom::Vec2 bases[2] = {base_a, base_b};
    const geom::Vec2 norths[2] = {north_a, north_b};
    for (std::size_t i = 0; i < 2; ++i) {
      const geom::Vec2& pos = history[t][i];
      // Rule 1: never south of the own base (toward/past the peer).
      const double along = geom::dot(pos - bases[i], norths[i]);
      if (along < -tolerance * sep) {
        violations.push_back({i, t, "south of own base"});
      }
      // Rule 2: the position is reachable from H by a pure perpendicular
      // excursion — trivially true geometrically, so the meaningful check
      // is that *while off H*, the robot's H-projection lies north of its
      // base (excursions depart from march positions).
      const double off = std::fabs(h.signed_offset(pos));
      if (off > tolerance * sep && along < -tolerance * sep) {
        violations.push_back({i, t, "excursion from south of base"});
      }
    }
  }
  return violations;
}

}  // namespace stig::proto
