#include "geom/voronoi.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace stig::geom {
namespace {

struct Bounds {
  double xmin = 0.0, ymin = 0.0, xmax = 0.0, ymax = 0.0;
};

Bounds bounding(std::span<const Vec2> sites) {
  Bounds b;
  b.xmin = b.ymin = std::numeric_limits<double>::infinity();
  b.xmax = b.ymax = -std::numeric_limits<double>::infinity();
  for (const Vec2& s : sites) {
    b.xmin = std::min(b.xmin, s.x);
    b.ymin = std::min(b.ymin, s.y);
    b.xmax = std::max(b.xmax, s.x);
    b.ymax = std::max(b.ymax, s.y);
  }
  return b;
}

/// The margin rule. `max_granular` is the largest granular radius: half
/// the distance from the most isolated site to its nearest neighbour (0
/// when n < 2).
double resolve_margin(const Bounds& b, double margin, double max_granular) {
  if (margin < 0.0) {
    const double diam = std::hypot(b.xmax - b.xmin, b.ymax - b.ymin);
    margin = std::max(diam, 1.0);
  }
  // Positive floor: the largest granular radius (1 when there is no
  // neighbour). Exactly enough that every granular disc fits inside the
  // inflated box; without it a small explicit margin on a
  // (near-)collinear configuration collapses the box in one axis.
  return std::max(margin, max_granular > 0.0 ? max_granular : 1.0);
}

ConvexPolygon clip_box(const Bounds& b, double margin) {
  return ConvexPolygon::rectangle(b.xmin - margin, b.ymin - margin,
                                  b.xmax + margin, b.ymax + margin);
}

}  // namespace

VoronoiDiagram VoronoiDiagram::compute(std::span<const Vec2> sites,
                                       double margin) {
  VoronoiDiagram vd;
  if (sites.empty()) return vd;

  const Bounds b = bounding(sites);
  double max_granular = 0.0;
  for (std::size_t i = 0; i < sites.size(); ++i) {
    max_granular = std::max(max_granular, granular_radius(sites, i));
  }
  const ConvexPolygon box =
      clip_box(b, resolve_margin(b, margin, max_granular));

  vd.cells_.reserve(sites.size());
  std::vector<HalfPlane> hps;
  hps.reserve(sites.size() - 1);
  for (std::size_t i = 0; i < sites.size(); ++i) {
    hps.clear();
    for (std::size_t j = 0; j < sites.size(); ++j) {
      if (j == i) continue;
      assert(dist2(sites[i], sites[j]) > kEps * kEps &&
             "Voronoi sites must be pairwise distinct");
      hps.push_back(closer_halfplane(sites[i], sites[j]));
    }
    VoronoiCell cell;
    cell.site_index = i;
    cell.site = sites[i];
    cell.polygon = intersect_halfplanes(box, hps);
    vd.cells_.push_back(std::move(cell));
  }
  return vd;
}

std::size_t VoronoiDiagram::nearest_site(const Vec2& p) const noexcept {
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (const VoronoiCell& c : cells_) {
    const double d2 = dist2(p, c.site);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = c.site_index;
    }
  }
  return best;
}

double granular_radius(std::span<const Vec2> sites, std::size_t i) noexcept {
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t j = 0; j < sites.size(); ++j) {
    if (j == i) continue;
    best_d2 = std::min(best_d2, dist2(sites[i], sites[j]));
  }
  if (!std::isfinite(best_d2)) return 0.0;
  return std::sqrt(best_d2) / 2.0;
}

}  // namespace stig::geom
