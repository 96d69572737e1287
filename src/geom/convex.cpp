#include "geom/convex.hpp"

#include <algorithm>
#include <cassert>
#include <limits>

namespace stig::geom {

ConvexPolygon ConvexPolygon::from_ccw_vertices(std::vector<Vec2> v) {
#ifndef NDEBUG
  const std::size_t n = v.size();
  for (std::size_t i = 0; i + 2 < n + 2 && n >= 3; ++i) {
    const Vec2& a = v[i % n];
    const Vec2& b = v[(i + 1) % n];
    const Vec2& c = v[(i + 2) % n];
    assert(orient(a, b, c) >= -1e-6 && "vertices must be convex CCW");
  }
#endif
  ConvexPolygon p;
  p.verts_ = std::move(v);
  return p;
}

ConvexPolygon ConvexPolygon::rectangle(double xmin, double ymin, double xmax,
                                       double ymax) {
  return from_ccw_vertices({Vec2{xmin, ymin}, Vec2{xmax, ymin},
                            Vec2{xmax, ymax}, Vec2{xmin, ymax}});
}

double ConvexPolygon::area() const noexcept {
  double twice = 0.0;
  const std::size_t n = verts_.size();
  for (std::size_t i = 0; i < n; ++i) {
    twice += cross(verts_[i], verts_[(i + 1) % n]);
  }
  return twice / 2.0;
}

Vec2 ConvexPolygon::centroid() const noexcept {
  const std::size_t n = verts_.size();
  double twice_area = 0.0;
  Vec2 acc{0.0, 0.0};
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2& a = verts_[i];
    const Vec2& b = verts_[(i + 1) % n];
    const double c = cross(a, b);
    twice_area += c;
    acc += (a + b) * c;
  }
  if (nearly_zero(twice_area)) {
    // Degenerate polygon: fall back to vertex average.
    Vec2 avg{0.0, 0.0};
    for (const Vec2& v : verts_) avg += v;
    return n > 0 ? avg / static_cast<double>(n) : avg;
  }
  return acc / (3.0 * twice_area);
}

bool ConvexPolygon::contains(const Vec2& p, double eps) const noexcept {
  const std::size_t n = verts_.size();
  if (n == 0) return false;
  if (n == 1) return nearly_equal(verts_[0], p, eps);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2& a = verts_[i];
    const Vec2& b = verts_[(i + 1) % n];
    const Vec2 edge = b - a;
    const double len = edge.norm();
    if (nearly_zero(len)) continue;
    // Normalize the offset so eps is in distance units regardless of edge
    // length.
    if (cross(edge, p - a) / len < -eps) return false;
  }
  return true;
}

double ConvexPolygon::distance_to_boundary(const Vec2& p) const noexcept {
  const std::size_t n = verts_.size();
  if (n == 0) return 0.0;
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    const Segment edge{verts_[i], verts_[(i + 1) % n]};
    best = std::min(best, edge.distance(p));
  }
  return best;
}

ConvexPolygon ConvexPolygon::clipped(const HalfPlane& hp) const {
  const std::size_t n = verts_.size();
  if (n == 0) return {};
  std::vector<Vec2> out;
  out.reserve(n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    const Vec2& cur = verts_[i];
    const Vec2& nxt = verts_[(i + 1) % n];
    const bool cur_in = hp.contains(cur);
    const bool nxt_in = hp.contains(nxt);
    if (cur_in) out.push_back(cur);
    if (cur_in != nxt_in) {
      // The edge crosses the boundary; intersect(edge, boundary) exists
      // because the endpoints straddle the line.
      if (auto x = intersect(Line::through(cur, nxt), hp.boundary)) {
        out.push_back(*x);
      }
    }
  }
  ConvexPolygon result;
  result.verts_ = std::move(out);
  return result;
}

ConvexPolygon intersect_halfplanes(const ConvexPolygon& bounds,
                                   std::span<const HalfPlane> halfplanes) {
  ConvexPolygon poly = bounds;
  for (const HalfPlane& hp : halfplanes) {
    poly = poly.clipped(hp);
    if (poly.empty()) break;
  }
  return poly;
}

}  // namespace stig::geom
