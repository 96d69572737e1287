// Convex polygons and half-plane clipping.
//
// Voronoi cells (the paper's collision-avoidance substrate, Section 3.2
// preprocessing step 1) are intersections of half-planes; we represent them
// as convex polygons obtained by Sutherland–Hodgman clipping of a large
// bounding box against each perpendicular bisector.
#pragma once

#include <span>
#include <vector>

#include "geom/line.hpp"
#include "geom/vec.hpp"

namespace stig::geom {

/// A closed half-plane: the set of points on or to the *left* of the
/// directed `boundary` line.
struct HalfPlane {
  Line boundary;

  /// True when `p` lies in the half-plane (left of, or on, the boundary).
  [[nodiscard]] bool contains(const Vec2& p, double eps = kEps) const noexcept {
    return boundary.signed_offset(p) >= -eps;
  }
};

/// Half-plane of points strictly closer to `site` than to `other`
/// (its boundary is the perpendicular bisector). Precondition: site != other.
[[nodiscard]] inline HalfPlane closer_halfplane(const Vec2& site,
                                                const Vec2& other) noexcept {
  return HalfPlane{perpendicular_bisector(site, other)};
}

/// A convex polygon stored as counterclockwise-ordered vertices.
///
/// Invariant: vertices are in counterclockwise order and the polygon is
/// convex; an empty vertex list denotes the empty polygon. The type is a
/// struct-with-invariant maintained by its factory/clip operations; callers
/// must not reorder vertices.
class ConvexPolygon {
 public:
  ConvexPolygon() = default;

  /// Builds a polygon from counterclockwise vertices. Precondition: the
  /// input really is convex and counterclockwise (asserted in debug builds).
  [[nodiscard]] static ConvexPolygon from_ccw_vertices(std::vector<Vec2> v);

  /// Axis-aligned rectangle [xmin,xmax] x [ymin,ymax].
  [[nodiscard]] static ConvexPolygon rectangle(double xmin, double ymin,
                                               double xmax, double ymax);

  [[nodiscard]] const std::vector<Vec2>& vertices() const noexcept {
    return verts_;
  }
  [[nodiscard]] bool empty() const noexcept { return verts_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return verts_.size(); }

  /// Signed area (non-negative given the CCW invariant).
  [[nodiscard]] double area() const noexcept;

  /// Centroid. Precondition: non-empty with positive area.
  [[nodiscard]] Vec2 centroid() const noexcept;

  /// True when `p` lies inside or on the polygon.
  [[nodiscard]] bool contains(const Vec2& p, double eps = kEps) const noexcept;

  /// Euclidean distance from an *interior* point `p` to the polygon
  /// boundary; this is the radius of the largest disc centered at `p`
  /// contained in the polygon (the paper's "granular" when `p` is the site
  /// of a Voronoi cell).
  [[nodiscard]] double distance_to_boundary(const Vec2& p) const noexcept;

  /// Intersection with a half-plane (Sutherland–Hodgman step).
  [[nodiscard]] ConvexPolygon clipped(const HalfPlane& hp) const;

 private:
  std::vector<Vec2> verts_;
};

/// Intersection of a bounding box with a set of half-planes. The box bounds
/// unbounded cells; callers pick it large enough to contain the region of
/// interest (VoronoiDiagram::compute uses the configuration's bounding box
/// inflated by the diameter).
[[nodiscard]] ConvexPolygon intersect_halfplanes(
    const ConvexPolygon& bounds, std::span<const HalfPlane> halfplanes);

}  // namespace stig::geom
