// Voronoi diagram of the robot configuration.
//
// Section 3.2, preprocessing step 1: "Each robot computes the Voronoi
// Diagram, each Voronoi cell being centered on a robot position. Every robot
// is allowed to move into its Voronoi cell only. This ensures the collision
// avoidance."
//
// The protocols need only each cell's inscribed disc about its site, which
// `granular_radius` gives in closed form; the polygons are drawn by the
// figures and cross-checked against that closed form in tests. So there is
// one construction: each cell is the clip box cut by the n-1 bisector
// half-planes of its site, O(n^2) clips in all.
#pragma once

#include <span>
#include <vector>

#include "geom/convex.hpp"
#include "geom/vec.hpp"

namespace stig::geom {

/// Voronoi cell of one site, clipped to a bounding box.
struct VoronoiCell {
  std::size_t site_index = 0;  ///< Index into the site array.
  Vec2 site;                   ///< The generating point (robot position).
  ConvexPolygon polygon;       ///< Cell geometry (clipped; never empty for
                               ///< distinct sites inside the box).
};

/// A Voronoi diagram represented cell-by-cell.
///
/// Precondition for `compute`: sites are pairwise distinct (robots occupy
/// distinct points; the simulator's collision invariant guarantees this).
class VoronoiDiagram {
 public:
  /// Computes the diagram of `sites`: every cell is the intersection of
  /// its site's n-1 bisector half-planes with the bounding box of the
  /// sites inflated by `margin` (default: the configuration diameter, so
  /// granulars are never artificially truncated).
  ///
  /// The effective margin is clamped to a positive floor of half the
  /// largest nearest-neighbour distance: an explicit small margin on a
  /// (near-)collinear configuration used to collapse the box to a
  /// zero-height strip and truncate every cell below its granular; the
  /// floor is exactly the inflation that keeps each site's granular disc
  /// (radius = half its nearest-neighbour distance) inside the box.
  [[nodiscard]] static VoronoiDiagram compute(std::span<const Vec2> sites,
                                              double margin = -1.0);

  [[nodiscard]] const std::vector<VoronoiCell>& cells() const noexcept {
    return cells_;
  }
  [[nodiscard]] const VoronoiCell& cell(std::size_t i) const {
    return cells_.at(i);
  }
  [[nodiscard]] std::size_t size() const noexcept { return cells_.size(); }

  /// Index of the site whose cell contains `p` (i.e. the nearest site).
  [[nodiscard]] std::size_t nearest_site(const Vec2& p) const noexcept;

 private:
  std::vector<VoronoiCell> cells_;
};

/// Radius of the largest disc centered at `sites[i]` and contained in the
/// Voronoi cell of `sites[i]`: half the distance to the nearest other site
/// (the nearest cell edge is the bisector to the nearest neighbour). This
/// closed form is what robots actually use; the polygon-based
/// `distance_to_boundary` is cross-checked against it in tests.
[[nodiscard]] double granular_radius(std::span<const Vec2> sites,
                                     std::size_t i) noexcept;

}  // namespace stig::geom
