// PointGrid — uniform spatial hashing over a static planar point set.
//
// The O(n^2)-per-instant walls in the engine and the sliced cores all
// reduce to the same primitive: "which points are near p?". A PointGrid
// buckets the points of one configuration into a uniform grid sized so the
// expected occupancy is O(1) per cell, and answers
//
//   * exact nearest-neighbour queries (`nearest`, `nearest_other_dist2`),
//     by expanding Chebyshev rings with a distance lower bound,
//   * bounded-radius visits (`for_each_within`).
//
// Exactness matters more than speed here: every nearest-neighbour answer is
// the same *double* the brute-force O(n) scan would produce (same dist2
// expression, same minimum, lowest index on ties), so grid-accelerated
// callers — granular radii, slice association, collision checks — stay
// bit-identical to their legacy loops and replay digests never move.
//
// Build is O(n) (counting sort); the structure is immutable until the next
// `build`, which reuses all capacity (no steady-state allocation).
#pragma once

#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/vec.hpp"

namespace stig::geom {

class PointGrid {
 public:
  PointGrid() = default;
  explicit PointGrid(std::span<const Vec2> points) { build(points); }

  /// (Re)builds the grid over `points`. Copies the coordinates (16 bytes a
  /// point), so the grid never dangles when the caller's buffer is reused.
  void build(std::span<const Vec2> points);

  /// Index of the point nearest to `q`; lowest index on exact ties (the
  /// same answer a brute-force ascending scan returns). Precondition:
  /// non-empty.
  [[nodiscard]] std::size_t nearest(const Vec2& q) const noexcept;

  /// Squared distance from point `i` to its nearest *other* point — the
  /// same double as `min_j dist2(p_i, p_j)`. Precondition: the grid holds
  /// at least two points.
  [[nodiscard]] double nearest_other_dist2(std::size_t i) const noexcept;

  /// Calls `f(j)` for every point p_j with dist2(p_j, q) <= radius2
  /// (including a point equal to q). Visit order is cell-major, ascending
  /// index within a cell — not globally sorted.
  template <typename F>
  void for_each_within(const Vec2& q, double radius2, F&& f) const {
    if (pts_.empty()) return;
    const std::int64_t reach =
        static_cast<std::int64_t>(std::sqrt(radius2) / cell_) + 1;
    const std::int64_t cx = cell_x(q);
    const std::int64_t cy = cell_y(q);
    const std::int64_t x0 = std::max<std::int64_t>(cx - reach, 0);
    const std::int64_t x1 = std::min<std::int64_t>(cx + reach, nx_ - 1);
    const std::int64_t y0 = std::max<std::int64_t>(cy - reach, 0);
    const std::int64_t y1 = std::min<std::int64_t>(cy + reach, ny_ - 1);
    for (std::int64_t y = y0; y <= y1; ++y) {
      for (std::int64_t x = x0; x <= x1; ++x) {
        const std::size_t c = static_cast<std::size_t>(y * nx_ + x);
        for (std::size_t k = starts_[c]; k < starts_[c + 1]; ++k) {
          const std::size_t j = items_[k];
          if (dist2(pts_[j], q) <= radius2) f(j);
        }
      }
    }
  }

 private:
  /// Grid cell of `q`, clamped into bounds.
  struct Cell {
    std::int64_t x = 0;
    std::int64_t y = 0;
  };
  [[nodiscard]] Cell cell_of(const Vec2& q) const noexcept {
    return Cell{cell_x(q), cell_y(q)};
  }

  /// Lower bound on the distance from any point of cell `c` to any point
  /// bucketed in a cell at Chebyshev ring `r` around `c` (0 for r <= 1).
  [[nodiscard]] double ring_lower_bound(std::int64_t r) const noexcept {
    return r <= 1 ? 0.0 : static_cast<double>(r - 1) * cell_;
  }

  /// Calls `f(j)` for every point bucketed in a cell at exactly Chebyshev
  /// distance `r` from `c`. Returns false when the ring lies entirely
  /// outside the grid (so an expanding search can stop).
  template <typename F>
  bool for_each_in_ring(const Cell& c, std::int64_t r, F&& f) const {
    if (pts_.empty()) return false;
    const std::int64_t x0 = c.x - r, x1 = c.x + r;
    const std::int64_t y0 = c.y - r, y1 = c.y + r;
    if (x1 < 0 || y1 < 0 || x0 >= nx_ || y0 >= ny_) return false;
    // The ring is the *boundary* of the [x0,x1]x[y0,y1] box: once the box
    // strictly contains the whole grid, every boundary cell is out of
    // bounds too. Without this test an expanding search whose distance
    // bound far exceeds the grid extent (e.g. a nearest query far outside
    // a micro-spaced configuration) would spin through millions of empty
    // rings before its lower-bound cutoff fired.
    if (x0 < 0 && y0 < 0 && x1 >= nx_ && y1 >= ny_) return false;
    if (r == 0) {
      visit_cell(c.x, c.y, f);
      return true;
    }
    for (std::int64_t x = x0; x <= x1; ++x) {  // Top and bottom rows.
      visit_cell(x, y0, f);
      visit_cell(x, y1, f);
    }
    for (std::int64_t y = y0 + 1; y < y1; ++y) {  // Side columns.
      visit_cell(x0, y, f);
      visit_cell(x1, y, f);
    }
    return true;
  }

  template <typename F>
  void visit_cell(std::int64_t x, std::int64_t y, F&& f) const {
    if (x < 0 || y < 0 || x >= nx_ || y >= ny_) return;
    const std::size_t c = static_cast<std::size_t>(y * nx_ + x);
    for (std::size_t k = starts_[c]; k < starts_[c + 1]; ++k) {
      f(items_[k]);
    }
  }

  [[nodiscard]] std::int64_t cell_x(const Vec2& p) const noexcept {
    const auto x = static_cast<std::int64_t>((p.x - xmin_) / cell_);
    return x < 0 ? 0 : (x >= nx_ ? nx_ - 1 : x);
  }
  [[nodiscard]] std::int64_t cell_y(const Vec2& p) const noexcept {
    const auto y = static_cast<std::int64_t>((p.y - ymin_) / cell_);
    return y < 0 ? 0 : (y >= ny_ ? ny_ - 1 : y);
  }

  /// Expanding-ring exact nearest search; `skip` excludes one index
  /// (the point count for "none"). Returns {best index, best dist2}.
  [[nodiscard]] std::pair<std::size_t, double> nearest_impl(
      const Vec2& q, std::size_t skip) const noexcept;

  std::vector<Vec2> pts_;
  std::vector<std::size_t> starts_;  ///< ncells + 1 bucket offsets.
  std::vector<std::size_t> items_;   ///< Point indices, cell-major.
  double xmin_ = 0.0, ymin_ = 0.0;
  double cell_ = 1.0;
  std::int64_t nx_ = 1, ny_ = 1;
};

}  // namespace stig::geom
