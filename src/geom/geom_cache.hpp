// GeomCache — configuration-epoch memoization of the geometry substrate.
//
// The library asks for the same geometry of the same point set more than
// once: every relative labeling of one view needs that view's SEC, the
// watchdog and the conformance validator rebuild the same granular radii,
// and the viz layer recomputes the Voronoi diagram a figure at a time. All
// of these are pure functions of the point set, so one memo entry per
// *configuration epoch* — the interval during which no robot has moved —
// collapses them to a single computation. Robots see t0 in different
// frames, so each robot's view is its own configuration.
//
// Keying and invalidation: an entry is keyed by the FNV-1a hash of the raw
// coordinate bytes, guarded by an exact point-by-point comparison (a hash
// collision can cost a recompute, never a wrong answer). Any robot moving
// changes the coordinates, hence the key, hence the epoch — there is no
// explicit invalidate call to forget. The cache keeps the most recent
// `kCapacity` configurations (LRU) so long fuzz/soak batches that stream
// thousands of distinct configurations hold memory constant.
//
// Concurrency: the cache is thread-local (`GeomCache::local()`). Parallel
// batch tasks each warm their own worker's cache — no shared mutable state,
// no locks on the geometry hot path, nothing for ThreadSanitizer to flag —
// and because every cached value is bit-identical to the direct
// computation it memoizes, hits vs misses can never make two runs of the
// same case differ (the property test_geom_cache.cpp pins).
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <vector>

#include "geom/circle.hpp"
#include "geom/convex.hpp"
#include "geom/vec.hpp"
#include "geom/voronoi.hpp"

namespace stig::geom {

class GeomCache {
 public:
  /// Entries retained per thread; beyond this the least recently used
  /// configuration is evicted. A running simulation needs exactly one (its
  /// t0 configuration); the differential oracle's protocol siblings and
  /// shrink candidates need a handful.
  static constexpr std::size_t kCapacity = 8;

  /// The calling thread's cache, shared by protocol construction, the
  /// watchdog and the validators.
  [[nodiscard]] static GeomCache& local();

  /// Smallest enclosing circle of `points`, memoized.
  [[nodiscard]] const Circle& sec(std::span<const Vec2> points);

  /// Voronoi diagram of `points` with the default margin, memoized.
  [[nodiscard]] const VoronoiDiagram& voronoi(std::span<const Vec2> points);

  /// Convex hull of `points`, memoized.
  [[nodiscard]] const ConvexPolygon& hull(std::span<const Vec2> points);

  /// All granular radii of `points` (granular_radius for every index),
  /// memoized. One O(n^2) pass serves every robot's O(n) query.
  [[nodiscard]] const std::vector<double>& granular_radii(
      std::span<const Vec2> points);

  /// Evicts everything (hit/miss counters survive; tests reset via fresh
  /// instances).
  void clear();

  [[nodiscard]] std::uint64_t hits() const noexcept { return hits_; }
  [[nodiscard]] std::uint64_t misses() const noexcept { return misses_; }
  [[nodiscard]] std::size_t size() const noexcept { return entries_.size(); }

 private:
  struct Entry {
    std::uint64_t key = 0;
    std::vector<Vec2> points;  ///< Exact-compare guard against collisions.
    std::uint64_t last_used = 0;
    // Values are computed lazily: an entry created for the SEC does not
    // pay for the Voronoi diagram until someone asks.
    std::optional<Circle> sec;
    std::optional<VoronoiDiagram> voronoi;
    std::optional<ConvexPolygon> hull;
    std::optional<std::vector<double>> radii;
  };

  /// Finds or creates (evicting LRU) the entry for `points`.
  Entry& entry_for(std::span<const Vec2> points);

  // unique_ptr for address stability: cached values hand out references
  // that must survive unrelated insertions and evictions.
  std::vector<std::unique_ptr<Entry>> entries_;
  std::uint64_t clock_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
};

/// FNV-1a over the raw coordinate bytes of `points` — the configuration
/// epoch key. Exposed for tests and for consumers that want to tag results
/// with the configuration they came from.
[[nodiscard]] std::uint64_t configuration_hash(std::span<const Vec2> points)
    noexcept;

// Convenience wrappers over the calling thread's cache. Results stay valid
// until the configuration is evicted (kCapacity distinct configurations
// later) — copy out before streaming unrelated configurations through.
[[nodiscard]] inline const Circle& cached_sec(std::span<const Vec2> points) {
  return GeomCache::local().sec(points);
}
[[nodiscard]] inline const VoronoiDiagram& cached_voronoi(
    std::span<const Vec2> points) {
  return GeomCache::local().voronoi(points);
}
[[nodiscard]] inline const ConvexPolygon& cached_hull(
    std::span<const Vec2> points) {
  return GeomCache::local().hull(points);
}
/// Cached granular_radius(points, i).
[[nodiscard]] inline double cached_granular_radius(
    std::span<const Vec2> points, std::size_t i) {
  return GeomCache::local().granular_radii(points).at(i);
}

}  // namespace stig::geom
