// Listing what an observer sees, by local position.
//
// An anonymous snapshot lists the visible robots lexicographically by
// local position (sim/engine.hpp). The rule was written as a std::sort
// from index order, and it stays the reference: distinct positions have
// exactly one sorted order, so any correct sort lists them alike, and
// where two positions are equal the legacy sort's placement of them is
// the listing. `sort_listing` reaches the same order in expected linear
// time on spread-out views and hands everything else to that sort
// (DESIGN.md §10).
#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "geom/vec.hpp"

namespace stig::sim {

/// How `sort_listing` listed.
enum class ListingPath : unsigned char {
  bucket,      ///< Its bucket pass and insertion pass.
  small,       ///< The legacy sort: at most kListingSmall robots.
  tie,         ///< The legacy sort: two positions are equal.
  non_finite,  ///< The legacy sort: a coordinate is NaN or infinite.
  budget,      ///< The legacy sort: the insertion pass outran its budget.
};

/// Insertion shifts per robot `sort_listing` takes before it falls back
/// to the legacy sort, so a listing costs at most O(n) more than that
/// sort's O(n log n).
inline constexpr std::size_t kListingShiftBudget = 4;

/// Listings of at most this many robots take the legacy sort, which
/// insertion-sorts them itself faster than a bucket pass would.
inline constexpr std::size_t kListingSmall = 16;

/// The legacy listing: `order`, robot indices ascending, std::sort-ed by
/// the local position `position_of(j)` of each robot j.
template <typename PositionOf>
void legacy_listing(std::span<std::uint32_t> order,
                    const PositionOf& position_of) {
  std::sort(order.begin(), order.end(),
            [&](std::uint32_t a, std::uint32_t b) {
              return position_of(a) < position_of(b);
            });
}

/// Lists `order`, robot indices ascending on entry, exactly as
/// `legacy_listing` does. A bucket pass on x, one bucket per robot, puts
/// every bucket's robots before the next one's, and an insertion pass
/// under Vec2's `<` orders each bucket. At most kListingSmall robots, an
/// exact tie, a non-finite coordinate, or more than kListingShiftBudget
/// shifts per robot take `legacy_listing` instead. `scratch` grows to
/// 2n + 1 entries.
template <typename PositionOf>
ListingPath sort_listing(std::span<std::uint32_t> order,
                         const PositionOf& position_of,
                         std::vector<std::uint32_t>& scratch) {
  const std::size_t m = order.size();
  if (m <= kListingSmall) {
    legacy_listing(order, position_of);
    return ListingPath::small;
  }
  double lo = std::numeric_limits<double>::infinity();
  double hi = -lo;
  for (const std::uint32_t j : order) {
    const geom::Vec2& p = position_of(j);
    if (!std::isfinite(p.x) || !std::isfinite(p.y)) {
      legacy_listing(order, position_of);
      return ListingPath::non_finite;
    }
    lo = std::min(lo, p.x);
    hi = std::max(hi, p.x);
  }
  // Bucket of x: monotone in x, so a lower bucket holds only smaller x.
  // A width of 0, or one so small that m / width overflows, puts everyone
  // in bucket 0.
  double scale = static_cast<double>(m) / (hi - lo);
  if (!(scale < std::numeric_limits<double>::infinity())) scale = 0.0;
  const auto bucket = [&](std::uint32_t j) -> std::size_t {
    if (scale == 0.0) return 0;
    const auto b = static_cast<std::size_t>((position_of(j).x - lo) * scale);
    return std::min(b, m - 1);
  };
  scratch.resize(2 * m + 1);
  std::uint32_t* const start = scratch.data();  // m + 1 bucket starts.
  std::uint32_t* const out = start + m + 1;
  std::fill(start, start + m + 1, 0u);
  for (const std::uint32_t j : order) ++start[bucket(j) + 1];
  for (std::size_t b = 1; b <= m; ++b) start[b] += start[b - 1];
  for (const std::uint32_t j : order) out[start[bucket(j)]++] = j;

  const std::size_t budget = kListingShiftBudget * m;
  std::size_t shifts = 0;
  for (std::size_t k = 1; k < m; ++k) {
    const std::uint32_t v = out[k];
    const geom::Vec2 p = position_of(v);
    std::size_t at = k;
    for (; at > 0 && p < position_of(out[at - 1]); --at) out[at] = out[at - 1];
    out[at] = v;
    shifts += k - at;
    if (shifts > budget) {
      legacy_listing(order, position_of);
      return ListingPath::budget;
    }
    // Equal positions end up adjacent: the later one stops beside one.
    if (at > 0 && !(position_of(out[at - 1]) < p)) {
      legacy_listing(order, position_of);
      return ListingPath::tie;
    }
  }
  std::copy(out, out + m, order.begin());
  return ListingPath::bucket;
}

}  // namespace stig::sim
