#include "proto/naming.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <numeric>
#include <stdexcept>

#include "geom/angle.hpp"
#include "geom/sec.hpp"

namespace stig::proto {
namespace {

/// Quantum for angle comparisons: two radii whose angular difference is
/// below this are "the same radius" (paper: robots on one radius are ordered
/// by distance from O). Far below any genuine angular separation between
/// distinct radii in the simulations, far above cross-frame rounding noise.
constexpr double kAngleQuantum = 1e-7;

/// Half-width, in quanta, of the band around each rounding boundary
/// (k + 1/2 quanta) inside which the sweep takes a key's angle from libm's
/// clockwise_angle rather than from its difference of polar angles: 1e-12
/// rad, over 100 times the gap between the two computations (DESIGN.md §9).
constexpr double kBoundaryBand = 1e-5;

/// Insertion shifts a sweep row may take per robot before its keys are
/// sorted from scratch, which keeps a row at O(n log n) whatever the
/// configuration.
constexpr std::size_t kRowShiftBudget = 4;

[[nodiscard]] long long quantize(double v, double quantum) noexcept {
  return static_cast<long long>(std::llround(v / quantum));
}

/// A robot's sort key in one relative labeling: the quantized clockwise
/// angle of its SEC radius from H_self, then its distance from O, then its
/// index — a strict total order, so every correct sort lists it alike.
struct Key {
  long long angle;
  double radial;
  std::uint32_t index;
};

[[nodiscard]] bool key_less(const Key& a, const Key& b) noexcept {
  if (a.angle != b.angle) return a.angle < b.angle;
  if (a.radial != b.radial) return a.radial < b.radial;
  return a.index < b.index;
}

/// The angle part of a key: the quantized clockwise angle from
/// `reference` to `rel`, where a radius at ~2*pi is the H_self radius
/// itself (quantum `full_turn`), read as 0.
[[nodiscard]] long long key_angle(const geom::Vec2& reference,
                                  const geom::Vec2& rel,
                                  long long full_turn) noexcept {
  const long long qa =
      quantize(geom::clockwise_angle(reference, rel), kAngleQuantum);
  return qa >= full_turn ? 0 : qa;
}

/// Distance from O below which a robot sits at O: it has no radius, and
/// its own horizon takes the degenerate rule.
[[nodiscard]] double at_center_below(const geom::Circle& sec) noexcept {
  return 1e-9 * std::max(sec.radius, 1e-300);
}

/// Fills the relative tables of `points` (n rows of n, row-major) from one
/// clockwise sweep around O (DESIGN.md §9). Every cell equals what
/// `relative_naming` gives: a key's angle is the difference of two polar
/// angles unless that lies within kBoundaryBand of a rounding boundary,
/// where clockwise_angle decides; the row of a robot at O is
/// relative_naming's own.
void sweep_relative(std::span<const geom::Vec2> points,
                    std::vector<std::uint32_t>& ranks,
                    std::vector<std::uint32_t>& inverse,
                    NamingTables::SweepStats* stats) {
  const std::size_t n = points.size();
  const geom::Circle sec = geom::smallest_enclosing_circle(points);
  const double at_center = at_center_below(sec);
  const long long full_turn = quantize(geom::kTwoPi, kAngleQuantum);
  ranks.resize(n * n);
  inverse.resize(n * n);
  const auto write_row = [&](std::size_t i, std::uint32_t j, std::size_t r) {
    ranks[i * n + j] = static_cast<std::uint32_t>(r);
    inverse[i * n + r] = j;
  };

  // Each robot once: its offset from O, its distance from O (the keys'
  // hypot) and its polar angle. The robots off O, by polar angle
  // descending, are the sweep: walked from any robot's own radius it
  // visits the others by growing clockwise angle. The robots at O follow
  // them.
  struct Ray {
    double theta;
    double radial;
    geom::Vec2 rel;
    std::uint32_t index;
  };
  std::vector<Ray> rays(n);
  std::size_t m = 0;  // Robots off O.
  std::size_t hub = n;
  for (std::size_t j = 0; j < n; ++j) {
    const geom::Vec2 rel = points[j] - sec.center;
    const double radial = rel.norm();
    const auto index = static_cast<std::uint32_t>(j);
    if (radial > at_center) {
      rays[m++] = Ray{std::atan2(rel.y, rel.x), radial, rel, index};
    } else {
      rays[--hub] = Ray{0.0, radial, rel, index};
    }
  }
  std::sort(rays.begin(), rays.begin() + static_cast<std::ptrdiff_t>(m),
            [](const Ray& a, const Ray& b) {
              return a.theta > b.theta ||
                     (a.theta == b.theta && a.index < b.index);
            });

  // A robot at O has no radius: its key is (0, radial), so it precedes
  // every robot on the H_self radius. Its own row takes relative_naming,
  // whose degenerate horizon needs the whole configuration.
  for (std::size_t h = m; h < n; ++h) {
    const std::uint32_t i = rays[h].index;
    const RelativeNaming own = relative_naming(points, i, sec);
    for (std::size_t j = 0; j < n; ++j) {
      write_row(i, static_cast<std::uint32_t>(j), own.ranks[j]);
    }
    if (stats != nullptr) ++stats->center_rows;
  }

  const double per_quantum = 1.0 / kAngleQuantum;
  std::vector<Key> keys(n);
  for (std::size_t s = 0; s < m; ++s) {
    const Ray& self = rays[s];
    // The difference of polar angles approximates the clockwise angle
    // from H_self; `d * per_quantum` is its angle in quanta.
    const auto turns = [&](const Ray& r) {
      const double d = self.theta - r.theta;
      return (d < 0.0 ? d + geom::kTwoPi : d) * per_quantum;
    };
    // Start at the first robot of self's tie group: step back over the
    // robots whose angle rounds to a full turn (or is exactly 0), so the
    // walk lists them first instead of shifting each across the row.
    std::size_t start = s;
    for (std::size_t back = 1; back < m; ++back) {
      const std::size_t prev = start == 0 ? m - 1 : start - 1;
      const double v = turns(rays[prev]);
      if (!(v < 0.5 || v >= static_cast<double>(full_turn) - 0.5)) break;
      start = prev;
    }
    std::size_t w = 0;
    for (std::size_t h = m; h < n; ++h) {
      keys[w++] = Key{0, rays[h].radial, rays[h].index};
    }
    geom::Vec2 reference;  // H_self, made on the first exact key.
    bool have_reference = false;
    for (std::size_t k = 0, at = start; k < m; ++k) {
      const Ray& r = rays[at];
      at = at + 1 == m ? 0 : at + 1;
      const double v = turns(r);
      const auto whole = static_cast<long long>(v);  // v >= 0.
      const double frac = v - static_cast<double>(whole);
      long long qa = 0;
      if (std::fabs(frac - 0.5) < kBoundaryBand) {
        if (!have_reference) {
          reference = self.rel.normalized();
          have_reference = true;
        }
        qa = key_angle(reference, r.rel, full_turn);
        if (stats != nullptr) ++stats->libm_keys;
      } else {
        qa = whole + (frac > 0.5 ? 1 : 0);
        if (qa >= full_turn) qa = 0;
      }
      keys[w++] = Key{qa, r.radial, r.index};
    }

    // One insertion pass puts each tie group in (radial, index) order;
    // past its budget the row is sorted from scratch.
    const std::size_t budget = kRowShiftBudget * n;
    std::size_t shifts = 0;
    for (std::size_t k = 1; k < n && shifts <= budget; ++k) {
      const Key key = keys[k];
      std::size_t at = k;
      for (; at > 0 && key_less(key, keys[at - 1]); --at) {
        keys[at] = keys[at - 1];
      }
      keys[at] = key;
      shifts += k - at;
    }
    if (shifts > budget) {
      std::sort(keys.begin(), keys.end(), key_less);
      if (stats != nullptr) ++stats->sorted_rows;
    }
    for (std::size_t r = 0; r < n; ++r) write_row(self.index, keys[r].index, r);
  }
}

}  // namespace

std::vector<std::size_t> lex_ranks(std::span<const geom::Vec2> points) {
  std::vector<std::size_t> order(points.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) {
              return points[a] < points[b];
            });
  std::vector<std::size_t> ranks(points.size());
  for (std::size_t r = 0; r < order.size(); ++r) ranks[order[r]] = r;
  return ranks;
}

std::vector<std::size_t> id_ranks(std::span<const sim::VisibleId> ids) {
  std::vector<std::size_t> order(ids.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::sort(order.begin(), order.end(),
            [&](std::size_t a, std::size_t b) { return ids[a] < ids[b]; });
  std::vector<std::size_t> ranks(ids.size());
  for (std::size_t r = 0; r < order.size(); ++r) ranks[order[r]] = r;
  return ranks;
}

geom::Vec2 horizon_direction(std::span<const geom::Vec2> points,
                             std::size_t self) {
  return horizon_direction(points, self,
                           geom::smallest_enclosing_circle(points));
}

geom::Vec2 horizon_direction(std::span<const geom::Vec2> points,
                             std::size_t self, const geom::Circle& sec) {
  assert(points.size() >= 2);
  const geom::Vec2 off = points[self] - sec.center;
  // Scale-aware degeneracy threshold: "at the center" relative to the SEC
  // radius, so the rule is unit-independent.
  if (off.norm() > at_center_below(sec)) {
    return off.normalized();
  }

  // Degenerate case: robot exactly at O. Canonical frame-invariant rule —
  // score every direction toward another robot by the clockwise-ordered
  // signature of the whole configuration and pick the smallest.
  double max_d = 0.0;
  for (std::size_t j = 0; j < points.size(); ++j) {
    if (j == self) continue;
    max_d = std::max(max_d, geom::dist(points[self], points[j]));
  }
  using Signature = std::vector<std::pair<long long, long long>>;
  std::size_t best = points.size();
  Signature best_sig;
  for (std::size_t c = 0; c < points.size(); ++c) {
    if (c == self) continue;
    const geom::Vec2 dir = (points[c] - points[self]).normalized();
    Signature sig;
    sig.reserve(points.size() - 1);
    for (std::size_t j = 0; j < points.size(); ++j) {
      if (j == self) continue;
      const geom::Vec2 rel = points[j] - points[self];
      sig.emplace_back(quantize(geom::clockwise_angle(dir, rel),
                                kAngleQuantum),
                       quantize(rel.norm() / max_d, kAngleQuantum));
    }
    std::sort(sig.begin(), sig.end());
    if (best == points.size() || sig < best_sig) {
      best = c;
      best_sig = std::move(sig);
    }
  }
  return (points[best] - points[self]).normalized();
}

RelativeNaming relative_naming(std::span<const geom::Vec2> points,
                               std::size_t self) {
  return relative_naming(points, self,
                         geom::smallest_enclosing_circle(points));
}

RelativeNaming relative_naming(std::span<const geom::Vec2> points,
                               std::size_t self, const geom::Circle& sec) {
  assert(points.size() >= 2);
  RelativeNaming naming;
  naming.sec_center = sec.center;
  naming.reference = horizon_direction(points, self, sec);

  // Sort key per robot: (clockwise angle of its SEC radius from H_self,
  // distance from O). A robot exactly at O has no radius; it precedes
  // everything on the H_self radius (angle 0, distance 0).
  const double at_center = at_center_below(sec);
  const long long full_turn = quantize(geom::kTwoPi, kAngleQuantum);
  std::vector<Key> keys;
  keys.reserve(points.size());
  for (std::size_t j = 0; j < points.size(); ++j) {
    const geom::Vec2 rel = points[j] - sec.center;
    const double radial = rel.norm();
    const long long qa = radial > at_center
                             ? key_angle(naming.reference, rel, full_turn)
                             : 0;
    keys.push_back(Key{qa, radial, static_cast<std::uint32_t>(j)});
  }
  std::sort(keys.begin(), keys.end(), key_less);
  naming.ranks.assign(points.size(), 0);
  for (std::size_t r = 0; r < keys.size(); ++r) {
    naming.ranks[keys[r].index] = r;
  }
  return naming;
}

NamingTables::NamingTables(std::span<const geom::Vec2> points,
                           std::span<const sim::VisibleId> ids,
                           NamingMode mode, SweepStats* stats)
    : n_(points.size()),
      mode_(mode),
      stride_(mode == NamingMode::relative ? points.size() : 0) {
  const auto append_row = [this](const std::vector<std::size_t>& row) {
    for (const std::size_t r : row) {
      ranks_.push_back(static_cast<std::uint32_t>(r));
    }
  };
  switch (mode) {
    case NamingMode::by_ids:
      if (ids.size() != n_) {
        throw std::invalid_argument(
            "NamingMode::by_ids requires an identified system");
      }
      append_row(id_ranks(ids));
      break;
    case NamingMode::lexicographic:
      append_row(lex_ranks(points));
      break;
    case NamingMode::relative:
      sweep_relative(points, ranks_, inverse_, stats);
      return;
  }
  inverse_.assign(ranks_.size(), 0);
  for (std::size_t j = 0; j < ranks_.size(); ++j) {
    inverse_[ranks_[j]] = static_cast<std::uint32_t>(j);
  }
}

}  // namespace stig::proto
