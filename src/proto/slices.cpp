#include "proto/slices.hpp"

#include <cassert>
#include <limits>
#include <stdexcept>
#include <utility>

#include "geom/geom_cache.hpp"

namespace stig::proto {
namespace {

/// Displacements below this fraction of the granular radius read as "at the
/// center". Signal amplitudes are >= 1e-3 of the radius by construction, and
/// coordinate round-trip noise is ~1e-13 absolute, so the band is safe on
/// both sides. Being radius-relative makes the threshold frame-invariant.
constexpr double kCenterFraction = 1e-7;

/// Swarm size at which `associate_into` switches from the brute
/// nearest-center scan to the t0-center PointGrid (same nearest index —
/// see geom/point_grid.hpp's exactness contract).
constexpr std::size_t kAssociateGridThreshold = 64;

/// Snapshot entry k is matched to granular k without a search when it lies
/// within this fraction of r_k from center k. r_k is half the distance from
/// center k to its nearest other center (geom::granular_radius), so such a
/// point is at least 2 r_k - 0.9 r_k = 1.1 r_k from every other center: the
/// nearest-center search would return k, with no tie. The squared margin
/// (0.81 vs 1.21) dwarfs the few-ulp error of dist2.
constexpr double kOwnSlotFraction = 0.9;

}  // namespace

SlicedCore::SlicedCore(const sim::Snapshot& t0, NamingMode naming,
                       std::size_t diameter_count, SharedNaming shared)
    : n_(t0.robots.size()),
      self_(t0.self),
      diameters_(diameter_count),
      shared_(std::move(shared.tables)) {
  assert(diameter_count >= 1);
  centers_.reserve(n_);
  for (const sim::ObservedRobot& r : t0.robots) {
    centers_.push_back(r.position);
  }

  if (shared_ == nullptr) {
    std::vector<sim::VisibleId> ids;
    if (naming == NamingMode::by_ids) {
      ids.reserve(n_);
      for (const sim::ObservedRobot& r : t0.robots) {
        if (!r.id) {
          throw std::invalid_argument(
              "NamingMode::by_ids requires an identified system");
        }
        ids.push_back(*r.id);
      }
    }
    shared_ = std::make_shared<const NamingTables>(centers_, ids, naming);
  } else {
    if (shared_->robot_count() != n_ || shared_->mode() != naming ||
        shared.to_canonical.size() != n_) {
      throw std::invalid_argument(
          "SlicedCore: shared naming tables do not match the snapshot");
    }
    const auto unset = static_cast<std::uint32_t>(n_);
    std::vector<std::uint32_t> inverse(n_, unset);
    bool identity = true;
    for (std::size_t i = 0; i < n_; ++i) {
      const std::uint32_t c = shared.to_canonical[i];
      if (c >= n_ || inverse[c] != unset) {
        throw std::invalid_argument(
            "SlicedCore: to_canonical is not a permutation");
      }
      inverse[c] = static_cast<std::uint32_t>(i);
      identity = identity && c == i;
    }
    if (!identity) {
      to_canonical_ = std::move(shared.to_canonical);
      from_canonical_ = std::move(inverse);
    }
  }
  view_ = shared_.get();

  // Reference directions stay per robot and in its own frame: they place
  // its own signal points. One SEC of this frame serves every horizon.
  std::vector<geom::Vec2> references(n_, geom::Vec2{0.0, 1.0});  // North.
  if (naming == NamingMode::relative) {
    const geom::Circle sec = geom::cached_sec(centers_);
    for (std::size_t i = 0; i < n_; ++i) {
      references[i] = horizon_direction(centers_, i, sec);
    }
  }

  if (n_ >= kAssociateGridThreshold) {
    center_grid_.build(centers_);
  }

  granulars_.reserve(n_);
  // Memoized per configuration: under relative naming the SEC lookup
  // above already created the cache entry for these centers.
  const std::vector<double>& radii =
      geom::GeomCache::local().granular_radii(centers_);
  for (std::size_t i = 0; i < n_; ++i) {
    const double r = radii[i];
    if (r <= 0.0) {
      throw std::invalid_argument("granular radius must be positive");
    }
    granulars_.emplace_back(centers_[i], r, diameters_, references[i]);
  }
}

void SlicedCore::scramble_naming(std::uint64_t garbage) {
  if (n_ == 0) return;
  if (scrambled_ == nullptr) {
    scrambled_ = std::make_unique<NamingTables>(*shared_);
    view_ = scrambled_.get();
  }
  // Entry e of an own-indexed row-major table is cell (e / n, e % n); the
  // one-row namings have e < n, so the row part is 0 (and ignored). Robot
  // indices go through the permutation, ranks do not.
  NamingTables& t = *scrambled_;
  const std::size_t e = garbage % t.entries();
  t.rank_cell(canonical(e / n_), canonical(e % n_)) =
      static_cast<std::uint32_t>((garbage >> 8) % n_);
  const std::size_t f = (garbage >> 16) % t.entries();
  t.inverse_cell(canonical(f / n_), f % n_) =
      static_cast<std::uint32_t>(canonical((garbage >> 24) % n_));
}

bool SlicedCore::audit_naming() {
  if (scrambled_ == nullptr) return false;
  const bool repaired = !(*scrambled_ == *shared_);
  scrambled_.reset();
  view_ = shared_.get();
  return repaired;
}

std::vector<geom::Vec2> SlicedCore::associate(
    const sim::Snapshot& snap) const {
  std::vector<geom::Vec2> positions;
  associate_into(snap, positions);
  return positions;
}

std::size_t SlicedCore::nearest_center(const geom::Vec2& p) const {
  if (!center_grid_.empty()) return center_grid_.nearest(p);
  std::size_t best = 0;
  double best_d2 = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n_; ++i) {
    const double d2 = geom::dist2(p, centers_[i]);
    if (d2 < best_d2) {
      best_d2 = d2;
      best = i;
    }
  }
  return best;
}

void SlicedCore::associate_into(const sim::Snapshot& snap,
                                std::vector<geom::Vec2>& out) const {
  assert(snap.robots.size() == n_);
  out.assign(n_, geom::Vec2{});
  std::vector<bool>& filled = assoc_filled_;
  filled.assign(n_, false);
  for (std::size_t k = 0; k < snap.robots.size(); ++k) {
    // Every observed point goes to its nearest granular center. Without
    // faults each robot stays inside its own granular and granular
    // interiors are disjoint, so that is the robot itself. A fault
    // (Engine::teleport, a jitter) may push a robot out of every granular;
    // it still goes to its nearest center, which is what the drivers'
    // walk-back needs. The watchdog (check_granular) and
    // validate_sliced_trace report such a robot.
    //
    // t0 listed the swarm in the order snapshots still list it unless two
    // robots passed each other, so entry k is first tried against granular
    // k (kOwnSlotFraction: exact, O(1)). Otherwise large swarms query the
    // t0-center grid and small ones scan; both return the lowest index on
    // exact ties.
    const geom::Vec2& p = snap.robots[k].position;
    const double own =
        k < n_ ? kOwnSlotFraction * granulars_[k].radius() : 0.0;
    const bool own_slot = k < n_ && geom::dist2(p, centers_[k]) <= own * own;
    const std::size_t best = own_slot ? k : nearest_center(p);
    assert(!filled[best] && "two robots associated to one granular");
    out[best] = p;
    filled[best] = true;
  }
}

std::optional<Signal> SlicedCore::classify(std::size_t i,
                                           const geom::Vec2& pos) const {
  const geom::Granular& g = granulars_.at(i);
  const auto fix = g.classify(pos, kCenterFraction * g.radius(),
                              g.slice_width() / 4.0);
  if (!fix) return std::nullopt;
  return Signal{fix->diameter, fix->side};
}

}  // namespace stig::proto
