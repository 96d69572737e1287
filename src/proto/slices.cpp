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

void SlicedCore::associate_into(const sim::Snapshot& snap,
                                std::vector<geom::Vec2>& out) const {
  assert(snap.robots.size() == n_);
  out.assign(n_, geom::Vec2{});
  std::vector<bool>& filled = assoc_filled_;
  filled.assign(n_, false);
  for (const sim::ObservedRobot& obs : snap.robots) {
    // Nearest granular center; robots never leave their granulars, and
    // granular interiors are pairwise disjoint, so this is unambiguous.
    // Large swarms query the t0-center grid (same nearest index as the
    // scan — lowest index on exact ties); small ones keep the brute scan.
    std::size_t best;
    if (!center_grid_.empty()) {
      best = center_grid_.nearest(obs.position);
    } else {
      best = 0;
      double best_d2 = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n_; ++i) {
        const double d2 = geom::dist2(obs.position, centers_[i]);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = i;
        }
      }
    }
    assert(!filled[best] && "two robots associated to one granular");
    assert(geom::dist2(obs.position, centers_[best]) <=
               granulars_[best].radius() * granulars_[best].radius() &&
           "observed robot outside every granular");
    out[best] = obs.position;
    filled[best] = true;
  }
}

std::optional<Signal> SlicedCore::classify(std::size_t i,
                                           const geom::Vec2& pos) const {
  const geom::Granular& g = granulars_.at(i);
  const auto fix = g.classify(pos, kCenterFraction * g.radius());
  if (!fix) return std::nullopt;
  if (fix->angular_error > g.slice_width() / 4.0) return std::nullopt;
  return Signal{fix->diameter, fix->side};
}

}  // namespace stig::proto
