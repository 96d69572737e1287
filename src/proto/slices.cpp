#include "proto/slices.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>
#include <utility>

#include "geom/sec.hpp"
#include "geom/voronoi.hpp"

namespace stig::proto {
namespace {

using geom::same_bits;

/// Displacements below this fraction of the granular radius read as "at the
/// center". Signal amplitudes are >= 1e-3 of the radius by construction, and
/// coordinate round-trip noise is ~1e-13 absolute, so the band is safe on
/// both sides. Being radius-relative makes the threshold frame-invariant.
constexpr double kCenterFraction = 1e-7;

/// Swarm size at which radius queries and association misses switch from
/// brute scans to the t0-center PointGrid (same doubles and the same
/// nearest index — see geom/point_grid.hpp's exactness contract).
constexpr std::size_t kGridThreshold = 64;

/// How far from its own slot `observe` looks for an unmoved robot's entry
/// by its bits: a robot that passes d neighbours in the listing shifts
/// each by one slot, two movers side by side by two.
constexpr std::size_t kShiftWindow = 2;

}  // namespace

SlicedCore::SlicedCore(const sim::Snapshot& t0, NamingMode naming,
                       std::size_t diameter_count, SharedNaming shared)
    : n_(t0.robots.size()),
      self_(t0.self),
      diameters_(diameter_count),
      naming_(naming),
      shared_(std::move(shared.tables)) {
  assert(diameter_count >= 1);
  centers_.reserve(n_);
  for (std::size_t k = 0; k < n_; ++k) {
    centers_.push_back(t0.robots.position(k));
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

  // The memo starts at t0: every robot at its center, where no robot
  // signals (classify reads a zero displacement as "at the center").
  observed_ = centers_;
  code_.assign(n_, 0);
  marks_.assign(n_, 0);
  // The engine hints no smaller swarm (sim::kUnhintedSwarmMax): no slot
  // map to keep, and no changes to record.
  if (n_ > sim::kUnhintedSwarmMax) {
    slot_granular_.resize(n_);
    std::iota(slot_granular_.begin(), slot_granular_.end(),
              std::uint32_t{0});
    changed_.reserve(std::min(n_, kChangedCapacity));
  }
  base_t_ = t0.t;
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

const geom::PointGrid& SlicedCore::center_grid() const {
  if (!center_grid_) {
    center_grid_ = std::make_unique<geom::PointGrid>(centers_);
  }
  return *center_grid_;
}

double SlicedCore::radius_of(std::size_t i) const {
  // Half the distance to the nearest other center: geom::granular_radius,
  // or the grid's nearest_other_dist2 — the same squared distance, hence
  // the same double.
  if (n_ >= kGridThreshold) {
    return std::sqrt(center_grid().nearest_other_dist2(i)) / 2.0;
  }
  return geom::granular_radius(centers_, i);
}

double SlicedCore::min_radius() const {
  double best = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n_; ++i) best = std::min(best, radius_of(i));
  if (!(best > 0.0)) {
    throw std::invalid_argument("granular radius must be positive");
  }
  return best;
}

const geom::Granular& SlicedCore::build_geometry(std::size_t i) const {
  if (i >= n_) throw std::out_of_range("SlicedCore: robot index");
  const double r = radius_of(i);
  if (r <= 0.0) {
    throw std::invalid_argument("granular radius must be positive");
  }
  // Reference directions are per robot and in its own frame: they place
  // its own signal points. One SEC of this frame serves every horizon.
  geom::Vec2 reference{0.0, 1.0};  // North.
  if (naming_ == NamingMode::relative) {
    if (!sec_) sec_ = geom::smallest_enclosing_circle(centers_);
    reference = horizon_direction(centers_, i, *sec_);
  }
  if (built_slot_.empty()) built_slot_.assign(n_, kUnbuilt);
  built_slot_[i] = static_cast<std::uint32_t>(built_.size());
  return built_.emplace_back(centers_[i], r, diameters_, reference);
}

std::size_t SlicedCore::nearest_center(const geom::Vec2& p) const {
  if (n_ >= kGridThreshold) return center_grid().nearest(p);
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

void SlicedCore::observe(const sim::Snapshot& snap) {
  changed_.clear();
  tidy_ = true;
  const bool hint_usable = tracks_changes() && based_ && snap.hint.known &&
                           snap.hint.since == base_t_ &&
                           snap.robots.size() == n_ &&
                           2 * snap.hint.slots.size() <= n_;
  const bool one_to_one =
      (hint_usable && observe_hinted(snap)) || observe_all(snap);
  based_ = one_to_one && snap.hint.known;
  base_t_ = snap.t;
  // Pushed in listing order, then by granular for vacancies: ascending
  // unless a robot passed another or a vacancy changed.
  if (!tidy_) {
    std::sort(changed_.begin(), changed_.end());
    changed_.erase(std::unique(changed_.begin(), changed_.end()),
                   changed_.end());
  }
}

bool SlicedCore::observe_hinted(const sim::Snapshot& snap) {
  // Entries outside the hint are the previous snapshot's, so they go to
  // the granulars they went to, which hold their bits: nothing to do. The
  // granulars the hinted entries filled last time are then the only ones
  // free, and the association stays one-to-one exactly when the hinted
  // entries fill each of them once. A long hint (more than half the
  // slots) is left to the full pass, whose quick prefix is cheaper per
  // entry.
  const std::vector<std::uint32_t>& hinted = snap.hint.slots;
  bool one_to_one = true;
  for (const std::uint32_t k : hinted) {
    if (k >= n_) {
      one_to_one = false;
      break;
    }
    marks_[slot_granular_[k]] = kFree;
  }
  for (std::size_t h = 0; one_to_one && h < hinted.size(); ++h) {
    const std::uint32_t k = hinted[h];
    const std::size_t g = granular_of(k, snap.robots.position(k));
    one_to_one = marks_[g] == kFree;
    marks_[g] = kFilled;
    slot_granular_[k] = static_cast<std::uint32_t>(g);
    slots_in_place_ = slots_in_place_ && g == k;
  }
  if (!one_to_one) {
    // slot_granular_ is rewritten by the full pass that follows.
    std::fill(marks_.begin(), marks_.end(), std::uint8_t{0});
    return false;
  }
  for (const std::uint32_t k : hinted) {
    const std::uint32_t g = slot_granular_[k];
    marks_[g] = 0;
    const geom::Vec2& p = snap.robots.position(k);
    if (!same_bits(p, observed_[g])) {
      observed_[g] = p;
      note_change(g);
    }
  }
  return true;
}

bool SlicedCore::observe_all(const sim::Snapshot& snap) {
  // Every observed point goes to its nearest granular center. Without
  // faults each robot stays inside its own granular and granular
  // interiors are disjoint, so that is the robot itself. A fault
  // (Engine::teleport, a jitter) may push a robot out of every granular;
  // it still goes to its nearest center, which is what the drivers'
  // walk-back needs. The watchdog (check_granular) and the trace
  // validator of tests/test_conformance.cpp report such a robot.
  //
  // Snapshots list the swarm in t0 order unless two robots passed each
  // other, so entry k is usually robot k: at the bits granular k holds
  // (unchanged: one comparison) or moved within its own slot. While that
  // holds, each entry fills its own granular and needs no bookkeeping.
  const sim::ObservedList& robots = snap.robots;
  std::size_t k = 0;
  if (robots.size() == n_ && !vacancies_) {
    for (; k < n_; ++k) {
      const geom::Vec2& p = robots.position(k);
      if (same_bits(p, observed_[k])) continue;
      if (!in_own_slot(k, p)) break;
      observed_[k] = p;
      note_change(k);
    }
    if (!slots_in_place_ && tracks_changes()) {
      std::iota(slot_granular_.begin(),
                slot_granular_.begin() + static_cast<std::ptrdiff_t>(k),
                std::uint32_t{0});
    }
    if (k == n_) {
      slots_in_place_ = true;
      return true;
    }
  }
  // From the first entry that is not (or the top, for a listing of another
  // length or after a vacancy), every entry is placed by `granular_of`.
  // Entries fill granulars in listing order, a later one overwriting an
  // earlier one, as a full association pass would.
  std::fill_n(marks_.begin(), k, kFilled);
  slots_in_place_ = false;
  std::size_t filled = k;
  for (; k < robots.size(); ++k) {
    const geom::Vec2& p = robots.position(k);
    const std::size_t best = granular_of(k, p);
    assert((marks_[best] & kFilled) == 0 &&
           "two robots associated to one granular");
    filled += (marks_[best] & kFilled) == 0 ? 1 : 0;
    marks_[best] |= kFilled;
    if (k < slot_granular_.size()) {
      slot_granular_[k] = static_cast<std::uint32_t>(best);
    }
    if (!same_bits(p, observed_[best])) {
      observed_[best] = p;
      note_change(best);
    }
  }
  // A granular no entry filled (a fault, limited visibility) reads as
  // zero; a change either way is a move.
  if (filled == n_ && !vacancies_) {
    std::fill(marks_.begin(), marks_.end(), std::uint8_t{0});
    return robots.size() == n_;
  }
  vacancies_ = false;
  for (std::size_t i = 0; i < n_; ++i) {
    const bool vacant = (marks_[i] & kFilled) == 0;
    if (vacant != ((marks_[i] & kVacant) != 0)) note_change(i);
    marks_[i] = vacant ? kVacant : 0;
    vacancies_ = vacancies_ || vacant;
  }
  return !vacancies_ && robots.size() == n_;
}

std::size_t SlicedCore::granular_of(std::size_t k,
                                    const geom::Vec2& p) const {
  // Entry k is first compared with granular k: the same bits as granular
  // k holds, or within its own slot (`in_own_slot`, exact), is robot k.
  // An entry at the bits a granular up to two slots away holds is that
  // robot, shifted in the listing by one that passed it (exact: every held
  // position is one that associates to its granular). The rest go to the
  // t0-center grid (large swarms) or a scan, both returning the lowest
  // index on exact ties.
  if (k < n_ && (same_bits(p, observed_[k]) || in_own_slot(k, p))) return k;
  for (std::size_t d = 1; d <= kShiftWindow; ++d) {
    if (k >= d && k - d < n_ && same_bits(p, observed_[k - d])) return k - d;
    if (k + d < n_ && same_bits(p, observed_[k + d])) return k + d;
  }
  return nearest_center(p);
}

std::optional<Signal> SlicedCore::classify(std::size_t i,
                                           const geom::Vec2& pos) const {
  const geom::Granular& g = geometry(i);
  const auto fix = g.classify(pos, kCenterFraction * g.radius(),
                              g.slice_width() / 4.0);
  if (!fix) return std::nullopt;
  return Signal{fix->diameter, fix->side};
}

}  // namespace stig::proto
