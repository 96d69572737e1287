#include "proto/slices.hpp"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>
#include <stdexcept>
#include <utility>

#include "geom/point_grid.hpp"
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

/// Swarm size from which `min_radius` finds the closest pair over a
/// PointGrid rather than a scan of every pair (the same squared distance:
/// see geom/point_grid.hpp's exactness contract).
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
  // The engine hints no smaller swarm (sim::kUnhintedSwarmMax): no token
  // map to keep, and no changes to record. Entry k of t0 is robot k.
  if (n_ > sim::kUnhintedSwarmMax) {
    std::uint32_t tokens = 0;
    for (std::size_t k = 0; k < n_; ++k) {
      tokens = std::max(tokens, t0.robots.token(k) + 1);
    }
    token_granular_.assign(tokens, kNoGranular);
    for (std::size_t k = 0; k < n_; ++k) note_token(t0.robots, k, k);
    robot_tokens_ = t0.robots.robot_tokens();
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

double SlicedCore::min_radius() const {
  // Each radius is half the root of a robot's nearest squared distance,
  // and halving a root is monotone, so the smallest radius is half the
  // root of the smallest of them: the same double.
  double best = std::numeric_limits<double>::infinity();
  if (n_ < kGridThreshold) {
    for (std::size_t i = 0; i < n_; ++i) {
      best = std::min(best, geom::granular_radius(centers_, i));
    }
  } else {
    const geom::PointGrid grid(centers_);
    double best_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n_; ++i) {
      best_d2 = std::min(best_d2, grid.nearest_other_dist2(i));
    }
    best = std::sqrt(best_d2) / 2.0;
  }
  if (!(best > 0.0)) {
    throw std::invalid_argument("granular radius must be positive");
  }
  return best;
}

const geom::Granular& SlicedCore::build_geometry(std::size_t i) const {
  if (i >= n_) throw std::out_of_range("SlicedCore: robot index");
  const double r = geom::granular_radius(centers_, i);
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
  const bool hint_usable =
      tracks_changes() && based_ && snap.hint.known &&
      snap.hint.since == base_t_ && snap.robots.size() == n_ &&
      2 * snap.hint.slots.size() <= n_ &&
      snap.robots.robot_tokens() == robot_tokens_;
  const bool one_to_one =
      (hint_usable && observe_hinted(snap)) || observe_all(snap);
  based_ = one_to_one && snap.hint.known;
  base_t_ = snap.t;
  robot_tokens_ = snap.robots.robot_tokens();
  // Pushed in listing order, then by granular for vacancies: ascending
  // unless a robot passed another or a vacancy changed.
  if (!tidy_) {
    std::sort(changed_.begin(), changed_.end());
    changed_.erase(std::unique(changed_.begin(), changed_.end()),
                   changed_.end());
  }
}

bool SlicedCore::observe_hinted(const sim::Snapshot& snap) {
  // Entries outside the hint are the previous snapshot's, tokens
  // included, so they go to the granulars they went to, which hold their
  // bits: nothing to do. The hinted slots hold the tokens they held (the
  // hint's promise, sim::ChangeHint), so the granulars those tokens went
  // to last time are the only ones free, and the association stays
  // one-to-one exactly when the hinted entries fill each of them once. A
  // long hint (more than half the slots) is left to the full pass, whose
  // quick prefix is cheaper per entry.
  const sim::ObservedList& robots = snap.robots;
  const std::vector<std::uint32_t>& hinted = snap.hint.slots;
  bool one_to_one = true;
  for (const std::uint32_t k : hinted) {
    const std::uint32_t token = k < n_ ? robots.token(k) : kNoGranular;
    const std::uint32_t g = token < token_granular_.size()
                                ? token_granular_[token]
                                : kNoGranular;
    if (g >= n_ || marks_[g] == kFree) {
      one_to_one = false;
      break;
    }
    marks_[g] = kFree;
  }
  for (std::size_t h = 0; one_to_one && h < hinted.size(); ++h) {
    const std::uint32_t k = hinted[h];
    const std::size_t g = granular_of(robots, k);
    one_to_one = marks_[g] == kFree;
    marks_[g] = kFilled;
    note_token(robots, k, g);
  }
  if (!one_to_one) {
    // The full pass that follows records every entry's token.
    std::fill(marks_.begin(), marks_.end(), std::uint8_t{0});
    return false;
  }
  for (const std::uint32_t k : hinted) {
    const std::uint32_t g = token_granular_[robots.token(k)];
    marks_[g] = 0;
    const geom::Vec2& p = robots.position(k);
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
  // holds, each entry fills its own granular and needs no bookkeeping
  // beyond its token.
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
    if (tracks_changes()) {
      for (std::size_t j = 0; j < k; ++j) note_token(robots, j, j);
    }
    if (k == n_) return true;
  }
  // From the first entry that is not (or the top, for a listing of another
  // length or after a vacancy), every entry is placed by `granular_of`.
  // Entries fill granulars in listing order, a later one overwriting an
  // earlier one, as a full association pass would.
  std::fill_n(marks_.begin(), k, kFilled);
  std::size_t filled = k;
  for (; k < robots.size(); ++k) {
    const geom::Vec2& p = robots.position(k);
    const std::size_t best = granular_of(robots, k);
    assert((marks_[best] & kFilled) == 0 &&
           "two robots associated to one granular");
    filled += (marks_[best] & kFilled) == 0 ? 1 : 0;
    marks_[best] |= kFilled;
    note_token(robots, k, best);
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

std::size_t SlicedCore::granular_of(const sim::ObservedList& robots,
                                    std::size_t k) {
  // Entry k is first compared with granular k: the same bits as granular
  // k holds, or within its own slot (`in_own_slot`, exact), is robot k.
  // An entry at the bits a granular up to two slots away holds is that
  // robot, shifted in the listing by one that passed it (exact: every held
  // position is one that associates to its granular). A core that tracks
  // changes then proves the granular the entry's token went to last time
  // the same two ways: a robot that moved and was shifted. Only the rest
  // scan the t0 centers, the lowest index winning an exact tie.
  const geom::Vec2& p = robots.position(k);
  if (k < n_ && (same_bits(p, observed_[k]) || in_own_slot(k, p))) return k;
  for (std::size_t d = 1; d <= kShiftWindow; ++d) {
    if (k >= d && k - d < n_ && same_bits(p, observed_[k - d])) return k - d;
    if (k + d < n_ && same_bits(p, observed_[k + d])) return k + d;
  }
  const std::uint32_t token = robots.token(k);
  if (token < token_granular_.size()) {
    const std::uint32_t c = token_granular_[token];
    if (c < n_ && c != k &&
        (same_bits(p, observed_[c]) || in_own_slot(c, p))) {
      return c;
    }
  }
  ++searches_;
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
