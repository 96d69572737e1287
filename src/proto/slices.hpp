// SlicedCore: the Voronoi/granular/naming substrate shared by every n-robot
// movement protocol (Sections 3.2–3.4 synchronous, 4.2 asynchronous, and the
// Section 5 k-segment extension).
//
// Built from the t0 snapshot, it provides, in the owning robot's local
// frame:
//   * each robot's granular (largest disc centered on the robot inside its
//     Voronoi cell) sliced into a protocol-chosen number of diameters;
//   * each robot's reference direction (North with sense of direction, or
//     the horizon line H_r of the SEC-based relative naming);
//   * each robot's labeling of all robots (every observer can reconstruct
//     every sender's labeling — the property Section 3.4 relies on), read
//     from NamingTables that a whole swarm can share;
//   * association of an observed configuration back to persistent robot
//     identities (granulars are disjoint, so nearest-center is unambiguous)
//     and classification of each robot's displacement into (diameter,
//     side), memoized per robot: an entry at exactly the bits its granular
//     last held costs one comparison (DESIGN.md §13).
//
// Association proves candidates instead of searching: its own slot's
// granular, then the granular its token went to last time (DESIGN.md §14),
// each accepted only at that granular's memo bits or within 0.9 of its
// radius; only an entry that fails every proof scans the t0 centers (§10).
//
// Construction stores the t0 centers and the naming view only. A robot's
// radius (one scan of the centers), reference direction and slicing are
// built the first time anything needs them and kept. No other per-robot
// structure over the swarm outlives the call that needs it: `min_radius`
// builds its grid and frees it. A silent swarm builds the geometry of its
// senders, not of every robot.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstdint>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include "geom/circle.hpp"
#include "geom/granular.hpp"
#include "geom/vec.hpp"
#include "proto/naming.hpp"
#include "sim/robot.hpp"

namespace stig::proto {

/// A movement signal: which labeled diameter, which half.
struct Signal {
  std::size_t diameter = 0;
  geom::DiameterSide side{};

  friend constexpr bool operator==(const Signal&, const Signal&) = default;
};

/// One robot's handle on a swarm's shared naming tables: the tables, built
/// in some canonical robot's t0 indexing, plus this robot's map from its
/// own t0 snapshot indices to the canonical ones. Empty `tables` means
/// "build your own".
struct SharedNaming {
  std::shared_ptr<const NamingTables> tables;
  std::vector<std::uint32_t> to_canonical;  ///< Own t0 index -> canonical.
};

class SlicedCore {
 public:
  SlicedCore() = default;

  /// Builds the substrate from the t0 snapshot.
  ///
  /// `diameter_count`: slices per granular — n for the synchronous
  /// protocols, n+1 for the asynchronous one (diameter 0 is then kappa),
  /// k+1 for the k-segment variant.
  /// Precondition for `NamingMode::by_ids`: the snapshot carries visible
  /// ids.
  ///
  /// `shared`: the swarm's naming tables and this robot's permutation
  /// into them. Sharing is exact only when every robot's t0 view is a
  /// similarity image of the canonical one (see DESIGN.md §9); without
  /// it the core builds its own tables from `t0` (identity permutation).
  ///
  /// Granular geometry is not built here: a view in which two robots
  /// coincide (radius 0) throws std::invalid_argument when one of those
  /// granulars is first needed, or from `min_radius`.
  SlicedCore(const sim::Snapshot& t0, NamingMode naming,
             std::size_t diameter_count, SharedNaming shared = {});

  [[nodiscard]] std::size_t robot_count() const noexcept { return n_; }
  [[nodiscard]] std::size_t self_index() const noexcept { return self_; }
  [[nodiscard]] std::size_t diameter_count() const noexcept {
    return diameters_;
  }

  /// t0 position of robot `i` (local frame) — its granular center.
  [[nodiscard]] const geom::Vec2& center(std::size_t i) const {
    return centers_.at(i);
  }

  /// Granular of robot `i`, sliced with `i`'s reference direction. Built
  /// on first use and kept; returned by value because a later first use
  /// may move the store.
  [[nodiscard]] geom::Granular granular(std::size_t i) const {
    return geometry(i);
  }

  /// Granular radius of robot `i`.
  [[nodiscard]] double radius(std::size_t i) const {
    return geometry(i).radius();
  }

  /// Smallest granular radius of the swarm — the same double as the
  /// minimum of `radius(i)` — without building any granular: half the
  /// closest pair's distance, found over a grid that is freed on return
  /// (scans below 64 robots). Throws std::invalid_argument when it is not
  /// positive.
  [[nodiscard]] double min_radius() const;

  /// Rank of robot `j` in robot `i`'s labeling.
  [[nodiscard]] std::size_t rank(std::size_t i, std::size_t j) const {
    return view_->rank(canonical(i), canonical(j));
  }

  /// Robot whose rank in `i`'s labeling is `r`.
  [[nodiscard]] std::size_t robot_with_rank(std::size_t i,
                                            std::size_t r) const {
    if (r >= n_) throw std::out_of_range("SlicedCore: rank index");
    const std::size_t c = view_->robot_with_rank(canonical(i), r);
    return from_canonical_.empty() ? c : from_canonical_[c];
  }

  /// The naming tables this core reads when uncorrupted — the swarm's
  /// shared ones, or its own. Tests compare addresses to see sharing.
  [[nodiscard]] const NamingTables& naming_tables() const {
    return *shared_;
  }

  /// Associates one activation's snapshot to persistent robot indices:
  /// afterwards `position(i)` is where robot i was observed. Every entry
  /// goes to its nearest granular center — without faults, the granular
  /// that contains it. Entry k is first compared with the position
  /// granular k last held (t0: its center); at exactly the same bits it is
  /// the same robot with the same signal, matched in O(1) and not
  /// re-classified. Otherwise it is accepted for granular k when within
  /// 0.9 of that granular's radius of its center (where no other center
  /// can be nearer), or for a granular up to two slots away at the bits
  /// that one holds (the same robot, shifted in the listing). A core that
  /// tracks changes then proves, the same two ways, the granular the
  /// entry's token went to at the last observe (a robot that moved and
  /// was shifted). Only an entry that fails every proof scans the t0
  /// centers, counted in `searches()` (DESIGN.md §10, §13, §14). A
  /// granular that no entry fills reads as the zero vector.
  ///
  /// When the previous observe associated every entry to its own granular
  /// (one-to-one) and `snap`'s change hint is relative to that snapshot,
  /// only the hinted entries are associated; the association must stay
  /// one-to-one, else the full pass above runs (DESIGN.md §14). Either way
  /// the result is the full pass's, bit for bit.
  void observe(const sim::Snapshot& snap);

  /// Whether `observe` uses change hints and tokens and reports
  /// `changed()`: in a swarm the engine hints, one of more than
  /// sim::kUnhintedSwarmMax robots. In a smaller one nothing reads the
  /// changes, and recording them cost asynchronous four-robot chats
  /// (AsyncN) about 4% of their CPU.
  [[nodiscard]] bool tracks_changes() const noexcept {
    return !token_granular_.empty();
  }

  /// Entries `observe` placed by scanning the t0 centers, over the core's
  /// life: the ones whose candidate failed its proof and that no nearby
  /// granular held at their bits. Zero in a fault-free hinted chat.
  [[nodiscard]] std::uint64_t searches() const noexcept { return searches_; }

  /// With `tracks_changes()`: the granulars whose memo changed at the last
  /// `observe`, ascending. Their position changed, or they went vacant or
  /// were filled again; every other granular reads the position and
  /// signal it read before.
  [[nodiscard]] std::span<const std::uint32_t> changed() const noexcept {
    return changed_;
  }

  // The per-activation accessors below are unchecked: i < robot_count().

  /// Robot `i`'s position as of the last `observe` (its t0 center before
  /// the first).
  [[nodiscard]] const geom::Vec2& position(std::size_t i) const {
    static constexpr geom::Vec2 kZero{};
    assert(i < n_);
    return vacancies_ && (marks_[i] & kVacant) != 0 ? kZero : observed_[i];
  }

  /// `classify(i, position(i))`, computed once per change of position.
  [[nodiscard]] std::optional<Signal> signal(std::size_t i) {
    assert(i < n_);
    std::int32_t& code = code_[i];
    if (code == kUnclassified) code = encode(classify(i, position(i)));
    if (code == 0) return std::nullopt;
    return code > 0 ? Signal{static_cast<std::size_t>(code) - 1,
                             geom::DiameterSide::positive}
                    : Signal{static_cast<std::size_t>(-code) - 1,
                             geom::DiameterSide::negative};
  }

  /// Classifies robot `i`'s current position against its granular slicing.
  /// Returns nullopt when the robot is at (indistinguishable from) its
  /// center. A genuine signal has negligible angular error; fixes whose
  /// error exceeds a quarter slice are rejected as noise.
  [[nodiscard]] std::optional<Signal> classify(std::size_t i,
                                               const geom::Vec2& pos) const;

  /// Movement target on robot self's own granular.
  [[nodiscard]] geom::Vec2 signal_point(const Signal& s,
                                        double distance) const {
    return geometry(self_).point_on(s.diameter, s.side, distance);
  }

  /// Transient-corruption hook (fault::CorruptTarget::naming): overwrites
  /// one entry of each rank table with an in-domain garbage value. The
  /// envelope is type-preserving on purpose: a rank slot holds *some*
  /// rank, so the corruption silently misroutes signals — the interesting
  /// failure — instead of tripping a bounds check (fail-stop, which needs
  /// no stabilization). May be vacuous when the garbage equals the stored
  /// value; the audit then finds nothing to repair.
  ///
  /// Copy-on-write: the shared tables are immutable, so the first scramble
  /// gives this core a private copy (same size as the tables) and damages
  /// that. `garbage` picks an entry of the row-major table in this robot's
  /// own indexing, which the permutation maps to the copy's cell, so every
  /// lookup reads as if the robot owned an own-indexed table.
  void scramble_naming(std::uint64_t garbage);

  /// Stabilization audit: when a scrambled private copy exists, compares
  /// it with the shared tables, drops it, and returns true exactly when
  /// they differed — the caller must then treat all reassembly state keyed
  /// by ranks as suspect. Without a copy it is O(1) and allocation-free.
  [[nodiscard]] bool audit_naming();

 private:
  /// `code_` value of a position not classified since it changed.
  static constexpr std::int32_t kUnclassified =
      std::numeric_limits<std::int32_t>::min();
  /// Capacity `changed_` starts with: what a few senders among a silent
  /// swarm change per activation, so it rarely grows in a run.
  static constexpr std::size_t kChangedCapacity = 8;
  /// `built_slot_` value of a granular not built yet.
  static constexpr std::uint32_t kUnbuilt =
      std::numeric_limits<std::uint32_t>::max();
  /// `token_granular_` value of a token no observe has listed.
  static constexpr std::uint32_t kNoGranular =
      std::numeric_limits<std::uint32_t>::max();
  /// `marks_` bits: an entry of the snapshot in `observe`'s general pass
  /// filled this granular; no entry filled it at the last `observe`; a
  /// hinted entry may fill it (`observe_hinted`).
  static constexpr std::uint8_t kFilled = 1;
  static constexpr std::uint8_t kVacant = 2;
  static constexpr std::uint8_t kFree = 4;

  /// A signal as a `code_` value: 0 for none, +-(diameter + 1) by side.
  [[nodiscard]] static std::int32_t encode(const std::optional<Signal>& s) {
    if (!s) return 0;
    const auto d = static_cast<std::int32_t>(s->diameter) + 1;
    return s->side == geom::DiameterSide::positive ? d : -d;
  }

  /// Robot `i`'s granular, built on first use. The reference is valid
  /// until the next first use of another robot's granular.
  [[nodiscard]] const geom::Granular& geometry(std::size_t i) const {
    if (i < built_slot_.size() && built_slot_[i] != kUnbuilt) {
      return built_[built_slot_[i]];
    }
    return build_geometry(i);
  }
  const geom::Granular& build_geometry(std::size_t i) const;

  /// `observe` of the hinted entries only, for a usable hint; false, with
  /// the memo as it was, when the association would not stay one-to-one.
  bool observe_hinted(const sim::Snapshot& snap);
  /// `observe` of every entry: the quick prefix, then the general pass.
  /// Returns true when the association is one-to-one.
  bool observe_all(const sim::Snapshot& snap);

  /// Records that granular `g`'s memo changed (see `changed()`).
  void note_change(std::size_t g) {
    code_[g] = kUnclassified;
    if (!tracks_changes()) return;
    tidy_ = tidy_ && (changed_.empty() || g > changed_.back());
    changed_.push_back(static_cast<std::uint32_t>(g));
  }

  /// True when `p` lies within 0.9 of granular k's radius of its center.
  /// That radius is half the distance to the nearest other center, so such
  /// a point is at least 1.1 r_k from every other center: robot k, with no
  /// tie. The squared margin (0.81 vs 1.21) dwarfs the few-ulp error of
  /// dist2.
  [[nodiscard]] bool in_own_slot(std::size_t k, const geom::Vec2& p) const {
    const double own = 0.9 * geometry(k).radius();
    return geom::dist2(p, centers_[k]) <= own * own;
  }

  /// The granular snapshot entry `k` of `robots` belongs to.
  [[nodiscard]] std::size_t granular_of(const sim::ObservedList& robots,
                                        std::size_t k);

  /// Index of the t0 center nearest to `p`; lowest index on exact ties.
  [[nodiscard]] std::size_t nearest_center(const geom::Vec2& p) const;

  /// Records that snapshot entry `k` of `robots` went to granular `g`.
  void note_token(const sim::ObservedList& robots, std::size_t k,
                  std::size_t g) {
    const std::uint32_t token = robots.token(k);
    if (token < token_granular_.size()) {
      token_granular_[token] = static_cast<std::uint32_t>(g);
    }
  }

  /// Canonical index of this robot's t0 index `i` (bounds-checked).
  [[nodiscard]] std::size_t canonical(std::size_t i) const {
    if (i >= n_) throw std::out_of_range("SlicedCore: robot index");
    return to_canonical_.empty() ? i : to_canonical_[i];
  }

  std::size_t n_ = 0;
  std::size_t self_ = 0;
  std::size_t diameters_ = 0;
  NamingMode naming_ = NamingMode::lexicographic;
  /// Some granular is vacant (see `marks_`).
  bool vacancies_ = false;
  std::vector<geom::Vec2> centers_;
  /// The naming tables: shared across the swarm, or built by this core.
  std::shared_ptr<const NamingTables> shared_;
  /// Own t0 index <-> index into the tables; both empty for the identity
  /// (standalone cores, and every by_ids swarm), which skips the lookup.
  std::vector<std::uint32_t> to_canonical_;
  std::vector<std::uint32_t> from_canonical_;
  /// Private copy made by scramble_naming; null while uncorrupted.
  std::unique_ptr<NamingTables> scrambled_;
  /// What the lookups read: `shared_`, or `scrambled_` when set.
  const NamingTables* view_ = nullptr;

  // The decode memo (see `observe`).
  /// Per granular: the position last associated to it (t0: its center).
  /// Always one that associates to it, so equal bits mean the same robot.
  std::vector<geom::Vec2> observed_;
  /// Per granular: encode(signal) of `position`, or kUnclassified once
  /// `position` changed.
  std::vector<std::int32_t> code_;
  /// Per granular `kFilled | kVacant | kFree` bits; between observes only
  /// kVacant is ever set.
  std::vector<std::uint8_t> marks_;
  /// Per token: the granular the entry with that token went to at the
  /// last observe that listed it, or kNoGranular. Sized by the t0
  /// snapshot's largest token; empty in a swarm the engine does not hint.
  /// Every entry of a one-to-one observe is recorded, so while `based_`
  /// it holds that snapshot's association, entry by entry.
  std::vector<std::uint32_t> token_granular_;
  /// The tokens `token_granular_` was last written with name robots (an
  /// engine view), not slots (an owning list).
  bool robot_tokens_ = false;
  /// See `searches()`.
  std::uint64_t searches_ = 0;
  /// The memo is the one-to-one association of the snapshot observed at
  /// `base_t_` (t0's at construction), which is what an engine snapshot's
  /// hint with that `since` is relative to. A hand-built snapshot (no
  /// hint) clears it: its `t` names no engine snapshot.
  bool based_ = true;
  sim::Time base_t_ = 0;
  /// See `changed()`; `tidy_` while it is ascending without repeats.
  std::vector<std::uint32_t> changed_;
  bool tidy_ = true;

  // Geometry built on first use; mutable because building is logically
  // const (cores are per-robot and engines are single-threaded, so no
  // synchronization is needed).
  /// Per robot: index into `built_`, or kUnbuilt. Empty until the first
  /// granular is built.
  mutable std::vector<std::uint32_t> built_slot_;
  /// The granulars built so far, in order of first use.
  mutable std::vector<geom::Granular> built_;
  /// SEC of the centers (relative naming's horizons), on first use.
  mutable std::optional<geom::Circle> sec_;
};

}  // namespace stig::proto
