// SlicedCore: the Voronoi/granular/naming substrate shared by every n-robot
// movement protocol (Sections 3.2–3.4 synchronous, 4.2 asynchronous, and the
// Section 5 k-segment extension).
//
// Built once from the t0 snapshot, it provides, in the owning robot's local
// frame:
//   * each robot's granular (largest disc centered on the robot inside its
//     Voronoi cell) sliced into a protocol-chosen number of diameters;
//   * each robot's reference direction (North with sense of direction, or
//     the horizon line H_r of the SEC-based relative naming);
//   * each robot's labeling of all robots (every observer can reconstruct
//     every sender's labeling — the property Section 3.4 relies on), read
//     from NamingTables that a whole swarm can share;
//   * association of an observed configuration back to persistent robot
//     identities (granulars are disjoint, so nearest-center is unambiguous),
//     O(1) per robot that still holds its t0 listing slot;
//   * classification of a robot's displacement into (diameter, side).
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <vector>

#include "geom/granular.hpp"
#include "geom/point_grid.hpp"
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

  /// Granular of robot `i`, sliced with `i`'s reference direction.
  [[nodiscard]] const geom::Granular& granular(std::size_t i) const {
    return granulars_.at(i);
  }

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

  /// Associates the observed configuration to persistent robot indices:
  /// result[i] is the current position of robot i. Every observed point is
  /// assigned to its nearest granular center — without faults, the granular
  /// that contains it. Entry k is first tried against granular k (the t0
  /// listing order), accepted in O(1) when within 0.9 of that granular's
  /// radius of its center, where no other center can be nearer; otherwise
  /// the t0-center grid (n >= 64) or a scan decides. O(n) per snapshot
  /// while robots keep their t0 listing order (DESIGN.md §10).
  [[nodiscard]] std::vector<geom::Vec2> associate(
      const sim::Snapshot& snap) const;

  /// `associate` into caller-owned storage (resized to robot_count();
  /// capacity reused). The per-activation hot path of the sliced drivers
  /// calls this with a driver-owned scratch vector so slice assembly
  /// allocates nothing in steady state.
  void associate_into(const sim::Snapshot& snap,
                      std::vector<geom::Vec2>& out) const;

  /// Classifies robot `i`'s current position against its granular slicing.
  /// Returns nullopt when the robot is at (indistinguishable from) its
  /// center. A genuine signal has negligible angular error; fixes whose
  /// error exceeds a quarter slice are rejected as noise.
  [[nodiscard]] std::optional<Signal> classify(std::size_t i,
                                               const geom::Vec2& pos) const;

  /// Movement target on robot self's own granular.
  [[nodiscard]] geom::Vec2 signal_point(const Signal& s,
                                        double distance) const {
    return granulars_.at(self_).point_on(s.diameter, s.side, distance);
  }

  /// Granular radius of robot `i`.
  [[nodiscard]] double radius(std::size_t i) const {
    return granulars_.at(i).radius();
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
  /// Index of the t0 center nearest to `p`; lowest index on exact ties.
  [[nodiscard]] std::size_t nearest_center(const geom::Vec2& p) const;

  /// Canonical index of this robot's t0 index `i` (bounds-checked).
  [[nodiscard]] std::size_t canonical(std::size_t i) const {
    if (i >= n_) throw std::out_of_range("SlicedCore: robot index");
    return to_canonical_.empty() ? i : to_canonical_[i];
  }

  std::size_t n_ = 0;
  std::size_t self_ = 0;
  std::size_t diameters_ = 0;
  std::vector<geom::Vec2> centers_;
  std::vector<geom::Granular> granulars_;
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
  /// Nearest-center index for `associate_into`, built once over the t0
  /// centers for large swarms (empty below the threshold — the brute scan
  /// wins there).
  geom::PointGrid center_grid_;
  /// Scratch for `associate_into`'s taken-granular bookkeeping; mutable
  /// because association is logically const (cores are per-robot and
  /// engines are single-threaded, so no synchronization is needed).
  mutable std::vector<bool> assoc_filled_;
};

}  // namespace stig::proto
