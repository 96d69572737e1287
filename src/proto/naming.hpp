// Naming (addressing) schemes.
//
// One-to-one communication needs the sender to designate a receiver. The
// paper gives three ways, by decreasing capability:
//
//  * identified systems — the total order on visible IDs (Section 3.2);
//  * anonymous + sense of direction — the lexicographic order on observed
//    coordinates, which all robots share because they share axes
//    (Section 3.3, after [Flocchini et al. 1999]);
//  * anonymous + chirality only — a *relative* naming per robot r: rank all
//    robots by the clockwise angle of their SEC radius from r's horizon
//    line H_r, ties broken by distance from the SEC center O
//    (Section 3.4). Every robot can recompute every other robot's relative
//    naming, which is what makes decoding possible.
//
// All functions are pure and operate on positions expressed in *any* frame
// the caller uses consistently; the constructions are invariant under
// translation, rotation and positive uniform scaling (and that invariance is
// property-tested), which is exactly why robots with different frames agree.
#pragma once

#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "geom/circle.hpp"
#include "geom/vec.hpp"
#include "sim/types.hpp"

namespace stig::proto {

/// Which naming scheme labels the diameters.
enum class NamingMode : unsigned char {
  by_ids,         ///< Rank of visible IDs (Section 3.2). Requires an
                  ///< identified system and sense of direction.
  lexicographic,  ///< Rank of coordinates in the shared axes (Section 3.3).
                  ///< Requires sense of direction (+ chirality).
  relative,       ///< Per-robot SEC naming (Section 3.4). Chirality only.
};

/// Ranks by lexicographic position order: result[i] is the rank of
/// points[i]. Precondition: points pairwise distinct.
[[nodiscard]] std::vector<std::size_t> lex_ranks(
    std::span<const geom::Vec2> points);

/// Ranks by ascending visible id: result[i] is the rank of ids[i].
/// Precondition: ids pairwise distinct.
[[nodiscard]] std::vector<std::size_t> id_ranks(
    std::span<const sim::VisibleId> ids);

/// Direction of robot `self`'s horizon line H_self: the unit vector from the
/// SEC center O through the robot, pointing outward.
///
/// Degenerate case (robot exactly at O, where the paper leaves H_r
/// undefined): we extend the rule deterministically with a canonical
/// signature — among directions toward other robots, pick the one whose
/// clockwise-ordered view of the configuration is lexicographically
/// smallest. The rule depends only on relative angles and distance ratios,
/// so every observer computes the same direction regardless of frame.
[[nodiscard]] geom::Vec2 horizon_direction(std::span<const geom::Vec2> points,
                                           std::size_t self);

/// `horizon_direction` against a precomputed `sec` of `points`: callers
/// that ask for every robot's horizon compute the SEC once.
[[nodiscard]] geom::Vec2 horizon_direction(std::span<const geom::Vec2> points,
                                           std::size_t self,
                                           const geom::Circle& sec);

/// The Section 3.4 relative naming with respect to robot `self`.
struct RelativeNaming {
  geom::Vec2 sec_center;          ///< O, center of the SEC of the points.
  geom::Vec2 reference;           ///< Unit direction of H_self.
  std::vector<std::size_t> ranks; ///< ranks[i] = rank of points[i] under
                                  ///< self's labeling (0-based, self
                                  ///< included).
};

/// Computes the relative naming of all `points` with respect to
/// `points[self]`. Precondition: points pairwise distinct, size >= 2.
[[nodiscard]] RelativeNaming relative_naming(
    std::span<const geom::Vec2> points, std::size_t self);

/// `relative_naming` against a precomputed `sec` of `points`.
[[nodiscard]] RelativeNaming relative_naming(
    std::span<const geom::Vec2> points, std::size_t self,
    const geom::Circle& sec);

/// Every robot's labeling of every robot, as flat rank tables indexed by
/// one robot's t0 snapshot order.
///
/// Section 3.4 rests on every robot being able to recompute every other
/// robot's labeling, so the n labelings a swarm uses are one object seen
/// from n frames. The tables are built once, from one t0 view, and are
/// immutable afterwards; a robot whose snapshot lists the swarm in another
/// order reads them through its own permutation (see SlicedCore).
///
/// by_ids and lexicographic give every observer the same labeling, so
/// they store one row of n entries; relative stores n rows of n, filled
/// from one clockwise sweep around the SEC center (DESIGN.md §9): cell for
/// cell what `relative_naming` gives each robot.
class NamingTables {
 public:
  /// What a relative build did besides walking its sweep.
  struct SweepStats {
    std::size_t libm_keys = 0;    ///< Keys near a rounding boundary, whose
                                  ///< angle came from clockwise_angle.
    std::size_t center_rows = 0;  ///< Rows of a robot at O, built by
                                  ///< relative_naming.
    std::size_t sorted_rows = 0;  ///< Rows past their insertion budget,
                                  ///< sorted from scratch.
  };

  /// Builds the `mode` labelings of `points` (and `ids`, by_ids only),
  /// adding to `*stats` when given (relative only). Throws
  /// std::invalid_argument for by_ids without one id per point.
  NamingTables(std::span<const geom::Vec2> points,
               std::span<const sim::VisibleId> ids, NamingMode mode,
               SweepStats* stats = nullptr);

  [[nodiscard]] std::size_t robot_count() const noexcept { return n_; }
  [[nodiscard]] NamingMode mode() const noexcept { return mode_; }
  /// Entries per table: n for the one-row namings, n^2 for relative.
  [[nodiscard]] std::size_t entries() const noexcept { return ranks_.size(); }

  /// Rank of robot `b` in robot `a`'s labeling. Unchecked: callers
  /// validate indices.
  [[nodiscard]] std::uint32_t rank(std::size_t a, std::size_t b) const {
    return ranks_[a * stride_ + b];
  }
  /// Robot whose rank in `a`'s labeling is `r`. Unchecked.
  [[nodiscard]] std::uint32_t robot_with_rank(std::size_t a,
                                              std::size_t r) const {
    return inverse_[a * stride_ + r];
  }

  /// Writable cells, for the corruption hook of a private copy
  /// (SlicedCore::scramble_naming). The one-row namings ignore `a`.
  [[nodiscard]] std::uint32_t& rank_cell(std::size_t a, std::size_t b) {
    return ranks_[a * stride_ + b];
  }
  [[nodiscard]] std::uint32_t& inverse_cell(std::size_t a, std::size_t r) {
    return inverse_[a * stride_ + r];
  }

  friend bool operator==(const NamingTables&, const NamingTables&) = default;

 private:
  std::size_t n_ = 0;
  NamingMode mode_ = NamingMode::lexicographic;
  std::size_t stride_ = 0;  ///< Row length: n for relative, 0 otherwise.
  /// Row-major; uint32 halves the footprint of size_t entries, and swarms
  /// stay far below 2^32 robots.
  std::vector<std::uint32_t> ranks_;
  std::vector<std::uint32_t> inverse_;
};

}  // namespace stig::proto
