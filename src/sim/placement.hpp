// Swarm placement: the initial configuration P(t0).
//
// The paper's protocols start from any n distinct points. Every swarm the
// library, tools, benches, tests and examples build comes from one of the
// two layouts here, so each layout's draw order — which pinned digests,
// coverage maps and bench baselines depend on — is fixed in one place
// (DESIGN.md §11).
#pragma once

#include <cstddef>
#include <vector>

#include "geom/vec.hpp"
#include "sim/rng.hpp"

namespace stig::sim {

/// n points, pairwise at least `min_gap` apart, by rejection sampling in
/// the square [-e, e]^2 with e = max(extent, min_gap * sqrt(n)). Each
/// candidate draws x, then y, from `rng.uniform(-e, e)` and is kept only
/// when its `geom::dist` to every kept point is at least `min_gap`. The
/// widening keeps the n exclusion disks within pi/4 of the box, so every
/// draw is accepted with probability at least 21% and the loop always
/// ends. Throws std::invalid_argument on a non-finite extent or a negative
/// or non-finite gap.
[[nodiscard]] std::vector<geom::Vec2> scatter(Rng& rng, std::size_t n,
                                              double extent, double min_gap);

/// n points on a row-major grid ceil(sqrt(n)) cells wide with side 3, each
/// jittered by `rng.uniform(-0.5, 0.5)` in x, then y. Needs no rejection,
/// and its extent grows with sqrt(n) at a fixed density.
[[nodiscard]] std::vector<geom::Vec2> jittered_grid(Rng& rng, std::size_t n);

}  // namespace stig::sim
