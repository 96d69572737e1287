// Higher-level figure composition: draws whole configurations (Voronoi
// cells, granulars with paper-accurate slicing and labels, the SEC and a
// horizon line) and trajectories from a position history — enough to
// regenerate each of the paper's Figures 1-6 as an .svg.
#pragma once

#include <cstddef>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "geom/vec.hpp"
#include "proto/slices.hpp"
#include "viz/svg.hpp"

namespace stig::viz {

/// What to include in a swarm drawing.
struct SwarmDrawing {
  bool voronoi = true;        ///< Cell boundaries (Figure 2a).
  bool granulars = true;      ///< Granular discs.
  std::size_t diameters = 0;  ///< Slices per granular; 0 = none.
  /// Slicing reference: lexicographic/by-ids use North; relative uses each
  /// robot's horizon line H_r (Figures 4 and 6).
  proto::NamingMode naming = proto::NamingMode::lexicographic;
  bool sec = false;           ///< Smallest enclosing circle (Figure 4).
  /// Draw the horizon line of this robot through the SEC center.
  std::optional<std::size_t> horizon_of;
  bool label_robots = true;
};

/// Renders the configuration `pts` into a fresh scene.
[[nodiscard]] SvgScene draw_swarm(std::span<const geom::Vec2> pts,
                                  const SwarmDrawing& what);

/// Overlays each robot's trajectory from a recorded position history
/// (`core::ChatNetwork::position_history()`), one default color per robot.
void draw_trajectories(
    SvgScene& scene,
    const std::vector<std::vector<geom::Vec2>>& history);

/// A small categorical palette (cycles after 8 entries).
[[nodiscard]] const std::string& robot_color(std::size_t i);

}  // namespace stig::viz
