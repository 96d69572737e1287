// The t0 listing from scratch: the reference that the engine's t0 listings
// and core::ChatNetwork's slot tables are checked against.
//
// At t0 an observer lists the swarm by visible id in an identified system
// (every spec has an id). Otherwise it lists the robots within the
// visibility radius, std::sort-ed from index order by the position it sees
// (its own exact, the others snapped to the sensor quantum, all in its
// frame), then the hidden ones in index order. The robots it sees, in this
// order, are its t0 snapshot. The reference sights every robot itself,
// with hypot and rounding, and shares no code with the engine's sighting
// and listing paths.
#pragma once

#include <algorithm>
#include <cmath>
#include <numeric>
#include <span>
#include <vector>

#include "geom/vec.hpp"
#include "sim/engine.hpp"

namespace stig::oracle {

/// Indices into `specs` in the order robot `observer` lists the swarm at
/// t0 under `options`.
inline std::vector<sim::RobotIndex> t0_listing(
    std::span<const sim::RobotSpec> specs, sim::RobotIndex observer,
    const sim::EngineOptions& options = {}) {
  std::vector<sim::RobotIndex> order(specs.size());
  std::iota(order.begin(), order.end(), sim::RobotIndex{0});
  if (std::all_of(specs.begin(), specs.end(),
                  [](const sim::RobotSpec& s) { return s.id.has_value(); })) {
    std::sort(order.begin(), order.end(),
              [&](sim::RobotIndex a, sim::RobotIndex b) {
                return *specs[a].id < *specs[b].id;
              });
    return order;
  }
  const sim::Frame frame = sim::frame_of(specs[observer]);
  const geom::Vec2 self = specs[observer].position;
  const double q = options.observation_quantum;
  const double radius = options.visibility_radius;
  std::vector<geom::Vec2> seen(specs.size());
  std::vector<sim::RobotIndex> visible;
  std::vector<sim::RobotIndex> hidden;
  for (const sim::RobotIndex j : order) {
    geom::Vec2 g = specs[j].position;
    if (j != observer) {
      if (radius > 0.0 && geom::dist(g, self) > radius) {
        hidden.push_back(j);
        continue;
      }
      if (q > 0.0) g = {std::round(g.x / q) * q, std::round(g.y / q) * q};
    }
    seen[j] = frame.to_local(g);
    visible.push_back(j);
  }
  std::sort(visible.begin(), visible.end(),
            [&](sim::RobotIndex a, sim::RobotIndex b) {
              return seen[a] < seen[b];
            });
  visible.insert(visible.end(), hidden.begin(), hidden.end());
  return visible;
}

/// The same for the swarm `engine` was built from, under `options` (the
/// engine's own, which it does not expose).
inline std::vector<sim::RobotIndex> t0_listing(
    const sim::Engine& engine, sim::RobotIndex observer,
    const sim::EngineOptions& options = {}) {
  std::vector<sim::RobotSpec> specs;
  for (sim::RobotIndex j = 0; j < engine.robot_count(); ++j) {
    specs.push_back(engine.spec(j));
  }
  return t0_listing(specs, observer, options);
}

}  // namespace stig::oracle
