#include "viz/figures.hpp"

#include <array>

#include "geom/sec.hpp"
#include "geom/voronoi.hpp"
#include "proto/naming.hpp"

namespace stig::viz {

const std::string& robot_color(std::size_t i) {
  static const std::array<std::string, 8> kPalette = {
      "#1f77b4", "#d62728", "#2ca02c", "#9467bd",
      "#ff7f0e", "#17becf", "#8c564b", "#e377c2"};
  return kPalette[i % kPalette.size()];
}

SvgScene draw_swarm(std::span<const geom::Vec2> pts,
                    const SwarmDrawing& what) {
  SvgScene scene;

  if (what.voronoi) {
    const geom::VoronoiDiagram vd = geom::VoronoiDiagram::compute(
        pts, /*margin=*/0.15 * 50.0);
    Style cell;
    cell.stroke = "#888888";
    cell.stroke_width = 0.8;
    for (const geom::VoronoiCell& c : vd.cells()) {
      scene.polygon(c.polygon, cell);
    }
  }

  const geom::Circle sec = geom::smallest_enclosing_circle(pts);
  if (what.sec) {
    Style s;
    s.stroke = "#444444";
    s.dash = "6 3";
    scene.circle(sec, s);
    scene.dot(sec.center, 0.15, "#444444");
    scene.text(sec.center + geom::Vec2{0.0, 0.6}, "O", 12.0, "#444444");
  }
  if (what.horizon_of && *what.horizon_of < pts.size()) {
    const geom::Vec2 dir =
        proto::horizon_direction(pts, *what.horizon_of, sec);
    Style h;
    h.stroke = "#d62728";
    h.dash = "3 3";
    scene.line(sec.center - dir * sec.radius * 0.1,
               sec.center + dir * sec.radius * 1.2, h);
  }

  for (std::size_t i = 0; i < pts.size(); ++i) {
    if (what.granulars || what.diameters > 0) {
      const double radius = geom::granular_radius(pts, i);
      const geom::Vec2 reference =
          what.naming == proto::NamingMode::relative
              ? proto::horizon_direction(pts, i, sec)
              : geom::Vec2{0.0, 1.0};
      const geom::Granular g(pts[i], radius,
                             std::max<std::size_t>(what.diameters, 1),
                             reference);
      Style disc;
      disc.stroke = robot_color(i);
      disc.dash = "2 2";
      Style diam;
      diam.stroke = robot_color(i);
      diam.stroke_width = 0.5;
      diam.opacity = 0.6;
      if (what.diameters > 0) {
        scene.granular(g, disc, diam, /*label_diameters=*/pts.size() <= 16);
      } else if (what.granulars) {
        scene.circle(pts[i], radius, disc);
      }
    }
    scene.dot(pts[i], 0.25, robot_color(i));
    if (what.label_robots) {
      scene.text(pts[i] + geom::Vec2{0.0, 0.5}, std::to_string(i), 11.0,
                 robot_color(i));
    }
  }
  return scene;
}

void draw_trajectories(
    SvgScene& scene,
    const std::vector<std::vector<geom::Vec2>>& history) {
  if (history.empty()) return;
  const std::size_t n = history.front().size();
  std::vector<geom::Vec2> path;
  path.reserve(history.size());
  for (std::size_t i = 0; i < n; ++i) {
    path.clear();
    for (const auto& config : history) path.push_back(config[i]);
    Style s;
    s.stroke = robot_color(i);
    s.stroke_width = 0.8;
    s.opacity = 0.7;
    scene.polyline(path, s);
    scene.dot(path.front(), 0.2, robot_color(i));
    scene.dot(path.back(), 0.3, robot_color(i));
  }
}

}  // namespace stig::viz
