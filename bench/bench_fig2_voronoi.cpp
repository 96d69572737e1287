// F2 — Figure 2 reproduction: the two preprocessing phases for n identified
// robots with sense of direction. Prints every robot's Voronoi cell and
// granular (Figure 2a), then has robot 9 send both "0" and "1" to robot 3
// (Figure 2b) and shows how the movement decodes.
#include <iostream>

#include "bench_util.hpp"
#include "core/chat_network.hpp"
#include "geom/granular.hpp"
#include "geom/voronoi.hpp"
#include "viz/figures.hpp"

int main() {
  using namespace stig;
  std::cout << "== F2: Figure 2 — Voronoi cells, granulars and slice "
               "labels for 12 identified robots ==\n\n";

  bench::Report report("fig2_voronoi");
  const std::vector<geom::Vec2> pts = bench::scatter(12, 1234, 25.0, 4.0);
  const geom::VoronoiDiagram vd = geom::VoronoiDiagram::compute(pts);

  std::cout << "phase 1+2 (computed at t0 by every robot):\n";
  bench::Table t({"robot", "cell vertices", "cell area", "granular R"},
                 report, "voronoi preprocessing");
  for (std::size_t i = 0; i < pts.size(); ++i) {
    t.row(i, vd.cell(i).polygon.size(), vd.cell(i).polygon.area(),
          geom::granular_radius(pts, i));
  }

  std::cout << "\neach granular is sliced into 2n = 24 slices; diameter 0 "
               "is aligned North, labels increase clockwise.\n";
  const geom::Granular g9(pts[9], geom::granular_radius(pts, 9), 12,
                          geom::Vec2{0, 1});
  std::cout << "robot 9's diameter directions (label: unit vector):\n";
  for (std::size_t d = 0; d < 12; d += 3) {
    const geom::Vec2 dir = g9.direction(d, geom::DiameterSide::positive);
    std::cout << "  " << d << ": (" << std::fixed << std::setprecision(3)
              << dir.x << ", " << dir.y << ")\n";
  }

  std::cout << "\nfigure 2b — robot 9 sends '0' then '1' to robot 3:\n";
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  opt.caps.visible_ids = true;
  opt.caps.sense_of_direction = true;
  opt.record_positions = true;
  core::ChatNetwork net(pts, opt);
  // One byte 0b01000000: its first two bits on the wire after the length
  // varint land quickly; simpler: send a 1-byte message and show the first
  // few excursions with their decoded diameter.
  const std::vector<std::uint8_t> msg{0x55};
  net.send(9, 3, msg);
  net.run_until_quiescent(10'000);
  net.run(2);

  const auto& hist = net.position_history();
  int shown = 0;
  for (std::size_t step = 0; step < hist.size() && shown < 6; ++step) {
    const geom::Vec2 pos = hist[step][9];
    const auto fix = g9.classify(pos, 1e-6, geom::kPi);
    if (!fix) continue;
    std::cout << "  t=" << step << ": robot 9 at distance " << std::fixed
              << std::setprecision(3) << geom::dist(pos, g9.center())
              << " on diameter "
              << fix->diameter << " ("
              << (fix->side == geom::DiameterSide::positive
                      ? "N/E side -> bit 0"
                      : "S/W side -> bit 1")
              << ")\n";
    ++shown;
  }
  viz::SwarmDrawing what;
  what.voronoi = true;
  what.diameters = 12;
  what.naming = proto::NamingMode::lexicographic;
  viz::SvgScene fig = viz::draw_swarm(pts, what);
  if (fig.write("figure2_voronoi.svg")) {
    std::cout << "\nwrote figure2_voronoi.svg (Voronoi cells + granulars + "
                 "slice labels)\n";
  }

  std::cout << "\n(the diameter label equals the addressee's rank in the "
               "shared ID order; every robot decodes it)\n";
  std::cout << "message delivered to robot 3: "
            << (net.received(3).size() == 1 ? "yes" : "NO") << "\n";
  return 0;
}
