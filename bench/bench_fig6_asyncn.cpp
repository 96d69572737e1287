// F6 — Figure 6 reproduction: the AsyncN granular sliced into n+1 slices,
// with the extra slice kappa on the robot's horizon line serving as the
// idle/separator lane. Prints the slicing for one robot and runs a full
// asynchronous message among n robots.
#include <iostream>

#include "bench_util.hpp"
#include "core/chat_network.hpp"
#include "geom/angle.hpp"
#include "geom/granular.hpp"
#include "geom/voronoi.hpp"
#include "proto/naming.hpp"
#include "viz/figures.hpp"

int main() {
  using namespace stig;
  std::cout << "== F6: Figure 6 — AsyncN granular slicing with the kappa "
               "slice ==\n\n";

  bench::Report report("fig6_asyncn");
  const std::size_t n = 5;
  const auto pts = bench::scatter(n, 321, 20.0, 4.0);
  const std::size_t r = 2;
  const auto naming = proto::relative_naming(pts, r);
  const geom::Granular g(pts[r], geom::granular_radius(pts, r), n + 1,
                         naming.reference);

  std::cout << "robot " << r << ": granular radius " << std::fixed
            << std::setprecision(3) << g.radius() << ", " << n + 1
            << " diameters (2(n+1) = " << 2 * (n + 1) << " slices)\n";
  std::cout << "diameter 0 = kappa, on H_r = (" << naming.reference.x << ", "
            << naming.reference.y << ") — not assigned to any robot; "
            << "diameter k+1 addresses the robot of rank k:\n";
  for (std::size_t d = 0; d <= n; ++d) {
    const geom::Vec2 dir = g.direction(d, geom::DiameterSide::positive);
    std::cout << "  diameter " << d << " -> (" << std::setw(6) << dir.x
              << ", " << std::setw(6) << dir.y << ")  "
              << (d == 0 ? "[kappa: idle/separator lane]"
                         : "[addresses rank " + std::to_string(d - 1) + "]")
              << "\n";
  }

  viz::SwarmDrawing what;
  what.voronoi = true;
  what.diameters = n + 1;
  what.naming = proto::NamingMode::relative;
  what.sec = true;
  what.horizon_of = r;
  viz::SvgScene fig = viz::draw_swarm(pts, what);
  if (fig.write("figure6_asyncn.svg")) {
    std::cout << "\nwrote figure6_asyncn.svg (n+1-sliced granulars, kappa "
                 "on each horizon line)\n";
  }

  std::cout << "\nfull asynchronous message among " << n << " robots:\n";
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::asynchronous;
  opt.activation_probability = 0.5;
  opt.seed = 5;
  core::ChatNetwork net(pts, opt);
  const auto msg = bench::payload(2, 6);
  net.send(2, 4, msg);
  const bool ok = net.run_until_quiescent(3'000'000);
  net.run(256);
  std::cout << "robot 2 -> robot 4, 2-byte payload: "
            << (ok && net.received(4).size() == 1 &&
                        net.received(4)[0].payload == msg
                    ? "delivered"
                    : "FAILED")
            << " after " << net.engine().now() << " instants\n";
  std::cout << "bits signaled: " << net.stats(2).bits_sent
            << " (each waits for every robot to be observed changing "
               "twice, twice — the Lemma 4.1 double-ack)\n";
  std::cout << "idle robots moved " << net.engine().motion(0).moves
            << " times on their kappa lanes (Remark 4.3: an active robot "
               "always moves)\n";
  report.value("instants", net.engine().now());
  report.value("delivered", std::string(ok ? "true" : "false"));
  report.value("bits_sent", net.stats(2).bits_sent);
  report.value("idle_robot_moves", net.engine().motion(0).moves);
  return 0;
}
