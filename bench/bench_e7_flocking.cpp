// E7 — the Section 5 flocking remark, quantified: the swarm drifts at a
// common velocity while chatting; receivers subtract the agreed movement.
// Sweeps the flock speed and verifies delivery stays intact while the
// convoy covers real ground; also shows the price: flocking forfeits the
// silence property.
#include <algorithm>
#include <iostream>
#include <string>
#include <vector>

#include "bench_util.hpp"
#include "core/chat_network.hpp"

int main() {
  using namespace stig;
  std::cout << "== E7: communicating while flocking ==\n\n";

  const std::size_t n = 5;
  const auto start = bench::scatter(n, 700, 15.0, 4.0);
  const auto msg = bench::payload(8, 1);

  bench::Report report("e7_flocking");
  bench::Table t({"flock speed", "delivered", "instants", "convoy travel",
                  "drift error"},
                 report, "delivery while flocking");
  const std::vector<double> speeds = {0.0, 0.02, 0.05, 0.1, 0.2};
  struct Row {
    std::string delivered;
    sim::Time instants;
    double travel, max_err;
  };
  const std::vector<Row> rows =
      bench::batch_map(speeds.size(), [&](std::size_t idx) {
        const double speed = speeds[idx];
        core::ChatNetworkOptions opt;
        opt.synchrony = core::Synchrony::synchronous;
        opt.caps.sense_of_direction = true;
        opt.flock_velocity = geom::Vec2{speed, speed / 2};
        opt.sigma = 1.0;  // Covers drift + signal.
        core::ChatNetwork net(start, opt);
        for (std::size_t i = 1; i < n; ++i) net.send(0, i, msg);
        const bool ok = net.run_until_quiescent(1'000'000);
        net.run(2);
        std::size_t delivered = 0;
        for (std::size_t i = 1; i < n; ++i) {
          delivered += net.received(i).size();
        }
        const double tnow = static_cast<double>(net.engine().now());
        const geom::Vec2 expected = opt.flock_velocity * tnow;
        double max_err = 0.0;
        for (std::size_t i = 0; i < n; ++i) {
          max_err = std::max(
              max_err,
              geom::dist(net.engine().positions()[i] - start[i], expected));
        }
        return Row{ok ? std::to_string(delivered) + "/" +
                            std::to_string(n - 1)
                      : "TIMEOUT",
                   net.engine().now(), expected.norm(), max_err};
      });
  for (std::size_t i = 0; i < speeds.size(); ++i) {
    t.row(speeds[i], rows[i].delivered, rows[i].instants, rows[i].travel,
          rows[i].max_err);
  }
  std::cout << "\nexpected shape: every row delivers all messages; convoy "
               "travel grows linearly with flock speed; drift error stays "
               "at floating-point noise — decoding subtracts the agreed "
               "movement exactly.\n\n";

  std::cout << "silence price: idle moves during 500 message-free instants\n";
  bench::Table t2({"flock speed", "idle moves/robot"}, report,
                  "silence forfeited");
  for (double speed : {0.0, 0.05}) {
    core::ChatNetworkOptions opt;
    opt.synchrony = core::Synchrony::synchronous;
    opt.caps.sense_of_direction = true;
    opt.flock_velocity = geom::Vec2{speed, 0};
    opt.sigma = 1.0;
    core::ChatNetwork net(start, opt);
    net.run(500);
    t2.row(speed,
           static_cast<double>(net.engine().motion(0).moves));
  }
  std::cout << "\nexpected shape: a stationary swarm is silent (0); a "
               "flocking swarm moves every instant by definition.\n";
  return 0;
}
