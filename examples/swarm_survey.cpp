// Swarm survey: distributed computation over movement-signals.
//
// The paper's point is that explicit communication "enables the use of
// distributed algorithms among the robots". This example runs one: a
// max-aggregation over sensor readings in a fully anonymous swarm (no IDs,
// no compass — chirality only, the paper's weakest Section 3.4 setting).
//
// Scenario: ten scattered survey robots each hold a local radiation reading.
// Robot 0 (as *we* index it — the robots themselves are anonymous and use
// the SEC-based relative naming) acts as the collector: every robot reports
// its reading by movement-signals; the collector replies to everyone with
// the maximum. Classic converge-cast + broadcast, except the network layer
// is robots wiggling inside their Voronoi granulars.
//
//   ./build/examples/swarm_survey
#include <cstdint>
#include <iomanip>
#include <iostream>
#include <vector>

#include "core/chat_network.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

int main() {
  using namespace stig;

  sim::Rng rng(2026);
  const std::size_t n = 10;
  const std::vector<geom::Vec2> positions = sim::scatter(rng, n, 40.0, 4.0);

  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  // No visible_ids, no sense_of_direction: ChatNetwork picks the SEC-based
  // relative naming and gives every robot a random private compass.
  core::ChatNetwork net(positions, opt);

  std::vector<std::uint8_t> readings(n);
  std::cout << "survey readings:";
  for (std::size_t i = 0; i < n; ++i) {
    readings[i] = static_cast<std::uint8_t>(rng.uniform_int(10, 200));
    std::cout << ' ' << int{readings[i]};
  }
  std::cout << "\n\nphase 1: converge-cast — everyone reports to the "
               "collector by movement-signals\n";

  const sim::RobotIndex collector = 0;
  for (std::size_t i = 1; i < n; ++i) {
    const std::vector<std::uint8_t> report{readings[i]};
    net.send(i, collector, report);
  }
  if (!net.run_until_quiescent(1'000'000)) return 1;
  net.run(2);

  std::uint8_t max_reading = readings[collector];
  for (const core::Delivery& d : net.received(collector)) {
    max_reading = std::max(max_reading, d.payload.at(0));
  }
  std::cout << "collector decoded " << net.received(collector).size()
            << " reports; swarm maximum = " << int{max_reading} << "\n";

  std::cout << "\nphase 2: broadcast — the collector answers everyone\n";
  for (std::size_t i = 1; i < n; ++i) {
    const std::vector<std::uint8_t> answer{max_reading};
    net.send(collector, i, answer);
  }
  if (!net.run_until_quiescent(1'000'000)) return 1;
  net.run(2);

  bool all_agree = true;
  for (std::size_t i = 1; i < n; ++i) {
    const auto& got = net.received(i);
    const bool ok = !got.empty() && got.back().payload.at(0) == max_reading;
    all_agree = all_agree && ok;
  }
  std::cout << (all_agree ? "every robot now knows the maximum"
                          : "DISAGREEMENT — bug!")
            << "\n\nstats:\n";
  std::cout << std::setw(6) << "robot" << std::setw(12) << "bits sent"
            << std::setw(14) << "bits decoded" << std::setw(12) << "distance"
            << '\n';
  for (std::size_t i = 0; i < n; ++i) {
    std::cout << std::setw(6) << i << std::setw(12)
              << net.stats(i).bits_sent << std::setw(14)
              << net.stats(i).bits_decoded << std::setw(12) << std::fixed
              << std::setprecision(2) << net.engine().motion(i).distance
              << '\n';
  }
  std::cout << "min pairwise separation over the whole run: "
            << net.engine().min_separation()
            << " (collision avoidance held)\n";
  return all_agree ? 0 : 1;
}
