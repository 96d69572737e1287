// E8 — the bounded Async2 variant (Section 4.1 closing remark). The basic
// protocol drifts the two robots apart forever; the paper suggests
// alternating directions (with shrinking steps to avoid collision). Our
// banded realization bounces inside a fixed band. This bench compares
// footprint growth, minimum separation (collision check) and delivery.
#include <algorithm>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/chat_network.hpp"

int main() {
  using namespace stig;
  std::cout << "== E8: unbounded vs banded Async2 ==\n\n";

  bench::Report report("e8_bounded_async");
  const auto msg = bench::payload(8, 3);
  bench::Table t({"variant", "instants run", "final gap", "max |pos|",
                  "min separation", "delivered"},
                 report, "unbounded vs banded");

  const std::vector<bool> variants = {false, true};
  struct Row {
    sim::Time instants;
    double gap, max_pos, min_sep;
    bool ok;
  };
  const std::vector<Row> rows =
      bench::batch_map(variants.size(), [&](std::size_t i) {
        core::ChatNetworkOptions opt;
        opt.synchrony = core::Synchrony::asynchronous;
        opt.async2_banded = variants[i];
        opt.seed = bench::case_seed(7, i);  // One stream per variant.
        opt.record_positions = true;
        core::ChatNetwork net({geom::Vec2{-2, 0}, geom::Vec2{2, 0}}, opt);
        net.send(0, 1, msg);
        net.send(1, 0, msg);
        const bool ok = net.run_until_quiescent(5'000'000);
        net.run(5000);  // Idle a long while after: footprint keeps moving?
        double max_pos = 0.0;
        for (const auto& config : net.position_history()) {
          for (const auto& p : config) max_pos = std::max(max_pos, p.norm());
        }
        net.run(64);
        const std::size_t delivered =
            net.received(0).size() + net.received(1).size();
        return Row{net.engine().now(),
                   geom::dist(net.engine().positions()[0],
                              net.engine().positions()[1]),
                   max_pos, net.engine().min_separation(),
                   ok && delivered == 2};
      });
  for (std::size_t i = 0; i < variants.size(); ++i) {
    t.row(variants[i] ? "banded" : "unbounded", rows[i].instants,
          rows[i].gap, rows[i].max_pos, rows[i].min_sep,
          rows[i].ok ? "2/2" : "FAIL");
  }

  std::cout << "\nexpected shape: both variants deliver everything and "
               "never collide (min separation > 0); the unbounded variant "
               "ends far from the origin and keeps drifting, the banded "
               "variant's footprint stays within the initial separation "
               "band (max |pos| ~ separation) — resolving the drawback "
               "the paper notes, without the infinitesimally small "
               "movements its 1/x-shrinking suggestion needs.\n\n";

  std::cout << "banded variant, footprint vs idle time (it must stay put):\n";
  bench::Table t2({"extra idle instants", "gap", "max |pos|"}, report,
                  "idle drift");
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::asynchronous;
  opt.async2_banded = true;
  opt.seed = 9;
  core::ChatNetwork net({geom::Vec2{-2, 0}, geom::Vec2{2, 0}}, opt);
  for (int k = 0; k < 4; ++k) {
    net.run(20'000);
    double max_pos = 0.0;
    for (const auto& p : net.engine().positions()) {
      max_pos = std::max(max_pos, p.norm());
    }
    t2.row(net.engine().now(),
           geom::dist(net.engine().positions()[0],
                      net.engine().positions()[1]),
           max_pos);
  }
  std::cout << "\nexpected shape: constant-order gap and position bound "
               "no matter how long the robots idle.\n";
  return 0;
}
