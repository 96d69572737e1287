// E1 — synchronous protocol costs. The paper states the synchronous
// protocols take 2 steps per bit and are silent; this bench measures
// instants/bit, sender distance/bit and idle movement across protocols and
// swarm sizes, confirming the shape: a flat 2 instants/bit independent of n.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "core/chat_network.hpp"
#include "encode/framing.hpp"
#include "obs/sink.hpp"

namespace {

/// Steps/second of a full sync run with `sink` attached (nullptr = detached
/// fast path), best of three runs to damp scheduler noise. Used to measure
/// the telemetry dispatch overhead.
double steps_per_second(stig::obs::EventSink* sink) {
  using namespace stig;
  using Clock = std::chrono::steady_clock;
  double best = 0.0;
  for (int rep = 0; rep < 3; ++rep) {
    core::ChatNetworkOptions opt;
    opt.synchrony = core::Synchrony::synchronous;
    opt.caps.visible_ids = true;
    opt.caps.sense_of_direction = true;
    core::ChatNetwork net(bench::scatter(8, 42, 40.0, 3.0), opt);
    if (sink != nullptr) net.attach_event_sink(sink);
    net.send(0, 7, bench::payload(64, 9));
    const Clock::time_point start = Clock::now();
    net.run_until_quiescent(1'000'000);
    const double secs =
        std::chrono::duration<double>(Clock::now() - start).count();
    best = std::max(best, static_cast<double>(net.engine().now()) / secs);
  }
  return best;
}

}  // namespace

int main() {
  using namespace stig;
  std::cout << "== E1: steps & distance per bit, synchronous protocols ==\n\n";

  bench::Report report("e1_sync_cost");
  const auto msg = bench::payload(16, 3);
  const double frame_bits =
      static_cast<double>(encode::encode_frame(msg).size());

  bench::Table t({"protocol", "n", "instants/bit", "dist/bit", "idle moves"},
                 report, "per-bit costs");
  struct Case {
    const char* name;
    core::ChatNetworkOptions opt;
    std::size_t n;
  };
  std::vector<Case> cases;
  {
    core::ChatNetworkOptions opt;
    opt.synchrony = core::Synchrony::synchronous;
    cases.push_back({"sync2 (3.1)", opt, 2});
  }
  for (std::size_t n : {4u, 8u, 16u, 32u}) {
    core::ChatNetworkOptions opt;
    opt.synchrony = core::Synchrony::synchronous;
    opt.caps.visible_ids = true;
    opt.caps.sense_of_direction = true;
    cases.push_back({"ids (3.2)", opt, n});
  }
  for (std::size_t n : {4u, 16u}) {
    core::ChatNetworkOptions opt;
    opt.synchrony = core::Synchrony::synchronous;
    opt.caps.sense_of_direction = true;
    cases.push_back({"lex (3.3)", opt, n});
  }
  for (std::size_t n : {4u, 16u}) {
    core::ChatNetworkOptions opt;
    opt.synchrony = core::Synchrony::synchronous;
    cases.push_back({"relative (3.4)", opt, n});
  }

  struct Row {
    double instants_per_bit, dist_per_bit;
    std::uint64_t idle_moves;
  };
  const std::vector<Row> rows =
      bench::batch_map(cases.size(), [&](std::size_t i) {
        const Case& c = cases[i];
        core::ChatNetwork net(bench::scatter(c.n, 100 + c.n, 40.0, 3.0),
                              c.opt);
        net.send(0, c.n - 1, msg);
        net.run_until_quiescent(1'000'000);
        const double instants = static_cast<double>(net.engine().now());
        // Sender distance per bit; idle moves measured on a non-sender.
        return Row{instants / frame_bits,
                   net.engine().motion(0).distance / frame_bits,
                   net.engine().motion(c.n - 1).moves};
      });
  for (std::size_t i = 0; i < cases.size(); ++i) {
    t.row(cases[i].name, cases[i].n, rows[i].instants_per_bit,
          rows[i].dist_per_bit, rows[i].idle_moves);
  }

  std::cout << "\nexpected shape: 2.00 instants/bit for every protocol and "
               "every n (one excursion + one return); 0 idle moves "
               "(silent); distance/bit = 2 * amplitude, here sigma-limited "
               "and hence constant across protocols.\n";

  std::cout << "\nbyte-coding extension (Section 3.1 remark), sync2, same "
               "16-byte payload:\n";
  bench::Table t2({"bits/symbol", "instants", "instants/bit"}, report,
                  "byte coding");
  const std::vector<unsigned> symbol_bits = {1u, 2u, 4u, 8u};
  const std::vector<sim::Time> coding_rows =
      bench::batch_map(symbol_bits.size(), [&](std::size_t i) {
        core::ChatNetworkOptions opt;
        opt.synchrony = core::Synchrony::synchronous;
        opt.sync2_bits_per_symbol = symbol_bits[i];
        core::ChatNetwork net(bench::scatter(2, 7, 10.0, 4.0), opt);
        net.send(0, 1, msg);
        net.run_until_quiescent(100'000);
        return net.engine().now();
      });
  for (std::size_t i = 0; i < symbol_bits.size(); ++i) {
    t2.row(symbol_bits[i], coding_rows[i],
           static_cast<double>(coding_rows[i]) / frame_bits);
  }
  std::cout << "\nexpected shape: instants/bit = 2/bits_per_symbol — one "
               "movement now carries a whole symbol.\n";

  // Telemetry overhead: the engine pays one null check per step when no
  // sink is attached. Warm up once, then compare detached vs attached.
  std::cout << "\ntelemetry dispatch overhead (8 robots, 64-byte payload):\n";
  steps_per_second(nullptr);  // Warm-up: page in code and allocator state.
  const double base = steps_per_second(nullptr);
  obs::CountingSink counting;
  const double with_sink = steps_per_second(&counting);
  const double overhead_pct = 100.0 * (base / with_sink - 1.0);
  bench::Table t3({"sink", "steps/sec", "overhead %"}, report,
                  "telemetry overhead");
  t3.row("none", base, 0.0);
  t3.row("counting", with_sink, overhead_pct);
  report.value("null_sink_steps_per_sec", base);
  report.value("counting_sink_steps_per_sec", with_sink);
  report.value("null_sink_overhead_pct", overhead_pct);
  std::cout << "\nexpected shape: overhead well under 5% — the detached "
               "path is a single branch; the counting sink adds one "
               "virtual call per event.\n";
  return 0;
}
