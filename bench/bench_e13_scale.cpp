// E13 — large-n throughput: the O(n^2)-per-instant wall, measured.
//
// Table A steps an identified swarm of lightweight oscillating robots
// under a k-subset scheduler (k = 8) for 2000 instants at n in
// {32, 128, 512, 1024, 4096} and reports per-instant wall time. On the
// quadratic-era engine (per-robot configuration copies, all-pairs
// collision/min-separation scans) per-instant cost grew ~n^2 even with a
// constant number of activations; with the epoch ring and grid-backed
// scans it grows ~k*n. The binary SELF-GATES: it exits non-zero when the
// n=4096 / n=32 per-instant ratio exceeds a quarter of the quadratic
// prediction (4096/32)^2 — so CI fails if the wall ever comes back.
//
// Table B measures end-to-end chat throughput (sliced synchronous
// protocol, one 1-byte broadcast): by_ids naming at n in
// {32, 128, 512, 1024} and relative naming (anonymous, chirality only) at
// n in {128, 256, 512}. Instants to quiescence and bits delivered are
// gated; construction and run times and bits/sec are machine-dependent.
// n = 4096 is omitted: a chat swarm holds O(n) state per robot (t0
// centers, the decode memo, listing orders, naming views and slot
// tables: about 70 bytes per pair of robots), over 1 GB at 4096 before
// the first instant runs — see EXPERIMENTS.md E13.
//
// Table C measures construction alone for the relative (chirality-only)
// naming at n in {128, 256, 512, 1024}: build time, live heap after
// construction, peak heap during it, and allocation count (obs::alloc,
// so deterministic). The n x n rank tables are built once per swarm, and
// each robot keeps O(n): its t0 centers and decode memo; granulars are
// built on first use, after construction. n = 1024 is printed but not
// gated. The binary also exits non-zero when n = 512 leaves more than
// 64 MB live.
//
// Deterministic keys (activations, instants, bits, live bytes and
// allocations) are baseline-gated by `stigreport diff`; per-instant,
// per-second and `_ns` keys carry the skip suffixes of the
// obs/metric_keys.hpp convention.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <iostream>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hpp"
#include "core/chat_network.hpp"
#include "obs/alloc_track.hpp"
#include "sim/engine.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace {

using namespace stig;
using Clock = std::chrono::steady_clock;

/// The E13 swarms are jittered grids: their baselines were captured on
/// that layout, and it places any n without rejection.
std::vector<geom::Vec2> grid_scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::jittered_grid(rng, n);
}

/// Oscillates +-0.01 around its start: every activation commits a real
/// move (exercising the collision scan and trace min-separation paths)
/// while staying far inside its 3-unit grid slot.
class Oscillator final : public sim::Robot {
 public:
  void initialize(const sim::Snapshot&) override {}
  geom::Vec2 on_activate(const sim::Snapshot& snap) override {
    flip_ = !flip_;
    return snap.self_robot().position + geom::Vec2{flip_ ? 0.01 : -0.01, 0.0};
  }

 private:
  bool flip_ = false;
};

}  // namespace

int main() {
  std::cout << "== E13: large-n throughput (epoch ring + grid scans) ==\n\n";
  bench::Report report("e13_scale");

  // ---- Table A: engine scaling, k-subset activation (k = 8).
  const sim::Time kInstants = 2000;
  const std::size_t kSubset = 8;
  std::cout << "engine per-instant cost, " << kInstants
            << " instants, k-subset scheduler (k = " << kSubset << "):\n";
  bench::Table ta({"n", "activations", "instants/s", "per-instant us"},
                  report, "engine scaling");
  const std::vector<std::size_t> kSizes{32, 128, 512, 1024, 4096};
  std::vector<double> per_instant_ns;
  for (std::size_t idx = 0; idx < kSizes.size(); ++idx) {
    const std::size_t n = kSizes[idx];
    std::vector<sim::RobotSpec> specs;
    std::vector<std::unique_ptr<sim::Robot>> programs;
    specs.reserve(n);
    programs.reserve(n);
    const std::vector<geom::Vec2> start =
        grid_scatter(n, bench::case_seed(1300, idx));
    for (std::size_t i = 0; i < n; ++i) {
      sim::RobotSpec s;
      s.position = start[i];
      s.sigma = 0.25;
      s.id = static_cast<sim::VisibleId>(i + 1);
      specs.push_back(s);
      programs.push_back(std::make_unique<Oscillator>());
    }
    sim::Engine engine(specs, std::move(programs),
                       std::make_unique<sim::KSubsetScheduler>(
                           kSubset, bench::case_seed(1301, idx)));
    const Clock::time_point t0 = Clock::now();
    engine.run(kInstants);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();

    std::uint64_t activations = 0;
    for (std::size_t i = 0; i < n; ++i) {
      activations += engine.motion(i).activations;
    }
    const double ns = wall / static_cast<double>(kInstants) * 1e9;
    per_instant_ns.push_back(ns);
    ta.row(n, activations, static_cast<double>(kInstants) / wall,
           ns / 1000.0);
    const std::string suffix = "_n" + std::to_string(n);
    report.value("activations" + suffix, activations);
    report.value("per_instant_ns" + suffix, ns);
    report.value("instants_per_sec" + suffix,
                 static_cast<double>(kInstants) / wall);
  }

  // Self-gate: the large-n/small-n per-instant ratio must stay far below
  // the quadratic prediction. ~k*n scaling predicts ratio ~128 here; the
  // gate allows up to a quarter of the quadratic 16384, so only a
  // genuine return of an O(n^2)-per-instant scan can trip it.
  const double ratio = per_instant_ns.back() / per_instant_ns.front();
  const double quadratic = std::pow(
      static_cast<double>(kSizes.back()) / static_cast<double>(kSizes.front()),
      2.0);
  const bool scaling_ok = ratio <= 0.25 * quadratic;
  report.value("scaling_ratio_vs_quadratic_pct", 100.0 * ratio / quadratic);
  std::cout << "\nn=4096/n=32 per-instant ratio " << ratio << " vs quadratic "
            << quadratic << " (" << 100.0 * ratio / quadratic
            << "% of quadratic) -> " << (scaling_ok ? "ok" : "REGRESSION")
            << "\n\n";

  // ---- Table B: end-to-end chat throughput (sliced sync), construction
  // to quiescence.
  std::cout << "chat throughput: 1-byte broadcast, sliced synchronous "
               "protocol:\n";
  bench::Table tb({"naming", "n", "instants", "bits", "bits/instant",
                   "build ms", "run ms", "bits/s"},
                  report, "chat throughput");
  const std::vector<std::uint8_t> one_byte{0xA5};
  // by_ids: identified robots with sense of direction. relative:
  // anonymous robots with chirality only, so every observer sorts.
  const auto chat = [&](bool by_ids, std::size_t n, std::uint64_t seed,
                        std::uint64_t place_seed) {
    core::ChatNetworkOptions opt;
    opt.synchrony = core::Synchrony::synchronous;
    opt.protocol = core::ProtocolKind::sliced;
    opt.caps.visible_ids = by_ids;
    opt.caps.sense_of_direction = by_ids;
    opt.seed = seed;
    std::vector<geom::Vec2> start = grid_scatter(n, place_seed);
    const Clock::time_point t0 = Clock::now();
    core::ChatNetwork net(std::move(start), opt);
    const Clock::time_point t1 = Clock::now();
    net.broadcast(0, one_byte);
    const bool done = net.run_until_quiescent(1'000'000);
    const Clock::time_point t2 = Clock::now();
    const double build = std::chrono::duration<double>(t1 - t0).count();
    const double run = std::chrono::duration<double>(t2 - t1).count();
    const std::uint64_t instants = net.engine().now();
    std::uint64_t bits = 0;
    for (std::size_t i = 0; i < n; ++i) {
      for (const core::Delivery& d : net.received(i)) {
        bits += 8 * d.payload.size();
      }
    }
    tb.row(by_ids ? "by_ids" : "relative", n, instants, bits,
           static_cast<double>(bits) / static_cast<double>(instants),
           build * 1e3, run * 1e3, static_cast<double>(bits) / run);
    const std::string key = by_ids ? "chat_" : "relative_chat_";
    const std::string suffix = "_n" + std::to_string(n);
    report.value(key + "instants" + suffix, instants);
    report.value(key + "bits_delivered" + suffix, bits);
    report.value(key + "build_ns" + suffix, build * 1e9);
    report.value(key + "run_ns" + suffix, run * 1e9);
    report.value(key + "bits_per_sec" + suffix,
                 static_cast<double>(bits) / run);
    if (!done) {
      std::cout << "broadcast did not quiesce at n = " << n << "\n";
    }
    return done;
  };
  for (std::size_t idx = 0; idx < 4; ++idx) {
    const std::size_t n = std::vector<std::size_t>{32, 128, 512, 1024}[idx];
    if (!chat(true, n, bench::case_seed(1302, idx),
              bench::case_seed(1303, idx))) {
      return 1;
    }
  }
  for (std::size_t idx = 0; idx < 3; ++idx) {
    const std::size_t n = std::vector<std::size_t>{128, 256, 512}[idx];
    if (!chat(false, n, bench::case_seed(1306, idx),
              bench::case_seed(1307, idx))) {
      return 1;
    }
  }

  // ---- Table C: relative-naming construction (one shared naming
  // substrate per swarm).
  std::cout << "\nrelative-naming construction: sliced synchronous "
               "protocol, anonymous, chirality only:\n";
  bench::Table tc({"n", "build ms", "live MB", "peak MB", "allocs"}, report,
                  "relative-naming construction");
  const bool tracking = obs::alloc::active();
  report.value("alloc_tracking", tracking);
  bool memory_ok = true;
  for (std::size_t idx = 0; idx < 4; ++idx) {
    const std::size_t n = std::vector<std::size_t>{128, 256, 512, 1024}[idx];
    core::ChatNetworkOptions opt;
    opt.synchrony = core::Synchrony::synchronous;
    opt.protocol = core::ProtocolKind::sliced;
    opt.seed = bench::case_seed(1304, idx);
    std::vector<geom::Vec2> start =
        grid_scatter(n, bench::case_seed(1305, idx));
    obs::alloc::reset_peak();
    const obs::alloc::Counters a0 = obs::alloc::snapshot();
    const Clock::time_point t0 = Clock::now();
    const core::ChatNetwork net(std::move(start), opt);
    const double wall =
        std::chrono::duration<double>(Clock::now() - t0).count();
    const obs::alloc::Counters a1 = obs::alloc::snapshot();
    const std::int64_t live = a1.live_bytes - a0.live_bytes;
    const std::int64_t peak = a1.peak_live_bytes - a0.live_bytes;
    const std::uint64_t allocs = a1.allocs - a0.allocs;
    tc.row(n, wall * 1e3, static_cast<double>(live) / 1e6,
           static_cast<double>(peak) / 1e6, allocs);
    const std::string suffix = "_n" + std::to_string(n);
    report.value("relative_build_ns" + suffix, wall * 1e9);
    if (n == 1024) continue;  // Reported, not gated.
    report.value("relative_build_live_bytes" + suffix,
                 static_cast<std::uint64_t>(std::max<std::int64_t>(live, 0)));
    report.value("relative_build_allocs" + suffix, allocs);
    if (n == 512 && tracking && live > 64'000'000) memory_ok = false;
  }
  std::cout << "n=512 construction live heap "
            << (memory_ok ? "within" : "OVER") << " the 64 MB bound\n";

  std::cout << "\nexpected shape: bits scale with n (every robot receives "
               "the byte), instants grow slowly, and Table A stays ~linear "
               "in n per instant — the wall is gone end to end. Table C "
               "grows ~n^2: one shared set of rank tables plus each "
               "robot's t0 centers and decode memo; no robot builds a "
               "granular before it needs one.\n";
  return scaling_ok && memory_ok ? 0 : 1;
}
