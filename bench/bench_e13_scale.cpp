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
// Table B measures end-to-end chat throughput (one 1-byte broadcast):
// the sliced synchronous protocol with by_ids naming at n in
// {32, 128, 512, 1024} and with relative naming (anonymous, chirality
// only) at n in {128, 256, 512}, and the asynchronous AsyncN protocol with
// relative naming at n in {32, 64, 128}. Instants to quiescence and bits
// delivered are gated, and so is the heap each run adds above
// construction (obs::alloc, so deterministic); construction and run times
// and bits/sec are machine-dependent. The binary exits non-zero when the
// relative n = 512 run adds more than 8 bytes per pair of robots: a run
// keeps no per-robot structure over the swarm (EXPERIMENTS.md E13).
//
// `--large` also runs relative and by_ids chats at n = 2048 and 4096, each
// in a child process of its own, and reports their peak resident set
// (VmHWM) beside build and run times: a chat swarm holds O(n) state per
// robot (t0 centers, the decode memo, listing orders, naming views and
// slot tables), over 1 GB at 4096 — see ROADMAP item 3.
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
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <fstream>
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

/// The chats of Tables B and D: which protocol, which naming.
struct Chat {
  const char* name;  ///< Table column.
  const char* key;   ///< Report key prefix.
  bool asyncn;       ///< AsyncN, asynchronous; else sliced synchronous.
  /// Identified robots with sense of direction; else anonymous robots
  /// with chirality only (relative naming), so every observer sorts.
  bool by_ids;
};
constexpr Chat kByIds{"by_ids", "chat_", false, true};
constexpr Chat kRelative{"relative", "relative_chat_", false, false};
constexpr Chat kAsyncN{"asyncn", "asyncn_chat_", true, false};

/// One chat, construction to quiescence: robot 0 broadcasts one byte.
struct ChatRun {
  bool done = false;
  std::uint64_t instants = 0;
  std::uint64_t bits = 0;
  double build_s = 0.0;
  double run_s = 0.0;
  /// Peak live heap during the run above the level after construction.
  std::int64_t run_heap = 0;
  /// Peak resident set of the process, in kB (Table D's children only).
  std::int64_t peak_rss_kb = 0;
};

ChatRun run_chat(const Chat& kind, std::size_t n, std::uint64_t seed,
                 std::uint64_t place_seed) {
  core::ChatNetworkOptions opt;
  opt.synchrony = kind.asyncn ? core::Synchrony::asynchronous
                              : core::Synchrony::synchronous;
  opt.protocol =
      kind.asyncn ? core::ProtocolKind::asyncn : core::ProtocolKind::sliced;
  opt.caps.visible_ids = kind.by_ids;
  opt.caps.sense_of_direction = kind.by_ids;
  opt.seed = seed;
  std::vector<geom::Vec2> start = grid_scatter(n, place_seed);
  ChatRun r;
  const Clock::time_point t0 = Clock::now();
  core::ChatNetwork net(std::move(start), opt);
  const Clock::time_point t1 = Clock::now();
  net.broadcast(0, std::vector<std::uint8_t>{0xA5});
  obs::alloc::reset_peak();
  const obs::alloc::Counters a0 = obs::alloc::snapshot();
  r.done = net.run_until_quiescent(1'000'000);
  const obs::alloc::Counters a1 = obs::alloc::snapshot();
  const Clock::time_point t2 = Clock::now();
  r.build_s = std::chrono::duration<double>(t1 - t0).count();
  r.run_s = std::chrono::duration<double>(t2 - t1).count();
  r.run_heap = a1.peak_live_bytes - a0.live_bytes;
  r.instants = net.engine().now();
  for (std::size_t i = 0; i < n; ++i) {
    for (const core::Delivery& d : net.received(i)) {
      r.bits += 8 * d.payload.size();
    }
  }
  return r;
}

/// This process's peak resident set (VmHWM) in kB, or -1.
std::int64_t peak_rss_kb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::stoll(line.substr(6));
  }
  return -1;
}

/// `run_chat` in a child process, so VmHWM is that chat's own peak (plus
/// what this process held when it forked). done is false when the child
/// fails.
ChatRun run_chat_apart(const Chat& kind, std::size_t n, std::uint64_t seed,
                       std::uint64_t place_seed) {
  int fd[2];
  if (pipe(fd) != 0) return {};
  const pid_t pid = fork();
  if (pid < 0) {
    close(fd[0]);
    close(fd[1]);
    return {};
  }
  if (pid == 0) {
    close(fd[0]);
    ChatRun r = run_chat(kind, n, seed, place_seed);
    r.peak_rss_kb = peak_rss_kb();
    const bool sent = write(fd[1], &r, sizeof r) == sizeof r;
    _exit(sent ? 0 : 1);
  }
  close(fd[1]);
  ChatRun r;
  const bool got = read(fd[0], &r, sizeof r) == sizeof r;
  close(fd[0]);
  int status = 0;
  waitpid(pid, &status, 0);
  if (!got || !WIFEXITED(status) || WEXITSTATUS(status) != 0) return {};
  return r;
}

/// Records one chat's values under its key prefix and robot count.
void record(bench::Report& report, const Chat& kind, std::size_t n,
            const ChatRun& r) {
  const std::string key = kind.key;
  const std::string suffix = "_n" + std::to_string(n);
  report.value(key + "instants" + suffix, r.instants);
  report.value(key + "bits_delivered" + suffix, r.bits);
  report.value(key + "build_ns" + suffix, r.build_s * 1e9);
  report.value(key + "run_ns" + suffix, r.run_s * 1e9);
  report.value(key + "bits_per_sec" + suffix,
               static_cast<double>(r.bits) / r.run_s);
  report.value(
      key + "run_heap_bytes" + suffix,
      static_cast<std::uint64_t>(std::max<std::int64_t>(r.run_heap, 0)));
  if (r.peak_rss_kb > 0) {
    report.value(key + "peak_rss_kb" + suffix,
                 static_cast<std::uint64_t>(r.peak_rss_kb));
  }
}

}  // namespace

int main(int argc, char** argv) {
  const bool large = argc == 2 && std::string(argv[1]) == "--large";
  if (argc > 1 && !large) {
    std::cerr << "usage: bench_e13_scale [--large]\n";
    return 2;
  }
  std::cout << "== E13: large-n throughput (epoch ring + grid scans) ==\n\n";
  bench::Report report("e13_scale");

  // ---- Table D (--large): chats at n = 2048 and 4096, each in a child
  // process, run first so the parent's resident set stays small.
  bool large_ok = true;
  if (large) {
    std::cout << "large chats: 1-byte broadcast, sliced synchronous "
                 "protocol, one child process each:\n";
    bench::Table td({"naming", "n", "instants", "bits", "build ms", "run ms",
                     "run heap MB", "peak RSS MB"},
                    report, "large chats");
    for (const Chat& kind : {kRelative, kByIds}) {
      for (std::size_t idx = 0; idx < 2; ++idx) {
        const std::size_t n = idx == 0 ? 2048 : 4096;
        const ChatRun r =
            run_chat_apart(kind, n, bench::case_seed(1310, idx),
                           bench::case_seed(1311, idx));
        td.row(kind.name, n, r.instants, r.bits, r.build_s * 1e3,
               r.run_s * 1e3, static_cast<double>(r.run_heap) / 1e6,
               static_cast<double>(r.peak_rss_kb) / 1e3);
        record(report, kind, n, r);
        if (!r.done) {
          std::cout << "large chat failed or did not quiesce at n = " << n
                    << "\n";
          large_ok = false;
        }
      }
    }
    std::cout << "\n";
  }

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

  // ---- Table B: end-to-end chat throughput, construction to quiescence.
  std::cout << "chat throughput: 1-byte broadcast, sliced synchronous and "
               "AsyncN protocols:\n";
  bench::Table tb({"naming", "n", "instants", "bits", "bits/instant",
                   "build ms", "run ms", "bits/s", "run heap KB"},
                  report, "chat throughput");
  const bool tracking = obs::alloc::active();
  bool run_heap_ok = true;
  const auto chat = [&](const Chat& kind, std::size_t n, std::uint64_t seed,
                        std::uint64_t place_seed) {
    const ChatRun r = run_chat(kind, n, seed, place_seed);
    tb.row(kind.name, n, r.instants, r.bits,
           static_cast<double>(r.bits) / static_cast<double>(r.instants),
           r.build_s * 1e3, r.run_s * 1e3,
           static_cast<double>(r.bits) / r.run_s,
           static_cast<double>(r.run_heap) / 1e3);
    record(report, kind, n, r);
    // No per-robot structure over the swarm may outlive the call that
    // needs it: 8 bytes per pair of robots is the bound.
    if (!kind.asyncn && !kind.by_ids && n == 512 && tracking &&
        r.run_heap > static_cast<std::int64_t>(8 * n * n)) {
      run_heap_ok = false;
    }
    if (!r.done) {
      std::cout << "broadcast did not quiesce at n = " << n << "\n";
    }
    return r.done;
  };
  for (std::size_t idx = 0; idx < 4; ++idx) {
    const std::size_t n = std::vector<std::size_t>{32, 128, 512, 1024}[idx];
    if (!chat(kByIds, n, bench::case_seed(1302, idx),
              bench::case_seed(1303, idx))) {
      return 1;
    }
  }
  for (std::size_t idx = 0; idx < 3; ++idx) {
    const std::size_t n = std::vector<std::size_t>{128, 256, 512}[idx];
    if (!chat(kRelative, n, bench::case_seed(1306, idx),
              bench::case_seed(1307, idx))) {
      return 1;
    }
  }
  for (std::size_t idx = 0; idx < 3; ++idx) {
    const std::size_t n = std::vector<std::size_t>{32, 64, 128}[idx];
    if (!chat(kAsyncN, n, bench::case_seed(1308, idx),
              bench::case_seed(1309, idx))) {
      return 1;
    }
  }
  std::cout << "relative n=512 run heap "
            << (run_heap_ok ? "within" : "OVER")
            << " 8 bytes per pair of robots\n";

  // ---- Table C: relative-naming construction (one shared naming
  // substrate per swarm).
  std::cout << "\nrelative-naming construction: sliced synchronous "
               "protocol, anonymous, chirality only:\n";
  bench::Table tc({"n", "build ms", "live MB", "peak MB", "allocs"}, report,
                  "relative-naming construction");
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
               "the byte), instants grow slowly (AsyncN's acknowledgments "
               "take about 1000), a run adds about 4 bytes of heap per "
               "pair of robots (each robot's built-granular index; no robot "
               "keeps a structure over the swarm past the call that needs "
               "it), and Table A stays ~linear in n per instant — the wall "
               "is gone end to end. Table C grows ~n^2: one shared set of rank "
               "tables plus each robot's t0 centers and decode memo; no "
               "robot builds a granular before it needs one.\n";
  return scaling_ok && run_heap_ok && memory_ok && large_ok ? 0 : 1;
}
