// fuzz_batch — the user's own path: `stigfuzz --cases N --seed S --jobs 4
// --no-shrink`, run as a child process. One operation is one invocation
// over one contiguous seed range (case indices 0..N-1 of its master seed),
// with no filtering and no shrinking, so every oracle failure the fuzzer
// finds counts. It drives the tool rather than fuzz::run_cases because
// the tool's per-chunk pool barrier is where its parallelism goes.
#include <fcntl.h>
#include <spawn.h>
#include <sys/resource.h>
#include <sys/wait.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "fuzz/batch.hpp"
#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzzer.hpp"
#include "par/seed.hpp"

extern char** environ;

namespace perfbench {

using namespace stig;

namespace {

constexpr std::size_t kCasesPerInvocation = 500;
constexpr std::size_t kJobs = 4;
/// Approximate invocation wall time on a 4-core x86 VM; sizes the run.
constexpr double kInvocationS = 1.0;

struct ChildRun {
  double wall_s = 0.0;
  double cpu_s = 0.0;  ///< User plus system time of the child.
  long max_rss_kb = 0;
  int exit_code = -1;
  std::string out;
  std::string err;
};

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Runs `args` with stdout and stderr sent to files under `dir`, waits for
/// it, and returns its wall and CPU time, peak RSS and output. The child's
/// ru_maxrss also covers this process's resident set at spawn time, which
/// is far below stigfuzz's own peak.
ChildRun run_child(const std::vector<std::string>& args,
                   const std::string& dir) {
  const std::string out_path = dir + "/child.out";
  const std::string err_path = dir + "/child.err";
  posix_spawn_file_actions_t fa;
  posix_spawn_file_actions_init(&fa);
  posix_spawn_file_actions_addopen(&fa, 1, out_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  posix_spawn_file_actions_addopen(&fa, 2, err_path.c_str(),
                                   O_WRONLY | O_CREAT | O_TRUNC, 0644);
  std::vector<char*> argv;
  for (const std::string& a : args) {
    argv.push_back(const_cast<char*>(a.c_str()));
  }
  argv.push_back(nullptr);

  ChildRun r;
  pid_t pid = 0;
  const std::int64_t t0 = now_ns();
  const int rc = posix_spawn(&pid, argv[0], &fa, nullptr, argv.data(), environ);
  posix_spawn_file_actions_destroy(&fa);
  if (rc != 0) throw std::runtime_error("cannot spawn " + args[0]);
  int status = 0;
  rusage ru{};
  while (wait4(pid, &status, 0, &ru) < 0) {
    if (errno != EINTR) throw std::runtime_error("wait4 failed");
  }
  r.wall_s = static_cast<double>(now_ns() - t0) * 1e-9;
  r.cpu_s = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
            static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) *
                1e-6;
  r.max_rss_kb = ru.ru_maxrss;
  r.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  r.out = slurp(out_path);
  r.err = slurp(err_path);
  return r;
}

std::vector<std::string> stigfuzz_args(const Options& opt, std::size_t cases,
                                       std::uint64_t master,
                                       const std::string& repro_dir) {
  return {opt.stigfuzz, "--cases", std::to_string(cases), "--seed",
          std::to_string(master), "--jobs", std::to_string(kJobs),
          "--no-shrink", "--out", repro_dir};
}

/// One timed invocation and what its output says.
struct Invocation {
  ChildRun run;
  std::vector<std::uint64_t> seeds;
  std::map<std::uint64_t, std::string> failures;  ///< Seed -> kind name.
  std::size_t failure_lines = 0;  ///< "case seed" lines on stderr.
};

/// Fault-masked (redundant lanes) or corrupted (arbitrary state) cases.
bool faulted(const fuzz::FuzzConfig& cfg) {
  return cfg.group_size >= 2 || !cfg.fault_plan.corrupts.empty();
}

/// Parses and checks one invocation's output: the summary line, one
/// "case seed" line per failure, every failing seed inside the range, and
/// the exit code agreeing with the failure count.
void check_invocation(const Invocation& inv, Result& res) {
  const std::string want = "stigfuzz: " + std::to_string(inv.seeds.size()) +
                           " case(s), " + std::to_string(inv.failures.size()) +
                           " failure(s)";
  if (inv.run.out.find(want) == std::string::npos) {
    res.fail_check("stigfuzz summary does not read '" + want + "'");
  }
  if (inv.failure_lines != inv.failures.size()) {
    res.fail_check("stigfuzz failure lines do not parse");
  }
  if (inv.run.exit_code != (inv.failures.empty() ? 0 : 1)) {
    res.fail_check("stigfuzz exit code " + std::to_string(inv.run.exit_code));
  }
  for (const auto& [seed, kind] : inv.failures) {
    if (std::find(inv.seeds.begin(), inv.seeds.end(), seed) ==
        inv.seeds.end()) {
      res.fail_check("failure reported for a seed outside the range");
    }
  }
}

Invocation invoke(const Options& opt, std::uint64_t master,
                  const std::string& repro_dir) {
  Invocation inv;
  for (std::size_t i = 0; i < kCasesPerInvocation; ++i) {
    inv.seeds.push_back(par::derive_seed(master, i));
  }
  inv.run = run_child(
      stigfuzz_args(opt, kCasesPerInvocation, master, repro_dir),
      opt.work_dir);
  std::filesystem::remove_all(repro_dir);
  std::istringstream err(inv.run.err);
  std::string line;
  while (std::getline(err, line)) {
    if (line.rfind("case seed ", 0) != 0) continue;
    ++inv.failure_lines;
    std::istringstream ls(line.substr(10));
    std::uint64_t seed = 0;
    std::string kind;
    char colon = 0;
    if (ls >> seed >> colon >> kind) inv.failures[seed] = kind;
  }
  return inv;
}

}  // namespace

Result run_fuzz(const Options& opt) {
  if (opt.stigfuzz.empty()) throw std::invalid_argument("--stigfuzz missing");
  const std::string repro_dir = opt.work_dir + "/repros";
  const std::size_t invocations = std::max<std::size_t>(
      2, static_cast<std::size_t>(std::lround(opt.seconds / kInvocationS)));

  Result res;
  // Set-up time is the tool's own start-up: the CPU time of the same
  // command with zero cases, sampled once before every invocation so the
  // samples span the run rather than one moment of it.
  const auto sample_setup = [&] {
    const ChildRun r =
        run_child(stigfuzz_args(opt, 0, opt.seed, repro_dir), opt.work_dir);
    if (r.exit_code != 0) res.fail_check("stigfuzz --cases 0 failed");
    res.setup_s.push_back(r.cpu_s);
  };
  sample_setup();
  if (opt.setup_only) return res;

  Tracer tracer;
  std::vector<Invocation> runs;
  std::vector<double> untraced_wall;
  // A traced run invokes twice per range and then re-runs every case
  // twice in-process, so it covers a third of the ranges.
  const std::size_t ranges = opt.trace ? (invocations + 2) / 3 : invocations;
  const std::int64_t loop0 = now_ns();
  for (std::size_t k = 0; k < ranges; ++k) {
    if (static_cast<double>(now_ns() - loop0) * 1e-9 >
        kTimeGuard * static_cast<double>(invocations) * kInvocationS) {
      res.notes.push_back("time guard: stopped after " + std::to_string(k) +
                          " invocations");
      break;
    }
    const std::uint64_t master = par::derive_seed(opt.seed, k);
    sample_setup();
    if (opt.trace) {
      // Reference invocation without the span, for the tracing overhead.
      untraced_wall.push_back(invoke(opt, master, repro_dir).run.wall_s);
    }
    const std::int64_t t0 = now_ns();
    runs.push_back(invoke(opt, master, repro_dir));
    if (opt.trace) {
      tracer.add("fuzz.invocation", t0, t0 + static_cast<std::int64_t>(
                                                 runs.back().run.wall_s * 1e9),
                 -1, static_cast<std::uint32_t>(k));
    }
  }

  // Exact counts and the honest failure account.
  std::vector<std::uint64_t> all_seeds;
  std::map<std::uint64_t, std::string> tool_failures;
  double tool_wall = 0.0;
  std::vector<double> walls;
  std::vector<double> cpus;
  std::vector<double> rss_mb;
  for (const Invocation& inv : runs) {
    check_invocation(inv, res);
    all_seeds.insert(all_seeds.end(), inv.seeds.begin(), inv.seeds.end());
    tool_failures.insert(inv.failures.begin(), inv.failures.end());
    tool_wall += inv.run.wall_s;
    walls.push_back(inv.run.wall_s);
    cpus.push_back(inv.run.cpu_s);
    rss_mb.push_back(static_cast<double>(inv.run.max_rss_kb) / 1024.0);
  }
  res.attempted = all_seeds.size();
  res.failed = tool_failures.size();
  res.counts["fuzz.cases"] = all_seeds.size();
  res.counts["fuzz.verdict.pass"] = all_seeds.size() - tool_failures.size();
  for (const std::uint64_t seed : all_seeds) {
    const fuzz::FuzzConfig cfg = fuzz::sample_config(seed);
    ++res.counts[std::string("fuzz.proto.") +
                 core::protocol_kind_name(cfg.protocol)];
    if (cfg.group_size >= 2) ++res.counts["fuzz.fault_masked"];
    if (!cfg.fault_plan.corrupts.empty()) ++res.counts["fuzz.corrupted"];
  }
  const auto tool_verdict = [&](std::uint64_t seed) -> std::string {
    const auto it = tool_failures.find(seed);
    return it == tool_failures.end() ? "none" : it->second;
  };
  for (const auto& [seed, kind] : tool_failures) {
    ++res.counts["fuzz.verdict." + kind];
    res.notes.push_back("failing case seed " + std::to_string(seed) + ": " +
                        kind);
  }
  // Wall-clock figures of the untraced invocations, in both modes.
  const std::vector<double>& untraced = opt.trace ? untraced_wall : walls;
  res.put("wall.op_p50_ms", quantile(untraced, 0.5) * 1e3, "ms");
  res.put("wall.op_p90_ms", quantile(untraced, 0.9) * 1e3, "ms");
  res.put("wall.throughput_per_s",
          static_cast<double>(kCasesPerInvocation) / quantile(untraced, 0.5),
          "1/s");
  // Every reported failure must reproduce in this process, same verdict.
  if (!opt.trace) {
    for (const auto& [seed, kind] : tool_failures) {
      const fuzz::CaseResult r = fuzz::run_case(fuzz::sample_config(seed));
      if (kind != fuzz::failure_kind_name(r.kind)) {
        res.fail_check("case seed " + std::to_string(seed) +
                       " does not reproduce in-process");
      }
    }
    res.put("cpu_ms_per_op", quantile(cpus, 0.5) * 1e3, "ms");
    // Median over invocations of each child's peak: the maximum would be
    // set by whichever seed range drew the largest case.
    res.put("peak_rss_mb", quantile(rss_mb, 0.5), "MB");
    return res;
  }

  // Traced: every case again on this thread, then once through the
  // library's own batch call. Both must agree with the tool seed for seed.
  std::map<std::string, double> proto_ns;
  double fault_ns = 0.0;
  double serial_ns = 0.0;
  for (std::size_t i = 0; i < all_seeds.size(); ++i) {
    const std::uint64_t seed = all_seeds[i];
    const std::int64_t t0 = now_ns();
    const fuzz::FuzzConfig cfg = fuzz::sample_config(seed);
    const fuzz::CaseResult r = fuzz::run_case(cfg);
    const std::int64_t t1 = now_ns();
    tracer.add("fuzz.case", t0, t1, -1, static_cast<std::uint32_t>(i));
    const auto dt = static_cast<double>(t1 - t0);
    serial_ns += dt;
    proto_ns[core::protocol_kind_name(cfg.protocol)] += dt;
    if (faulted(cfg)) fault_ns += dt;
    if (tool_verdict(seed) != fuzz::failure_kind_name(r.kind)) {
      res.fail_check("case seed " + std::to_string(seed) +
                     ": serial verdict differs from stigfuzz");
    }
  }
  const std::int64_t l0 = now_ns();
  const std::vector<fuzz::BatchCase> lib =
      fuzz::run_cases(all_seeds, std::nullopt, kJobs);
  const std::int64_t l1 = now_ns();
  tracer.add("par.run_cases", l0, l1, -1, 0);
  for (const fuzz::BatchCase& bc : lib) {
    if (tool_verdict(bc.case_seed) != fuzz::failure_kind_name(bc.result.kind)) {
      res.fail_check("run_cases verdict differs from stigfuzz");
    }
  }

  const std::vector<double> cases = tracer.durations("fuzz.case");
  const double serial_s = serial_ns * 1e-9;
  const double lib_s = static_cast<double>(l1 - l0) * 1e-9;
  res.put("fuzz.case_p50_ms", quantile(cases, 0.5) * 1e-6, "ms");
  res.put("fuzz.case_p99_ms", quantile(cases, 0.99) * 1e-6, "ms");
  res.put("fuzz.case_max_ms", quantile(cases, 1.0) * 1e-6, "ms");
  res.put("fuzz.serial_s", serial_s, "s");
  for (const char* p : {"sync2", "sliced", "ksegment", "async2", "asyncn"}) {
    res.put(std::string("fuzz.share.") + p, proto_ns[p] / serial_ns, "ratio");
  }
  res.put("fault.share", fault_ns / serial_ns, "ratio");
  res.put("par.lib_wall_s", lib_s, "s");
  res.put("par.efficiency",
          serial_s / (static_cast<double>(kJobs) * tool_wall), "ratio");
  res.put("par.chunk_idle_frac", 1.0 - lib_s / tool_wall, "ratio");
  res.put("trace.overhead_frac",
          quantile(walls, 0.5) / quantile(untraced_wall, 0.5) - 1.0, "ratio");
  if (!tracer.write(opt.work_dir + "/trace_" + opt.workload + ".jsonl")) {
    res.fail_check("could not write the span file");
  }
  return res;
}

}  // namespace perfbench
