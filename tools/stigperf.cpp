// stigperf — the performance-observability driver.
//
// Runs the fixed protocol × robot-count scenario matrix from
// src/perf/perf_matrix.hpp and writes one PERF_<scenario>.json artifact
// per cell, in the same schema as the BENCH_*.json artifacts so
// stigreport's parser applies unchanged. The deterministic keys
// (allocs/bytes/events per instant, per-phase allocation counters) are a
// pure function of (code, scenario) — `stigreport perf` hard-gates them
// against bench/baselines/ with zero tolerance; the timing keys (cycles,
// run_ns, wall_seconds) are informational per obs/metric_keys.hpp.
//
//   stigperf                  fast matrix, artifacts in the working dir
//   stigperf --full           adds the nightly-only large cell
//   stigperf --out DIR        artifact directory
//   stigperf --jobs N         fan cells across N BatchRunner workers
//                             (artifacts are byte-identical at any N)
//   stigperf --no-timing      omit timing keys (byte-stable output)
//   stigperf --scenario NAME  run only the named cell (repeatable)
//
// Exit codes: 0 ok; 1 a scenario failed to reach quiescence; 2 usage
// error; 3 I/O error.
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <optional>
#include <string>
#include <vector>

#include "obs/alloc_track.hpp"
#include "par/batch_runner.hpp"
#include "perf/perf_matrix.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitFailure = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

void usage(std::ostream& out) {
  out << "stigperf — deterministic hot-path cost measurement\n\n"
      << "  stigperf [--full] [--out DIR] [--jobs N] [--no-timing]\n"
      << "           [--scenario NAME]... [--list]\n\n"
      << "Writes PERF_<scenario>.json per matrix cell; gate with\n"
      << "`stigreport perf --baseline bench/baselines PERF_*.json`.\n\n"
      << "exit codes: 0 ok; 1 non-quiescent scenario; 2 usage; 3 I/O\n";
}

}  // namespace

int main(int argc, char** argv) {
  using stig::perf::Scenario;
  using stig::perf::ScenarioResult;

  bool full = false;
  bool timing = true;
  bool list = false;
  std::string out_dir = ".";
  std::size_t jobs = 1;
  std::vector<std::string> only;

  const std::vector<std::string> args(argv + 1, argv + argc);
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    const auto need = [&](const char* flag) -> std::optional<std::string> {
      if (i + 1 >= args.size()) {
        std::cerr << "stigperf: " << flag << " needs a value\n";
        return std::nullopt;
      }
      return args[++i];
    };
    if (a == "--help" || a == "-h") {
      usage(std::cout);
      return kExitOk;
    } else if (a == "--full") {
      full = true;
    } else if (a == "--no-timing") {
      timing = false;
    } else if (a == "--list") {
      list = true;
    } else if (a == "--out") {
      const auto v = need("--out");
      if (!v) return kExitUsage;
      out_dir = *v;
    } else if (a == "--jobs") {
      const auto v = need("--jobs");
      if (!v) return kExitUsage;
      jobs = static_cast<std::size_t>(std::strtoull(v->c_str(), nullptr, 10));
      if (jobs == 0) jobs = 1;
    } else if (a == "--scenario") {
      const auto v = need("--scenario");
      if (!v) return kExitUsage;
      only.push_back(*v);
    } else {
      std::cerr << "stigperf: unknown flag " << a << "\n";
      usage(std::cerr);
      return kExitUsage;
    }
  }

  std::vector<Scenario> matrix =
      full ? stig::perf::full_matrix() : stig::perf::fast_matrix();
  if (!only.empty()) {
    std::vector<Scenario> picked;
    for (const std::string& name : only) {
      bool found = false;
      for (const Scenario& s : stig::perf::full_matrix()) {
        if (s.name == name) {
          picked.push_back(s);
          found = true;
        }
      }
      if (!found) {
        std::cerr << "stigperf: unknown scenario " << name << "\n";
        return kExitUsage;
      }
    }
    matrix = std::move(picked);
  }
  if (list) {
    for (const Scenario& s : matrix) std::cout << s.name << "\n";
    return kExitOk;
  }

  if (!stig::obs::alloc::active()) {
    std::cerr << "stigperf: warning: allocation tracking inactive "
                 "(sanitizer build) — alloc keys will read zero\n";
  }

  stig::par::BatchRunner runner(stig::par::BatchOptions{.jobs = jobs});
  const std::vector<ScenarioResult> results = runner.map(
      matrix.size(),
      [&](std::size_t i) { return stig::perf::run_scenario(matrix[i]); });

  std::error_code ec;
  std::filesystem::create_directories(out_dir, ec);

  std::cout << std::left << std::setw(14) << "scenario" << std::right
            << std::setw(10) << "instants" << std::setw(12) << "events/i"
            << std::setw(12) << "allocs/i" << std::setw(12) << "bytes/i"
            << std::setw(12) << "peak_bytes" << std::setw(10) << "ms"
            << "\n";
  int failures = 0;
  for (const ScenarioResult& r : results) {
    const double inst =
        r.instants > 0 ? static_cast<double>(r.instants) : 1.0;
    std::cout << std::left << std::setw(14) << r.scenario.name << std::right
              << std::setw(10) << r.instants << std::setw(12) << std::fixed
              << std::setprecision(3)
              << static_cast<double>(r.events) / inst << std::setw(12)
              << static_cast<double>(r.allocs) / inst << std::setw(12)
              << std::setprecision(1)
              << static_cast<double>(r.bytes) / inst << std::setw(12)
              << r.peak_bytes << std::setw(10) << std::setprecision(2)
              << r.run_ns / 1e6 << "\n";
    std::cout.unsetf(std::ios::fixed);
    if (!r.quiescent) {
      std::cerr << "stigperf: " << r.scenario.name
                << " did not reach quiescence in "
                << r.scenario.max_instants << " instants\n";
      ++failures;
    }
    const std::string path =
        (std::filesystem::path(out_dir) / ("PERF_" + r.scenario.name + ".json"))
            .string();
    std::ofstream out(path);
    if (!out) {
      std::cerr << "stigperf: could not write " << path << "\n";
      return kExitIo;
    }
    out << stig::perf::render_perf_json(r, timing);
    if (!out) {
      std::cerr << "stigperf: could not write " << path << "\n";
      return kExitIo;
    }
    std::cout << "wrote " << path << "\n";
  }
  return failures == 0 ? kExitOk : kExitFailure;
}
