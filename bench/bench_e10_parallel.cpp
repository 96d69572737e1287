// E10 — batch-runner scaling.
//
// Runs one fixed fuzz workload (same seeds, same oracles) through
// par::BatchRunner at increasing job counts, verifying the results are
// byte-identical at every width (the invariance contract) and reporting
// the measured wall-clock speedup. Speedups are machine facts, not
// simulation facts: on a single-core host every column is ~1.0, which is
// the honest number — the correctness claim (identical digests) is the
// part that must hold everywhere.
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hpp"
#include "fuzz/batch.hpp"
#include "par/seed.hpp"

namespace {

using namespace stig;

/// FNV-1a over every case's (kind, schedule digest) — one number that
/// differs if any verdict or any schedule changed.
std::uint64_t batch_checksum(const std::vector<fuzz::BatchCase>& batch) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  const auto mix = [&](std::uint64_t v) {
    for (int b = 0; b < 8; ++b) {
      h ^= (v >> (8 * b)) & 0xff;
      h *= 0x100000001b3ULL;
    }
  };
  for (const fuzz::BatchCase& bc : batch) {
    mix(static_cast<std::uint64_t>(bc.result.kind));
    mix(bc.result.schedule_digest);
  }
  return h;
}

}  // namespace

int main() {
  using Clock = std::chrono::steady_clock;
  std::cout << "== E10: batch-runner scaling ==\n\n";

  bench::Report report("e10_parallel");

  // One workload, widening pools.
  const std::size_t kCases = 120;
  std::vector<std::uint64_t> seeds;
  seeds.reserve(kCases);
  for (std::size_t i = 0; i < kCases; ++i) {
    seeds.push_back(par::derive_seed(2026, i));
  }

  std::cout << "fuzz workload (" << kCases << " cases) vs job count:\n";
  bench::Table t({"jobs", "wall s", "speedup", "checksum ok"}, report,
                 "batch scaling");
  double base_wall = 0.0;
  std::uint64_t base_checksum = 0;
  bool all_identical = true;
  for (std::size_t jobs : {1u, 2u, 4u, 8u}) {
    const Clock::time_point start = Clock::now();
    const std::vector<fuzz::BatchCase> batch =
        fuzz::run_cases(seeds, std::nullopt, jobs);
    const double wall =
        std::chrono::duration<double>(Clock::now() - start).count();
    const std::uint64_t checksum = batch_checksum(batch);
    if (jobs == 1) {
      base_wall = wall;
      base_checksum = checksum;
    }
    const bool identical = checksum == base_checksum;
    all_identical = all_identical && identical;
    t.row(jobs, wall, base_wall / wall, identical ? "yes" : "NO");
  }
  report.value("batch_identical_across_jobs",
               std::uint64_t{all_identical ? 1u : 0u});
  // As a hex string, so the gate compares it exactly: a double holds no
  // 64-bit value, and 5% of one would pass nearly any other checksum.
  char hex[19];
  std::snprintf(hex, sizeof(hex), "0x%" PRIx64, base_checksum);
  report.value("batch_checksum", std::string(hex));
  report.value("batch_jobs1_wall_seconds", base_wall);
  std::cout << "\nexpected shape: \"checksum ok\" on every row — the batch "
               "is bit-identical at any width. Speedup approaches the "
               "physical core count and is ~1.0 on a single-core host.\n";
  return all_identical ? 0 : 1;
}
