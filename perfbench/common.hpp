// Shared pieces of the benchmark worker: options, the result record,
// exact-quantile helpers and the in-memory span tracer.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/// steady_clock (CLOCK_MONOTONIC on Linux) in nanoseconds.
[[nodiscard]] std::int64_t now_ns();

/// CPU time consumed so far, in nanoseconds: by this whole process (every
/// thread, since exec) or by the calling thread. Unlike wall time it does
/// not grow while a co-tenant of a shared host holds the CPU (steal) or
/// while the thread waits.
[[nodiscard]] std::int64_t process_cpu_ns();
[[nodiscard]] std::int64_t thread_cpu_ns();

/// Nearest-rank quantile of `v`, q in [0, 1]; 0 for an empty sample.
[[nodiscard]] double quantile(std::vector<double> v, double q);

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Stop right after set-up (run.py repeats set-up in fresh processes).
  bool setup_only = false;
  /// Test hook: "payload" flips one expected payload byte, "reply" alters
  /// one expected reply, so the output checks must fail.
  std::string falsify;
  std::string stigfuzz;  ///< Path of the stigfuzz binary (fuzz_batch).
  std::string work_dir;  ///< Scratch directory for repros and the trace.
};

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports.
struct Result {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  /// Set-up samples taken in this process: CPU seconds from exec to the
  /// first timed operation (or of a stigfuzz --cases 0 child).
  std::vector<double> setup_s;
  /// The end-to-end metrics of an untraced run, or the per-layer metrics of
  /// a traced one. Untraced runs add the wall-clock figures ("wall.*"),
  /// which run.py prints on their own line.
  std::map<std::string, Metric> metrics;
  /// Exact work counts: identical on every run of the same code and seed.
  std::map<std::string, std::uint64_t> counts;
  std::vector<std::string> notes;  ///< Failed checks, failing fuzz seeds.

  void fail_check(std::string why) {
    correct = false;
    notes.push_back("check failed: " + std::move(why));
  }
  void put(const std::string& name, double value, const char* unit) {
    metrics[name] = Metric{value, unit};
  }
};

/// The operation count is fixed by --seconds so that counts repeat, but a
/// timed loop still stops once it has run this many times longer than its
/// operations take on the machine the counts were sized on, so a run on a
/// badly overloaded machine ends in time. A note records it, since the
/// counts then differ.
inline constexpr double kTimeGuard = 3.0;

/// One traced interval: layer name, bounds, enclosing span and operation.
struct Span {
  const char* name = "";
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int32_t parent = -1;
  std::uint32_t op = 0;
};

/// Keeps spans in memory; `write` dumps them once the run is over.
class Tracer {
 public:
  [[nodiscard]] std::int32_t open(const char* name, std::int32_t parent,
                                  std::uint32_t op);
  void close(std::int32_t id) {
    spans_[static_cast<std::size_t>(id)].end = now_ns();
  }
  /// Records an interval measured by the caller.
  std::int32_t add(const char* name, std::int64_t start, std::int64_t end,
                   std::int32_t parent, std::uint32_t op);

  /// Durations in nanoseconds of every span called `name`.
  [[nodiscard]] std::vector<double> durations(const std::string& name) const;

  /// Writes one JSON object per span and line. Returns false on I/O error.
  bool write(const std::string& path) const;

 private:
  std::vector<Span> spans_;
};

/// Opens a span on construction and closes it on destruction; a null
/// tracer records nothing.
class Scoped {
 public:
  Scoped(Tracer* t, const char* name, std::int32_t parent, std::uint32_t op)
      : t_(t), id_(t != nullptr ? t->open(name, parent, op) : -1) {}
  ~Scoped() {
    if (t_ != nullptr) t_->close(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;
  [[nodiscard]] std::int32_t id() const { return id_; }

 private:
  Tracer* t_;
  std::int32_t id_;
};

[[nodiscard]] Result run_swarm(const Options& opt, bool anonymous);
[[nodiscard]] Result run_serve(const Options& opt);
[[nodiscard]] Result run_fuzz(const Options& opt);

}  // namespace perfbench
