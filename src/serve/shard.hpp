// ShardedRegistry — thousands of sessions across par::BatchRunner workers.
//
// Sessions are partitioned over K single-threaded SessionRegistry shards:
// an open_session is routed round-robin (in request order), every later
// verb routes by id — shard k hands out ids k+1, k+1+K, ... so the owner
// is recoverable from any id as (id-1) % K without a lookup table. A batch
// of requests is grouped by shard; within a shard requests run in arrival
// order, so per-session ordering is preserved while independent sessions
// may proceed in parallel.
//
// Fan-out is decided per batch from the requests alone. Handing a group to
// a pool worker costs tens of microseconds of CPU, more than a small batch
// of short steps does in work, so a batch runs on the calling thread, in
// shard order, unless at least two of its groups are heavy
// (kFanOutWork). Only then are the non-empty groups submitted to the pool.
//
// Determinism contract (tests/test_serve_concurrency.cpp): every reply and
// every deterministic metric is a pure function of the request sequence
// and the shard count — never of the worker count or the completion
// schedule. The fan-out decision reads neither the worker count nor a
// clock, so it is part of that function too. Shard metrics live in
// per-shard registries merged in shard order, the same per-task-registry
// discipline as src/par (and the per-verb latency histograms are
// `_ns`-suffixed, so they never gate).
#pragma once

#include <cstdint>
#include <memory>
#include <ostream>
#include <span>
#include <vector>

#include "obs/metrics.hpp"
#include "par/batch_runner.hpp"
#include "serve/session.hpp"

namespace stig::serve {

struct ShardedOptions {
  /// Session shards. Fixed by configuration, independent of `jobs` —
  /// replies must not change when the worker count does.
  std::size_t shards = 8;
  /// BatchRunner workers; 0 = hardware concurrency.
  std::size_t jobs = 0;
  SessionLimits limits;
};

class ShardedRegistry {
 public:
  /// Estimated work of one open_session, in step instants. Opening a
  /// session costs as much CPU as 10–26 instants of stepping it, 16 in
  /// the median over 2–6 robots, synchronous and asynchronous, with and
  /// without visible ids (4-vCPU x86 VM).
  static constexpr std::uint64_t kOpenWork = 16;
  /// A group is heavy, and worth a pool task, from this much estimated
  /// work in step instants. A hand-off costs about 38 µs of CPU per
  /// batch on a 4-vCPU x86 VM: serve_mix (2 workers, 8 tasks a batch)
  /// spent 0.0300 ms of CPU per request, four requests a batch, and
  /// 0.0206 ms once its batches ran on the calling thread; a tight loop
  /// of 2–8 empty tasks on 2 workers costs 20–27 µs. One step instant
  /// of a 2–6 robot session costs 0.4–3.4 µs, about 1.1 µs in
  /// serve_mix's mix, so a hand-off is worth about 35 instants. A second
  /// thread is given work only when each of two groups carries about
  /// twice that: the wall time it saves is then about twice the CPU the
  /// hand-off costs.
  static constexpr std::uint64_t kFanOutWork = 64;

  explicit ShardedRegistry(ShardedOptions options = {});

  /// Applies `requests` and returns replies in request order. Requests
  /// for the same session keep their relative order (same shard, applied
  /// sequentially); requests for different sessions may run concurrently.
  [[nodiscard]] std::vector<Response> apply_batch(
      std::span<const Request> requests);

  /// Convenience: a batch of one.
  [[nodiscard]] Response apply(const Request& req);

  [[nodiscard]] std::size_t shards() const noexcept {
    return shards_.size();
  }
  [[nodiscard]] std::size_t jobs() const noexcept { return runner_.jobs(); }
  [[nodiscard]] std::size_t live_sessions() const;
  [[nodiscard]] std::uint64_t sessions_opened() const;
  /// Batches whose groups went to the pool — a function of the request
  /// sequence and the shard count, like every reply.
  [[nodiscard]] std::uint64_t batches_fanned_out() const noexcept {
    return fanned_out_;
  }
  /// The pool's counters: `executed` counts the groups it ran.
  [[nodiscard]] par::BatchStats pool_stats() const { return runner_.stats(); }

  /// Folds every shard's metrics into `into`, in shard order (counters
  /// add, histograms merge bucketwise — deterministic at any job count).
  void merge_metrics(obs::MetricsRegistry& into) const;
  /// Renders the merged snapshot as one JSON object.
  void write_metrics_json(std::ostream& out) const;

 private:
  /// The shard owning `req` (advances the open-session round-robin).
  [[nodiscard]] std::size_t route(const Request& req);
  /// Estimated work of `req` in step instants, at most kFanOutWork (so a
  /// group's sum cannot overflow): a step's instants capped at max_step,
  /// kOpenWork for an open, 0 for verbs that only touch queues and cursors.
  [[nodiscard]] std::uint64_t work_of(const Request& req) const noexcept;

  std::vector<std::unique_ptr<SessionRegistry>> shards_;
  std::vector<std::unique_ptr<obs::MetricsRegistry>> metrics_;
  std::uint64_t max_step_;        ///< SessionLimits::max_step.
  std::uint64_t open_rr_ = 0;     ///< Round-robin cursor for open_session.
  std::uint64_t fanned_out_ = 0;  ///< See batches_fanned_out().
  par::BatchRunner runner_;
};

}  // namespace stig::serve
