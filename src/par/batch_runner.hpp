// BatchRunner — a thread pool for independent simulation runs.
//
// SSM executions are embarrassingly parallel across *runs*: a fuzz case, a
// bench row or a soak round touches no state outside its own ChatNetwork,
// so the only work the pool has to do is hand whole simulations to worker
// threads and put the results back in submission order. The pool is built
// for that grain:
//
//   * one FIFO queue that every worker pops, sized for tasks that each run
//     for >= hundreds of microseconds;
//   * the queue is bounded: `submit` blocks while `queue_bound`
//     tasks are already waiting (backpressure), so a producer enumerating
//     millions of soak cases never buffers more than a constant number of
//     closures;
//   * a task that throws does not wedge the pool: the first exception is
//     captured, every remaining task still runs, and `wait()` (or `map`)
//     rethrows after the drain;
//   * determinism is the caller's contract and the pool's design target:
//     nothing a task may observe depends on which worker runs it or in
//     what order tasks complete. `map` keys results by case index, and all
//     library state a case touches (RNG seeds via par::derive_seed, one
//     obs::MetricsRegistry per task merged on join) is per-case. That
//     contract is what the job-count-invariance suite asserts.
//
// Synchronization is deliberately coarse — one mutex guards the queue and
// counters. At the pool's task grain (entire simulations) the lock round
// per task is noise, and a single lock keeps the pool trivially clean
// under ThreadSanitizer, which gates this subsystem in CI.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

namespace stig::par {

struct BatchOptions {
  /// Worker threads; 0 = std::thread::hardware_concurrency (at least 1).
  std::size_t jobs = 0;
  /// Max tasks waiting in the queue before `submit` blocks (>= 1).
  std::size_t queue_bound = 256;
};

/// Pool counters, readable at any time (values are monotone snapshots).
struct BatchStats {
  std::uint64_t executed = 0;     ///< Tasks that finished running.
  std::size_t peak_queued = 0;    ///< High-water mark of waiting tasks —
                                  ///< never exceeds queue_bound.
};

class BatchRunner {
 public:
  using Task = std::function<void()>;

  explicit BatchRunner(BatchOptions options = {});
  /// Drains every queued task, then joins the workers. A pending captured
  /// exception is swallowed here — call `wait()` first to observe it.
  ~BatchRunner();

  BatchRunner(const BatchRunner&) = delete;
  BatchRunner& operator=(const BatchRunner&) = delete;

  [[nodiscard]] std::size_t jobs() const noexcept { return workers_.size(); }

  /// Enqueues one task. Blocks while `queue_bound` tasks are waiting
  /// (backpressure). Must not be called from inside a pool task.
  void submit(Task task);

  /// Blocks until every submitted task has run, then rethrows the first
  /// exception any task threw (if any) and clears it. The pool stays
  /// usable afterwards — an exception never cancels sibling tasks.
  void wait();

  [[nodiscard]] BatchStats stats() const;

  /// Runs `fn(0) .. fn(count-1)` across the pool and returns the results
  /// in index order — the order is a property of the batch, not of the
  /// schedule, so a deterministic `fn` yields a job-count-invariant
  /// result vector. If calls throw, the lowest-index exception is
  /// rethrown after every case has been attempted (drain-on-exception).
  /// `R` must be default-constructible and movable.
  template <typename Fn>
  auto map(std::size_t count, Fn&& fn)
      -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
    using R = std::invoke_result_t<Fn&, std::size_t>;
    std::vector<R> results(count);
    std::vector<std::exception_ptr> errors(count);
    for (std::size_t i = 0; i < count; ++i) {
      submit([&results, &errors, &fn, i] {
        try {
          results[i] = fn(i);
        } catch (...) {
          errors[i] = std::current_exception();
        }
      });
    }
    wait();
    for (std::size_t i = 0; i < count; ++i) {
      if (errors[i]) std::rethrow_exception(errors[i]);
    }
    return results;
  }

 private:
  void worker_loop();

  const std::size_t queue_bound_;

  mutable std::mutex mutex_;
  std::condition_variable work_cv_;   ///< Workers: a task was queued / stop.
  std::condition_variable space_cv_;  ///< Producers: queue dropped below bound.
  std::condition_variable idle_cv_;   ///< wait(): everything drained.

  std::deque<Task> queue_;  ///< Tasks waiting, oldest first.
  std::size_t active_ = 0;  ///< Tasks currently executing.
  bool stop_ = false;
  std::exception_ptr first_error_;
  BatchStats stats_;

  std::vector<std::thread> workers_;
};

}  // namespace stig::par
