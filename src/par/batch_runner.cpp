#include "par/batch_runner.hpp"

#include <algorithm>
#include <utility>

namespace stig::par {

BatchRunner::BatchRunner(BatchOptions options)
    : queue_bound_(std::max<std::size_t>(options.queue_bound, 1)) {
  std::size_t jobs = options.jobs;
  if (jobs == 0) {
    jobs = std::max<unsigned>(std::thread::hardware_concurrency(), 1);
  }
  workers_.reserve(jobs);
  for (std::size_t i = 0; i < jobs; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

BatchRunner::~BatchRunner() {
  {
    std::unique_lock<std::mutex> lock(mutex_);
    // Drain (a destructor must not abandon queued work), then stop.
    idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
    stop_ = true;
  }
  work_cv_.notify_all();
  for (std::thread& t : workers_) t.join();
}

void BatchRunner::submit(Task task) {
  std::unique_lock<std::mutex> lock(mutex_);
  space_cv_.wait(lock, [this] { return queue_.size() < queue_bound_; });
  queue_.push_back(std::move(task));
  stats_.peak_queued = std::max(stats_.peak_queued, queue_.size());
  lock.unlock();
  work_cv_.notify_one();
}

void BatchRunner::wait() {
  std::unique_lock<std::mutex> lock(mutex_);
  idle_cv_.wait(lock, [this] { return queue_.empty() && active_ == 0; });
  if (first_error_) {
    std::exception_ptr e = std::exchange(first_error_, nullptr);
    lock.unlock();
    std::rethrow_exception(e);
  }
}

BatchStats BatchRunner::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void BatchRunner::worker_loop() {
  std::unique_lock<std::mutex> lock(mutex_);
  for (;;) {
    work_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
    if (queue_.empty()) return;  // Stopped with nothing left to run.
    Task task = std::move(queue_.front());
    queue_.pop_front();
    ++active_;
    lock.unlock();
    space_cv_.notify_one();
    try {
      task();
    } catch (...) {
      std::lock_guard<std::mutex> error_lock(mutex_);
      if (!first_error_) first_error_ = std::current_exception();
    }
    task = nullptr;  // Destroy captures outside the relock below.
    lock.lock();
    --active_;
    ++stats_.executed;
    if (queue_.empty() && active_ == 0) idle_cv_.notify_all();
  }
}

}  // namespace stig::par
