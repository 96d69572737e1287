// Replayable activation-schedule capture.
//
// The fuzz harness's bit-for-bit replay claim rests on the schedule: two
// runs are "the same execution" exactly when every instant activated the
// same robots. A ScheduleLog records the activation sets an engine's
// scheduler produced; a RecordingScheduler wraps any scheduler to fill one
// in transparently; a ReplayScheduler plays a log back verbatim. The FNV
// digest condenses a whole schedule into one comparable/serializable
// fingerprint — `stigsim --replay` re-runs a repro and compares digests to
// prove the failure was reproduced under the identical schedule.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

#include "sim/scheduler.hpp"

namespace stig::sim {

/// A recorded activation schedule: one ActivationSet per instant, in order,
/// stored flat — every instant's bits in one bit vector plus the offset
/// where each instant ends — so recording an instant allocates nothing
/// once the two vectors have grown.
class ScheduleLog {
 public:
  /// Appends the activation set of the next instant.
  void push(const ActivationSet& set) {
    bits_.insert(bits_.end(), set.begin(), set.end());
    ends_.push_back(bits_.size());
  }

  /// Robot count of instant `t`'s set. Precondition: t < instants().
  [[nodiscard]] std::size_t robots(std::size_t t) const {
    return ends_[t] - begin(t);
  }

  /// Instant `t`'s activation set into `out` (capacity reused).
  /// Precondition: t < instants().
  void read(std::size_t t, ActivationSet& out) const {
    const auto first = bits_.begin() + static_cast<std::ptrdiff_t>(begin(t));
    out.assign(first, first + static_cast<std::ptrdiff_t>(robots(t)));
  }

  /// Keeps the first `count` instants (no-op when there are fewer).
  void truncate(std::size_t count) {
    if (count >= ends_.size()) return;
    ends_.resize(count);
    bits_.resize(count == 0 ? 0 : ends_.back());
  }

  /// FNV-1a fingerprint over (instant, robot count, activation bits).
  /// Equal digests over equal lengths mean bit-identical schedules.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  void clear() {
    bits_.clear();
    ends_.clear();
  }
  [[nodiscard]] std::size_t instants() const noexcept { return ends_.size(); }

  friend bool operator==(const ScheduleLog&, const ScheduleLog&) = default;

 private:
  [[nodiscard]] std::size_t begin(std::size_t t) const {
    return t == 0 ? 0 : ends_[t - 1];
  }

  std::vector<bool> bits_;         ///< Every instant's set, concatenated.
  std::vector<std::size_t> ends_;  ///< One past instant t's last bit.
};

/// Wraps a scheduler, appending every activation set it produces to a log.
class RecordingScheduler final : public Scheduler {
 public:
  /// `log` is not owned and must outlive the scheduler.
  RecordingScheduler(std::unique_ptr<Scheduler> inner, ScheduleLog* log)
      : inner_(std::move(inner)), log_(log) {}

  void activate_into(Time t, std::size_t n, ActivationSet& out) override {
    inner_->activate_into(t, n, out);
    log_->push(out);
  }

 private:
  std::unique_ptr<Scheduler> inner_;
  ScheduleLog* log_;
};

/// Plays a recorded schedule back verbatim. Instants past the end of the
/// log fall back to all-active (the log captured every instant that
/// mattered; the tail only runs the engine to its settle steps).
class ReplayScheduler final : public Scheduler {
 public:
  /// `log` is not owned and must outlive the scheduler.
  explicit ReplayScheduler(const ScheduleLog* log) : log_(log) {}

  void activate_into(Time /*t*/, std::size_t n, ActivationSet& out) override {
    if (next_ < log_->instants() && log_->robots(next_) == n) {
      log_->read(next_++, out);
      return;
    }
    ++next_;
    out.assign(n, true);
  }

 private:
  const ScheduleLog* log_;
  std::size_t next_ = 0;
};

}  // namespace stig::sim
