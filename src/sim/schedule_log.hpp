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
/// stored flat — every instant's bits packed into 64-bit words, plus the
/// bit offset where each instant ends — so recording an instant allocates
/// nothing once the two vectors have grown.
class ScheduleLog {
 public:
  /// Appends the activation set of the next instant, a word at a time.
  void push(const ActivationSet& set) {
    std::size_t at = bits();
    // The last word, while partly filled, is taken off and put back.
    std::uint64_t word = 0;
    if (at % 64 != 0) {
      word = words_.back();
      words_.pop_back();
    }
    for (const bool b : set) {
      word |= static_cast<std::uint64_t>(b) << (at % 64);
      if (++at % 64 == 0) {
        words_.push_back(word);
        word = 0;
      }
    }
    if (at % 64 != 0) words_.push_back(word);
    ends_.push_back(at);
  }

  /// Robot count of instant `t`'s set. Precondition: t < instants().
  [[nodiscard]] std::size_t robots(std::size_t t) const {
    return ends_[t] - begin(t);
  }

  /// Instant `t`'s activation set into `out` (capacity reused).
  /// Precondition: t < instants().
  void read(std::size_t t, ActivationSet& out) const {
    const std::size_t first = begin(t);
    out.resize(robots(t));
    for (std::size_t k = 0; k < out.size(); ++k) out[k] = bit(first + k);
  }

  /// Keeps the first `count` instants (no-op when there are fewer).
  void truncate(std::size_t count) {
    if (count >= ends_.size()) return;
    ends_.resize(count);
    const std::size_t kept = bits();
    words_.resize((kept + 63) / 64);
    // Bits past the end stay zero, so equal logs have equal words.
    if (kept % 64 != 0) {
      words_.back() &= ~std::uint64_t{0} >> (64 - kept % 64);
    }
  }

  /// FNV-1a fingerprint over (instant, robot count, activation bits).
  /// Equal digests over equal lengths mean bit-identical schedules.
  [[nodiscard]] std::uint64_t digest() const noexcept;

  void clear() {
    words_.clear();
    ends_.clear();
  }
  [[nodiscard]] std::size_t instants() const noexcept { return ends_.size(); }

  friend bool operator==(const ScheduleLog&, const ScheduleLog&) = default;

 private:
  [[nodiscard]] std::size_t begin(std::size_t t) const {
    return t == 0 ? 0 : ends_[t - 1];
  }
  /// Bits recorded so far.
  [[nodiscard]] std::size_t bits() const noexcept {
    return ends_.empty() ? 0 : ends_.back();
  }
  /// Recorded bit `b`.
  [[nodiscard]] bool bit(std::size_t b) const noexcept {
    return ((words_[b / 64] >> (b % 64)) & 1U) != 0;
  }

  std::vector<std::uint64_t> words_;  ///< Every instant's set, packed.
  std::vector<std::size_t> ends_;     ///< One past instant t's last bit.
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
