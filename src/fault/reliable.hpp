// ReliableMessenger — ack-timeout retransmission with backup degradation.
//
// The HybridMessenger (core/backup_channel.hpp) falls back to the motion
// channel the moment the radio's link layer reports a drop. Real radios
// rarely say that much: the sender learns about delivery only through an
// acknowledgment, and silence is ambiguous. This layer implements the
// classic sender-side recovery on top of WirelessChannel: each message
// gets an ack window measured in simulated instants; on timeout it is
// retransmitted with exponential backoff, up to a retry budget; when the
// budget is exhausted the message *degrades gracefully* onto the motion
// channel — the paper's "our solution can serve as a communication backup"
// — which the chatting protocols deliver guaranteed.
//
// Because a delivery whose ack was lost gets retransmitted, receivers may
// see duplicates; every payload travels with an 8-byte message-id header
// (on both channels) and `received` deduplicates on it. Every
// retransmission and every degradation emits a Retransmit event.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <unordered_set>
#include <vector>

#include "core/backup_channel.hpp"
#include "core/chat_network.hpp"
#include "core/wireless.hpp"
#include "obs/cov.hpp"
#include "obs/sink.hpp"
#include "sim/rng.hpp"

namespace stig::fault {

struct ReliableOptions {
  std::size_t max_retries = 3; ///< Retransmissions before degradation.
  double ack_loss_probability = 0.0;  ///< Lost-ack chance (delivered, but
                                      ///< the sender never learns).
  std::uint64_t seed = 11;     ///< Ack-loss randomness.
};

struct ReliableStats {
  std::uint64_t sent = 0;            ///< Messages accepted by `send`.
  std::uint64_t radio_attempts = 0;  ///< Transmissions incl. retries.
  std::uint64_t retransmits = 0;     ///< Attempts after the first.
  std::uint64_t acked = 0;           ///< Confirmed over the radio.
  std::uint64_t degraded = 0;        ///< Handed to the motion channel.
  std::uint64_t duplicates_dropped = 0;  ///< Dedup hits in `received`.
};

/// Lifecycle of one tracked message (exposed for tests).
enum class MessageState : unsigned char {
  pending,   ///< Awaiting (re)transmission or an ack.
  acked,     ///< Radio delivery confirmed.
  degraded,  ///< Retry budget exhausted; queued on the motion channel.
};

class ReliableMessenger {
 public:
  /// Both references must outlive the messenger. Time comes from
  /// `motion.engine().now()` — the messenger and the motion channel share
  /// one clock, which is what makes ack windows comparable to protocol
  /// transmission times.
  ReliableMessenger(core::ChatNetwork& motion, core::WirelessChannel& radio,
                    ReliableOptions options)
      : motion_(motion), radio_(radio), options_(options),
        ack_rng_(options.seed) {}

  /// Routes Retransmit events into `sink` (not owned; null = silent).
  void set_event_sink(obs::EventSink* sink) noexcept { sink_ = sink; }

  /// Attaches a coverage map (not owned; null detaches): message outcomes
  /// record fault-domain retry.send -> retry.{acked,retry,backup} edges,
  /// so a corpus proves which recovery paths actually ran.
  void set_coverage(obs::cov::CovMap* map) noexcept {
    cov_ = map;
    if (cov_ != nullptr) cov_send_ = cov_->state("retry.send");
  }

  /// Accepts a message for reliable delivery; transmission starts on the
  /// next `tick`. Returns the message id.
  std::uint64_t send(sim::RobotIndex from, sim::RobotIndex to,
                     std::span<const std::uint8_t> payload);

  /// Processes acks, timeouts, retransmissions and degradations at the
  /// motion clock's current instant. Does not advance time.
  void tick();

  /// Drives the whole stack: tick, then one motion-channel step, until
  /// every message is acked or degraded *and* the motion channel is
  /// quiescent, or `max_instants` elapse. Returns true on full delivery.
  bool run(sim::Time max_instants);

  /// True when no message is still pending and the motion channel drained.
  [[nodiscard]] bool settled() const;

  /// Deduplicated payloads robot `i` has received over both channels.
  [[nodiscard]] std::vector<std::vector<std::uint8_t>> received(
      sim::RobotIndex i);

  [[nodiscard]] const ReliableStats& stats() const noexcept {
    return stats_;
  }
  /// State of message `id`; nullopt for unknown ids.
  [[nodiscard]] std::optional<MessageState> state(std::uint64_t id) const;

 private:
  struct Tracked {
    std::uint64_t id = 0;
    sim::RobotIndex from = 0;
    sim::RobotIndex to = 0;
    std::vector<std::uint8_t> wire;  ///< Header + payload.
    std::size_t attempts = 0;        ///< Transmissions so far.
    MessageState st = MessageState::pending;
    std::optional<sim::Time> ack_at;  ///< Ack arrival time, if in flight.
    sim::Time timeout_at = 0;         ///< Next retransmission deadline.
  };

  void emit(sim::Time t, const Tracked& m, const char* label);

  core::ChatNetwork& motion_;
  core::WirelessChannel& radio_;
  ReliableOptions options_;
  sim::Rng ack_rng_;
  obs::EventSink* sink_ = nullptr;
  obs::cov::CovMap* cov_ = nullptr;  ///< Not owned; null when off.
  obs::cov::StateId cov_send_ = obs::cov::kInvalidState;
  std::vector<Tracked> tracked_;
  std::vector<std::unordered_set<std::uint64_t>> seen_;  ///< Per receiver.
  ReliableStats stats_;
  std::uint64_t next_id_ = 1;
};

}  // namespace stig::fault
