// Session layer of the stigd serving architecture.
//
// A *session* is one independent ChatNetwork owned by the daemon on behalf
// of a client: the client opens it with a (seed, robots, protocol,
// scheduler, flags) tuple, queues messages into a *bounded injection
// queue*, advances simulated time explicitly with `step`, and polls
// deliveries per robot. Everything is deterministic: the swarm's positions
// are scattered from the session seed (`scatter_positions`), the
// ChatNetwork options are a pure function of the open request
// (`session_options`), and a session's replies depend only on the sequence
// of requests it received — which is what lets the conformance suite
// compare a served session byte-for-byte against driving the same
// ChatNetwork directly.
//
// Backpressure contract: `send_message` either *accepts* (the message is
// appended to the injection queue and will be injected, in acceptance
// order, by the next `step`) or answers BUSY (queue full). Accepted
// messages are never dropped and never reordered; BUSY is the only
// overload signal — the daemon never sheds load silently.
//
// The registry hands out monotonically increasing session ids and never
// reuses one: a closed id answers not_found forever, so a client racing
// its own close cannot be captured by a stranger's new session.
//
// Fault isolation: a session whose ChatNetwork throws mid-request is
// *quarantined*, not fatal — the registry destroys it, tombstones the id,
// and answers Status::poisoned for that request and every later one on the
// id until the client acknowledges with close_session (which clears the
// tombstone and answers ok). Other sessions never notice; the
// serve.sessions_poisoned counter records each quarantine.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <set>
#include <vector>

#include "core/chat_network.hpp"
#include "obs/metrics.hpp"
#include "serve/wire.hpp"

namespace stig::serve {

/// Per-session resource bounds enforced by the registry.
struct SessionLimits {
  std::size_t max_robots = 32;      ///< open_session robots cap.
  std::size_t queue_bound = 16;     ///< Injection-queue depth before BUSY.
  std::size_t max_payload = 4096;   ///< send_message payload byte cap.
  std::uint64_t max_step = 65536;   ///< Instants per step verb.
  std::size_t max_sessions = 65536; ///< Live sessions per registry.
};

/// Deterministic swarm placement for a session: `sim::scatter` of
/// pairwise-separated points in a box that widens with n.
[[nodiscard]] std::vector<geom::Vec2> scatter_positions(std::size_t n,
                                                        std::uint64_t seed);

/// The ChatNetwork options an open_session request denotes. Throws
/// std::invalid_argument on an unknown protocol or scheduler byte. Public
/// so tests can drive the identical network directly.
[[nodiscard]] core::ChatNetworkOptions session_options(const Request& req);

/// One served swarm: a ChatNetwork plus the injection queue and per-robot
/// delivery cursors.
class Session {
 public:
  Session(std::uint64_t id, const Request& open, const SessionLimits& limits);

  /// Handles every verb except open/close (the registry owns those).
  [[nodiscard]] Response apply(const Request& req);

  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }
  [[nodiscard]] std::size_t pending() const noexcept {
    return pending_.size();
  }
  [[nodiscard]] const core::ChatNetwork& net() const noexcept { return net_; }

  /// Transient-corruption hook (stabilization suite): plants an arbitrary
  /// poll cursor, as transient memory damage would. The next poll of that
  /// robot must fail-stop (std::out_of_range) instead of fabricating
  /// deliveries — which the registry turns into a poisoned quarantine.
  void corrupt_poll_cursor(std::size_t robot, std::size_t value) {
    poll_cursor_.at(robot) = value;
  }

 private:
  [[nodiscard]] Response send_message(const Request& req);
  [[nodiscard]] Response step(const Request& req);
  [[nodiscard]] Response poll_delivery(const Request& req);
  [[nodiscard]] Response get_report() const;

  struct PendingSend {
    std::uint64_t from = 0;
    std::uint64_t to = 0;
    bool broadcast = false;
    std::vector<std::uint8_t> payload;
  };

  std::uint64_t id_;
  SessionLimits limits_;
  core::ChatNetwork net_;
  std::deque<PendingSend> pending_;       ///< FIFO injection queue.
  std::vector<std::size_t> poll_cursor_;  ///< Per robot, into received(i).
};

/// Owns the sessions of one shard and serves requests in arrival order.
/// Single-threaded by design — cross-session parallelism comes from
/// ShardedRegistry fanning shards across par::BatchRunner workers.
class SessionRegistry {
 public:
  explicit SessionRegistry(SessionLimits limits = {});

  /// Routes metrics into `registry` (not owned; null detaches): one
  /// request counter and one latency histogram per verb (the `_ns` suffix
  /// marks them machine-speed, per src/obs/metric_keys.hpp), plus
  /// deterministic outcome counters (busy, not_found, error, sessions
  /// opened/closed, messages accepted, deliveries polled).
  void attach_metrics(obs::MetricsRegistry* registry);

  /// Configures id assignment for sharding: the first id handed out is
  /// `first` and each subsequent one is `step` higher, so shard k of K
  /// (ids k+1, k+1+K, ...) can be recovered from any id as (id-1) % K.
  void configure_ids(std::uint64_t first, std::uint64_t step);

  /// The single deterministic entry point: replies depend only on the
  /// request sequence seen so far. Never throws — internal errors become
  /// Status::error replies.
  [[nodiscard]] Response apply(const Request& req);

  [[nodiscard]] std::size_t live_sessions() const noexcept {
    return sessions_.size();
  }
  [[nodiscard]] std::uint64_t sessions_opened() const noexcept {
    return opened_;
  }
  /// Sessions quarantined after their network threw (lifetime total).
  [[nodiscard]] std::uint64_t sessions_poisoned() const noexcept {
    return poisoned_total_;
  }

  /// Test hook (stabilization suite): the live session with `id`, or null
  /// — lets tests plant transient damage via Session::corrupt_poll_cursor.
  [[nodiscard]] Session* session(std::uint64_t id) noexcept {
    const auto it = sessions_.find(id);
    return it == sessions_.end() ? nullptr : it->second.get();
  }

 private:
  /// The instruments apply() touches, looked up by name on first use
  /// (so only what happened is created) and then reached by pointer.
  /// Indexed by verb byte; every byte past close_session shares the last
  /// slot, as it shares verb_name's "unknown".
  struct Instruments {
    static constexpr std::size_t kVerbs =
        static_cast<std::size_t>(Verb::close_session) + 2;
    std::array<obs::Counter*, kVerbs> requests{};      ///< serve.req.<verb>
    std::array<obs::LogHistogram*, kVerbs> latency{};  ///< serve.lat.<verb>_ns
    std::array<obs::Counter*, kVerbs> ok{};  ///< The verb's success counter.
    obs::Counter* busy = nullptr;
    obs::Counter* not_found = nullptr;
    obs::Counter* error = nullptr;
  };

  [[nodiscard]] Response open_session(const Request& req);
  [[nodiscard]] Response dispatch(const Request& req);
  void count_outcome(const Response& res);
  /// `*slot`, after pointing it at the counter `name` if it was null.
  obs::Counter& cached(obs::Counter*& slot, const char* name);

  SessionLimits limits_;
  std::map<std::uint64_t, std::unique_ptr<Session>> sessions_;
  std::set<std::uint64_t> poisoned_;  ///< Quarantined ids (tombstones).
  std::uint64_t next_id_ = 1;
  std::uint64_t id_step_ = 1;
  std::uint64_t opened_ = 0;
  std::uint64_t poisoned_total_ = 0;
  obs::MetricsRegistry* metrics_ = nullptr;  ///< Not owned.
  Instruments instruments_;                  ///< Into *metrics_.
};

}  // namespace stig::serve
