// RedundantChatNetwork — crash-masking group redundancy (paper Section 6).
//
// The paper remarks that the chatting protocols tolerate faults through
// redundancy: since every robot decodes every message, a logical endpoint
// can be backed by a *group* of g physical robots, and a message survives
// as long as some group member delivers it. This layer realizes that
// construction: each of the g group members runs a full, independent copy
// of the swarm (a "lane" — an entire ChatNetwork with its own engine,
// scheduler stream and protocol fleet, seeded via par::derive_seed so the
// lanes are deterministic but distinct). Physical robot `lane * n +
// logical` is lane `lane`'s copy of logical robot `logical`; a FaultPlan
// over physical indices is sliced per lane and applied by a per-lane
// FaultInjector.
//
// Every send/broadcast is queued on all lanes. After the run, deliveries
// are voted per logical stream (sender, unicast/broadcast) and per
// delivery ordinal: the payload most lanes agree on wins (ties prefer the
// lane with the longest stream — the least-faulted witness — then the
// lowest lane). Crash-stop faults only ever *truncate* a lane's delivery
// sequence (CRC guards partial frames), so with any g >= 2 and at most
// g-1 crashed members per stream the voted payloads equal the fault-free
// ones — the acceptance property test pins this. Corrupting faults
// (bursts) are masked up to a minority of lanes.
//
// Asynchronous protocols block forever on a crashed peer (the Lemma 4.1
// ack never arrives), so lanes with crashes may never reach quiescence.
// `run_until_settled` therefore watches *progress* (bits sent + decoded):
// a lane that is neither quiescent nor making progress for a full stall
// window is declared settled — its surviving deliveries stand.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/chat_network.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "sim/schedule_log.hpp"

namespace stig::fault {

/// FNV-1a over `bytes`, 32-bit — the payload fingerprint MaskedDelivery
/// events carry (exposed for tests and the watchdog's expectations).
[[nodiscard]] std::uint32_t fnv1a32(std::span<const std::uint8_t> bytes);

/// The sub-plan lane `lane` applies: faults whose physical robot lives in
/// [lane*n, (lane+1)*n), re-indexed to the lane's logical 0..n-1.
[[nodiscard]] FaultPlan lane_slice(const FaultPlan& plan, std::size_t lane,
                                   std::size_t n);

struct RedundantOptions {
  core::ChatNetworkOptions base;  ///< Per-lane seed derives from base.seed.
  std::size_t group_size = 2;     ///< g physical members per endpoint.
  FaultPlan plan;                 ///< Physical indices (lane * n + logical).
  bool record_schedules = false;  ///< Keep per-lane ScheduleLogs (digest).
};

/// One voted delivery (logical indices; same shape as core::Delivery).
struct VotedDelivery {
  sim::RobotIndex from = 0;
  sim::RobotIndex to = 0;
  bool broadcast = false;
  std::size_t ordinal = 0;        ///< Index on the (from, broadcast) stream.
  std::size_t agreeing_lanes = 0; ///< Lanes that delivered this payload.
  std::vector<std::uint8_t> payload;
};

class RedundantChatNetwork {
 public:
  /// `positions` are the n *logical* robot positions; every lane gets its
  /// own copy. Requires group_size >= 1.
  RedundantChatNetwork(std::vector<geom::Vec2> positions,
                       RedundantOptions options);

  [[nodiscard]] std::size_t group_size() const noexcept {
    return lanes_.size();
  }

  /// Queues the message on every lane.
  void send(sim::RobotIndex from, sim::RobotIndex to,
            std::span<const std::uint8_t> payload);
  void broadcast(sim::RobotIndex from,
                 std::span<const std::uint8_t> payload);

  struct RunResult {
    bool all_quiescent = false;  ///< Every lane drained (crashed robots
                                 ///< exempt — see ChatNetwork::quiescent).
    sim::Time instants = 0;      ///< Max instants any lane consumed.
    std::size_t stalled_lanes = 0;  ///< Lanes settled by the stall window.
    std::size_t timeout_lanes = 0;  ///< Lanes that hit max_instants while
                                    ///< still progressing — the masked
                                    ///< run's notion of non-termination.
    /// Lanes whose engine threw mid-run (e.g. a jitter shove collided
    /// robots): the lane is settled, its deliveries so far still vote.
    /// One entry per failed lane: (lane, what()).
    std::vector<std::pair<std::size_t, std::string>> lane_errors;
  };

  /// Runs every lane until it is quiescent, makes no progress for
  /// `stall_window` instants, or hits `max_instants`. Quiescent lanes then
  /// run `settle_tail` further instants (the decode catch-up tail the
  /// single-lane harness also runs) before the vote.
  RunResult run_until_settled(sim::Time max_instants,
                              sim::Time stall_window,
                              sim::Time settle_tail = 0);

  /// Voted deliveries for logical robot `r`, in deterministic order
  /// (streams by (broadcast, sender), then ordinal). Valid after
  /// `run_until_settled`.
  [[nodiscard]] const std::vector<VotedDelivery>& voted(
      sim::RobotIndex r) const {
    return voted_.at(r);
  }

  /// Routes MaskedDelivery events (one per voted delivery, emitted during
  /// the vote) into `sink` (not owned; null = silent).
  void set_event_sink(obs::EventSink* sink) noexcept { sink_ = sink; }

  /// Routes lane `k`'s full telemetry (engine + protocol robots + its
  /// FaultInjector) into `sink` — per-lane watchdogs attach here.
  void attach_lane_sink(std::size_t k, obs::EventSink* sink);

  /// Attaches a coverage map (not owned; null detaches) to every lane
  /// (protocol/frame/sched domains), every injector (fault domain), and
  /// the vote itself: each voted delivery records a fault-domain
  /// vote.begin -> vote.{unanimous,majority,plurality} edge classifying
  /// how much lane agreement backed it.
  void attach_coverage(obs::cov::CovMap* map);

  [[nodiscard]] core::ChatNetwork& lane(std::size_t k) {
    return *lanes_.at(k);
  }
  [[nodiscard]] const core::ChatNetwork& lane(std::size_t k) const {
    return *lanes_.at(k);
  }
  [[nodiscard]] const FaultInjector& injector(std::size_t k) const {
    return *injectors_.at(k);
  }
  /// Lane `k`'s recorded schedule (record_schedules only).
  [[nodiscard]] const sim::ScheduleLog& lane_log(std::size_t k) const {
    return logs_.at(k);
  }

 private:
  void vote(sim::Time t);

  std::size_t n_ = 0;
  // Injectors are declared before lanes so every engine detaches (is
  // destroyed) before the interceptor it points at.
  std::vector<sim::ScheduleLog> logs_;
  std::vector<std::unique_ptr<FaultInjector>> injectors_;
  std::vector<std::unique_ptr<core::ChatNetwork>> lanes_;
  std::vector<std::size_t> bursts_armed_;  ///< Per lane, for coverage.
  std::vector<std::vector<VotedDelivery>> voted_;  ///< Per logical robot.
  obs::EventSink* sink_ = nullptr;
  obs::cov::CovMap* cov_ = nullptr;  ///< Not owned; null when off.
  obs::cov::StateId cov_vote_ = obs::cov::kInvalidState;
};

}  // namespace stig::fault
