// E14 — serving-layer capacity: sessions/sec, messages/sec, saturation
// and memory-per-session for the stigd architecture.
//
// Part 1 drives one fixed workload (the same request sequence, derived
// from one root seed) through serve::ShardedRegistry at worker counts 1,
// 2, 4 and 8, measuring open throughput (sessions/sec), accepted-send
// throughput (messages/sec) and the saturation point — the worker count
// past which messages/sec stops improving. Throughputs are machine facts
// and carry `_per_sec` markers, so the regression gate records but never
// compares them. The *counts* — sessions opened, messages accepted,
// deliveries polled, batches fanned out to the pool — are deterministic
// functions of (code, seed) and are identical at every worker count (the
// job-count invariance contract); those gate.
//
// Part 2 measures memory per session with obs::alloc_track on a direct,
// single-threaded SessionRegistry (the tracker's counters are
// thread-local, so the measurement must not cross BatchRunner workers):
// live bytes after opening K sessions, divided by K. Under sanitizers the
// tracker is inactive and the artifact records "alloc_tracking": false,
// which makes `stigreport diff` skip the byte-derived keys.
//
// The committed baseline is bench/baselines/BENCH_e14_capacity.json;
// CI regenerates the artifact and gates it with `stigreport diff`.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <span>
#include <vector>

#include "bench_util.hpp"
#include "obs/alloc_track.hpp"
#include "serve/session.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"

namespace {

using namespace stig;

constexpr std::uint64_t kRootSeed = 14;
constexpr std::size_t kSessions = 64;
constexpr std::size_t kRounds = 3;
constexpr std::size_t kShards = 8;

/// The fixed workload: open kSessions swarms, then kRounds rounds of
/// send + step + poll against every session. Returns the request batches
/// in the order the daemon would apply them.
std::vector<std::vector<serve::Request>> build_workload() {
  std::vector<std::vector<serve::Request>> batches;
  std::vector<serve::Request> opens;
  for (std::size_t s = 0; s < kSessions; ++s) {
    serve::Request open;
    open.verb = serve::Verb::open_session;
    open.seed = bench::case_seed(kRootSeed, s);
    open.robots = 2 + (s % 3);
    if (s % 2 == 1) open.flags |= serve::kOpenAsync;
    opens.push_back(open);
  }
  batches.push_back(std::move(opens));
  for (std::size_t round = 0; round < kRounds; ++round) {
    std::vector<serve::Request> batch;
    for (std::size_t s = 0; s < kSessions; ++s) {
      const std::uint64_t id = s + 1;  // Round-robin opens → ids 1..N.
      const std::uint64_t n = 2 + (s % 3);
      serve::Request send;
      send.verb = serve::Verb::send_message;
      send.session = id;
      send.from = (s + round) % n;
      send.to = (send.from + 1) % n;
      send.payload = {static_cast<std::uint8_t>(round),
                      static_cast<std::uint8_t>(s & 0xFF)};
      batch.push_back(send);
      serve::Request step;
      step.verb = serve::Verb::step;
      step.session = id;
      step.instants = 2000;
      batch.push_back(step);
      serve::Request poll;
      poll.verb = serve::Verb::poll_delivery;
      poll.session = id;
      poll.robot = send.to;
      batch.push_back(poll);
    }
    batches.push_back(std::move(batch));
  }
  return batches;
}

struct CapacityRow {
  std::size_t workers = 0;
  double open_wall_s = 0.0;
  double total_wall_s = 0.0;
  std::uint64_t requests = 0;
  std::uint64_t opened = 0;
  std::uint64_t accepted = 0;
  std::uint64_t polled = 0;
  std::uint64_t fanned_out = 0;
};

CapacityRow run_at(std::size_t workers,
                   const std::vector<std::vector<serve::Request>>& work) {
  using Clock = std::chrono::steady_clock;
  serve::ShardedOptions options;
  options.shards = kShards;
  options.jobs = workers;
  serve::ShardedRegistry registry(options);

  CapacityRow row;
  row.workers = workers;
  const Clock::time_point t0 = Clock::now();
  Clock::time_point after_opens = t0;
  for (std::size_t b = 0; b < work.size(); ++b) {
    const auto responses = registry.apply_batch(work[b]);
    row.requests += responses.size();
    for (std::size_t i = 0; i < responses.size(); ++i) {
      if (responses[i].status != serve::Status::ok) continue;
      switch (responses[i].verb) {
        case serve::Verb::send_message: ++row.accepted; break;
        case serve::Verb::poll_delivery:
          row.polled += responses[i].deliveries.size();
          break;
        default: break;
      }
    }
    if (b == 0) after_opens = Clock::now();
  }
  row.opened = registry.sessions_opened();
  row.fanned_out = registry.batches_fanned_out();
  row.open_wall_s = std::chrono::duration<double>(after_opens - t0).count();
  row.total_wall_s =
      std::chrono::duration<double>(Clock::now() - t0).count();
  return row;
}

}  // namespace

int main() {
  std::cout << "== E14: serving-layer capacity ==\n\n";
  bench::Report report("e14_capacity");

  const auto work = build_workload();

  // Part 1: throughput vs worker count.
  const std::vector<std::size_t> worker_counts{1, 2, 4, 8};
  const std::size_t table = report.table(
      "capacity vs workers",
      {"workers", "sessions_per_sec_open", "msgs_per_sec", "requests",
       "sessions_opened", "messages_accepted", "deliveries_polled",
       "batches_fanned_out"});
  std::cout << "workers  sessions/s  msgs/s      requests  opened  "
               "accepted  polled  fanned\n";
  std::vector<CapacityRow> rows;
  for (const std::size_t workers : worker_counts) {
    const CapacityRow row = run_at(workers, work);
    rows.push_back(row);
    const double sessions_per_sec =
        static_cast<double>(row.opened) / std::max(row.open_wall_s, 1e-9);
    const double msgs_per_sec = static_cast<double>(row.accepted) /
                                std::max(row.total_wall_s, 1e-9);
    std::printf("%7zu  %10.0f  %10.0f  %8llu  %6llu  %8llu  %6llu  %6llu\n",
                workers, sessions_per_sec, msgs_per_sec,
                static_cast<unsigned long long>(row.requests),
                static_cast<unsigned long long>(row.opened),
                static_cast<unsigned long long>(row.accepted),
                static_cast<unsigned long long>(row.polled),
                static_cast<unsigned long long>(row.fanned_out));
    report.add_row(
        table,
        {std::to_string(row.workers), obs::json_number(sessions_per_sec),
         obs::json_number(msgs_per_sec), std::to_string(row.requests),
         std::to_string(row.opened), std::to_string(row.accepted),
         std::to_string(row.polled), std::to_string(row.fanned_out)});
  }

  // The deterministic counts must agree across worker counts — that is
  // the invariance contract, re-checked here where the capacity numbers
  // are produced. Gate them once as headline values.
  bool invariant = true;
  for (const CapacityRow& row : rows) {
    if (row.opened != rows.front().opened ||
        row.accepted != rows.front().accepted ||
        row.polled != rows.front().polled ||
        row.fanned_out != rows.front().fanned_out) {
      invariant = false;
    }
  }
  std::cout << "\njob-count invariance: "
            << (invariant ? "identical counts at every width" : "VIOLATED")
            << "\n";
  report.value("invariant_counts", std::uint64_t{invariant ? 1u : 0u});
  report.value("capacity_sessions", rows.front().opened);
  report.value("capacity_requests", rows.front().requests);
  report.value("capacity_messages_accepted", rows.front().accepted);
  report.value("capacity_deliveries_polled", rows.front().polled);
  report.value("capacity_batches_fanned_out", rows.front().fanned_out);

  // Saturation: the smallest worker count within 5% of the best
  // messages/sec. Machine-dependent — the `_per_sec` marker keeps it
  // informational.
  double best = 0.0;
  for (const CapacityRow& row : rows) {
    best = std::max(best, static_cast<double>(row.accepted) /
                              std::max(row.total_wall_s, 1e-9));
  }
  std::size_t saturation = worker_counts.back();
  for (const CapacityRow& row : rows) {
    const double rate = static_cast<double>(row.accepted) /
                        std::max(row.total_wall_s, 1e-9);
    if (rate >= 0.95 * best) {
      saturation = row.workers;
      break;
    }
  }
  std::cout << "saturation: " << saturation << " worker(s) reach 95% of "
            << "peak msgs/sec\n";
  report.value("saturation_workers_msgs_per_sec",
               std::uint64_t{saturation});

  // Part 2: memory per session, single-threaded (alloc counters are
  // thread-local; crossing BatchRunner workers would mis-attribute).
  {
    serve::SessionRegistry registry;
    const obs::alloc::Counters before = obs::alloc::snapshot();
    for (std::size_t s = 0; s < kSessions; ++s) {
      serve::Request open;
      open.verb = serve::Verb::open_session;
      open.seed = bench::case_seed(kRootSeed, s);
      open.robots = 2 + (s % 3);
      if ((void)registry.apply(open); registry.live_sessions() != s + 1) {
        std::cerr << "open failed at session " << s << "\n";
        return 1;
      }
    }
    const obs::alloc::Counters after = obs::alloc::snapshot();
    const bool tracking = obs::alloc::active();
    const std::int64_t live_delta = after.live_bytes - before.live_bytes;
    const std::uint64_t per_session =
        live_delta > 0
            ? static_cast<std::uint64_t>(live_delta) / kSessions
            : 0;
    std::cout << "\nmemory: " << kSessions << " session(s), "
              << live_delta << " live byte(s) total, " << per_session
              << " byte(s)/session"
              << (tracking ? "" : " [alloc tracking off]") << "\n";
    report.value("alloc_tracking", tracking);
    report.value("session_live_bytes_per_session", per_session);
  }

  // Part 3: fault isolation. One session's state is transiently damaged
  // (a planted poll cursor, as docs/STABILIZATION.md's serve section
  // describes); the registry must quarantine exactly that session, keep
  // its sibling serving, and clear the tombstone on close. Deterministic
  // by construction — the damage is planted, not raced.
  {
    obs::MetricsRegistry metrics;
    serve::SessionRegistry registry;
    registry.attach_metrics(&metrics);
    serve::Request open;
    open.verb = serve::Verb::open_session;
    open.seed = bench::case_seed(kRootSeed, 9001);
    open.robots = 2;
    const std::uint64_t victim = registry.apply(open).session;
    const std::uint64_t witness = registry.apply(open).session;

    registry.session(victim)->corrupt_poll_cursor(0, 1u << 20);
    serve::Request poll;
    poll.verb = serve::Verb::poll_delivery;
    poll.session = victim;
    poll.robot = 0;
    const bool quarantined =
        registry.apply(poll).status == serve::Status::poisoned;
    // Tombstone: every verb but close keeps answering poisoned.
    serve::Request step;
    step.verb = serve::Verb::step;
    step.session = victim;
    step.instants = 8;
    const bool tombstoned =
        registry.apply(step).status == serve::Status::poisoned;
    // Isolation: the sibling session never notices.
    step.session = witness;
    const bool isolated = registry.apply(step).status == serve::Status::ok;
    // Acknowledgment: close clears the tombstone; the id then answers
    // not_found like any other closed session.
    serve::Request close;
    close.verb = serve::Verb::close_session;
    close.session = victim;
    const bool acked = registry.apply(close).status == serve::Status::ok;
    poll.session = victim;
    const bool retired =
        registry.apply(poll).status == serve::Status::not_found;

    const std::uint64_t poisoned = registry.sessions_poisoned();
    const std::uint64_t counted =
        metrics.counter("serve.sessions_poisoned").value();
    const bool isolation_held = quarantined && tombstoned && isolated &&
                                acked && retired && poisoned == 1 &&
                                counted == poisoned;
    std::cout << "\npoison: " << poisoned << " session(s) quarantined, "
              << "isolation " << (isolation_held ? "held" : "VIOLATED")
              << "\n";
    report.value("sessions_poisoned", poisoned);
    report.value("poison_isolation_held", isolation_held);
    if (!isolation_held) return 1;
  }

  return invariant ? 0 : 1;
}
