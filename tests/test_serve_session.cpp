// Session-layer conformance for the stigd serving architecture.
//
// The core contract: a served session is *exactly* a ChatNetwork driven
// directly — same scatter, same options, same deliveries, byte for byte.
// On top of that, the backpressure rules (BUSY never drops, never
// reorders), the at-most-once poll cursor, close/reopen id-reuse safety
// and the validation error surface.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "serve/session.hpp"

namespace stig::serve {
namespace {

Request open_request(std::uint64_t seed, std::uint64_t robots,
                     std::uint8_t flags = 0) {
  Request req;
  req.verb = Verb::open_session;
  req.seed = seed;
  req.robots = robots;
  req.flags = flags;
  return req;
}

Request send_request(std::uint64_t session, std::uint64_t from,
                     std::uint64_t to, std::vector<std::uint8_t> payload,
                     std::uint8_t flags = 0) {
  Request req;
  req.verb = Verb::send_message;
  req.session = session;
  req.from = from;
  req.to = to;
  req.flags = flags;
  req.payload = std::move(payload);
  return req;
}

Request step_request(std::uint64_t session, std::uint64_t instants) {
  Request req;
  req.verb = Verb::step;
  req.session = session;
  req.instants = instants;
  return req;
}

Request poll_request(std::uint64_t session, std::uint64_t robot,
                     std::uint64_t max_messages = 0) {
  Request req;
  req.verb = Verb::poll_delivery;
  req.session = session;
  req.robot = robot;
  req.max_messages = max_messages;
  return req;
}

Request close_request(std::uint64_t session) {
  Request req;
  req.verb = Verb::close_session;
  req.session = session;
  return req;
}

// ---------------------------------------------------------------------------
// Equivalence: the served session against the bare ChatNetwork.

TEST(ServeSession, ScriptedSequenceMatchesDirectChatNetwork) {
  const std::uint64_t seed = 99;
  const std::uint64_t robots = 4;
  const Request open = open_request(seed, robots);

  // Direct drive: the same constructor inputs the registry derives.
  core::ChatNetwork direct(scatter_positions(robots, seed),
                           session_options(open));
  direct.send(0, 2, std::vector<std::uint8_t>{'h', 'i'});
  direct.send(1, 3, std::vector<std::uint8_t>{0xAA});
  direct.run(4000);
  direct.broadcast(2, std::vector<std::uint8_t>{'!'});
  direct.run(4000);

  // Served drive: the identical script through the request interface.
  SessionRegistry registry;
  const Response opened = registry.apply(open);
  ASSERT_EQ(opened.status, Status::ok);
  const std::uint64_t id = opened.session;
  EXPECT_EQ(registry.apply(send_request(id, 0, 2, {'h', 'i'})).status,
            Status::ok);
  EXPECT_EQ(registry.apply(send_request(id, 1, 3, {0xAA})).status,
            Status::ok);
  EXPECT_EQ(registry.apply(step_request(id, 4000)).status, Status::ok);
  EXPECT_EQ(
      registry.apply(send_request(id, 2, 0, {'!'}, kSendBroadcast)).status,
      Status::ok);
  EXPECT_EQ(registry.apply(step_request(id, 4000)).status, Status::ok);

  // Every robot's deliveries must agree byte for byte, in order.
  for (std::uint64_t r = 0; r < robots; ++r) {
    const Response polled = registry.apply(poll_request(id, r));
    ASSERT_EQ(polled.status, Status::ok);
    const auto& expect = direct.received(static_cast<sim::RobotIndex>(r));
    ASSERT_EQ(polled.deliveries.size(), expect.size()) << "robot " << r;
    for (std::size_t i = 0; i < expect.size(); ++i) {
      EXPECT_EQ(polled.deliveries[i].from, expect[i].from);
      EXPECT_EQ(polled.deliveries[i].to, expect[i].to);
      EXPECT_EQ((polled.deliveries[i].flags & kSendBroadcast) != 0,
                expect[i].broadcast);
      EXPECT_EQ(polled.deliveries[i].payload, expect[i].payload);
    }
  }
}

TEST(ServeSession, AsyncOptionsMatchDirectChatNetwork) {
  const std::uint64_t seed = 1234;
  const std::uint64_t robots = 3;
  const Request open =
      open_request(seed, robots, kOpenAsync | kOpenVisibleIds);

  core::ChatNetwork direct(scatter_positions(robots, seed),
                           session_options(open));
  direct.send(0, 1, std::vector<std::uint8_t>{0x42});
  direct.run(20000);

  SessionRegistry registry;
  const std::uint64_t id = registry.apply(open).session;
  ASSERT_EQ(registry.apply(send_request(id, 0, 1, {0x42})).status,
            Status::ok);
  ASSERT_EQ(registry.apply(step_request(id, 20000)).status, Status::ok);

  const Response polled = registry.apply(poll_request(id, 1));
  const auto& expect = direct.received(1);
  ASSERT_EQ(polled.deliveries.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(polled.deliveries[i].payload, expect[i].payload);
  }
}

TEST(ServeSession, TwoRobotAsyncBroadcastDelivers) {
  // Any client can broadcast on a 2-robot async session; the broadcast
  // lane must reach the peer (it once aborted assert-enabled builds).
  const std::uint64_t seed = 77;
  const Request open = open_request(seed, 2, kOpenAsync);
  core::ChatNetwork direct(scatter_positions(2, seed), session_options(open));
  direct.broadcast(0, std::vector<std::uint8_t>{'b', 'c'});
  direct.run(20000);
  ASSERT_EQ(direct.received(1).size(), 1u);

  SessionRegistry registry;
  const std::uint64_t id = registry.apply(open).session;
  ASSERT_EQ(
      registry.apply(send_request(id, 0, 1, {'b', 'c'}, kSendBroadcast))
          .status,
      Status::ok);
  ASSERT_EQ(registry.apply(step_request(id, 20000)).status, Status::ok);
  const Response polled = registry.apply(poll_request(id, 1));
  ASSERT_EQ(polled.status, Status::ok);
  ASSERT_EQ(polled.deliveries.size(), 1u);
  EXPECT_EQ(polled.deliveries[0].from, 0u);
  EXPECT_EQ(polled.deliveries[0].payload,
            (std::vector<std::uint8_t>{'b', 'c'}));
}

// ---------------------------------------------------------------------------
// Backpressure: BUSY never drops, never reorders.

TEST(ServeSession, BusyNeverDropsNorReorders) {
  SessionLimits limits;
  limits.queue_bound = 4;
  SessionRegistry registry(limits);
  const std::uint64_t id = registry.apply(open_request(7, 2)).session;

  // Fill the queue to the bound: payloads 0..3 accepted, depth echoes.
  for (std::uint8_t i = 0; i < 4; ++i) {
    const Response res = registry.apply(send_request(id, 0, 1, {i}));
    ASSERT_EQ(res.status, Status::ok) << unsigned(i);
    EXPECT_EQ(res.queued, i + 1u);
  }
  // Overflow answers BUSY — repeatedly — and leaves the queue intact.
  for (int i = 0; i < 3; ++i) {
    const Response busy = registry.apply(send_request(id, 0, 1, {0xEE}));
    EXPECT_EQ(busy.status, Status::busy);
  }

  // A step drains the queue (in acceptance order) and frees capacity.
  ASSERT_EQ(registry.apply(step_request(id, 20000)).status, Status::ok);
  const Response after = registry.apply(send_request(id, 0, 1, {4}));
  EXPECT_EQ(after.status, Status::ok);
  EXPECT_EQ(after.queued, 1u);
  ASSERT_EQ(registry.apply(step_request(id, 20000)).status, Status::ok);

  // Robot 1 received payloads 0,1,2,3,4 in order — the BUSY sends left no
  // hole and no reordering.
  const Response polled = registry.apply(poll_request(id, 1));
  ASSERT_EQ(polled.deliveries.size(), 5u);
  for (std::uint8_t i = 0; i < 5; ++i) {
    EXPECT_EQ(polled.deliveries[i].payload,
              std::vector<std::uint8_t>{i})
        << "delivery " << unsigned(i);
  }
}

TEST(ServeSession, SessionCountLimitAnswersBusy) {
  SessionLimits limits;
  limits.max_sessions = 2;
  SessionRegistry registry(limits);
  ASSERT_EQ(registry.apply(open_request(1, 2)).status, Status::ok);
  ASSERT_EQ(registry.apply(open_request(2, 2)).status, Status::ok);
  const Response full = registry.apply(open_request(3, 2));
  EXPECT_EQ(full.status, Status::busy);
  EXPECT_EQ(registry.live_sessions(), 2u);
}

// ---------------------------------------------------------------------------
// Poll cursor: at-most-once delivery handoff.

TEST(ServeSession, PollCursorIsAtMostOnce) {
  SessionRegistry registry;
  const std::uint64_t id = registry.apply(open_request(42, 2)).session;
  ASSERT_EQ(registry.apply(send_request(id, 0, 1, {1, 2, 3})).status,
            Status::ok);
  ASSERT_EQ(registry.apply(step_request(id, 20000)).status, Status::ok);

  const Response first = registry.apply(poll_request(id, 1));
  ASSERT_EQ(first.deliveries.size(), 1u);
  // Polling again returns nothing: the cursor advanced.
  EXPECT_TRUE(registry.apply(poll_request(id, 1)).deliveries.empty());

  // max_messages slices the backlog without losing the remainder.
  ASSERT_EQ(registry.apply(send_request(id, 0, 1, {4})).status, Status::ok);
  ASSERT_EQ(registry.apply(send_request(id, 0, 1, {5})).status, Status::ok);
  ASSERT_EQ(registry.apply(step_request(id, 40000)).status, Status::ok);
  const Response one = registry.apply(poll_request(id, 1, 1));
  ASSERT_EQ(one.deliveries.size(), 1u);
  EXPECT_EQ(one.deliveries[0].payload, (std::vector<std::uint8_t>{4}));
  const Response rest = registry.apply(poll_request(id, 1));
  ASSERT_EQ(rest.deliveries.size(), 1u);
  EXPECT_EQ(rest.deliveries[0].payload, (std::vector<std::uint8_t>{5}));
}

// ---------------------------------------------------------------------------
// Close/reopen safety: ids are never reused.

TEST(ServeSession, ClosedIdIsNeverReused) {
  SessionRegistry registry;
  const std::uint64_t first = registry.apply(open_request(1, 2)).session;
  ASSERT_EQ(registry.apply(close_request(first)).status, Status::ok);

  // A new session must get a *different* id…
  const std::uint64_t second = registry.apply(open_request(2, 2)).session;
  EXPECT_NE(second, first);
  // …and the stale id keeps answering not_found for every verb, so a
  // client racing its own close can never touch a stranger's session.
  EXPECT_EQ(registry.apply(send_request(first, 0, 1, {1})).status,
            Status::not_found);
  EXPECT_EQ(registry.apply(step_request(first, 1)).status,
            Status::not_found);
  EXPECT_EQ(registry.apply(poll_request(first, 0)).status,
            Status::not_found);
  EXPECT_EQ(registry.apply(close_request(first)).status, Status::not_found);
}

TEST(ServeSession, ShardedIdAssignmentIsRecoverable) {
  // configure_ids(first=k+1, step=K) makes the owner (id-1) % K.
  SessionRegistry shard2of4;
  shard2of4.configure_ids(3, 4);
  const std::uint64_t a = shard2of4.apply(open_request(1, 2)).session;
  const std::uint64_t b = shard2of4.apply(open_request(2, 2)).session;
  EXPECT_EQ(a, 3u);
  EXPECT_EQ(b, 7u);
  EXPECT_EQ((a - 1) % 4, 2u);
  EXPECT_EQ((b - 1) % 4, 2u);
}

// ---------------------------------------------------------------------------
// Validation surface: every malformed request is an error reply, never an
// exception escaping the registry.

TEST(ServeSession, ValidationErrors) {
  SessionLimits limits;
  limits.max_robots = 8;
  limits.max_payload = 4;
  SessionRegistry registry(limits);

  EXPECT_EQ(registry.apply(open_request(1, 1)).status, Status::error);
  EXPECT_EQ(registry.apply(open_request(1, 9)).status, Status::error);
  {
    // Unknown protocol byte: carried to an error reply, not a throw.
    Request bad = open_request(1, 3);
    bad.protocol = 200;
    EXPECT_EQ(registry.apply(bad).status, Status::error);
  }
  {
    // sync2 demands exactly two robots; the ChatNetwork throw is caught.
    Request bad = open_request(1, 3);
    bad.protocol = static_cast<std::uint8_t>(core::ProtocolKind::sync2);
    const Response res = registry.apply(bad);
    EXPECT_EQ(res.status, Status::error);
    EXPECT_FALSE(res.detail.empty());
  }

  const std::uint64_t id = registry.apply(open_request(1, 3)).session;
  EXPECT_EQ(registry.apply(send_request(id, 0, 0, {1})).status,
            Status::error);  // from == to
  EXPECT_EQ(registry.apply(send_request(id, 3, 0, {1})).status,
            Status::error);  // from out of range
  EXPECT_EQ(registry.apply(send_request(id, 0, 1, {1, 2, 3, 4, 5})).status,
            Status::error);  // payload over max_payload
  EXPECT_EQ(registry.apply(poll_request(id, 3)).status,
            Status::error);  // robot out of range
  {
    Request none;
    none.verb = Verb::none;
    EXPECT_EQ(registry.apply(none).status, Status::error);
  }
  EXPECT_EQ(registry.apply(step_request(0, 1)).status, Status::not_found);
}

TEST(ServeSession, GetReportCarriesRunReportJson) {
  SessionRegistry registry;
  const std::uint64_t id = registry.apply(open_request(5, 2)).session;
  ASSERT_EQ(registry.apply(send_request(id, 0, 1, {'x'})).status,
            Status::ok);
  ASSERT_EQ(registry.apply(step_request(id, 20000)).status, Status::ok);
  Request rep;
  rep.verb = Verb::get_report;
  rep.session = id;
  const Response res = registry.apply(rep);
  ASSERT_EQ(res.status, Status::ok);
  const std::string json(res.body.begin(), res.body.end());
  EXPECT_NE(json.find("robots"), std::string::npos);
}

// ---------------------------------------------------------------------------
// Quarantine: a session whose network throws is poisoned, not fatal.

TEST(ServePoison, DamagedSessionIsQuarantinedSiblingsSurvive) {
  obs::MetricsRegistry metrics;
  SessionRegistry registry;
  registry.attach_metrics(&metrics);
  const std::uint64_t victim = registry.apply(open_request(31, 2)).session;
  const std::uint64_t witness = registry.apply(open_request(32, 2)).session;

  // Transient state damage: a poll cursor pointing past the delivery log.
  // The next poll must fail-stop inside the session; the registry turns
  // the throw into a quarantine instead of dying (or fabricating
  // deliveries from the underflowed count).
  registry.session(victim)->corrupt_poll_cursor(0, 1u << 20);
  const Response poisoned = registry.apply(poll_request(victim, 0));
  EXPECT_EQ(poisoned.status, Status::poisoned);
  EXPECT_NE(poisoned.detail.find("poisoned"), std::string::npos);
  EXPECT_EQ(registry.live_sessions(), 1u);
  EXPECT_EQ(registry.sessions_poisoned(), 1u);
  EXPECT_EQ(metrics.counter("serve.sessions_poisoned").value(), 1u);

  // Tombstone: every verb but close keeps answering poisoned — the id is
  // not not_found (the client must learn its session was damaged, not
  // conclude it was cleanly closed).
  EXPECT_EQ(registry.apply(step_request(victim, 4)).status,
            Status::poisoned);
  EXPECT_EQ(registry.apply(poll_request(victim, 1)).status,
            Status::poisoned);

  // Isolation: the sibling never notices.
  EXPECT_EQ(registry.apply(send_request(witness, 0, 1, {'y'})).status,
            Status::ok);
  EXPECT_EQ(registry.apply(step_request(witness, 4)).status, Status::ok);

  // Acknowledgment: close clears the tombstone; afterwards the id answers
  // not_found like any other closed session, and is never reused.
  EXPECT_EQ(registry.apply(close_request(victim)).status, Status::ok);
  EXPECT_EQ(registry.apply(poll_request(victim, 0)).status,
            Status::not_found);
  const std::uint64_t next = registry.apply(open_request(33, 2)).session;
  EXPECT_GT(next, victim);
}

TEST(ServePoison, QuarantineCountsOncePerSessionNotPerRequest) {
  SessionRegistry registry;
  const std::uint64_t id = registry.apply(open_request(40, 2)).session;
  registry.session(id)->corrupt_poll_cursor(1, 999);
  ASSERT_EQ(registry.apply(poll_request(id, 1)).status, Status::poisoned);
  // Repeated requests on the tombstone are replies, not new quarantines.
  ASSERT_EQ(registry.apply(poll_request(id, 1)).status, Status::poisoned);
  ASSERT_EQ(registry.apply(step_request(id, 1)).status, Status::poisoned);
  EXPECT_EQ(registry.sessions_poisoned(), 1u);
}

TEST(ServePoison, InRangeCursorDamageIsHarmless) {
  // A corrupted cursor that still lies within the delivery log is
  // indistinguishable from a slow poller: no throw, no quarantine — the
  // fail-stop triggers only on provable damage.
  SessionRegistry registry;
  const std::uint64_t id = registry.apply(open_request(41, 2)).session;
  registry.session(id)->corrupt_poll_cursor(0, 0);
  EXPECT_EQ(registry.apply(poll_request(id, 0)).status, Status::ok);
  EXPECT_EQ(registry.sessions_poisoned(), 0u);
}

}  // namespace
}  // namespace stig::serve
