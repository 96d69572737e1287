// Job-count invariance for the sharded serving layer.
//
// The contract under test: every reply and every *gated* (deterministic)
// metric out of a ShardedRegistry is a pure function of the request
// sequence and the shard count — never of the worker count or the thread
// schedule. The same scripted batch of N sessions is applied at jobs 1, 2
// and 8 and everything observable must be byte-identical. Runs under the
// existing TSan lane (the full ctest suite is TSan'd in CI), so the
// fan-out across par::BatchRunner workers is also raced-checked — the
// tests that check fan-out send steps heavy enough to reach the pool, and
// assert that they do.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <span>
#include <sstream>
#include <string>
#include <vector>

#include "obs/metric_keys.hpp"
#include "obs/metrics.hpp"
#include "par/seed.hpp"
#include "serve/shard.hpp"
#include "sim/rng.hpp"

namespace stig::serve {
namespace {

/// A scripted workload touching every verb across `sessions` sessions:
/// open all, interleave sends/steps/polls round-robin, close a third.
std::vector<Request> scripted_workload(std::size_t sessions,
                                       std::uint64_t root_seed) {
  std::vector<Request> script;
  for (std::size_t s = 0; s < sessions; ++s) {
    Request open;
    open.verb = Verb::open_session;
    open.seed = par::derive_seed(root_seed, s);
    open.robots = 2 + (s % 3);
    if (s % 2 == 1) open.flags |= kOpenAsync;
    script.push_back(open);
  }
  // Session ids are round-robin over shards in request order: the i-th
  // open gets id (i % K) + 1 + (i / K) * K — i.e. exactly i + 1 when
  // opens arrive first and i < K * anything. Opens are routed round-robin
  // so ids 1..sessions are assigned in order.
  for (int round = 0; round < 3; ++round) {
    for (std::size_t s = 0; s < sessions; ++s) {
      const std::uint64_t id = s + 1;
      const std::uint64_t n = 2 + (s % 3);
      Request send;
      send.verb = Verb::send_message;
      send.session = id;
      send.from = (s + round) % n;
      send.to = (send.from + 1) % n;
      send.payload = {static_cast<std::uint8_t>(round),
                      static_cast<std::uint8_t>(s)};
      script.push_back(send);

      Request step;
      step.verb = Verb::step;
      step.session = id;
      step.instants = 3000;
      script.push_back(step);

      Request poll;
      poll.verb = Verb::poll_delivery;
      poll.session = id;
      poll.robot = send.to;
      script.push_back(poll);
    }
  }
  for (std::size_t s = 0; s < sessions; s += 3) {
    Request close;
    close.verb = Verb::close_session;
    close.session = s + 1;
    script.push_back(close);
    // And poke the closed id to exercise the not_found path everywhere.
    Request stale;
    stale.verb = Verb::step;
    stale.session = s + 1;
    script.push_back(stale);
  }
  return script;
}

/// Renders responses into one comparable string (every field that the
/// wire would carry).
std::string render(const std::vector<Response>& responses) {
  std::ostringstream out;
  for (const Response& res : responses) {
    out << verb_name(res.verb) << ' ' << status_name(res.status) << ' '
        << res.session << ' ' << res.queued << ' ' << res.instants << ' '
        << static_cast<unsigned>(res.flags) << ' ' << res.detail;
    for (const WireDelivery& d : res.deliveries) {
      out << " [" << d.from << ">" << d.to << ' '
          << static_cast<unsigned>(d.flags);
      for (const std::uint8_t b : d.payload) {
        out << ' ' << static_cast<unsigned>(b);
      }
      out << ']';
    }
    out << '\n';
  }
  return out.str();
}

/// The gated subset of the merged metrics: every key without a
/// machine-speed marker, with its full rendered value.
std::string gated_metrics(const ShardedRegistry& registry) {
  obs::MetricsRegistry merged;
  registry.merge_metrics(merged);
  std::ostringstream out;
  merged.write_json(out);
  const std::string json = out.str();
  // write_json emits one flat object with sorted keys; histogram values
  // are one-level objects. Walk the pairs and keep the gated ones.
  std::string kept;
  std::size_t i = 0;
  while (i < json.size()) {
    const std::size_t q0 = json.find('"', i);
    if (q0 == std::string::npos) break;
    const std::size_t q1 = json.find('"', q0 + 1);
    if (q1 == std::string::npos) break;
    const std::string key = json.substr(q0 + 1, q1 - q0 - 1);
    std::size_t v = json.find(':', q1 + 1);
    if (v == std::string::npos) break;
    ++v;
    std::size_t end = v;
    if (v < json.size() && json[v] == '{') {
      end = json.find('}', v) + 1;
    } else {
      while (end < json.size() && json[end] != ',' && json[end] != '}') {
        ++end;
      }
    }
    if (!obs::is_informational_key(key)) {
      kept += key + "=" + json.substr(v, end - v) + "\n";
    }
    i = end;
  }
  return kept;
}

struct RunOutput {
  std::string responses;
  std::string metrics;
  std::size_t live = 0;
  std::uint64_t opened = 0;
  std::uint64_t fanned_out = 0;
};

RunOutput run_at(std::size_t jobs, const std::vector<Request>& script) {
  ShardedOptions options;
  options.shards = 4;
  options.jobs = jobs;
  ShardedRegistry registry(options);
  // Split the script into a few batches so the fan-out happens repeatedly
  // against evolving shard state, like the daemon's poll cycles.
  RunOutput out;
  const std::size_t batch = 37;
  std::vector<Response> all;
  for (std::size_t at = 0; at < script.size(); at += batch) {
    const std::size_t len = std::min(batch, script.size() - at);
    auto responses = registry.apply_batch(
        std::span<const Request>(script.data() + at, len));
    for (auto& r : responses) all.push_back(std::move(r));
  }
  out.responses = render(all);
  out.metrics = gated_metrics(registry);
  out.live = registry.live_sessions();
  out.opened = registry.sessions_opened();
  out.fanned_out = registry.batches_fanned_out();
  return out;
}

TEST(ServeConcurrency, JobCountInvariance) {
  const std::vector<Request> script = scripted_workload(12, 2024);
  const RunOutput at1 = run_at(1, script);
  const RunOutput at2 = run_at(2, script);
  const RunOutput at8 = run_at(8, script);

  // Byte-identical responses at every worker count.
  EXPECT_EQ(at1.responses, at2.responses);
  EXPECT_EQ(at1.responses, at8.responses);
  // Identical merged gated metrics (the `_ns` latency histograms are
  // machine-speed and excluded by the metric-key convention).
  EXPECT_EQ(at1.metrics, at2.metrics);
  EXPECT_EQ(at1.metrics, at8.metrics);
  // And identical registry aggregates.
  EXPECT_EQ(at1.live, at8.live);
  EXPECT_EQ(at1.opened, at8.opened);
  // The fan-out decision reads only the requests: the 3000-instant steps
  // send every step batch to the pool at every worker count.
  EXPECT_GT(at1.fanned_out, 0u);
  EXPECT_EQ(at1.fanned_out, at2.fanned_out);
  EXPECT_EQ(at1.fanned_out, at8.fanned_out);

  // The workload actually exercised the interesting paths.
  EXPECT_NE(at1.responses.find("not_found"), std::string::npos);
  EXPECT_NE(at1.metrics.find("serve.req.open_session"), std::string::npos);
  EXPECT_NE(at1.metrics.find("serve.deliveries_polled"),
            std::string::npos);
  // …and the informational keys were really filtered out.
  EXPECT_EQ(at1.metrics.find("_ns"), std::string::npos);
}

TEST(ServeConcurrency, SingleBatchManySessions) {
  // One big batch: all opens at once, then a burst touching every session
  // — the whole fan-out in two apply_batch calls.
  const std::size_t sessions = 48;
  std::vector<Request> opens;
  for (std::size_t s = 0; s < sessions; ++s) {
    Request open;
    open.verb = Verb::open_session;
    open.seed = par::derive_seed(7, s);
    open.robots = 2;
    opens.push_back(open);
  }
  std::vector<Request> burst;
  for (std::size_t s = 0; s < sessions; ++s) {
    Request send;
    send.verb = Verb::send_message;
    send.session = s + 1;
    send.from = 0;
    send.to = 1;
    send.payload = {static_cast<std::uint8_t>(s)};
    burst.push_back(send);
    Request step;
    step.verb = Verb::step;
    step.session = s + 1;
    step.instants = 2000;
    burst.push_back(step);
  }

  std::string first;
  for (const std::size_t jobs : {1, 2, 8}) {
    ShardedOptions options;
    options.shards = 8;
    options.jobs = jobs;
    ShardedRegistry registry(options);
    const auto open_res = registry.apply_batch(opens);
    const auto burst_res = registry.apply_batch(burst);
    for (const Response& r : open_res) {
      ASSERT_EQ(r.status, Status::ok);
    }
    const std::string rendered = render(open_res) + render(burst_res) +
                                 gated_metrics(registry);
    if (first.empty()) {
      first = rendered;
    } else {
      EXPECT_EQ(rendered, first) << "jobs=" << jobs;
    }
    EXPECT_EQ(registry.live_sessions(), sessions);
    // Both batches still fan out: six opens per shard, and 2000-instant
    // steps, make every one of the 8 groups heavy, and each is one task.
    EXPECT_EQ(registry.batches_fanned_out(), 2u) << "jobs=" << jobs;
    EXPECT_EQ(registry.pool_stats().executed, 16u) << "jobs=" << jobs;
  }
}

TEST(ServeConcurrency, PerSessionOrderSurvivesTheFanOut) {
  // Requests for one session in a mixed batch keep their relative order:
  // the queue-depth echoes must be strictly increasing per session, and
  // each session's closing step drains exactly what it queued. The steps
  // make every group heavy, so the batch runs on the pool.
  ShardedOptions options;
  options.shards = 4;
  options.jobs = 8;
  ShardedRegistry registry(options);
  std::vector<Request> opens(6);
  for (std::size_t s = 0; s < opens.size(); ++s) {
    opens[s].verb = Verb::open_session;
    opens[s].seed = s + 1;
    opens[s].robots = 2;
  }
  ASSERT_EQ(registry.apply_batch(opens).size(), opens.size());

  std::vector<Request> sends;
  for (int round = 0; round < 4; ++round) {
    for (std::uint64_t id = 1; id <= 6; ++id) {
      Request send;
      send.verb = Verb::send_message;
      send.session = id;
      send.from = 0;
      send.to = 1;
      send.payload = {static_cast<std::uint8_t>(round)};
      sends.push_back(send);
    }
  }
  for (std::uint64_t id = 1; id <= 6; ++id) {
    Request step;
    step.verb = Verb::step;
    step.session = id;
    step.instants = 500;
    sends.push_back(step);
  }
  const auto responses = registry.apply_batch(sends);
  // The opens (one or two a shard) stayed on this thread; this batch
  // went to the pool, one task per shard.
  EXPECT_EQ(registry.batches_fanned_out(), 1u);
  EXPECT_EQ(registry.pool_stats().executed, 4u);
  std::vector<std::uint64_t> depth(7, 0);
  for (std::size_t i = 0; i < responses.size(); ++i) {
    ASSERT_EQ(responses[i].status, Status::ok) << i;
    const std::uint64_t id = sends[i].session;
    if (sends[i].verb == Verb::step) {
      EXPECT_EQ(depth[id], 4u) << "session " << id;
      EXPECT_EQ(responses[i].instants, 500u) << "session " << id;
      continue;
    }
    EXPECT_EQ(responses[i].queued, depth[id] + 1)
        << "session " << id << " reply " << i;
    depth[id] = responses[i].queued;
  }
}

TEST(ServeConcurrency, StigloadShapedBatchesStayOnTheCallingThread) {
  // Four clients in stigload's default mix (open 2, send 8, step 8 of
  // 8–64 instants, poll 6, report 1, close 1), one request each per
  // batch, as stigd sees them with all four connections ready. Such a
  // batch reaches the pool only when two of its shard groups each carry
  // kFanOutWork (64) estimated instants, e.g. two 64-instant steps for
  // sessions on different shards. None of these 500 batches does, so
  // every one runs on the calling thread and the pool executes nothing.
  ShardedOptions options;
  options.jobs = 2;
  ShardedRegistry registry(options);
  sim::Rng rng(2009);
  constexpr std::array<std::uint64_t, 6> kWeights{2, 8, 8, 6, 1, 1};
  struct Live {
    std::uint64_t id = 0;
    std::uint64_t robots = 0;
  };
  std::vector<Live> live;
  std::array<std::size_t, 7> seen{};
  for (int cycle = 0; cycle < 500; ++cycle) {
    std::vector<Request> batch(4);
    for (Request& req : batch) {
      std::uint64_t r = rng.uniform_int(1, 26);
      std::size_t pick = 0;
      while (r > kWeights[pick]) r -= kWeights[pick++];
      if (live.empty()) pick = 0;
      if (pick != 0) {
        const Live& s = live[rng.uniform_int(0, live.size() - 1)];
        req.session = s.id;
        req.from = rng.uniform_int(0, s.robots - 1);
        req.to = (req.from + 1) % s.robots;
        req.robot = req.to;
      }
      req.verb = static_cast<Verb>(pick + 1);
      if (req.verb == Verb::open_session) {
        req.robots = rng.uniform_int(2, 6);
        req.seed = par::derive_seed(2009, static_cast<std::uint64_t>(cycle));
        if (rng.flip(0.5)) req.flags |= kOpenAsync;
      } else if (req.verb == Verb::send_message) {
        req.payload.assign(rng.uniform_int(1, 16), 0x5a);
      } else if (req.verb == Verb::step) {
        req.instants = rng.uniform_int(8, 64);
      }
    }
    const auto replies = registry.apply_batch(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      ++seen[static_cast<std::size_t>(batch[i].verb)];
      if (replies[i].status != Status::ok) continue;
      if (batch[i].verb == Verb::open_session) {
        live.push_back({replies[i].session, batch[i].robots});
      } else if (batch[i].verb == Verb::close_session) {
        std::erase_if(live, [&](const Live& s) {
          return s.id == batch[i].session;
        });
      }
    }
  }
  for (const Verb verb : {Verb::open_session, Verb::send_message, Verb::step,
                          Verb::poll_delivery, Verb::close_session}) {
    EXPECT_GT(seen[static_cast<std::size_t>(verb)], 0u) << verb_name(verb);
  }
  EXPECT_EQ(registry.batches_fanned_out(), 0u);
  EXPECT_EQ(registry.pool_stats().executed, 0u);
}

TEST(ServeConcurrency, FanOutNeedsTwoHeavyGroups) {
  // One heavy group is applied on the calling thread; two go to the pool,
  // and only the non-empty groups become tasks.
  ShardedOptions options;
  options.jobs = 2;
  ShardedRegistry registry(options);
  std::vector<Request> opens(3);
  for (Request& open : opens) {
    open.verb = Verb::open_session;
    open.seed = 11;
    open.robots = 2;
  }
  ASSERT_EQ(registry.apply_batch(opens).size(), 3u);  // Ids 1, 2, 3.
  const auto step = [](std::uint64_t session, std::uint64_t instants) {
    Request req;
    req.verb = Verb::step;
    req.session = session;
    req.instants = instants;
    return req;
  };
  const std::uint64_t heavy = ShardedRegistry::kFanOutWork;
  (void)registry.apply_batch(std::vector<Request>{
      step(1, heavy), step(2, heavy - 1), step(3, 8)});
  EXPECT_EQ(registry.batches_fanned_out(), 0u);
  EXPECT_EQ(registry.pool_stats().executed, 0u);
  (void)registry.apply_batch(
      std::vector<Request>{step(1, heavy / 2), step(1, heavy / 2),
                           step(2, heavy), step(3, 8)});
  EXPECT_EQ(registry.batches_fanned_out(), 1u);
  EXPECT_EQ(registry.pool_stats().executed, 3u);
}

}  // namespace
}  // namespace stig::serve
