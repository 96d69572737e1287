// serve_mix — closed loop of 4 clients against serve::ShardedRegistry
// (8 shards, 2 workers), one outstanding request per client.
//
// Each cycle takes one request from every client, frames it with the wire
// codec, deframes and decodes it on the server side as stigd does, applies
// the four as one batch, and sends the replies back through the codec.
// This is stigd's poll-loop step with all four connections ready; the
// socket loop is left out, since its syscalls and wake-ups would measure
// the scheduler rather than the program. Requests follow stigload's
// default mix. Every reply is checked against each client's model of its
// own sessions: ids, queue depths, clocks and delivered payloads.
#include <algorithm>
#include <array>
#include <cstdint>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "par/seed.hpp"
#include "serve/shard.hpp"
#include "serve/wire.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace stig;

namespace {

constexpr std::size_t kClients = 4;
constexpr std::size_t kSessionsPerClient = 8;
constexpr std::size_t kShards = 8;
/// Two pool workers plus this thread stay within a 4-vCPU machine with a
/// vCPU to spare: with one worker per vCPU, every batch waited for the
/// slowest vCPU to be scheduled, and runs measured the host's other
/// tenants rather than the program.
constexpr std::size_t kJobs = 2;
constexpr std::uint64_t kRobotsMax = 6;
constexpr std::size_t kQueueBound = serve::SessionLimits{}.queue_bound;
/// stigload's default verb weights: open, send, step, poll, report, close.
constexpr std::array<std::uint64_t, 6> kWeights{2, 8, 8, 6, 1, 1};
/// Batches per second of --seconds, sized on a 4-core x86 VM.
constexpr double kCyclesPerSecond = 5000.0;
/// The timed loop is cut into this many equal windows; each figure is the
/// median over windows of the window's own figure, so a burst of host
/// contention shorter than half the run cannot move it.
constexpr std::size_t kWindows = 20;

constexpr std::array<const char*, 7> kVerbKey{
    "none", "open", "send", "step", "poll", "report", "close"};

struct Pending {
  std::uint64_t from = 0;
  bool broadcast = false;
  std::vector<std::uint8_t> payload;
};

/// What a client knows about one of its sessions.
struct SessionModel {
  std::uint64_t id = 0;
  std::uint64_t robots = 0;
  std::uint64_t queued = 0;  ///< Accepted sends not yet drained by a step.
  std::uint64_t clock = 0;   ///< The session's engine clock.
  /// Per robot: sent messages it may still receive.
  std::vector<std::vector<Pending>> inbound;
};

struct Client {
  sim::Rng rng{1};
  std::uint64_t seed = 0;
  std::uint64_t opens = 0;
  std::vector<SessionModel> live;
  serve::WireParser server_side;  ///< The daemon's parser for this client.
  serve::WireParser client_side;
  serve::Request req;
  std::size_t slot = 0;  ///< Index into `live` of the request's session.
};

/// Expected ids: opens are routed round-robin over the shards in request
/// order, and shard k hands out k+1, k+1+K, ...
struct IdModel {
  std::uint64_t opens = 0;
  std::array<std::uint64_t, kShards> next{};
  IdModel() {
    for (std::size_t k = 0; k < kShards; ++k) next[k] = k + 1;
  }
  std::uint64_t take() {
    const std::size_t k = opens++ % kShards;
    const std::uint64_t id = next[k];
    next[k] += kShards;
    return id;
  }
};

std::uint8_t random_byte(sim::Rng& rng) {
  return static_cast<std::uint8_t>(rng.uniform_int(0, 255));
}

/// The client's next request, drawn as stigload draws it.
void next_request(Client& c, bool force_open) {
  serve::Request req;
  std::uint64_t r = c.rng.uniform_int(1, 26);
  std::size_t verb = 0;
  for (std::size_t v = 0; v < kWeights.size(); ++v) {
    if (r <= kWeights[v]) {
      verb = v;
      break;
    }
    r -= kWeights[v];
  }
  if (force_open || c.live.empty()) verb = 0;
  if (verb == 0 && !force_open && c.live.size() >= kSessionsPerClient) {
    verb = 1;
  }
  if (verb != 0) {
    c.slot = static_cast<std::size_t>(c.rng.uniform_int(0, c.live.size() - 1));
    req.session = c.live[c.slot].id;
  }
  switch (verb) {
    case 0:
      req.verb = serve::Verb::open_session;
      req.robots = c.rng.uniform_int(2, kRobotsMax);
      req.seed = par::derive_seed(c.seed, c.opens++);
      if (c.rng.flip(0.5)) req.flags |= serve::kOpenAsync;
      if (c.rng.flip(0.5)) req.flags |= serve::kOpenVisibleIds;
      if (c.rng.flip(0.25)) req.flags |= serve::kOpenSenseOfDirection;
      break;
    case 1: {
      const std::uint64_t n = c.live[c.slot].robots;
      req.verb = serve::Verb::send_message;
      req.from = c.rng.uniform_int(0, n - 1);
      req.to = (req.from + 1 + c.rng.uniform_int(0, n - 2)) % n;
      if (c.rng.flip(0.125)) req.flags |= serve::kSendBroadcast;
      req.payload.resize(c.rng.uniform_int(1, 16));
      for (auto& b : req.payload) b = random_byte(c.rng);
      break;
    }
    case 2:
      req.verb = serve::Verb::step;
      req.instants = c.rng.uniform_int(8, 64);
      break;
    case 3:
      req.verb = serve::Verb::poll_delivery;
      req.robot = c.rng.uniform_int(0, c.live[c.slot].robots - 1);
      break;
    case 4:
      req.verb = serve::Verb::get_report;
      break;
    default:
      req.verb = serve::Verb::close_session;
      break;
  }
  c.req = std::move(req);
}

/// Checks `res` against the client's model and advances the model.
/// Returns "" when the reply is what the model predicts.
std::string check_reply(Client& c, const serve::Response& res, IdModel& ids,
                        bool falsify) {
  const serve::Request& req = c.req;
  if (res.verb != req.verb) return "verb not echoed";
  if (req.verb == serve::Verb::open_session) {
    const std::uint64_t id = ids.take();
    if (res.status != serve::Status::ok) return "open refused";
    if (res.session != id) return "open returned an unexpected id";
    SessionModel s;
    s.id = id;
    s.robots = req.robots;
    s.inbound.resize(req.robots);
    c.live.push_back(std::move(s));
    return "";
  }
  SessionModel& s = c.live[c.slot];
  if (res.status == serve::Status::poisoned) {
    // The session's network threw and the registry quarantined it: a
    // failed request, but the documented behaviour. Forget the session.
    c.live.erase(c.live.begin() + static_cast<std::ptrdiff_t>(c.slot));
    return "";
  }
  switch (req.verb) {
    case serve::Verb::send_message: {
      if (s.queued >= kQueueBound) {
        return res.status == serve::Status::busy ? "" : "full queue accepted";
      }
      if (res.status != serve::Status::ok) return "send refused";
      if (res.queued != ++s.queued) return "unexpected queue depth";
      // Two-robot protocols have no broadcast lane: a broadcast reaches
      // the one peer as a plain unicast.
      const bool broadcast = (req.flags & serve::kSendBroadcast) != 0;
      const bool lane = broadcast && s.robots > 2;
      for (std::uint64_t r = 0; r < s.robots; ++r) {
        if (broadcast ? r != req.from : r == req.to) {
          s.inbound[r].push_back(Pending{req.from, lane, req.payload});
        }
      }
      return "";
    }
    case serve::Verb::step:
      if (res.status != serve::Status::ok) return "step refused";
      s.queued = 0;
      s.clock += req.instants;
      if (res.instants != s.clock + (falsify ? 1 : 0)) {
        return "unexpected engine clock";
      }
      return "";
    case serve::Verb::poll_delivery: {
      if (res.status != serve::Status::ok) return "poll refused";
      std::vector<Pending>& inbound = s.inbound[req.robot];
      for (const serve::WireDelivery& d : res.deliveries) {
        const bool broadcast = (d.flags & serve::kSendBroadcast) != 0;
        if (d.to != (broadcast ? d.from : req.robot)) return "wrong addressee";
        bool matched = false;
        for (std::size_t k = 0; k < inbound.size() && !matched; ++k) {
          if (inbound[k].from == d.from && inbound[k].broadcast == broadcast &&
              inbound[k].payload == d.payload) {
            inbound.erase(inbound.begin() + static_cast<std::ptrdiff_t>(k));
            matched = true;
          }
        }
        if (!matched) return "delivery that was never sent";
      }
      return "";
    }
    case serve::Verb::get_report: {
      if (res.status != serve::Status::ok) return "report refused";
      const std::string body(res.body.begin(), res.body.end());
      if (body.find("\"instants\": " + std::to_string(s.clock) + ",") ==
          std::string::npos) {
        return "report with an unexpected clock";
      }
      return "";
    }
    default:
      if (res.status != serve::Status::ok) return "close refused";
      c.live.erase(c.live.begin() + static_cast<std::ptrdiff_t>(c.slot));
      return "";
  }
}

std::uint64_t fnv1a(std::uint64_t h, const std::vector<std::uint8_t>& bytes) {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 1099511628211ULL;
  }
  return h;
}

/// Everything one pass over the request stream produced.
struct Pass {
  Result r;                             ///< Checks and exact counts.
  std::int64_t setup_cpu_ns = 0;        ///< Process CPU after the warm-up.
  std::vector<double> window_s;         ///< Wall time of each window.
  std::vector<double> window_cpu_s;     ///< Process CPU time of each window.
  std::size_t window_requests = 0;      ///< Requests per window.
  /// Per timed request, exact. 32-bit and reserved up front, so the
  /// samples add little to the peak RSS this process reports.
  std::vector<std::uint32_t> latency_ns;
  std::vector<double> wire_ns;          ///< Per timed request (traced).
  std::vector<double> batch_ns;         ///< Per timed apply_batch (traced).
  /// Traced pass: every batch as the registry received it (set-up
  /// included), whether it was timed, and every reply frame.
  std::vector<std::vector<serve::Request>> batches;
  std::vector<bool> timed;
  std::vector<std::vector<std::uint8_t>> reply_frames;
};

/// Set-up (registry and pool start, 8 sessions opened per client, which
/// is also the warm-up) followed by `cycles` timed batches. With a tracer,
/// every timed batch records a span with its wire and apply children.
Pass run_pass(const Options& opt, std::size_t cycles, Tracer* tracer) {
  const bool traced = tracer != nullptr;
  Pass out;
  Result& res = out.r;
  serve::ShardedRegistry registry(
      serve::ShardedOptions{.shards = kShards, .jobs = kJobs, .limits = {}});
  std::array<Client, kClients> clients;
  for (std::size_t c = 0; c < kClients; ++c) {
    clients[c].seed = par::derive_seed(opt.seed, c);
    clients[c].rng = sim::Rng(clients[c].seed);
  }
  IdModel ids;
  std::uint64_t digest = 14695981039346656037ULL;
  bool falsify_pending = opt.falsify == "reply";

  std::vector<serve::Request> batch(kClients);
  std::array<std::optional<serve::Response>, kClients> replies;
  // Per client: request codec start and end, reply codec start, reply
  // decoded. The codec bounds are only read on traced passes.
  std::array<std::int64_t, kClients> req_w0{}, req_w1{}, rep_w0{}, done{};
  std::uint32_t op = 0;
  const auto cycle = [&](bool force_open, bool timed) {
    for (Client& c : clients) next_request(c, force_open);
    const std::int64_t start = now_ns();
    for (std::size_t c = 0; c < kClients; ++c) {
      if (traced) req_w0[c] = now_ns();
      clients[c].server_side.feed(serve::encode_request(clients[c].req));
      const std::vector<std::vector<std::uint8_t>> frames =
          clients[c].server_side.take_frames();
      std::optional<serve::Request> req;
      if (frames.size() == 1) req = serve::decode_request(frames[0]);
      if (!req) throw std::runtime_error("request frame did not round-trip");
      batch[c] = std::move(*req);
      if (traced) req_w1[c] = now_ns();
    }
    const std::int64_t a0 = now_ns();
    const std::vector<serve::Response> applied = registry.apply_batch(batch);
    const std::int64_t a1 = now_ns();
    for (std::size_t c = 0; c < kClients; ++c) {
      if (traced) rep_w0[c] = now_ns();
      std::vector<std::uint8_t> bytes = serve::encode_response(applied[c]);
      clients[c].client_side.feed(bytes);
      const std::vector<std::vector<std::uint8_t>> frames =
          clients[c].client_side.take_frames();
      replies[c].reset();
      if (frames.size() == 1) replies[c] = serve::decode_response(frames[0]);
      done[c] = now_ns();
      digest = fnv1a(digest, bytes);
      if (traced) out.reply_frames.push_back(std::move(bytes));
    }
    if (traced) {
      out.batches.push_back(batch);
      out.timed.push_back(timed);
    }
    if (timed) {
      for (std::size_t c = 0; c < kClients; ++c) {
        out.latency_ns.push_back(static_cast<std::uint32_t>(
            std::min<std::int64_t>(done[c] - start, UINT32_MAX)));
        if (traced) {
          out.wire_ns.push_back(static_cast<double>(
              req_w1[c] - req_w0[c] + done[c] - rep_w0[c]));
        }
      }
      if (traced) {
        out.batch_ns.push_back(static_cast<double>(a1 - a0));
        const std::int32_t b =
            tracer->add("batch", start, done[kClients - 1], -1, op);
        for (std::size_t c = 0; c < kClients; ++c) {
          tracer->add("serve.wire.request", req_w0[c], req_w1[c], b, op);
        }
        tracer->add("serve.apply_batch", a0, a1, b, op);
        for (std::size_t c = 0; c < kClients; ++c) {
          tracer->add("serve.wire.reply", rep_w0[c], done[c], b, op);
        }
      }
      ++op;
    }
    for (std::size_t c = 0; c < kClients; ++c) {
      Client& cl = clients[c];
      const serve::Verb verb = cl.req.verb;
      if (timed) {
        ++res.attempted;
        ++res.counts[std::string("serve.req.") +
                     kVerbKey[static_cast<std::size_t>(verb)]];
      }
      if (!replies[c]) {
        if (timed) ++res.failed;
        res.fail_check("malformed reply frame");
        continue;
      }
      const serve::Response& r = *replies[c];
      if (timed && r.status != serve::Status::ok) ++res.failed;
      if (verb == serve::Verb::poll_delivery && r.status == serve::Status::ok) {
        res.counts["serve.deliveries_polled"] += r.deliveries.size();
      }
      const bool falsify = falsify_pending && verb == serve::Verb::step;
      if (falsify) falsify_pending = false;
      const std::string why = check_reply(cl, r, ids, falsify);
      if (!why.empty()) {
        res.fail_check(std::string(serve::verb_name(verb)) + ": " + why);
      }
    }
  };

  for (std::size_t k = 0; k < kSessionsPerClient; ++k) cycle(true, false);
  out.setup_cpu_ns = process_cpu_ns();
  if (opt.setup_only) return out;

  const std::int64_t loop0 = now_ns();
  const auto guard_ns =
      static_cast<std::int64_t>(kTimeGuard * opt.seconds * 1e9);
  out.latency_ns.reserve(cycles * kClients);
  const std::size_t window = std::max<std::size_t>(1, cycles / kWindows);
  out.window_requests = window * kClients;
  std::int64_t window0 = loop0;
  std::int64_t window_cpu0 = process_cpu_ns();
  for (std::size_t k = 0; k < cycles; ++k) {
    if (now_ns() - loop0 > guard_ns) {
      res.notes.push_back("time guard: stopped after " + std::to_string(k) +
                          " batches");
      break;
    }
    cycle(false, true);
    if ((k + 1) % window == 0) {
      const std::int64_t t = now_ns();
      const std::int64_t cpu = process_cpu_ns();
      out.window_s.push_back(static_cast<double>(t - window0) * 1e-9);
      out.window_cpu_s.push_back(static_cast<double>(cpu - window_cpu0) *
                                 1e-9);
      window0 = t;
      window_cpu0 = cpu;
    }
  }
  res.counts["serve.sessions_opened"] = registry.sessions_opened();
  // Folded to 32 bits so the digest stays exact as a JSON number.
  res.counts["serve.transcript_digest"] =
      (digest ^ (digest >> 32)) & 0xffffffffULL;
  return out;
}

/// Median over a pass's windows of each window's request-latency
/// quantile `q`.
double window_quantile(const Pass& pass, double q) {
  std::vector<double> values;
  for (std::size_t w = 0; w < pass.window_s.size(); ++w) {
    const auto first = pass.latency_ns.begin() +
                       static_cast<std::ptrdiff_t>(w * pass.window_requests);
    values.push_back(quantile(
        std::vector<double>(first, first + static_cast<std::ptrdiff_t>(
                                               pass.window_requests)),
        q));
  }
  return quantile(values, 0.5);
}

/// Median over a pass's windows of requests completed per second of wall
/// time.
double window_rate(const Pass& pass) {
  std::vector<double> values;
  for (const double s : pass.window_s) {
    values.push_back(static_cast<double>(pass.window_requests) / s);
  }
  return quantile(values, 0.5);
}

/// Median over a pass's windows of process CPU seconds per request.
double window_cpu_per_request(const Pass& pass) {
  std::vector<double> values;
  for (const double s : pass.window_cpu_s) {
    values.push_back(s / static_cast<double>(pass.window_requests));
  }
  return quantile(values, 0.5);
}

/// Replays the traced pass's batches through kShards registries applied
/// directly on this thread, with ids configured as ShardedRegistry does.
/// Every reply must be byte-equal to the sharded one.
void replay_direct(const Pass& pass, Result& res, Tracer& tracer) {
  static constexpr std::array<const char*, 7> kSpan{
      "serve.direct.none", "serve.direct.open", "serve.direct.send",
      "serve.direct.step", "serve.direct.poll", "serve.direct.report",
      "serve.direct.close"};
  std::vector<std::unique_ptr<serve::SessionRegistry>> shards;
  for (std::size_t k = 0; k < kShards; ++k) {
    shards.push_back(std::make_unique<serve::SessionRegistry>());
    shards.back()->configure_ids(k + 1, kShards);
  }
  std::uint64_t open_rr = 0;
  std::array<std::vector<double>, 7> per_verb;
  std::vector<double> fanout;
  std::size_t reply = 0;
  std::size_t timed_batch = 0;
  for (std::size_t b = 0; b < pass.batches.size(); ++b) {
    double direct_ns = 0.0;
    for (const serve::Request& req : pass.batches[b]) {
      std::size_t k = 0;
      if (req.verb == serve::Verb::open_session) {
        k = static_cast<std::size_t>(open_rr++ % kShards);
      } else if (req.session != 0) {
        k = static_cast<std::size_t>((req.session - 1) % kShards);
      }
      const std::int64_t t0 = now_ns();
      const serve::Response r = shards[k]->apply(req);
      const std::int64_t t1 = now_ns();
      const auto dt = static_cast<double>(t1 - t0);
      direct_ns += dt;
      if (pass.timed[b]) {
        const auto v = static_cast<std::size_t>(req.verb);
        per_verb[v].push_back(dt);
        tracer.add(kSpan[v], t0, t1, -1,
                   static_cast<std::uint32_t>(timed_batch));
      }
      if (serve::encode_response(r) != pass.reply_frames[reply++]) {
        res.fail_check("direct shard replay answered differently");
      }
    }
    if (pass.timed[b]) {
      fanout.push_back(pass.batch_ns[timed_batch++] - direct_ns);
    }
  }
  for (std::size_t v = 1; v < per_verb.size(); ++v) {
    res.put(std::string("serve.") + kVerbKey[v] + "_us",
            quantile(per_verb[v], 0.5) * 1e-3, "us");
  }
  res.put("par.fanout_us", quantile(fanout, 0.5) * 1e-3, "us");
}

}  // namespace

Result run_serve(const Options& opt) {
  // A traced run makes two passes (untraced reference, traced) plus a
  // direct replay, so each pass covers a fifth of the untraced stream.
  const std::size_t cycles = std::max<std::size_t>(
      10, static_cast<std::size_t>(opt.seconds * kCyclesPerSecond /
                                   (opt.trace ? 5.0 : 1.0)));
  Pass main = run_pass(opt, cycles, nullptr);
  Result res = std::move(main.r);
  res.setup_s.push_back(static_cast<double>(main.setup_cpu_ns) * 1e-9);
  if (opt.setup_only) return res;
  // Wall-clock figures of the untraced pass, in both modes.
  res.put("wall.op_p50_ms", window_quantile(main, 0.5) * 1e-6, "ms");
  res.put("wall.op_p90_ms", window_quantile(main, 0.9) * 1e-6, "ms");
  res.put("wall.throughput_per_s", window_rate(main), "1/s");
  if (!opt.trace) {
    res.put("cpu_ms_per_op", window_cpu_per_request(main) * 1e3, "ms");
    return res;
  }

  // Traced: the same stream again on a fresh registry, then a direct
  // replay of it through the shards on this thread.
  Tracer tracer;
  Pass traced = run_pass(opt, cycles, &tracer);
  if (!traced.r.correct) {
    for (const std::string& n : traced.r.notes) res.notes.push_back(n);
    res.correct = false;
  }
  if (traced.r.counts != res.counts) {
    res.fail_check("traced pass did different work");
  }
  res.put("serve.wire_us", quantile(traced.wire_ns, 0.5) * 1e-3, "us");
  res.put("serve.batch_p50_us", quantile(traced.batch_ns, 0.5) * 1e-3, "us");
  res.put("serve.batch_p99_us", quantile(traced.batch_ns, 0.99) * 1e-3, "us");
  const std::vector<double> untraced(main.latency_ns.begin(),
                                     main.latency_ns.end());
  const std::vector<double> traced_lat(traced.latency_ns.begin(),
                                       traced.latency_ns.end());
  res.put("serve.req_p99_us", quantile(untraced, 0.99) * 1e-3, "us");
  res.put("trace.overhead_frac",
          quantile(traced_lat, 0.5) / quantile(untraced, 0.5) - 1.0, "ratio");
  replay_direct(traced, res, tracer);
  if (!tracer.write(opt.work_dir + "/trace_" + opt.workload + ".jsonl")) {
    res.fail_check("could not write the span file");
  }
  return res;
}

}  // namespace perfbench
