// swarm_ids / swarm_anon — one operation is a whole chat: build a
// ChatNetwork, queue unicasts from distinct senders, run the sliced
// synchronous protocol to quiescence, then check every delivery.
//
// swarm_ids (n = 256, identified robots with sense of direction, by_ids
// naming) spends ~97% of a chat in the per-instant compute/observe loop;
// swarm_anon (n = 128, anonymous, no sense of direction, relative naming
// with random rotations) spends ~70% in construction, where every robot
// builds its own O(n^2) naming tables. A change to one side should move
// one workload and leave the other alone.
#include <array>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "common.hpp"
#include "core/chat_network.hpp"
#include "geom/sec.hpp"
#include "geom/voronoi.hpp"
#include "obs/alloc_track.hpp"
#include "obs/prof.hpp"
#include "par/seed.hpp"
#include "proto/naming.hpp"
#include "proto/slices.hpp"
#include "sim/rng.hpp"

namespace perfbench {

using namespace stig;

namespace {

struct SwarmShape {
  std::size_t n;
  std::size_t messages;       ///< Unicasts per chat, from distinct senders.
  std::size_t payload_bytes;
  double chat_s;              ///< Approximate chat time on a 4-core x86 VM;
                              ///< sizes the run to --seconds.
};

constexpr SwarmShape kIds{256, 32, 2, 0.55};
constexpr SwarmShape kAnon{128, 4, 1, 0.55};
constexpr double kSpacing = 3.0;
constexpr sim::Time kMaxInstants = 4096;
/// Chats per throughput window: a window's rate averages over chats that
/// run ±10% apart, and the median over windows ignores contention bursts
/// shorter than half the run.
constexpr std::size_t kWindowChats = 4;

/// obs::prof phases whose self time per instant is a per-layer metric.
struct PhaseMetric {
  const char* phase;
  const char* metric;
};
constexpr std::array<PhaseMetric, 5> kPhaseMetrics{{
    {"engine.compute", "proto.compute_us"},
    {"engine.observe", "sim.observe_us"},
    {"engine.commit", "sim.commit_us"},
    {"engine.emit", "sim.emit_us"},
    {"net.collect", "core.collect_us"},
}};

struct Message {
  sim::RobotIndex from = 0;
  sim::RobotIndex to = 0;
  std::vector<std::uint8_t> payload;
};

struct ChatInput {
  std::vector<geom::Vec2> positions;
  core::ChatNetworkOptions options;
  std::vector<Message> messages;
};

/// Jittered grid: row-major cells of side kSpacing, extent proportional to
/// sqrt(n), each point moved by at most 0.5 per axis. It never needs
/// rejection sampling, so any n places in O(n).
std::vector<geom::Vec2> grid_scatter(std::size_t n, sim::Rng& rng) {
  const auto side = static_cast<std::size_t>(
      std::ceil(std::sqrt(static_cast<double>(n))));
  std::vector<geom::Vec2> pts;
  pts.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const double x = static_cast<double>(i % side) * kSpacing;
    const double y = static_cast<double>(i / side) * kSpacing;
    pts.push_back(geom::Vec2{x + rng.uniform(-0.5, 0.5),
                             y + rng.uniform(-0.5, 0.5)});
  }
  return pts;
}

ChatInput make_chat(const SwarmShape& shape, bool anonymous,
                    std::uint64_t seed) {
  sim::Rng rng(seed);
  ChatInput in;
  in.positions = grid_scatter(shape.n, rng);
  in.options.synchrony = core::Synchrony::synchronous;
  in.options.caps.visible_ids = !anonymous;
  in.options.caps.sense_of_direction = !anonymous;
  in.options.seed = par::mix_seed(seed);
  // Distinct senders: a partial Fisher-Yates shuffle of the robot indices.
  std::vector<sim::RobotIndex> order(shape.n);
  for (std::size_t i = 0; i < shape.n; ++i) order[i] = i;
  for (std::size_t k = 0; k < shape.messages; ++k) {
    std::swap(order[k], order[rng.uniform_int(k, shape.n - 1)]);
    Message m;
    m.from = order[k];
    m.to = (m.from + 1 + rng.uniform_int(0, shape.n - 2)) % shape.n;
    m.payload.resize(shape.payload_bytes);
    for (auto& b : m.payload) {
      b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    }
    in.messages.push_back(std::move(m));
  }
  return in;
}

/// Every queued payload arrived exactly once, at its addressee, from its
/// sender, and nothing else was delivered.
bool deliveries_match(const core::ChatNetwork& net,
                      const std::vector<Message>& expected,
                      std::string& why) {
  std::vector<bool> seen(expected.size(), false);
  std::size_t total = 0;
  for (sim::RobotIndex r = 0; r < net.robot_count(); ++r) {
    for (const core::Delivery& d : net.received(r)) {
      ++total;
      bool matched = false;
      for (std::size_t k = 0; k < expected.size() && !matched; ++k) {
        const Message& m = expected[k];
        if (!seen[k] && !d.broadcast && d.from == m.from && d.to == r &&
            m.to == r && d.payload == m.payload) {
          seen[k] = matched = true;
        }
      }
      if (!matched) {
        why = "unexpected delivery at robot " + std::to_string(r) +
              " from " + std::to_string(d.from);
        return false;
      }
    }
  }
  if (total != expected.size()) {
    why = std::to_string(total) + " deliveries for " +
          std::to_string(expected.size()) + " messages";
    return false;
  }
  return true;
}

/// Per-layer probes on robot 0's t0 view, as the protocol computes them
/// during construction. Each result is checked, which also keeps the
/// compiler from dropping the call.
void probe_layers(const sim::Snapshot& snap, proto::NamingMode naming,
                  Tracer& tr, std::int32_t parent, std::uint32_t op) {
  std::vector<geom::Vec2> pts;
  std::vector<sim::VisibleId> ids;
  for (const sim::ObservedRobot& o : snap.robots) {
    pts.push_back(o.position);
    if (o.id) ids.push_back(*o.id);
  }
  {
    Scoped s(&tr, "proto.sliced_core", parent, op);
    const proto::SlicedCore core(snap, naming, snap.size());
    if (core.robot_count() != snap.size()) throw std::logic_error("core");
  }
  {
    Scoped s(&tr, "proto.naming", parent, op);
    std::size_t sink = 0;
    if (naming == proto::NamingMode::relative) {
      for (std::size_t i = 0; i < pts.size(); ++i) {
        sink += proto::relative_naming(pts, i).ranks[0];
      }
    } else {
      sink += proto::id_ranks(ids)[0];
    }
    if (sink > pts.size() * pts.size()) throw std::logic_error("naming");
  }
  {
    Scoped s(&tr, "geom.sec", parent, op);
    if (!(geom::smallest_enclosing_circle(pts).radius > 0.0)) {
      throw std::logic_error("sec");
    }
  }
  {
    Scoped s(&tr, "geom.granular", parent, op);
    double sum = 0.0;
    for (std::size_t i = 0; i < pts.size(); ++i) {
      sum += geom::granular_radius(pts, i);
    }
    if (!(sum > 0.0)) throw std::logic_error("granular");
  }
}

}  // namespace

Result run_swarm(const Options& opt, bool anonymous) {
  const SwarmShape& shape = anonymous ? kAnon : kIds;
  const std::size_t chats = std::max<std::size_t>(
      kWindowChats,
      static_cast<std::size_t>(std::lround(opt.seconds / shape.chat_s)));
  const proto::NamingMode naming =
      anonymous ? proto::NamingMode::relative : proto::NamingMode::by_ids;

  Result res;
  // Set-up: every chat's inputs, then one untimed warm-up chat (index
  // `chats`, never measured) so lazily built state is paid here.
  std::vector<ChatInput> inputs;
  for (std::size_t i = 0; i <= chats; ++i) {
    inputs.push_back(
        make_chat(shape, anonymous, par::derive_seed(opt.seed, i)));
  }
  {
    ChatInput& w = inputs[chats];
    core::ChatNetwork net(w.positions, w.options);
    for (const Message& m : w.messages) net.send(m.from, m.to, m.payload);
    net.run_until_quiescent(kMaxInstants);
  }
  res.setup_s.push_back(static_cast<double>(process_cpu_ns()) * 1e-9);
  if (opt.setup_only) return res;

  Tracer tracer;
  std::vector<double> chat_s, traced_chat_s;
  std::vector<double> chat_cpu_s;  ///< The same interval in CPU time.
  std::vector<double> cycle_s;     ///< Chat, checks and teardown.
  std::vector<double> build_live, build_allocs;
  std::array<std::vector<double>, kPhaseMetrics.size()> per_instant;
  std::vector<double> compute_allocs;
  const double cycles_per_ns = obs::prof::Profiler::cycles_per_ns();

  // A traced run measures every chat twice, so it makes half as many.
  const std::size_t timed_chats = opt.trace ? (chats + 1) / 2 : chats;
  const double guard_s =
      kTimeGuard * static_cast<double>(chats) * shape.chat_s;
  const Clock::time_point loop_start = Clock::now();
  for (std::size_t i = 0; i < timed_chats; ++i) {
    if (Clock::now() - loop_start > std::chrono::duration<double>(guard_s)) {
      res.notes.push_back("time guard: stopped after " + std::to_string(i) +
                          " chats");
      break;
    }
    const ChatInput& in = inputs[i];
    // A traced run measures each chat twice, untraced then traced, so the
    // tracing overhead is taken on identical inputs.
    for (int pass = 0; pass < (opt.trace ? 2 : 1); ++pass) {
      const bool traced = pass == 1;
      Tracer* tr = traced ? &tracer : nullptr;
      const auto op = static_cast<std::uint32_t>(i);
      obs::prof::Profiler prof;
      std::optional<sim::Snapshot> t0_view;

      const std::int64_t c0 = thread_cpu_ns();
      const std::int64_t t0 = now_ns();
      const std::int32_t chat_id = traced ? tracer.open("chat", -1, op) : -1;
      const obs::alloc::Counters a0 = obs::alloc::snapshot();
      std::optional<core::ChatNetwork> net;
      {
        Scoped s(tr, "core.build", chat_id, op);
        net.emplace(in.positions, in.options);
      }
      const obs::alloc::Counters a1 = obs::alloc::snapshot();
      if (traced) {
        t0_view = net->engine().make_snapshot(0);
        net->attach_profiler(&prof);
      }
      for (const Message& m : in.messages) net->send(m.from, m.to, m.payload);
      bool quiet = false;
      if (traced) {
        for (sim::Time k = 0; k < kMaxInstants && !net->quiescent(); ++k) {
          Scoped s(tr, "core.step", chat_id, op);
          net->step();
        }
        quiet = net->quiescent();
      } else {
        quiet = net->run_until_quiescent(kMaxInstants);
      }
      const std::int64_t t1 = now_ns();
      (traced ? traced_chat_s : chat_s)
          .push_back(static_cast<double>(t1 - t0) * 1e-9);
      if (!traced) {
        chat_cpu_s.push_back(static_cast<double>(thread_cpu_ns() - c0) *
                             1e-9);
      }
      if (traced) {
        tracer.close(chat_id);
        probe_layers(*t0_view, naming, tracer, -1, op);
        const double instants = static_cast<double>(net->engine().now());
        for (const obs::prof::PhaseStats& ps : prof.stats()) {
          for (std::size_t p = 0; p < kPhaseMetrics.size(); ++p) {
            if (std::string(ps.name) != kPhaseMetrics[p].phase) continue;
            per_instant[p].push_back(static_cast<double>(ps.self_cycles) /
                                     cycles_per_ns / instants);
          }
          if (std::string(ps.name) == "engine.compute") {
            compute_allocs.push_back(static_cast<double>(ps.self_allocs) /
                                     instants);
          }
        }
        net->attach_profiler(nullptr);
        continue;
      }

      ++res.attempted;
      std::string why;
      std::vector<Message> expected = in.messages;
      if (opt.falsify == "payload" && i == 0) expected[0].payload[0] ^= 0x01;
      if (!quiet) {
        ++res.failed;
        res.fail_check("chat " + std::to_string(i) + " not quiescent");
      } else if (!deliveries_match(*net, expected, why)) {
        ++res.failed;
        res.fail_check("chat " + std::to_string(i) + ": " + why);
      }
      build_allocs.push_back(static_cast<double>(a1.allocs - a0.allocs));
      build_live.push_back(
          static_cast<double>(a1.live_bytes - a0.live_bytes) / 1e6);
      res.counts["swarm.instants"] += net->engine().now();
      for (sim::RobotIndex r = 0; r < net->robot_count(); ++r) {
        res.counts["swarm.bits_decoded"] += net->stats(r).bits_decoded;
        res.counts["swarm.deliveries"] += net->received(r).size();
      }
      res.counts["swarm.build_allocs"] += a1.allocs - a0.allocs;
      res.counts["swarm.build_live_bytes"] +=
          static_cast<std::uint64_t>(a1.live_bytes - a0.live_bytes);
      net.reset();
      cycle_s.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  }

  // Wall-clock figures of the untraced chats, in both modes.
  res.put("wall.op_p50_ms", quantile(chat_s, 0.5) * 1e3, "ms");
  res.put("wall.op_p90_ms", quantile(chat_s, 0.9) * 1e3, "ms");
  // Chats per second over windows of kWindowChats whole iterations (chat,
  // checks, teardown), median over the run's windows.
  std::vector<double> rates;
  for (std::size_t w = 0; w + kWindowChats <= cycle_s.size();
       w += kWindowChats) {
    double wall = 0.0;
    for (std::size_t k = w; k < w + kWindowChats; ++k) wall += cycle_s[k];
    rates.push_back(static_cast<double>(kWindowChats) / wall);
  }
  res.put("wall.throughput_per_s", quantile(rates, 0.5), "1/s");
  if (!opt.trace) {
    // The mean, not the median: every chat has the same shape, and the
    // host's speed drifts in phases of a few seconds, so the mean weighs
    // each run's phases by their share where the median jumps between them.
    const double cpu_s =
        std::accumulate(chat_cpu_s.begin(), chat_cpu_s.end(), 0.0) /
        static_cast<double>(std::max<std::size_t>(1, chat_cpu_s.size()));
    res.put("cpu_ms_per_op", cpu_s * 1e3, "ms");
    return res;
  }

  const auto ms = [&](const char* name) {
    return quantile(tracer.durations(name), 0.5) * 1e-6;
  };
  res.put("core.build_ms", ms("core.build"), "ms");
  res.put("core.build_live_mb", quantile(build_live, 0.5), "MB");
  res.put("core.build_allocs", quantile(build_allocs, 0.5), "count");
  res.put("proto.sliced_core_ms", ms("proto.sliced_core"), "ms");
  res.put("proto.naming_ms", ms("proto.naming"), "ms");
  res.put("geom.sec_us", ms("geom.sec") * 1e3, "us");
  res.put("geom.granular_ms", ms("geom.granular"), "ms");
  const std::vector<double> steps = tracer.durations("core.step");
  res.put("core.step_p50_us", quantile(steps, 0.5) * 1e-3, "us");
  res.put("core.step_p99_us", quantile(steps, 0.99) * 1e-3, "us");
  for (std::size_t p = 0; p < kPhaseMetrics.size(); ++p) {
    res.put(kPhaseMetrics[p].metric, quantile(per_instant[p], 0.5) * 1e-3,
            "us");
  }
  res.put("proto.compute_allocs", quantile(compute_allocs, 0.5), "count");
  res.put("trace.overhead_frac",
          quantile(traced_chat_s, 0.5) / quantile(chat_s, 0.5) - 1.0,
          "ratio");
  if (!tracer.write(opt.work_dir + "/trace_" + opt.workload + ".jsonl")) {
    res.fail_check("could not write the span file");
  }
  return res;
}

}  // namespace perfbench
