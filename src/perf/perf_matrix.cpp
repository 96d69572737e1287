#include "perf/perf_matrix.hpp"

#include <chrono>
#include <sstream>

#include "obs/alloc_track.hpp"
#include "obs/json.hpp"
#include "obs/sink.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig::perf {
namespace {

/// A cell's swarm, deterministic in `seed`: scattered in an 80x80 box, or
/// on the jittered grid above 256 robots, where the baselines of the large
/// cells (sliced_n1024) were captured.
std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  if (n > 256) return sim::jittered_grid(rng, n);
  return sim::scatter(rng, n, 40.0, 3.0);
}

std::vector<std::uint8_t> payload(std::size_t len, std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

core::ChatNetworkOptions options_for(const Scenario& s) {
  core::ChatNetworkOptions o;
  o.synchrony = s.synchrony;
  o.protocol = s.protocol;
  o.seed = s.seed;
  return o;
}

void queue_messages(core::ChatNetwork& net, const Scenario& s) {
  const std::size_t n = net.robot_count();
  net.send(0, n - 1, payload(s.payload_len, s.seed ^ 0x9e3779b9));
  if (s.messages > 1) {
    net.send(n - 1, 0, payload(s.payload_len, s.seed ^ 0x7f4a7c15));
  }
}

Scenario cell(const char* name, core::ProtocolKind protocol,
              core::Synchrony synchrony, std::size_t robots,
              std::size_t payload_len, std::size_t messages,
              std::uint64_t seed) {
  Scenario s;
  s.name = name;
  s.protocol = protocol;
  s.synchrony = synchrony;
  s.robots = robots;
  s.payload_len = payload_len;
  s.messages = messages;
  s.seed = seed;
  return s;
}

void emit_value(std::ostringstream& out, bool& first, const std::string& key,
                const std::string& raw) {
  out << (first ? "\n" : ",\n") << "    " << obs::json_quote(key) << ": "
      << raw;
  first = false;
}

}  // namespace

std::vector<Scenario> fast_matrix() {
  using core::ProtocolKind;
  using core::Synchrony;
  return {
      cell("sync2_n2", ProtocolKind::sync2, Synchrony::synchronous, 2, 8, 2,
           11),
      cell("sliced_n8", ProtocolKind::sliced, Synchrony::synchronous, 8, 4,
           2, 12),
      cell("sliced_n32", ProtocolKind::sliced, Synchrony::synchronous, 32, 2,
           1, 13),
      cell("ksegment_n9", ProtocolKind::ksegment, Synchrony::synchronous, 9,
           4, 1, 14),
      cell("async2_n2", ProtocolKind::async2, Synchrony::asynchronous, 2, 8,
           2, 15),
      cell("asyncn_n8", ProtocolKind::asyncn, Synchrony::asynchronous, 8, 4,
           1, 16),
      // With linear-time observation both cells take milliseconds.
      cell("sliced_n64", ProtocolKind::sliced, Synchrony::synchronous, 64, 2,
           1, 17),
      cell("asyncn_n16", ProtocolKind::asyncn, Synchrony::asynchronous, 16,
           2, 1, 18),
  };
}

std::vector<Scenario> full_matrix() {
  using core::ProtocolKind;
  using core::Synchrony;
  std::vector<Scenario> m = fast_matrix();
  // The post-epoch-ring large cell: one 2-byte message across a
  // 1024-robot sliced swarm. Exists to pin the hot-path allocation
  // profile at a size where the old per-robot configuration copies and
  // all-pairs scans dominated; nightly-only because the swarm holds O(n)
  // state per robot (t0 centers, decode memo, listing and slot tables),
  // about 70 MB at this size.
  m.push_back(cell("sliced_n1024", ProtocolKind::sliced,
                   Synchrony::synchronous, 1024, 2, 1, 19));
  return m;
}

ScenarioResult run_scenario(const Scenario& s) {
  ScenarioResult r;
  r.scenario = s;
  obs::prof::Profiler prof;
  obs::CountingSink counter;
  std::vector<geom::Vec2> positions = scatter(s.robots, s.seed);
  core::ChatNetworkOptions options = options_for(s);
  options.profiler = &prof;
  const obs::alloc::Counters b0 = obs::alloc::snapshot();
  const auto c0 = std::chrono::steady_clock::now();
  core::ChatNetwork net(std::move(positions), options);
  const auto c1 = std::chrono::steady_clock::now();
  const obs::alloc::Counters b1 = obs::alloc::snapshot();
  r.build_allocs = b1.allocs - b0.allocs;
  r.build_bytes = b1.bytes - b0.bytes;
  r.build_ns = std::chrono::duration<double, std::nano>(c1 - c0).count();
  r.protocol = core::protocol_kind_name(net.protocol_kind());
  net.attach_event_sink(&counter);
  queue_messages(net, s);

  obs::alloc::reset_peak();
  const obs::alloc::Counters before = obs::alloc::snapshot();
  const std::uint64_t rows_before = net.engine().row_visits();
  const auto t0 = std::chrono::steady_clock::now();
  r.quiescent = net.run_until_quiescent(s.max_instants);
  const auto t1 = std::chrono::steady_clock::now();
  const obs::alloc::Counters after = obs::alloc::snapshot();
  r.observe_rows = net.engine().row_visits() - rows_before;

  r.alloc_tracking = obs::alloc::active();
  r.instants = net.engine().now();
  r.allocs = after.allocs - before.allocs;
  r.frees = after.frees - before.frees;
  r.bytes = after.bytes - before.bytes;
  // Relative peak: high-water mark of the run above its starting live
  // level, so the thread's prior history cannot leak into the number.
  r.peak_bytes = after.peak_live_bytes - before.live_bytes;
  r.events = counter.total();
  r.run_ns = std::chrono::duration<double, std::nano>(t1 - t0).count();
  r.phases = prof.stats();
  return r;
}

std::string render_perf_json(const ScenarioResult& r, bool include_timing) {
  std::ostringstream out;
  out << "{\n  \"bench\": " << obs::json_quote(r.scenario.name) << ",";
  if (include_timing) {
    out << "\n  \"wall_seconds\": " << obs::json_number(r.run_ns / 1e9)
        << ",";
  }
  out << "\n  \"values\": {";
  bool first = true;
  const auto u64 = [](std::uint64_t v) { return std::to_string(v); };
  const double inst =
      r.instants > 0 ? static_cast<double>(r.instants) : 1.0;
  emit_value(out, first, "protocol", obs::json_quote(r.protocol));
  emit_value(out, first, "robots", u64(r.scenario.robots));
  emit_value(out, first, "instants", u64(r.instants));
  emit_value(out, first, "quiescent", r.quiescent ? "true" : "false");
  emit_value(out, first, "alloc_tracking",
             r.alloc_tracking ? "true" : "false");
  emit_value(out, first, "events", u64(r.events));
  emit_value(out, first, "observe_rows", u64(r.observe_rows));
  emit_value(out, first, "events_per_instant",
             obs::json_number(static_cast<double>(r.events) / inst));
  emit_value(out, first, "allocs", u64(r.allocs));
  emit_value(out, first, "allocs_per_instant",
             obs::json_number(static_cast<double>(r.allocs) / inst));
  emit_value(out, first, "frees", u64(r.frees));
  emit_value(out, first, "bytes", u64(r.bytes));
  emit_value(out, first, "bytes_per_instant",
             obs::json_number(static_cast<double>(r.bytes) / inst));
  emit_value(out, first, "peak_bytes", std::to_string(r.peak_bytes));
  emit_value(out, first, "build_allocs", u64(r.build_allocs));
  emit_value(out, first, "build_bytes", u64(r.build_bytes));
  for (const obs::prof::PhaseStats& p : r.phases) {
    const std::string base = std::string("prof.") + p.name + ".";
    emit_value(out, first, base + "calls", u64(p.calls));
    emit_value(out, first, base + "self_allocs", u64(p.self_allocs));
    emit_value(out, first, base + "total_allocs", u64(p.total_allocs));
    emit_value(out, first, base + "self_bytes", u64(p.self_bytes));
    emit_value(out, first, base + "total_bytes", u64(p.total_bytes));
    if (include_timing) {
      emit_value(out, first, base + "self_cycles", u64(p.self_cycles));
      emit_value(out, first, base + "total_cycles", u64(p.total_cycles));
    }
  }
  if (include_timing) {
    emit_value(out, first, "build_ns", obs::json_number(r.build_ns));
    emit_value(out, first, "run_ns", obs::json_number(r.run_ns));
  }
  out << (first ? "" : "\n  ") << "}\n}\n";
  return out.str();
}

}  // namespace stig::perf
