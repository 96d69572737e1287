// stigreport — offline analysis and regression gating for stigmergy runs.
//
// Three subcommands:
//
//   stigreport spans <events.jsonl>
//       Replay a `stigsim --events` JSONL log through the span builder and
//       print per-message latency attribution: an end-to-end percentile
//       summary, a per-span table (bits, phases, deliveries), per-robot
//       utilization and the run's critical path. `--json FILE` re-emits
//       the full span document ("-" = stdout); `--trace FILE` writes the
//       nested Chrome-trace view.
//
//   stigreport diff --baseline PATH <BENCH_*.json ...>
//       Compare bench artifacts against committed baselines. PATH is a
//       baseline file or a directory searched by filename. Numeric values
//       must stay within a relative threshold of 0.05; string values must
//       match exactly. Informational keys per the obs/metric_keys.hpp
//       convention — any key containing "wall", "cycles", "_per_sec",
//       "_pct" or "_ns" — are skipped. Prints one verdict line per key.
//
//   stigreport perf --baseline PATH <PERF_*.json ...>
//       The same gate for stigperf artifacts, with a zero threshold: the
//       gated keys (allocation counts, bytes, event counts) are
//       deterministic functions of (code, seed), so any drift is a real
//       regression. When either side of a comparison was
//       produced without allocation tracking (sanitizer build,
//       "alloc_tracking": false), allocation-derived keys are skipped
//       instead of failing.
//
//   stigreport cov --baseline PATH <COV_*.json ...>
//       Coverage gate for stigfuzz --cov artifacts. Presence-based, not
//       value-based: every "edge."-prefixed key in the baseline must
//       still exist in the current artifact — a missing edge means the
//       corpus stopped exercising a protocol transition, parser outcome,
//       interleaving class, or fault path it used to reach. Hit counts
//       are informational (they scale with corpus size); new edges are
//       reported but never fail.
//
// Exit codes: 0 ok; 1 regression or mismatch (diff/perf/cov); 2 usage
// error; 3 I/O or parse error.
#include <algorithm>
#include <cmath>
#include <charconv>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/span.hpp"
#include "obs/json.hpp"
#include "obs/jsonl_parse.hpp"
#include "obs/metric_keys.hpp"

namespace {

constexpr int kExitOk = 0;
constexpr int kExitRegression = 1;
constexpr int kExitUsage = 2;
constexpr int kExitIo = 3;

void usage(std::ostream& out) {
  out << "stigreport — span analysis and bench/perf regression gating\n\n"
      << "  stigreport spans <events.jsonl> [--json FILE|-] [--trace FILE]\n"
      << "  stigreport diff --baseline PATH <BENCH_*.json ...>\n"
      << "  stigreport perf --baseline PATH <PERF_*.json ...>\n"
      << "  stigreport cov --baseline PATH <COV_*.json ...>\n"
      << "  stigreport --help\n\n"
      << "spans: rebuild message spans from a stigsim --events log and\n"
      << "print latency attribution (percentiles, phases, critical path).\n\n"
      << "diff: gate BENCH_*.json artifacts against committed baselines.\n"
      << "Numeric values compared with a relative threshold of 0.05;\n"
      << "informational keys — containing \"wall\", \"cycles\",\n"
      << "\"_per_sec\", \"_pct\" or \"_ns\" — are machine-speed dependent\n"
      << "and skipped; strings must match exactly.\n\n"
      << "perf: the same gate for stigperf artifacts with a zero\n"
      << "threshold — the gated keys are deterministic, so any drift is a\n"
      << "regression. Allocation-derived keys are skipped when either\n"
      << "side reports \"alloc_tracking\": false (sanitizer build).\n\n"
      << "cov: presence gate for stigfuzz --cov artifacts. Every \"edge.\"\n"
      << "key in the baseline must still exist; a lost edge fails. Hit\n"
      << "counts are informational; new edges are reported, not failed.\n\n"
      << "exit codes: 0 ok; 1 regression; 2 usage; 3 I/O error\n";
}

// ---------------------------------------------------------------- spans --

double percentile(const std::vector<double>& sorted, double p) {
  if (sorted.empty()) return 0.0;
  const double rank = p * static_cast<double>(sorted.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(rank);
  const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
  const double frac = rank - static_cast<double>(lo);
  return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

int run_spans(const std::vector<std::string>& args) {
  std::string log_path;
  std::string json_out;
  std::string trace_out;
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--json" || a == "--trace") {
      if (i + 1 >= args.size()) {
        std::cerr << "stigreport: " << a << " needs a value\n";
        return kExitUsage;
      }
      (a == "--json" ? json_out : trace_out) = args[++i];
    } else if (!a.empty() && a[0] == '-' && a != "-") {
      std::cerr << "stigreport: unknown spans flag " << a << "\n";
      return kExitUsage;
    } else if (log_path.empty()) {
      log_path = a;
    } else {
      std::cerr << "stigreport: spans takes one log file\n";
      return kExitUsage;
    }
  }
  if (log_path.empty()) {
    std::cerr << "stigreport: spans needs an events JSONL file\n";
    return kExitUsage;
  }

  stig::obs::EventLog log;
  {
    std::ifstream in(log_path);
    if (!in) {
      std::cerr << "stigreport: cannot open " << log_path << "\n";
      return kExitIo;
    }
    const std::size_t failed = log.read(in);
    if (failed > 0) {
      // Flight-recorder headers and truncated tails parse as failures;
      // report them but keep going — spans only need the event lines.
      std::cerr << "stigreport: " << failed << " unparsed line(s) in "
                << log_path << "\n";
    }
  }
  if (log.events().empty()) {
    std::cerr << "stigreport: no events in " << log_path << "\n";
    return kExitIo;
  }

  stig::obs::SpanBuilder builder;
  for (const stig::obs::Event& e : log.events()) builder.on_event(e);
  builder.finalize();

  const auto& spans = builder.spans();
  std::vector<double> e2e;
  e2e.reserve(spans.size());
  for (const auto& s : spans) e2e.push_back(static_cast<double>(s.end_to_end()));
  std::sort(e2e.begin(), e2e.end());

  std::ostream& out = std::cout;
  out << "run: " << builder.instants() << " instants, " << spans.size()
      << " message span(s)";
  if (builder.corrupt_frames() > 0) {
    out << ", " << builder.corrupt_frames() << " corrupt frame(s)";
  }
  out << "\n\n";
  out << "end-to-end latency (instants): p50 " << percentile(e2e, 0.50)
      << "  p90 " << percentile(e2e, 0.90) << "  p99 "
      << percentile(e2e, 0.99) << "  max "
      << (e2e.empty() ? 0.0 : e2e.back()) << "\n\n";

  out << std::left << std::setw(5) << "id" << std::setw(8) << "sender"
      << std::setw(6) << "to" << std::setw(6) << "bits" << std::setw(8)
      << "start" << std::setw(8) << "end" << std::setw(8) << "e2e"
      << std::setw(7) << "deliv" << "phases\n";
  for (const auto& s : spans) {
    // Aggregate phase instants by name, in first-seen order.
    std::vector<std::pair<std::string, std::uint64_t>> agg;
    for (const auto& seg : s.phases) {
      auto it = std::find_if(agg.begin(), agg.end(), [&](const auto& p) {
        return p.first == seg.phase;
      });
      if (it == agg.end()) {
        agg.emplace_back(seg.phase, seg.instants());
      } else {
        it->second += seg.instants();
      }
    }
    std::ostringstream phases;
    for (std::size_t i = 0; i < agg.size(); ++i) {
      phases << (i == 0 ? "" : " ") << agg[i].first << "=" << agg[i].second;
    }
    out << std::left << std::setw(5) << s.id << std::setw(8) << s.sender
        << std::setw(6)
        << (s.broadcast ? std::string("*") : std::to_string(s.addressee))
        << std::setw(6) << s.bit_times.size() << std::setw(8) << s.start()
        << std::setw(8) << s.end() << std::setw(8) << s.end_to_end()
        << std::setw(7) << s.deliveries.size() << phases.str() << "\n";
  }

  out << "\nrobots:\n";
  for (const auto& u : builder.utilization()) {
    out << "  robot " << u.robot << ": " << u.bits_sent << " bit(s) sent, "
        << u.busy_instants << " busy / " << u.silent_instants
        << " silent instants (utilization " << std::fixed
        << std::setprecision(3) << u.utilization << ")\n";
    out.unsetf(std::ios::fixed);
  }

  const auto& cp = builder.critical_path();
  if (cp.sender >= 0) {
    out << "\ncritical path: sender " << cp.sender << ", "
        << cp.span_ids.size() << " span(s), " << cp.total_instants
        << " instants (" << cp.transmit_instants << " transmitting, "
        << cp.wait_instants << " waiting)\n";
  }

  if (!json_out.empty()) {
    if (json_out == "-") {
      builder.write_json(std::cout);
    } else {
      std::ofstream jf(json_out);
      if (!jf) {
        std::cerr << "stigreport: cannot write " << json_out << "\n";
        return kExitIo;
      }
      builder.write_json(jf);
    }
  }
  if (!trace_out.empty()) {
    std::ofstream tf(trace_out);
    if (!tf) {
      std::cerr << "stigreport: cannot write " << trace_out << "\n";
      return kExitIo;
    }
    builder.write_chrome_trace(tf);
  }
  return kExitOk;
}

// ----------------------------------------------------------------- diff --

/// One BENCH_*.json artifact reduced to its name and flat values map.
/// Values stay as raw JSON scalars ("12", "0.5", "\"true\"").
struct BenchValues {
  std::string bench;
  std::vector<std::pair<std::string, std::string>> values;
};

/// Parses a BENCH_*.json artifact: the "bench" name and the flat scalar
/// "values" object. Tables are ignored — headline values are the gate.
std::optional<BenchValues> parse_bench(const std::string& path) {
  std::ifstream in(path);
  if (!in) return std::nullopt;
  std::stringstream ss;
  ss << in.rdbuf();
  const std::string text = ss.str();
  const auto top = stig::obs::json_object(text);
  if (!top) return std::nullopt;
  const auto bench = stig::obs::json_member(*top, "bench");
  const auto name = bench ? stig::obs::json_unquote(*bench) : std::nullopt;
  const auto values = stig::obs::json_member(*top, "values");
  const auto members = values ? stig::obs::json_object(*values) : std::nullopt;
  if (!name || !members) return std::nullopt;
  BenchValues out{*name, {}};
  for (const auto& [key, raw] : *members) out.values.emplace_back(key, raw);
  return out;
}

std::optional<double> as_number(const std::string& raw) {
  double v = 0.0;
  const auto [ptr, ec] =
      std::from_chars(raw.data(), raw.data() + raw.size(), v);
  if (ec != std::errc{} || ptr != raw.data() + raw.size()) {
    return std::nullopt;
  }
  return v;
}

/// True for keys derived from operator-new interposition counters, which
/// read zero in builds where interposition is compiled out (sanitizers),
/// and for "alloc_tracking" itself.
bool is_alloc_key(const std::string& key) {
  for (const char* marker : {"alloc", "bytes", "frees"}) {
    if (key.find(marker) != std::string::npos) return true;
  }
  return false;
}

/// True when the artifact recorded that allocation tracking was off.
bool alloc_tracking_off(const BenchValues& v) {
  for (const auto& [key, raw] : v.values) {
    if (key == "alloc_tracking") return raw == "false";
  }
  return false;
}

/// Reads `--baseline PATH ARTIFACT...` for gate `cmd` over `kind`_*.json
/// artifacts; false after reporting a usage error.
bool gate_args(const std::vector<std::string>& args, const char* cmd,
               const char* kind, std::string& baseline_path,
               std::vector<std::string>& artifacts) {
  for (std::size_t i = 0; i < args.size(); ++i) {
    const std::string& a = args[i];
    if (a == "--baseline") {
      if (i + 1 >= args.size()) {
        std::cerr << "stigreport: --baseline needs a value\n";
        return false;
      }
      baseline_path = args[++i];
    } else if (!a.empty() && a[0] == '-') {
      std::cerr << "stigreport: unknown " << cmd << " flag " << a << "\n";
      return false;
    } else {
      artifacts.push_back(a);
    }
  }
  if (baseline_path.empty()) {
    std::cerr << "stigreport: " << cmd << " needs --baseline\n";
    return false;
  }
  if (artifacts.empty()) {
    std::cerr << "stigreport: " << cmd << " needs " << kind
              << "_*.json artifacts\n";
    return false;
  }
  return true;
}

/// An artifact, its baseline, and the baseline's file.
struct GatePair {
  BenchValues current;
  BenchValues baseline;
  std::string base_file;
};

/// Parses `artifact` and its baseline: `baseline_path` itself, or the file
/// of the same name when it is a directory. nullopt after reporting.
std::optional<GatePair> load_pair(const std::string& artifact,
                                  const std::string& baseline_path) {
  namespace fs = std::filesystem;
  auto current = parse_bench(artifact);
  if (!current) {
    std::cerr << "stigreport: cannot parse " << artifact << "\n";
    return std::nullopt;
  }
  std::string base_file =
      fs::is_directory(baseline_path)
          ? (fs::path(baseline_path) / fs::path(artifact).filename()).string()
          : baseline_path;
  auto baseline = parse_bench(base_file);
  if (!baseline) {
    std::cerr << "stigreport: cannot parse baseline " << base_file << " for "
              << artifact << "\n";
    return std::nullopt;
  }
  return GatePair{std::move(*current), std::move(*baseline),
                  std::move(base_file)};
}

/// Shared gate for `diff` (bench artifacts, relative threshold) and
/// `perf` (stigperf artifacts, exact, with the alloc-key skip).
int run_gate(const std::vector<std::string>& args, bool perf_mode) {
  const double threshold = perf_mode ? 0.0 : 0.05;
  std::string baseline_path;
  std::vector<std::string> artifacts;
  if (!gate_args(args, perf_mode ? "perf" : "diff",
                 perf_mode ? "PERF" : "BENCH", baseline_path, artifacts)) {
    return kExitUsage;
  }

  int regressions = 0;
  int compared = 0;
  for (const std::string& artifact : artifacts) {
    const auto pair = load_pair(artifact, baseline_path);
    if (!pair) return kExitIo;
    const auto& [current, baseline, base_file] = *pair;
    std::cout << current.bench << " vs " << base_file
              << " (threshold " << threshold << "):\n";

    // Allocation-derived keys are only comparable when both sides counted
    // allocations; a sanitizer build (alloc_tracking:false) on either side
    // skips them — in `perf` and `diff` mode alike, so BENCH artifacts
    // that record memory-per-session stay gateable under ASan/TSan lanes.
    const bool skip_alloc_keys =
        alloc_tracking_off(current) || alloc_tracking_off(baseline);

    std::map<std::string, std::string> base_map(
        baseline.values.begin(), baseline.values.end());
    for (const auto& [key, raw] : current.values) {
      if (stig::obs::is_informational_key(key)) {
        std::cout << "  skip  " << key << " (machine-speed)\n";
        continue;
      }
      if (skip_alloc_keys && is_alloc_key(key)) {
        std::cout << "  skip  " << key << " (alloc tracking off)\n";
        base_map.erase(key);
        continue;
      }
      const auto base_it = base_map.find(key);
      if (base_it == base_map.end()) {
        std::cout << "  new   " << key << " = " << raw
                  << " (not in baseline)\n";
        continue;
      }
      ++compared;
      const auto cur_n = as_number(raw);
      const auto base_n = as_number(base_it->second);
      if (cur_n && base_n) {
        const double denom = std::max(std::abs(*base_n), 1e-12);
        const double rel = std::abs(*cur_n - *base_n) / denom;
        if (rel > threshold) {
          std::cout << "  FAIL  " << key << ": " << raw << " vs baseline "
                    << base_it->second << " (rel delta " << rel << ")\n";
          ++regressions;
        } else {
          std::cout << "  ok    " << key << " = " << raw << "\n";
        }
      } else if (raw != base_it->second) {
        std::cout << "  FAIL  " << key << ": " << raw << " vs baseline "
                  << base_it->second << "\n";
        ++regressions;
      } else {
        std::cout << "  ok    " << key << " = " << raw << "\n";
      }
      base_map.erase(base_it);
    }
    for (const auto& [key, raw] : base_map) {
      if (stig::obs::is_informational_key(key)) continue;
      if (skip_alloc_keys && is_alloc_key(key)) {
        continue;
      }
      std::cout << "  FAIL  " << key << " missing (baseline has " << raw
                << ")\n";
      ++regressions;
    }
  }
  std::cout << (regressions == 0 ? "PASS" : "FAIL") << ": " << compared
            << " value(s) compared, " << regressions << " regression(s)\n";
  return regressions == 0 ? kExitOk : kExitRegression;
}

// ------------------------------------------------------------------ cov --

/// The coverage gate: baseline edges must survive; counts never gate.
/// A corpus's edge *set* is a deterministic function of (code, seeds), so
/// presence is exactly as strict as the perf gate's zero threshold —
/// while hit counts would make every corpus-size change a false alarm.
int run_cov(const std::vector<std::string>& args) {
  std::string baseline_path;
  std::vector<std::string> artifacts;
  if (!gate_args(args, "cov", "COV", baseline_path, artifacts)) {
    return kExitUsage;
  }

  const auto is_edge_key = [](const std::string& key) {
    return key.rfind("edge.", 0) == 0;
  };

  int lost = 0;
  int checked = 0;
  int gained = 0;
  for (const std::string& artifact : artifacts) {
    const auto pair = load_pair(artifact, baseline_path);
    if (!pair) return kExitIo;
    const auto& [current, baseline, base_file] = *pair;
    std::cout << current.bench << " vs " << base_file << ":\n";

    std::map<std::string, std::string> cur_map(current.values.begin(),
                                               current.values.end());
    for (const auto& [key, raw] : baseline.values) {
      if (!is_edge_key(key)) continue;
      ++checked;
      const auto cur_it = cur_map.find(key);
      if (cur_it == cur_map.end()) {
        std::cout << "  FAIL  " << key << " lost (baseline hit " << raw
                  << " time(s))\n";
        ++lost;
      } else {
        std::cout << "  ok    " << key << " = " << cur_it->second << "\n";
        cur_map.erase(cur_it);
      }
    }
    for (const auto& [key, raw] : cur_map) {
      if (!is_edge_key(key)) continue;
      std::cout << "  new   " << key << " = " << raw
                << " (not in baseline — consider refreshing it)\n";
      ++gained;
    }
  }
  std::cout << (lost == 0 ? "PASS" : "FAIL") << ": " << checked
            << " edge(s) checked, " << lost << " lost, " << gained
            << " new\n";
  return lost == 0 ? kExitOk : kExitRegression;
}

}  // namespace

int main(int argc, char** argv) {
  std::vector<std::string> args(argv + 1, argv + argc);
  if (args.empty()) {
    usage(std::cerr);
    return kExitUsage;
  }
  if (args[0] == "--help" || args[0] == "-h" || args[0] == "help") {
    usage(std::cout);
    return kExitOk;
  }
  const std::vector<std::string> rest(args.begin() + 1, args.end());
  if (args[0] == "spans") return run_spans(rest);
  if (args[0] == "diff") return run_gate(rest, /*perf_mode=*/false);
  if (args[0] == "perf") return run_gate(rest, /*perf_mode=*/true);
  if (args[0] == "cov") return run_cov(rest);
  std::cerr << "stigreport: unknown subcommand " << args[0] << "\n";
  usage(std::cerr);
  return kExitUsage;
}
