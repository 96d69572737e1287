// stigsim — command-line driver for the stigmergy simulator.
//
// Scatter a swarm, queue messages, run the SSM world, and report delivery
// and motion statistics; optionally dump the trajectory SVG and structured
// telemetry (event log, Chrome trace, run report). Examples:
//
//   stigsim --n 8 --message "hello" --from 0 --to 5
//   stigsim --async --p 0.4 --n 4 --broadcast --message "to all" --svg run.svg
//   stigsim --n 12 --protocol ksegment --k 3 --ids --sod --seed 9
//   stigsim --n 6 --message hi --events e.jsonl --chrome-trace t.json
//   stigsim --n 6 --message hi --spans - --watchdog report --report r.json
//
// `stigsim --replay repro.json` re-executes a failing case written by
// stigfuzz and verifies the failure reproduces bit-for-bit (same failure
// kind *and* same activation-schedule digest).
//
// Exit codes: 0 message(s) delivered (or replay came up clean); 1 run
// finished with no delivery (timeout); 2 usage error (bad flag or value);
// 3 runtime or I/O error (or replay diverged); 4 watchdog violation in
// report mode; 5 replay reproduced the recorded failure.
//
// Run `stigsim --help` for the full flag list.
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <iomanip>
#include <iostream>
#include <memory>
#include <string>
#include <utility>

#include "analyze/flight_recorder.hpp"
#include "analyze/span.hpp"
#include "analyze/watchdog.hpp"
#include "core/chat_network.hpp"
#include "core/exit_codes.hpp"
#include "encode/bits.hpp"
#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/repro.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics.hpp"
#include "obs/metrics_sink.hpp"
#include "obs/sink.hpp"
#include "viz/figures.hpp"

namespace {

using namespace stig;

// Exit codes: the shared table in core/exit_codes.hpp, which --help, the
// README and docs/OBSERVABILITY.md must all agree with (pinned by
// tests/test_cli_exit_codes.cpp).
using cli::kExitDelivered;
using cli::kExitNoDelivery;
using cli::kExitUsage;
using cli::kExitRuntime;
using cli::kExitWatchdog;
using cli::kExitReproduced;

struct Args {
  std::size_t n = 6;
  std::uint64_t seed = 1;
  bool async_mode = false;
  bool ids = false;
  bool sod = false;
  bool mirrored = false;
  bool broadcast = false;
  double p = 0.5;
  double sigma = 0.25;
  double quantum = 0.0;
  sim::Time delay = 0;
  std::size_t k = 4;
  std::string protocol = "auto";
  std::string scheduler = "bernoulli";
  std::string message = "stigmergy";
  std::size_t from = 0;
  std::size_t to = 1;
  sim::Time max_instants = 5'000'000;
  std::string svg;
  std::string jsonl;
  std::string events;
  std::string chrome_trace;
  std::string report;
  std::string spans;
  std::string span_trace;
  std::string metrics;
  std::string watchdog;       // "", "report" or "abort".
  std::string replay;         // stigfuzz repro file to re-execute.
  double min_separation = 0.0;
  std::size_t flight_recorder = 0;
  std::string flight_dump = "flight.jsonl";
  bool help = false;
};

void print_help() {
  std::cout <<
      "stigsim — deaf, dumb, and chatting robots simulator\n\n"
      "  --n N             swarm size (default 6)\n"
      "  --seed S          RNG seed for placement/frames/scheduler\n"
      "  --async           asynchronous (SSM-fair) mode; default synchronous\n"
      "  --ids             robots carry observable IDs\n"
      "  --sod             robots share a sense of direction\n"
      "  --mirrored        left-handed frames (chirality still holds)\n"
      "  --protocol P      auto|sync2|sliced|ksegment|async2|asyncn\n"
      "  --k K             k-segment index base (default 4)\n"
      "  --scheduler S     bernoulli|centralized|ksubset|adversarial\n"
      "  --p P             activation probability (bernoulli)\n"
      "  --sigma S         max travel per activation (default 0.25)\n"
      "  --quantum Q       sensor grid resolution (0 = ideal)\n"
      "  --delay D         observation staleness in instants\n"
      "  --message TEXT    payload (default \"stigmergy\")\n"
      "  --from I --to J   unicast endpoints (default 0 -> 1)\n"
      "  --broadcast       one-to-all from --from instead of unicast\n"
      "  --max-instants T  give up after T instants\n"
      "  --svg FILE        write the trajectory figure\n"
      "  --jsonl FILE      write the position history as JSON Lines\n"
      "  --events FILE     write the telemetry event log as JSON Lines\n"
      "  --chrome-trace F  write a Chrome/Perfetto trace_event file\n"
      "  --report FILE     write the machine-readable run report\n"
      "                    (\"-\" writes the report to stdout)\n"
      "  --spans FILE      write per-message span JSON (\"-\" = stdout)\n"
      "  --span-trace F    write nested message/phase spans as a Chrome\n"
      "                    trace_event file\n"
      "  --metrics FILE    write a MetricsRegistry snapshot as JSON at\n"
      "                    exit (\"-\" = stdout)\n"
      "  --replay FILE     re-execute a stigfuzz repro and verify the\n"
      "                    failure reproduces bit-for-bit (kind + schedule\n"
      "                    digest); ignores the other run flags and refuses\n"
      "                    output flags (exit 2)\n"
      "  --watchdog MODE   check paper invariants live: report|abort\n"
      "  --min-separation X  watchdog separation floor (default off)\n"
      "  --flight-recorder N keep the last N events for post-mortem dumps\n"
      "  --flight-dump F   flight-recorder dump path (default\n"
      "                    flight.jsonl; written on watchdog violation,\n"
      "                    engine throw, or fatal signal)\n\n"
      << cli::stigsim_exit_code_help();
}

bool parse(int argc, char** argv, Args& a) {
  const auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::cerr << "missing value for " << argv[i] << "\n";
      return nullptr;
    }
    return argv[++i];
  };
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const auto num = [&](auto& out) {
      const char* v = need(i);
      if (!v) return false;
      out = static_cast<std::remove_reference_t<decltype(out)>>(
          std::stod(v));
      return true;
    };
    if (flag == "--help" || flag == "-h") {
      a.help = true;
    } else if (flag == "--n") {
      if (!num(a.n)) return false;
    } else if (flag == "--seed") {
      if (!num(a.seed)) return false;
    } else if (flag == "--async") {
      a.async_mode = true;
    } else if (flag == "--ids") {
      a.ids = true;
    } else if (flag == "--sod") {
      a.sod = true;
    } else if (flag == "--mirrored") {
      a.mirrored = true;
    } else if (flag == "--broadcast") {
      a.broadcast = true;
    } else if (flag == "--p") {
      if (!num(a.p)) return false;
    } else if (flag == "--sigma") {
      if (!num(a.sigma)) return false;
    } else if (flag == "--quantum") {
      if (!num(a.quantum)) return false;
    } else if (flag == "--delay") {
      if (!num(a.delay)) return false;
    } else if (flag == "--k") {
      if (!num(a.k)) return false;
    } else if (flag == "--from") {
      if (!num(a.from)) return false;
    } else if (flag == "--to") {
      if (!num(a.to)) return false;
    } else if (flag == "--max-instants") {
      if (!num(a.max_instants)) return false;
    } else if (flag == "--protocol") {
      const char* v = need(i);
      if (!v) return false;
      a.protocol = v;
    } else if (flag == "--scheduler") {
      const char* v = need(i);
      if (!v) return false;
      a.scheduler = v;
    } else if (flag == "--message") {
      const char* v = need(i);
      if (!v) return false;
      a.message = v;
    } else if (flag == "--svg") {
      const char* v = need(i);
      if (!v) return false;
      a.svg = v;
    } else if (flag == "--jsonl") {
      const char* v = need(i);
      if (!v) return false;
      a.jsonl = v;
    } else if (flag == "--events") {
      const char* v = need(i);
      if (!v) return false;
      a.events = v;
    } else if (flag == "--chrome-trace") {
      const char* v = need(i);
      if (!v) return false;
      a.chrome_trace = v;
    } else if (flag == "--report") {
      const char* v = need(i);
      if (!v) return false;
      a.report = v;
    } else if (flag == "--spans") {
      const char* v = need(i);
      if (!v) return false;
      a.spans = v;
    } else if (flag == "--span-trace") {
      const char* v = need(i);
      if (!v) return false;
      a.span_trace = v;
    } else if (flag == "--metrics") {
      const char* v = need(i);
      if (!v) return false;
      a.metrics = v;
    } else if (flag == "--watchdog") {
      const char* v = need(i);
      if (!v) return false;
      a.watchdog = v;
      if (a.watchdog != "report" && a.watchdog != "abort") {
        std::cerr << "--watchdog must be report or abort\n";
        return false;
      }
    } else if (flag == "--replay") {
      const char* v = need(i);
      if (!v) return false;
      a.replay = v;
    } else if (flag == "--min-separation") {
      if (!num(a.min_separation)) return false;
    } else if (flag == "--flight-recorder") {
      if (!num(a.flight_recorder)) return false;
    } else if (flag == "--flight-dump") {
      const char* v = need(i);
      if (!v) return false;
      a.flight_dump = v;
    } else {
      std::cerr << "unknown flag: " << flag << " (see --help)\n";
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!parse(argc, argv, args)) return kExitUsage;
  if (args.help) {
    print_help();
    return 0;
  }

  if (!args.replay.empty()) {
    // A replay runs the repro's own configuration with no sink attached:
    // asking it for an output it cannot write is a usage error.
    const std::pair<const char*, bool> outputs[] = {
        {"--events", !args.events.empty()},
        {"--chrome-trace", !args.chrome_trace.empty()},
        {"--report", !args.report.empty()},
        {"--spans", !args.spans.empty()},
        {"--span-trace", !args.span_trace.empty()},
        {"--metrics", !args.metrics.empty()},
        {"--watchdog", !args.watchdog.empty()},
        {"--flight-recorder", args.flight_recorder > 0},
        {"--jsonl", !args.jsonl.empty()},
        {"--svg", !args.svg.empty()}};
    for (const auto& [flag, given] : outputs) {
      if (given) {
        std::cerr << "--replay cannot honour " << flag << "\n";
        return kExitUsage;
      }
    }
    std::string error;
    const auto repro = fuzz::load_repro(args.replay, &error);
    if (!repro) {
      std::cerr << "error: " << error << "\n";
      return kExitRuntime;
    }
    const fuzz::CaseResult result = fuzz::run_case(repro->config);
    std::cout << "replay: kind " << fuzz::failure_kind_name(result.kind)
              << " (recorded " << fuzz::failure_kind_name(repro->kind)
              << "), schedule digest 0x" << std::hex
              << result.schedule_digest << " (recorded 0x"
              << repro->schedule_digest << std::dec << "), "
              << result.schedule_instants << " instant(s)\n";
    if (result.kind == fuzz::FailureKind::none) {
      std::cout << "replay: clean — the recorded failure did not occur\n";
      return kExitDelivered;
    }
    if (result.kind == repro->kind &&
        result.schedule_digest == repro->schedule_digest) {
      std::cout << "replay: reproduced bit-for-bit — " << result.detail
                << "\n";
      return kExitReproduced;
    }
    std::cout << "replay: diverged from the recording\n";
    return kExitRuntime;
  }

  const auto protocol = core::protocol_kind_from_name(args.protocol);
  const auto scheduler = core::scheduler_kind_from_name(args.scheduler);
  if (!protocol || !scheduler) {
    std::cerr << "unknown protocol or scheduler (see --help)\n";
    return kExitUsage;
  }
  if (args.from >= args.n || (!args.broadcast && args.to >= args.n)) {
    std::cerr << "--from/--to must name robots below --n " << args.n << "\n";
    return kExitUsage;
  }

  // Telemetry sinks: all attached through one fan-out point.
  obs::MultiSink sinks;
  // The event log streams JSONL as the run goes; the file is opened up
  // front so a bad path fails before the run starts.
  std::unique_ptr<std::ofstream> event_file;
  std::unique_ptr<obs::JsonlEventSink> event_log;
  std::unique_ptr<obs::ChromeTraceSink> chrome;
  if (!args.events.empty()) {
    event_file = std::make_unique<std::ofstream>(args.events);
    if (!*event_file) {
      std::cerr << "error: could not open " << args.events << "\n";
      return kExitRuntime;
    }
    event_log = std::make_unique<obs::JsonlEventSink>(*event_file);
    sinks.add(event_log.get());
  }
  if (!args.chrome_trace.empty()) {
    chrome = obs::ChromeTraceSink::open(args.chrome_trace);
    if (!chrome) {
      std::cerr << "error: could not open " << args.chrome_trace << "\n";
      return kExitRuntime;
    }
    sinks.add(chrome.get());
  }
  // The recorder is added before the watchdog so a violation's dump already
  // contains the event that tripped it.
  std::unique_ptr<obs::FlightRecorder> recorder;
  if (args.flight_recorder > 0) {
    recorder = std::make_unique<obs::FlightRecorder>(args.flight_recorder);
    sinks.add(recorder.get());
    obs::FlightRecorder::install_crash_handler(recorder.get(),
                                               args.flight_dump);
  }
  std::unique_ptr<obs::SpanBuilder> span_builder;
  if (!args.spans.empty() || !args.span_trace.empty()) {
    span_builder = std::make_unique<obs::SpanBuilder>();
    sinks.add(span_builder.get());
  }
  std::unique_ptr<obs::Watchdog> watchdog;

  const std::vector<geom::Vec2> pts = fuzz::scatter(args.seed, args.n);

  core::ChatNetworkOptions opt;
  opt.synchrony = args.async_mode ? core::Synchrony::asynchronous
                                  : core::Synchrony::synchronous;
  opt.caps.visible_ids = args.ids;
  opt.caps.sense_of_direction = args.sod || args.ids;
  opt.mirrored_frames = args.mirrored;
  opt.protocol = *protocol;
  opt.scheduler = *scheduler;
  opt.activation_probability = args.p;
  opt.sigma = args.sigma;
  opt.seed = args.seed;
  opt.ksegment_k = args.k;
  opt.observation_quantum = args.quantum;
  opt.observation_delay = args.delay;
  opt.record_positions = !args.svg.empty() || !args.jsonl.empty();

  obs::MetricsRegistry metrics;
  std::unique_ptr<obs::MetricsSink> metrics_sink;
  try {
    core::ChatNetwork net(pts, opt);
    if (!args.watchdog.empty()) {
      obs::WatchdogOptions wopt;
      wopt.min_separation = args.min_separation;
      wopt.abort_on_violation = args.watchdog == "abort";
      wopt.check_granular = core::is_granular(net.protocol_kind());
      watchdog = std::make_unique<obs::Watchdog>(wopt, pts);
      if (recorder != nullptr) {
        watchdog->set_flight_recorder(recorder.get(), args.flight_dump);
      }
      sinks.add(watchdog.get());
    }
    if (!args.metrics.empty()) {
      metrics_sink = std::make_unique<obs::MetricsSink>(metrics);
      sinks.add(metrics_sink.get());
    }
    if (!sinks.empty()) net.attach_event_sink(&sinks);
    if (!args.report.empty() || !args.metrics.empty()) {
      net.attach_metrics(&metrics);
    }
    const auto payload = encode::bytes_of(args.message);
    if (args.broadcast) {
      net.broadcast(args.from, payload);
    } else {
      net.send(args.from, args.to, payload);
    }

    using Clock = std::chrono::steady_clock;
    const Clock::time_point wall_start = Clock::now();
    const bool done = net.run_until_quiescent(args.max_instants);
    net.run(fuzz::settle_instants(net.protocol_kind()));
    const double wall_seconds =
        std::chrono::duration<double>(Clock::now() - wall_start).count();
    sinks.flush();
    if (event_file != nullptr && !*event_file) {
      std::cerr << "error: could not write " << args.events << "\n";
      return kExitRuntime;
    }

    // "--report -" / "--spans -" / "--metrics -" reserve stdout for the
    // JSON so it pipes cleanly into jq; the human summary moves to stderr.
    const bool stdout_taken = args.report == "-" || args.spans == "-" ||
                              args.metrics == "-";
    std::ostream& human = stdout_taken ? std::cerr : std::cout;
    human << "protocol: " << args.protocol << " (resolved kind "
          << static_cast<int>(net.protocol_kind()) << "), n = " << args.n
          << ", " << (args.async_mode ? "asynchronous" : "synchronous")
          << "\n";
    human << "instants: " << net.engine().now()
          << (done ? "" : "  [TIMED OUT]") << "\n\n";

    std::size_t delivered = 0;
    for (std::size_t i = 0; i < args.n; ++i) {
      for (const core::Delivery& d : net.received(i)) {
        human << "  robot " << i << " <- robot " << d.from
              << (d.broadcast ? " [broadcast]" : "") << ": \""
              << std::string(d.payload.begin(), d.payload.end()) << "\"\n";
        ++delivered;
      }
    }
    human << "\ndelivered: " << delivered << " message(s)\n";

    human << "\nrobot   activations   moves   distance   bits_sent\n";
    for (std::size_t i = 0; i < args.n; ++i) {
      const auto& m = net.engine().motion(i);
      human << std::setw(5) << i << std::setw(14) << m.activations
            << std::setw(8) << m.moves << std::setw(11) << std::fixed
            << std::setprecision(2) << m.distance << std::setw(12)
            << net.stats(i).bits_sent << "\n";
    }
    human << "min separation: " << net.engine().min_separation() << "\n";

    if (!args.report.empty()) {
      obs::RunReport report = net.report();
      report.wall_seconds = wall_seconds;
      if (args.report == "-") {
        report.write_json(std::cout);
      } else {
        std::ofstream out(args.report);
        if (!out) {
          std::cerr << "error: could not write " << args.report << "\n";
          return kExitRuntime;
        }
        report.write_json(out);
        std::cout << "wrote " << args.report << "\n";
      }
    }
    if (span_builder != nullptr) {
      if (args.spans == "-") {
        span_builder->write_json(std::cout);
      } else if (!args.spans.empty()) {
        std::ofstream out(args.spans);
        if (!out) {
          std::cerr << "error: could not write " << args.spans << "\n";
          return kExitRuntime;
        }
        span_builder->write_json(out);
        human << "wrote " << args.spans << "\n";
      }
      if (!args.span_trace.empty()) {
        std::ofstream out(args.span_trace);
        if (!out) {
          std::cerr << "error: could not write " << args.span_trace << "\n";
          return kExitRuntime;
        }
        span_builder->write_chrome_trace(out);
        human << "wrote " << args.span_trace << "\n";
      }
    }
    if (!args.metrics.empty()) {
      if (args.metrics == "-") {
        metrics.write_json(std::cout);
      } else {
        std::ofstream out(args.metrics);
        if (!out) {
          std::cerr << "error: could not write " << args.metrics << "\n";
          return kExitRuntime;
        }
        metrics.write_json(out);
        human << "wrote " << args.metrics << "\n";
      }
    }
    if (!args.events.empty()) human << "wrote " << args.events << "\n";
    if (!args.chrome_trace.empty()) {
      human << "wrote " << args.chrome_trace << "\n";
    }
    if (!args.jsonl.empty()) {
      std::ofstream out(args.jsonl);
      if (!obs::write_history_jsonl(out, net.position_history())) {
        std::cerr << "error: could not write " << args.jsonl << "\n";
        return kExitRuntime;
      }
      human << "wrote " << args.jsonl << "\n";
    }
    if (!args.svg.empty()) {
      viz::SvgScene fig;
      viz::draw_trajectories(fig, net.position_history());
      if (!fig.write(args.svg)) {
        std::cerr << "error: could not write " << args.svg << "\n";
        return kExitRuntime;
      }
      human << "wrote " << args.svg << "\n";
    }
    if (watchdog != nullptr) {
      watchdog->report(std::cerr);
      if (!watchdog->ok()) return kExitWatchdog;
    }
    return delivered > 0 ? kExitDelivered : kExitNoDelivery;
  } catch (const std::exception& e) {
    std::cerr << "error: " << e.what() << "\n";
    // The black box: whatever unwound (collision, watchdog abort, I/O),
    // leave the last events on disk for stigreport to inspect.
    if (event_file != nullptr) event_file->flush();
    if (recorder != nullptr && !recorder->dump_to_file(args.flight_dump)) {
      std::cerr << "error: could not write " << args.flight_dump << "\n";
    } else if (recorder != nullptr) {
      std::cerr << "flight recorder: wrote " << args.flight_dump << "\n";
    }
    if (watchdog != nullptr) watchdog->report(std::cerr);
    return kExitRuntime;
  }
}
