// perfbench_worker — runs one benchmark workload in this process and prints
// its result as one JSON object on the last line of standard output.
//
//   perfbench_worker --workload swarm_anon --seed 3 --seconds 30 --trace 0
//       --work-dir DIR [--stigfuzz PATH] [--setup-only]
//       [--falsify payload|reply]
//
// run.py builds this binary, spawns it, and turns its output into the
// benchmark's result line; see README.md in this directory.
#include <time.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <exception>
#include <fstream>
#include <iostream>
#include <stdexcept>
#include <string>

#include "common.hpp"

namespace perfbench {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  const auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(v.size())));
  const std::size_t k = std::min(v.size() - 1, rank == 0 ? 0 : rank - 1);
  std::nth_element(v.begin(), v.begin() + static_cast<std::ptrdiff_t>(k),
                   v.end());
  return v[k];
}

namespace {

std::int64_t cpu_clock_ns(clockid_t clock) {
  timespec ts{};
  if (clock_gettime(clock, &ts) != 0) {
    throw std::runtime_error("clock_gettime failed on a CPU-time clock");
  }
  return static_cast<std::int64_t>(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

}  // namespace

std::int64_t process_cpu_ns() {
  return cpu_clock_ns(CLOCK_PROCESS_CPUTIME_ID);
}

std::int64_t thread_cpu_ns() { return cpu_clock_ns(CLOCK_THREAD_CPUTIME_ID); }

std::int32_t Tracer::open(const char* name, std::int32_t parent,
                          std::uint32_t op) {
  const std::int64_t t = now_ns();
  return add(name, t, t, parent, op);
}

std::int32_t Tracer::add(const char* name, std::int64_t start,
                         std::int64_t end, std::int32_t parent,
                         std::uint32_t op) {
  spans_.push_back(Span{name, start, end, parent, op});
  return static_cast<std::int32_t>(spans_.size() - 1);
}

std::vector<double> Tracer::durations(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (name == s.name) out.push_back(static_cast<double>(s.end - s.start));
  }
  return out;
}

bool Tracer::write(const std::string& path) const {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"id\":%zu,\"name\":\"%s\",\"start_ns\":%lld,"
                 "\"end_ns\":%lld,\"parent\":%d,\"op\":%u}\n",
                 i, s.name, static_cast<long long>(s.start),
                 static_cast<long long>(s.end), s.parent, s.op);
  }
  return std::fclose(f) == 0;
}

}  // namespace perfbench

namespace {

using namespace perfbench;

std::string json_string(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof(buf), "\\u%04x", c);
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

void print_result(const Result& r) {
  std::string out = "{\"correct\":";
  out += r.correct ? "true" : "false";
  out += ",\"attempted\":" + std::to_string(r.attempted);
  out += ",\"failed\":" + std::to_string(r.failed);
  out += ",\"setup_s\":[";
  for (std::size_t i = 0; i < r.setup_s.size(); ++i) {
    out += (i ? "," : "") + json_number(r.setup_s[i]);
  }
  out += "],\"metrics\":{";
  bool first = true;
  for (const auto& [name, m] : r.metrics) {
    out += (first ? "" : ",") + json_string(name) + ":{\"value\":" +
           json_number(m.value) + ",\"unit\":" + json_string(m.unit) + "}";
    first = false;
  }
  out += "},\"counts\":{";
  first = true;
  for (const auto& [name, v] : r.counts) {
    out += (first ? "" : ",") + json_string(name) + ":" + std::to_string(v);
    first = false;
  }
  out += "},\"notes\":[";
  for (std::size_t i = 0; i < r.notes.size(); ++i) {
    out += (i ? "," : "") + json_string(r.notes[i]);
  }
  out += "]}";
  std::cout << out << std::endl;
}

/// This process's own peak resident set (VmHWM) in MB. getrusage's
/// ru_maxrss is not used: it keeps the parent's high-water mark across
/// fork and exec.
double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string key;
  while (status >> key) {
    if (key == "VmHWM:") {
      double kb = 0.0;
      status >> kb;
      return kb / 1024.0;
    }
  }
  throw std::runtime_error("VmHWM missing from /proc/self/status");
}

bool parse(int argc, char** argv, Options& o) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--setup-only") {
      o.setup_only = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string v = argv[++i];
    if (flag == "--workload") {
      o.workload = v;
    } else if (flag == "--seed") {
      o.seed = std::stoull(v);
    } else if (flag == "--seconds") {
      o.seconds = std::stod(v);
    } else if (flag == "--trace") {
      o.trace = v == "1";
    } else if (flag == "--falsify") {
      o.falsify = v;
    } else if (flag == "--stigfuzz") {
      o.stigfuzz = v;
    } else if (flag == "--work-dir") {
      o.work_dir = v;
    } else {
      return false;
    }
  }
  return !o.workload.empty() && o.seconds > 0.0;
}

}  // namespace

int main(int argc, char** argv) {
  Options opt;
  try {
    if (!parse(argc, argv, opt)) {
      std::cerr << "perfbench_worker: bad arguments\n";
      return 2;
    }
    Result r;
    if (opt.workload == "swarm_ids") {
      r = run_swarm(opt, false);
    } else if (opt.workload == "swarm_anon") {
      r = run_swarm(opt, true);
    } else if (opt.workload == "serve_mix") {
      r = run_serve(opt);
    } else if (opt.workload == "fuzz_batch") {
      r = run_fuzz(opt);
    } else {
      std::cerr << "perfbench_worker: unknown workload " << opt.workload
                << "\n";
      return 2;
    }
    if (!opt.trace && !opt.setup_only && opt.workload != "fuzz_batch") {
      r.put("peak_rss_mb", peak_rss_mb(), "MB");
    }
    print_result(r);
  } catch (const std::exception& e) {
    std::cerr << "perfbench_worker: " << e.what() << "\n";
    return 3;
  }
  return 0;
}
