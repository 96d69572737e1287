#include "analyze/flight_recorder.hpp"

#include <algorithm>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <stdexcept>

#include "obs/jsonl_sink.hpp"

namespace stig::obs {
namespace {

// Crash-handler registration (single slot, process-wide).
FlightRecorder* g_crash_recorder = nullptr;
std::string g_crash_path;
constexpr int kCrashSignals[] = {SIGSEGV, SIGBUS, SIGFPE, SIGABRT};

void crash_handler(int sig) {
  // Re-arm the default action first so a second fault terminates.
  for (const int s : kCrashSignals) std::signal(s, SIG_DFL);
  if (g_crash_recorder != nullptr && !g_crash_path.empty()) {
    // Best-effort: stdio + the recorder's heap snapshot. A flight recorder
    // that usually survives beats none; fully async-signal-safe formatting
    // of doubles is not worth its complexity here.
    std::FILE* f = std::fopen(g_crash_path.c_str(), "w");
    if (f != nullptr) {
      std::fprintf(f,
                   "{\"type\":\"flight_recorder\",\"signal\":%d,"
                   "\"capacity\":%zu,\"seen\":%llu}\n",
                   sig, g_crash_recorder->capacity(),
                   static_cast<unsigned long long>(
                       g_crash_recorder->total_seen()));
      for (const Event& e : g_crash_recorder->snapshot()) {
        const std::string line = JsonlEventSink::to_json(e);
        std::fwrite(line.data(), 1, line.size(), f);
        std::fputc('\n', f);
      }
      std::fclose(f);
    }
  }
  std::raise(sig);
}

}  // namespace

FlightRecorder::FlightRecorder(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity) {
  if (capacity == 0) {
    throw std::invalid_argument("FlightRecorder: capacity must be >= 1");
  }
}

FlightRecorder::~FlightRecorder() {
  if (g_crash_recorder == this) uninstall_crash_handler();
}

void FlightRecorder::on_event(const Event& e) {
  ring_[seen_ % ring_.size()] = e;
  ++seen_;
}

std::size_t FlightRecorder::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(seen_, ring_.size()));
}

std::vector<Event> FlightRecorder::snapshot() const {
  std::vector<Event> out;
  const std::size_t held = size();
  out.reserve(held);
  const std::uint64_t first = seen_ - held;
  for (std::uint64_t i = first; i < seen_; ++i) {
    out.push_back(ring_[i % ring_.size()]);
  }
  return out;
}

void FlightRecorder::dump(std::ostream& out) const {
  out << "{\"type\":\"flight_recorder\",\"capacity\":" << ring_.size()
      << ",\"seen\":" << seen_
      << ",\"dropped\":" << seen_ - size() << "}\n";
  for (const Event& e : snapshot()) {
    out << JsonlEventSink::to_json(e) << '\n';
  }
}

bool FlightRecorder::dump_to_file(const std::string& path) const {
  std::ofstream out(path);
  if (!out) return false;
  dump(out);
  return static_cast<bool>(out);
}

void FlightRecorder::install_crash_handler(FlightRecorder* recorder,
                                           std::string path) {
  g_crash_recorder = recorder;
  g_crash_path = std::move(path);
  for (const int s : kCrashSignals) std::signal(s, &crash_handler);
}

void FlightRecorder::uninstall_crash_handler() {
  g_crash_recorder = nullptr;
  g_crash_path.clear();
  for (const int s : kCrashSignals) std::signal(s, SIG_DFL);
}

}  // namespace stig::obs
