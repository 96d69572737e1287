#include "obs/jsonl_parse.hpp"

#include <charconv>

#include "obs/json.hpp"

namespace stig::obs {
namespace {

std::optional<EventType> type_of(std::string_view name) {
  for (unsigned i = 0; i < kEventTypeCount; ++i) {
    const auto t = static_cast<EventType>(i);
    if (name == event_type_name(t)) return t;
  }
  return std::nullopt;
}

}  // namespace

const char* EventLog::intern(std::string_view s) {
  return labels_.emplace(s).first->c_str();
}

std::optional<Event> EventLog::parse_line(std::string_view line) {
  const auto members = json_object(line);
  if (!members) return std::nullopt;
  const auto type_raw = json_member(*members, "type");
  const auto type_name = type_raw ? json_unquote(*type_raw) : std::nullopt;
  const auto type = type_name ? type_of(*type_name) : std::nullopt;
  if (!type) return std::nullopt;
  Event e;
  e.type = *type;
  for (const auto& [key, raw] : *members) {
    if (key == "label") {
      if (const auto label = json_unquote(raw)) e.label = intern(*label);
      continue;
    }
    // A non-finite value was written as null and keeps its default.
    double v = 0.0;
    const char* end = raw.data() + raw.size();
    if (std::from_chars(raw.data(), end, v).ptr != end) continue;
    if (key == "t") e.t = static_cast<std::uint64_t>(v);
    if (key == "robot") e.robot = static_cast<std::int64_t>(v);
    if (key == "peer") e.peer = static_cast<std::int64_t>(v);
    if (key == "aux") e.aux = static_cast<std::int64_t>(v);
    if (key == "x") e.x = v;
    if (key == "y") e.y = v;
    if (key == "value") e.value = v;
    if (key == "bit") e.bit = static_cast<std::uint32_t>(v);
  }
  return e;
}

std::size_t EventLog::read(std::istream& in) {
  std::size_t failed = 0;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (const auto e = parse_line(line)) {
      events_.push_back(*e);
    } else {
      ++failed;
    }
  }
  return failed;
}

}  // namespace stig::obs
