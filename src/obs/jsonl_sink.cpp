#include "obs/jsonl_sink.hpp"

#include <iomanip>

#include "obs/json.hpp"

namespace stig::obs {
namespace {

/// Which optional fields a given event type carries in its JSONL record.
struct FieldMask {
  bool robot = false, peer = false, aux = false, pos = false, value = false,
       bit = false;
};

FieldMask mask_for(EventType t) {
  switch (t) {
    case EventType::Activation:
      return {.robot = true, .pos = true};
    case EventType::Move:
      return {.robot = true, .pos = true, .value = true};
    case EventType::Collision:
      return {.robot = true, .peer = true, .pos = true};
    case EventType::PhaseEnter:
      return {.robot = true};
    case EventType::BitEmitted:
      return {.robot = true, .peer = true, .bit = true};
    case EventType::BitDecoded:
      return {.robot = true, .peer = true, .aux = true, .bit = true};
    case EventType::FrameDelivered:
      return {.robot = true, .peer = true, .aux = true, .value = true};
    case EventType::AckObserved:
      return {.robot = true, .peer = true, .value = true};
    case EventType::Teleport:
      return {.robot = true, .pos = true};
    case EventType::StepComplete:
      return {.value = true};
    case EventType::FaultInjected:
      return {.robot = true, .value = true};
    case EventType::Retransmit:
      return {.robot = true, .peer = true, .aux = true, .value = true};
    case EventType::MaskedDelivery:
      return {.robot = true, .peer = true, .aux = true, .value = true,
              .bit = true};
  }
  return {};
}

}  // namespace

JsonlEventSink::JsonlEventSink(std::unique_ptr<std::ofstream> owned)
    : owned_(std::move(owned)), out_(owned_.get()) {}

std::unique_ptr<JsonlEventSink> JsonlEventSink::open(
    const std::string& path) {
  auto file = std::make_unique<std::ofstream>(path);
  if (!*file) return nullptr;
  return std::unique_ptr<JsonlEventSink>(
      new JsonlEventSink(std::move(file)));
}

std::string JsonlEventSink::to_json(const Event& e) {
  const FieldMask m = mask_for(e.type);
  std::string line = "{\"type\":";
  line += json_quote(event_type_name(e.type));
  line += ",\"t\":";
  line += std::to_string(e.t);
  if (m.robot) line += ",\"robot\":" + std::to_string(e.robot);
  if (m.peer && e.peer >= 0) line += ",\"peer\":" + std::to_string(e.peer);
  if (m.aux && e.aux >= 0) line += ",\"aux\":" + std::to_string(e.aux);
  if (m.pos) {
    line += ",\"x\":" + json_number(e.x);
    line += ",\"y\":" + json_number(e.y);
  }
  if (m.value) line += ",\"value\":" + json_number(e.value);
  if (m.bit) line += ",\"bit\":" + std::to_string(e.bit);
  if (e.label != nullptr) {
    line += ",\"label\":";
    line += json_quote(e.label);
  }
  line += '}';
  return line;
}

void JsonlEventSink::on_event(const Event& e) {
  *out_ << to_json(e) << '\n';
}

void JsonlEventSink::flush() { out_->flush(); }

bool write_history_jsonl(std::ostream& out,
                         const std::vector<std::vector<geom::Vec2>>& history) {
  if (history.empty()) return false;
  const std::size_t n = history.front().size();
  out << "{\"type\":\"header\",\"robots\":" << n
      << ",\"instants\":" << history.size() << "}\n";
  out << std::setprecision(17);
  for (std::size_t t = 0; t < history.size(); ++t) {
    out << "{\"type\":\"config\",\"t\":" << t << ",\"p\":[";
    for (std::size_t i = 0; i < n; ++i) {
      if (i != 0) out << ',';
      out << '[' << history[t][i].x << ',' << history[t][i].y << ']';
    }
    out << "]}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace stig::obs
