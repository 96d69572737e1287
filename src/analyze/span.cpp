#include "analyze/span.hpp"

#include <algorithm>

#include "obs/json.hpp"

namespace stig::obs {

void SpanBuilder::on_event(const Event& e) {
  finalized_ = false;
  last_t_ = std::max(last_t_, e.t);
  switch (e.type) {
    case EventType::Activation:
      ++counters_[e.robot].activations;
      return;
    case EventType::Move:
      ++counters_[e.robot].moves;
      return;
    case EventType::StepComplete:
      ++instants_;
      return;
    case EventType::PhaseEnter:
      phase_timeline_[e.robot].emplace_back(
          e.t, e.label != nullptr ? e.label : "");
      return;
    case EventType::AckObserved:
      acks_[e.robot].emplace_back(e.t, e.value);
      return;
    case EventType::BitEmitted: {
      // Broadcast bits carry no peer; the lane key uses -1.
      const bool broadcast = e.label != nullptr &&
                             std::string_view(e.label) == "broadcast";
      const LaneKey key{e.robot, broadcast ? -1 : e.peer};
      Lane& lane = lanes_[key];
      lane.bit_times.push_back(e.t);
      ++counters_[e.robot].bits_sent;
      lane.parser.push_bit(static_cast<std::uint8_t>(e.bit & 1u));
      const std::uint64_t corrupt_before = lane.parser.corrupt_frames();
      for (auto& payload : lane.parser.take_messages()) {
        MessageSpan span;
        span.id = spans_.size();
        span.sender = e.robot;
        span.addressee = key.second;
        span.broadcast = broadcast;
        span.payload_bytes = payload.size();
        span.bit_times.assign(
            lane.bit_times.begin() +
                static_cast<std::ptrdiff_t>(lane.boundary),
            lane.bit_times.begin() +
                static_cast<std::ptrdiff_t>(lane.parser.bits_consumed()));
        lane.boundary = lane.parser.bits_consumed();
        lane.span_ids.push_back(span.id);
        spans_.push_back(std::move(span));
      }
      if (lane.parser.corrupt_frames() > corrupt_before) {
        // A malformed sender-side frame: skip its bits, count it.
        corrupt_frames_ += lane.parser.corrupt_frames() - corrupt_before;
        lane.boundary = lane.parser.bits_consumed();
      }
      return;
    }
    case EventType::FrameDelivered: {
      // Recorded, not matched: async senders stamp their final BitEmitted
      // only after observing the Lemma 4.1 ack, so the delivery can precede
      // the span's creation in stream order. Matching runs in finalize().
      const bool broadcast = e.label != nullptr &&
                             std::string_view(e.label) == "broadcast";
      PendingDelivery d;
      d.robot = e.robot;
      d.lane = LaneKey{e.peer, broadcast ? -1 : e.aux};
      d.t = e.t;
      d.kind = e.label != nullptr ? e.label : "inbox";
      pending_deliveries_.push_back(std::move(d));
      return;
    }
    default:
      return;  // Collision/Teleport carry no span information.
  }
}

void SpanBuilder::finalize() {
  if (finalized_) return;
  finalized_ = true;

  // Delivery matching: frames reach a given receiver on a given lane in
  // emission order, so the k-th delivery on (receiver, lane) closes the
  // lane's k-th span.
  for (MessageSpan& span : spans_) span.deliveries.clear();
  std::map<std::pair<std::int64_t, LaneKey>, std::uint64_t> delivered;
  for (const PendingDelivery& p : pending_deliveries_) {
    const auto lane_it = lanes_.find(p.lane);
    if (lane_it == lanes_.end()) continue;  // Truncated log: no emission.
    const Lane& lane = lane_it->second;
    std::uint64_t& index = delivered[{p.robot, p.lane}];
    if (index >= lane.span_ids.size()) continue;  // Corrupt stream.
    spans_[lane.span_ids[index]].deliveries.push_back(
        SpanDelivery{p.robot, p.t, p.kind});
    ++index;
  }

  const std::uint64_t run_instants =
      instants_ > 0 ? instants_ : last_t_ + 1;

  // Phase attribution: overlap each span's [start, end] window with the
  // sender's phase timeline (a phase holds from its PhaseEnter to the next).
  for (MessageSpan& span : spans_) {
    span.phases.clear();
    const auto tl_it = phase_timeline_.find(span.sender);
    const std::uint64_t win_begin = span.start();
    const std::uint64_t win_end = span.end() + 1;  // Half-open.
    if (tl_it != phase_timeline_.end()) {
      const auto& timeline = tl_it->second;
      for (std::size_t i = 0; i < timeline.size(); ++i) {
        const std::uint64_t seg_begin = timeline[i].first;
        const std::uint64_t seg_end = i + 1 < timeline.size()
                                          ? timeline[i + 1].first
                                          : run_instants;
        const std::uint64_t lo = std::max(seg_begin, win_begin);
        const std::uint64_t hi = std::min(seg_end, win_end);
        if (lo >= hi) continue;
        span.phases.push_back(PhaseSegment{timeline[i].second, lo, hi});
      }
    }
    // Ack attribution: acks the sender observed during transmission.
    span.ack_count = 0;
    span.ack_total = 0.0;
    const auto ack_it = acks_.find(span.sender);
    if (ack_it != acks_.end()) {
      for (const auto& [t, latency] : ack_it->second) {
        if (t >= win_begin && t <= span.last_bit()) {
          ++span.ack_count;
          span.ack_total += latency;
        }
      }
    }
  }

  // Utilization: a robot is busy inside its own transmission windows.
  utilization_.clear();
  std::map<std::int64_t, std::uint64_t> busy;
  for (const MessageSpan& span : spans_) {
    busy[span.sender] += span.last_bit() - span.start() + 1;
  }
  for (const auto& [robot, c] : counters_) {
    RobotUtilization u;
    u.robot = robot;
    u.activations = c.activations;
    u.moves = c.moves;
    u.bits_sent = c.bits_sent;
    u.busy_instants = std::min(busy[robot], run_instants);
    u.silent_instants = run_instants - u.busy_instants;
    u.utilization = run_instants == 0
                        ? 0.0
                        : static_cast<double>(u.busy_instants) /
                              static_cast<double>(run_instants);
    utilization_.push_back(u);
  }

  // Critical path: the sender whose span finished last; its outbox is FIFO,
  // so its spans form a chain of transmit windows separated by queue waits.
  critical_path_ = CriticalPath{};
  const MessageSpan* terminal = nullptr;
  for (const MessageSpan& span : spans_) {
    if (terminal == nullptr || span.end() > terminal->end()) {
      terminal = &span;
    }
  }
  if (terminal != nullptr) {
    critical_path_.sender = terminal->sender;
    std::vector<const MessageSpan*> chain;
    for (const MessageSpan& span : spans_) {
      if (span.sender == terminal->sender &&
          span.start() <= terminal->start()) {
        chain.push_back(&span);
      }
    }
    std::sort(chain.begin(), chain.end(),
              [](const MessageSpan* a, const MessageSpan* b) {
                return a->start() < b->start();
              });
    for (const MessageSpan* span : chain) {
      critical_path_.span_ids.push_back(span->id);
      critical_path_.transmit_instants +=
          span->last_bit() - span->start() + 1;
    }
    // The chain runs until the later of the terminal delivery and the
    // sender's own last bit (async senders outlast the delivery).
    std::uint64_t chain_end = terminal->end();
    for (const MessageSpan* span : chain) {
      chain_end = std::max(chain_end, span->last_bit());
    }
    critical_path_.total_instants = chain_end - chain.front()->start() + 1;
    critical_path_.wait_instants =
        critical_path_.total_instants > critical_path_.transmit_instants
            ? critical_path_.total_instants -
                  critical_path_.transmit_instants
            : 0;
  }
}

void SpanBuilder::write_json(std::ostream& out) {
  finalize();
  out << "{\n  \"instants\": " << instants_
      << ",\n  \"span_count\": " << spans_.size()
      << ",\n  \"corrupt_frames\": " << corrupt_frames_
      << ",\n  \"spans\": [";
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const MessageSpan& s = spans_[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"id\": " << s.id
        << ", \"sender\": " << s.sender
        << ", \"addressee\": " << s.addressee << ", \"broadcast\": "
        << (s.broadcast ? "true" : "false")
        << ", \"payload_bytes\": " << s.payload_bytes
        << ", \"bits\": " << s.bit_times.size()
        << ", \"start\": " << s.start()
        << ", \"last_bit\": " << s.last_bit() << ", \"end\": " << s.end()
        << ", \"end_to_end\": " << s.end_to_end()
        << ", \"instants_per_bit\": "
        << json_number(s.bit_times.empty()
                           ? 0.0
                           : static_cast<double>(s.end_to_end()) /
                                 static_cast<double>(s.bit_times.size()))
        << ",\n     \"deliveries\": [";
    for (std::size_t d = 0; d < s.deliveries.size(); ++d) {
      out << (d == 0 ? "" : ", ") << "{\"robot\": " << s.deliveries[d].robot
          << ", \"t\": " << s.deliveries[d].t << ", \"kind\": "
          << json_quote(s.deliveries[d].kind) << "}";
    }
    out << "],\n     \"phases\": [";
    // Aggregate contiguous segments per phase name for the JSON view.
    std::vector<std::pair<std::string, std::uint64_t>> agg;
    for (const PhaseSegment& seg : s.phases) {
      auto it = std::find_if(agg.begin(), agg.end(), [&](const auto& p) {
        return p.first == seg.phase;
      });
      if (it == agg.end()) {
        agg.emplace_back(seg.phase, seg.instants());
      } else {
        it->second += seg.instants();
      }
    }
    for (std::size_t p = 0; p < agg.size(); ++p) {
      out << (p == 0 ? "" : ", ") << "{\"phase\": "
          << json_quote(agg[p].first) << ", \"instants\": " << agg[p].second
          << "}";
    }
    out << "],\n     \"acks\": {\"count\": " << s.ack_count
        << ", \"total_instants\": " << json_number(s.ack_total) << "}}";
  }
  out << (spans_.empty() ? "" : "\n  ") << "],\n  \"robots\": [";
  for (std::size_t i = 0; i < utilization_.size(); ++i) {
    const RobotUtilization& u = utilization_[i];
    out << (i == 0 ? "\n" : ",\n") << "    {\"robot\": " << u.robot
        << ", \"activations\": " << u.activations
        << ", \"moves\": " << u.moves << ", \"bits_sent\": " << u.bits_sent
        << ", \"busy_instants\": " << u.busy_instants
        << ", \"silent_instants\": " << u.silent_instants
        << ", \"utilization\": " << json_number(u.utilization) << "}";
  }
  out << (utilization_.empty() ? "" : "\n  ")
      << "],\n  \"critical_path\": {\"sender\": " << critical_path_.sender
      << ", \"span_ids\": [";
  for (std::size_t i = 0; i < critical_path_.span_ids.size(); ++i) {
    out << (i == 0 ? "" : ", ") << critical_path_.span_ids[i];
  }
  out << "], \"total_instants\": " << critical_path_.total_instants
      << ", \"transmit_instants\": " << critical_path_.transmit_instants
      << ", \"wait_instants\": " << critical_path_.wait_instants << "}\n}\n";
}

void SpanBuilder::write_chrome_trace(std::ostream& out) {
  finalize();
  // One simulated instant = one microsecond, matching ChromeTraceSink.
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
  bool first = true;
  const auto emit = [&](const std::string& line) {
    out << (first ? "" : ",\n") << line;
    first = false;
  };
  for (const auto& [robot, c] : counters_) {
    (void)c;
    emit("{\"ph\":\"M\",\"pid\":0,\"tid\":" + std::to_string(robot) +
         ",\"name\":\"thread_name\",\"args\":{\"name\":\"robot " +
         std::to_string(robot) + "\"}}");
  }
  for (const MessageSpan& s : spans_) {
    const std::string addressee =
        s.broadcast ? "*" : std::to_string(s.addressee);
    // The message span encloses its phase children on the sender's track;
    // Perfetto nests complete events by containment.
    emit("{\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(s.sender) +
         ",\"ts\":" + std::to_string(s.start()) + ",\"dur\":" +
         std::to_string(s.end() - s.start() + 1) + ",\"cat\":\"message\"," +
         "\"name\":" + json_quote("msg#" + std::to_string(s.id) + " -> " +
                                  addressee) +
         ",\"args\":{\"bits\":" + std::to_string(s.bit_times.size()) +
         ",\"payload_bytes\":" + std::to_string(s.payload_bytes) + "}}");
    for (const PhaseSegment& seg : s.phases) {
      emit("{\"ph\":\"X\",\"pid\":0,\"tid\":" + std::to_string(s.sender) +
           ",\"ts\":" + std::to_string(seg.begin) + ",\"dur\":" +
           std::to_string(seg.instants()) + ",\"cat\":\"message_phase\"," +
           "\"name\":" + json_quote(seg.phase) + "}");
    }
    for (const SpanDelivery& d : s.deliveries) {
      emit("{\"ph\":\"i\",\"pid\":0,\"tid\":" + std::to_string(d.robot) +
           ",\"ts\":" + std::to_string(d.t) + ",\"s\":\"t\",\"cat\":" +
           "\"delivery\",\"name\":" +
           json_quote("deliver msg#" + std::to_string(s.id) + " (" +
                      d.kind + ")") +
           "}");
    }
  }
  out << "\n]}\n";
}

}  // namespace stig::obs
