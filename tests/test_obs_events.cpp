// Event-stream tests: golden JSONL rendering, deterministic event logs,
// payload reconstruction from BitDecoded events, Chrome trace shape (spans
// per protocol phase, no overlap per thread), and the engine's motion
// counters as a fold of its own event stream.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "encode/framing.hpp"
#include "obs/chrome_trace.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"

namespace stig {
namespace {

core::ChatNetworkOptions sync_options() {
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  opt.randomize_frames = false;  // Fully deterministic geometry.
  opt.seed = 7;
  return opt;
}

std::vector<geom::Vec2> two_positions() {
  return {geom::Vec2{0, 0}, geom::Vec2{6, 0}};
}

/// Runs a deterministic 2-robot synchronous exchange of `msg` with `sink`
/// attached; returns the network for inspection.
template <typename Fn>
void run_two_robot_sync(obs::EventSink* sink,
                        const std::vector<std::uint8_t>& msg, Fn&& inspect) {
  core::ChatNetwork net(two_positions(), sync_options());
  if (sink != nullptr) net.attach_event_sink(sink);
  net.send(0, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(2);
  inspect(net);
}

TEST(JsonlGolden, FixedFieldOrderPerEventType) {
  using obs::Event;
  using obs::EventType;
  using obs::JsonlEventSink;

  Event activation;
  activation.type = EventType::Activation;
  activation.t = 3;
  activation.robot = 0;
  activation.x = 1.25;
  activation.y = -0.5;
  EXPECT_EQ(JsonlEventSink::to_json(activation),
            R"({"type":"activation","t":3,"robot":0,"x":1.25,"y":-0.5})");

  Event move = activation;
  move.type = EventType::Move;
  move.value = 0.25;
  EXPECT_EQ(
      JsonlEventSink::to_json(move),
      R"({"type":"move","t":3,"robot":0,"x":1.25,"y":-0.5,"value":0.25})");

  Event bit;
  bit.type = EventType::BitDecoded;
  bit.t = 17;
  bit.robot = 1;
  bit.peer = 0;
  bit.aux = 1;
  bit.bit = 1;
  EXPECT_EQ(
      JsonlEventSink::to_json(bit),
      R"({"type":"bit_decoded","t":17,"robot":1,"peer":0,"aux":1,"bit":1})");

  Event phase;
  phase.type = EventType::PhaseEnter;
  phase.t = 4;
  phase.robot = 2;
  phase.label = "signal";
  EXPECT_EQ(JsonlEventSink::to_json(phase),
            R"({"type":"phase_enter","t":4,"robot":2,"label":"signal"})");

  // Broadcast bits carry no peer field; the label marks the lane.
  Event bc;
  bc.type = EventType::BitEmitted;
  bc.t = 9;
  bc.robot = 0;
  bc.peer = -1;
  bc.bit = 0;
  bc.label = "broadcast";
  EXPECT_EQ(
      JsonlEventSink::to_json(bc),
      R"({"type":"bit_emitted","t":9,"robot":0,"bit":0,"label":"broadcast"})");

  Event step;
  step.type = EventType::StepComplete;
  step.t = 5;
  step.value = 6.0;
  EXPECT_EQ(JsonlEventSink::to_json(step),
            R"({"type":"step_complete","t":5,"value":6})");
}

TEST(JsonlGolden, DeterministicRunProducesIdenticalLogs) {
  const auto msg = encode::bytes_of("hi");
  std::string first;
  std::string second;
  for (std::string* out : {&first, &second}) {
    std::ostringstream os;
    obs::JsonlEventSink sink(os);
    run_two_robot_sync(&sink, msg, [](core::ChatNetwork&) {});
    *out = os.str();
  }
  ASSERT_FALSE(first.empty());
  EXPECT_EQ(first, second);

  // Every line is a self-contained JSON object with a type field first.
  std::istringstream lines(first);
  std::string line;
  std::size_t count = 0;
  while (std::getline(lines, line)) {
    ASSERT_FALSE(line.empty());
    EXPECT_EQ(line.rfind("{\"type\":\"", 0), 0u) << line;
    EXPECT_EQ(line.back(), '}') << line;
    ++count;
  }
  EXPECT_GT(count, 100u);  // A full frame exchange is hundreds of events.
}

TEST(Events, BitDecodedStreamReconstructsThePayload) {
  const auto msg = encode::bytes_of("hi");
  obs::CollectSink sink;
  run_two_robot_sync(&sink, msg, [&](core::ChatNetwork& net) {
    ASSERT_EQ(net.received(1).size(), 1u);
    EXPECT_EQ(net.received(1)[0].payload, msg);
  });

  // Feed robot 1's decoded bits, in order, into a fresh FrameParser: the
  // event stream alone must reproduce the payload exactly.
  encode::FrameParser parser;
  std::uint64_t decoded_bits = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.type != obs::EventType::BitDecoded || e.robot != 1) continue;
    EXPECT_EQ(e.peer, 0);  // Sender is robot 0 (simulator index).
    parser.push_bit(static_cast<std::uint8_t>(e.bit));
    ++decoded_bits;
  }
  EXPECT_EQ(decoded_bits, encode::encode_frame(msg).size());
  const auto messages = parser.take_messages();
  ASSERT_EQ(messages.size(), 1u);
  EXPECT_EQ(messages[0], msg);
  EXPECT_EQ(parser.corrupt_frames(), 0u);

  // The sender's BitEmitted stream carries the same bits.
  encode::BitString sent;
  for (const obs::Event& e : sink.events()) {
    if (e.type == obs::EventType::BitEmitted && e.robot == 0) {
      sent.push_back(static_cast<std::uint8_t>(e.bit));
    }
  }
  EXPECT_EQ(sent, encode::encode_frame(msg));

  // Exactly one FrameDelivered lands at robot 1 with the payload size.
  std::size_t frames = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.type != obs::EventType::FrameDelivered) continue;
    EXPECT_EQ(e.robot, 1);
    EXPECT_EQ(e.peer, 0);
    EXPECT_EQ(e.value, static_cast<double>(msg.size()));
    ++frames;
  }
  EXPECT_EQ(frames, 1u);
}

/// Pulls the integer that follows `key` in `line` (-1 when absent).
std::int64_t field(const std::string& line, const std::string& key) {
  const std::size_t pos = line.find(key);
  if (pos == std::string::npos) return -1;
  return std::stoll(line.substr(pos + key.size()));
}

TEST(Events, ChromeTraceIsWellFormedAndPhaseSpansDoNotOverlap) {
  const auto msg = encode::bytes_of("hi");
  std::ostringstream os;
  {
    obs::ChromeTraceSink sink(os);
    run_two_robot_sync(&sink, msg, [](core::ChatNetwork&) {});
    sink.flush();
  }
  const std::string doc = os.str();
  EXPECT_EQ(doc.rfind("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", 0),
            0u);
  EXPECT_EQ(doc.substr(doc.size() - 3), "]}\n");

  // Per robot (tid): complete spans must tile without overlap, and every
  // span must be a protocol phase name.
  std::map<std::int64_t, std::vector<std::pair<std::int64_t, std::int64_t>>>
      spans;
  std::size_t metadata = 0;
  std::istringstream lines(doc);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.find("\"ph\":\"M\"") != std::string::npos) ++metadata;
    if (line.find("\"ph\":\"X\"") == std::string::npos) continue;
    const std::int64_t tid = field(line, "\"tid\":");
    const std::int64_t ts = field(line, "\"ts\":");
    const std::int64_t dur = field(line, "\"dur\":");
    ASSERT_GE(tid, 0);
    ASSERT_GE(ts, 0);
    ASSERT_GE(dur, 1) << line;
    EXPECT_TRUE(line.find("\"cat\":\"phase\"") != std::string::npos) << line;
    spans[tid].emplace_back(ts, ts + dur);
  }
  ASSERT_EQ(spans.size(), 2u);      // Both robots produced phase spans.
  EXPECT_EQ(metadata, 2u);          // One thread_name record per robot.
  // The sender alternates signal/return phases; the idle receiver holds a
  // single idle span for the whole run.
  EXPECT_GT(spans[0].size(), 2u);
  EXPECT_GE(spans[1].size(), 1u);
  for (const auto& [tid, list] : spans) {
    for (std::size_t i = 1; i < list.size(); ++i) {
      // Emission order is chronological; spans may touch but not overlap.
      EXPECT_LE(list[i - 1].second, list[i].first)
          << "overlapping spans for tid " << tid;
    }
  }
}

/// A test-local fold of an engine's Activation, Move and StepComplete
/// events: what its motion counters must equal.
struct MotionFold {
  std::vector<sim::MotionStats> robots;
  double min_separation = std::numeric_limits<double>::infinity();
  sim::Time instants = 0;
};

MotionFold fold_motion(const std::vector<obs::Event>& events,
                       std::size_t n) {
  MotionFold f;
  f.robots.resize(n);
  for (const obs::Event& e : events) {
    switch (e.type) {
      case obs::EventType::Activation:
        ++f.robots.at(static_cast<std::size_t>(e.robot)).activations;
        break;
      case obs::EventType::Move: {
        sim::MotionStats& m = f.robots.at(static_cast<std::size_t>(e.robot));
        ++m.moves;
        m.distance += e.value;
        break;
      }
      case obs::EventType::StepComplete:
        f.min_separation = std::min(f.min_separation, e.value);
        ++f.instants;
        break;
      default:
        break;
    }
  }
  return f;
}

/// The engine's counters equal the fold of its own events, bit for bit.
void expect_counters_fold(const core::ChatNetwork& net,
                          const obs::CollectSink& sink) {
  const MotionFold f = fold_motion(sink.events(), net.robot_count());
  EXPECT_EQ(f.instants, net.engine().now());
  EXPECT_EQ(f.min_separation, net.engine().min_separation());
  for (std::size_t i = 0; i < net.robot_count(); ++i) {
    const sim::MotionStats& m = net.engine().motion(i);
    EXPECT_EQ(f.robots[i].activations, m.activations) << "robot " << i;
    EXPECT_EQ(f.robots[i].moves, m.moves) << "robot " << i;
    EXPECT_EQ(f.robots[i].distance, m.distance) << "robot " << i;
  }
}

TEST(Events, EngineCountersAreTheFoldOfItsEvents) {
  {
    obs::CollectSink sink;
    run_two_robot_sync(&sink, encode::bytes_of("ok"),
                       [&](core::ChatNetwork& net) {
                         expect_counters_fold(net, sink);
                       });
  }
  // Five asynchronous robots: partial activation sets, idle activations.
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::asynchronous;
  opt.seed = 3;
  core::ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{6, 0}, geom::Vec2{3, 5},
                         geom::Vec2{-3, 4}, geom::Vec2{2, -5}},
                        opt);
  obs::CollectSink sink;
  net.attach_event_sink(&sink);
  net.send(0, 3, encode::bytes_of("fold"));
  net.run(2000);
  ASSERT_GT(net.engine().motion(0).moves, 0u);
  expect_counters_fold(net, sink);
}

TEST(Events, ReportMatchesEngineCounters) {
  const auto msg = encode::bytes_of("hi");
  run_two_robot_sync(nullptr, msg, [&](core::ChatNetwork& net) {
    const obs::RunReport r = net.report();
    EXPECT_EQ(r.robots, 2u);
    EXPECT_EQ(r.protocol, "sync2");
    EXPECT_EQ(r.schedule, "synchronous");
    EXPECT_TRUE(r.quiescent);
    EXPECT_EQ(r.instants, net.engine().now());
    EXPECT_EQ(r.messages_delivered, 1u);
    EXPECT_DOUBLE_EQ(r.min_separation,
                     net.engine().min_separation());
    EXPECT_EQ(r.bits_sent, net.stats(0).bits_sent + net.stats(1).bits_sent);
    ASSERT_GT(r.bits_sent, 0u);
    EXPECT_DOUBLE_EQ(r.instants_per_bit,
                     static_cast<double>(r.instants) /
                         static_cast<double>(r.bits_sent));
    double dist = 0.0;
    for (std::size_t i = 0; i < 2; ++i) {
      dist += net.engine().motion(i).distance;
      EXPECT_EQ(r.per_robot[i].activations,
                net.engine().motion(i).activations);
    }
    EXPECT_DOUBLE_EQ(r.total_distance, dist);

    std::ostringstream os;
    r.write_json(os);
    const std::string json = os.str();
    EXPECT_NE(json.find("\"instants_per_bit\""), std::string::npos);
    EXPECT_NE(json.find("\"min_separation\""), std::string::npos);
    EXPECT_NE(json.find("\"per_robot\""), std::string::npos);
  });
}

}  // namespace
}  // namespace stig
