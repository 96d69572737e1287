// Span-tracing tests: spans rebuilt from a recorded JSONL log match the
// live run byte for byte, per-message end-to-end latency lands exactly on
// the delivered-frame instant (including the async protocols, where the
// delivery precedes the sender's final bit in stream order), broadcasts
// fan out to every receiver, and the JSONL parser round-trips the golden
// event rendering.
#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/span.hpp"
#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "obs/jsonl_parse.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/sink.hpp"

namespace stig {
namespace {

core::ChatNetworkOptions deterministic(core::Synchrony synchrony) {
  core::ChatNetworkOptions opt;
  opt.synchrony = synchrony;
  opt.randomize_frames = false;
  opt.seed = 7;
  return opt;
}

/// Runs a 2-robot exchange with `extra` attached next to a JSONL recorder;
/// returns the recorded log.
std::string run_recorded(core::Synchrony synchrony, obs::EventSink* extra,
                         const std::vector<std::uint8_t>& msg) {
  std::ostringstream os;
  obs::JsonlEventSink jsonl(os);
  obs::MultiSink fan;
  fan.add(&jsonl);
  fan.add(extra);
  core::ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{6, 0}},
                        deterministic(synchrony));
  net.attach_event_sink(&fan);
  net.send(0, 1, msg);
  EXPECT_TRUE(net.run_until_quiescent(200'000));
  fan.flush();
  return os.str();
}

TEST(Spans, ReplayedLogReproducesTheLiveSpansExactly) {
  obs::SpanBuilder live;
  const std::string log = run_recorded(
      core::Synchrony::synchronous, &live, encode::bytes_of("hi"));

  obs::EventLog parsed;
  std::istringstream in(log);
  EXPECT_EQ(parsed.read(in), 0u);  // Every line parses.
  ASSERT_GT(parsed.events().size(), 100u);

  obs::SpanBuilder replay;
  for (const obs::Event& e : parsed.events()) replay.on_event(e);

  std::ostringstream live_json;
  std::ostringstream replay_json;
  live.write_json(live_json);
  replay.write_json(replay_json);
  ASSERT_FALSE(live_json.str().empty());
  EXPECT_EQ(live_json.str(), replay_json.str());

  std::ostringstream live_trace;
  std::ostringstream replay_trace;
  live.write_chrome_trace(live_trace);
  replay.write_chrome_trace(replay_trace);
  EXPECT_EQ(live_trace.str(), replay_trace.str());
}

TEST(Spans, EndToEndLatencyLandsOnTheDeliveredFrameInstant) {
  obs::CollectSink collected;
  obs::SpanBuilder builder;
  obs::MultiSink both;
  both.add(&collected);
  both.add(&builder);
  run_recorded(core::Synchrony::synchronous, &both, encode::bytes_of("hi"));
  builder.finalize();

  ASSERT_EQ(builder.spans().size(), 1u);
  const obs::MessageSpan& span = builder.spans()[0];
  EXPECT_EQ(span.sender, 0);
  EXPECT_EQ(span.addressee, 1);
  EXPECT_FALSE(span.broadcast);
  EXPECT_EQ(span.payload_bytes, 2u);
  ASSERT_EQ(span.deliveries.size(), 1u);
  EXPECT_EQ(span.deliveries[0].robot, 1);
  EXPECT_EQ(span.deliveries[0].kind, "inbox");

  // The span must end exactly where the run's FrameDelivered fired.
  std::uint64_t delivered_t = 0;
  std::size_t frames = 0;
  for (const obs::Event& e : collected.events()) {
    if (e.type == obs::EventType::FrameDelivered) {
      delivered_t = e.t;
      ++frames;
    }
  }
  ASSERT_EQ(frames, 1u);
  EXPECT_EQ(span.end(), delivered_t);
  EXPECT_EQ(span.start() + span.end_to_end(), delivered_t);

  // Bit count matches the on-the-wire frame.
  EXPECT_EQ(span.bit_times.size(),
            encode::encode_frame(encode::bytes_of("hi")).size());
  EXPECT_EQ(builder.corrupt_frames(), 0u);
}

TEST(Spans, AsyncDeliveryPrecedingTheFinalBitStillMatches) {
  // Async2 senders complete their last bit only after observing the
  // Lemma 4.1 ack, so FrameDelivered precedes the final BitEmitted in
  // stream order; matching must survive the inversion.
  obs::CollectSink collected;
  obs::SpanBuilder builder;
  obs::MultiSink both;
  both.add(&collected);
  both.add(&builder);
  run_recorded(core::Synchrony::asynchronous, &both,
               encode::bytes_of("ok"));
  builder.finalize();

  ASSERT_EQ(builder.spans().size(), 1u);
  const obs::MessageSpan& span = builder.spans()[0];
  ASSERT_EQ(span.deliveries.size(), 1u);

  std::uint64_t delivered_t = 0;
  std::uint64_t last_emit_t = 0;
  for (const obs::Event& e : collected.events()) {
    if (e.type == obs::EventType::FrameDelivered) delivered_t = e.t;
    if (e.type == obs::EventType::BitEmitted) last_emit_t = e.t;
  }
  EXPECT_LT(delivered_t, last_emit_t);  // The inversion actually happened.
  EXPECT_EQ(span.end(), delivered_t);
  EXPECT_EQ(span.start() + span.end_to_end(), delivered_t);
  EXPECT_GT(span.ack_count, 0u);  // Async transmission observes acks.
}

TEST(Spans, BroadcastFansOutToEveryReceiver) {
  core::ChatNetworkOptions opt = deterministic(core::Synchrony::synchronous);
  core::ChatNetwork net(
      {geom::Vec2{0, 0}, geom::Vec2{6, 0}, geom::Vec2{0, 6}}, opt);
  obs::SpanBuilder builder;
  net.attach_event_sink(&builder);
  net.broadcast(0, encode::bytes_of("all"));
  ASSERT_TRUE(net.run_until_quiescent(200'000));
  builder.finalize();

  ASSERT_EQ(builder.spans().size(), 1u);
  const obs::MessageSpan& span = builder.spans()[0];
  EXPECT_TRUE(span.broadcast);
  EXPECT_EQ(span.addressee, -1);
  ASSERT_EQ(span.deliveries.size(), 2u);
  for (const obs::SpanDelivery& d : span.deliveries) {
    EXPECT_NE(d.robot, 0);
    EXPECT_EQ(d.kind, "broadcast");
  }
  EXPECT_EQ(span.end(), span.deliveries[0].t > span.deliveries[1].t
                            ? span.deliveries[0].t
                            : span.deliveries[1].t);
}

TEST(Spans, UtilizationAndCriticalPathAreConsistent) {
  obs::SpanBuilder builder;
  run_recorded(core::Synchrony::synchronous, &builder,
               encode::bytes_of("hi"));
  builder.finalize();

  ASSERT_EQ(builder.utilization().size(), 2u);
  for (const obs::RobotUtilization& u : builder.utilization()) {
    EXPECT_EQ(u.busy_instants + u.silent_instants, builder.instants());
    EXPECT_GE(u.utilization, 0.0);
    EXPECT_LE(u.utilization, 1.0);
  }
  // Only the sender transmits.
  EXPECT_GT(builder.utilization()[0].busy_instants, 0u);
  EXPECT_EQ(builder.utilization()[1].busy_instants, 0u);

  const obs::CriticalPath& cp = builder.critical_path();
  EXPECT_EQ(cp.sender, 0);
  ASSERT_EQ(cp.span_ids.size(), 1u);
  EXPECT_EQ(cp.total_instants, cp.transmit_instants + cp.wait_instants);
  EXPECT_GT(cp.transmit_instants, 0u);
}

TEST(Spans, PhaseAttributionCoversTheTransmissionWindow) {
  obs::SpanBuilder builder;
  run_recorded(core::Synchrony::synchronous, &builder,
               encode::bytes_of("hi"));
  builder.finalize();

  ASSERT_EQ(builder.spans().size(), 1u);
  const obs::MessageSpan& span = builder.spans()[0];
  ASSERT_FALSE(span.phases.empty());
  std::uint64_t attributed = 0;
  for (const obs::PhaseSegment& seg : span.phases) {
    EXPECT_LT(seg.begin, seg.end);
    attributed += seg.instants();
  }
  // Segments tile the half-open window [start, end+1): same total length.
  EXPECT_EQ(attributed, span.end() + 1 - span.start());
}

TEST(JsonlParse, RoundTripsTheGoldenEventRendering) {
  obs::Event e;
  e.type = obs::EventType::FrameDelivered;
  e.t = 456;
  e.robot = 1;
  e.peer = 0;
  e.aux = 1;
  e.value = 2;
  e.label = "inbox";
  const std::string line = obs::JsonlEventSink::to_json(e);

  obs::EventLog log;
  const auto parsed = log.parse_line(line);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->type, e.type);
  EXPECT_EQ(parsed->t, e.t);
  EXPECT_EQ(parsed->robot, e.robot);
  EXPECT_EQ(parsed->peer, e.peer);
  EXPECT_EQ(parsed->aux, e.aux);
  EXPECT_DOUBLE_EQ(parsed->value, e.value);
  EXPECT_STREQ(parsed->label, "inbox");
  // The reparsed event renders back to the identical line.
  EXPECT_EQ(obs::JsonlEventSink::to_json(*parsed), line);

  EXPECT_FALSE(log.parse_line("not json").has_value());
  EXPECT_FALSE(log.parse_line("{\"type\":\"flight_recorder\"}").has_value());
}

}  // namespace
}  // namespace stig
