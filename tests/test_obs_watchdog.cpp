// Watchdog and flight-recorder tests: every invariant trips on a synthetic
// violating stream, clean runs of all six protocol configurations trip
// nothing, the ring buffer wraps correctly, and a violation dumps the
// black box before the abort throw unwinds.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analyze/flight_recorder.hpp"
#include "analyze/watchdog.hpp"
#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "encode/framing.hpp"
#include "obs/sink.hpp"

namespace stig {
namespace {

using obs::Event;
using obs::EventType;
using obs::FlightRecorder;
using obs::Watchdog;
using obs::WatchdogError;
using obs::WatchdogOptions;

Event event(EventType type, std::uint64_t t, std::int64_t robot = -1,
            std::int64_t peer = -1) {
  Event e;
  e.type = type;
  e.t = t;
  e.robot = robot;
  e.peer = peer;
  return e;
}

TEST(Watchdog, CollisionIsAlwaysASeparationViolation) {
  Watchdog wd(WatchdogOptions{});
  wd.on_event(event(EventType::Collision, 12, 0, 1));
  EXPECT_FALSE(wd.ok());
  ASSERT_EQ(wd.violations().size(), 1u);
  EXPECT_EQ(wd.violations()[0].invariant, "separation");
  EXPECT_EQ(wd.violations()[0].t, 12u);
}

TEST(Watchdog, SeparationFloorTripsOnStepComplete) {
  WatchdogOptions opt;
  opt.min_separation = 2.0;
  Watchdog wd(opt);
  Event ok_step = event(EventType::StepComplete, 1);
  ok_step.value = 3.0;
  wd.on_event(ok_step);
  EXPECT_TRUE(wd.ok());
  Event bad_step = event(EventType::StepComplete, 2);
  bad_step.value = 1.5;
  wd.on_event(bad_step);
  EXPECT_FALSE(wd.ok());
  ASSERT_EQ(wd.violations().size(), 1u);
  EXPECT_EQ(wd.violations()[0].invariant, "separation");
  EXPECT_DOUBLE_EQ(wd.violations()[0].value, 1.5);
}

TEST(Watchdog, GranularContainmentTripsOutsideTheDisc) {
  // Two robots 6 apart: granular radius is 3 for each.
  WatchdogOptions opt;
  opt.check_granular = true;
  Watchdog wd(opt, {geom::Vec2{0, 0}, geom::Vec2{6, 0}});

  Event inside = event(EventType::Move, 1, 0);
  inside.x = 2.5;
  inside.y = 0.0;
  wd.on_event(inside);
  EXPECT_TRUE(wd.ok());

  Event outside = event(EventType::Move, 2, 0);
  outside.x = 3.5;
  outside.y = 0.0;
  wd.on_event(outside);
  EXPECT_FALSE(wd.ok());
  ASSERT_EQ(wd.violations().size(), 1u);
  EXPECT_EQ(wd.violations()[0].invariant, "granular");
  EXPECT_GT(wd.violations()[0].value, 3.0);
}

TEST(Watchdog, TeleportDisarmsGranularForThatRobot) {
  WatchdogOptions opt;
  opt.check_granular = true;
  Watchdog wd(opt, {geom::Vec2{0, 0}, geom::Vec2{6, 0}});

  // Fault injection re-homes robot 0; its later far moves are legal, but
  // robot 1 stays armed.
  wd.on_event(event(EventType::Teleport, 1, 0));
  Event far = event(EventType::Move, 2, 0);
  far.x = 20.0;
  wd.on_event(far);
  EXPECT_TRUE(wd.ok());

  Event other = event(EventType::Move, 3, 1);
  other.x = 20.0;
  wd.on_event(other);
  EXPECT_FALSE(wd.ok());
  EXPECT_EQ(wd.violations()[0].robot, 1);
}

TEST(Watchdog, BitOrderTripsOnTimeReversal) {
  Watchdog wd(WatchdogOptions{});
  Event first = event(EventType::BitEmitted, 10, 0, 1);
  wd.on_event(first);
  Event stale = event(EventType::BitEmitted, 5, 0, 1);
  wd.on_event(stale);
  EXPECT_FALSE(wd.ok());
  ASSERT_EQ(wd.violations().size(), 1u);
  EXPECT_EQ(wd.violations()[0].invariant, "bit_order");

  // Decoded bits are ordered per (receiver, sender) stream.
  WatchdogOptions no_framing;
  no_framing.check_framing = false;
  Watchdog wd2(no_framing);
  wd2.on_event(event(EventType::BitDecoded, 20, 1, 0));
  wd2.on_event(event(EventType::BitDecoded, 21, 1, 2));  // Other stream ok.
  wd2.on_event(event(EventType::BitDecoded, 15, 1, 0));
  EXPECT_FALSE(wd2.ok());
  ASSERT_EQ(wd2.violations().size(), 1u);
  EXPECT_EQ(wd2.violations()[0].invariant, "bit_order");
}

TEST(Watchdog, FramingTripsOnACorruptDecodedStream) {
  const auto payload = encode::bytes_of("hi");
  encode::BitString bits = encode::encode_frame(payload);
  ASSERT_GT(bits.size(), 1u);
  bits.back() ^= 1u;  // Break the CRC.

  Watchdog wd(WatchdogOptions{});
  std::uint64_t t = 0;
  for (const std::uint8_t b : bits) {
    Event e = event(EventType::BitDecoded, ++t, 1, 0);
    e.aux = 1;
    e.bit = b;
    wd.on_event(e);
  }
  EXPECT_FALSE(wd.ok());
  ASSERT_EQ(wd.violations().size(), 1u);
  EXPECT_EQ(wd.violations()[0].invariant, "framing");

  // The intact frame on a fresh watchdog is clean.
  Watchdog clean(WatchdogOptions{});
  t = 0;
  for (const std::uint8_t b : encode::encode_frame(payload)) {
    Event e = event(EventType::BitDecoded, ++t, 1, 0);
    e.aux = 1;
    e.bit = b;
    clean.on_event(e);
  }
  EXPECT_TRUE(clean.ok());
}

TEST(Watchdog, AckWindowTripsWhenConfigured) {
  WatchdogOptions opt;
  opt.max_ack_window = 8.0;
  Watchdog wd(opt);
  Event quick = event(EventType::AckObserved, 5, 0, 1);
  quick.value = 6.0;
  wd.on_event(quick);
  EXPECT_TRUE(wd.ok());
  Event slow = event(EventType::AckObserved, 30, 0, 1);
  slow.value = 20.0;
  wd.on_event(slow);
  EXPECT_FALSE(wd.ok());
  ASSERT_EQ(wd.violations().size(), 1u);
  EXPECT_EQ(wd.violations()[0].invariant, "ack_window");
}

TEST(Watchdog, AbortModeThrowsOnFirstViolation) {
  WatchdogOptions opt;
  opt.abort_on_violation = true;
  Watchdog wd(opt);
  EXPECT_THROW(wd.on_event(event(EventType::Collision, 3, 0, 1)),
               WatchdogError);
}

TEST(Watchdog, RecordingIsBoundedButCountingIsNot) {
  WatchdogOptions opt;
  opt.max_recorded = 2;
  Watchdog wd(opt);
  for (std::uint64_t t = 0; t < 5; ++t) {
    wd.on_event(event(EventType::Collision, t, 0, 1));
  }
  EXPECT_EQ(wd.total_violations(), 5u);
  EXPECT_EQ(wd.violations().size(), 2u);

  std::ostringstream os;
  wd.report(os);
  EXPECT_NE(os.str().find("5 violation(s)"), std::string::npos);
  std::ostringstream js;
  wd.write_json(js);
  EXPECT_NE(js.str().find("\"ok\": false"), std::string::npos);
}

/// One clean-run configuration of the protocol lattice.
struct CleanRun {
  const char* name;
  core::ProtocolKind protocol;
  core::Synchrony synchrony;
  std::size_t robots;
  bool sense_of_direction;
  bool banded;
  bool granular;  ///< Granular containment is an invariant here.
};

TEST(Watchdog, CleanRunsOfAllSixProtocolsTripNothing) {
  const CleanRun runs[] = {
      {"sync2", core::ProtocolKind::sync2, core::Synchrony::synchronous, 2,
       false, false, false},
      {"sliced", core::ProtocolKind::sliced, core::Synchrony::synchronous, 4,
       false, false, true},
      {"ksegment", core::ProtocolKind::ksegment,
       core::Synchrony::synchronous, 4, true, false, true},
      {"async2", core::ProtocolKind::async2, core::Synchrony::asynchronous,
       2, false, false, false},
      {"async2_banded", core::ProtocolKind::async2,
       core::Synchrony::asynchronous, 2, false, true, false},
      {"asyncn", core::ProtocolKind::asyncn, core::Synchrony::asynchronous,
       4, false, false, true},
  };
  for (const CleanRun& run : runs) {
    SCOPED_TRACE(run.name);
    std::vector<geom::Vec2> pts = {geom::Vec2{0, 0}, geom::Vec2{6, 0},
                                   geom::Vec2{0, 6}, geom::Vec2{6, 6}};
    pts.resize(run.robots);

    core::ChatNetworkOptions opt;
    opt.synchrony = run.synchrony;
    opt.protocol = run.protocol;
    opt.caps.sense_of_direction = run.sense_of_direction;
    opt.async2_banded = run.banded;
    opt.seed = 11;

    WatchdogOptions wopt;
    wopt.check_granular = run.granular;
    Watchdog wd(wopt, pts);

    core::ChatNetwork net(pts, opt);
    net.attach_event_sink(&wd);
    net.send(0, 1, encode::bytes_of("ok"));
    ASSERT_TRUE(net.run_until_quiescent(200'000));
    std::ostringstream os;
    wd.report(os);
    EXPECT_TRUE(wd.ok()) << os.str();
  }
}

TEST(FlightRecorder, RingWrapsKeepingTheMostRecentEvents) {
  FlightRecorder rec(4);
  EXPECT_EQ(rec.capacity(), 4u);
  EXPECT_EQ(rec.size(), 0u);
  for (std::uint64_t t = 0; t < 10; ++t) {
    rec.on_event(event(EventType::StepComplete, t));
  }
  EXPECT_EQ(rec.size(), 4u);
  EXPECT_EQ(rec.total_seen(), 10u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 4u);
  for (std::size_t i = 0; i < snap.size(); ++i) {
    EXPECT_EQ(snap[i].t, 6u + i);  // Oldest first: t = 6, 7, 8, 9.
  }

  std::ostringstream os;
  rec.dump(os);
  const std::string dump = os.str();
  EXPECT_EQ(dump.rfind("{\"type\":\"flight_recorder\"", 0), 0u);
  EXPECT_NE(dump.find("\"capacity\":4"), std::string::npos);
  EXPECT_NE(dump.find("\"seen\":10"), std::string::npos);
  EXPECT_NE(dump.find("\"dropped\":6"), std::string::npos);
  std::size_t lines = 0;
  for (const char c : dump) {
    if (c == '\n') ++lines;
  }
  EXPECT_EQ(lines, 5u);  // Header + one line per retained event.
}

TEST(FlightRecorder, PartiallyFilledRingDumpsInArrivalOrder) {
  FlightRecorder rec(8);
  for (std::uint64_t t = 0; t < 3; ++t) {
    rec.on_event(event(EventType::Activation, t, 0));
  }
  EXPECT_EQ(rec.size(), 3u);
  const auto snap = rec.snapshot();
  ASSERT_EQ(snap.size(), 3u);
  EXPECT_EQ(snap.front().t, 0u);
  EXPECT_EQ(snap.back().t, 2u);
}

TEST(FlightRecorder, WatchdogViolationDumpsBeforeTheAbortThrow) {
  const std::string path =
      ::testing::TempDir() + "/stig_watchdog_dump.jsonl";
  std::remove(path.c_str());

  FlightRecorder rec(16);
  WatchdogOptions opt;
  opt.abort_on_violation = true;
  Watchdog wd(opt);
  wd.set_flight_recorder(&rec, path);

  obs::MultiSink fan;        // Recorder first, like stigsim wires it, so
  fan.add(&rec);             // the dump contains the tripping event.
  fan.add(&wd);
  for (std::uint64_t t = 0; t < 5; ++t) {
    fan.on_event(event(EventType::StepComplete, t));
  }
  EXPECT_THROW(fan.on_event(event(EventType::Collision, 5, 0, 1)),
               WatchdogError);

  std::ifstream in(path);
  ASSERT_TRUE(in.good()) << "no flight-recorder dump at " << path;
  std::string line;
  ASSERT_TRUE(std::getline(in, line));
  EXPECT_EQ(line.rfind("{\"type\":\"flight_recorder\"", 0), 0u);
  bool has_collision = false;
  while (std::getline(in, line)) {
    if (line.find("\"type\":\"collision\"") != std::string::npos) {
      has_collision = true;
    }
  }
  EXPECT_TRUE(has_collision);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stig
