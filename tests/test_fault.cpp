// The fault subsystem: plan sampling/serialization, the injector's
// crash/stall/jitter/burst semantics, crash-masking group redundancy (the
// acceptance property: no single group member's crash changes the voted
// payloads), ack-timeout retransmission, and the fuzz-harness integration
// (masked run_case, shrinking, repro round-trip, replay digests).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "analyze/watchdog.hpp"
#include "core/chat_network.hpp"
#include "core/wireless.hpp"
#include "fault/fault_plan.hpp"
#include "fault/injector.hpp"
#include "fault/redundant_group.hpp"
#include "fault/reliable.hpp"
#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "obs/sink.hpp"

namespace {

using namespace stig;

// ---------------------------------------------------------------- plans --

TEST(FaultPlan, SamplingIsDeterministicAndInShape) {
  fault::FaultPlanShape shape;
  shape.robots = 4;
  shape.horizon = 500;
  shape.max_crashes = 2;
  shape.max_stalls = 2;
  shape.max_jitters = 2;
  shape.max_bursts = 2;
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    const fault::FaultPlan a = fault::sample_fault_plan(seed, shape);
    const fault::FaultPlan b = fault::sample_fault_plan(seed, shape);
    EXPECT_EQ(a, b);
    for (const auto& f : a.crashes) {
      EXPECT_LT(f.robot, shape.robots);
      EXPECT_LT(f.at, shape.horizon);
    }
    for (const auto& f : a.stalls) {
      EXPECT_LT(f.robot, shape.robots);
      EXPECT_GE(f.instants, 1u);
      EXPECT_LE(f.instants, shape.stall_max);
    }
    for (const auto& f : a.jitters) {
      EXPECT_LE(std::abs(f.dx_ticks), shape.jitter_ticks_max);
      EXPECT_LE(std::abs(f.dy_ticks), shape.jitter_ticks_max);
    }
    for (const auto& f : a.bursts) {
      EXPECT_GE(f.width, 1u);
      EXPECT_LE(f.width, shape.burst_width_max);
    }
  }
}

TEST(FaultPlan, FormatParseRoundTripsSampledPlans) {
  fault::FaultPlanShape shape;
  shape.robots = 6;
  shape.horizon = 2000;
  shape.max_crashes = 3;
  shape.max_stalls = 2;
  shape.max_jitters = 2;
  shape.max_bursts = 2;
  for (std::uint64_t seed = 1; seed <= 50; ++seed) {
    const fault::FaultPlan plan = fault::sample_fault_plan(seed, shape);
    const std::string text = fault::format_fault_plan(plan);
    const auto back = fault::parse_fault_plan(text);
    ASSERT_TRUE(back.has_value()) << text;
    EXPECT_EQ(*back, plan) << text;
  }
  // The empty plan is the empty string, both ways.
  EXPECT_EQ(fault::format_fault_plan({}), "");
  const auto empty = fault::parse_fault_plan("");
  ASSERT_TRUE(empty.has_value());
  EXPECT_TRUE(empty->empty());
}

TEST(FaultPlan, ParseRejectsMalformedText) {
  for (const char* bad :
       {"crash:1", "crash:@5", "stall:1@4+0", "burst:1@3x0", "jitter:0@2:5",
        "frob:1@2", "crash:1@2;;", "crash:1@2;stall:zz@1+1"}) {
    EXPECT_FALSE(fault::parse_fault_plan(bad).has_value()) << bad;
  }
}

TEST(FaultPlan, NormalizeSortsDedupsAndKeepsEarliestCrash) {
  fault::FaultPlan plan;
  plan.crashes = {{2, 90}, {1, 30}, {2, 40}, {1, 30}};
  plan.jitters = {{0, 5, 3, -4}, {0, 5, 3, -4}};
  fault::normalize(plan);
  ASSERT_EQ(plan.crashes.size(), 2u);
  EXPECT_EQ(plan.crashes[0], (fault::CrashFault{1, 30}));
  EXPECT_EQ(plan.crashes[1], (fault::CrashFault{2, 40}));  // Earliest wins.
  EXPECT_EQ(plan.jitters.size(), 1u);
}

// ------------------------------------------------------------- injector --

core::ChatNetworkOptions sliced_opts(std::uint64_t seed) {
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  opt.protocol = core::ProtocolKind::sliced;
  opt.seed = seed;
  return opt;
}

TEST(FaultInjector, CrashedSenderDeliversNothingAndFallsSilent) {
  fault::FaultInjector inj(fault::FaultPlan{.crashes = {{0, 5}}});
  obs::CollectSink sink;
  inj.set_event_sink(&sink);
  core::ChatNetwork net(fuzz::scatter(3, 2), sliced_opts(3));
  net.attach_step_interceptor(&inj);
  net.attach_event_sink(&sink);
  net.send(0, 1, {{0xab, 0xcd}});
  net.run(400);
  EXPECT_TRUE(net.received(1).empty());
  EXPECT_TRUE(net.quiescent());  // Crashed robots are exempt.
  bool fired = false;
  for (const obs::Event& e : sink.events()) {
    if (e.type == obs::EventType::FaultInjected) {
      EXPECT_STREQ(e.label, "crash");
      EXPECT_EQ(e.robot, 0);
      EXPECT_EQ(e.t, 5u);
      fired = true;
    }
    // Silence: the crashed robot never acts at or after its crash instant.
    if (e.robot == 0 && e.t >= 5 &&
        (e.type == obs::EventType::Move ||
         e.type == obs::EventType::BitEmitted)) {
      ADD_FAILURE() << "robot 0 active at t=" << e.t;
    }
  }
  EXPECT_TRUE(fired);
}

TEST(FaultInjector, StalledAsyncSenderRecoversAndStillDelivers) {
  // Asynchronous protocols are schedule-oblivious, so a stalled robot is
  // indistinguishable from an unactivated one and transmission resumes
  // when the stall ends. (Synchronous sliced rounds are *not* stall-safe:
  // a frozen speaker reads as signal and corrupts the frame — by design.)
  fault::FaultInjector inj(fault::FaultPlan{.stalls = {{0, 2, 40}}});
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::asynchronous;
  opt.protocol = core::ProtocolKind::asyncn;
  opt.seed = 4;
  core::ChatNetwork net(fuzz::scatter(4, 2), opt);
  net.attach_step_interceptor(&inj);
  const std::vector<std::uint8_t> payload = {0x5a};
  net.send(0, 1, payload);
  ASSERT_TRUE(net.run_until_quiescent(400'000));
  net.run(512);
  ASSERT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.received(1)[0].payload, payload);
}

TEST(FaultInjector, JitterTeleportsExactlyOnce) {
  fault::FaultInjector inj(
      fault::FaultPlan{.jitters = {{1, 3, 1024, -512}}});
  obs::CollectSink sink;
  inj.set_event_sink(&sink);
  core::ChatNetwork net(fuzz::scatter(5, 2), sliced_opts(5));
  net.attach_step_interceptor(&inj);
  net.attach_event_sink(&sink);
  net.send(0, 1, {{0x11}});
  net.run_until_quiescent(100'000);
  std::size_t teleports = 0;
  std::size_t jitter_events = 0;
  for (const obs::Event& e : sink.events()) {
    if (e.type == obs::EventType::Teleport) {
      EXPECT_EQ(e.robot, 1);
      ++teleports;
    }
    if (e.type == obs::EventType::FaultInjected &&
        std::string(e.label) == "jitter") {
      EXPECT_EQ(e.t, 3u);
      ++jitter_events;
    }
  }
  EXPECT_EQ(teleports, 1u);
  EXPECT_EQ(jitter_events, 1u);
}

TEST(FaultInjector, BurstCorruptsDecodeAndCrcDropsTheFrame) {
  core::ChatNetwork net(fuzz::scatter(6, 2), sliced_opts(6));
  fault::FaultPlan plan;
  plan.bursts = {{1, 6, 3}};
  obs::CollectSink sink;
  EXPECT_EQ(fault::arm_bursts(net, plan, &sink), 1u);
  ASSERT_EQ(sink.events().size(), 1u);
  EXPECT_STREQ(sink.events()[0].label, "burst");
  net.send(0, 1, {{0xee, 0xff}});
  net.run_until_quiescent(100'000);
  net.run(4);
  // The receiver misread 3 bits mid-frame: the CRC must reject the frame,
  // and the fault must count as fired (not as an unfired dud).
  EXPECT_TRUE(net.received(1).empty());
  EXPECT_EQ(net.report().unfired_decode_faults, 0u);
}

TEST(FaultInjector, ArmBurstsKeepsOnePerRobot) {
  core::ChatNetwork net(fuzz::scatter(7, 2), sliced_opts(7));
  fault::FaultPlan plan;
  plan.bursts = {{1, 4, 1}, {1, 90, 2}, {0, 8, 1}};
  EXPECT_EQ(fault::arm_bursts(net, plan, nullptr), 2u);
}

// ------------------------------------------------ decode-fault lifecycle --

TEST(DecodeFault, RearmingThrowsAndUnfiredSurfacesInReport) {
  core::ChatNetwork net(fuzz::scatter(8, 2), sliced_opts(8));
  net.inject_decode_fault(1, 100'000);  // Will never fire.
  EXPECT_THROW(net.inject_decode_fault(1, 5), std::logic_error);
  EXPECT_THROW(net.inject_decode_fault(0, 5, 0), std::invalid_argument);
  net.send(0, 1, {{0x01}});
  net.run_until_quiescent(100'000);
  net.run(4);
  EXPECT_EQ(net.received(1).size(), 1u);  // Fault armed far past the frame.
  EXPECT_EQ(net.report().unfired_decode_faults, 1u);
}

// ------------------------------------------------------------- masking --

std::vector<std::vector<std::uint8_t>> voted_payloads(
    fault::RedundantChatNetwork& net, std::size_t n) {
  std::vector<std::vector<std::uint8_t>> out;
  for (std::size_t i = 0; i < n; ++i) {
    for (const fault::VotedDelivery& v : net.voted(i)) {
      out.push_back(v.payload);
    }
  }
  std::sort(out.begin(), out.end());
  return out;
}

// The acceptance property: with group size >= 2, crash-stop of any single
// group member at any instant never changes the voted payloads.
TEST(RedundantGroup, SingleMemberCrashNeverChangesVotedPayloads) {
  const std::size_t n = 3;
  const std::vector<std::uint8_t> payload = {0xde, 0xad, 0xbe};
  for (std::uint64_t seed : {11ULL, 12ULL, 13ULL}) {
    fault::RedundantOptions base;
    base.base = sliced_opts(seed);
    base.group_size = 2;
    fault::RedundantChatNetwork clean(fuzz::scatter(seed, n), base);
    clean.broadcast(0, payload);
    clean.run_until_settled(100'000, 600, 4);
    const auto want = voted_payloads(clean, n);
    ASSERT_EQ(want.size(), n - 1);  // Every receiver got the broadcast.

    for (std::size_t member = 0; member < 2 * n; ++member) {
      for (sim::Time at : {sim::Time{0}, sim::Time{7}, sim::Time{23},
                           sim::Time{61}, sim::Time{200}}) {
        fault::RedundantOptions opt = base;
        opt.plan.crashes = {{member, at}};
        fault::RedundantChatNetwork net(fuzz::scatter(seed, n), opt);
        net.broadcast(0, payload);
        const auto res = net.run_until_settled(100'000, 600, 4);
        EXPECT_EQ(res.timeout_lanes, 0u);
        EXPECT_EQ(voted_payloads(net, n), want)
            << "seed " << seed << " member " << member << " at " << at;
      }
    }
  }
}

TEST(RedundantGroup, AsyncLaneWedgedByCrashSettlesAndVotes) {
  fault::RedundantOptions opt;
  opt.base.synchrony = core::Synchrony::asynchronous;
  opt.base.protocol = core::ProtocolKind::asyncn;
  opt.base.seed = 21;
  opt.group_size = 2;
  // Crash lane 1's receiver mid-run: that lane's sender blocks forever on
  // the Lemma 4.1 ack; the stall window must settle it.
  opt.plan.crashes = {{2 + 1, 400}};
  const std::vector<std::uint8_t> payload = {0x77};
  fault::RedundantChatNetwork net(fuzz::scatter(22, 2), opt);
  net.send(0, 1, payload);
  const auto res = net.run_until_settled(400'000, 512, 512);
  EXPECT_EQ(res.timeout_lanes, 0u);
  ASSERT_EQ(net.voted(1).size(), 1u);
  EXPECT_EQ(net.voted(1)[0].payload, payload);
}

TEST(RedundantGroup, VoteEmitsMaskedDeliveryWithAgreementCount) {
  fault::RedundantOptions opt;
  opt.base = sliced_opts(31);
  opt.group_size = 3;
  const std::vector<std::uint8_t> payload = {0x42, 0x43};
  fault::RedundantChatNetwork net(fuzz::scatter(31, 2), opt);
  obs::CollectSink sink;
  net.set_event_sink(&sink);
  net.send(0, 1, payload);
  net.run_until_settled(100'000, 600, 4);
  ASSERT_EQ(sink.events().size(), 1u);
  const obs::Event& e = sink.events()[0];
  EXPECT_EQ(e.type, obs::EventType::MaskedDelivery);
  EXPECT_EQ(e.robot, 1);
  EXPECT_EQ(e.peer, 0);
  EXPECT_EQ(e.value, 3.0);  // All lanes agreed.
  EXPECT_EQ(e.bit, fault::fnv1a32(payload));
  EXPECT_STREQ(e.label, "unicast");
}

TEST(RedundantGroup, LaneSliceReindexesPhysicalRobots) {
  fault::FaultPlan plan;
  plan.crashes = {{0, 10}, {3, 20}, {5, 30}};
  const fault::FaultPlan l0 = fault::lane_slice(plan, 0, 3);
  const fault::FaultPlan l1 = fault::lane_slice(plan, 1, 3);
  ASSERT_EQ(l0.crashes.size(), 1u);
  EXPECT_EQ(l0.crashes[0], (fault::CrashFault{0, 10}));
  ASSERT_EQ(l1.crashes.size(), 2u);
  EXPECT_EQ(l1.crashes[0], (fault::CrashFault{0, 20}));
  EXPECT_EQ(l1.crashes[1], (fault::CrashFault{2, 30}));
}

// ------------------------------------------------------------ watchdog --

TEST(Watchdog, CrashSilenceTripsOnPostCrashActivity) {
  obs::Watchdog dog{obs::WatchdogOptions{}};
  obs::Event crash;
  crash.type = obs::EventType::FaultInjected;
  crash.t = 10;
  crash.robot = 1;
  crash.label = "crash";
  dog.on_event(crash);
  obs::Event act;
  act.type = obs::EventType::Activation;
  act.t = 9;
  act.robot = 1;
  dog.on_event(act);  // Before the crash: fine.
  EXPECT_TRUE(dog.ok());
  act.t = 10;
  dog.on_event(act);  // At the crash instant: violation.
  ASSERT_FALSE(dog.ok());
  EXPECT_EQ(dog.violations()[0].invariant, "crash_silence");
}

TEST(Watchdog, MaskAgreementTripsOnRevoteAndOnNoAgreement) {
  obs::Watchdog dog{obs::WatchdogOptions{}};
  obs::Event e;
  e.type = obs::EventType::MaskedDelivery;
  e.t = 50;
  e.robot = 1;
  e.peer = 0;
  e.aux = 0;
  e.bit = 0x1234;
  e.value = 2.0;
  e.label = "unicast";
  dog.on_event(e);
  dog.on_event(e);  // Same hash re-vote: fine.
  EXPECT_TRUE(dog.ok());
  e.bit = 0x9999;
  dog.on_event(e);  // Different hash for the same ordinal: violation.
  ASSERT_FALSE(dog.ok());
  EXPECT_EQ(dog.violations()[0].invariant, "mask_agreement");

  obs::Watchdog dog2{obs::WatchdogOptions{}};
  e.bit = 0x1234;
  e.value = 0.0;  // No agreeing lane.
  dog2.on_event(e);
  ASSERT_FALSE(dog2.ok());
  EXPECT_EQ(dog2.violations()[0].invariant, "mask_agreement");
}

// ------------------------------------------------------- retransmission --

struct ReliableRig {
  core::ChatNetwork motion;
  core::WirelessChannel radio;
  ReliableRig(std::uint64_t seed, core::WirelessOptions wopt)
      : motion(fuzz::scatter(seed, 4),
               [] {
                 core::ChatNetworkOptions o;
                 o.synchrony = core::Synchrony::synchronous;
                 o.caps.sense_of_direction = true;
                 return o;
               }()),
        radio(4, wopt) {}
};

TEST(ReliableMessenger, CleanRadioAcksFirstAttempt) {
  ReliableRig rig(41, {});
  fault::ReliableMessenger rel(rig.motion, rig.radio, {});
  const std::uint64_t id = rel.send(0, 1, {{0xaa, 0xbb}});
  ASSERT_TRUE(rel.run(10'000));
  EXPECT_EQ(rel.state(id), fault::MessageState::acked);
  const fault::ReliableStats& s = rel.stats();
  EXPECT_EQ(s.radio_attempts, 1u);
  EXPECT_EQ(s.retransmits, 0u);
  EXPECT_EQ(s.degraded, 0u);
  const auto got = rel.received(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::uint8_t>{0xaa, 0xbb}));
}

TEST(ReliableMessenger, LostAcksRetransmitThenDedup) {
  core::WirelessOptions wopt;
  wopt.seed = 5;
  ReliableRig rig(42, wopt);
  fault::ReliableOptions opt;
  opt.ack_loss_probability = 1.0;  // Delivered, but the sender never knows.
  opt.max_retries = 2;
  fault::ReliableMessenger rel(rig.motion, rig.radio, opt);
  obs::CollectSink sink;
  rel.set_event_sink(&sink);
  const std::uint64_t id = rel.send(0, 1, {{0x10, 0x20}});
  ASSERT_TRUE(rel.run(2'000'000));
  // Budget exhausted without an ack: degraded onto the motion channel.
  EXPECT_EQ(rel.state(id), fault::MessageState::degraded);
  const fault::ReliableStats& s = rel.stats();
  EXPECT_EQ(s.radio_attempts, 3u);  // 1 try + 2 retries.
  EXPECT_EQ(s.retransmits, 2u);
  EXPECT_EQ(s.degraded, 1u);
  // All radio copies landed; the motion copy is a duplicate — exactly one
  // payload survives dedup.
  const auto got = rel.received(1);
  ASSERT_EQ(got.size(), 1u);
  EXPECT_EQ(got[0], (std::vector<std::uint8_t>{0x10, 0x20}));
  EXPECT_GE(rel.stats().duplicates_dropped, 1u);
  std::size_t retries = 0;
  std::size_t backups = 0;
  for (const obs::Event& e : sink.events()) {
    ASSERT_EQ(e.type, obs::EventType::Retransmit);
    if (std::string(e.label) == "retry") ++retries;
    if (std::string(e.label) == "backup") ++backups;
  }
  EXPECT_EQ(retries, 2u);
  EXPECT_EQ(backups, 1u);
}

TEST(ReliableMessenger, DeadRadioDegradesEverythingYetDeliversAll) {
  core::WirelessOptions wopt;
  wopt.loss_probability = 1.0;
  ReliableRig rig(43, wopt);
  fault::ReliableOptions opt;
  opt.max_retries = 1;
  fault::ReliableMessenger rel(rig.motion, rig.radio, opt);
  for (int m = 0; m < 3; ++m) {
    rel.send(static_cast<std::size_t>(m), static_cast<std::size_t>(m) + 1,
             {{static_cast<std::uint8_t>(m)}});
  }
  ASSERT_TRUE(rel.run(4'000'000));
  EXPECT_EQ(rel.stats().degraded, 3u);
  std::size_t received = 0;
  for (std::size_t i = 0; i < 4; ++i) received += rel.received(i).size();
  EXPECT_EQ(received, 3u);
}

// ------------------------------------------------------- fuzz harness --

fuzz::FuzzConfig masked_config() {
  fuzz::FuzzConfig cfg;
  cfg.seed = 71;
  cfg.protocol = core::ProtocolKind::sliced;
  cfg.scheduler = core::SchedulerKind::bernoulli;
  cfg.n = 2;
  cfg.payload = {0x33, 0x44};
  cfg.group_size = 2;
  // Crash lane 1's receiver early: lane 0 stays the clean witness.
  cfg.fault_plan.crashes = {{2 + 1, 8}};
  return cfg;
}

TEST(FuzzMasked, FaultedCasePassesOraclesWithDeterministicDigest) {
  const fuzz::FuzzConfig cfg = masked_config();
  const fuzz::CaseResult a = fuzz::run_case(cfg);
  EXPECT_EQ(a.kind, fuzz::FailureKind::none) << a.detail;
  const fuzz::CaseResult b = fuzz::run_case(cfg);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_NE(a.schedule_digest, 0u);
  EXPECT_EQ(a.instants, b.instants);
}

TEST(FuzzMasked, AllLanesCrashedIsAPayloadMismatch) {
  fuzz::FuzzConfig cfg = masked_config();
  // Crash the sender's copy in *both* lanes: masking cannot save this.
  cfg.fault_plan.crashes = {{0, 4}, {2, 4}};
  const fuzz::CaseResult r = fuzz::run_case(cfg);
  EXPECT_EQ(r.kind, fuzz::FailureKind::payload_mismatch) << r.detail;
}

TEST(FuzzMasked, CanonicalFormOnlyChangesWhenMaskingArmed) {
  fuzz::FuzzConfig cfg = fuzz::sample_config(9);
  cfg.group_size = 1;
  cfg.fault_plan = {};
  const std::string base = fuzz::canonical(cfg);
  EXPECT_EQ(base.find(";group="), std::string::npos);
  cfg.group_size = 2;
  cfg.fault_plan.crashes = {{2, 5}};
  const std::string armed = fuzz::canonical(cfg);
  EXPECT_NE(armed.find(";group=2"), std::string::npos);
  EXPECT_NE(armed.find(";plan=crash:2@5"), std::string::npos);
  EXPECT_NE(fuzz::config_hash(cfg), 0u);
}

TEST(FuzzMasked, ForcedFaultDimensionsAreDeterministic) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL}) {
    fuzz::FuzzConfig a = fuzz::sample_config(seed);
    fuzz::FuzzConfig b = fuzz::sample_config(seed);
    fuzz::force_fault_dimensions(a);
    fuzz::force_fault_dimensions(b);
    EXPECT_GE(a.group_size, 2u);
    EXPECT_EQ(fuzz::canonical(a), fuzz::canonical(b));
    // Lane 0 is always the clean witness.
    for (const auto& f : a.fault_plan.crashes) EXPECT_GE(f.robot, a.n);
    for (const auto& f : a.fault_plan.stalls) EXPECT_GE(f.robot, a.n);
    for (const auto& f : a.fault_plan.jitters) EXPECT_GE(f.robot, a.n);
    for (const auto& f : a.fault_plan.bursts) EXPECT_GE(f.robot, a.n);
  }
}

TEST(FuzzMasked, ShrinkDropsIrrelevantFaultsKeepsFatalOnes) {
  fuzz::FuzzConfig cfg = masked_config();
  // Both sender copies crash (fatal); the stall and jitter are scheduled
  // long after the lanes settle, so they never fire — pure noise the
  // shrinker must strip while keeping the crashes.
  cfg.fault_plan.crashes = {{0, 4}, {2, 4}};
  cfg.fault_plan.stalls = {{2 + 1, 50'000, 16}};
  cfg.fault_plan.jitters = {{2 + 1, 50'000, 64, 64}};
  const fuzz::CaseResult original = fuzz::run_case(cfg);
  ASSERT_EQ(original.kind, fuzz::FailureKind::payload_mismatch);
  const fuzz::ShrinkResult s = fuzz::shrink(cfg, original, 300);
  EXPECT_EQ(s.result.kind, fuzz::FailureKind::payload_mismatch);
  EXPECT_EQ(s.config.fault_plan.crashes.size(), 2u);
  EXPECT_TRUE(s.config.fault_plan.stalls.empty());
  EXPECT_TRUE(s.config.fault_plan.jitters.empty());
  EXPECT_TRUE(s.config.payload.empty());  // Payload stage still ran.
}

TEST(FuzzMasked, ReproRoundTripPreservesMaskingDimensions) {
  fuzz::Repro repro;
  repro.config = masked_config();
  repro.config.fault_plan.bursts = {{3, 9, 2}};
  repro.kind = fuzz::FailureKind::payload_mismatch;
  repro.detail = "masked detail";
  repro.schedule_digest = 0xabcdef12345ULL;
  std::ostringstream out;
  fuzz::write_repro_json(out, repro);
  const std::string path = testing::TempDir() + "repro_masked.json";
  {
    std::ofstream f(path);
    f << out.str();
  }
  std::string error;
  const auto back = fuzz::load_repro(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->config.group_size, 2u);
  EXPECT_EQ(back->config.fault_plan, repro.config.fault_plan);
  EXPECT_EQ(fuzz::canonical(back->config),
            fuzz::canonical(repro.config));
  EXPECT_EQ(back->schedule_digest, repro.schedule_digest);
  std::remove(path.c_str());
}

TEST(FuzzMasked, LegacyReproWithoutMaskingKeysLoadsWithDefaults) {
  fuzz::Repro repro;
  repro.config = fuzz::sample_config(4);
  repro.config.group_size = 1;
  repro.config.fault_plan = {};
  repro.kind = fuzz::FailureKind::timeout;
  std::ostringstream out;
  fuzz::write_repro_json(out, repro);
  // Strip the masking keys to imitate a pre-fault-subsystem file.
  std::string text = out.str();
  const std::size_t cut = text.find("  \"group_size\"");
  ASSERT_NE(cut, std::string::npos);
  text.erase(cut);
  text += "}\n";
  const std::size_t comma = text.rfind(",\n}");
  if (comma != std::string::npos) text.erase(comma, 1);
  const std::string path = testing::TempDir() + "repro_legacy.json";
  {
    std::ofstream f(path);
    f << text;
  }
  std::string error;
  const auto back = fuzz::load_repro(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->config.group_size, 1u);
  EXPECT_TRUE(back->config.fault_plan.empty());
  std::remove(path.c_str());
}

TEST(FuzzMasked, ReproWithGarbagePlanFailsToLoad) {
  fuzz::Repro repro;
  repro.config = masked_config();
  std::ostringstream out;
  fuzz::write_repro_json(out, repro);
  std::string text = out.str();
  const std::size_t at = text.find("crash:");
  ASSERT_NE(at, std::string::npos);
  text.replace(at, 6, "bogus:");
  const std::string path = testing::TempDir() + "repro_garbage.json";
  {
    std::ofstream f(path);
    f << text;
  }
  std::string error;
  EXPECT_FALSE(fuzz::load_repro(path, &error).has_value());
  EXPECT_NE(error.find("fault_plan"), std::string::npos);
  std::remove(path.c_str());
}

}  // namespace
