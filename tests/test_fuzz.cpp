// The fuzz harness itself: deterministic sampling, oracle execution,
// shrinking, repro round-trips, and schedule record/replay identity.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>

#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "sim/schedule_log.hpp"
#include "sim/scheduler.hpp"

namespace {

using namespace stig;

TEST(FuzzConfig, SamplingIsDeterministic) {
  const fuzz::FuzzConfig a = fuzz::sample_config(12345);
  const fuzz::FuzzConfig b = fuzz::sample_config(12345);
  EXPECT_EQ(fuzz::canonical(a), fuzz::canonical(b));
  EXPECT_EQ(fuzz::config_hash(a), fuzz::config_hash(b));
  const fuzz::FuzzConfig c = fuzz::sample_config(12346);
  EXPECT_NE(fuzz::canonical(a), fuzz::canonical(c));
}

TEST(FuzzConfig, ScatterMatchesStigsimRecipe) {
  const auto pts = fuzz::scatter(9, 5);
  ASSERT_EQ(pts.size(), 5u);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_LE(std::abs(pts[i].x), 30.0);
    EXPECT_LE(std::abs(pts[i].y), 30.0);
    for (std::size_t j = i + 1; j < pts.size(); ++j) {
      EXPECT_GE(geom::dist(pts[i], pts[j]), 3.0);
    }
  }
  // Same seed, same geometry — the repro file never stores positions.
  const auto again = fuzz::scatter(9, 5);
  for (std::size_t i = 0; i < pts.size(); ++i) {
    EXPECT_EQ(pts[i].x, again[i].x);
    EXPECT_EQ(pts[i].y, again[i].y);
  }
}

TEST(FuzzRunCase, DeterministicKindAndScheduleDigest) {
  const fuzz::FuzzConfig cfg = fuzz::sample_config(3);
  const fuzz::CaseResult a = fuzz::run_case(cfg);
  const fuzz::CaseResult b = fuzz::run_case(cfg);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_EQ(a.schedule_instants, b.schedule_instants);
}

TEST(FuzzRunCase, CorpusSeedsPassAllOracles) {
  for (std::uint64_t seed : {1ULL, 2ULL, 3ULL, 4ULL, 5ULL}) {
    const fuzz::FuzzConfig cfg = fuzz::sample_config(seed);
    const fuzz::CaseResult r = fuzz::run_case(cfg);
    EXPECT_EQ(r.kind, fuzz::FailureKind::none)
        << "seed " << seed << ": " << fuzz::failure_kind_name(r.kind)
        << " — " << r.detail;
  }
}

TEST(FuzzShrink, InjectedFramingFaultShrinksToTinyRepro) {
  // Arm the deliberate bug the acceptance pipeline uses: the receiver
  // misreads its 10th decoded bit. The CRC must reject the frame and the
  // harness must find, then shrink, the failure.
  fuzz::FuzzConfig cfg = fuzz::sample_config(42);
  cfg.payload = {0xde, 0xad, 0xbe, 0xef, 0x01, 0x02, 0x03, 0x04};
  cfg.max_instants = 0;  // Recompute the budget for the bigger payload.
  cfg.max_instants = fuzz::instant_budget(cfg);
  cfg.fault = fuzz::FaultSpec{1, 10};
  const fuzz::CaseResult original = fuzz::run_case(cfg);
  ASSERT_NE(original.kind, fuzz::FailureKind::none);

  const fuzz::ShrinkResult s = fuzz::shrink(cfg, original, 200);
  EXPECT_EQ(s.result.kind, original.kind);
  EXPECT_LE(s.config.payload.size(), 2u);
  EXPECT_EQ(s.config.n, 2u);
  // The minimal config still fails the same way when re-run from scratch.
  const fuzz::CaseResult again = fuzz::run_case(s.config);
  EXPECT_EQ(again.kind, original.kind);
  EXPECT_EQ(again.schedule_digest, s.result.schedule_digest);
}

TEST(FuzzRepro, JsonRoundTripPreservesEveryField) {
  fuzz::Repro r;
  r.config = fuzz::sample_config(77);
  r.config.payload = {0x00, 0xff, 0x41};
  r.config.fault = fuzz::FaultSpec{1, 23};
  r.kind = fuzz::FailureKind::watchdog_violation;
  r.detail = "asyncn: \"framing\" violated\n at instant 7";
  r.schedule_digest = 0xdeadbeefcafef00dULL;
  r.schedule_instants = 321;

  const std::string path = testing::TempDir() + "fuzz_repro_rt.json";
  {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open());
    fuzz::write_repro_json(out, r);
  }
  std::string error;
  const auto back = fuzz::load_repro(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->kind, r.kind);
  EXPECT_EQ(back->detail, r.detail);
  EXPECT_EQ(back->schedule_digest, r.schedule_digest);
  EXPECT_EQ(back->schedule_instants, r.schedule_instants);
  EXPECT_EQ(fuzz::canonical(back->config), fuzz::canonical(r.config));
  ASSERT_TRUE(back->config.fault.has_value());
  EXPECT_EQ(back->config.fault->robot, 1u);
  EXPECT_EQ(back->config.fault->nth_bit, 23u);
  std::remove(path.c_str());
}

TEST(FuzzRepro, LoadRejectsMalformedFiles) {
  std::string error;
  EXPECT_FALSE(fuzz::load_repro("/nonexistent/repro.json", &error));
  const std::string path = testing::TempDir() + "fuzz_repro_bad.json";
  {
    std::ofstream out(path);
    out << "{\"kind\": \"timeout\", \"n\": 2}\n";  // No seed/protocol.
  }
  EXPECT_FALSE(fuzz::load_repro(path, &error));
  EXPECT_NE(error.find("missing"), std::string::npos) << error;
  std::remove(path.c_str());
}

TEST(FuzzSchedule, RecordThenReplayIsBitIdentical) {
  sim::ScheduleLog recorded;
  {
    sim::RecordingScheduler rec(
        std::make_unique<sim::BernoulliScheduler>(0.4, 11, 64), &recorded);
    for (sim::Time t = 0; t < 500; ++t) (void)rec.activate(t, 4);
  }
  ASSERT_EQ(recorded.instants(), 500u);

  sim::ScheduleLog replayed;
  {
    sim::RecordingScheduler rec(
        std::make_unique<sim::ReplayScheduler>(&recorded), &replayed);
    for (sim::Time t = 0; t < 500; ++t) (void)rec.activate(t, 4);
  }
  EXPECT_EQ(recorded.digest(), replayed.digest());
  EXPECT_EQ(recorded, replayed);

  // Past the end of the log the replay falls back to all-active.
  sim::ReplayScheduler tail(&recorded);
  for (sim::Time t = 0; t < 500; ++t) (void)tail.activate(t, 4);
  const sim::ActivationSet past = tail.activate(500, 4);
  EXPECT_EQ(past, sim::ActivationSet(4, true));
}

TEST(FuzzSchedule, ChatNetworkHonorsRecordAndReplayHooks) {
  const auto pts = fuzz::scatter(21, 2);
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::asynchronous;
  opt.scheduler = core::SchedulerKind::bernoulli;
  opt.seed = 21;
  const std::vector<std::uint8_t> payload{0x68, 0x69};

  sim::ScheduleLog first;
  opt.record_schedule = &first;
  core::ChatNetwork a(pts, opt);
  a.send(0, 1, payload);
  ASSERT_TRUE(a.run_until_quiescent(200'000));
  a.run(512);

  // Replaying the recorded schedule reproduces it exactly (and the same
  // delivery), even though the replay run never samples the scheduler.
  sim::ScheduleLog second;
  opt.record_schedule = &second;
  opt.replay_schedule = &first;
  core::ChatNetwork b(pts, opt);
  b.send(0, 1, payload);
  ASSERT_TRUE(b.run_until_quiescent(200'000));
  b.run(512);
  ASSERT_EQ(first.instants(), second.instants());
  EXPECT_EQ(first.digest(), second.digest());
  ASSERT_EQ(b.received(1).size(), 1u);
  EXPECT_EQ(b.received(1)[0].payload, payload);
}

TEST(FuzzNames, FailureKindNamesRoundTrip) {
  for (fuzz::FailureKind k :
       {fuzz::FailureKind::payload_mismatch,
        fuzz::FailureKind::differential_mismatch,
        fuzz::FailureKind::watchdog_violation, fuzz::FailureKind::timeout,
        fuzz::FailureKind::crash}) {
    EXPECT_EQ(fuzz::failure_kind_from_name(fuzz::failure_kind_name(k)), k);
  }
  EXPECT_EQ(fuzz::failure_kind_from_name("nonsense"),
            fuzz::FailureKind::none);
}

}  // namespace
