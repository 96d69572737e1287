// Self-stabilization tests: the transient-corruption fault class end to
// end. The property the suite pins (ISSUE: stabilization): for every
// protocol and every corruption target, a single transient corruption of a
// live state machine at any instant reconverges within the budget, and the
// post-recovery transcript equals the fault-free run's. Plus the
// reconverged watchdog invariant, the corrupt:* FaultPlan grammar
// (round-trip, duplicates, malformed), legacy repro forward-compat, and
// replay determinism of corrupted cases.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "fault/fault_plan.hpp"
#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzzer.hpp"
#include "fuzz/repro.hpp"
#include "fuzz/shrink.hpp"
#include "obs/event.hpp"
#include "obs/watchdog.hpp"

namespace stig {
namespace {

using fault::CorruptFault;
using fault::CorruptTarget;
using fault::FaultPlan;

fuzz::FuzzConfig corrupted_config(core::ProtocolKind protocol, std::size_t n,
                                  const CorruptFault& corrupt,
                                  std::uint64_t seed) {
  fuzz::FuzzConfig cfg;
  cfg.seed = seed;
  cfg.protocol = protocol;
  cfg.n = n;
  cfg.payload = {0x42, static_cast<std::uint8_t>(seed)};
  cfg.fault_plan.corrupts = {corrupt};
  return cfg;
}

// The tentpole property, pinned: every protocol x every corruption target,
// single transient corruption early in the transfer. The oracle inside
// run_case (run_case_corrupted) demands reconvergence within the budget
// and a probe-phase transcript identical to the fault-free twin's — any
// FailureKind other than none is a stabilization bug.
TEST(Stabilization, EveryProtocolEveryTargetReconverges) {
  struct Cell {
    core::ProtocolKind kind;
    std::size_t n;
  };
  const Cell cells[] = {
      {core::ProtocolKind::sync2, 2},   {core::ProtocolKind::sliced, 4},
      {core::ProtocolKind::ksegment, 4}, {core::ProtocolKind::async2, 2},
      {core::ProtocolKind::asyncn, 3},
  };
  for (const Cell& cell : cells) {
    for (std::size_t target = 0; target < fault::kCorruptTargetCount;
         ++target) {
      CorruptFault c;
      c.robot = static_cast<sim::RobotIndex>(target % cell.n);
      c.at = 3 + static_cast<sim::Time>(2 * target);
      c.target = static_cast<CorruptTarget>(target);
      const fuzz::FuzzConfig cfg = corrupted_config(
          cell.kind, cell.n, c, 100 + target);
      const fuzz::CaseResult r = fuzz::run_case(cfg);
      EXPECT_EQ(r.kind, fuzz::FailureKind::none)
          << core::protocol_kind_name(cell.kind) << " x "
          << fault::corrupt_target_name(c.target) << ": " << r.detail;
    }
  }
}

// "At any instant": sweep the corruption across the whole transfer
// (including instants past quiescence, where it lands on an idle swarm
// and must still be harmless).
TEST(Stabilization, CorruptionAtAnyInstantIsSurvived) {
  for (const sim::Time at : {1u, 4u, 9u, 17u, 33u, 65u, 129u}) {
    CorruptFault c;
    c.robot = static_cast<sim::RobotIndex>(at % 2);
    c.at = at;
    c.target = static_cast<CorruptTarget>(at % fault::kCorruptTargetCount);
    const fuzz::FuzzConfig cfg =
        corrupted_config(core::ProtocolKind::sync2, 2, c, 500 + at);
    const fuzz::CaseResult r = fuzz::run_case(cfg);
    EXPECT_EQ(r.kind, fuzz::FailureKind::none)
        << "corruption at t=" << at << ": " << r.detail;
  }
}

// Corrupted cases replay bit-for-bit: same config, same schedule digest —
// the contract `stigsim --replay` relies on.
TEST(Stabilization, CorruptedCaseReplaysBitForBit) {
  CorruptFault c{1, 5, CorruptTarget::cursor};
  const fuzz::FuzzConfig cfg =
      corrupted_config(core::ProtocolKind::sliced, 4, c, 77);
  const fuzz::CaseResult a = fuzz::run_case(cfg);
  const fuzz::CaseResult b = fuzz::run_case(cfg);
  EXPECT_EQ(a.kind, b.kind);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  EXPECT_NE(a.schedule_digest, 0u);
}

// The convergence/silence metrics surface through obs::RunReport — and
// stay zero on fault-free runs so pre-existing report consumers see
// nothing new.
TEST(Stabilization, ReportCarriesConvergenceAndSilence) {
  const auto pts = fuzz::scatter(9, 2);
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  opt.protocol = core::ProtocolKind::sync2;
  opt.seed = 9;
  core::ChatNetwork net(pts, opt);
  net.schedule_corruption(0, 4, proto::CorruptKind::cursor);
  const std::vector<std::uint8_t> payload = {0xAA, 0xBB};
  net.send(0, 1, payload);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(8);
  const obs::RunReport r = net.report();
  EXPECT_EQ(r.corruptions_applied, 1u);
  EXPECT_TRUE(r.reconverged);
  EXPECT_GT(r.convergence_instants, 0u);
  EXPECT_GT(r.silence_rounds, 0u);

  core::ChatNetwork clean(pts, opt);
  clean.send(0, 1, payload);
  ASSERT_TRUE(clean.run_until_quiescent(100'000));
  clean.run(8);
  const obs::RunReport cr = clean.report();
  EXPECT_EQ(cr.corruptions_applied, 0u);
  EXPECT_FALSE(cr.reconverged);
  EXPECT_EQ(cr.convergence_instants, 0u);
  EXPECT_EQ(cr.silence_rounds, 0u);

  // The JSON rendering carries the new keys.
  std::ostringstream os;
  r.write_json(os);
  EXPECT_NE(os.str().find("\"corruptions_applied\": 1"), std::string::npos);
  EXPECT_NE(os.str().find("\"reconverged\": true"), std::string::npos);
}

obs::Event fault_event(std::uint64_t t, const char* label) {
  obs::Event e;
  e.type = obs::EventType::FaultInjected;
  e.t = t;
  e.robot = 0;
  e.label = label;
  return e;
}

obs::Event delivery_event(std::uint64_t t) {
  obs::Event e;
  e.type = obs::EventType::FrameDelivered;
  e.t = t;
  e.robot = 1;
  e.peer = 0;
  return e;
}

TEST(WatchdogReconverged, LateDeliveryViolates) {
  obs::WatchdogOptions opt;
  opt.reconverge_budget = 10;
  obs::Watchdog wd(opt);
  wd.on_event(fault_event(5, "corrupt_cursor"));
  wd.on_event(delivery_event(20));
  ASSERT_EQ(wd.violations().size(), 1u);
  EXPECT_EQ(wd.violations()[0].invariant, std::string("reconverged"));
}

TEST(WatchdogReconverged, TimelyDeliveryClears) {
  obs::WatchdogOptions opt;
  opt.reconverge_budget = 10;
  obs::Watchdog wd(opt);
  wd.on_event(fault_event(5, "corrupt_phase"));
  wd.on_event(delivery_event(14));
  EXPECT_TRUE(wd.ok());
  wd.finalize(40);  // Cleared: end-of-run check has nothing pending.
  EXPECT_TRUE(wd.ok());
}

TEST(WatchdogReconverged, FinalizeViolatesWhenStillPending) {
  obs::WatchdogOptions opt;
  opt.reconverge_budget = 10;
  obs::Watchdog wd(opt);
  wd.on_event(fault_event(5, "corrupt_parser"));
  wd.finalize(50);
  ASSERT_EQ(wd.violations().size(), 1u);
  EXPECT_EQ(wd.violations()[0].invariant, std::string("reconverged"));
}

TEST(WatchdogReconverged, ShortRunIsInconclusiveNotViolating) {
  obs::WatchdogOptions opt;
  opt.reconverge_budget = 10;
  obs::Watchdog wd(opt);
  wd.on_event(fault_event(5, "corrupt_naming"));
  wd.finalize(12);  // Run ended before the budget elapsed: no verdict.
  EXPECT_TRUE(wd.ok());
}

TEST(WatchdogReconverged, InconclusiveRunsAreCountedAndReported) {
  obs::WatchdogOptions opt;
  opt.reconverge_budget = 10;
  obs::Watchdog clean(opt);
  clean.finalize(100);
  std::ostringstream quiet;
  clean.report(quiet);
  EXPECT_EQ(clean.reconverge_inconclusive(), 0u);
  EXPECT_EQ(quiet.str().find("inconclusive"), std::string::npos);

  obs::Watchdog wd(opt);
  wd.on_event(fault_event(5, "corrupt_naming"));
  wd.finalize(12);
  wd.finalize(12);  // Idempotent: the corruption is counted once.
  EXPECT_TRUE(wd.ok());
  EXPECT_FALSE(wd.reconverge_pending());
  EXPECT_EQ(wd.reconverge_inconclusive(), 1u);
  std::ostringstream out;
  wd.report(out);
  EXPECT_NE(out.str().find("all invariants held"), std::string::npos);
  EXPECT_NE(out.str().find("1 reconvergence check(s) inconclusive"),
            std::string::npos)
      << out.str();

  // A timely delivery or a decided violation is not inconclusive.
  obs::Watchdog late(opt);
  late.on_event(fault_event(5, "corrupt_parser"));
  late.finalize(50);
  EXPECT_EQ(late.reconverge_inconclusive(), 0u);
  EXPECT_FALSE(late.ok());
}

TEST(WatchdogReconverged, ZeroBudgetDisablesTheInvariant) {
  obs::Watchdog wd(obs::WatchdogOptions{});
  wd.on_event(fault_event(5, "corrupt_cursor"));
  wd.finalize(10'000);
  EXPECT_TRUE(wd.ok());
}

TEST(WatchdogReconverged, NonCorruptFaultLabelsDoNotArm) {
  obs::WatchdogOptions opt;
  opt.reconverge_budget = 10;
  obs::Watchdog wd(opt);
  wd.on_event(fault_event(5, "burst"));
  wd.finalize(10'000);
  EXPECT_TRUE(wd.ok());
}

TEST(FaultPlanCorrupt, FormatParseRoundTrip) {
  FaultPlan plan;
  plan.corrupts = {{0, 9, CorruptTarget::phase},
                   {2, 40, CorruptTarget::naming}};
  fault::normalize(plan);
  const std::string text = fault::format_fault_plan(plan);
  EXPECT_NE(text.find("corrupt:0@9:phase"), std::string::npos);
  EXPECT_NE(text.find("corrupt:2@40:naming"), std::string::npos);
  const auto back = fault::parse_fault_plan(text);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, plan);
}

TEST(FaultPlanCorrupt, MixedPlanRoundTripsThroughNormalize) {
  FaultPlan plan;
  plan.crashes = {{1, 120}};
  plan.bursts = {{1, 10, 4}};
  plan.corrupts = {{3, 7, CorruptTarget::parser},
                   {0, 3, CorruptTarget::cursor}};
  fault::normalize(plan);
  const auto back = fault::parse_fault_plan(fault::format_fault_plan(plan));
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(*back, plan);
}

TEST(FaultPlanCorrupt, DuplicateCorruptSpecRejected) {
  EXPECT_FALSE(
      fault::parse_fault_plan("corrupt:0@5:phase;corrupt:0@5:phase")
          .has_value());
}

TEST(FaultPlanCorrupt, MalformedCorruptSpecsRejected) {
  for (const char* bad :
       {"corrupt:0@5:bogus", "corrupt:@5:phase", "corrupt:0@:naming",
        "corrupt:0@5", "corrupt:0@5:", "corrupt:0x5:phase",
        "corrupt:-1@5:phase", "corrupt:0@5:phase extra"}) {
    EXPECT_FALSE(fault::parse_fault_plan(bad).has_value()) << bad;
  }
}

TEST(FaultPlanCorrupt, SampledPlansWithCorruptsRoundTrip) {
  fault::FaultPlanShape shape;
  shape.robots = 4;
  shape.horizon = 500;
  shape.max_corrupts = 2;
  for (std::uint64_t seed = 1; seed <= 32; ++seed) {
    const FaultPlan plan = fault::sample_fault_plan(seed, shape);
    const auto back =
        fault::parse_fault_plan(fault::format_fault_plan(plan));
    ASSERT_TRUE(back.has_value()) << "seed " << seed;
    EXPECT_EQ(*back, plan) << "seed " << seed;
  }
}

// A repro captured before the corruption dimension existed carries a
// fault_plan string with no corrupt:* item (or none at all): it must load
// with a default-empty corruption set and replay bit-for-bit.
TEST(StabilizationRepro, LegacyReproWithoutCorruptSpecsLoadsAndReplays) {
  fuzz::Repro repro;
  repro.config = fuzz::sample_config(4);
  repro.config.group_size = 2;
  repro.config.fault_plan = {};
  repro.config.fault_plan.crashes = {{2, 50}};
  repro.kind = fuzz::FailureKind::timeout;
  std::ostringstream out;
  fuzz::write_repro_json(out, repro);
  // A pre-corruption writer could never have emitted a corrupt:* item;
  // the string above already has none, so the file is byte-compatible.
  ASSERT_EQ(out.str().find("corrupt:"), std::string::npos);
  const std::string path = testing::TempDir() + "repro_precorrupt.json";
  {
    std::ofstream f(path);
    f << out.str();
  }
  std::string error;
  const auto back = fuzz::load_repro(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_TRUE(back->config.fault_plan.corrupts.empty());
  EXPECT_EQ(back->config.fault_plan.crashes, repro.config.fault_plan.crashes);
  const fuzz::CaseResult a = fuzz::run_case(back->config);
  const fuzz::CaseResult b = fuzz::run_case(repro.config);
  EXPECT_EQ(a.schedule_digest, b.schedule_digest);
  std::remove(path.c_str());
}

TEST(StabilizationRepro, CorruptedReproRoundTripsTheCorruptSpec) {
  fuzz::Repro repro;
  repro.config = corrupted_config(core::ProtocolKind::async2, 2,
                                  {1, 9, CorruptTarget::parser}, 11);
  repro.kind = fuzz::FailureKind::stabilization_mismatch;
  repro.detail = "probe transcript diverged";
  std::ostringstream out;
  fuzz::write_repro_json(out, repro);
  const std::string path = testing::TempDir() + "repro_corrupt.json";
  {
    std::ofstream f(path);
    f << out.str();
  }
  std::string error;
  const auto back = fuzz::load_repro(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->config.fault_plan, repro.config.fault_plan);
  EXPECT_EQ(back->kind, fuzz::FailureKind::stabilization_mismatch);
  EXPECT_EQ(fuzz::canonical(back->config), fuzz::canonical(repro.config));
  std::remove(path.c_str());
}

// The shrinker strips a corruption that is not needed to reproduce — a
// case that fails for an unrelated reason must shrink to a corrupt-free
// config (and the corrupt-at halving keeps shrunk corruptions early).
TEST(StabilizationRepro, ShrinkDropsIrrelevantCorruption) {
  fuzz::FuzzConfig cfg = corrupted_config(core::ProtocolKind::sync2, 2,
                                          {0, 4, CorruptTarget::cursor}, 21);
  // Sabotage the budget so the case times out regardless of corruption.
  cfg.max_instants = 2;
  const fuzz::CaseResult original = fuzz::run_case(cfg);
  ASSERT_EQ(original.kind, fuzz::FailureKind::timeout);
  const fuzz::ShrinkResult s = fuzz::shrink(cfg, original, 200);
  EXPECT_EQ(s.result.kind, fuzz::FailureKind::timeout);
  EXPECT_TRUE(s.config.fault_plan.corrupts.empty());
}

}  // namespace
}  // namespace stig
