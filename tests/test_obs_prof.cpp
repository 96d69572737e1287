// obs::prof tests: hierarchical self/total attribution against explicit
// ::operator new traffic, phase registration semantics, stack-overflow and
// unbalanced-exit tolerance, metrics publication — plus the engine-level
// guarantees the profiler exists to pin: zero observability-attributable
// allocations per instant with no sink attached, and job-count-invariant
// PERF artifacts from the perf matrix.
#include <gtest/gtest.h>

#include <cstddef>
#include <sstream>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "obs/alloc_track.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "par/batch_runner.hpp"
#include "perf/perf_matrix.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig::obs::prof {
namespace {

/// Makes `count` heap allocations of `bytes` each that the optimizer
/// cannot elide (operator new is observable, but keep it obvious).
void churn(std::size_t count, std::size_t bytes) {
  for (std::size_t i = 0; i < count; ++i) {
    void* p = ::operator new(bytes);
    ::operator delete(p);
  }
}

const PhaseStats* find(const std::vector<PhaseStats>& stats,
                       const char* name) {
  for (const PhaseStats& s : stats) {
    if (std::string(s.name) == name) return &s;
  }
  return nullptr;
}

TEST(Profiler, RegistersPhasesByContent) {
  Profiler p;
  const std::string a = "engine.step";
  const std::string b = "engine.step";  // Same content, different pointer.
  ASSERT_NE(a.c_str(), b.c_str());
  const PhaseId id1 = p.phase(a.c_str());
  const PhaseId id2 = p.phase(b.c_str());
  EXPECT_EQ(id1, id2);
  EXPECT_EQ(p.phase_count(), 1u);
  EXPECT_NE(p.phase("engine.sched"), id1);
  EXPECT_EQ(p.phase_count(), 2u);
}

TEST(Profiler, PhaseTableFullThrows) {
  Profiler p;
  std::vector<std::string> names;
  for (std::size_t i = 0; i < Profiler::kMaxPhases; ++i) {
    names.push_back("phase_" + std::to_string(i));
  }
  for (const std::string& n : names) p.phase(n.c_str());
  EXPECT_EQ(p.phase_count(), Profiler::kMaxPhases);
  EXPECT_THROW(p.phase("one_too_many"), std::length_error);
  // Re-registering an existing name still works at capacity.
  EXPECT_EQ(p.phase(names[3].c_str()), PhaseId{3});
}

TEST(Profiler, NestedScopesSplitSelfFromTotal) {
  Profiler p;
  const PhaseId outer = p.phase("outer");
  const PhaseId inner = p.phase("inner");
  {
    Scope so(&p, outer);
    churn(2, 64);  // Outer self: 2 allocs.
    {
      Scope si(&p, inner);
      churn(3, 32);  // Inner self: 3 allocs.
    }
    churn(1, 16);  // Outer self: 1 more.
  }
  const auto stats = p.stats();
  const PhaseStats* o = find(stats, "outer");
  const PhaseStats* i = find(stats, "inner");
  ASSERT_NE(o, nullptr);
  ASSERT_NE(i, nullptr);
  EXPECT_EQ(o->calls, 1u);
  EXPECT_EQ(i->calls, 1u);
  // Cycle split holds on every build: self excludes the child.
  EXPECT_LE(o->self_cycles, o->total_cycles);
  if (!alloc::active()) GTEST_SKIP() << "allocation tracking is off";
  EXPECT_EQ(i->total_allocs, 3u);
  EXPECT_EQ(i->self_allocs, 3u);
  EXPECT_EQ(i->total_bytes, 3u * 32u);
  EXPECT_EQ(o->total_allocs, 6u);  // Inclusive of the nested scope.
  EXPECT_EQ(o->self_allocs, 3u);   // Exclusive: 2 before + 1 after.
  EXPECT_EQ(o->total_bytes, 2u * 64u + 3u * 32u + 16u);
  EXPECT_EQ(o->self_bytes, 2u * 64u + 16u);
}

TEST(Profiler, RepeatedCallsAccumulate) {
  Profiler p;
  const PhaseId id = p.phase("loop");
  for (int k = 0; k < 5; ++k) {
    Scope s(&p, id);
    churn(1, 8);
  }
  const auto stats = p.stats();
  ASSERT_EQ(stats.size(), 1u);
  EXPECT_EQ(stats[0].calls, 5u);
  if (alloc::active()) {
    EXPECT_EQ(stats[0].total_allocs, 5u);
    EXPECT_EQ(stats[0].total_bytes, 40u);
  }
}

TEST(Profiler, OverflowingTheStackStaysBalanced) {
  Profiler p;
  const PhaseId id = p.phase("deep");
  constexpr std::size_t kDepth = Profiler::kMaxDepth + 4;
  for (std::size_t i = 0; i < kDepth; ++i) p.enter(id);
  for (std::size_t i = 0; i < kDepth; ++i) p.exit();
  // Only the tracked frames count; the dropped ones exit silently and the
  // stack ends empty (a following scope works normally).
  EXPECT_EQ(p.stats()[0].calls, Profiler::kMaxDepth);
  {
    Scope s(&p, id);
  }
  EXPECT_EQ(p.stats()[0].calls, Profiler::kMaxDepth + 1);
}

TEST(Profiler, UnbalancedExitIsIgnored) {
  Profiler p;
  const PhaseId id = p.phase("x");
  p.exit();  // Empty stack: no-op, no crash.
  {
    Scope s(&p, id);
  }
  p.exit();  // Again after a balanced scope.
  EXPECT_EQ(p.stats()[0].calls, 1u);
}

TEST(Profiler, UnregisteredPhaseIdIsDropped) {
  Profiler p;
  p.enter(PhaseId{7});  // Never registered: dropped, not UB.
  p.exit();
  EXPECT_TRUE(p.stats().empty());
}

TEST(Profiler, NullProfilerScopeIsANoOp) {
  Scope s(nullptr, PhaseId{0});  // Must not crash; nothing to assert.
  SUCCEED();
}

TEST(Profiler, ResetClearsAggregatesKeepsRegistrations) {
  Profiler p;
  const PhaseId id = p.phase("x");
  {
    Scope s(&p, id);
    churn(1, 8);
  }
  p.reset();
  EXPECT_EQ(p.phase_count(), 1u);
  EXPECT_EQ(p.stats()[0].calls, 0u);
  EXPECT_EQ(p.stats()[0].total_cycles, 0u);
  EXPECT_EQ(p.phase("x"), id);  // Registration survived.
}

TEST(Profiler, PublishWritesCountersUnderProfPrefix) {
  Profiler p;
  const PhaseId id = p.phase("engine.step");
  {
    Scope s(&p, id);
    churn(2, 8);
  }
  MetricsRegistry registry;
  p.publish(registry);
  EXPECT_EQ(registry.counter("prof.engine.step.calls").value(), 1u);
  if (alloc::active()) {
    EXPECT_EQ(registry.counter("prof.engine.step.total_allocs").value(), 2u);
    EXPECT_EQ(registry.counter("prof.engine.step.total_bytes").value(), 16u);
  }
  // Cycle/ns counters exist (informational keys by the convention).
  EXPECT_GE(registry.counter("prof.engine.step.total_cycles").value(),
            registry.counter("prof.engine.step.self_cycles").value());
  std::ostringstream os;
  registry.write_json(os);
  EXPECT_NE(os.str().find("prof.engine.step.total_ns"), std::string::npos);
}

// ------------------------------------------------- engine integration --

/// With no event sink attached the observability layer must be free: the
/// engine's emit phase (trace update + sink dispatch) makes zero heap
/// allocations per instant in steady state.
TEST(ProfilerEngine, EmitPhaseAllocatesNothingWithoutSink) {
  if (!alloc::active()) GTEST_SKIP() << "allocation tracking is off";
  core::ChatNetworkOptions opt;
  opt.seed = 21;
  std::vector<geom::Vec2> positions{{0.0, 0.0}, {6.0, 0.0}};
  core::ChatNetwork net(std::move(positions), opt);
  Profiler prof;
  net.attach_profiler(&prof);
  const std::vector<std::uint8_t> payload{0x5A, 0xC3};
  net.send(0, 1, payload);
  // Warm up: first instants grow the trace's internal buffers once.
  net.run(32);
  prof.reset();
  net.run(256);
  const auto stats = prof.stats();
  const PhaseStats* emit = find(stats, "engine.emit");
  ASSERT_NE(emit, nullptr);
  EXPECT_EQ(emit->calls, 256u);
  EXPECT_EQ(emit->total_allocs, 0u);
  EXPECT_EQ(emit->total_bytes, 0u);
  // The observe phase reuses engine-owned scratch: also allocation-free in
  // steady state.
  const PhaseStats* observe = find(stats, "engine.observe");
  ASSERT_NE(observe, nullptr);
  EXPECT_EQ(observe->total_allocs, 0u);

  // A sliced relative-naming swarm once its messages are delivered: the
  // robots' geometry and decode memo are built, and quiet instants
  // allocate nothing in the drivers either.
  core::ChatNetworkOptions sliced;
  sliced.synchrony = core::Synchrony::synchronous;
  sliced.protocol = core::ProtocolKind::sliced;
  sliced.seed = 22;
  sim::Rng rng(22);
  core::ChatNetwork swarm(sim::jittered_grid(rng, 64), sliced);
  swarm.send(3, 40, payload);
  swarm.send(17, 2, payload);
  swarm.broadcast(63, payload);
  ASSERT_TRUE(swarm.run_until_quiescent(4096));
  Profiler quiet;
  swarm.attach_profiler(&quiet);
  swarm.run(64);
  const auto quiet_stats = quiet.stats();
  const PhaseStats* compute = find(quiet_stats, "engine.compute");
  ASSERT_NE(compute, nullptr);
  EXPECT_EQ(compute->calls, 64u * 64u);  // Per robot activation.
  EXPECT_EQ(compute->total_allocs, 0u);
}

// ---------------------------------------------------- perf determinism --

TEST(PerfMatrix, RunScenarioIsRepeatable) {
  const perf::Scenario s = perf::fast_matrix()[0];  // sync2_n2.
  const perf::ScenarioResult a = perf::run_scenario(s);
  const perf::ScenarioResult b = perf::run_scenario(s);
  EXPECT_TRUE(a.quiescent);
  EXPECT_EQ(perf::render_perf_json(a, /*include_timing=*/false),
            perf::render_perf_json(b, /*include_timing=*/false));
}

TEST(PerfMatrix, PerfJsonIsJobCountInvariant) {
  // The regression gate's core promise: the deterministic PERF artifact is
  // byte-identical whether scenarios run sequentially or on 8 workers.
  const std::vector<perf::Scenario> matrix = perf::fast_matrix();
  const auto run_all = [&](std::size_t jobs) {
    par::BatchRunner runner(par::BatchOptions{.jobs = jobs});
    const auto results = runner.map(matrix.size(), [&](std::size_t i) {
      return perf::run_scenario(matrix[i]);
    });
    std::vector<std::string> rendered;
    for (const perf::ScenarioResult& r : results) {
      rendered.push_back(perf::render_perf_json(r, /*include_timing=*/false));
    }
    return rendered;
  };
  const std::vector<std::string> seq = run_all(1);
  const std::vector<std::string> par8 = run_all(8);
  ASSERT_EQ(seq.size(), par8.size());
  for (std::size_t i = 0; i < seq.size(); ++i) {
    EXPECT_EQ(seq[i], par8[i]) << matrix[i].name;
  }
}

}  // namespace
}  // namespace stig::obs::prof
