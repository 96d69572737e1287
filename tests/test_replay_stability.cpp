// Replay stability: fuzz-case digests are part of the repo's reproduction
// contract — a failure report names (seed, digest), and replaying the seed
// must reproduce the digest bit-for-bit, across refactors. These digests
// were captured on the quadratic-era engine (per-robot configuration
// copies, all-bisector Voronoi, per-robot rank tables); the epoch-ring
// engine and grid-based geometry must not move a single bit. If a change
// legitimately alters scheduling semantics, recapture with the procedure in
// DESIGN.md and update the table in the same commit.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <exception>
#include <iterator>
#include <set>

#include "core/chat_network.hpp"
#include "fault/injector.hpp"
#include "fault/redundant_group.hpp"
#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzzer.hpp"
#include "obs/sink.hpp"
#include "par/seed.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig::fuzz {
namespace {

struct PinnedCase {
  std::uint64_t seed;
  std::uint64_t digest;
  std::uint64_t instants;
  int kind;  // FailureKind as int; 0 == none.
};

constexpr PinnedCase kPinned[] = {
    // Seed 1 draws the corruption dimension (recaptured when the
    // arbitrary-state mode landed: the case routes through the
    // stabilization oracle, whose probe phase lengthens the schedule).
    {1ULL, 0x4d9119541f4d8885ULL, 160ULL, 0},
    {2ULL, 0x5d8939c2cac899b7ULL, 1839ULL, 0},
    {3ULL, 0xcaecb24d0a2f8d57ULL, 879ULL, 0},
    {4ULL, 0x15204d518b851359ULL, 1519ULL, 0},
    {5ULL, 0x686531fcdfb5ca79ULL, 116ULL, 0},
    {6ULL, 0x2602519dc5072d24ULL, 655ULL, 0},
    {7ULL, 0x5c46663ae466b23cULL, 70ULL, 0},
    {8ULL, 0x62fe6f1c46f67a0eULL, 38ULL, 0},
    {9ULL, 0x188d683fe2115f49ULL, 132ULL, 0},
    {10ULL, 0x31563bf7f8facafcULL, 134ULL, 0},
};

TEST(ReplayStability, PinnedSeedsReproduceBitForBit) {
  for (const PinnedCase& pin : kPinned) {
    const FuzzConfig cfg = sample_config(pin.seed);
    const CaseResult r = run_case(cfg);
    EXPECT_EQ(r.schedule_digest, pin.digest)
        << "seed " << pin.seed << ": schedule digest drifted — replay "
        << "repros captured before this change are no longer bit-exact";
    EXPECT_EQ(static_cast<std::uint64_t>(r.schedule_instants), pin.instants)
        << "seed " << pin.seed;
    EXPECT_EQ(static_cast<int>(r.kind), pin.kind)
        << "seed " << pin.seed << ": verdict changed (" << r.detail << ")";
  }
}

TEST(ReplayStability, ReplayIsDeterministicWithinProcess) {
  // The weaker, refactor-independent property: two runs of the same seed in
  // one process agree exactly (catches hidden global state / iteration-order
  // dependence even when a pinned digest is deliberately recaptured).
  for (const std::uint64_t seed : {3ULL, 7ULL, 42ULL, 123456789ULL}) {
    const FuzzConfig cfg = sample_config(seed);
    const CaseResult a = run_case(cfg);
    const CaseResult b = run_case(cfg);
    EXPECT_EQ(a.schedule_digest, b.schedule_digest) << "seed " << seed;
    EXPECT_EQ(a.schedule_instants, b.schedule_instants) << "seed " << seed;
    EXPECT_EQ(a.kind, b.kind) << "seed " << seed;
    EXPECT_EQ(a.detail, b.detail) << "seed " << seed;
  }
}

/// FNV-1a, 64-bit.
class Fnv {
 public:
  void mix(std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h_ ^= (v >> (8 * byte)) & 0xffU;
      h_ *= 0x100000001b3ULL;
    }
  }
  void mix(const char* text) {
    if (text == nullptr) {
      mix(0x6e756c6cULL);
      return;
    }
    for (; *text != '\0'; ++text) {
      h_ ^= static_cast<unsigned char>(*text);
      h_ *= 0x100000001b3ULL;
    }
    mix(0x2fULL);  // Terminator: "ab"+"c" and "a"+"bc" differ.
  }
  [[nodiscard]] std::uint64_t value() const noexcept { return h_; }

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// Two digests of one event stream.
///
/// Motion: every Activation, Move and StepComplete event — its type, t,
/// robot, and the bit patterns of x, y and value. No scheduler reads a
/// position, so the schedule digests above cannot see an ulp move in a
/// sigma-clamp, a move distance or a min separation; this digest can.
///
/// Decode: every BitEmitted, BitDecoded, FrameDelivered, AckObserved and
/// PhaseEnter event — its type, t, robot, peer, aux, bit and label text.
/// The other digests pin what robots do, not what they read: a decoder
/// that skipped a classification it needed would leave them unmoved and
/// change this one.
class RunDigest final : public obs::EventSink {
 public:
  void on_event(const obs::Event& e) override {
    switch (e.type) {
      case obs::EventType::Activation:
      case obs::EventType::Move:
      case obs::EventType::StepComplete:
        motion_.mix(static_cast<std::uint64_t>(e.type));
        motion_.mix(e.t);
        motion_.mix(static_cast<std::uint64_t>(e.robot));
        motion_.mix(std::bit_cast<std::uint64_t>(e.x));
        motion_.mix(std::bit_cast<std::uint64_t>(e.y));
        motion_.mix(std::bit_cast<std::uint64_t>(e.value));
        ++motion_events_;
        return;
      case obs::EventType::BitEmitted:
      case obs::EventType::BitDecoded:
      case obs::EventType::FrameDelivered:
      case obs::EventType::AckObserved:
      case obs::EventType::PhaseEnter:
        decode_.mix(static_cast<std::uint64_t>(e.type));
        decode_.mix(e.t);
        decode_.mix(static_cast<std::uint64_t>(e.robot));
        decode_.mix(static_cast<std::uint64_t>(e.peer));
        decode_.mix(static_cast<std::uint64_t>(e.aux));
        decode_.mix(e.bit);
        decode_.mix(e.label);
        ++decode_events_;
        return;
      default:
        return;
    }
  }

  /// Folds a run boundary (and whether the run threw) into both digests.
  void end_run(bool threw) {
    motion_.mix(threw ? 0xdeadULL : 0xe0dULL);
    decode_.mix(threw ? 0xdeadULL : 0xe0dULL);
  }

  [[nodiscard]] std::uint64_t motion() const noexcept {
    return motion_.value();
  }
  [[nodiscard]] std::uint64_t motion_events() const noexcept {
    return motion_events_;
  }
  [[nodiscard]] std::uint64_t decode() const noexcept {
    return decode_.value();
  }
  [[nodiscard]] std::uint64_t decode_events() const noexcept {
    return decode_events_;
  }

 private:
  Fnv motion_;
  Fnv decode_;
  std::uint64_t motion_events_ = 0;
  std::uint64_t decode_events_ = 0;
};

/// Runs `cfg` the way run_case runs its primary protocol — fault-masked
/// configs through every lane, corruption plans armed — with every lane's
/// events streamed into `sink`. Returns true when the run threw.
bool run_motion(const FuzzConfig& cfg, obs::EventSink& sink) {
  const std::vector<geom::Vec2> positions = scatter(cfg.seed, cfg.n);
  const sim::Time budget = instant_budget(cfg);
  const sim::Time settle = is_synchronous(cfg.protocol) ? 4 : 512;
  try {
    if (cfg.group_size > 1) {
      fault::RedundantOptions ropt;
      ropt.base = to_options(cfg, cfg.protocol);
      ropt.group_size = cfg.group_size;
      ropt.plan = cfg.fault_plan;
      fault::RedundantChatNetwork net(positions, ropt);
      for (std::size_t l = 0; l < cfg.group_size; ++l) {
        net.attach_lane_sink(l, &sink);
      }
      if (cfg.broadcast) {
        net.broadcast(0, cfg.payload);
      } else {
        net.send(0, 1, cfg.payload);
      }
      (void)net.run_until_settled(
          budget, std::max<sim::Time>(512, budget / 64), settle);
      return false;
    }
    core::ChatNetwork net(positions, to_options(cfg, cfg.protocol));
    net.attach_event_sink(&sink);
    fault::arm_corruptions(net, cfg.fault_plan);
    if (cfg.broadcast) {
      net.broadcast(0, cfg.payload);
    } else {
      net.send(0, 1, cfg.payload);
    }
    if (net.run_until_quiescent(budget)) net.run(settle);
    return false;
  } catch (const std::exception&) {
    return true;
  }
}

struct PinnedDigest {
  const char* mode;
  std::uint64_t digest;
  std::uint64_t events;
};

// Captured before the exact distance and slice filters (DESIGN.md §12)
// replaced hypot/atan2 on the activation path: those filters promise the
// same bits, and this table holds them to it.
constexpr PinnedDigest kPinnedMotion[] = {
    {"plain", 0xad05fe2c26baa676ULL, 666333ULL},
    {"faults", 0x015696dc648d2017ULL, 740567ULL},
    {"corrupt", 0xecbd56c01f234a6eULL, 724865ULL},
};

// Captured before the sliced drivers' decode memo (DESIGN.md §13), which
// skips re-classifying robots that did not move and promises the same
// decoded bits.
constexpr PinnedDigest kPinnedDecode[] = {
    {"plain", 0x5a0f000225dc98a7ULL, 35150ULL},
    {"faults", 0x31433f069e339e6bULL, 62946ULL},
    {"corrupt", 0x10ea45dc0eaa5cdeULL, 25697ULL},
};

/// The three fuzz modes' digests, each over 100 case seeds from one master
/// seed, run once per process: the plain mode keeps sample_config's own
/// fault and corruption draws, the others force theirs like stigfuzz
/// --faults and --corrupt.
struct ModeRuns {
  ModeRuns() {
    constexpr std::uint64_t kMaster = 0x6d6f74696f6eULL;
    constexpr std::size_t kCasesPerMode = 100;
    for (std::size_t m = 0; m < std::size(kPinnedMotion); ++m) {
      for (std::size_t i = 0; i < kCasesPerMode; ++i) {
        FuzzConfig cfg =
            sample_config(par::derive_seed(kMaster, m * kCasesPerMode + i));
        if (m == 1) force_fault_dimensions(cfg);
        if (m == 2) force_corrupt_dimensions(cfg);
        protocols.insert(cfg.protocol);
        schedulers.insert(cfg.scheduler);
        digests[m].end_run(run_motion(cfg, digests[m]));
      }
    }
  }

  RunDigest digests[std::size(kPinnedMotion)];
  std::set<core::ProtocolKind> protocols;
  std::set<core::SchedulerKind> schedulers;
};

const ModeRuns& mode_runs() {
  static const ModeRuns runs;
  return runs;
}

TEST(ReplayStability, PinnedMotionDigests) {
  const ModeRuns& runs = mode_runs();
  for (std::size_t m = 0; m < std::size(kPinnedMotion); ++m) {
    EXPECT_EQ(runs.digests[m].motion(), kPinnedMotion[m].digest)
        << kPinnedMotion[m].mode << ": a committed position, move distance "
        << "or separation changed bits";
    EXPECT_EQ(runs.digests[m].motion_events(), kPinnedMotion[m].events)
        << kPinnedMotion[m].mode;
  }
  EXPECT_EQ(runs.protocols.size(), 5U);
  EXPECT_EQ(runs.schedulers.size(), 4U);
}

TEST(ReplayStability, PinnedDecodeDigests) {
  const ModeRuns& runs = mode_runs();
  for (std::size_t m = 0; m < std::size(kPinnedDecode); ++m) {
    EXPECT_EQ(runs.digests[m].decode(), kPinnedDecode[m].digest)
        << kPinnedDecode[m].mode << ": a decoded bit, delivery, ack or "
        << "phase changed";
    EXPECT_EQ(runs.digests[m].decode_events(), kPinnedDecode[m].events)
        << kPinnedDecode[m].mode;
  }
}

/// A chat in a swarm large enough that the sliced drivers' per-peer paths
/// (proved candidates, listing shifts, lazily built geometry) all run.
/// Synchronous chats run to quiescence; asyncn needs thousands of instants
/// for one frame at these sizes, so it runs a fixed window, in which every
/// sender gets several bits across.
struct PinnedSwarm {
  const char* name;
  core::ProtocolKind protocol;
  bool by_ids;  ///< by_ids naming; otherwise anonymous (relative naming).
  std::size_t n;
  sim::Time instants;  ///< 0: run to quiescence.
  std::uint64_t decode;
  std::uint64_t decode_events;
  std::uint64_t motion;
};

constexpr PinnedSwarm kPinnedSwarms[] = {
    {"sliced by_ids", core::ProtocolKind::sliced, true, 64, 0,
     0x95d1d2e95aa224b8ULL, 6652ULL, 0xc6e00a68eaec85d9ULL},
    {"sliced by_ids", core::ProtocolKind::sliced, true, 130, 0,
     0xdca615031cfcefd8ULL, 13318ULL, 0x4575208ae52fba79ULL},
    {"sliced relative", core::ProtocolKind::sliced, false, 64, 0,
     0xea28074fe53abb3aULL, 6652ULL, 0x81f90fbb82fd7071ULL},
    {"sliced relative", core::ProtocolKind::sliced, false, 130, 0,
     0x980e361e730d23f6ULL, 13318ULL, 0xe862a522c63532f1ULL},
    {"asyncn relative", core::ProtocolKind::asyncn, false, 64, 400,
     0xce871b9fb872945aULL, 2808ULL, 0x740681cbe67f4cd0ULL},
    {"asyncn relative", core::ProtocolKind::asyncn, false, 130, 240,
     0x1650289ee65d36baULL, 2552ULL, 0x3e7e773adfb664c0ULL},
};

TEST(ReplayStability, PinnedSwarmDecodeDigests) {
  for (std::size_t s = 0; s < std::size(kPinnedSwarms); ++s) {
    const PinnedSwarm& pin = kPinnedSwarms[s];
    sim::Rng rng(0x5d00 + s);
    core::ChatNetworkOptions opt;
    opt.protocol = pin.protocol;
    opt.synchrony = pin.protocol == core::ProtocolKind::asyncn
                        ? core::Synchrony::asynchronous
                        : core::Synchrony::synchronous;
    opt.caps.visible_ids = pin.by_ids;
    opt.caps.sense_of_direction = pin.by_ids;
    opt.seed = par::derive_seed(0x5d01, s);
    core::ChatNetwork net(sim::jittered_grid(rng, pin.n), opt);
    RunDigest sink;
    net.attach_event_sink(&sink);
    // Three unicasts between seeded robots and one broadcast.
    for (std::size_t m = 0; m < 4; ++m) {
      const auto from = static_cast<sim::RobotIndex>(
          rng.uniform_int(0, pin.n - 1));
      const std::uint8_t payload[] = {static_cast<std::uint8_t>(0x3c + m)};
      if (m == 3) {
        net.broadcast(from, payload);
      } else {
        net.send(from, (from + 1 + rng.uniform_int(0, pin.n - 2)) % pin.n,
                 payload);
      }
    }
    if (pin.instants == 0) {
      ASSERT_TRUE(net.run_until_quiescent(20'000))
          << pin.name << " n=" << pin.n;
      net.run(4);
    } else {
      net.run(pin.instants);
    }
    EXPECT_EQ(sink.decode(), pin.decode) << pin.name << " n=" << pin.n;
    EXPECT_EQ(sink.decode_events(), pin.decode_events)
        << pin.name << " n=" << pin.n;
    EXPECT_EQ(sink.motion(), pin.motion) << pin.name << " n=" << pin.n;
  }
}

}  // namespace
}  // namespace stig::fuzz
