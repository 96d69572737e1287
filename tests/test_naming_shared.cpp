// The shared naming substrate: one set of rank tables per ChatNetwork, read
// by every robot through its own t0 permutation.
//
// The differential oracle rebuilds each robot's tables the per-robot way —
// a standalone SlicedCore from that robot's own t0 snapshot — and compares
// them with the shared view entry for entry, over all three naming modes,
// random rotations and units, mirrored frames, the Figure 3 symmetric
// configuration and a robot exactly at the SEC center. The corruption
// tests pin the copy-on-write contract: a scrambled robot damages only its
// own lookups, and the audit repairs it without touching anyone else.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "geom/angle.hpp"
#include "obs/alloc_track.hpp"
#include "proto/asyncn.hpp"
#include "proto/ksegment.hpp"
#include "proto/slices.hpp"
#include "proto/sync_sliced.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::Synchrony;
using geom::Vec2;
using proto::NamingMode;
using proto::SlicedCore;

const char* mode_name(NamingMode mode) {
  switch (mode) {
    case NamingMode::by_ids: return "by_ids";
    case NamingMode::lexicographic: return "lexicographic";
    case NamingMode::relative: return "relative";
  }
  return "?";
}

/// Jittered grid: any n places without rejection sampling.
std::vector<Vec2> scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::jittered_grid(rng, n);
}

ChatNetworkOptions options_for(NamingMode mode, ProtocolKind kind,
                               bool mirrored, std::uint64_t seed) {
  ChatNetworkOptions opt;
  opt.synchrony = kind == ProtocolKind::asyncn ? Synchrony::asynchronous
                                               : Synchrony::synchronous;
  opt.protocol = kind;
  opt.caps.visible_ids = mode == NamingMode::by_ids;
  opt.caps.sense_of_direction = mode != NamingMode::relative;
  opt.mirrored_frames = mirrored;
  opt.seed = seed;
  return opt;
}

const SlicedCore& core_of(const ChatNetwork& net, std::size_t i) {
  const proto::ChatRobot& robot = net.chat_robot(i);
  if (const auto* s = dynamic_cast<const proto::SyncSlicedRobot*>(&robot)) {
    return s->core();
  }
  if (const auto* k = dynamic_cast<const proto::KSegmentRobot*>(&robot)) {
    return k->core();
  }
  return dynamic_cast<const proto::AsyncNRobot&>(robot).core();
}

/// Every lookup of robot i, flattened: rank(a, b) then robot_with_rank.
std::vector<std::size_t> lookups(const SlicedCore& core) {
  const std::size_t n = core.robot_count();
  std::vector<std::size_t> out;
  out.reserve(2 * n * n);
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t b = 0; b < n; ++b) out.push_back(core.rank(a, b));
  }
  for (std::size_t a = 0; a < n; ++a) {
    for (std::size_t r = 0; r < n; ++r) {
      out.push_back(core.robot_with_rank(a, r));
    }
  }
  return out;
}

/// The oracle: each robot's shared view equals the tables it would build
/// alone from its own t0 snapshot, and all robots read one table object.
void expect_matches_per_robot_tables(const ChatNetwork& net, NamingMode mode,
                                     const std::string& what) {
  ASSERT_EQ(net.engine().now(), 0u) << "the oracle compares t0 views";
  const proto::NamingTables* shared = &core_of(net, 0).naming_tables();
  for (std::size_t i = 0; i < net.robot_count(); ++i) {
    const SlicedCore& core = core_of(net, i);
    EXPECT_EQ(&core.naming_tables(), shared) << what << " robot " << i;
    const SlicedCore alone(net.engine().make_snapshot(i), mode,
                           core.diameter_count());
    EXPECT_NE(&alone.naming_tables(), shared);
    const std::vector<std::size_t> got = lookups(core);
    const std::vector<std::size_t> want = lookups(alone);
    std::size_t mismatches = 0;
    for (std::size_t e = 0; e < got.size(); ++e) {
      mismatches += got[e] != want[e] ? 1 : 0;
    }
    EXPECT_EQ(mismatches, 0u) << what << " robot " << i << " of "
                              << net.robot_count();
  }
}

TEST(SharedNaming, MatchesPerRobotTablesAcrossModesSizesAndFrames) {
  const ProtocolKind kinds[] = {ProtocolKind::sliced, ProtocolKind::ksegment,
                                ProtocolKind::asyncn};
  std::size_t variant = 0;
  for (const NamingMode mode : {NamingMode::by_ids, NamingMode::lexicographic,
                                NamingMode::relative}) {
    for (const std::size_t n : {2u, 3u, 5u, 16u, 64u, 256u}) {
      ++variant;
      // Cycle the three drivers and both handednesses; n = 256 stays on
      // the sliced protocol, where the oracle's per-robot rebuild is the
      // expensive part anyway.
      const ProtocolKind kind = n == 256 ? ProtocolKind::sliced
                                         : kinds[variant % 3];
      const bool mirrored = variant % 2 == 0;
      const std::uint64_t seed = 1000 + variant;
      const ChatNetwork net(scatter(n, seed),
                            options_for(mode, kind, mirrored, seed));
      expect_matches_per_robot_tables(
          net, mode,
          std::string(mode_name(mode)) + " " +
              core::protocol_kind_name(kind) +
              (mirrored ? " mirrored" : "") + " n=" + std::to_string(n));
    }
  }
}

TEST(SharedNaming, MatchesPerRobotTablesOnFigure3Symmetry) {
  // Figure 3: a regular hexagon, where no common labeling exists — every
  // robot's relative naming is a different permutation.
  std::vector<Vec2> hexagon;
  for (int i = 0; i < 6; ++i) {
    const double a = geom::kTwoPi * i / 6.0;
    hexagon.push_back(Vec2{8 * std::cos(a), 8 * std::sin(a)});
  }
  for (const bool mirrored : {false, true}) {
    for (const std::uint64_t seed : {3u, 4u, 5u}) {
      const ChatNetwork net(
          hexagon, options_for(NamingMode::relative, ProtocolKind::sliced,
                               mirrored, seed));
      expect_matches_per_robot_tables(net, NamingMode::relative,
                                      "figure 3 seed " +
                                          std::to_string(seed));
    }
  }
}

TEST(SharedNaming, MatchesPerRobotTablesWithARobotAtTheSecCenter) {
  // (-6, 0) and (6, 0) span the SEC, so its center is the origin, where
  // robot 2 sits: its horizon comes from the degenerate canonical rule.
  const std::vector<Vec2> pts{Vec2{-6, 0}, Vec2{6, 0},  Vec2{0, 0},
                              Vec2{1, 2.5}, Vec2{-2, -1.5}, Vec2{2.5, -3}};
  for (const ProtocolKind kind : {ProtocolKind::sliced, ProtocolKind::asyncn}) {
    for (const bool mirrored : {false, true}) {
      const ChatNetwork net(
          pts, options_for(NamingMode::relative, kind, mirrored, 21));
      expect_matches_per_robot_tables(net, NamingMode::relative,
                                      "sec center");
    }
  }
}

TEST(SharedNaming, QuantizedObservationSharesNothing) {
  // A quantized robot sees itself exactly and its peers on the grid, so
  // t0 views are not similarity images of one another: every robot keeps
  // the tables it derives itself.
  for (const NamingMode mode : {NamingMode::lexicographic,
                                NamingMode::relative}) {
    ChatNetworkOptions opt =
        options_for(mode, ProtocolKind::sliced, false, 8);
    opt.observation_quantum = 0.01;
    const ChatNetwork net(scatter(9, 8), opt);
    for (std::size_t i = 0; i < net.robot_count(); ++i) {
      for (std::size_t j = 0; j < i; ++j) {
        EXPECT_NE(&core_of(net, i).naming_tables(),
                  &core_of(net, j).naming_tables())
            << mode_name(mode) << " robots " << i << ", " << j;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Copy-on-write corruption.

ChatNetworkOptions relative_sliced() {
  return options_for(NamingMode::relative, ProtocolKind::sliced, false, 6);
}

TEST(SharedNamingCorruption, OnlyTheScrambledRobotsLookupsChange) {
  const std::vector<Vec2> pts = scatter(16, 6);
  std::size_t damaged = 0;
  for (std::size_t k = 0; k < 16; k += 3) {
    ChatNetwork net(pts, relative_sliced());
    std::vector<std::vector<std::size_t>> before;
    for (std::size_t i = 0; i < net.robot_count(); ++i) {
      before.push_back(lookups(core_of(net, i)));
    }
    // Applied after the moves of instant 0; the audit runs at robot k's
    // next activation.
    net.schedule_corruption(k, 0, proto::CorruptKind::naming);
    net.step();
    for (std::size_t i = 0; i < net.robot_count(); ++i) {
      const std::vector<std::size_t> now = lookups(core_of(net, i));
      if (i != k) {
        EXPECT_EQ(now, before[i]) << "robot " << i << " after scrambling "
                                  << k;
        EXPECT_EQ(&core_of(net, i).naming_tables(),
                  &core_of(net, 0).naming_tables());
        continue;
      }
      std::size_t changed = 0;
      for (std::size_t e = 0; e < now.size(); ++e) {
        changed += now[e] != before[i][e] ? 1 : 0;
      }
      EXPECT_LE(changed, 2u) << "one rank and one inverse entry at most";
      damaged += changed > 0 ? 1 : 0;
    }
    net.step();
    for (std::size_t i = 0; i < net.robot_count(); ++i) {
      EXPECT_EQ(lookups(core_of(net, i)), before[i])
          << "robot " << i << " after the audit, scrambled " << k;
    }
  }
  EXPECT_GT(damaged, 0u) << "every sampled scramble was vacuous";
}

/// A core reading the tables of robot 0's t0 view through the t0 order of
/// robot `i` of `net`, the way ChatNetwork hands them out.
SlicedCore core_sharing(const ChatNetwork& net, std::size_t i,
                        NamingMode mode,
                        std::shared_ptr<const proto::NamingTables> tables) {
  const std::vector<sim::RobotIndex> canon =
      net.engine().initial_observation_order(0);
  std::vector<std::uint32_t> canonical_of(canon.size());
  for (std::size_t k = 0; k < canon.size(); ++k) {
    canonical_of[canon[k]] = static_cast<std::uint32_t>(k);
  }
  proto::SharedNaming view{std::move(tables), {}};
  for (const sim::RobotIndex j : net.engine().initial_observation_order(i)) {
    view.to_canonical.push_back(canonical_of[j]);
  }
  return SlicedCore(net.engine().make_snapshot(i), mode, net.robot_count(),
                    std::move(view));
}

TEST(SharedNamingCorruption, AuditReportsExactlyTheDifferingScrambles) {
  sim::Rng rng(44);
  for (const NamingMode mode : {NamingMode::by_ids, NamingMode::lexicographic,
                                NamingMode::relative}) {
    const ChatNetwork net(scatter(12, 9),
                          options_for(mode, ProtocolKind::sliced, true, 9));
    const sim::Snapshot canon = net.engine().make_snapshot(0);
    std::vector<Vec2> points;
    std::vector<sim::VisibleId> ids;
    for (const sim::ObservedRobot& r : canon.robots) {
      points.push_back(r.position);
      if (r.id) ids.push_back(*r.id);
    }
    const auto tables =
        std::make_shared<const proto::NamingTables>(points, ids, mode);
    std::size_t repaired = 0;
    std::size_t vacuous = 0;
    for (const std::size_t i : {0u, 5u, 11u}) {
      SlicedCore core = core_sharing(net, i, mode, tables);
      const std::vector<std::size_t> pristine = lookups(core);
      EXPECT_EQ(pristine, lookups(core_of(net, i))) << mode_name(mode);
      for (int round = 0; round < 200; ++round) {
        core.scramble_naming(rng.uniform_int(0, ~std::uint64_t{0}));
        const bool differs = lookups(core) != pristine;
        EXPECT_EQ(core.audit_naming(), differs)
            << mode_name(mode) << " robot " << i;
        EXPECT_EQ(lookups(core), pristine)
            << mode_name(mode) << " robot " << i;
        EXPECT_EQ(&core.naming_tables(), tables.get());
        (differs ? repaired : vacuous) += 1;
      }
    }
    EXPECT_GT(repaired, 0u) << mode_name(mode);
    EXPECT_GT(vacuous, 0u) << mode_name(mode)
                           << ": some scrambles rewrite the stored value";
  }
}

TEST(SharedNamingCorruption, AuditOfAnUncorruptedCoreAllocatesNothing) {
  if (!obs::alloc::active()) GTEST_SKIP() << "allocation tracking off";
  const ChatNetwork net(scatter(32, 10), relative_sliced());
  SlicedCore alone(net.engine().make_snapshot(4), NamingMode::relative, 32);
  const auto audits_allocate = [](SlicedCore& core) {
    const obs::alloc::Counters a0 = obs::alloc::snapshot();
    for (int k = 0; k < 100; ++k) EXPECT_FALSE(core.audit_naming());
    return obs::alloc::snapshot().allocs - a0.allocs;
  };
  EXPECT_EQ(audits_allocate(alone), 0u);
  alone.scramble_naming(0x123456789ULL);
  (void)alone.audit_naming();  // Drops the private copy...
  EXPECT_EQ(audits_allocate(alone), 0u);  // ...and is free again.
}

}  // namespace
}  // namespace stig
