// Conformance suite: record full traces of every protocol doing real work
// and model-check them against the movement rules; also verify the
// validators themselves catch violations (injected via teleport).
//
// The movement protocols are *total* about where a robot may ever be: a
// sliced-protocol robot is at its granular center, on one of its labeled
// rays, or (asynchronously) on its kappa lane; an Async2 robot is on the
// horizon line or perpendicular to it. The validators below replay a
// recorded position history (ChatNetwork::position_history()) and report
// every violation.
#include <gtest/gtest.h>

#include <cmath>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "geom/angle.hpp"
#include "geom/granular.hpp"
#include "geom/line.hpp"
#include "geom/sec.hpp"
#include "geom/voronoi.hpp"
#include "proto/naming.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::Synchrony;

/// One conformance violation: which robot, which instant, what rule.
struct Violation {
  std::size_t robot = 0;
  std::size_t instant = 0;
  std::string rule;
};

/// Checks a synchronous sliced-protocol trace: every robot, at every
/// recorded instant, is (a) strictly inside its granular and (b) at its
/// center or on one of the `diameters` labeled rays of its own slicing.
/// `naming` selects the per-robot reference direction, exactly as the
/// protocol uses it.
std::vector<Violation> validate_sliced_trace(
    const std::vector<geom::Vec2>& t0_positions,
    const std::vector<std::vector<geom::Vec2>>& history,
    proto::NamingMode naming, std::size_t diameters,
    double angle_tolerance = 1e-6) {
  const std::size_t n = t0_positions.size();
  const geom::Circle sec = geom::smallest_enclosing_circle(t0_positions);
  std::vector<geom::Granular> granulars;
  granulars.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const geom::Vec2 reference =
        naming == proto::NamingMode::relative
            ? proto::horizon_direction(t0_positions, i, sec)
            : geom::Vec2{0.0, 1.0};
    granulars.emplace_back(t0_positions[i],
                           geom::granular_radius(t0_positions, i), diameters,
                           reference);
  }

  std::vector<Violation> violations;
  for (std::size_t t = 0; t < history.size(); ++t) {
    for (std::size_t i = 0; i < n; ++i) {
      const geom::Granular& g = granulars[i];
      const geom::Vec2& pos = history[t][i];
      const double d = geom::dist(pos, g.center());
      if (d >= g.radius()) {
        violations.push_back({i, t, "outside granular"});
        continue;
      }
      if (d <= 1e-7 * g.radius()) continue;  // At the center.
      if (!g.classify(pos, 1e-7 * g.radius(), angle_tolerance)) {
        violations.push_back({i, t, "off every labeled ray"});
      }
    }
  }
  return violations;
}

/// Checks an Async2 trace: both robots stay on the common horizon line or
/// strictly perpendicular to it (excursion columns), and never cross to the
/// peer's side of its own base.
std::vector<Violation> validate_async2_trace(
    const geom::Vec2& base_a, const geom::Vec2& base_b,
    const std::vector<std::vector<geom::Vec2>>& history,
    double tolerance = 1e-6) {
  const double sep = geom::dist(base_a, base_b);
  const geom::Line h = geom::Line::through(base_a, base_b);
  const geom::Vec2 north_a = (base_a - base_b).normalized();
  const geom::Vec2 north_b = -north_a;

  std::vector<Violation> violations;
  for (std::size_t t = 0; t < history.size(); ++t) {
    const geom::Vec2 bases[2] = {base_a, base_b};
    const geom::Vec2 norths[2] = {north_a, north_b};
    for (std::size_t i = 0; i < 2; ++i) {
      const geom::Vec2& pos = history[t][i];
      // Rule 1: never south of the own base (toward/past the peer).
      const double along = geom::dot(pos - bases[i], norths[i]);
      if (along < -tolerance * sep) {
        violations.push_back({i, t, "south of own base"});
      }
      // Rule 2: the position is reachable from H by a pure perpendicular
      // excursion — trivially true geometrically, so the meaningful check
      // is that *while off H*, the robot's H-projection lies north of its
      // base (excursions depart from march positions).
      const double off = std::fabs(h.signed_offset(pos));
      if (off > tolerance * sep && along < -tolerance * sep) {
        violations.push_back({i, t, "excursion from south of base"});
      }
    }
  }
  return violations;
}

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, 25.0, 3.0);
}

std::vector<std::uint8_t> random_payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

TEST(Conformance, SyncSlicedTraceIsClean) {
  const std::size_t n = 6;
  const auto pts = scatter(n, 3);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  for (std::size_t i = 0; i < n; ++i) {
    net.send(i, (i + 1) % n, random_payload(6, i));
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  const auto violations = validate_sliced_trace(
      pts, net.position_history(),
      proto::NamingMode::lexicographic, n);
  for (const auto& v : violations) {
    ADD_FAILURE() << "robot " << v.robot << " t=" << v.instant << ": "
                  << v.rule;
  }
}

TEST(Conformance, SyncSlicedRelativeTraceIsClean) {
  const std::size_t n = 5;
  const auto pts = scatter(n, 7);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;  // Relative naming.
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.send(0, 3, random_payload(8, 1));
  net.broadcast(2, random_payload(4, 2));
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  EXPECT_TRUE(validate_sliced_trace(
                  pts, net.position_history(),
                  proto::NamingMode::relative, n)
                  .empty());
}

TEST(Conformance, AsyncNTraceIsClean) {
  const std::size_t n = 4;
  const auto pts = scatter(n, 11);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 5;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.send(1, 3, random_payload(2, 3));
  ASSERT_TRUE(net.run_until_quiescent(2'000'000));
  // AsyncN slices into n+1 diameters (kappa included), relative reference.
  EXPECT_TRUE(validate_sliced_trace(
                  pts, net.position_history(),
                  proto::NamingMode::relative, n + 1)
                  .empty());
}

TEST(Conformance, KSegmentTraceIsClean) {
  const std::size_t n = 7;
  const auto pts = scatter(n, 13);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.protocol = ProtocolKind::ksegment;
  opt.ksegment_k = 3;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.send(0, 5, random_payload(5, 4));
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  EXPECT_TRUE(validate_sliced_trace(
                  pts, net.position_history(),
                  proto::NamingMode::lexicographic, 3 + 1)
                  .empty());
}

TEST(Conformance, Async2TraceIsClean) {
  const geom::Vec2 a{-3, 1};
  const geom::Vec2 b{4, -2};
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.seed = 9;
  opt.record_positions = true;
  ChatNetwork net({a, b}, opt);
  net.send(0, 1, random_payload(4, 5));
  net.send(1, 0, random_payload(3, 6));
  ASSERT_TRUE(net.run_until_quiescent(1'000'000));
  EXPECT_TRUE(validate_async2_trace(
                  a, b, net.position_history())
                  .empty());
}

TEST(Conformance, BandedAsync2TraceIsClean) {
  const geom::Vec2 a{0, 0};
  const geom::Vec2 b{5, 0};
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::asynchronous;
  opt.async2_banded = true;
  opt.seed = 13;
  opt.record_positions = true;
  ChatNetwork net({a, b}, opt);
  net.send(0, 1, random_payload(6, 7));
  ASSERT_TRUE(net.run_until_quiescent(1'000'000));
  EXPECT_TRUE(validate_async2_trace(
                  a, b, net.position_history())
                  .empty());
}

TEST(Conformance, ValidatorCatchesInjectedViolations) {
  // The validator itself must not be vacuous: a teleported robot outside
  // every legal region is flagged.
  const std::size_t n = 4;
  const auto pts = scatter(n, 17);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.run(3);
  // Off-ray but inside the granular: between two diameters.
  const double r0 = geom::granular_radius(pts, 0);
  const double between = geom::kPi / static_cast<double>(n) / 2.0;
  const geom::Vec2 dir = geom::rotate_clockwise(geom::Vec2{0, 1}, between);
  net.engine().teleport(0, pts[0] + dir * (0.5 * r0));
  net.run(1);
  const auto violations = validate_sliced_trace(
      pts, net.position_history(),
      proto::NamingMode::lexicographic, n);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].robot, 0u);
  EXPECT_EQ(violations[0].rule, "off every labeled ray");
}

TEST(Conformance, ValidatorCatchesOutsideGranular) {
  const std::size_t n = 3;
  const auto pts = scatter(n, 19);
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.sense_of_direction = true;
  opt.record_positions = true;
  ChatNetwork net(pts, opt);
  net.run(2);
  // Far enough outside that the first self-healing step (sigma = 0.25)
  // cannot bring it back inside before the next recorded instant, but well
  // clear of the neighbor's granular.
  const double r1 = geom::granular_radius(pts, 1);
  net.engine().teleport(1, pts[1] + geom::Vec2{1.3 * r1, 0.0});
  net.run(1);
  const auto violations = validate_sliced_trace(
      pts, net.position_history(),
      proto::NamingMode::lexicographic, n);
  ASSERT_FALSE(violations.empty());
  EXPECT_EQ(violations[0].rule, "outside granular");
}

}  // namespace
}  // namespace stig
