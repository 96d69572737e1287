// SyncSliced protocol tests (Sections 3.2-3.4): all three naming modes,
// concurrent senders, eavesdropping/redundancy, collision avoidance inside
// granulars, silence, flocking, and randomized property sweeps.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "geom/angle.hpp"
#include "geom/voronoi.hpp"
#include "obs/sink.hpp"
#include "proto/sync_sliced.hpp"
#include "sim/engine.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using core::Capabilities;
using core::ChatNetwork;
using core::ChatNetworkOptions;
using core::ProtocolKind;
using core::Synchrony;

std::vector<geom::Vec2> scatter(std::size_t n, std::uint64_t seed,
                                double extent = 30.0, double min_gap = 2.0) {
  sim::Rng rng(seed);
  return sim::scatter(rng, n, extent, min_gap);
}

std::vector<std::uint8_t> random_payload(std::size_t len,
                                         std::uint64_t seed) {
  sim::Rng rng(seed);
  std::vector<std::uint8_t> p(len);
  for (auto& b : p) b = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  return p;
}

ChatNetworkOptions sliced_options(bool ids, bool sod) {
  ChatNetworkOptions opt;
  opt.synchrony = Synchrony::synchronous;
  opt.caps.visible_ids = ids;
  opt.caps.sense_of_direction = sod;
  return opt;
}

struct NamingCase {
  bool ids;
  bool sod;
  const char* name;
};

class SlicedNamingTest : public ::testing::TestWithParam<NamingCase> {};

TEST_P(SlicedNamingTest, AllPairsDeliver) {
  const NamingCase& c = GetParam();
  const std::size_t n = 5;
  ChatNetwork net(scatter(n, 77), sliced_options(c.ids, c.sod));
  // Every ordered pair exchanges a distinct message.
  std::vector<std::vector<std::vector<std::uint8_t>>> msgs(
      n, std::vector<std::vector<std::uint8_t>>(n));
  for (std::size_t i = 0; i < n; ++i) {
    for (std::size_t j = 0; j < n; ++j) {
      if (i == j) continue;
      msgs[i][j] = random_payload(2 + (i * n + j) % 5, 100 + i * n + j);
      net.send(i, j, msgs[i][j]);
    }
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000)) << c.name;
  net.run(4);
  for (std::size_t j = 0; j < n; ++j) {
    ASSERT_EQ(net.received(j).size(), n - 1) << c.name;
    for (const auto& d : net.received(j)) {
      EXPECT_EQ(d.payload, msgs[d.from][j]) << c.name;
      EXPECT_EQ(d.to, j);
    }
  }
}

TEST_P(SlicedNamingTest, EverybodyOverhearsEverything) {
  const NamingCase& c = GetParam();
  const std::size_t n = 4;
  ChatNetwork net(scatter(n, 31), sliced_options(c.ids, c.sod));
  const auto msg = random_payload(6, 9);
  net.send(0, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(50'000));
  net.run(4);
  // The paper's redundancy remark: every robot can decode every message.
  for (std::size_t j = 2; j < n; ++j) {
    ASSERT_EQ(net.overheard(j).size(), 1u) << c.name << " robot " << j;
    EXPECT_EQ(net.overheard(j)[0].payload, msg);
    EXPECT_EQ(net.overheard(j)[0].from, 0u);
    EXPECT_EQ(net.overheard(j)[0].to, 1u);
  }
  // The addressee files it as received, not overheard.
  EXPECT_EQ(net.received(1).size(), 1u);
  EXPECT_EQ(net.overheard(1).size(), 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Namings, SlicedNamingTest,
    ::testing::Values(NamingCase{true, true, "ids"},
                      NamingCase{false, true, "lexicographic"},
                      NamingCase{false, false, "relative"}),
    [](const auto& info) { return info.param.name; });

TEST(SyncSliced, SilentWhenIdle) {
  ChatNetwork net(scatter(6, 3), sliced_options(false, true));
  net.run(200);
  for (std::size_t i = 0; i < 6; ++i) {
    EXPECT_EQ(net.engine().motion(i).moves, 0u) << i;
  }
}

TEST(SyncSliced, StaysInsideGranulars) {
  ChatNetworkOptions opt = sliced_options(false, true);
  opt.record_positions = true;
  const auto pts = scatter(5, 13);
  ChatNetwork net(pts, opt);
  for (std::size_t i = 0; i < 5; ++i) {
    net.send(i, (i + 2) % 5, random_payload(8, i));
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  // Collision avoidance, the strong form: every robot stayed within its
  // granular (half nearest-neighbor distance) the whole run.
  std::vector<double> radius(5);
  for (std::size_t i = 0; i < 5; ++i) {
    radius[i] = geom::granular_radius(pts, i);
  }
  for (const auto& config : net.position_history()) {
    for (std::size_t i = 0; i < 5; ++i) {
      EXPECT_LT(geom::dist(config[i], pts[i]), radius[i]);
    }
  }
  EXPECT_GT(net.engine().min_separation(), 0.0);
}

TEST(SyncSliced, TwoInstantsPerBitEvenWithConcurrentSenders) {
  const std::size_t n = 6;
  ChatNetwork net(scatter(n, 5), sliced_options(false, true));
  const auto msg = random_payload(10, 3);
  const std::uint64_t frame_bits = encode::encode_frame(msg).size();
  for (std::size_t i = 0; i < n; ++i) {
    net.send(i, (i + 1) % n, msg);  // All robots send concurrently.
  }
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  // Concurrency is free: the slowest sender still needs only 2/bit.
  EXPECT_EQ(net.engine().now(), 2 * frame_bits);
}

TEST(SyncSliced, MirroredSwarmWorks) {
  ChatNetworkOptions opt = sliced_options(false, false);
  opt.mirrored_frames = true;
  ChatNetwork net(scatter(5, 41), opt);
  const auto msg = random_payload(7, 2);
  net.send(3, 0, msg);
  ASSERT_TRUE(net.run_until_quiescent(50'000));
  net.run(4);
  ASSERT_EQ(net.received(0).size(), 1u);
  EXPECT_EQ(net.received(0)[0].payload, msg);
}

TEST(SyncSliced, FlockingChatDrifts) {
  ChatNetworkOptions opt = sliced_options(false, true);
  opt.flock_velocity = geom::Vec2{0.05, 0.02};
  opt.sigma = 0.5;
  opt.record_positions = true;
  const auto pts = scatter(4, 19);
  ChatNetwork net(pts, opt);
  const auto msg = random_payload(12, 8);
  net.send(0, 3, msg);
  ASSERT_TRUE(net.run_until_quiescent(50'000));
  net.run(4);
  ASSERT_EQ(net.received(3).size(), 1u);
  EXPECT_EQ(net.received(3)[0].payload, msg);
  // The swarm really moved: every robot drifted by t * v.
  const auto t = static_cast<double>(net.engine().now());
  const geom::Vec2 expected_drift = opt.flock_velocity * t;
  for (std::size_t i = 0; i < 4; ++i) {
    const geom::Vec2 drift = net.engine().positions()[i] - pts[i];
    EXPECT_NEAR(geom::dist(drift, expected_drift), 0.0, 1e-6) << i;
  }
}

TEST(SyncSliced, WorksAtScale) {
  const std::size_t n = 40;
  ChatNetwork net(scatter(n, 23, 100.0, 3.0), sliced_options(false, false));
  const auto msg = random_payload(5, 77);
  net.send(0, n - 1, msg);
  net.send(n / 2, 1, msg);
  ASSERT_TRUE(net.run_until_quiescent(100'000));
  net.run(4);
  ASSERT_EQ(net.received(n - 1).size(), 1u);
  ASSERT_EQ(net.received(1).size(), 1u);
}

// ---- Live-peer decoding against the loop over every peer.

/// The reference for live-peer decoding: SyncSlicedRobot's protocol with
/// every peer's decoder update run at every activation (no flocking).
/// Moves, corruption envelope and audit are the driver's.
class FullLoopSliced final : public proto::ChatRobot {
 public:
  explicit FullLoopSliced(proto::NamingMode naming) : naming_(naming) {}

  void initialize(const sim::Snapshot& snap) override {
    core_ = proto::SlicedCore(snap, naming_, snap.robots.size());
    was_off_.assign(core_.robot_count(), false);
    idle_.assign(core_.robot_count(), 0);
  }

  geom::Vec2 on_activate(const sim::Snapshot& snap) override {
    note_activation(snap);
    const std::size_t self = core_.self_index();
    if (core_.audit_naming()) {
      for (std::size_t j = 0; j < core_.robot_count(); ++j) {
        reset_streams_from(j);
        was_off_[j] = false;
        idle_[j] = 0;
      }
    }
    core_.observe(snap);
    for (std::size_t j = 0; j < core_.robot_count(); ++j) {
      if (j == self) continue;
      const auto signal = core_.signal(j);
      if (signal && !was_off_[j]) {
        on_bit_decoded(core_.rank(self, j),
                       core_.rank(self, core_.robot_with_rank(
                                            j, signal->diameter)),
                       signal->side == geom::DiameterSide::positive ? 0 : 1);
      }
      was_off_[j] = signal.has_value();
      if (signal) {
        idle_[j] = 0;
      } else if (idle_[j] < kGap && ++idle_[j] == kGap) {
        reset_streams_from(core_.rank(self, j));
      }
    }
    if (displaced_) {
      note_phase("return");
      displaced_ = false;
      advance_outbox();
      return core_.center(self);
    }
    if (const auto bit = peek_bit()) {
      note_phase("signal");
      const double amp = std::min(0.8 * kSigma, 0.45 * core_.radius(self));
      displaced_ = true;
      return core_.signal_point(
          proto::Signal{bit->first, bit->second == 0
                                        ? geom::DiameterSide::positive
                                        : geom::DiameterSide::negative},
          amp);
    }
    note_phase("idle");
    return core_.center(self);
  }

  [[nodiscard]] std::size_t self_slot() const override {
    return core_.rank(core_.self_index(), core_.self_index());
  }
  [[nodiscard]] std::size_t slot_count() const override {
    return core_.robot_count();
  }
  [[nodiscard]] std::size_t slot_of_t0_index(std::size_t i) const override {
    return core_.rank(core_.self_index(), i);
  }

  static constexpr double kSigma = 1.0;

 protected:
  void corrupt_protocol_state(proto::CorruptKind kind,
                              std::uint64_t garbage) override {
    if (kind == proto::CorruptKind::naming) {
      core_.scramble_naming(garbage);
      return;
    }
    displaced_ = (garbage & 1) != 0;
    was_off_[(garbage >> 8) % was_off_.size()] = (garbage & 2) != 0;
    idle_[(garbage >> 16) % idle_.size()] =
        static_cast<std::uint8_t>(garbage % kGap);
  }

 private:
  static constexpr std::uint8_t kGap = 3;
  proto::NamingMode naming_;
  proto::SlicedCore core_;
  bool displaced_ = false;
  std::vector<bool> was_off_;
  std::vector<std::uint8_t> idle_;
};

/// Every protocol event a robot emits, in order.
class EventLog final : public obs::EventSink {
 public:
  void on_event(const obs::Event& e) override {
    if (e.type == obs::EventType::Activation ||
        e.type == obs::EventType::Move ||
        e.type == obs::EventType::StepComplete) {
      return;
    }
    std::ostringstream line;
    line << obs::event_type_name(e.type) << " t=" << e.t << " r=" << e.robot
         << " p=" << e.peer << " a=" << e.aux << " b=" << e.bit
         << " l=" << (e.label == nullptr ? "" : e.label);
    lines.push_back(line.str());
  }
  std::vector<std::string> lines;
};

/// Runs n robots made by `make` through a chat with transient
/// corruptions; returns every protocol event and every delivery. Seed 0
/// is one planned fault: robot 1 misses a bit of robot 0's first frame
/// (its edge detector for robot 0 is set while robot 0 is about to go
/// out), and only the stream resync after robot 0 rests lets robot 1
/// read robot 0's second frame.
template <typename Make>
std::vector<std::string> corrupted_chat(std::size_t n, std::uint64_t seed,
                                        proto::NamingMode naming, Make make) {
  sim::Rng rng(seed);
  std::vector<sim::RobotSpec> specs;
  for (const geom::Vec2& p : sim::scatter(rng, n, 40.0, 3.0)) {
    sim::RobotSpec spec;
    spec.position = p;
    // Lexicographic naming needs a common North; relative naming only
    // chirality.
    const double turn = rng.uniform(-3.1, 3.1);
    if (naming == proto::NamingMode::relative) spec.frame_rotation = turn;
    specs.push_back(spec);
  }
  std::vector<std::unique_ptr<sim::Robot>> programs;
  std::vector<proto::ChatRobot*> robots;
  for (std::size_t i = 0; i < n; ++i) {
    auto robot = make();
    robots.push_back(robot.get());
    programs.push_back(std::move(robot));
  }
  sim::EngineOptions eopt;
  sim::Engine engine(std::move(specs), std::move(programs),
                     std::make_unique<sim::SynchronousScheduler>(), eopt);
  EventLog log;
  for (std::size_t i = 0; i < n; ++i) {
    robots[i]->set_telemetry(&log, i, {});
  }
  // Four senders, two frames each, queued apart so each rests between
  // them (idle counters run out, streams resync).
  const auto queue = [&](std::size_t round) {
    for (std::size_t k = 0; k < 4; ++k) {
      proto::ChatRobot& r = *robots[(k * 5 + round) % n];
      const std::size_t to = (r.self_slot() + 1 + k) % r.slot_count();
      r.send_message(to, std::vector<std::uint8_t>{
                             static_cast<std::uint8_t>(0x30 + k + round),
                             static_cast<std::uint8_t>(seed)});
    }
  };
  if (seed == 0) {
    // Robot 0 is out at odd epochs; robot 1 last saw it at the center.
    const std::vector<sim::RobotIndex> seen =
        engine.initial_observation_order(1);
    const auto slot_of = [&](sim::RobotIndex r) {
      return static_cast<std::uint64_t>(
          std::find(seen.begin(), seen.end(), r) - seen.begin());
    };
    // Edge detector of robot 0 set; idle counter 2 % 3 planted on the
    // robot listed first.
    const std::uint64_t garbage = 2 | (slot_of(0) << 8);
    const auto frame = [&] {
      robots[0]->send_message((robots[0]->self_slot() + 1) % n,
                              std::vector<std::uint8_t>{0x5a, 0xc3});
    };
    frame();
    for (sim::Time t = 0; t < 300; ++t) {
      if (t == 11) robots[1]->corrupt_state(proto::CorruptKind::phase, garbage);
      if (t == 150) frame();
      engine.step();
    }
  } else {
    queue(0);
  }
  for (sim::Time t = 0; seed != 0 && t < 420; ++t) {
    if (t == 200) queue(1);
    // Phase corruptions mid-frame (edge detectors and idle counters
    // scrambled), naming corruptions (the next activation's audit
    // repairs them and resets every stream).
    if (t % 37 == 11) {
      robots[(t / 37) % n]->corrupt_state(proto::CorruptKind::phase,
                                          rng.uniform_int(0, ~0ULL - 1));
    }
    if (t % 53 == 29) {
      robots[(t / 53 + 3) % n]->corrupt_state(proto::CorruptKind::naming,
                                              rng.uniform_int(0, ~0ULL - 1));
    }
    engine.step();
  }
  std::vector<std::string> out = std::move(log.lines);
  for (std::size_t i = 0; i < n; ++i) {
    for (const auto& [kind, messages] :
         {std::pair{"inbox ", robots[i]->take_inbox()},
          std::pair{"overheard ", robots[i]->take_overheard()}}) {
      for (const proto::ReceivedMessage& m : messages) {
        out.push_back(kind + std::to_string(i) + " from " +
                      std::to_string(m.sender) + " size " +
                      std::to_string(m.payload.size()));
      }
    }
  }
  return out;
}

TEST(SyncSliced, LiveDecodingMatchesTheFullLoopThroughCorruption) {
  // Decoding only the peers whose memo changed or whose idle counter
  // still runs must emit exactly the events of a loop over every peer —
  // bits, deliveries, phases — through phase corruptions and audit
  // repairs, at a size where snapshots carry usable change hints.
  for (const std::uint64_t seed : {0u, 3u, 4u, 5u}) {
    for (const proto::NamingMode naming :
         {proto::NamingMode::lexicographic, proto::NamingMode::relative}) {
      const std::size_t n = 24;
      const auto live = corrupted_chat(n, seed, naming, [naming] {
        proto::SyncSlicedOptions opt;
        opt.naming = naming;
        opt.sigma_local = FullLoopSliced::kSigma;
        return std::make_unique<proto::SyncSlicedRobot>(opt);
      });
      const auto full = corrupted_chat(n, seed, naming, [naming] {
        return std::make_unique<FullLoopSliced>(naming);
      });
      ASSERT_GT(full.size(), 100u);
      if (seed == 0) {
        // Robot 1 lost the first frame and read the second.
        EXPECT_EQ(std::count_if(full.begin(), full.end(),
                                [](const std::string& line) {
                                  return line.rfind("overheard 1 ", 0) == 0 ||
                                         line.rfind("inbox 1 ", 0) == 0;
                                }),
                  1);
      }
      std::size_t first = 0;
      while (first < live.size() && first < full.size() &&
             live[first] == full[first]) {
        ++first;
      }
      EXPECT_EQ(live.size(), full.size()) << "seed " << seed;
      EXPECT_EQ(first, std::min(live.size(), full.size()))
          << "seed " << seed << ": first difference "
          << (first < live.size() ? live[first] : "(end)") << " vs "
          << (first < full.size() ? full[first] : "(end)");
    }
  }
}

// Property sweep over swarm sizes and seeds: random sender/receiver pairs.
class SlicedPropertyTest
    : public ::testing::TestWithParam<std::tuple<std::size_t, bool>> {};

TEST_P(SlicedPropertyTest, RandomPairsDeliver) {
  const auto [n, sod] = GetParam();
  for (std::uint64_t seed = 1; seed <= 5; ++seed) {
    ChatNetworkOptions opt = sliced_options(false, sod);
    opt.seed = seed;
    sim::Rng rng(seed * 51);
    ChatNetwork net(scatter(n, seed * 7 + n), opt);
    const std::size_t sender = rng.uniform_int(0, n - 1);
    std::size_t receiver;
    do {
      receiver = rng.uniform_int(0, n - 1);
    } while (receiver == sender);
    const auto msg = random_payload(1 + seed % 9, seed);
    net.send(sender, receiver, msg);
    ASSERT_TRUE(net.run_until_quiescent(50'000))
        << "n=" << n << " seed=" << seed;
    net.run(4);
    ASSERT_EQ(net.received(receiver).size(), 1u)
        << "n=" << n << " seed=" << seed;
    EXPECT_EQ(net.received(receiver)[0].payload, msg);
    EXPECT_EQ(net.received(receiver)[0].from, sender);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SlicedPropertyTest,
    ::testing::Combine(::testing::Values<std::size_t>(2, 3, 4, 8, 16, 32),
                       ::testing::Bool()));

}  // namespace
}  // namespace stig
