// Necessity tests: the paper's capability assumptions are not decoration —
// violating them breaks the protocols. Each test builds the engine directly
// (ChatNetwork enforces consistent capabilities, so we go underneath it) and
// shows that breaking chirality or sense of direction misroutes or destroys
// messages, while the matching positive control delivers.
#include <gtest/gtest.h>

#include "encode/bits.hpp"
#include "proto/sync2.hpp"
#include "proto/sync_sliced.hpp"
#include "sim/engine.hpp"
#include "sim/rng.hpp"

#include "listing_reference.hpp"

namespace stig {
namespace {

using geom::Vec2;

std::vector<Vec2> pentagon() {
  std::vector<Vec2> pts;
  for (int i = 0; i < 5; ++i) {
    const double a = geom::kTwoPi * i / 5.0 + 0.37;  // Not axis-aligned.
    pts.push_back(Vec2{9 * std::cos(a) + 0.3 * i, 9 * std::sin(a)});
  }
  return pts;
}

struct SlicedWorld {
  std::vector<proto::SyncSlicedRobot*> robots;
  std::unique_ptr<sim::Engine> engine;
};

/// Builds a sliced-protocol world with per-robot frame control.
SlicedWorld make_sliced(const std::vector<Vec2>& pts,
                        proto::NamingMode naming,
                        const std::vector<double>& rotations,
                        const std::vector<bool>& mirrored) {
  SlicedWorld w;
  std::vector<sim::RobotSpec> specs;
  std::vector<std::unique_ptr<sim::Robot>> programs;
  for (std::size_t i = 0; i < pts.size(); ++i) {
    sim::RobotSpec s;
    s.position = pts[i];
    s.sigma = 0.25;
    s.frame_rotation = rotations[i];
    s.frame_mirrored = mirrored[i];
    specs.push_back(s);
    proto::SyncSlicedOptions o;
    o.naming = naming;
    o.sigma_local = 0.25;
    auto r = std::make_unique<proto::SyncSlicedRobot>(o);
    w.robots.push_back(r.get());
    programs.push_back(std::move(r));
  }
  w.engine = std::make_unique<sim::Engine>(
      std::move(specs), std::move(programs),
      std::make_unique<sim::SynchronousScheduler>());
  return w;
}

/// Runs until the sender drains its outbox, then reports whether the
/// intended receiver got exactly the payload.
bool delivered(SlicedWorld& w, std::size_t sender_idx,
               std::size_t receiver_slot_on_sender,
               const std::vector<std::uint8_t>& payload,
               proto::SyncSlicedRobot* receiver) {
  w.robots[sender_idx]->send_message(receiver_slot_on_sender, payload);
  for (int t = 0;
       t < 100000 && !w.robots[sender_idx]->send_queue_empty(); ++t) {
    w.engine->step();
  }
  w.engine->step();
  w.engine->step();
  for (auto& m : receiver->take_inbox()) {
    if (m.payload == payload) return true;
  }
  return false;
}

TEST(Necessity, ChiralityRequiredForRelativeNaming) {
  const auto pts = pentagon();
  const auto payload = encode::bytes_of("chir");
  const std::vector<double> rot{0.5, 1.1, 2.9, 4.0, 0.1};

  // Positive control: all right-handed (chirality holds), arbitrary
  // rotations — relative naming delivers.
  {
    SlicedWorld w = make_sliced(pts, proto::NamingMode::relative, rot,
                                {false, false, false, false, false});
    // Address "the robot at pts[3]": its t0 index in the sender's snapshot
    // -> its slot in the sender's labeling.
    const auto order = oracle::t0_listing(*w.engine, 0);
    const auto t0_index = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), 3u) - order.begin());
    const std::size_t slot = w.robots[0]->slot_of_t0_index(t0_index);
    EXPECT_TRUE(delivered(w, 0, slot, payload, w.robots[3]));
  }

  // Violation: one robot left-handed among right-handed peers. Its notion
  // of "clockwise" is reversed, so the labeling it reconstructs for others
  // (and they for it) disagrees: the message must NOT arrive at the
  // intended robot.
  {
    SlicedWorld w = make_sliced(pts, proto::NamingMode::relative, rot,
                                {false, false, false, true, false});
    const auto order = oracle::t0_listing(*w.engine, 0);
    const auto t0_index = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), 3u) - order.begin());
    const std::size_t slot = w.robots[0]->slot_of_t0_index(t0_index);
    EXPECT_FALSE(delivered(w, 0, slot, payload, w.robots[3]))
        << "a robot with opposite handedness must not decode correctly";
  }
}

TEST(Necessity, SenseOfDirectionRequiredForLexicographicNaming) {
  const auto pts = pentagon();
  const auto payload = encode::bytes_of("nsew");

  // Positive control: all rotations equal (a common compass, even if not
  // global North) — lexicographic naming delivers.
  {
    SlicedWorld w =
        make_sliced(pts, proto::NamingMode::lexicographic,
                    {0.7, 0.7, 0.7, 0.7, 0.7},
                    {false, false, false, false, false});
    const auto order = oracle::t0_listing(*w.engine, 1);
    const auto t0_index = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), 4u) - order.begin());
    const std::size_t slot = w.robots[1]->slot_of_t0_index(t0_index);
    EXPECT_TRUE(delivered(w, 1, slot, payload, w.robots[4]));
  }

  // Violation: one robot's compass is rotated ~90 degrees. Its
  // lexicographic order of the configuration differs, so the shared
  // labeling assumption collapses.
  {
    SlicedWorld w =
        make_sliced(pts, proto::NamingMode::lexicographic,
                    {0.7, 0.7, 0.7, 0.7, 0.7 + geom::kPi / 2},
                    {false, false, false, false, false});
    const auto order = oracle::t0_listing(*w.engine, 1);
    const auto t0_index = static_cast<std::size_t>(
        std::find(order.begin(), order.end(), 4u) - order.begin());
    const std::size_t slot = w.robots[1]->slot_of_t0_index(t0_index);
    EXPECT_FALSE(delivered(w, 1, slot, payload, w.robots[4]))
        << "a robot with a skewed compass must not receive correctly";
  }
}

TEST(Necessity, Sync2NeedsChiralityForBitPolarity) {
  const auto payload = encode::bytes_of("lr");
  const auto run_pair = [&](bool mirror_receiver) {
    std::vector<sim::RobotSpec> specs{
        {.position = Vec2{0, 0}, .sigma = 0.25},
        {.position = Vec2{6, 2},
         .sigma = 0.25,
         .frame_mirrored = mirror_receiver}};
    proto::Sync2Options o;
    o.sigma_local = 0.25;
    auto a = std::make_unique<proto::Sync2Robot>(o);
    auto b = std::make_unique<proto::Sync2Robot>(o);
    auto* sender = a.get();
    auto* receiver = b.get();
    std::vector<std::unique_ptr<sim::Robot>> programs;
    programs.push_back(std::move(a));
    programs.push_back(std::move(b));
    sim::Engine engine(specs, std::move(programs),
                       std::make_unique<sim::SynchronousScheduler>());
    sender->send_message(1, payload);
    for (int t = 0; t < 100000 && !sender->send_queue_empty(); ++t) {
      engine.step();
    }
    engine.step();
    engine.step();
    for (auto& m : receiver->take_inbox()) {
      if (m.payload == payload) return true;
    }
    return false;
  };
  EXPECT_TRUE(run_pair(false));
  // An opposite-handed receiver reads every bit inverted: the frame's CRC
  // rejects it (or the length field explodes) — nothing correct arrives.
  EXPECT_FALSE(run_pair(true))
      << "opposite handedness flips right/left and must garble the stream";
}

}  // namespace
}  // namespace stig
