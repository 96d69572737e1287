// Association by proved candidate (DESIGN.md §10, §14).
//
// SlicedCore::observe tries each snapshot entry against the granular the
// entry's token went to last time, accepts it only at that granular's memo
// bits or within 0.9 of its radius, and scans the t0 centers otherwise.
// Whatever the tokens, every observe must leave what a brute-force
// nearest-center association leaves: here three cores watch the same
// engine chats — one fed the engine's views (robot tokens), one owning
// copies (slot tokens), one views whose tokens a fixed permutation
// scrambles — and each must match the reference in memo positions,
// signals and changed granulars after every observe, through listing
// shifts, limited visibility, teleports and jitter shoves.
//
// Also pinned: a fault-free hinted chat never searches, `min_radius` is
// the minimum radius bit for bit, and a chat's run keeps no per-robot
// structure over the swarm (at most 8 bytes per pair of robots).
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "geom/sec.hpp"
#include "geom/voronoi.hpp"
#include "obs/alloc_track.hpp"
#include "proto/asyncn.hpp"
#include "proto/naming.hpp"
#include "proto/slices.hpp"
#include "proto/sync_sliced.hpp"
#include "sim/engine.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig {
namespace {

using geom::Vec2;
using proto::NamingMode;
using proto::SlicedCore;
using sim::Snapshot;

Vec2 unit(double angle) { return Vec2{std::cos(angle), std::sin(angle)}; }

/// What a core's memo must read after an observe: every entry, in listing
/// order, goes to its nearest t0 center (lowest index on ties) and writes
/// its position there, a later entry overwriting an earlier one; a
/// granular no entry fills reads as zero and keeps its last position for
/// the next comparison. A granular changed when an entry wrote it other
/// bits than it held, or it went vacant or was filled again.
class Reference {
 public:
  Reference(std::vector<Vec2> centers, NamingMode naming,
            std::size_t diameters)
      : centers_(std::move(centers)),
        memo_(centers_),
        vacant_(centers_.size(), false) {
    const std::size_t n = centers_.size();
    std::vector<Vec2> references(n, Vec2{0.0, 1.0});
    if (naming == NamingMode::relative) {
      const geom::Circle sec = geom::smallest_enclosing_circle(centers_);
      for (std::size_t i = 0; i < n; ++i) {
        references[i] = proto::horizon_direction(centers_, i, sec);
      }
    }
    for (std::size_t i = 0; i < n; ++i) {
      granulars_.emplace_back(centers_[i],
                              geom::granular_radius(centers_, i), diameters,
                              references[i]);
    }
  }

  void observe(const sim::ObservedList& robots) {
    const std::size_t n = centers_.size();
    std::vector<bool> filled(n, false);
    std::vector<bool> wrote(n, false);
    for (std::size_t k = 0; k < robots.size(); ++k) {
      const Vec2& p = robots.position(k);
      std::size_t best = 0;
      double best_d2 = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        const double d2 = geom::dist2(p, centers_[i]);
        if (d2 < best_d2) {
          best_d2 = d2;
          best = i;
        }
      }
      filled[best] = true;
      if (!geom::same_bits(p, memo_[best])) {
        memo_[best] = p;
        wrote[best] = true;
      }
    }
    changed.clear();
    for (std::size_t g = 0; g < n; ++g) {
      if (wrote[g] || filled[g] == vacant_[g]) {
        changed.push_back(static_cast<std::uint32_t>(g));
      }
      vacant_[g] = !filled[g];
    }
  }

  [[nodiscard]] Vec2 position(std::size_t g) const {
    return vacant_[g] ? Vec2{} : memo_[g];
  }

  [[nodiscard]] std::optional<proto::Signal> signal(std::size_t g) const {
    const geom::Granular& gr = granulars_[g];
    const auto fix = gr.classify(position(g), 1e-7 * gr.radius(),
                                 gr.slice_width() / 4.0);
    if (!fix) return std::nullopt;
    return proto::Signal{fix->diameter, fix->side};
  }

  [[nodiscard]] std::size_t size() const { return centers_.size(); }

  std::vector<std::uint32_t> changed;

 private:
  std::vector<Vec2> centers_;
  std::vector<geom::Granular> granulars_;
  std::vector<Vec2> memo_;
  std::vector<bool> vacant_;
};

/// One observer's three cores and the reference, fed every snapshot it
/// receives. Mismatches are counted; the first is described.
class Tap {
 public:
  Tap(NamingMode naming, std::vector<std::uint32_t> scramble,
      std::vector<std::optional<sim::VisibleId>> ids)
      : naming_(naming), scramble_(std::move(scramble)), ids_(std::move(ids)) {
    scrambled_ids_.resize(ids_.size());
    for (std::size_t j = 0; j < ids_.size(); ++j) {
      scrambled_ids_[scramble_[j]] = ids_[j];
    }
  }

  void start(const Snapshot& t0) {
    const std::size_t n = t0.robots.size();
    ASSERT_TRUE(t0.robots.robot_tokens()) << "not an engine view";
    std::vector<Vec2> centers;
    for (std::size_t k = 0; k < n; ++k) {
      centers.push_back(t0.robots.position(k));
    }
    view_ = std::make_unique<SlicedCore>(t0, naming_, n);
    const Snapshot copy = t0;
    copy_ = std::make_unique<SlicedCore>(copy, naming_, n);
    scrambled_ = std::make_unique<SlicedCore>(
        scrambled(t0, scrambled_ids_.data()), naming_, n);
    reference_ = std::make_unique<Reference>(centers, naming_, n);
  }

  void check(const Snapshot& snap) {
    ++observes_;
    hinted_ += snap.hint.known ? 1 : 0;
    view_->observe(snap);
    const Snapshot copy = snap;
    copy_->observe(copy);
    scrambled_->observe(scrambled(snap, nullptr));
    reference_->observe(snap.robots);
    compare(*view_, "view", snap.t);
    compare(*copy_, "copy", snap.t);
    compare(*scrambled_, "scrambled", snap.t);
  }

  [[nodiscard]] std::size_t mismatches() const { return mismatches_; }
  [[nodiscard]] const std::string& first() const { return first_; }
  [[nodiscard]] std::size_t observes() const { return observes_; }
  [[nodiscard]] std::size_t hinted() const { return hinted_; }
  [[nodiscard]] std::uint64_t view_searches() const {
    return view_->searches();
  }
  [[nodiscard]] bool tracks() const { return view_->tracks_changes(); }

 private:
  /// `snap` as a view over copies of its positions whose token k is
  /// `scramble_[snap token k]`: consistent, but not the engine's.
  Snapshot scrambled(const Snapshot& snap,
                     const std::optional<sim::VisibleId>* ids) {
    const std::size_t n = snap.robots.size();
    positions_.resize(n);
    tokens_.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      positions_[k] = snap.robots.position(k);
      tokens_[k] = scramble_[snap.robots.token(k)];
    }
    Snapshot out;
    out.t = snap.t;
    out.self = snap.self;
    out.hint = snap.hint;
    out.robots.view(positions_.data(), tokens_.data(), ids, n);
    return out;
  }

  void compare(SlicedCore& core, const char* which, sim::Time t) {
    std::ostringstream why;
    // A core of at most sim::kUnhintedSwarmMax robots (a small view
    // under a visibility radius) records no changes.
    const std::span<const std::uint32_t> got = core.changed();
    const std::vector<std::uint32_t>& want = reference_->changed;
    if (core.tracks_changes() &&
        !std::equal(got.begin(), got.end(), want.begin(), want.end())) {
      why << "changed() has " << got.size() << " granulars, reference "
          << want.size();
    }
    for (std::size_t g = 0; g < reference_->size() && why.str().empty();
         ++g) {
      if (!geom::same_bits(core.position(g), reference_->position(g))) {
        why << "granular " << g << " at " << core.position(g)
            << ", reference " << reference_->position(g);
      } else if (core.signal(g) != reference_->signal(g)) {
        why << "granular " << g << " signal differs";
      }
    }
    if (why.str().empty()) return;
    if (mismatches_++ == 0) {
      first_ = std::string(which) + " core, t=" + std::to_string(t) + ": " +
               why.str();
    }
  }

  NamingMode naming_;
  std::vector<std::uint32_t> scramble_;
  std::vector<std::optional<sim::VisibleId>> ids_;
  std::vector<std::optional<sim::VisibleId>> scrambled_ids_;
  std::unique_ptr<SlicedCore> view_, copy_, scrambled_;
  std::unique_ptr<Reference> reference_;
  std::vector<Vec2> positions_;
  std::vector<std::uint32_t> tokens_;
  std::size_t mismatches_ = 0;
  std::size_t observes_ = 0;
  std::size_t hinted_ = 0;
  std::string first_;
};

/// The t0 swarm in global coordinates, to place faults: no fault here puts
/// two robots nearest one t0 center (SlicedCore asserts against that).
struct Cells {
  std::vector<Vec2> home;
  std::vector<double> gap;  ///< Distance to the nearest other robot.
  std::vector<std::size_t> neighbour;  ///< That robot.

  explicit Cells(std::vector<Vec2> pts)
      : home(std::move(pts)), gap(home.size()), neighbour(home.size()) {
    for (std::size_t i = 0; i < home.size(); ++i) {
      double best = std::numeric_limits<double>::infinity();
      for (std::size_t j = 0; j < home.size(); ++j) {
        if (j != i && geom::dist(home[i], home[j]) < best) {
          best = geom::dist(home[i], home[j]);
          neighbour[i] = j;
        }
      }
      gap[i] = best;
    }
  }

  /// Inside robot i's Voronoi cell with a 2% margin: nearer its t0 point
  /// than any other in every frame.
  [[nodiscard]] bool own_cell(std::size_t i, const Vec2& p) const {
    return geom::dist(p, home[i]) < 0.49 * gap[i];
  }
};

/// Signals like a sliced sender: from its t0 point it goes out to a random
/// point of its granular and comes back, and it lingers half of its
/// activations, so robots return at different times. Pushed out of its
/// granular, it walks back, or with `stay_outside` waits to be put back.
class Mover final : public sim::Robot {
 public:
  Mover(std::uint64_t seed, Tap* tap, bool stay_outside)
      : rng_(seed), tap_(tap), stay_outside_(stay_outside) {}

  void initialize(const Snapshot& snap) override {
    home_ = snap.self_robot().position;
    double d2 = std::numeric_limits<double>::infinity();
    for (std::size_t k = 0; k < snap.robots.size(); ++k) {
      if (k != snap.self) {
        d2 = std::min(d2, geom::dist2(snap.robots.position(k), home_));
      }
    }
    radius_ = std::sqrt(d2) / 2.0;
    if (tap_ != nullptr) tap_->start(snap);
  }

  Vec2 on_activate(const Snapshot& snap) override {
    if (tap_ != nullptr) tap_->check(snap);
    const Vec2 cur = snap.self_robot().position;
    if (stay_outside_ && geom::dist(cur, home_) > radius_) return cur;
    if (rng_.uniform(0.0, 1.0) < 0.5) return cur;
    if (!geom::same_bits(cur, home_)) return home_;
    return home_ + unit(rng_.uniform(0.0, 6.3)) *
                       (rng_.uniform(0.1, 0.85) * radius_);
  }

 private:
  sim::Rng rng_;
  Tap* tap_;
  bool stay_outside_;
  Vec2 home_;
  double radius_ = 0.0;
};

/// Shoves one random robot by 0.2 to 1.4 global units after every
/// `period`-th instant's moves, within its own cell: inside its granular
/// or out of it.
class Shover final : public sim::StepInterceptor {
 public:
  Shover(std::uint64_t seed, sim::Time period, const Cells& cells)
      : rng_(seed), period_(period), cells_(cells) {}
  void on_activation(sim::Time, sim::ActivationSet&) override {}
  void on_positions(sim::Time t, std::span<Vec2> positions) override {
    if (t % period_ != period_ - 1) return;
    const auto j = static_cast<std::size_t>(
        rng_.uniform_int(0, static_cast<std::int64_t>(positions.size()) - 1));
    for (int attempt = 0; attempt < 16; ++attempt) {
      const Vec2 p = positions[j] +
                     unit(rng_.uniform(0.0, 6.3)) * rng_.uniform(0.2, 1.4);
      if (cells_.own_cell(j, p)) {
        positions[j] = p;
        return;
      }
    }
  }
  [[nodiscard]] bool crashed(sim::RobotIndex, sim::Time) const override {
    return false;
  }

 private:
  sim::Rng rng_;
  sim::Time period_;
  const Cells& cells_;
};

enum class Fault { none, visibility, teleport, jitter };

const char* fault_name(Fault f) {
  switch (f) {
    case Fault::none: return "none";
    case Fault::visibility: return "visibility";
    case Fault::teleport: return "teleport";
    case Fault::jitter: return "jitter";
  }
  return "?";
}

struct ChatCase {
  std::size_t n = 0;
  NamingMode naming = NamingMode::relative;
  bool synchronous = true;
  Fault fault = Fault::none;
  std::uint64_t seed = 0;
};

struct ChatOutcome {
  std::size_t observes = 0;
  std::size_t hinted = 0;
  std::uint64_t searches = 0;
};

/// Runs one chat of Movers with three observers tapped and checks every
/// tapped observe against the reference.
ChatOutcome run_chat(const ChatCase& c) {
  const std::string what =
      "n=" + std::to_string(c.n) + " " +
      (c.naming == NamingMode::by_ids ? "by_ids" : "relative") + " " +
      (c.synchronous ? "sync" : "async") + " " + fault_name(c.fault) +
      " seed=" + std::to_string(c.seed);
  sim::Rng rng(c.seed);
  std::vector<Vec2> start = sim::jittered_grid(rng, c.n);
  sim::EngineOptions options;
  if (c.fault == Fault::visibility) {
    // Two blocks far apart: each observer sees exactly its own block, so
    // its view holds fewer robots than the engine, with engine indices
    // (tokens) beyond its count.
    for (std::size_t i = 2 * c.n / 3; i < c.n; ++i) start[i].x += 1000.0;
    options.visibility_radius = 200.0;
  }
  const Cells cells(start);
  std::vector<sim::RobotSpec> specs;
  std::vector<std::optional<sim::VisibleId>> ids;
  for (std::size_t i = 0; i < c.n; ++i) {
    sim::RobotSpec s;
    s.position = start[i];
    s.sigma = 100.0;
    s.frame_rotation = rng.uniform(0.0, 6.3);
    s.frame_unit = rng.uniform(0.5, 2.0);
    if (c.naming == NamingMode::by_ids) {
      s.id = static_cast<sim::VisibleId>(1000 + 7 * i);
    }
    ids.push_back(s.id);
    specs.push_back(s);
  }
  std::vector<std::uint32_t> scramble(c.n);
  std::iota(scramble.begin(), scramble.end(), std::uint32_t{0});
  std::shuffle(scramble.begin(), scramble.end(), std::mt19937_64(c.seed));

  std::vector<std::unique_ptr<Tap>> taps;
  std::vector<std::unique_ptr<sim::Robot>> programs;
  const std::size_t observers[] = {0, c.n / 2, c.n - 1};
  for (std::size_t i = 0; i < c.n; ++i) {
    Tap* tap = nullptr;
    if (std::find(std::begin(observers), std::end(observers), i) !=
        std::end(observers)) {
      taps.push_back(std::make_unique<Tap>(c.naming, scramble, ids));
      tap = taps.back().get();
    }
    programs.push_back(std::make_unique<Mover>(
        c.seed * 1000 + i, tap, c.fault == Fault::teleport));
  }
  std::unique_ptr<sim::Scheduler> scheduler;
  if (c.synchronous) {
    scheduler = std::make_unique<sim::SynchronousScheduler>();
  } else {
    scheduler = std::make_unique<sim::BernoulliScheduler>(0.3, c.seed);
  }
  sim::Engine engine(specs, std::move(programs), std::move(scheduler),
                     options);
  Shover shover(c.seed + 1, 3, cells);
  if (c.fault == Fault::jitter) engine.set_step_interceptor(&shover);
  const sim::Time instants = c.synchronous ? 40 : 120;
  std::vector<std::size_t> displaced;
  for (sim::Time t = 0; t < instants; ++t) {
    if (c.fault == Fault::teleport && t % 8 == 1) {
      // One robot just past the own-slot proof of its granular (within
      // 0.92-0.98 of its radius), and a robot and its nearest neighbour
      // swapped into each other's cells. They stay until put back.
      const auto j = static_cast<std::size_t>(
          rng.uniform_int(0, static_cast<std::int64_t>(c.n) - 1));
      engine.teleport(j, cells.home[j] + unit(rng.uniform(0.0, 6.3)) *
                                             (rng.uniform(0.46, 0.49) *
                                              cells.gap[j]));
      const std::size_t a = (j + 1) % c.n;
      const std::size_t b = cells.neighbour[a];
      displaced = {j};
      if (b != j) {
        const Vec2 ab = cells.home[b] - cells.home[a];
        engine.teleport(a, cells.home[b] - ab * 0.1);
        engine.teleport(b, cells.home[a] + ab * 0.1);
        displaced.push_back(a);
        displaced.push_back(b);
      }
    }
    if (c.fault == Fault::teleport && t % 8 == 5) {
      for (const std::size_t i : displaced) engine.teleport(i, cells.home[i]);
      displaced.clear();
    }
    engine.step();
  }
  ChatOutcome out;
  for (const auto& tap : taps) {
    EXPECT_EQ(tap->mismatches(), 0u) << what << ": " << tap->first();
    out.observes += tap->observes();
    out.hinted += tap->hinted();
    out.searches += tap->view_searches();
    if (c.fault != Fault::visibility) {
      EXPECT_TRUE(tap->tracks()) << what;
    }
  }
  return out;
}

TEST(Association, EveryCoreMatchesTheBruteForceReference) {
  // Random chats at n = 17..300: both namings, synchronous and
  // asynchronous, with a visibility radius, teleports or jitter shoves.
  std::mt19937_64 pick(2024);
  std::size_t observes = 0;
  std::size_t hinted = 0;
  std::uint64_t faulted_searches = 0;
  for (const NamingMode naming : {NamingMode::relative, NamingMode::by_ids}) {
    for (const bool synchronous : {true, false}) {
      for (const Fault fault : {Fault::none, Fault::visibility,
                                Fault::teleport, Fault::jitter}) {
        for (int rep = 0; rep < 2; ++rep) {
          ChatCase c;
          c.n = rep == 0 ? 17 + pick() % 284
                         : (fault == Fault::none ? 300 : 17);
          c.naming = naming;
          c.synchronous = synchronous;
          c.fault = fault;
          c.seed = 7000 + pick() % 100000;
          const ChatOutcome o = run_chat(c);
          observes += o.observes;
          hinted += o.hinted;
          if (fault == Fault::teleport || fault == Fault::jitter) {
            faulted_searches += o.searches;
          }
        }
      }
    }
  }
  EXPECT_GT(observes, 1000u);
  EXPECT_GT(hinted, observes / 2) << "the hinted pass hardly ran";
  EXPECT_GT(faulted_searches, 0u) << "no fault ever needed a search";
}

const SlicedCore& core_of(const core::ChatNetwork& net, std::size_t i) {
  const proto::ChatRobot& robot = net.chat_robot(i);
  if (const auto* s = dynamic_cast<const proto::SyncSlicedRobot*>(&robot)) {
    return s->core();
  }
  return dynamic_cast<const proto::AsyncNRobot&>(robot).core();
}

core::ChatNetworkOptions chat_options(core::ProtocolKind protocol,
                                      NamingMode naming, std::uint64_t seed) {
  core::ChatNetworkOptions opt;
  opt.protocol = protocol;
  opt.synchrony = protocol == core::ProtocolKind::asyncn
                      ? core::Synchrony::asynchronous
                      : core::Synchrony::synchronous;
  opt.caps.visible_ids = naming == NamingMode::by_ids;
  opt.caps.sense_of_direction = naming == NamingMode::by_ids;
  opt.seed = seed;
  return opt;
}

TEST(Association, FaultFreeHintedChatsNeverSearch) {
  const std::vector<std::uint8_t> one_byte{0xA5};
  for (const core::ProtocolKind protocol :
       {core::ProtocolKind::sliced, core::ProtocolKind::asyncn}) {
    for (const NamingMode naming : {NamingMode::relative, NamingMode::by_ids}) {
      const std::size_t n = protocol == core::ProtocolKind::sliced ? 64 : 24;
      sim::Rng rng(31 + n);
      core::ChatNetwork net(sim::jittered_grid(rng, n),
                            chat_options(protocol, naming, 5));
      net.broadcast(0, one_byte);
      ASSERT_TRUE(net.run_until_quiescent(1'000'000));
      for (std::size_t i = 0; i < n; ++i) {
        const SlicedCore& core = core_of(net, i);
        ASSERT_TRUE(core.tracks_changes());
        EXPECT_EQ(core.searches(), 0u)
            << core::protocol_kind_name(protocol) << " robot " << i;
      }
    }
  }
}

TEST(Association, ATeleportIsSearchedFor) {
  sim::Rng rng(77);
  const std::size_t n = 64;
  core::ChatNetwork net(
      sim::jittered_grid(rng, n),
      chat_options(core::ProtocolKind::sliced, NamingMode::relative, 9));
  for (int t = 0; t < 3; ++t) net.step();
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < n; ++i) before += core_of(net, i).searches();
  EXPECT_EQ(before, 0u);
  // Past the own-slot proof of its granular, still in its own cell: every
  // observer's proof of robot 5's candidate fails.
  const Vec2 p5 = net.engine().spec(5).position;
  double gap = std::numeric_limits<double>::infinity();
  for (std::size_t i = 0; i < n; ++i) {
    if (i == 5) continue;
    gap = std::min(gap, geom::dist(p5, net.engine().spec(i).position));
  }
  net.engine().teleport(5, p5 + Vec2{0.47 * gap, 0.0});
  for (int t = 0; t < 3; ++t) net.step();
  std::uint64_t after = 0;
  for (std::size_t i = 0; i < n; ++i) after += core_of(net, i).searches();
  EXPECT_GT(after, 0u);
}

TEST(Association, MinRadiusIsTheSmallestRadiusBitForBit) {
  // Around 64 the closest pair moves from a scan to a grid; the pair is
  // placed at the first robot, the last, and wherever it falls.
  for (const std::size_t n : {2u, 63u, 64u, 65u, 300u}) {
    for (const int where : {0, 1, 2}) {
      sim::Rng rng(400 + n);
      std::vector<Vec2> centers = sim::jittered_grid(rng, n);
      if (where == 1) centers[0] = centers[1] + Vec2{0.37, -0.21};
      if (where == 2) centers[n - 1] = centers[n - 2] + Vec2{-0.29, 0.33};
      Snapshot t0;
      for (const Vec2& c : centers) {
        t0.robots.push_back(sim::ObservedRobot{c, std::nullopt});
      }
      const SlicedCore core(t0, NamingMode::lexicographic, n);
      double want = std::numeric_limits<double>::infinity();
      for (std::size_t i = 0; i < n; ++i) {
        want = std::min(want, geom::granular_radius(centers, i));
      }
      EXPECT_EQ(std::bit_cast<std::uint64_t>(core.min_radius()),
                std::bit_cast<std::uint64_t>(want))
          << "n=" << n << " placement " << where;
      for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(std::bit_cast<std::uint64_t>(core.radius(i)),
                  std::bit_cast<std::uint64_t>(
                      geom::granular_radius(centers, i)));
      }
    }
  }
}

TEST(Association, AChatRunAddsAtMostEightBytesPerPair) {
  if (!obs::alloc::active()) GTEST_SKIP() << "allocation tracking is off";
  const std::size_t n = 256;
  sim::Rng rng(1307);
  core::ChatNetwork net(
      sim::jittered_grid(rng, n),
      chat_options(core::ProtocolKind::sliced, NamingMode::relative, 1306));
  net.broadcast(0, std::vector<std::uint8_t>{0xA5});
  obs::alloc::reset_peak();
  const obs::alloc::Counters before = obs::alloc::snapshot();
  ASSERT_TRUE(net.run_until_quiescent(1'000'000));
  const obs::alloc::Counters after = obs::alloc::snapshot();
  const std::int64_t added = after.peak_live_bytes - before.live_bytes;
  EXPECT_LE(added, static_cast<std::int64_t>(8 * n * n))
      << "the run added " << added << " bytes above construction";
}

}  // namespace
}  // namespace stig
