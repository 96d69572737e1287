// The SSM execution engine.
//
// Drives robot programs through the Suzuki–Yamashita semi-synchronous cycle:
// at each instant the scheduler picks a non-empty active set; every active
// robot observes the configuration *at that instant* (a two-phase update —
// all observations happen before any move is applied, matching "computes a
// position depending only on the system configuration at t_j"), computes a
// destination in its local frame, and travels toward it by at most sigma_r.
// Each step is recorded here and nowhere else: one pair scan of the new
// configuration yields both its minimum separation and its first colliding
// pair, and the engine folds the instant into per-robot MotionStats and the
// run's minimum separation, emitting the same facts as Activation, Move and
// StepComplete events when a sink is attached (DESIGN.md §15).
//
// World state lives in an epoch ring: one immutable position array per
// instant, kept for the last `observation_delay + 2` instants. Instant e's
// configuration occupies slot `e % capacity`; `positions()` is a span over
// the newest slot, observations read the (possibly stale) slots in place,
// and a step writes the next configuration into the slot it is about to
// recycle. Robots never receive copies of the configuration — every
// consumer shares the one array per instant (the PR-8 copy-on-write
// snapshot refactor; see DESIGN.md "Epoch snapshots").
//
// Construction lists every observer's t0 snapshot once: an identified
// swarm in its fixed id order, an anonymous observer's lexicographic by
// local position as std::sort from index order lists it (sim/listing.hpp
// gets there by a bucket pass). `listing(i)` exposes that
// order until the first step, so core::ChatNetwork builds its slot and
// naming tables from it before `wake` hands each robot its t0 snapshot.
// The engine keeps the order each observer listed last (4n^2 bytes per
// anonymous swarm). In a swarm of at most kUnhintedSwarmMax robots an
// activation sights every robot and repairs that order with an insertion
// sort, O(n + inversions), falling back to a fresh std::sort on an exact
// tie (DESIGN.md §10).
//
// Above kUnhintedSwarmMax robots a look reads and writes the observer's
// stored rows in place. The engine keeps each observer's listed local
// positions and a row index per robot beside its order (24n^2 bytes in
// all) and logs every position write, so a look re-sights only the robots
// written since the observer's last look (everyone when that look is
// older than the log), moves each changed row to its sorted place, and
// re-sorts from scratch only while the listing holds an exact tie. The
// robot then reads the rows themselves: its snapshot is a view, and its
// change hint lists the slots that changed or moved (DESIGN.md §14).
#pragma once

#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <span>
#include <stdexcept>
#include <utility>
#include <vector>

#include "geom/point_grid.hpp"
#include "geom/vec.hpp"
#include "obs/cov.hpp"
#include "obs/metrics.hpp"
#include "obs/prof.hpp"
#include "obs/sink.hpp"
#include "sim/frame.hpp"
#include "sim/robot.hpp"
#include "sim/scheduler.hpp"
#include "sim/types.hpp"

namespace stig::sim {

/// Static description of one robot: where it starts, how far it can travel
/// per activation, and how its private coordinate frame is oriented.
struct RobotSpec {
  geom::Vec2 position;          ///< Global position at t0.
  double sigma = 1.0;           ///< Max distance per activation (sigma_r).
  double frame_rotation = 0.0;  ///< CCW angle of local +y from global +y.
  double frame_unit = 1.0;      ///< Global length of one local unit (> 0).
  bool frame_mirrored = false;  ///< Left-handed frame when true.
  std::optional<VisibleId> id;  ///< Visible identifier (identified systems).
};

/// The private frame `spec` describes, anchored at its t0 position.
[[nodiscard]] inline Frame frame_of(const RobotSpec& spec) noexcept {
  return Frame(spec.position, spec.frame_rotation, spec.frame_unit,
               spec.frame_mirrored);
}

/// Two robots at most this far apart collide: at t0 the engine refuses
/// them, after a step it throws CollisionError.
inline constexpr double kCollisionDistance = 1e-12;

/// Per-robot cumulative motion statistics: what the harness measures per
/// bit (EXPERIMENTS.md) and the idle moves of a silent protocol (Section 5).
struct MotionStats {
  std::uint64_t activations = 0;  ///< Times the scheduler activated it.
  std::uint64_t moves = 0;        ///< Activations that changed its position.
  double distance = 0.0;          ///< Total Euclidean distance traveled.
};

/// Engine construction options.
struct EngineOptions {
  /// Sensor resolution (Section 5 "computation errors due to round off"):
  /// when positive, every *observed* position of another robot is snapped
  /// to this global grid before entering the observer's snapshot. The
  /// observer's own entry stays exact (odometry). 0 = ideal sensors.
  double observation_quantum = 0.0;

  /// Observation staleness (a step toward the CORDA-style non-atomic
  /// look-compute-move cycle): observed positions of *other* robots are
  /// `observation_delay` instants old; the robot's own entry stays current
  /// (odometry). 0 = the SSM's atomic cycle.
  Time observation_delay = 0;

  /// Limited visibility (Section 5 open problem): when positive, a robot's
  /// snapshot contains only robots within this global distance of it (the
  /// robot itself always included). 0 = unlimited visibility.
  double visibility_radius = 0.0;
};

/// Thrown when the collision-avoidance invariant is violated.
class CollisionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Hook invoked inside every `Engine::step` — the fault-injection
/// subsystem's attachment point (src/fault). The engine consults it twice
/// per instant: once to let it mask the scheduler's activation set
/// (crash-stop and stuck-robot faults), and once after the moves are
/// applied to let it displace robots (transient perturbation). It never
/// participates in fault-free runs; the engine pays one branch when
/// detached.
class StepInterceptor {
 public:
  StepInterceptor() = default;
  StepInterceptor(const StepInterceptor&) = delete;
  StepInterceptor& operator=(const StepInterceptor&) = delete;
  virtual ~StepInterceptor() = default;

  /// Called with the activation set the scheduler proposed for instant
  /// `t`; may clear entries. Unlike a scheduler, the masked set MAY be
  /// empty — an instant where every would-be-active robot is crashed or
  /// stalled simply passes with no activations.
  virtual void on_activation(Time t, ActivationSet& active) = 0;

  /// Called after the instant's moves are applied, before the step
  /// completes; may displace robots in place (the span aliases the
  /// engine's next-instant ring slot). The engine emits a Teleport event
  /// for every modified position (so the watchdog re-anchors) and re-runs
  /// the collision check.
  virtual void on_positions(Time t, std::span<geom::Vec2> positions) = 0;

  /// True when robot `i` is crash-stopped at instant `t` (it will never be
  /// activated at or after `t`). Lets ChatNetwork's quiescence ignore
  /// outboxes that can never drain.
  [[nodiscard]] virtual bool crashed(RobotIndex i, Time t) const = 0;
};

/// Owns the robots, the scheduler and the world state; advances time.
class Engine {
 public:
  /// Lists every robot's t0 snapshot; `wake` then hands the programs
  /// theirs. Precondition: `specs` is non-empty; positions are pairwise
  /// distinct; either every spec has a visible id (identified system) or
  /// none has (anonymous system).
  Engine(std::vector<RobotSpec> specs, std::unique_ptr<Scheduler> scheduler,
         EngineOptions options = {});

  /// Lists t0 and wakes `programs` (one per spec) at once.
  Engine(std::vector<RobotSpec> specs,
         std::vector<std::unique_ptr<Robot>> programs,
         std::unique_ptr<Scheduler> scheduler, EngineOptions options = {});

  /// Calls `Robot::initialize` on every program, one per spec in index
  /// order, with its t0 snapshot (the paper's "all the robots are awake
  /// in t0"). Exactly once, before the first `step` or `teleport`.
  void wake(std::vector<std::unique_ptr<Robot>> programs);

  /// Advances one instant.
  void step();

  /// Advances `instants` instants.
  void run(Time instants);

  /// Advances until `done()` returns true or `max_instants` elapse; returns
  /// true when the predicate fired.
  bool run_until(const std::function<bool()>& done, Time max_instants);

  [[nodiscard]] Time now() const noexcept { return t_; }
  [[nodiscard]] std::size_t robot_count() const noexcept {
    return specs_.size();
  }
  /// The current configuration — a view of the newest epoch-ring slot.
  /// Valid until `config_epoch()` leaves the live window (i.e. for the
  /// next `observation_delay + 1` steps); copy it to keep it longer.
  [[nodiscard]] std::span<const geom::Vec2> positions() const noexcept {
    return ring_[slot(t_)];
  }
  /// Epoch (== instant) of the configuration `positions()` views.
  [[nodiscard]] Time config_epoch() const noexcept { return t_; }
  /// True while the configuration of instant `e` is still held by the
  /// epoch ring (the last `observation_delay + 2` instants). Spans
  /// obtained at epoch `e` — `positions()`, `config(e)`, observation
  /// inputs — dangle once this turns false.
  [[nodiscard]] bool epoch_live(Time e) const noexcept {
    return e <= t_ && t_ - e < ring_.size();
  }
  /// The configuration at instant `e`. Precondition: `epoch_live(e)`.
  [[nodiscard]] std::span<const geom::Vec2> config(Time e) const {
    if (!epoch_live(e)) {
      throw std::out_of_range("Engine::config: epoch no longer live");
    }
    return ring_[slot(e)];
  }
  [[nodiscard]] const RobotSpec& spec(RobotIndex i) const {
    return specs_.at(i);
  }
  [[nodiscard]] const Frame& frame(RobotIndex i) const { return frames_.at(i); }
  [[nodiscard]] Robot& program(RobotIndex i) { return *programs_.at(i); }
  [[nodiscard]] const Robot& program(RobotIndex i) const {
    return *programs_.at(i);
  }
  [[nodiscard]] bool identified() const noexcept { return identified_; }

  /// Robot i's motion over the steps taken (a step that threw counts
  /// nothing): the fold of its Activation and Move events.
  [[nodiscard]] const MotionStats& motion(RobotIndex i) const {
    return motion_.at(i);
  }
  /// Smallest pairwise separation of any configuration a step produced
  /// (+infinity before the first step): the fold of the StepComplete
  /// events. The collision-avoidance invariant is `min_separation() > 0`.
  [[nodiscard]] double min_separation() const noexcept {
    return min_separation_;
  }

  /// Routes telemetry events (Activation, Move, StepComplete, Collision,
  /// Teleport) into `sink`; null detaches. The hot path pays one branch
  /// when detached and one virtual dispatch per event when attached — the
  /// motion counters keep updating either way.
  void set_event_sink(obs::EventSink* sink) noexcept { sink_ = sink; }

  /// Attaches a fault-injection interceptor (not owned; must outlive the
  /// engine; null detaches). See StepInterceptor.
  void set_step_interceptor(StepInterceptor* interceptor) noexcept {
    interceptor_ = interceptor;
  }

  /// Registers engine-level metrics into `registry` (currently the
  /// `engine.step_wall_ns` histogram: wall time per `step()` in
  /// nanoseconds); null detaches and stops the timing.
  void set_metrics(obs::MetricsRegistry* registry);

  /// Attaches a cycle/allocation profiler (not owned; null detaches).
  /// Registers the engine phases — engine.step > {engine.sched,
  /// engine.observe, engine.compute, engine.commit, engine.emit} — and
  /// brackets each in every subsequent `step()`. Detached, the hot path
  /// pays one null check per phase; see obs/prof.hpp.
  void set_profiler(obs::prof::Profiler* profiler);

  /// Attaches a coverage map (not owned; null detaches). Records
  /// sched-domain 2-grams over interleaving classes: each instant's
  /// post-mask activation set is bucketed (none/one/few/most/all) and the
  /// (previous class -> current class) edge is hit. Detached, the hot path
  /// pays one null check per step.
  void set_coverage(obs::cov::CovMap* map);

  /// Builds the snapshot robot `i` would observe right now (for tests and
  /// probes; `step` hands robots their stored rows instead). Works on a
  /// copy of robot i's stored rows, so its hint is relative to i's last
  /// snapshot from `step` and the next one is too. The snapshot owns its
  /// entries.
  [[nodiscard]] Snapshot make_snapshot(RobotIndex i) const;

  /// Robot `i`'s stored listing: the engine index of each of its rows.
  /// Until the first step it is the t0 listing the constructor sorted —
  /// the robots it sees in the order of its t0 snapshot (by id, or by the
  /// local position it sees, the others' snapped to the sensor quantum),
  /// then the hidden ones in index order — which core::ChatNetwork reads
  /// between construction and `wake`. Later looks reorder it.
  [[nodiscard]] std::span<const std::uint32_t> listing(
      RobotIndex i) const noexcept {
    const std::size_t n = specs_.size();
    return {orders_.data() + (orders_.size() == n ? 0 : i * n), n};
  }

  /// Listing rows the looks of every step so far visited: each robot
  /// sighted, each row a moved row shifted past, each row a from-scratch
  /// sort listed, and each entry handed to a robot as changed (every
  /// entry of an unhinted snapshot, the hinted slots of a hinted one). A
  /// deterministic work count: O(n) per look in a small swarm, O(what
  /// moved) in a hinted one.
  [[nodiscard]] std::uint64_t row_visits() const noexcept {
    return row_visits_;
  }

  /// Fault injection: instantly moves robot `i` to `global_position`
  /// (bypassing its program and sigma). Models a transient fault — a shove,
  /// a sensor glitch that mislocalized a recovery move, a restart at the
  /// wrong point. Used by the stabilization tests; never called by
  /// protocols. Throws CollisionError if the new position collides.
  ///
  /// Mutates the current epoch's slot in place: prior epochs (stale
  /// observations already in flight) keep their recorded positions, which
  /// is exactly what a physical shove does.
  void teleport(RobotIndex i, const geom::Vec2& global_position);

 private:
  /// What an observer sees of one robot: its observed position and id,
  /// and whether it is within the visibility radius.
  struct Sighting {
    ObservedRobot obs;
    bool visible = true;
  };

  [[nodiscard]] std::size_t slot(Time e) const noexcept {
    return static_cast<std::size_t>(e % ring_.size());
  }

  [[nodiscard]] std::span<std::uint32_t> listing(RobotIndex i) noexcept {
    const std::size_t n = specs_.size();
    return {orders_.data() + (orders_.size() == n ? 0 : i * n), n};
  }

  /// A hinted swarm's stored rows of one observer: the robot at each row
  /// (`listing`), the local position it was listed at, and each robot's
  /// row. The first `Look::shown` rows are the visible ones in snapshot
  /// order; the hidden ones follow. Views into the engine's arrays, or
  /// copies (make_snapshot).
  struct Rows {
    std::span<std::uint32_t> order;
    std::span<geom::Vec2> position;
    std::span<std::uint32_t> row_of;
  };

  /// What an observer's stored rows account for: every position write up
  /// to `others` for the other robots (the count when the epoch they were
  /// read at became final) and up to `self` for its own; the `t` of the
  /// snapshot they listed; how many rows are visible; whether two visible
  /// rows are exactly tied.
  struct Look {
    std::uint64_t others = 0;
    std::uint64_t self = 0;
    Time t = 0;
    std::uint32_t shown = 0;
    bool tied = false;
  };

  /// Scratch a hinted look needs beyond the rows.
  struct LookScratch {
    std::vector<Sighting> seen;  ///< From-scratch listings.
    /// Bucket starts and output of `sort_listing` (sim/listing.hpp),
    /// reserved by the constructor of a hinted anonymous swarm.
    std::vector<std::uint32_t> listing;
    /// Row ranges a look changed, [first, last], before merging.
    std::vector<std::pair<std::uint32_t, std::uint32_t>> ranges;
  };

  [[nodiscard]] Rows rows(RobotIndex i) noexcept {
    const std::size_t n = specs_.size();
    const std::size_t at = orders_.size() == n ? 0 : i * n;
    return {{orders_.data() + at, n},
            {listed_.data() + i * n, n},
            {rows_of_.data() + at, n}};
  }

  /// What robot i sees of every robot, into `seen` in index order: itself
  /// as `config` has it, the others as `stale_config` does.
  void sight_all(RobotIndex i, std::span<const geom::Vec2> config,
                 std::span<const geom::Vec2> stale_config,
                 std::vector<Sighting>& seen) const;

  /// Writes robot i's observation at instant `t` into `out`, which then
  /// owns its entries, with no change hint, sighting every robot: the
  /// listing of an unhinted swarm. Anonymous swarms sort by local position
  /// in `order`, a permutation of every robot index: with `repair`, the
  /// observer's previous listing is insertion-sorted in place, and on an
  /// exact tie replaced by a fresh std::sort of the visible robots in
  /// index order (the legacy listing, whose unstable tie placement decides
  /// the snapshot); without it, `order` is listed as it is (the t0
  /// listing, at `wake`). `config` and `stale_config` are epoch-ring
  /// views, read in place; `seen` receives the sightings in index order.
  /// Returns the rows visited (see `row_visits`).
  std::uint64_t observe_all(RobotIndex i, std::span<const geom::Vec2> config,
                            std::span<const geom::Vec2> stale_config, Time t,
                            std::span<std::uint32_t> order, bool repair,
                            std::vector<Sighting>& seen, Snapshot& out) const;

  /// Lists a hinted swarm's robot i from scratch into `rows`: sights every
  /// robot, puts the visible ones first in snapshot order (by id, or by
  /// local position as the legacy std::sort from index order lists them;
  /// sim/listing.hpp), then the hidden ones in index order, and records in
  /// `look` how many are visible and whether two visible rows tie. The t0
  /// listing, and a look's fallback.
  void relist(RobotIndex i, std::span<const geom::Vec2> config,
              std::span<const geom::Vec2> stale_config, Rows rows,
              Look& look, std::vector<Sighting>& seen,
              std::vector<std::uint32_t>& sort_scratch) const;

  /// Robot i's look at instant `t` in a hinted swarm, in place: re-sights
  /// the robots written since `look` (everyone when the write log no
  /// longer reaches back to it, or with a visibility radius when robot i
  /// itself was written), moves each changed row to its sorted place, and
  /// relists from scratch when a robot appeared or vanished or the
  /// listing holds an exact tie. Then points `out` at the visible rows,
  /// with a change hint naming the slots that changed or moved, and
  /// updates `look`. `stale_seal` and `now_seal` are the write counts at
  /// which the epochs of `stale_config` and `config` became final.
  /// Returns the rows visited (see `row_visits`).
  std::uint64_t observe_in_place(RobotIndex i,
                                 std::span<const geom::Vec2> config,
                                 std::span<const geom::Vec2> stale_config,
                                 Time t, std::uint64_t stale_seal,
                                 std::uint64_t now_seal, Rows rows, Look& look,
                                 LookScratch& scratch, Snapshot& out) const;

  /// Records a write of robot i's position in the write log.
  void stamp(RobotIndex i) noexcept {
    if (!hinted_) return;
    stamps_[i] = ++writes_;
    log_[writes_ % log_.size()] = static_cast<std::uint32_t>(i);
  }

  /// The write count at which epoch `e` (live) became final, or the
  /// current count for the newest epoch, which only a step seals.
  [[nodiscard]] std::uint64_t seal(Time e) const noexcept {
    return e == t_ ? writes_ : seals_[slot(e)];
  }

  /// The minimum separation of the configuration a step produced, `after`;
  /// first emits a Collision event and throws CollisionError for its
  /// lexicographically first pair within kCollisionDistance.
  double separation(std::span<const geom::Vec2> after);

  void step_impl();

  std::vector<RobotSpec> specs_;
  std::vector<std::unique_ptr<Robot>> programs_;
  std::unique_ptr<Scheduler> scheduler_;
  EngineOptions options_;
  std::vector<Frame> frames_;
  /// Hot per-robot state, structure-of-arrays: `specs_[i].sigma` pulled
  /// into a flat array so the commit loop touches 8 contiguous bytes per
  /// robot instead of striding over 72-byte RobotSpec rows.
  std::vector<double> sigmas_;
  /// Visible ids by robot index (identified swarms; empty otherwise), the
  /// table snapshot views read ids from.
  std::vector<std::optional<VisibleId>> ids_;
  /// Listing orders (see `listing`). The robot indices sorted by visible
  /// id, shared by every observer, in an identified swarm (unless a hinted
  /// one has a visibility radius); otherwise n per observer, the order
  /// robot i listed its last snapshot in.
  std::vector<std::uint32_t> orders_;
  /// More than kUnhintedSwarmMax robots: the members below are kept, and
  /// snapshots view the rows and carry change hints. Empty otherwise.
  bool hinted_ = false;
  /// Beside `orders_`, n per observer: the local position of each row.
  std::vector<geom::Vec2> listed_;
  /// Beside `orders_` (shared or n per observer): the row of each robot.
  std::vector<std::uint32_t> rows_of_;
  /// Per observer: what its rows account for.
  std::vector<Look> looks_;
  /// Per robot: the value of `writes_` at the latest write of its position
  /// (a committed move, an interceptor shove, a teleport). A count, not an
  /// instant: a teleport before the first step is a write after t0.
  std::vector<std::uint64_t> stamps_;
  std::uint64_t writes_ = 0;
  /// The write log: write number w wrote robot `log_[w % log_.size()]`.
  /// It holds n writes per epoch-ring slot, as many as the live epochs'
  /// moves can make, so a synchronous look never reaches past it; a look
  /// older than the log (a long sleep, many shoves or teleports)
  /// re-sights everyone.
  std::vector<std::uint32_t> log_;
  /// Per epoch-ring slot: `writes_` when that epoch's step began, after
  /// which its configuration is never written again.
  std::vector<std::uint64_t> seals_;
  /// The epoch ring: slot `e % ring_.size()` holds the configuration of
  /// instant e, for the last `observation_delay + 2` instants — newest
  /// (t_), every delayed-observation epoch down to t_ - delay, and one
  /// older epoch so `make_snapshot` between steps sees what an observer
  /// who committed during the previous instant saw. Slot capacity is
  /// recycled in place; a fault-free steady-state instant copies the
  /// configuration exactly once (current slot -> next slot).
  std::vector<std::vector<geom::Vec2>> ring_;
  std::vector<Sighting> seen_scratch_;
  LookScratch look_scratch_;
  Snapshot snap_scratch_;
  ActivationSet active_scratch_;
  std::vector<geom::Vec2> pre_scratch_;  ///< Interceptor before-image.
  geom::PointGrid grid_scratch_;         ///< Large-n pair scans.
  std::vector<MotionStats> motion_;
  double min_separation_ = std::numeric_limits<double>::infinity();
  std::uint64_t row_visits_ = 0;
  obs::EventSink* sink_ = nullptr;
  StepInterceptor* interceptor_ = nullptr;
  obs::LogHistogram* step_wall_ = nullptr;  ///< Owned by the registry.
  obs::prof::Profiler* prof_ = nullptr;     ///< Not owned; null when off.
  obs::prof::PhaseId ph_step_ = 0, ph_sched_ = 0, ph_observe_ = 0,
                     ph_compute_ = 0, ph_commit_ = 0, ph_emit_ = 0;
  obs::cov::CovMap* cov_ = nullptr;  ///< Not owned; null when off.
  /// Interleaving-class state ids, interned once at set_coverage.
  obs::cov::StateId cov_class_[5] = {};  ///< none, one, few, most, all.
  obs::cov::StateId cov_prev_ = obs::cov::kInvalidState;
  Time t_ = 0;
  bool identified_ = false;
};

}  // namespace stig::sim
