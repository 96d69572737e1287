#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

namespace stig::sim {
namespace {

/// Below this swarm size a pair scan visits all pairs: cache-friendly, and
/// the grid's build cost is not yet paid back. At or above it, the scan
/// goes through a PointGrid (same first pair — see geom/point_grid.hpp).
constexpr std::size_t kGridThreshold = 128;

/// Squared-distance prefilter for collisions: kCollisionDistance^2 with
/// enough slack to cover the ulp gap between `hypot` (the predicate) and a
/// squared distance; every candidate is re-checked with `dist_cmp`, which
/// answers exactly as hypot does.
constexpr double kCollisionRadius2 =
    kCollisionDistance * kCollisionDistance * 1.00001;

/// Whether robots a and b collide: dist(a, b) <= kCollisionDistance.
bool collide(const geom::Vec2& a, const geom::Vec2& b) {
  return std::is_lteq(geom::dist_cmp(a, b, kCollisionDistance));
}

/// What one pass over a configuration's pairs finds: its lexicographically
/// first colliding pair (i, j), if any, else its minimum separation.
struct PairScan {
  bool collided = false;
  std::size_t i = 0, j = 0;
  double min_separation = std::numeric_limits<double>::infinity();
};

/// The one pair routine: the constructor's distinctness check, every step,
/// and the re-scan after an interceptor shove all call it. The separation
/// has one rule per side of kGridThreshold, and the replay motion pins
/// hold both (DESIGN.md §15): below it the smallest hypot over all pairs,
/// taken only where a squared distance lies within dist_cmp's band of the
/// smallest one (every other pair's hypot is larger); at or above it the
/// root of the smallest squared nearest-neighbour distance.
PairScan scan_pairs(std::span<const geom::Vec2> c, geom::PointGrid& grid) {
  const std::size_t n = c.size();
  PairScan scan;
  double min_d2 = std::numeric_limits<double>::infinity();
  if (n < kGridThreshold) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        const double d2 = geom::dist2(c[i], c[j]);
        if (d2 <= kCollisionRadius2 && collide(c[i], c[j])) {
          return PairScan{true, i, j};
        }
        min_d2 = std::min(min_d2, d2);
      }
    }
    // Outside the band's range, every pair takes hypot.
    const bool filtered = geom::in_dist_band_range(min_d2);
    const double limit = min_d2 * (1.0 + geom::kDistBand);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (filtered && !(geom::dist2(c[i], c[j]) <= limit)) continue;
        scan.min_separation =
            std::min(scan.min_separation, geom::dist(c[i], c[j]));
      }
    }
    return scan;
  }
  grid.build(c);
  for (std::size_t i = 0; i < n; ++i) {
    const double d2 = grid.nearest_other_dist2(i);
    if (d2 <= kCollisionRadius2) {
      // Lowest i first (this loop), lowest j among its collisions.
      std::size_t hit = n;
      grid.for_each_within(c[i], kCollisionRadius2, [&](std::size_t j) {
        if (j > i && j < hit && collide(c[i], c[j])) hit = j;
      });
      if (hit < n) return PairScan{true, i, hit};
    }
    min_d2 = std::min(min_d2, d2);
  }
  scan.min_separation = std::sqrt(min_d2);
  return scan;
}

/// The lowest robot other than i that collides with robot i, or c.size().
std::size_t first_collision_with(std::span<const geom::Vec2> c,
                                 std::size_t i) {
  for (std::size_t j = 0; j < c.size(); ++j) {
    if (j != i && collide(c[i], c[j])) return j;
  }
  return c.size();
}

// The sighting and listing helpers are templates only because
// Engine::Sighting, the row type of `seen`, is private.

/// What an observer at `self` sees, in its frame `f`, of the robot at `g`:
/// another robot snapped to the sensor quantum (sensor resolution) and
/// hidden beyond the visibility radius; itself (`is_self`, `g` unused)
/// exact and visible (odometry). Every snapshot and every t0 listing sees
/// through here. Inline: with three callers GCC would otherwise keep one
/// out-of-line copy, and the call per sighting cost a four-robot
/// asynchronous chat about 7% of its CPU.
template <typename Sighting>
inline void sight(Sighting& s, const Frame& f, const geom::Vec2& self,
                  const geom::Vec2& g, bool is_self,
                  const EngineOptions& options) {
  if (is_self) {
    s.obs.position = f.to_local(self);
    s.visible = true;
    return;
  }
  const double q = options.observation_quantum;
  const double radius = options.visibility_radius;
  s.visible = !(radius > 0.0 && std::is_gt(geom::dist_cmp(g, self, radius)));
  s.obs.position = f.to_local(
      q > 0.0 ? geom::Vec2{std::round(g.x / q) * q, std::round(g.y / q) * q}
              : g);
}

/// The legacy listing from scratch: the visible robots in index order,
/// std::sort-ed by local position, then the hidden ones in index order.
template <typename Sighting>
void sort_from_index_order(std::span<std::uint32_t> order,
                           const std::vector<Sighting>& seen) {
  std::size_t shown = 0;
  for (std::size_t j = 0; j < seen.size(); ++j) {
    if (seen[j].visible) order[shown++] = static_cast<std::uint32_t>(j);
  }
  std::size_t hidden = shown;
  for (std::size_t j = 0; j < seen.size(); ++j) {
    if (!seen[j].visible) order[hidden++] = static_cast<std::uint32_t>(j);
  }
  std::sort(order.begin(), order.begin() + static_cast<std::ptrdiff_t>(shown),
            [&](std::uint32_t a, std::uint32_t b) {
              return seen[a].obs.position < seen[b].obs.position;
            });
}

/// Insertion-sorts `order` by local position: O(n + inversions), so O(n)
/// when no robot passed another since the listing was stored. Returns
/// false on an exact tie, leaving `order` some permutation: which of two
/// equal entries comes first is the legacy std::sort's call.
template <typename Sighting>
bool insertion_sort(std::span<std::uint32_t> order,
                    const std::vector<Sighting>& seen) {
  for (std::size_t k = 1; k < order.size(); ++k) {
    const std::uint32_t v = order[k];
    const geom::Vec2 p = seen[v].obs.position;
    std::size_t m = k;
    for (; m > 0 && p < seen[order[m - 1]].obs.position; --m) {
      order[m] = order[m - 1];
    }
    order[m] = v;
    if (m > 0 && !(seen[order[m - 1]].obs.position < p)) return false;
  }
  return true;
}

}  // namespace

std::vector<RobotIndex> initial_observation_order(
    std::span<const RobotSpec> specs, RobotIndex observer,
    const EngineOptions& options) {
  if (observer >= specs.size()) {
    throw std::out_of_range("initial_observation_order: robot index");
  }
  const bool identified = std::all_of(
      specs.begin(), specs.end(),
      [](const RobotSpec& s) { return s.id.has_value(); });
  std::vector<RobotIndex> order(specs.size());
  if (identified) {
    for (std::size_t j = 0; j < specs.size(); ++j) order[j] = j;
    std::sort(order.begin(), order.end(), [&](RobotIndex a, RobotIndex b) {
      return *specs[a].id < *specs[b].id;
    });
    return order;
  }
  // The sightings of the engine's t0 observation (build_observation at
  // t0: no delay, so current and stale coincide), sorted the same way.
  struct Sighting {
    ObservedRobot obs;
    bool visible = true;
  };
  const Frame f = frame_of(specs[observer]);
  const geom::Vec2& self = specs[observer].position;
  std::vector<Sighting> seen(specs.size());
  for (std::size_t j = 0; j < specs.size(); ++j) {
    sight(seen[j], f, self, specs[j].position, j == observer, options);
  }
  std::vector<std::uint32_t> listing(specs.size());
  sort_from_index_order(std::span<std::uint32_t>(listing), seen);
  std::copy(listing.begin(), listing.end(), order.begin());
  return order;
}

Engine::Engine(std::vector<RobotSpec> specs,
               std::vector<std::unique_ptr<Robot>> programs,
               std::unique_ptr<Scheduler> scheduler, EngineOptions options)
    : specs_(std::move(specs)),
      programs_(std::move(programs)),
      scheduler_(std::move(scheduler)),
      options_(options),
      motion_(specs_.size()) {
  if (specs_.empty() || specs_.size() != programs_.size() || !scheduler_) {
    throw std::invalid_argument("Engine: inconsistent construction");
  }
  const std::size_t with_id = static_cast<std::size_t>(
      std::count_if(specs_.begin(), specs_.end(),
                    [](const RobotSpec& s) { return s.id.has_value(); }));
  if (with_id != 0 && with_id != specs_.size()) {
    throw std::invalid_argument(
        "Engine: either all robots or none must have visible ids");
  }
  identified_ = with_id == specs_.size();

  const std::size_t n = specs_.size();
  ring_.resize(static_cast<std::size_t>(options_.observation_delay) + 2);
  std::vector<geom::Vec2>& p0 = ring_[0];
  frames_.reserve(n);
  sigmas_.reserve(n);
  p0.reserve(n);
  for (const RobotSpec& s : specs_) {
    if (s.frame_unit <= 0.0) {
      throw std::invalid_argument("Engine: frame_unit must be positive");
    }
    if (s.sigma <= 0.0) {
      throw std::invalid_argument("Engine: sigma must be positive");
    }
    frames_.push_back(frame_of(s));
    sigmas_.push_back(s.sigma);
    p0.push_back(s.position);
  }

  if (scan_pairs(p0, grid_scratch_).collided) {
    throw std::invalid_argument(
        "Engine: initial positions must be pairwise distinct");
  }

  orders_.resize(identified_ ? n : n * n);
  if (identified_) {
    std::iota(orders_.begin(), orders_.end(), std::uint32_t{0});
    std::sort(orders_.begin(), orders_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return specs_[a].id.value() < specs_[b].id.value();
              });
  }
  hinted_ = n > kUnhintedSwarmMax;
  if (hinted_) {
    listed_.resize(n * n);
    if (options_.visibility_radius > 0.0) hidden_.resize(n * n);
    looks_.resize(n);
    stamps_.assign(n, 0);
    seals_.assign(ring_.size(), 0);
    snap_scratch_.hint.slots.reserve(n);
  }
  snap_scratch_.robots.reserve(n);

  // Paper Section 4.2: every robot knows P(t0) — wake all at t0 once. The
  // t0 sort seeds each observer's stored listing (and rows); the t0
  // snapshot has no previous one, so it carries no hint.
  std::vector<Sighting>& seen = seen_scratch_;
  Snapshot snap;
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<std::uint32_t> order = listing(i);
    observe_all(i, p0, p0, 0, order, /*repair=*/false, seen, snap);
    if (hinted_) {
      const Rows r = rows(i);
      for (std::size_t k = 0; k < n; ++k) {
        r.position[k] = seen[order[k]].obs.position;
        if (!r.hidden.empty()) r.hidden[k] = seen[order[k]].visible ? 0 : 1;
        if (order[k] == i) looks_[i].row = static_cast<std::uint32_t>(k);
      }
    }
    programs_[i]->initialize(snap);
  }
}

Snapshot Engine::make_snapshot(RobotIndex i) const {
  // Between steps an observer sees what it would have committed to during
  // the previous instant: others `observation_delay` instants behind that
  // instant, i.e. t - 1 - delay (clamped to t0). With no delay, stale and
  // current coincide.
  const Time d = options_.observation_delay;
  const Time stale_e = d == 0 ? t_ : (t_ > d ? t_ - 1 - d : 0);
  // Works on copies: the stored listing and rows belong to `step`.
  const std::span<const std::uint32_t> stored = listing(i);
  std::vector<std::uint32_t> order(stored.begin(), stored.end());
  std::vector<Sighting> seen;
  Snapshot snap;
  if (!hinted_) {
    observe_all(i, ring_[slot(t_)], ring_[slot(stale_e)], t_, order,
                /*repair=*/true, seen, snap);
    return snap;
  }
  const std::size_t n = specs_.size();
  const auto at = static_cast<std::ptrdiff_t>(i * n);
  const auto end = at + static_cast<std::ptrdiff_t>(n);
  std::vector<geom::Vec2> position(listed_.begin() + at,
                                   listed_.begin() + end);
  std::vector<std::uint8_t> hidden;
  if (!hidden_.empty()) {
    hidden.assign(hidden_.begin() + at, hidden_.begin() + end);
  }
  Look look = looks_.at(i);
  observe_moved(i, ring_[slot(t_)], ring_[slot(stale_e)], t_, 0, 0,
                Rows{order, position, hidden}, look, seen, snap);
  return snap;
}

void Engine::teleport(RobotIndex i, const geom::Vec2& global_position) {
  std::vector<geom::Vec2>& cur = ring_[slot(t_)];
  cur.at(i) = global_position;
  stamp(i);
  if (sink_ != nullptr) {
    obs::Event e;
    e.type = obs::EventType::Teleport;
    e.t = t_;
    e.robot = static_cast<std::int64_t>(i);
    e.x = global_position.x;
    e.y = global_position.y;
    sink_->on_event(e);
  }
  const std::size_t j = first_collision_with(cur, i);
  if (j < cur.size()) {
    throw CollisionError("teleport collided robots " + std::to_string(i) +
                         " and " + std::to_string(j));
  }
}

void Engine::set_metrics(obs::MetricsRegistry* registry) {
  // Sub-microsecond steps are the common case; 16ns lower edge keeps the
  // first buckets meaningful on fast hardware.
  step_wall_ = registry == nullptr
                   ? nullptr
                   : &registry->histogram("engine.step_wall_ns", 16.0);
}

void Engine::set_profiler(obs::prof::Profiler* profiler) {
  prof_ = profiler;
  if (prof_ == nullptr) return;
  ph_step_ = prof_->phase("engine.step");
  ph_sched_ = prof_->phase("engine.sched");
  ph_observe_ = prof_->phase("engine.observe");
  ph_compute_ = prof_->phase("engine.compute");
  ph_commit_ = prof_->phase("engine.commit");
  ph_emit_ = prof_->phase("engine.emit");
}

void Engine::set_coverage(obs::cov::CovMap* map) {
  cov_ = map;
  if (cov_ == nullptr) return;
  cov_class_[0] = cov_->state("none");
  cov_class_[1] = cov_->state("one");
  cov_class_[2] = cov_->state("few");
  cov_class_[3] = cov_->state("most");
  cov_class_[4] = cov_->state("all");
  // The first instant's 2-gram starts from an explicit start state, so a
  // run's very first interleaving class is itself an edge.
  cov_prev_ = cov_->state("start");
}

void Engine::observe_all(RobotIndex i, std::span<const geom::Vec2> config,
                         std::span<const geom::Vec2> stale_config, Time t,
                         std::span<std::uint32_t> order, bool repair,
                         std::vector<Sighting>& seen, Snapshot& out) const {
  const Frame& f = frames_[i];
  // What robot i sees of each robot, in index order: itself now, the
  // others as `stale_config` has them (CORDA-ish delay).
  seen.resize(config.size());
  std::size_t visible = 0;
  for (std::size_t j = 0; j < config.size(); ++j) {
    Sighting& s = seen[j];
    sight(s, f, config[i], stale_config[j], j == i, options_);
    s.obs.id = identified_ ? specs_[j].id : std::nullopt;
    visible += s.visible ? 1 : 0;
  }
  // Identified: the id order is the listing. Anonymous: lexicographic by
  // local position, which carries no identity and depends on this
  // instant's geometry — repaired from the previous listing when there is
  // one; distinct positions have exactly one such order.
  if (!identified_ && !(repair && insertion_sort(order, seen))) {
    sort_from_index_order(order, seen);
  }
  out.t = t;
  out.self = 0;
  out.robots.clear();
  out.robots.reserve(visible);
  for (const std::uint32_t j : order) {
    if (!seen[j].visible) continue;
    if (j == i) out.self = out.robots.size();
    out.robots.push_back(seen[j].obs);
  }
}

void Engine::observe_moved(RobotIndex i, std::span<const geom::Vec2> config,
                           std::span<const geom::Vec2> stale_config, Time t,
                           std::uint64_t stale_seal, std::uint64_t now_seal,
                           Rows rows, Look& look, std::vector<Sighting>& seen,
                           Snapshot& out) const {
  const std::size_t n = config.size();
  const Frame& f = frames_[i];
  const bool limited = !rows.hidden.empty();
  std::uint32_t* const order = rows.order.data();
  geom::Vec2* const position = rows.position.data();
  std::uint8_t* const hidden = limited ? rows.hidden.data() : nullptr;
  // Who is within the visibility radius depends on robot i's own position,
  // so its move re-sights everyone.
  const bool self_moved = stamps_[i] > look.self;
  const bool everyone = limited && self_moved;
  // One pass over the rows. Row k is re-sighted when its robot was
  // written since the look: robot i itself now (odometry), the others as
  // `stale_config` has them (CORDA-ish delay). An anonymous listing is
  // lexicographic by local position, which carries no identity and
  // depends on this instant's geometry: row k is then inserted among the
  // rows before it, O(n + inversions) in all; distinct positions have
  // exactly one such order. The hint collects, ascending, every slot whose
  // row changed or that an inserted row passed.
  std::vector<std::uint32_t>& slots = out.hint.slots;
  slots.clear();
  bool tie = false;
  for (std::size_t k = 0; k < n; ++k) {
    const std::uint32_t j = order[k];
    bool changed = false;
    if (everyone || (j == i ? self_moved : stamps_[j] > look.others)) {
      Sighting s;
      sight(s, f, config[i], stale_config[j], j == i, options_);
      const std::uint8_t h = s.visible ? 0 : 1;
      changed = !geom::same_bits(s.obs.position, position[k]) ||
                (limited && hidden[k] != h);
      position[k] = s.obs.position;
      if (limited) hidden[k] = h;
    }
    std::size_t m = k;
    if (!identified_ && !tie && k > 0 && !(position[k - 1] < position[k])) {
      const geom::Vec2 p = position[k];
      const std::uint8_t h = limited ? hidden[k] : 0;
      for (; m > 0 && p < position[m - 1]; --m) {
        position[m] = position[m - 1];
        order[m] = order[m - 1];
        if (limited) hidden[m] = hidden[m - 1];
      }
      position[m] = p;
      order[m] = j;
      if (limited) hidden[m] = h;
      tie = m > 0 && !(position[m - 1] < p);
      if (look.row == k) {
        look.row = static_cast<std::uint32_t>(m);
      } else if (m <= look.row && look.row < k) {
        ++look.row;
      }
    }
    if (changed || m != k) {
      while (!slots.empty() && slots.back() >= m) slots.pop_back();
      for (std::size_t s = m; s <= k; ++s) {
        slots.push_back(static_cast<std::uint32_t>(s));
      }
    }
  }
  if (tie) {
    // Which of two equal entries comes first is the legacy std::sort's
    // call: re-list from the sightings in index order, every slot slots.
    seen.resize(n);
    for (std::size_t k = 0; k < n; ++k) {
      Sighting& s = seen[order[k]];
      s.obs.position = position[k];
      s.visible = !limited || hidden[k] == 0;
    }
    sort_from_index_order(rows.order, seen);
    for (std::size_t k = 0; k < n; ++k) {
      position[k] = seen[order[k]].obs.position;
      if (limited) hidden[k] = seen[order[k]].visible ? 0 : 1;
    }
    look.row =
        static_cast<std::uint32_t>(std::find(order, order + n, i) - order);
    slots.resize(n);
    std::iota(slots.begin(), slots.end(), std::uint32_t{0});
  }

  list_rows(i, rows, look.row, out);
  out.t = t;
  out.hint.known = true;
  out.hint.since = look.t;
  if (limited && !slots.empty()) {
    // Rows are slots only without hidden rows. A robot appearing or
    // vanishing shifts every later slot: every slot from the first
    // changed row's is slots.
    const auto first = static_cast<std::uint32_t>(
        std::count(hidden, hidden + slots.front(), std::uint8_t{0}));
    slots.clear();
    for (std::uint32_t s = first; s < out.robots.size(); ++s) {
      slots.push_back(s);
    }
  }
  look.others = stale_seal;
  look.self = now_seal;
  look.t = t;
}

inline void Engine::list_rows(RobotIndex i, Rows rows, std::size_t self_row,
                              Snapshot& out) const {
  const std::size_t n = rows.position.size();
  const std::uint32_t* const order = rows.order.data();
  const geom::Vec2* const position = rows.position.data();
  if (rows.hidden.empty()) {
    // Row k is slot k. Anonymous entries carry no id, and this buffer
    // never held one.
    if (out.robots.size() != n) out.robots.resize(n);
    ObservedRobot* const listed = out.robots.data();
    for (std::size_t k = 0; k < n; ++k) listed[k].position = position[k];
    if (identified_) {
      for (std::size_t k = 0; k < n; ++k) {
        listed[k].id = specs_[order[k]].id;
      }
    }
    out.self = self_row;
    return;
  }
  out.self = 0;
  out.robots.clear();
  for (std::size_t k = 0; k < n; ++k) {
    if (rows.hidden[k] != 0) continue;
    const std::uint32_t j = order[k];
    if (j == i) out.self = out.robots.size();
    out.robots.push_back(ObservedRobot{
        position[k], identified_ ? specs_[j].id : std::nullopt});
  }
}

double Engine::separation(std::span<const geom::Vec2> after) {
  const PairScan scan = scan_pairs(after, grid_scratch_);
  if (!scan.collided) return scan.min_separation;
  if (sink_ != nullptr) {
    obs::Event e;
    e.type = obs::EventType::Collision;
    e.t = t_;
    e.robot = static_cast<std::int64_t>(scan.i);
    e.peer = static_cast<std::int64_t>(scan.j);
    e.x = after[scan.i].x;
    e.y = after[scan.i].y;
    sink_->on_event(e);
  }
  throw CollisionError("robots " + std::to_string(scan.i) + " and " +
                       std::to_string(scan.j) + " collided at instant " +
                       std::to_string(t_));
}

void Engine::step() {
  if (step_wall_ == nullptr) {
    step_impl();
    return;
  }
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start = Clock::now();
  step_impl();
  step_wall_->record(static_cast<double>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                           start)
          .count()));
}

void Engine::step_impl() {
  obs::prof::Scope step_scope(prof_, ph_step_);
  const std::size_t n = specs_.size();
  // Engine-owned scratch: the activation set reuses its capacity across
  // instants, so steady-state scheduling allocates nothing.
  ActivationSet& active = active_scratch_;
  {
    obs::prof::Scope s(prof_, ph_sched_);
    scheduler_->activate_into(t_, n, active);
    assert(std::any_of(active.begin(), active.end(),
                       [](bool b) { return b; }) &&
           "scheduler must activate at least one robot");
    // Fault masking happens on the scheduler's *output*, so a recorded
    // schedule stays the fault-free one and a replay under the same fault
    // plan re-masks identically.
    if (interceptor_ != nullptr) interceptor_->on_activation(t_, active);
  }

  if (cov_ != nullptr) {
    // Interleaving-class 2-gram over the post-mask activation set: which
    // concurrency shapes (and which shape-to-shape transitions) the
    // schedule actually produced.
    std::size_t c = 0;
    for (std::size_t i = 0; i < n; ++i) c += active[i] ? 1u : 0u;
    const obs::cov::StateId cur =
        c == 0   ? cov_class_[0]
        : c == n ? cov_class_[4]
        : c == 1 ? cov_class_[1]
        : 2 * c >= n ? cov_class_[3]
                     : cov_class_[2];
    cov_->hit(obs::cov::Domain::sched, cov_prev_, cur);
    cov_prev_ = cur;
  }

  // Epoch-ring views: `before` is this instant's configuration in place
  // (no copy), `stale` the delayed-observation epoch, `after` the slot
  // being recycled for the next instant. The one configuration copy a
  // fault-free instant performs is seeding `after` from `before`; slot
  // capacity is reused, so steady state allocates nothing.
  const Time d = options_.observation_delay;
  const std::size_t stale_slot = slot(t_ >= d ? t_ - d : 0);
  // Epoch t_ is final from here: this step writes epoch t_ + 1.
  const std::uint64_t now_seal = writes_;
  if (hinted_) seals_[slot(t_)] = now_seal;
  const std::uint64_t stale_seal = hinted_ ? seals_[stale_slot] : 0;
  std::vector<geom::Vec2>& before_v = ring_[slot(t_)];
  const std::span<const geom::Vec2> before{before_v};
  const std::span<const geom::Vec2> stale{ring_[stale_slot]};
  std::vector<geom::Vec2>& after = ring_[slot(t_ + 1)];
  after.assign(before_v.begin(), before_v.end());
  // Phase 1: all active robots observe `before` and commit to destinations;
  // phase 2: all moves are applied. No robot sees a same-instant move.
  for (std::size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    {
      obs::prof::Scope s(prof_, ph_observe_);
      if (hinted_) {
        observe_moved(i, before, stale, t_, stale_seal, now_seal, rows(i),
                      looks_[i], seen_scratch_, snap_scratch_);
      } else {
        observe_all(i, before, stale, t_, listing(i), /*repair=*/true,
                    seen_scratch_, snap_scratch_);
      }
    }
    geom::Vec2 local_target;
    {
      obs::prof::Scope s(prof_, ph_compute_);
      local_target = programs_[i]->on_activate(snap_scratch_);
    }
    const geom::Vec2 target = frames_[i].to_global(local_target);
    if (std::is_lteq(geom::dist_cmp(target, before[i], sigmas_[i]))) {
      after[i] = target;
    } else {
      const geom::Vec2 d_move = target - before[i];
      after[i] = before[i] + d_move * (sigmas_[i] / d_move.norm());
    }
    if (!geom::same_bits(after[i], before[i])) stamp(i);
  }

  double separation_after;
  {
    obs::prof::Scope commit_scope(prof_, ph_commit_);
    separation_after = separation(after);
    if (interceptor_ != nullptr) {
      pre_scratch_.assign(after.begin(), after.end());
      interceptor_->on_positions(t_, std::span<geom::Vec2>{after});
      bool shoved = false;
      for (std::size_t i = 0; i < n; ++i) {
        if (geom::same_bits(after[i], pre_scratch_[i])) continue;
        stamp(i);
        if (after[i] == pre_scratch_[i]) continue;
        shoved = true;
        // Transient perturbation: surface it like the teleport fault so the
        // watchdog re-anchors granular containment for the shoved robot.
        if (sink_ != nullptr) {
          obs::Event e;
          e.type = obs::EventType::Teleport;
          e.t = t_;
          e.robot = static_cast<std::int64_t>(i);
          e.x = after[i].x;
          e.y = after[i].y;
          sink_->on_event(e);
        }
        const std::size_t j = first_collision_with(after, i);
        if (j < n) {
          // Publish the collided configuration for post-mortems without
          // advancing time (the legacy `positions_ = after`).
          for (std::size_t k = 0; k < n; ++k) {
            if (!geom::same_bits(before_v[k], after[k])) stamp(k);
          }
          before_v = after;
          throw CollisionError("perturbation collided robots " +
                               std::to_string(i) + " and " +
                               std::to_string(j) + " at instant " +
                               std::to_string(t_));
        }
      }
      if (shoved) separation_after = separation(after);
    }
  }
  {
    // The instant's record: Activation per active robot, Move per robot
    // that ended it elsewhere, one StepComplete with its separation.
    obs::prof::Scope s(prof_, ph_emit_);
    obs::Event e;
    e.t = t_;
    for (std::size_t i = 0; i < n; ++i) {
      if (!active[i]) continue;
      MotionStats& m = motion_[i];
      ++m.activations;
      e.robot = static_cast<std::int64_t>(i);
      if (sink_ != nullptr) {
        e.type = obs::EventType::Activation;
        e.x = before[i].x;
        e.y = before[i].y;
        e.value = 0.0;
        sink_->on_event(e);
      }
      if (std::is_gt(geom::dist_cmp(before[i], after[i], geom::kEps))) {
        const double d = geom::dist(before[i], after[i]);
        ++m.moves;
        m.distance += d;
        if (sink_ != nullptr) {
          e.type = obs::EventType::Move;
          e.x = after[i].x;
          e.y = after[i].y;
          e.value = d;
          sink_->on_event(e);
        }
      }
    }
    min_separation_ = std::min(min_separation_, separation_after);
    if (sink_ != nullptr) {
      e.type = obs::EventType::StepComplete;
      e.robot = -1;
      e.x = e.y = 0.0;
      e.value = separation_after;
      sink_->on_event(e);
    }
  }
  // Publishing the step is just the epoch increment: `positions()` now
  // views the slot the moves were written into.
  ++t_;
}

void Engine::run(Time instants) {
  for (Time k = 0; k < instants; ++k) step();
}

bool Engine::run_until(const std::function<bool()>& done, Time max_instants) {
  for (Time k = 0; k < max_instants; ++k) {
    if (done()) return true;
    step();
  }
  return done();
}

}  // namespace stig::sim
