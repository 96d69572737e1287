#include "sim/engine.hpp"

#include <algorithm>
#include <cassert>
#include <chrono>
#include <cmath>
#include <limits>
#include <numeric>
#include <string>

#include "sim/listing.hpp"

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

/// Puts the visible robots first in `order`, in index order, then the
/// hidden ones in index order; returns how many are visible.
template <typename Sighting>
std::size_t visible_first(std::span<std::uint32_t> order,
                          const std::vector<Sighting>& seen) {
  std::size_t shown = 0;
  for (std::size_t j = 0; j < seen.size(); ++j) {
    if (seen[j].visible) order[shown++] = static_cast<std::uint32_t>(j);
  }
  std::size_t hidden = shown;
  for (std::size_t j = 0; j < seen.size(); ++j) {
    if (!seen[j].visible) order[hidden++] = static_cast<std::uint32_t>(j);
  }
  return shown;
}

template <typename Sighting>
auto position_in(const std::vector<Sighting>& seen) {
  return [&seen](std::uint32_t j) -> const geom::Vec2& {
    return seen[j].obs.position;
  };
}

/// The legacy listing from scratch: the visible robots in index order,
/// std::sort-ed by local position, then the hidden ones in index order.
template <typename Sighting>
void legacy_from_index_order(std::span<std::uint32_t> order,
                             const std::vector<Sighting>& seen) {
  legacy_listing(order.first(visible_first(order, seen)), position_in(seen));
}

/// The same listing by `sort_listing`: a bucket pass where the view is
/// spread out, the legacy sort otherwise (sim/listing.hpp).
template <typename Sighting>
void sort_from_index_order(std::span<std::uint32_t> order,
                           const std::vector<Sighting>& seen,
                           std::vector<std::uint32_t>& scratch) {
  sort_listing(order.first(visible_first(order, seen)), position_in(seen),
               scratch);
}

/// Insertion-sorts `order` by local position: O(n + inversions), so O(n)
/// when no robot passed another since the listing was stored; `shifts`
/// grows by the rows moved. Returns false on an exact tie, leaving `order`
/// some permutation: which of two equal entries comes first is the legacy
/// std::sort's call.
template <typename Sighting>
bool insertion_sort(std::span<std::uint32_t> order,
                    const std::vector<Sighting>& seen, std::uint64_t& shifts) {
  for (std::size_t k = 1; k < order.size(); ++k) {
    const std::uint32_t v = order[k];
    const geom::Vec2 p = seen[v].obs.position;
    std::size_t m = k;
    for (; m > 0 && p < seen[order[m - 1]].obs.position; --m) {
      order[m] = order[m - 1];
    }
    order[m] = v;
    shifts += k - m;
    if (m > 0 && !(seen[order[m - 1]].obs.position < p)) return false;
  }
  return true;
}

}  // namespace

Engine::Engine(std::vector<RobotSpec> specs,
               std::unique_ptr<Scheduler> scheduler, EngineOptions options)
    : specs_(std::move(specs)),
      scheduler_(std::move(scheduler)),
      options_(options),
      motion_(specs_.size()) {
  if (specs_.empty() || !scheduler_) {
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
    if (identified_) ids_.push_back(s.id);
  }

  if (scan_pairs(p0, grid_scratch_).collided) {
    throw std::invalid_argument(
        "Engine: initial positions must be pairwise distinct");
  }

  hinted_ = n > kUnhintedSwarmMax;
  // One id order serves every observer unless a hinted swarm's rows put
  // each observer's hidden robots last.
  const bool shared =
      identified_ && !(hinted_ && options_.visibility_radius > 0.0);
  orders_.resize(shared ? n : n * n);
  if (shared) {
    std::iota(orders_.begin(), orders_.end(), std::uint32_t{0});
    std::sort(orders_.begin(), orders_.end(),
              [this](std::uint32_t a, std::uint32_t b) {
                return *ids_[a] < *ids_[b];
              });
  }
  if (hinted_) {
    listed_.resize(n * n);
    rows_of_.resize(orders_.size());
    looks_.resize(n);
    stamps_.assign(n, 0);
    log_.assign(n * ring_.size(), 0);
    seals_.assign(ring_.size(), 0);
    snap_scratch_.hint.slots.reserve(n);
    look_scratch_.ranges.reserve(n);
  }

  // Paper Section 4.2: every robot knows P(t0). Each observer's t0
  // listing is sorted here, once; `wake` hands the robots their t0
  // snapshots in these orders.
  if (hinted_ && !identified_) look_scratch_.listing.reserve(2 * n + 1);
  for (std::size_t i = 0; i < n; ++i) {
    if (hinted_) {
      relist(i, p0, p0, rows(i), looks_[i], seen_scratch_,
             look_scratch_.listing);
    } else if (!identified_) {
      sight_all(i, p0, p0, seen_scratch_);
      sort_from_index_order(listing(i), seen_scratch_, look_scratch_.listing);
    }
  }
}

Engine::Engine(std::vector<RobotSpec> specs,
               std::vector<std::unique_ptr<Robot>> programs,
               std::unique_ptr<Scheduler> scheduler, EngineOptions options)
    : Engine(std::move(specs), std::move(scheduler), options) {
  wake(std::move(programs));
}

void Engine::wake(std::vector<std::unique_ptr<Robot>> programs) {
  if (!programs_.empty()) {
    throw std::logic_error("Engine::wake: the robots are already awake");
  }
  if (programs.size() != specs_.size() ||
      std::any_of(programs.begin(), programs.end(),
                  [](const std::unique_ptr<Robot>& r) { return !r; })) {
    throw std::invalid_argument("Engine: inconsistent construction");
  }
  programs_ = std::move(programs);
  // The t0 snapshot has no previous one, so it carries no hint.
  const std::span<const geom::Vec2> p0 = ring_[0];
  Snapshot& snap = snap_scratch_;
  for (std::size_t i = 0; i < specs_.size(); ++i) {
    if (hinted_) {
      const Rows r = rows(i);
      snap.t = 0;
      snap.self = r.row_of[i];
      snap.robots.view(r.position.data(), r.order.data(),
                       identified_ ? ids_.data() : nullptr, looks_[i].shown);
    } else {
      observe_all(i, p0, p0, 0, listing(i), /*repair=*/false, seen_scratch_,
                  snap);
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
  Snapshot snap;
  if (!hinted_) {
    std::vector<Sighting> seen;
    observe_all(i, ring_[slot(t_)], ring_[slot(stale_e)], t_, order,
                /*repair=*/true, seen, snap);
    return snap;
  }
  const std::size_t n = specs_.size();
  const auto at = static_cast<std::ptrdiff_t>(i * n);
  std::vector<geom::Vec2> position(listed_.begin() + at,
                                   listed_.begin() + at +
                                       static_cast<std::ptrdiff_t>(n));
  const auto row_at =
      static_cast<std::ptrdiff_t>(rows_of_.size() == n ? 0 : i * n);
  std::vector<std::uint32_t> row_of(
      rows_of_.begin() + row_at,
      rows_of_.begin() + row_at + static_cast<std::ptrdiff_t>(n));
  Look look = looks_.at(i);
  LookScratch scratch;
  observe_in_place(i, ring_[slot(t_)], ring_[slot(stale_e)], t_,
                   seal(stale_e), writes_, Rows{order, position, row_of},
                   look, scratch, snap);
  Snapshot owned = snap;  // The view dies with the copies.
  return owned;
}

void Engine::teleport(RobotIndex i, const geom::Vec2& global_position) {
  if (programs_.empty()) {
    throw std::logic_error("Engine::teleport: wake the robots first");
  }
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

void Engine::sight_all(RobotIndex i, std::span<const geom::Vec2> config,
                       std::span<const geom::Vec2> stale_config,
                       std::vector<Sighting>& seen) const {
  const Frame& f = frames_[i];
  // What robot i sees of each robot, in index order: itself now, the
  // others as `stale_config` has them (CORDA-ish delay).
  seen.resize(config.size());
  for (std::size_t j = 0; j < config.size(); ++j) {
    sight(seen[j], f, config[i], stale_config[j], j == i, options_);
  }
}

std::uint64_t Engine::observe_all(RobotIndex i,
                                  std::span<const geom::Vec2> config,
                                  std::span<const geom::Vec2> stale_config,
                                  Time t, std::span<std::uint32_t> order,
                                  bool repair, std::vector<Sighting>& seen,
                                  Snapshot& out) const {
  const std::size_t n = config.size();
  const Frame& f = frames_[i];
  // What robot i sees of each robot, in index order: itself now, the
  // others as `stale_config` has them (CORDA-ish delay).
  seen.resize(n);
  std::size_t visible = 0;
  for (std::size_t j = 0; j < n; ++j) {
    sight(seen[j], f, config[i], stale_config[j], j == i, options_);
    visible += seen[j].visible ? 1 : 0;
  }
  std::uint64_t visits = n + visible;
  // Identified: the id order is the listing. Anonymous: lexicographic by
  // local position, which carries no identity and depends on this
  // instant's geometry — repaired from the previous listing; distinct
  // positions have exactly one such order.
  if (!identified_ && repair && !insertion_sort(order, seen, visits)) {
    legacy_from_index_order(order, seen);
    visits += n;
  }
  out.t = t;
  out.self = 0;
  const ObservedList::Entries entries = out.robots.own(visible, identified_);
  std::size_t k = 0;
  for (const std::uint32_t j : order) {
    const Sighting& s = seen[j];
    if (!s.visible) continue;
    if (j == i) out.self = k;
    entries.positions[k] = s.obs.position;
    if (identified_) entries.ids[k] = specs_[j].id;
    ++k;
  }
  return visits;
}

void Engine::relist(RobotIndex i, std::span<const geom::Vec2> config,
                    std::span<const geom::Vec2> stale_config, Rows rows,
                    Look& look, std::vector<Sighting>& seen,
                    std::vector<std::uint32_t>& sort_scratch) const {
  const std::size_t n = config.size();
  sight_all(i, config, stale_config, seen);
  std::uint32_t* const order = rows.order.data();
  if (!identified_) {
    sort_from_index_order(rows.order, seen, sort_scratch);
  } else if (options_.visibility_radius > 0.0) {
    // The visible robots in id order, then the hidden ones.
    std::size_t shown = 0;
    for (std::size_t j = 0; j < n; ++j) {
      if (seen[j].visible) order[shown++] = static_cast<std::uint32_t>(j);
    }
    std::size_t hidden = shown;
    for (std::size_t j = 0; j < n; ++j) {
      if (!seen[j].visible) order[hidden++] = static_cast<std::uint32_t>(j);
    }
    std::sort(order, order + shown, [this](std::uint32_t a, std::uint32_t b) {
      return *ids_[a] < *ids_[b];
    });
  }
  geom::Vec2* const position = rows.position.data();
  look.shown = 0;
  look.tied = false;
  for (std::size_t k = 0; k < n; ++k) {
    const Sighting& s = seen[order[k]];
    position[k] = s.obs.position;
    rows.row_of[order[k]] = static_cast<std::uint32_t>(k);
    if (!s.visible) continue;
    ++look.shown;
    look.tied = look.tied ||
                (!identified_ && k > 0 && !(position[k - 1] < position[k]));
  }
}

std::uint64_t Engine::observe_in_place(
    RobotIndex i, std::span<const geom::Vec2> config,
    std::span<const geom::Vec2> stale_config, Time t,
    std::uint64_t stale_seal, std::uint64_t now_seal, Rows rows, Look& look,
    LookScratch& scratch, Snapshot& out) const {
  const std::size_t n = config.size();
  const Frame& f = frames_[i];
  std::uint32_t* const order = rows.order.data();
  geom::Vec2* const position = rows.position.data();
  std::uint32_t* const row_of = rows.row_of.data();
  const std::uint32_t shown = look.shown;
  std::vector<std::pair<std::uint32_t, std::uint32_t>>& ranges =
      scratch.ranges;
  ranges.clear();
  std::uint64_t visits = 0;
  // A robot appeared or vanished: the rows are listed again from scratch.
  bool appeared = false;
  // The listing holds an exact tie, or may: a move sees a tie only beside
  // the row it moved, so one the last look had is checked again.
  bool tie = look.tied;

  // Re-sights robot j: robot i itself now (odometry), another robot as
  // `stale_config` has it (CORDA-ish delay). A visible row that changed
  // moves to its sorted place among the visible rows, and [first, last]
  // of the rows it changed is recorded. An anonymous listing is
  // lexicographic by local position, which carries no identity and
  // depends on this instant's geometry; distinct positions have exactly
  // one such order, so moving each changed row into place gives it.
  const auto resight = [&](std::uint32_t j) {
    ++visits;
    Sighting s;
    sight(s, f, config[i], stale_config[j], j == i, options_);
    const std::uint32_t k = row_of[j];
    if (s.visible != (k < shown)) {
      appeared = true;
      return;
    }
    const geom::Vec2 p = s.obs.position;
    if (geom::same_bits(p, position[k])) return;
    position[k] = p;
    if (k >= shown) return;  // A hidden row has no slot.
    std::uint32_t m = k;
    if (!identified_) {
      for (; m > 0 && p < position[m - 1]; --m) {
        position[m] = position[m - 1];
        order[m] = order[m - 1];
        row_of[order[m]] = m;
      }
      if (m == k) {
        for (; m + 1 < shown && position[m + 1] < p; ++m) {
          position[m] = position[m + 1];
          order[m] = order[m + 1];
          row_of[order[m]] = m;
        }
      }
      position[m] = p;
      order[m] = j;
      row_of[j] = m;
      visits += m > k ? m - k : k - m;
      tie = tie || (m > 0 && !(position[m - 1] < p)) ||
            (m + 1 < shown && !(p < position[m + 1]));
    }
    ranges.emplace_back(std::min(k, m), std::max(k, m));
  };

  // Who is visible depends on where robot i is, so with a visibility
  // radius its own move re-sights everyone; so does a look older than the
  // write log reaches.
  const bool self_moved = stamps_[i] > look.self;
  if ((options_.visibility_radius > 0.0 && self_moved) ||
      writes_ - look.others > log_.size()) {
    for (std::uint32_t j = 0; j < n && !appeared; ++j) resight(j);
  } else {
    if (self_moved) resight(static_cast<std::uint32_t>(i));
    for (std::uint64_t w = look.others + 1; w <= stale_seal && !appeared;
         ++w) {
      resight(log_[w % log_.size()]);
    }
  }

  std::vector<std::uint32_t>& slots = out.hint.slots;
  slots.clear();
  if (!appeared && tie) {
    tie = false;
    for (std::uint32_t k = 1; k < shown && !tie; ++k) {
      tie = !(position[k - 1] < position[k]);
    }
    visits += shown;
  }
  if (appeared || tie) {
    // Which of two equal entries comes first is the legacy std::sort's
    // call, and a robot appearing or vanishing shifts every later slot:
    // list from scratch, every slot hinted.
    relist(i, config, stale_config, rows, look, scratch.seen,
           scratch.listing);
    visits += n;
    slots.resize(look.shown);
    std::iota(slots.begin(), slots.end(), std::uint32_t{0});
  } else {
    look.tied = false;
    // The hint: the union of the changed row ranges, ascending. It equals
    // the slots whose robot moved in the listing or whose position
    // changed, with every slot in between (DESIGN.md §14).
    if (!std::is_sorted(ranges.begin(), ranges.end())) {
      std::sort(ranges.begin(), ranges.end());
    }
    std::uint32_t next = 0;
    for (const auto& [first, last] : ranges) {
      for (std::uint32_t k = std::max(first, next); k <= last; ++k) {
        slots.push_back(k);
      }
      next = std::max(next, last + 1);
    }
  }
  visits += slots.size();

  out.t = t;
  out.self = row_of[i];
  out.robots.view(position, order, identified_ ? ids_.data() : nullptr,
                  look.shown);
  out.hint.known = true;
  out.hint.since = look.t;
  look.others = stale_seal;
  look.self = now_seal;
  look.t = t;
  return visits;
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
  if (programs_.empty()) {
    throw std::logic_error("Engine::step: wake the robots first");
  }
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
      row_visits_ +=
          hinted_ ? observe_in_place(i, before, stale, t_, stale_seal,
                                     now_seal, rows(i), looks_[i],
                                     look_scratch_, snap_scratch_)
                  : observe_all(i, before, stale, t_, listing(i),
                                /*repair=*/true, seen_scratch_, snap_scratch_);
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
