#include "sim/trace.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

namespace stig::sim {

void Trace::apply(const obs::Event& e) {
  switch (e.type) {
    case obs::EventType::Activation:
      if (e.robot >= 0 && static_cast<std::size_t>(e.robot) < stats_.size()) {
        ++stats_[static_cast<std::size_t>(e.robot)].activations;
      }
      break;
    case obs::EventType::Move:
      if (e.robot >= 0 && static_cast<std::size_t>(e.robot) < stats_.size()) {
        MotionStats& s = stats_[static_cast<std::size_t>(e.robot)];
        ++s.moves;
        s.distance += e.value;
      }
      break;
    case obs::EventType::StepComplete:
      min_separation_ = std::min(min_separation_, e.value);
      ++instants_;
      break;
    default:
      break;  // Trace folds motion events only.
  }
}

void Trace::record_step(const std::vector<bool>& active,
                        std::span<const geom::Vec2> before,
                        std::span<const geom::Vec2> after,
                        obs::EventSink* forward) {
  const std::size_t n = stats_.size();
  if (record_positions_ && history_.empty()) {
    history_.emplace_back(before.begin(), before.end());
  }
  const std::uint64_t t = instants_;  // == engine time at this step.

  obs::Event e;
  e.t = t;
  for (std::size_t i = 0; i < n; ++i) {
    if (!active[i]) continue;
    e.type = obs::EventType::Activation;
    e.robot = static_cast<std::int64_t>(i);
    e.x = before[i].x;
    e.y = before[i].y;
    e.value = 0.0;
    apply(e);
    if (forward != nullptr) forward->on_event(e);
    if (std::is_gt(geom::dist_cmp(before[i], after[i], geom::kEps))) {
      e.type = obs::EventType::Move;
      e.x = after[i].x;
      e.y = after[i].y;
      e.value = geom::dist(before[i], after[i]);
      apply(e);
      if (forward != nullptr) forward->on_event(e);
    }
  }

  double step_min = std::numeric_limits<double>::infinity();
  if (n < 128) {
    // hypot only for the pairs whose squared distance lies within
    // dist_cmp's band of the smallest one: every other pair's hypot is
    // larger. Outside the band's range, every pair.
    double min_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        min_d2 = std::min(min_d2, geom::dist2(after[i], after[j]));
      }
    }
    const bool filtered = geom::in_dist_band_range(min_d2);
    const double limit = min_d2 * (1.0 + geom::kDistBand);
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (filtered && !(geom::dist2(after[i], after[j]) <= limit)) continue;
        step_min = std::min(step_min, geom::dist(after[i], after[j]));
      }
    }
  } else {
    // Large swarms: the min separation is the min over robots of the
    // nearest-neighbour distance — an O(n) grid pass instead of the
    // all-pairs scan that used to dominate every instant.
    grid_.build(after);
    double min_d2 = std::numeric_limits<double>::infinity();
    for (std::size_t i = 0; i < n; ++i) {
      min_d2 = std::min(min_d2, grid_.nearest_other_dist2(i));
    }
    step_min = std::sqrt(min_d2);
  }
  e.type = obs::EventType::StepComplete;
  e.robot = -1;
  e.x = e.y = 0.0;
  e.value = step_min;
  apply(e);
  if (forward != nullptr) forward->on_event(e);

  if (record_positions_) history_.emplace_back(after.begin(), after.end());
}

}  // namespace stig::sim
