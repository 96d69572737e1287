#include "fault/injector.hpp"

#include <algorithm>
#include <cmath>

#include "core/chat_network.hpp"
#include "obs/event.hpp"

namespace stig::fault {

FaultInjector::FaultInjector(FaultPlan plan) : plan_(std::move(plan)) {
  normalize(plan_);
  crash_fired_.assign(plan_.crashes.size(), false);
  stall_fired_.assign(plan_.stalls.size(), false);
  jitter_fired_.assign(plan_.jitters.size(), false);
}

void FaultInjector::emit(sim::Time t, sim::RobotIndex robot,
                         const char* kind, double value) {
  if (cov_ != nullptr) {
    // emit() fires exactly when a scheduled fault takes effect — the
    // coverage edge marks the fault class as genuinely exercised.
    cov_->hit(obs::cov::Domain::fault, cov_plan_, cov_->state("fault", kind));
  }
  if (sink_ == nullptr) return;
  obs::Event e;
  e.type = obs::EventType::FaultInjected;
  e.t = t;
  e.robot = static_cast<std::int64_t>(robot);
  e.value = value;
  e.label = kind;
  sink_->on_event(e);
}

void FaultInjector::on_activation(sim::Time t, sim::ActivationSet& active) {
  for (std::size_t k = 0; k < plan_.crashes.size(); ++k) {
    const CrashFault& f = plan_.crashes[k];
    if (t < f.at || f.robot >= active.size()) continue;
    if (!crash_fired_[k]) {
      crash_fired_[k] = true;
      emit(t, f.robot, "crash", 0.0);
    }
    active[f.robot] = false;
  }
  for (std::size_t k = 0; k < plan_.stalls.size(); ++k) {
    const StallFault& f = plan_.stalls[k];
    if (t < f.from || t >= f.from + f.instants || f.robot >= active.size()) {
      continue;
    }
    if (!stall_fired_[k]) {
      stall_fired_[k] = true;
      emit(t, f.robot, "stall", static_cast<double>(f.instants));
    }
    active[f.robot] = false;
  }
}

void FaultInjector::on_positions(sim::Time t,
                                 std::span<geom::Vec2> positions) {
  for (std::size_t k = 0; k < plan_.jitters.size(); ++k) {
    const JitterFault& f = plan_.jitters[k];
    if (t != f.at || jitter_fired_[k] || f.robot >= positions.size()) {
      continue;
    }
    jitter_fired_[k] = true;
    const geom::Vec2 d{static_cast<double>(f.dx_ticks) * kJitterTick,
                       static_cast<double>(f.dy_ticks) * kJitterTick};
    positions[f.robot] = positions[f.robot] + d;
    emit(t, f.robot, "jitter", d.norm());
  }
}

bool FaultInjector::crashed(sim::RobotIndex i, sim::Time t) const {
  for (const CrashFault& f : plan_.crashes) {
    if (f.robot == i && t >= f.at) return true;
  }
  return false;
}

std::size_t arm_bursts(core::ChatNetwork& net, const FaultPlan& plan,
                       obs::EventSink* sink, obs::cov::CovMap* cov) {
  std::size_t armed = 0;
  std::vector<sim::RobotIndex> taken;
  for (const BurstFault& f : plan.bursts) {
    if (f.robot >= net.robot_count()) continue;
    // One pending fault per robot: first burst (in plan order) wins.
    if (std::find(taken.begin(), taken.end(), f.robot) != taken.end()) {
      continue;
    }
    net.inject_decode_fault(f.robot, f.nth_bit, f.width);
    taken.push_back(f.robot);
    ++armed;
    if (cov != nullptr) {
      cov->hit(obs::cov::Domain::fault, cov->state("fault.plan"),
               cov->state("fault.burst"));
    }
    if (sink != nullptr) {
      obs::Event e;
      e.type = obs::EventType::FaultInjected;
      e.t = 0;
      e.robot = static_cast<std::int64_t>(f.robot);
      e.value = static_cast<double>(f.width);
      e.label = "burst";
      sink->on_event(e);
    }
  }
  return armed;
}

std::size_t arm_corruptions(core::ChatNetwork& net, const FaultPlan& plan) {
  std::size_t armed = 0;
  for (const CorruptFault& f : plan.corrupts) {
    if (f.robot >= net.robot_count()) continue;
    net.schedule_corruption(f.robot, f.at, f.target);
    ++armed;
  }
  return armed;
}

}  // namespace stig::fault
