// FaultInjector — applies a FaultPlan to a running engine.
//
// The injector is the sim::StepInterceptor the engine consults every
// instant: it masks crashed and stalled robots out of the scheduler's
// activation set, displaces jittered robots after the instant's moves, and
// emits one FaultInjected telemetry event the first time each scheduled
// fault takes effect (so the watchdog's crash_silence invariant arms at the
// right instant, and traces show the faults alongside the protocol
// activity).
//
// Burst faults (decode corruption) live in the message layer, not the
// engine — `arm_bursts` plants them on a ChatNetwork up front.
#pragma once

#include <span>
#include <vector>

#include "fault/fault_plan.hpp"
#include "obs/cov.hpp"
#include "obs/sink.hpp"
#include "sim/engine.hpp"

namespace stig::core {
class ChatNetwork;
}  // namespace stig::core

namespace stig::fault {

class FaultInjector final : public sim::StepInterceptor {
 public:
  /// Takes the plan by value (normalized copies are cheap; the injector
  /// must outlive the engine it is attached to, not the plan's source).
  explicit FaultInjector(FaultPlan plan);

  /// Routes FaultInjected events into `sink` (not owned; null = silent).
  void set_event_sink(obs::EventSink* sink) noexcept { sink_ = sink; }

  /// Attaches a coverage map (not owned; null detaches): each fault kind
  /// that actually takes effect records a fault-domain
  /// fault.plan -> fault.<kind> edge, so a corpus proves which fault
  /// classes it exercised (not just scheduled).
  void set_coverage(obs::cov::CovMap* map) noexcept {
    cov_ = map;
    if (cov_ != nullptr) cov_plan_ = cov_->state("fault.plan");
  }

  [[nodiscard]] const FaultPlan& plan() const noexcept { return plan_; }

  // sim::StepInterceptor
  void on_activation(sim::Time t, sim::ActivationSet& active) override;
  void on_positions(sim::Time t,
                    std::span<geom::Vec2> positions) override;
  [[nodiscard]] bool crashed(sim::RobotIndex i, sim::Time t) const override;

 private:
  void emit(sim::Time t, sim::RobotIndex robot, const char* kind,
            double value);

  FaultPlan plan_;
  std::vector<bool> crash_fired_;
  std::vector<bool> stall_fired_;
  std::vector<bool> jitter_fired_;
  obs::EventSink* sink_ = nullptr;
  obs::cov::CovMap* cov_ = nullptr;  ///< Not owned; null when off.
  obs::cov::StateId cov_plan_ = obs::cov::kInvalidState;
};

/// Arms the plan's burst faults on `net` via inject_decode_fault. At most
/// one burst per robot is armed (a ChatRobot holds one pending fault; the
/// normalized plan's first burst per robot wins). Emits a FaultInjected
/// "burst" event at t=0 per armed fault into `sink` (null = silent); each
/// armed burst also records a fault.plan -> fault.burst coverage edge into
/// `cov` (null = off).
std::size_t arm_bursts(core::ChatNetwork& net, const FaultPlan& plan,
                       obs::EventSink* sink,
                       obs::cov::CovMap* cov = nullptr);

/// Schedules the plan's transient-corruption faults on `net` via
/// schedule_corruption; nothing else needs arming, since every activation
/// audits its naming tables, in O(1) and without allocating while no
/// corruption has copied them (DESIGN.md §9). Unlike arm_bursts this
/// emits nothing here: the network itself emits the FaultInjected
/// "corrupt_<target>" event and the fault.plan -> fault.corrupt_<target>
/// coverage edge at the instant each corruption is actually applied.
/// Out-of-range robots are skipped.
std::size_t arm_corruptions(core::ChatNetwork& net, const FaultPlan& plan);

}  // namespace stig::fault
