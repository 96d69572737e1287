// FaultPlan — a deterministic, serializable schedule of injected faults.
//
// A plan is plain data: which robots crash-stop and when, which stall for a
// window, which get shoved by a transient position jitter, and which misread
// a burst of decoded signals. Plans are sampled from a seed (via
// par::derive_seed, so batch fuzzing stays job-count invariant), rendered to
// a compact single-line string for repro files, and parsed back bit-for-bit
// — `stigsim --replay` of a faulted case re-runs the *same* faults.
//
// The plan is pure description. Applying it is the FaultInjector's job
// (crash/stall/jitter, through sim::StepInterceptor) plus
// `arm_bursts` (decode-fault bursts, through core::ChatNetwork).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "proto/common.hpp"
#include "sim/types.hpp"

namespace stig::fault {

/// Jitter displacements are integer multiples of this global-unit tick so a
/// plan round-trips through its string form exactly (doubles would not).
inline constexpr double kJitterTick = 1.0 / 1024.0;

/// Robot `robot` crash-stops at instant `at`: it is never activated at or
/// after `at` (its pending messages are lost — that is the point).
struct CrashFault {
  sim::RobotIndex robot = 0;
  sim::Time at = 0;
  friend bool operator==(const CrashFault&, const CrashFault&) = default;
};

/// Robot `robot` is stuck for `instants` instants starting at `from`: the
/// scheduler may pick it but it does not act. Models a transient wedge (the
/// crash-stop's recoverable cousin).
struct StallFault {
  sim::RobotIndex robot = 0;
  sim::Time from = 0;
  sim::Time instants = 1;
  friend bool operator==(const StallFault&, const StallFault&) = default;
};

/// Robot `robot` is displaced by (dx, dy) * kJitterTick global units after
/// the moves of instant `at` — a shove / mislocalized recovery.
struct JitterFault {
  sim::RobotIndex robot = 0;
  sim::Time at = 0;
  std::int32_t dx_ticks = 0;
  std::int32_t dy_ticks = 0;
  friend bool operator==(const JitterFault&, const JitterFault&) = default;
};

/// Robot `robot` misreads `width` consecutive decoded signals starting at
/// its `nth_bit`-th (0-based, across all streams) — a frame-corruption
/// burst. Armed through ChatRobot::inject_decode_fault.
struct BurstFault {
  sim::RobotIndex robot = 0;
  std::uint64_t nth_bit = 0;
  std::uint64_t width = 1;
  friend bool operator==(const BurstFault&, const BurstFault&) = default;
};

/// A corruption target's name in plan text, events and coverage edges.
[[nodiscard]] const char* corrupt_target_name(
    proto::CorruptKind target) noexcept;
[[nodiscard]] std::optional<proto::CorruptKind> corrupt_target_from_name(
    std::string_view name) noexcept;

/// Robot `robot`'s state machine `target` is overwritten with arbitrary
/// seed-derived values after the moves of instant `at` — the transient
/// fault class of the self-stabilization companions. The targets are the
/// *real* per-robot state machines, not abstractions: protocol phase
/// bookkeeping, the outbox bit cursor, the frame-parser assembly state,
/// and the geometry-derived naming tables. The plan only schedules the
/// damage; recovering is the protocol's job (see docs/STABILIZATION.md for
/// the per-target resync semantics).
struct CorruptFault {
  sim::RobotIndex robot = 0;
  sim::Time at = 0;
  proto::CorruptKind target = proto::CorruptKind::phase;
  friend bool operator==(const CorruptFault&, const CorruptFault&) = default;
};

/// The full schedule. Empty vectors mean a fault-free run.
struct FaultPlan {
  std::vector<CrashFault> crashes;
  std::vector<StallFault> stalls;
  std::vector<JitterFault> jitters;
  std::vector<BurstFault> bursts;
  std::vector<CorruptFault> corrupts;

  [[nodiscard]] bool empty() const noexcept {
    return crashes.empty() && stalls.empty() && jitters.empty() &&
           bursts.empty() && corrupts.empty();
  }
  /// Total number of scheduled faults.
  [[nodiscard]] std::size_t size() const noexcept {
    return crashes.size() + stalls.size() + jitters.size() + bursts.size() +
           corrupts.size();
  }
  friend bool operator==(const FaultPlan&, const FaultPlan&) = default;
};

/// Sorts each category (by robot, then time/bit) and drops exact
/// duplicates, so equal plans have equal strings. At most one crash per
/// robot survives (the earliest — a robot crashes once).
void normalize(FaultPlan& plan);

/// Sampling envelope: how many faults of each kind at most, and the ranges
/// their parameters are drawn from. `robots` and `horizon` come from the
/// case being fuzzed.
struct FaultPlanShape {
  std::size_t robots = 2;       ///< Faults target robots < this.
  sim::Time horizon = 1000;     ///< Crash/stall/jitter instants < this.
  std::size_t max_crashes = 1;
  std::size_t max_stalls = 1;
  std::size_t max_jitters = 1;
  std::size_t max_bursts = 1;
  sim::Time stall_max = 64;             ///< Longest stall window.
  std::int32_t jitter_ticks_max = 256;  ///< Max |dx|, |dy| in ticks.
  std::uint64_t burst_bit_max = 512;    ///< Latest burst start (nth bit).
  std::uint64_t burst_width_max = 6;    ///< Widest burst.
  /// Default 0 so plans sampled before the stabilization layer existed stay
  /// bit-identical (the corruption draws append after every older category).
  std::size_t max_corrupts = 0;
};

/// Draws a plan from `seed` within `shape` (0..max faults per category,
/// uniform parameters). Deterministic: a pure function of its arguments.
/// The result is normalized.
[[nodiscard]] FaultPlan sample_fault_plan(std::uint64_t seed,
                                          const FaultPlanShape& shape);

/// Compact single-line form, e.g.
/// "crash:1@120;stall:2@40+10;jitter:0@77:307,-215;burst:1@10x4;corrupt:0@9:phase".
/// Empty plan renders as "". Normalize first for a canonical string.
[[nodiscard]] std::string format_fault_plan(const FaultPlan& plan);

/// Parses the format_fault_plan form; nullopt on malformed input.
/// Round-trip: parse(format(normalized plan)) == that plan. Plans that
/// normalize() would shrink are rejected too: an exact-duplicate fault spec
/// or a second crash for the same robot is a contradiction, not a schedule.
[[nodiscard]] std::optional<FaultPlan> parse_fault_plan(
    std::string_view text);

}  // namespace stig::fault
