#include "fault/fault_plan.hpp"

#include <algorithm>
#include <charconv>
#include <tuple>

#include "par/seed.hpp"
#include "sim/rng.hpp"

namespace stig::fault {
namespace {

/// Parses an unsigned integer at the front of `s`, advancing it. False on
/// no digits or overflow.
bool eat_u64(std::string_view& s, std::uint64_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr == s.data()) return false;
  s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
  return true;
}

/// Parses a signed 32-bit integer at the front of `s`, advancing it.
bool eat_i32(std::string_view& s, std::int32_t& out) {
  const auto [ptr, ec] = std::from_chars(s.data(), s.data() + s.size(), out);
  if (ec != std::errc{} || ptr == s.data()) return false;
  s.remove_prefix(static_cast<std::size_t>(ptr - s.data()));
  return true;
}

/// Consumes a literal prefix; false when absent.
bool eat(std::string_view& s, std::string_view lit) {
  if (!s.starts_with(lit)) return false;
  s.remove_prefix(lit.size());
  return true;
}

bool parse_one(std::string_view item, FaultPlan& plan) {
  std::uint64_t robot = 0;
  if (eat(item, "crash:")) {
    CrashFault f;
    if (!eat_u64(item, robot) || !eat(item, "@") ||
        !eat_u64(item, f.at) || !item.empty()) {
      return false;
    }
    f.robot = static_cast<sim::RobotIndex>(robot);
    plan.crashes.push_back(f);
    return true;
  }
  if (eat(item, "stall:")) {
    StallFault f;
    if (!eat_u64(item, robot) || !eat(item, "@") ||
        !eat_u64(item, f.from) || !eat(item, "+") ||
        !eat_u64(item, f.instants) || !item.empty() || f.instants == 0) {
      return false;
    }
    f.robot = static_cast<sim::RobotIndex>(robot);
    plan.stalls.push_back(f);
    return true;
  }
  if (eat(item, "jitter:")) {
    JitterFault f;
    if (!eat_u64(item, robot) || !eat(item, "@") ||
        !eat_u64(item, f.at) || !eat(item, ":") ||
        !eat_i32(item, f.dx_ticks) || !eat(item, ",") ||
        !eat_i32(item, f.dy_ticks) || !item.empty()) {
      return false;
    }
    f.robot = static_cast<sim::RobotIndex>(robot);
    plan.jitters.push_back(f);
    return true;
  }
  if (eat(item, "burst:")) {
    BurstFault f;
    if (!eat_u64(item, robot) || !eat(item, "@") ||
        !eat_u64(item, f.nth_bit) || !eat(item, "x") ||
        !eat_u64(item, f.width) || !item.empty() || f.width == 0) {
      return false;
    }
    f.robot = static_cast<sim::RobotIndex>(robot);
    plan.bursts.push_back(f);
    return true;
  }
  if (eat(item, "corrupt:")) {
    CorruptFault f;
    if (!eat_u64(item, robot) || !eat(item, "@") ||
        !eat_u64(item, f.at) || !eat(item, ":")) {
      return false;
    }
    const auto target = corrupt_target_from_name(item);
    if (!target) return false;
    f.robot = static_cast<sim::RobotIndex>(robot);
    f.target = *target;
    plan.corrupts.push_back(f);
    return true;
  }
  return false;
}

}  // namespace

const char* corrupt_target_name(proto::CorruptKind target) noexcept {
  switch (target) {
    case proto::CorruptKind::phase: return "phase";
    case proto::CorruptKind::cursor: return "cursor";
    case proto::CorruptKind::parser: return "parser";
    case proto::CorruptKind::naming: return "naming";
  }
  return "unknown";
}

std::optional<proto::CorruptKind> corrupt_target_from_name(
    std::string_view name) noexcept {
  for (const proto::CorruptKind t : proto::kCorruptKinds) {
    if (name == corrupt_target_name(t)) return t;
  }
  return std::nullopt;
}

void normalize(FaultPlan& plan) {
  const auto sort_unique = [](auto& v, auto key) {
    std::sort(v.begin(), v.end(), [&](const auto& a, const auto& b) {
      return key(a) < key(b);
    });
    v.erase(std::unique(v.begin(), v.end()), v.end());
  };
  sort_unique(plan.crashes, [](const CrashFault& f) {
    return std::make_tuple(f.robot, f.at);
  });
  // A robot crashes once; the earliest instant wins.
  plan.crashes.erase(
      std::unique(plan.crashes.begin(), plan.crashes.end(),
                  [](const CrashFault& a, const CrashFault& b) {
                    return a.robot == b.robot;
                  }),
      plan.crashes.end());
  sort_unique(plan.stalls, [](const StallFault& f) {
    return std::make_tuple(f.robot, f.from, f.instants);
  });
  sort_unique(plan.jitters, [](const JitterFault& f) {
    return std::make_tuple(f.robot, f.at, f.dx_ticks, f.dy_ticks);
  });
  sort_unique(plan.bursts, [](const BurstFault& f) {
    return std::make_tuple(f.robot, f.nth_bit, f.width);
  });
  sort_unique(plan.corrupts, [](const CorruptFault& f) {
    return std::make_tuple(f.robot, f.at, f.target);
  });
}

FaultPlan sample_fault_plan(std::uint64_t seed,
                            const FaultPlanShape& shape) {
  FaultPlan plan;
  if (shape.robots == 0 || shape.horizon == 0) return plan;
  sim::Rng rng(par::mix_seed(seed ^ 0xfa517ULL));
  const auto robot = [&] {
    return static_cast<sim::RobotIndex>(
        rng.uniform_int(0, shape.robots - 1));
  };
  const auto instant = [&] { return rng.uniform_int(0, shape.horizon - 1); };

  const std::uint64_t n_crashes = rng.uniform_int(0, shape.max_crashes);
  for (std::uint64_t k = 0; k < n_crashes; ++k) {
    plan.crashes.push_back(CrashFault{robot(), instant()});
  }
  const std::uint64_t n_stalls = rng.uniform_int(0, shape.max_stalls);
  for (std::uint64_t k = 0; k < n_stalls; ++k) {
    StallFault f;
    f.robot = robot();
    f.from = instant();
    f.instants = rng.uniform_int(1, std::max<sim::Time>(1, shape.stall_max));
    plan.stalls.push_back(f);
  }
  const std::uint64_t n_jitters = rng.uniform_int(0, shape.max_jitters);
  for (std::uint64_t k = 0; k < n_jitters; ++k) {
    JitterFault f;
    f.robot = robot();
    f.at = instant();
    const auto tick = [&] {
      const auto mag = static_cast<std::int32_t>(
          rng.uniform_int(0, static_cast<std::uint64_t>(
                                 std::max(1, shape.jitter_ticks_max))));
      return rng.flip(0.5) ? mag : -mag;
    };
    f.dx_ticks = tick();
    f.dy_ticks = tick();
    plan.jitters.push_back(f);
  }
  const std::uint64_t n_bursts = rng.uniform_int(0, shape.max_bursts);
  for (std::uint64_t k = 0; k < n_bursts; ++k) {
    BurstFault f;
    f.robot = robot();
    f.nth_bit = rng.uniform_int(0, shape.burst_bit_max);
    f.width = rng.uniform_int(1, std::max<std::uint64_t>(1,
                                                         shape.burst_width_max));
    plan.bursts.push_back(f);
  }
  // Corruptions draw after every pre-stabilization category so plans
  // sampled under the old shape are bit-identical (max_corrupts == 0 never
  // perturbs the sequence of draws that produced them).
  const std::uint64_t n_corrupts = rng.uniform_int(0, shape.max_corrupts);
  for (std::uint64_t k = 0; k < n_corrupts; ++k) {
    CorruptFault f;
    f.robot = robot();
    f.at = instant();
    f.target = proto::kCorruptKinds[rng.uniform_int(
        0, proto::kCorruptKinds.size() - 1)];
    plan.corrupts.push_back(f);
  }
  normalize(plan);
  return plan;
}

std::string format_fault_plan(const FaultPlan& plan) {
  std::string out;
  const auto sep = [&] {
    if (!out.empty()) out += ';';
  };
  for (const CrashFault& f : plan.crashes) {
    sep();
    out += "crash:" + std::to_string(f.robot) + "@" + std::to_string(f.at);
  }
  for (const StallFault& f : plan.stalls) {
    sep();
    out += "stall:" + std::to_string(f.robot) + "@" +
           std::to_string(f.from) + "+" + std::to_string(f.instants);
  }
  for (const JitterFault& f : plan.jitters) {
    sep();
    out += "jitter:" + std::to_string(f.robot) + "@" +
           std::to_string(f.at) + ":" + std::to_string(f.dx_ticks) + "," +
           std::to_string(f.dy_ticks);
  }
  for (const BurstFault& f : plan.bursts) {
    sep();
    out += "burst:" + std::to_string(f.robot) + "@" +
           std::to_string(f.nth_bit) + "x" + std::to_string(f.width);
  }
  for (const CorruptFault& f : plan.corrupts) {
    sep();
    out += "corrupt:" + std::to_string(f.robot) + "@" +
           std::to_string(f.at) + ":" + corrupt_target_name(f.target);
  }
  return out;
}

std::optional<FaultPlan> parse_fault_plan(std::string_view text) {
  FaultPlan plan;
  while (!text.empty()) {
    const std::size_t semi = text.find(';');
    const std::string_view item = text.substr(0, semi);
    if (!parse_one(item, plan)) return std::nullopt;
    if (semi == std::string_view::npos) break;
    text.remove_prefix(semi + 1);
  }
  // Duplicate hardening: anything normalize() would drop — an exact
  // repeat, or a second crash for an already-crashed robot — is not a
  // valid schedule. Normalized plans still round-trip unchanged.
  FaultPlan canon = plan;
  normalize(canon);
  if (canon.size() != plan.size()) return std::nullopt;
  return plan;
}

}  // namespace stig::fault
