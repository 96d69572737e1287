#include "fuzz/fuzz_config.hpp"

#include <algorithm>
#include <sstream>

#include "par/seed.hpp"
#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig::fuzz {
namespace {

/// Draws the fault-masking plan for `cfg`: faults target physical robots
/// in lanes 1..group_size-1 only (lane 0 stays the fault-free witness) and
/// fire inside the first quarter of the instant budget, where the payload
/// is actually in flight. Derived from cfg.seed — independent of the
/// sampling RNG so forcing the dimensions later lands on the same plan.
fault::FaultPlan sample_case_fault_plan(const FuzzConfig& cfg) {
  fault::FaultPlanShape shape;
  shape.robots = (cfg.group_size - 1) * cfg.n;
  shape.horizon =
      std::max<sim::Time>(1, instant_budget(cfg) / 4);
  shape.max_crashes = 2;
  shape.max_stalls = 1;
  shape.max_jitters = 1;
  shape.max_bursts = 1;
  shape.stall_max = 128;
  shape.jitter_ticks_max = 512;
  shape.burst_bit_max = 8 * (cfg.payload.size() + 2) * 2;
  shape.burst_width_max = 5;
  fault::FaultPlan plan = fault::sample_fault_plan(
      par::derive_seed(cfg.seed, 0xfa17), shape);
  // Shift every target out of lane 0.
  for (auto& f : plan.crashes) f.robot += cfg.n;
  for (auto& f : plan.stalls) f.robot += cfg.n;
  for (auto& f : plan.jitters) f.robot += cfg.n;
  for (auto& f : plan.bursts) f.robot += cfg.n;
  return plan;
}

/// One transient corruption for `cfg`: any robot, any target, scheduled in
/// the first quarter of the budget. Used by both the sampler (drawing from
/// the case RNG) and force_corrupt_dimensions (its own derived RNG).
fault::CorruptFault sample_corruption(sim::Rng& rng, const FuzzConfig& cfg) {
  fault::CorruptFault c;
  c.robot = static_cast<sim::RobotIndex>(
      rng.uniform_int(0, static_cast<std::uint64_t>(cfg.n) - 1));
  // Early in the first transfer: signaling the first payload bit takes
  // longer than this in every protocol (async transfers run thousands of
  // instants), so the corruption lands on a *live* state machine instead
  // of scrambling an idle swarm after quiescence — which would exercise
  // nothing. The budget-scaled cap keeps shrunk budgets consistent.
  const sim::Time horizon = std::min<sim::Time>(
      32, std::max<sim::Time>(2, instant_budget(cfg) / 4));
  c.at = 1 + rng.uniform_int(0, horizon - 2);
  c.target = proto::kCorruptKinds[rng.uniform_int(
      0, proto::kCorruptKinds.size() - 1)];
  return c;
}

}  // namespace

bool is_synchronous(core::ProtocolKind kind) {
  return kind == core::ProtocolKind::sync2 ||
         kind == core::ProtocolKind::sliced ||
         kind == core::ProtocolKind::ksegment;
}

sim::Time settle_instants(core::ProtocolKind kind) {
  return is_synchronous(kind) ? 4 : 512;
}

std::vector<core::ProtocolKind> equivalence_class(core::ProtocolKind kind,
                                                  std::size_t n) {
  using PK = core::ProtocolKind;
  std::vector<PK> cls;
  if (is_synchronous(kind)) {
    // Every synchronous protocol implements the same reliable channel; the
    // two-robot specialization only exists at n == 2.
    if (n == 2) cls = {PK::sync2, PK::sliced, PK::ksegment};
    else cls = {PK::sliced, PK::ksegment};
  } else {
    if (n == 2) cls = {PK::async2, PK::asyncn};
    else cls = {PK::asyncn};
  }
  // The config's own protocol leads, so callers can treat cls[0] as the
  // primary run and the rest as differential peers.
  const auto it = std::find(cls.begin(), cls.end(), kind);
  if (it != cls.end()) std::rotate(cls.begin(), it, it + 1);
  return cls;
}

std::vector<geom::Vec2> scatter(std::uint64_t seed, std::size_t n) {
  sim::Rng rng(seed ^ 0x5745);
  return sim::scatter(rng, n, 30.0, 3.0);
}

sim::Time instant_budget(const FuzzConfig& cfg) {
  if (cfg.max_instants != 0) return cfg.max_instants;
  // varint length (1 byte for every payload the sampler emits) + payload +
  // CRC byte, transmitted bit by bit.
  const std::uint64_t frame_bits = 8 * (cfg.payload.size() + 2);
  const auto n = static_cast<std::uint64_t>(cfg.n);
  if (is_synchronous(cfg.protocol)) {
    // Sliced rounds cost O(n) instants per bit; the constant is generous.
    return 2'000 + frame_bits * (64 * n + 64);
  }
  // Asynchronous cost divides by the scheduler's activation rate.
  double rate = 1.0;
  switch (cfg.scheduler) {
    case core::SchedulerKind::bernoulli:
      rate = std::max(cfg.p, 0.05);
      break;
    case core::SchedulerKind::centralized:
      rate = 1.0 / static_cast<double>(n);
      break;
    case core::SchedulerKind::ksubset:
      rate = static_cast<double>(std::max<std::size_t>(cfg.subset_size, 1)) /
             static_cast<double>(n);
      break;
    case core::SchedulerKind::adversarial:
      rate = 1.0;
      break;
  }
  const auto per_bit =
      static_cast<std::uint64_t>(static_cast<double>(512 * n) / rate);
  return 20'000 + frame_bits * per_bit;
}

FuzzConfig sample_config(std::uint64_t case_seed) {
  sim::Rng rng(case_seed ^ 0xf0225eedULL);
  FuzzConfig cfg;
  cfg.seed = case_seed;
  // Small swarms dominate: most schedule interleavings already show up at
  // n <= 3, and every extra robot multiplies the instant budget.
  static constexpr std::size_t kSizes[] = {2, 2, 2, 3, 3, 5};
  cfg.n = kSizes[rng.uniform_int(0, 5)];

  const bool sync = rng.flip(0.5);
  using PK = core::ProtocolKind;
  if (sync) {
    if (cfg.n == 2) {
      static constexpr PK kSync2[] = {PK::sync2, PK::sliced, PK::ksegment};
      cfg.protocol = kSync2[rng.uniform_int(0, 2)];
    } else {
      cfg.protocol = rng.flip(0.5) ? PK::sliced : PK::ksegment;
    }
  } else {
    cfg.protocol = cfg.n == 2 && rng.flip(0.5) ? PK::async2 : PK::asyncn;
  }

  using SK = core::SchedulerKind;
  static constexpr SK kScheds[] = {SK::bernoulli, SK::bernoulli,
                                   SK::centralized, SK::ksubset,
                                   SK::adversarial};
  cfg.scheduler = kScheds[rng.uniform_int(0, 4)];
  cfg.p = 0.2 + 0.15 * static_cast<double>(rng.uniform_int(0, 4));
  cfg.subset_size = 1 + rng.uniform_int(0, cfg.n - 1);
  static constexpr std::size_t kBounds[] = {2, 8, 64};
  cfg.fairness_bound = kBounds[rng.uniform_int(0, 2)];

  const std::size_t len = rng.uniform_int(0, 6);
  cfg.payload.reserve(len);
  for (std::size_t i = 0; i < len; ++i) {
    cfg.payload.push_back(static_cast<std::uint8_t>(rng.uniform_int(0, 255)));
  }
  cfg.broadcast = rng.flip(0.2);
  cfg.max_instants = instant_budget(cfg);

  // Fault-masking dimension, drawn last so the base config a given seed
  // produces is unchanged from earlier corpus generations.
  if (rng.flip(0.25)) {
    cfg.group_size = rng.flip(0.3) ? 3 : 2;
    cfg.fault_plan = sample_case_fault_plan(cfg);
  } else if (rng.flip(0.15)) {
    // Arbitrary-state dimension (single-lane only, appended after the
    // masking flip so earlier corpus generations keep their configs): one
    // transient corruption of a live state machine inside the first
    // quarter of the budget, where the payload is actually in flight.
    cfg.fault_plan.corrupts = {sample_corruption(rng, cfg)};
  }
  return cfg;
}

void force_fault_dimensions(FuzzConfig& cfg) {
  cfg.group_size = 2 + (par::mix_seed(cfg.seed ^ 0x6d45) & 1);
  cfg.max_instants = 0;
  cfg.max_instants = instant_budget(cfg);
  cfg.fault_plan = sample_case_fault_plan(cfg);
}

void force_corrupt_dimensions(FuzzConfig& cfg) {
  cfg.group_size = 1;
  cfg.fault_plan = {};
  cfg.max_instants = 0;
  cfg.max_instants = instant_budget(cfg);
  sim::Rng rng(par::derive_seed(cfg.seed, 0xc024));
  cfg.fault_plan.corrupts = {sample_corruption(rng, cfg)};
}

core::ChatNetworkOptions to_options(const FuzzConfig& cfg,
                                    core::ProtocolKind kind) {
  core::ChatNetworkOptions opt;
  opt.synchrony = is_synchronous(kind) ? core::Synchrony::synchronous
                                       : core::Synchrony::asynchronous;
  opt.protocol = kind;
  opt.scheduler = cfg.scheduler;
  opt.activation_probability = cfg.p;
  opt.subset_size = cfg.subset_size;
  opt.fairness_bound = cfg.fairness_bound;
  opt.seed = cfg.seed;
  return opt;
}

std::string canonical(const FuzzConfig& cfg) {
  std::ostringstream out;
  out << "seed=" << cfg.seed
      << ";protocol=" << core::protocol_kind_name(cfg.protocol)
      << ";scheduler=" << core::scheduler_kind_name(cfg.scheduler)
      << ";p=" << cfg.p << ";subset=" << cfg.subset_size
      << ";bound=" << cfg.fairness_bound << ";n=" << cfg.n << ";payload=";
  static const char* hex = "0123456789abcdef";
  for (std::uint8_t b : cfg.payload) {
    out << hex[b >> 4] << hex[b & 0xf];
  }
  out << ";broadcast=" << (cfg.broadcast ? 1 : 0)
      << ";max_instants=" << instant_budget(cfg);
  if (cfg.fault) {
    out << ";fault=" << cfg.fault->robot << ":" << cfg.fault->nth_bit;
  }
  // Masking dimensions appear only when armed, so every pre-existing
  // config keeps its historical canonical form (and hash).
  if (cfg.group_size > 1 || !cfg.fault_plan.empty()) {
    out << ";group=" << cfg.group_size
        << ";plan=" << fault::format_fault_plan(cfg.fault_plan);
  }
  return out.str();
}

std::uint64_t config_hash(const FuzzConfig& cfg) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (char c : canonical(cfg)) {
    h ^= static_cast<std::uint8_t>(c);
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace stig::fuzz
