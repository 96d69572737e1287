#include "core/chat_network.hpp"

#include <algorithm>
#include <limits>
#include <stdexcept>
#include <utility>

#include "par/seed.hpp"
#include "proto/async2.hpp"
#include "proto/asyncn.hpp"
#include "proto/ksegment.hpp"
#include "proto/sync2.hpp"
#include "proto/sync_sliced.hpp"
#include "sim/rng.hpp"

namespace stig::core {
namespace {

proto::NamingMode naming_for(const Capabilities& caps) {
  if (caps.visible_ids && caps.sense_of_direction) {
    return proto::NamingMode::by_ids;
  }
  if (caps.sense_of_direction) return proto::NamingMode::lexicographic;
  return proto::NamingMode::relative;
}

ProtocolKind resolve_protocol(const ChatNetworkOptions& opt, std::size_t n) {
  if (opt.protocol != ProtocolKind::automatic) return opt.protocol;
  if (opt.synchrony == Synchrony::synchronous) {
    return n == 2 ? ProtocolKind::sync2 : ProtocolKind::sliced;
  }
  return n == 2 ? ProtocolKind::async2 : ProtocolKind::asyncn;
}

std::unique_ptr<sim::Scheduler> make_base_scheduler(
    const ChatNetworkOptions& opt) {
  if (opt.replay_schedule != nullptr) {
    return std::make_unique<sim::ReplayScheduler>(opt.replay_schedule);
  }
  if (opt.synchrony == Synchrony::synchronous) {
    return std::make_unique<sim::SynchronousScheduler>();
  }
  switch (opt.scheduler) {
    case SchedulerKind::bernoulli:
      return std::make_unique<sim::BernoulliScheduler>(
          opt.activation_probability, opt.seed ^ 0xabcdef, opt.fairness_bound);
    case SchedulerKind::centralized:
      return std::make_unique<sim::CentralizedScheduler>();
    case SchedulerKind::ksubset:
      return std::make_unique<sim::KSubsetScheduler>(
          opt.subset_size, opt.seed ^ 0xabcdef, opt.fairness_bound);
    case SchedulerKind::adversarial:
      return std::make_unique<sim::AdversarialScheduler>(opt.fairness_bound);
  }
  throw std::logic_error("unknown scheduler kind");
}

std::unique_ptr<sim::Scheduler> make_scheduler(
    const ChatNetworkOptions& opt) {
  std::unique_ptr<sim::Scheduler> base = make_base_scheduler(opt);
  if (opt.record_schedule != nullptr) {
    return std::make_unique<sim::RecordingScheduler>(std::move(base),
                                                     opt.record_schedule);
  }
  return base;
}

/// Robot `spec`'s program for protocol `kind`, its naming read through
/// `shared` where the protocol names robots.
std::unique_ptr<proto::ChatRobot> make_robot(ProtocolKind kind,
                                             const ChatNetworkOptions& opt,
                                             proto::NamingMode naming,
                                             const sim::RobotSpec& spec,
                                             proto::SharedNaming shared) {
  const double sigma_local = opt.sigma / spec.frame_unit;
  switch (kind) {
    case ProtocolKind::sync2: {
      proto::Sync2Options o;
      o.sigma_local = sigma_local;
      o.bits_per_symbol = opt.sync2_bits_per_symbol;
      return std::make_unique<proto::Sync2Robot>(o);
    }
    case ProtocolKind::sliced: {
      proto::SyncSlicedOptions o;
      o.naming = naming;
      o.sigma_local = sigma_local;
      o.flock_velocity =
          sim::Frame(geom::Vec2{0, 0}, spec.frame_rotation, spec.frame_unit,
                     spec.frame_mirrored)
              .to_local(opt.flock_velocity);
      o.shared_naming = std::move(shared);
      return std::make_unique<proto::SyncSlicedRobot>(std::move(o));
    }
    case ProtocolKind::ksegment: {
      proto::KSegmentOptions o;
      o.naming = naming;
      o.k = opt.ksegment_k;
      o.sigma_local = sigma_local;
      o.shared_naming = std::move(shared);
      return std::make_unique<proto::KSegmentRobot>(std::move(o));
    }
    case ProtocolKind::async2: {
      proto::Async2Options o;
      o.sigma_local = sigma_local;
      o.ack_changes = 2 + 2 * opt.observation_delay;
      o.bound = opt.async2_banded ? proto::BoundKind::banded
                                  : proto::BoundKind::unbounded;
      return std::make_unique<proto::Async2Robot>(o);
    }
    case ProtocolKind::asyncn: {
      proto::AsyncNOptions o;
      o.naming = naming;
      o.sigma_local = sigma_local;
      o.ack_changes = 2 + 2 * opt.observation_delay;
      o.shared_naming = std::move(shared);
      return std::make_unique<proto::AsyncNRobot>(std::move(o));
    }
    case ProtocolKind::automatic:
      break;
  }
  throw std::logic_error("unresolved protocol kind");
}

/// The naming tables robot `observer` builds from its t0 view: every
/// robot seen in its frame, listed in its t0 snapshot order.
std::shared_ptr<const proto::NamingTables> tables_in_view_of(
    const sim::Engine& engine, sim::RobotIndex observer,
    proto::NamingMode naming) {
  const sim::Frame& frame = engine.frame(observer);
  const std::span<const std::uint32_t> order = engine.listing(observer);
  std::vector<geom::Vec2> points;
  std::vector<sim::VisibleId> ids;
  points.reserve(order.size());
  for (const std::uint32_t j : order) {
    points.push_back(frame.to_local(engine.spec(j).position));
    if (naming == proto::NamingMode::by_ids) ids.push_back(*engine.spec(j).id);
  }
  return std::make_shared<const proto::NamingTables>(points, ids, naming);
}

}  // namespace

const char* protocol_kind_name(ProtocolKind kind) {
  switch (kind) {
    case ProtocolKind::automatic: return "auto";
    case ProtocolKind::sync2: return "sync2";
    case ProtocolKind::sliced: return "sliced";
    case ProtocolKind::ksegment: return "ksegment";
    case ProtocolKind::async2: return "async2";
    case ProtocolKind::asyncn: return "asyncn";
  }
  return "unknown";
}

const char* scheduler_kind_name(SchedulerKind kind) {
  switch (kind) {
    case SchedulerKind::bernoulli: return "bernoulli";
    case SchedulerKind::centralized: return "centralized";
    case SchedulerKind::ksubset: return "ksubset";
    case SchedulerKind::adversarial: return "adversarial";
  }
  return "unknown";
}

ChatNetwork::ChatNetwork(std::vector<geom::Vec2> positions,
                         ChatNetworkOptions options)
    : options_(options) {
  // Construction under the profiler: `net.build`, split into the engine's
  // t0 listings, the shared naming tables, and the robots' programs with
  // their t0 snapshots (waking them).
  obs::prof::Profiler* const prof = options_.profiler;
  const auto phase = [prof](const char* name) {
    return prof != nullptr ? prof->phase(name) : obs::prof::PhaseId{0};
  };
  const obs::prof::PhaseId ph_build = phase("net.build");
  const obs::prof::PhaseId ph_listing = phase("sim.t0_listing");
  const obs::prof::PhaseId ph_naming = phase("naming.ranks");
  const obs::prof::PhaseId ph_cores = phase("proto.cores");
  const obs::prof::Scope build(prof, ph_build);

  const std::size_t n = positions.size();
  if (n < 2) {
    throw std::invalid_argument("ChatNetwork needs at least two robots");
  }
  if (options_.visibility_radius > 0.0) {
    // The paper's protocols assume every movement is observable by every
    // robot; under limited visibility (Section 5 open problem) we require
    // at least mutual visibility of the initial configuration.
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = i + 1; j < n; ++j) {
        if (std::is_gt(geom::dist_cmp(positions[i], positions[j],
                                      options_.visibility_radius))) {
          throw std::invalid_argument(
              "robots must be mutually visible at t0");
        }
      }
    }
  }
  kind_ = resolve_protocol(options_, n);
  const bool synchronous = options_.synchrony == Synchrony::synchronous;
  if ((kind_ == ProtocolKind::sync2 || kind_ == ProtocolKind::async2) &&
      n != 2) {
    throw std::invalid_argument("2-robot protocol with n != 2");
  }
  if ((kind_ == ProtocolKind::sync2 || kind_ == ProtocolKind::sliced ||
       kind_ == ProtocolKind::ksegment) != synchronous) {
    throw std::invalid_argument("protocol/synchrony mismatch");
  }

  // Robot frames: randomized within the declared capabilities.
  sim::Rng rng(options_.seed);
  std::vector<sim::RobotSpec> specs;
  specs.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    sim::RobotSpec s;
    s.position = positions[i];
    s.sigma = options_.sigma;
    s.frame_unit = options_.randomize_frames ? rng.uniform(0.5, 2.0) : 1.0;
    s.frame_rotation =
        options_.caps.sense_of_direction || !options_.randomize_frames
            ? 0.0
            : rng.uniform(0.0, geom::kTwoPi);
    s.frame_mirrored = options_.mirrored_frames;  // Chirality: all equal.
    if (options_.caps.visible_ids) {
      // Arbitrary unique, deliberately not 0..n-1, so nothing can conflate
      // ids with simulator indices.
      s.id = static_cast<sim::VisibleId>(1000 + 7 * i);
    }
    specs.push_back(s);
  }

  sim::EngineOptions eopt;
  eopt.observation_quantum = options_.observation_quantum;
  eopt.observation_delay = options_.observation_delay;
  eopt.visibility_radius = options_.visibility_radius;

  // The engine sorts every robot's t0 listing once: `listing(i)[k]` is the
  // simulator index of the k-th robot in robot i's t0 snapshot, by the
  // engine's own observation rule (a quantized sensor can list two robots
  // in another order than their exact positions). Before the robots wake,
  // those listings place each robot's view of the shared naming tables;
  // after, they translate its slots to simulator indices.
  {
    const obs::prof::Scope listing(prof, ph_listing);
    engine_ = std::make_unique<sim::Engine>(std::move(specs),
                                            make_scheduler(options_), eopt);
  }
  const sim::Engine& engine = *engine_;

  // One set of naming tables per swarm (DESIGN.md §9), built in robot 0's
  // t0 view — not the global frame, whose "clockwise" mirrored frames
  // flip — and read by every robot through its permutation into robot
  // 0's order. Exact only while every t0 view is a similarity image of
  // robot 0's, which quantized observation breaks: then every robot
  // builds its own.
  const proto::NamingMode naming = naming_for(options_.caps);
  std::shared_ptr<const proto::NamingTables> tables;
  std::vector<std::uint32_t> canonical(n);  // Simulator index -> index in
                                            // robot 0's t0 order.
  if ((kind_ == ProtocolKind::sliced || kind_ == ProtocolKind::ksegment ||
       kind_ == ProtocolKind::asyncn) &&
      options_.observation_quantum <= 0.0) {
    const obs::prof::Scope ranks(prof, ph_naming);
    tables = tables_in_view_of(engine, 0, naming);
    const std::span<const std::uint32_t> order0 = engine.listing(0);
    for (std::size_t k = 0; k < n; ++k) {
      canonical[order0[k]] = static_cast<std::uint32_t>(k);
    }
  }
  const auto shared_naming = [&](std::size_t i) {
    proto::SharedNaming view;
    if (tables == nullptr) return view;
    view.tables = tables;
    view.to_canonical.reserve(n);
    for (const std::uint32_t j : engine.listing(i)) {
      view.to_canonical.push_back(canonical[j]);
    }
    return view;
  };
  {
    const obs::prof::Scope cores(prof, ph_cores);
    std::vector<std::unique_ptr<sim::Robot>> programs;
    programs.reserve(n);
    chat_.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
      std::unique_ptr<proto::ChatRobot> robot = make_robot(
          kind_, options_, naming, engine.spec(i), shared_naming(i));
      chat_.push_back(robot.get());
      programs.push_back(std::move(robot));
    }
    engine_->wake(std::move(programs));
  }

  // slot -> simulator index, per robot (the listings are still t0's).
  slot_to_engine_.resize(n * n);
  for (std::size_t i = 0; i < n; ++i) {
    const std::span<const std::uint32_t> order = engine.listing(i);
    std::uint32_t* const row = slot_to_engine_.data() + i * n;
    for (std::size_t t0_index = 0; t0_index < n; ++t0_index) {
      row[chat_[i]->slot_of_t0_index(t0_index)] = order[t0_index];
    }
  }
  received_.assign(n, {});
  overheard_.assign(n, {});
  if (prof != nullptr) attach_profiler(prof);
}

void ChatNetwork::attach_event_sink(obs::EventSink* sink) {
  sink_ = sink;
  engine_->set_event_sink(sink);
  for (std::size_t i = 0; i < chat_.size(); ++i) {
    chat_[i]->set_telemetry(sink, i, slots(i));
  }
}

void ChatNetwork::attach_metrics(obs::MetricsRegistry* registry) {
  engine_->set_metrics(registry);
}

void ChatNetwork::attach_coverage(obs::cov::CovMap* map) {
  cov_ = map;
  engine_->set_coverage(map);
  const char* proto_name = protocol_kind_name(kind_);
  for (proto::ChatRobot* robot : chat_) {
    robot->set_coverage(map, proto_name);
  }
  if (cov_ == nullptr) return;
  // One configuration edge per run: which naming construction this
  // capability set resolved to. Baselines lose it when a protocol/naming
  // combination drops out of the corpus.
  const char* naming = "none";
  switch (naming_for(options_.caps)) {
    case proto::NamingMode::by_ids: naming = "by_ids"; break;
    case proto::NamingMode::lexicographic: naming = "lexicographic"; break;
    case proto::NamingMode::relative: naming = "relative"; break;
  }
  cov_->hit(obs::cov::Domain::proto, cov_->state(proto_name, "enter"),
            cov_->state("naming", naming));
}

void ChatNetwork::attach_profiler(obs::prof::Profiler* profiler) {
  prof_ = profiler;
  engine_->set_profiler(profiler);
  if (prof_ != nullptr) ph_collect_ = prof_->phase("net.collect");
}

obs::RunReport ChatNetwork::report() const {
  obs::RunReport r;
  r.protocol = protocol_kind_name(kind_);
  r.schedule = options_.synchrony == Synchrony::synchronous
                   ? "synchronous"
                   : scheduler_kind_name(options_.scheduler);
  r.seed = options_.seed;
  r.robots = chat_.size();
  r.instants = engine_->now();
  r.quiescent = quiescent();
  r.min_separation = engine_->min_separation();
  for (const proto::ChatRobot* robot : chat_) {
    if (robot->decode_fault_pending()) ++r.unfired_decode_faults;
  }
  r.corruptions_applied = corrupt_next_;
  if (first_corrupt_t_ && converged_t_) {
    r.reconverged = true;
    r.convergence_instants = *converged_t_ - *first_corrupt_t_;
  }
  if (!corrupts_.empty()) {
    // Silence: trailing movement-signal-free rounds. After quiescence this
    // is how long the swarm has been silent — the recovery-efficiency
    // measure of the self-stabilization companions.
    const sim::Time end = engine_->now();
    r.silence_rounds = last_signal_t_ ? end - 1 - *last_signal_t_ : end;
  }
  if (cov_ != nullptr) {
    r.cov_edges = cov_->distinct_edges();
    r.cov_hits = cov_->total_hits();
  }
  r.per_robot.resize(chat_.size());
  for (std::size_t i = 0; i < chat_.size(); ++i) {
    const sim::MotionStats& m = engine_->motion(i);
    const proto::ChatStats& c = chat_[i]->stats();
    obs::RobotReport& out = r.per_robot[i];
    out.activations = m.activations;
    out.moves = m.moves;
    out.distance = m.distance;
    out.idle_activations = c.idle_activations;
    out.idle_moves = c.idle_moves;
    out.bits_sent = c.bits_sent;
    out.bits_decoded = c.bits_decoded;
    out.messages_sent = c.messages_sent;
    out.messages_received = c.messages_received;
    out.messages_overheard = c.messages_overheard;
    r.bits_sent += c.bits_sent;
    r.idle_moves += c.idle_moves;
    r.total_distance += m.distance;
    r.messages_delivered += received_[i].size();
  }
  if (r.bits_sent > 0) {
    r.instants_per_bit = static_cast<double>(r.instants) /
                         static_cast<double>(r.bits_sent);
    r.distance_per_bit = r.total_distance /
                         static_cast<double>(r.bits_sent);
  }
  return r;
}

void ChatNetwork::send(sim::RobotIndex from, sim::RobotIndex to,
                       std::span<const std::uint8_t> payload) {
  if (from == to) throw std::invalid_argument("from == to");
  if (from >= chat_.size()) {
    throw std::out_of_range("send: unknown source robot");
  }
  const std::span<const std::uint32_t> row = slots(from);
  const auto it = std::find(row.begin(), row.end(), to);
  if (it == row.end()) {
    throw std::invalid_argument("send: unknown destination robot");
  }
  const auto slot = static_cast<std::size_t>(it - row.begin());
  chat_.at(from)->send_message(slot, payload);
}

void ChatNetwork::broadcast(sim::RobotIndex from,
                            std::span<const std::uint8_t> payload) {
  chat_.at(from)->send_broadcast(payload);
}

void ChatNetwork::collect() {
  for (std::size_t i = 0; i < chat_.size(); ++i) {
    const std::span<const std::uint32_t> row = slots(i);
    for (auto& m : chat_[i]->take_inbox()) {
      received_[i].push_back(Delivery{row[m.sender], row[m.addressee],
                                      m.broadcast, std::move(m.payload)});
    }
    for (auto& m : chat_[i]->take_overheard()) {
      overheard_[i].push_back(Delivery{row[m.sender], row[m.addressee],
                                       m.broadcast, std::move(m.payload)});
    }
  }
}

void ChatNetwork::step() {
  engine_->step();
  if (options_.record_positions) {
    // Seeded with the configuration the first step started from, still in
    // the engine's epoch ring.
    if (history_.empty()) {
      const auto before = engine_->config(engine_->now() - 1);
      history_.emplace_back(before.begin(), before.end());
    }
    const auto after = engine_->positions();
    history_.emplace_back(after.begin(), after.end());
  }
  {
    obs::prof::Scope s(prof_, ph_collect_);
    collect();
  }
  if (!corrupts_.empty()) track_stabilization();
}

void ChatNetwork::schedule_corruption(sim::RobotIndex i, sim::Time at,
                                      proto::CorruptKind kind) {
  if (i >= chat_.size()) {
    throw std::invalid_argument("schedule_corruption: unknown robot");
  }
  corrupts_.push_back(ScheduledCorruption{at, i, kind});
  std::stable_sort(corrupts_.begin(), corrupts_.end(),
                   [](const ScheduledCorruption& a,
                      const ScheduledCorruption& b) { return a.at < b.at; });
  corrupt_next_ = 0;
}

void ChatNetwork::track_stabilization() {
  const sim::Time t = engine_->now() - 1;  // The instant just executed.
  while (corrupt_next_ < corrupts_.size() &&
         corrupts_[corrupt_next_].at <= t) {
    const ScheduledCorruption& c = corrupts_[corrupt_next_++];
    // Garbage is a pure function of (seed, robot, at, kind): replays of
    // the same configuration scramble the same bytes.
    sim::Rng grng(par::mix_seed(options_.seed ^ 0x5AB17C0DEULL ^
                                (static_cast<std::uint64_t>(c.robot) << 40) ^
                                (static_cast<std::uint64_t>(c.kind) << 56) ^
                                c.at));
    const std::uint64_t garbage = grng.uniform_int(
        0, std::numeric_limits<std::uint64_t>::max());
    chat_[c.robot]->corrupt_state(c.kind, garbage);
    if (!first_corrupt_t_) {
      first_corrupt_t_ = c.at;
      std::uint64_t delivered = 0;
      for (const auto& v : received_) delivered += v.size();
      deliveries_at_corrupt_ = delivered;
    }
    static constexpr const char* kLabels[] = {
        "corrupt_phase", "corrupt_cursor", "corrupt_parser",
        "corrupt_naming"};
    const char* label = kLabels[static_cast<std::size_t>(c.kind)];
    if (cov_ != nullptr) {
      cov_->hit(obs::cov::Domain::fault, cov_->state("fault", "plan"),
                cov_->state("fault", label));
    }
    if (sink_ != nullptr) {
      obs::Event e;
      e.type = obs::EventType::FaultInjected;
      e.t = t;
      e.robot = static_cast<std::int64_t>(c.robot);
      e.value = static_cast<double>(garbage % 1000003ULL);
      e.label = label;
      sink_->on_event(e);
    }
  }

  // Convergence/silence trackers.
  std::uint64_t bits = 0;
  for (const proto::ChatRobot* robot : chat_) bits += robot->stats().bits_sent;
  if (bits > bits_seen_) {
    bits_seen_ = bits;
    last_signal_t_ = t;
  }
  if (first_corrupt_t_ && !converged_t_) {
    std::uint64_t delivered = 0;
    for (const auto& v : received_) delivered += v.size();
    if (delivered > deliveries_at_corrupt_) converged_t_ = t;
  }
}

void ChatNetwork::run(sim::Time instants) {
  for (sim::Time k = 0; k < instants; ++k) step();
}

bool ChatNetwork::quiescent() const {
  const sim::Time now = engine_->now();
  for (std::size_t i = 0; i < chat_.size(); ++i) {
    if (interceptor_ != nullptr && interceptor_->crashed(i, now)) continue;
    if (!chat_[i]->send_queue_empty()) return false;
  }
  return true;
}

bool ChatNetwork::run_until_quiescent(sim::Time max_instants) {
  for (sim::Time k = 0; k < max_instants && !quiescent(); ++k) step();
  return quiescent();
}

}  // namespace stig::core
