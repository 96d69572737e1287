#include "serve/session.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <sstream>
#include <stdexcept>
#include <string>

#include "sim/placement.hpp"
#include "sim/rng.hpp"

namespace stig::serve {

namespace {

Response fail(Verb verb, Status status, std::string detail) {
  Response res;
  res.verb = verb;
  res.status = status;
  res.detail = std::move(detail);
  return res;
}

}  // namespace

std::vector<geom::Vec2> scatter_positions(std::size_t n,
                                          std::uint64_t seed) {
  // The box widens with sqrt(n) so the swarm density (hence protocol
  // geometry) stays comparable at every session size.
  const double extent =
      std::max(30.0, 6.0 * std::sqrt(static_cast<double>(n)));
  sim::Rng rng(seed ^ 0x53455256ULL);  // "SERV"
  return sim::scatter(rng, n, extent, 3.0);
}

core::ChatNetworkOptions session_options(const Request& req) {
  if (req.protocol > static_cast<std::uint8_t>(core::ProtocolKind::asyncn)) {
    throw std::invalid_argument("unknown protocol byte " +
                                std::to_string(req.protocol));
  }
  if (req.scheduler >
      static_cast<std::uint8_t>(core::SchedulerKind::adversarial)) {
    throw std::invalid_argument("unknown scheduler byte " +
                                std::to_string(req.scheduler));
  }
  core::ChatNetworkOptions opt;
  opt.synchrony = (req.flags & kOpenAsync) != 0
                      ? core::Synchrony::asynchronous
                      : core::Synchrony::synchronous;
  opt.caps.visible_ids = (req.flags & kOpenVisibleIds) != 0;
  opt.caps.sense_of_direction = (req.flags & kOpenSenseOfDirection) != 0 ||
                                opt.caps.visible_ids;
  opt.protocol = static_cast<core::ProtocolKind>(req.protocol);
  opt.scheduler = static_cast<core::SchedulerKind>(req.scheduler);
  opt.seed = req.seed;
  return opt;
}

Session::Session(std::uint64_t id, const Request& open,
                 const SessionLimits& limits)
    : id_(id),
      limits_(limits),
      net_(scatter_positions(open.robots, open.seed), session_options(open)),
      poll_cursor_(open.robots, 0) {}

Response Session::apply(const Request& req) {
  switch (req.verb) {
    case Verb::send_message: return send_message(req);
    case Verb::step: return step(req);
    case Verb::poll_delivery: return poll_delivery(req);
    case Verb::get_report: return get_report();
    default:
      return fail(req.verb, Status::error, "verb not handled by session");
  }
}

Response Session::send_message(const Request& req) {
  const std::size_t n = net_.robot_count();
  const bool broadcast = (req.flags & kSendBroadcast) != 0;
  if (req.from >= n || (!broadcast && req.to >= n)) {
    return fail(req.verb, Status::error, "robot index out of range");
  }
  if (!broadcast && req.from == req.to) {
    return fail(req.verb, Status::error, "from == to");
  }
  if (req.payload.size() > limits_.max_payload) {
    return fail(req.verb, Status::error, "payload exceeds " +
                                             std::to_string(
                                                 limits_.max_payload) +
                                             " bytes");
  }
  if (pending_.size() >= limits_.queue_bound) {
    // The backpressure contract: a full injection queue answers BUSY and
    // keeps every already-accepted message exactly where it is.
    return fail(req.verb, Status::busy, "injection queue full");
  }
  pending_.push_back(PendingSend{req.from, req.to, broadcast, req.payload});
  Response res;
  res.verb = req.verb;
  res.queued = pending_.size();
  return res;
}

Response Session::step(const Request& req) {
  // Drain the injection queue in acceptance order, then advance time.
  while (!pending_.empty()) {
    const PendingSend& p = pending_.front();
    if (p.broadcast) {
      net_.broadcast(static_cast<sim::RobotIndex>(p.from), p.payload);
    } else {
      net_.send(static_cast<sim::RobotIndex>(p.from),
                static_cast<sim::RobotIndex>(p.to), p.payload);
    }
    pending_.pop_front();
  }
  const std::uint64_t instants = std::min(req.instants, limits_.max_step);
  net_.run(static_cast<sim::Time>(instants));
  Response res;
  res.verb = req.verb;
  res.instants = net_.engine().now();
  if (net_.quiescent()) res.flags |= kStepQuiescent;
  return res;
}

Response Session::poll_delivery(const Request& req) {
  const std::size_t n = net_.robot_count();
  if (req.robot >= n) {
    return fail(req.verb, Status::error, "robot index out of range");
  }
  const auto& received = net_.received(
      static_cast<sim::RobotIndex>(req.robot));
  std::size_t& cursor = poll_cursor_[static_cast<std::size_t>(req.robot)];
  if (cursor > received.size()) {
    // A cursor beyond the delivery log is transient state damage (nothing
    // in the session ever moves it backward past the log): fail-stop so
    // the registry quarantines the session rather than letting the
    // subtraction below underflow into fabricated deliveries.
    throw std::out_of_range("poll cursor " + std::to_string(cursor) +
                            " beyond " + std::to_string(received.size()) +
                            " delivered message(s)");
  }
  std::size_t available = received.size() - cursor;
  if (req.max_messages != 0) {
    available = std::min<std::size_t>(available, req.max_messages);
  }
  Response res;
  res.verb = req.verb;
  res.deliveries.reserve(available);
  for (std::size_t i = 0; i < available; ++i) {
    const core::Delivery& d = received[cursor + i];
    WireDelivery wd;
    wd.from = d.from;
    wd.to = d.to;
    if (d.broadcast) wd.flags |= kSendBroadcast;
    wd.payload = d.payload;
    res.deliveries.push_back(std::move(wd));
  }
  cursor += available;
  return res;
}

Response Session::get_report() const {
  Response res;
  res.verb = Verb::get_report;
  std::ostringstream os;
  net_.report().write_json(os);
  const std::string json = os.str();
  res.body.assign(json.begin(), json.end());
  return res;
}

SessionRegistry::SessionRegistry(SessionLimits limits) : limits_(limits) {}

void SessionRegistry::attach_metrics(obs::MetricsRegistry* registry) {
  metrics_ = registry;
  instruments_ = {};
}

obs::Counter& SessionRegistry::cached(obs::Counter*& slot, const char* name) {
  if (slot == nullptr) slot = &metrics_->counter(name);
  return *slot;
}

void SessionRegistry::configure_ids(std::uint64_t first, std::uint64_t step) {
  if (step == 0) throw std::invalid_argument("id step must be positive");
  next_id_ = first;
  id_step_ = step;
}

Response SessionRegistry::apply(const Request& req) {
  using Clock = std::chrono::steady_clock;
  const Clock::time_point start =
      metrics_ != nullptr ? Clock::now() : Clock::time_point{};
  Response res;
  try {
    res = dispatch(req);
  } catch (const std::exception& e) {
    res = fail(req.verb, Status::error, e.what());
  }
  if (metrics_ != nullptr) {
    const std::size_t v = std::min(static_cast<std::size_t>(req.verb),
                                   Instruments::kVerbs - 1);
    obs::Counter*& requests = instruments_.requests[v];
    obs::LogHistogram*& latency = instruments_.latency[v];
    if (requests == nullptr) {
      const std::string verb = verb_name(req.verb);
      requests = &metrics_->counter("serve.req." + verb);
      latency = &metrics_->histogram("serve.lat." + verb + "_ns", 16.0, 48);
    }
    requests->add(1);
    count_outcome(res);
    latency->record(static_cast<double>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             start)
            .count()));
  }
  return res;
}

Response SessionRegistry::dispatch(const Request& req) {
  if (req.verb == Verb::open_session) return open_session(req);
  if (req.verb == Verb::none ||
      req.verb > Verb::close_session) {
    return fail(req.verb, Status::error, "unknown verb");
  }
  if (poisoned_.count(req.session) != 0) {
    if (req.verb == Verb::close_session) {
      // Closing a quarantined session is the acknowledgment that clears
      // the tombstone (the id itself is still never reused).
      poisoned_.erase(req.session);
      Response res;
      res.verb = req.verb;
      res.session = req.session;
      return res;
    }
    return fail(req.verb, Status::poisoned,
                "session " + std::to_string(req.session) +
                    " poisoned; close it to acknowledge");
  }
  const auto it = sessions_.find(req.session);
  if (it == sessions_.end()) {
    // Unknown *or already closed* — ids are never reused, so a stale id
    // can only ever answer not_found, never someone else's session.
    return fail(req.verb, Status::not_found,
                "no session " + std::to_string(req.session));
  }
  if (req.verb == Verb::close_session) {
    sessions_.erase(it);
    Response res;
    res.verb = req.verb;
    res.session = req.session;
    return res;
  }
  try {
    return it->second->apply(req);
  } catch (const std::exception& e) {
    // The session's network (or its own bookkeeping) threw: quarantine it
    // so one damaged swarm cannot take the daemon — or its siblings —
    // down. The session is destroyed (its state is not trustworthy) and
    // the id tombstoned as poisoned until the client closes it.
    sessions_.erase(req.session);
    poisoned_.insert(req.session);
    ++poisoned_total_;
    if (metrics_ != nullptr) {
      metrics_->counter("serve.sessions_poisoned").add(1);
    }
    return fail(req.verb, Status::poisoned,
                "session " + std::to_string(req.session) +
                    " poisoned: " + e.what());
  }
}

Response SessionRegistry::open_session(const Request& req) {
  if (req.robots < 2 || req.robots > limits_.max_robots) {
    return fail(req.verb, Status::error,
                "robots must be in [2, " +
                    std::to_string(limits_.max_robots) + "]");
  }
  if (sessions_.size() >= limits_.max_sessions) {
    // Session-count backpressure mirrors the injection queue: BUSY, retry
    // after closing something — never an unbounded registry.
    return fail(req.verb, Status::busy, "session limit reached");
  }
  const std::uint64_t id = next_id_;
  auto session = std::make_unique<Session>(id, req, limits_);
  next_id_ += id_step_;
  ++opened_;
  sessions_.emplace(id, std::move(session));
  Response res;
  res.verb = req.verb;
  res.session = id;
  return res;
}

void SessionRegistry::count_outcome(const Response& res) {
  switch (res.status) {
    case Status::busy:
      cached(instruments_.busy, "serve.busy").add(1);
      return;
    case Status::not_found:
      cached(instruments_.not_found, "serve.not_found").add(1);
      return;
    case Status::error:
      cached(instruments_.error, "serve.error").add(1);
      return;
    case Status::poisoned:
      // serve.sessions_poisoned counts quarantines at the throw site;
      // tombstone replies are not separate outcomes.
      return;
    case Status::ok: break;
  }
  const char* name = nullptr;
  std::uint64_t amount = 1;
  switch (res.verb) {
    case Verb::open_session: name = "serve.sessions_opened"; break;
    case Verb::close_session: name = "serve.sessions_closed"; break;
    case Verb::send_message: name = "serve.messages_accepted"; break;
    case Verb::poll_delivery:
      name = "serve.deliveries_polled";
      amount = res.deliveries.size();
      break;
    default: return;
  }
  cached(instruments_.ok[static_cast<std::size_t>(res.verb)], name)
      .add(amount);
}

}  // namespace stig::serve
