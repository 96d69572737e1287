#include "fault/reliable.hpp"

#include <algorithm>

#include "obs/event.hpp"

namespace stig::fault {
namespace {

constexpr std::size_t kHeaderBytes = 8;

/// Instants before the first retransmit.
constexpr sim::Time kAckTimeout = 8;

/// Instants a successful ack takes back.
constexpr sim::Time kAckDelay = 1;

/// Strips the id header; nullopt when the blob is too short to carry one
/// (never produced by this messenger, but received() stays total).
std::optional<std::uint64_t> peel_id(
    const std::vector<std::uint8_t>& wire) {
  if (wire.size() < kHeaderBytes) return std::nullopt;
  std::uint64_t id = 0;
  for (std::size_t b = 0; b < kHeaderBytes; ++b) {
    id |= static_cast<std::uint64_t>(wire[b]) << (8 * b);
  }
  return id;
}

}  // namespace

void ReliableMessenger::emit(sim::Time t, const Tracked& m,
                             const char* label) {
  if (cov_ != nullptr) {
    cov_->hit(obs::cov::Domain::fault, cov_send_, cov_->state("retry", label));
  }
  if (sink_ == nullptr) return;
  obs::Event e;
  e.type = obs::EventType::Retransmit;
  e.t = t;
  e.robot = static_cast<std::int64_t>(m.from);
  e.peer = static_cast<std::int64_t>(m.to);
  e.aux = static_cast<std::int64_t>(m.id);
  e.value = static_cast<double>(m.attempts);
  e.label = label;
  sink_->on_event(e);
}

std::uint64_t ReliableMessenger::send(
    sim::RobotIndex from, sim::RobotIndex to,
    std::span<const std::uint8_t> payload) {
  Tracked m;
  m.id = next_id_++;
  m.from = from;
  m.to = to;
  m.wire.reserve(kHeaderBytes + payload.size());
  for (std::size_t b = 0; b < kHeaderBytes; ++b) {
    m.wire.push_back(static_cast<std::uint8_t>((m.id >> (8 * b)) & 0xffU));
  }
  m.wire.insert(m.wire.end(), payload.begin(), payload.end());
  m.timeout_at = motion_.engine().now();  // Transmit on the next tick.
  tracked_.push_back(std::move(m));
  ++stats_.sent;
  return tracked_.back().id;
}

void ReliableMessenger::tick() {
  const sim::Time now = motion_.engine().now();
  for (Tracked& m : tracked_) {
    if (m.st != MessageState::pending) continue;
    if (m.ack_at && now >= *m.ack_at) {
      m.st = MessageState::acked;
      ++stats_.acked;
      if (cov_ != nullptr) {
        cov_->hit(obs::cov::Domain::fault, cov_send_,
                  cov_->state("retry.acked"));
      }
      continue;
    }
    if (now < m.timeout_at) continue;
    if (m.attempts > options_.max_retries) {
      // Retry budget spent: degrade onto the guaranteed-delivery motion
      // channel, id header and all (the receiver dedups across channels —
      // a delivered-but-unacked radio copy may already be there).
      m.st = MessageState::degraded;
      ++stats_.degraded;
      motion_.send(m.from, m.to, m.wire);
      emit(now, m, "backup");
      continue;
    }
    ++m.attempts;
    ++stats_.radio_attempts;
    if (m.attempts > 1) {
      ++stats_.retransmits;
      emit(now, m, "retry");
    }
    const core::WirelessResult r =
        radio_.transmit(now, m.from, m.to, m.wire);
    const bool ack_lost = options_.ack_loss_probability > 0.0 &&
                          ack_rng_.flip(options_.ack_loss_probability);
    m.ack_at = r.delivered && !ack_lost
                   ? std::optional<sim::Time>(now + kAckDelay)
                   : std::nullopt;
    // Exponential backoff: timeout doubles with every attempt.
    m.timeout_at =
        now + (kAckTimeout << std::min<std::size_t>(m.attempts - 1, 32));
  }
}

bool ReliableMessenger::settled() const {
  return motion_.quiescent() &&
         std::all_of(tracked_.begin(), tracked_.end(), [](const Tracked& m) {
           return m.st != MessageState::pending;
         });
}

bool ReliableMessenger::run(sim::Time max_instants) {
  for (sim::Time k = 0; k < max_instants; ++k) {
    tick();
    if (settled()) return true;
    motion_.step();
  }
  tick();
  return settled();
}

std::vector<std::vector<std::uint8_t>> ReliableMessenger::received(
    sim::RobotIndex i) {
  if (seen_.size() <= i) seen_.resize(i + 1);
  std::unordered_set<std::uint64_t>& seen = seen_[i];
  std::vector<std::vector<std::uint8_t>> out;
  const auto accept = [&](const std::vector<std::uint8_t>& wire) {
    const std::optional<std::uint64_t> id = peel_id(wire);
    if (!id) return;  // Not ours; foreign traffic is ignored.
    if (!seen.insert(*id).second) {
      ++stats_.duplicates_dropped;
      return;
    }
    out.emplace_back(wire.begin() + kHeaderBytes, wire.end());
  };
  for (const std::vector<std::uint8_t>& wire : radio_.take_received(i)) {
    accept(wire);
  }
  for (const core::Delivery& d : motion_.take_received(i)) {
    accept(d.payload);
  }
  return out;
}

std::optional<MessageState> ReliableMessenger::state(
    std::uint64_t id) const {
  for (const Tracked& m : tracked_) {
    if (m.id == id) return m.st;
  }
  return std::nullopt;
}

}  // namespace stig::fault
