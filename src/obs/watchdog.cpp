#include "obs/watchdog.hpp"

#include <cstring>
#include <iostream>
#include <span>

#include "geom/voronoi.hpp"
#include "obs/json.hpp"

namespace stig::obs {

Watchdog::Watchdog(WatchdogOptions options,
                   std::vector<geom::Vec2> t0_positions)
    : options_(options), anchors_(std::move(t0_positions)) {
  if (options_.check_granular && anchors_.size() >= 2) {
    radii_.reserve(anchors_.size());
    for (std::size_t i = 0; i < anchors_.size(); ++i) {
      radii_.push_back(geom::granular_radius(anchors_, i));
    }
    granular_disarmed_.assign(anchors_.size(), false);
  } else {
    options_.check_granular = false;
  }
}

void Watchdog::set_flight_recorder(FlightRecorder* recorder,
                                   std::string dump_path) {
  recorder_ = recorder;
  dump_path_ = std::move(dump_path);
}

void Watchdog::violate(WatchdogViolation v) {
  ++total_violations_;
  if (recorder_ != nullptr && !dumped_ && !dump_path_.empty()) {
    dumped_ = true;
    if (!recorder_->dump_to_file(dump_path_)) {
      std::cerr << "watchdog: could not write flight-recorder dump to "
                << dump_path_ << "\n";
    }
  }
  if (options_.abort_on_violation) {
    throw WatchdogError("watchdog: " + v.invariant + " violated at instant " +
                        std::to_string(v.t) + ": " + v.detail);
  }
  if (violations_.size() < options_.max_recorded) {
    violations_.push_back(std::move(v));
  }
}

void Watchdog::check_granular(const Event& e) {
  if (e.robot < 0 || static_cast<std::size_t>(e.robot) >= anchors_.size() ||
      granular_disarmed_[static_cast<std::size_t>(e.robot)]) {
    return;
  }
  const auto i = static_cast<std::size_t>(e.robot);
  const geom::Vec2 p{e.x, e.y};
  const double limit = radii_[i] + options_.granular_slack;
  if (std::is_lt(geom::dist_cmp(p, anchors_[i], limit))) return;
  const double d = geom::dist(p, anchors_[i]);
  WatchdogViolation v;
  v.invariant = "granular";
  v.t = e.t;
  v.robot = e.robot;
  v.value = d;
  v.detail = "robot " + std::to_string(e.robot) + " left its granular (" +
             std::to_string(d) + " > radius " + std::to_string(radii_[i]) +
             ")";
  violate(std::move(v));
}

void Watchdog::check_crash_silence(const Event& e, const char* activity) {
  if (!options_.check_crash_silence || crash_t_.empty()) return;
  const auto it = crash_t_.find(e.robot);
  if (it == crash_t_.end() || e.t < it->second) return;
  WatchdogViolation v;
  v.invariant = "crash_silence";
  v.t = e.t;
  v.robot = e.robot;
  v.value = static_cast<double>(it->second);
  v.detail = "robot " + std::to_string(e.robot) + " " + activity +
             " at t=" + std::to_string(e.t) +
             " despite crashing at t=" + std::to_string(it->second);
  violate(std::move(v));
}

void Watchdog::on_event(const Event& e) {
  switch (e.type) {
    case EventType::Collision: {
      if (!options_.check_separation) return;
      WatchdogViolation v;
      v.invariant = "separation";
      v.t = e.t;
      v.robot = e.robot;
      v.peer = e.peer;
      v.detail = "collision between robots " + std::to_string(e.robot) +
                 " and " + std::to_string(e.peer);
      violate(std::move(v));
      return;
    }
    case EventType::StepComplete: {
      if (!options_.check_separation || options_.min_separation <= 0.0 ||
          e.value >= options_.min_separation) {
        return;
      }
      WatchdogViolation v;
      v.invariant = "separation";
      v.t = e.t;
      v.value = e.value;
      v.detail = "min separation " + std::to_string(e.value) +
                 " fell below the floor " +
                 std::to_string(options_.min_separation);
      violate(std::move(v));
      return;
    }
    case EventType::Move: {
      check_crash_silence(e, "moved");
      if (options_.check_granular) check_granular(e);
      return;
    }
    case EventType::Activation: {
      check_crash_silence(e, "activated");
      return;
    }
    case EventType::FaultInjected: {
      if (e.label != nullptr && std::strcmp(e.label, "crash") == 0 &&
          e.robot >= 0) {
        // Keep the earliest crash instant: a robot crashes once.
        const auto it = crash_t_.find(e.robot);
        if (it == crash_t_.end() || e.t < it->second) crash_t_[e.robot] = e.t;
      }
      if (options_.reconverge_budget > 0 && e.label != nullptr &&
          std::strncmp(e.label, "corrupt", 7) == 0) {
        // A later corruption re-damages state, so it re-arms the check even
        // if an earlier one already cleared.
        corrupt_pending_t_ = e.t;
      }
      return;
    }
    case EventType::FrameDelivered: {
      if (!corrupt_pending_t_) return;
      const std::uint64_t corrupt_t = *corrupt_pending_t_;
      corrupt_pending_t_.reset();
      if (e.t >= corrupt_t &&
          e.t - corrupt_t > options_.reconverge_budget) {
        WatchdogViolation v;
        v.invariant = "reconverged";
        v.t = e.t;
        v.robot = e.robot;
        v.peer = e.peer;
        v.value = static_cast<double>(e.t - corrupt_t);
        v.detail = "first delivery after the corruption at t=" +
                   std::to_string(corrupt_t) + " took " +
                   std::to_string(e.t - corrupt_t) +
                   " instants, budget is " +
                   std::to_string(options_.reconverge_budget);
        violate(std::move(v));
      }
      return;
    }
    case EventType::MaskedDelivery: {
      if (!options_.check_mask_agreement) return;
      const bool broadcast =
          e.label != nullptr && std::strcmp(e.label, "broadcast") == 0;
      if (e.value < 1.0) {
        WatchdogViolation v;
        v.invariant = "mask_agreement";
        v.t = e.t;
        v.robot = e.robot;
        v.peer = e.peer;
        v.value = e.value;
        v.detail = "masked delivery " + std::to_string(e.aux) +
                   " on stream " + std::to_string(e.peer) + " -> " +
                   std::to_string(e.robot) + " had no agreeing lane";
        violate(std::move(v));
        return;
      }
      const auto key = std::make_tuple(e.robot, e.peer, e.aux, broadcast);
      const auto [it, inserted] = mask_hashes_.emplace(key, e.bit);
      if (!inserted && it->second != e.bit) {
        WatchdogViolation v;
        v.invariant = "mask_agreement";
        v.t = e.t;
        v.robot = e.robot;
        v.peer = e.peer;
        v.value = e.value;
        v.detail = "masked delivery " + std::to_string(e.aux) +
                   " on stream " + std::to_string(e.peer) + " -> " +
                   std::to_string(e.robot) +
                   " re-voted a different payload hash";
        violate(std::move(v));
      }
      return;
    }
    case EventType::Teleport: {
      // Fault injection voids the containment anchor for this robot: the
      // stabilization story explicitly allows it to re-home elsewhere.
      if (options_.check_granular && e.robot >= 0 &&
          static_cast<std::size_t>(e.robot) < granular_disarmed_.size()) {
        granular_disarmed_[static_cast<std::size_t>(e.robot)] = true;
      }
      return;
    }
    case EventType::BitEmitted: {
      check_crash_silence(e, "emitted a bit");
      if (!options_.check_bit_order) return;
      const auto it = last_emit_t_.find(e.robot);
      if (it != last_emit_t_.end() && e.t < it->second) {
        WatchdogViolation v;
        v.invariant = "bit_order";
        v.t = e.t;
        v.robot = e.robot;
        v.value = static_cast<double>(it->second);
        v.detail = "sender " + std::to_string(e.robot) +
                   " emitted a bit at t=" + std::to_string(e.t) +
                   " after one at t=" + std::to_string(it->second);
        violate(std::move(v));
      }
      last_emit_t_[e.robot] = std::max(
          e.t, it == last_emit_t_.end() ? std::uint64_t{0} : it->second);
      return;
    }
    case EventType::BitDecoded: {
      check_crash_silence(e, "decoded a bit");
      if (options_.check_bit_order) {
        const std::pair<std::int64_t, std::int64_t> key{e.robot, e.peer};
        const auto it = last_decode_t_.find(key);
        if (it != last_decode_t_.end() && e.t < it->second) {
          WatchdogViolation v;
          v.invariant = "bit_order";
          v.t = e.t;
          v.robot = e.robot;
          v.peer = e.peer;
          v.value = static_cast<double>(it->second);
          v.detail = "receiver " + std::to_string(e.robot) +
                     " decoded a bit from " + std::to_string(e.peer) +
                     " at t=" + std::to_string(e.t) + " after one at t=" +
                     std::to_string(it->second);
          violate(std::move(v));
        }
        last_decode_t_[key] = std::max(
            e.t, it == last_decode_t_.end() ? std::uint64_t{0} : it->second);
      }
      if (options_.check_framing) {
        encode::FrameParser& parser = streams_[{e.robot, e.peer, e.aux}];
        const std::uint64_t corrupt_before = parser.corrupt_frames();
        parser.push_bit(static_cast<std::uint8_t>(e.bit & 1u));
        (void)parser.take_messages();
        if (parser.corrupt_frames() > corrupt_before) {
          WatchdogViolation v;
          v.invariant = "framing";
          v.t = e.t;
          v.robot = e.robot;
          v.peer = e.peer;
          v.detail = "CRC-corrupt frame on stream " +
                     std::to_string(e.peer) + " -> " +
                     std::to_string(e.robot) + " (addressee " +
                     std::to_string(e.aux) + ")";
          violate(std::move(v));
        }
      }
      return;
    }
    case EventType::AckObserved: {
      if (options_.max_ack_window <= 0.0 ||
          e.value <= options_.max_ack_window) {
        return;
      }
      WatchdogViolation v;
      v.invariant = "ack_window";
      v.t = e.t;
      v.robot = e.robot;
      v.peer = e.peer;
      v.value = e.value;
      v.detail = "ack took " + std::to_string(e.value) +
                 " instants, window is " +
                 std::to_string(options_.max_ack_window);
      violate(std::move(v));
      return;
    }
    default:
      return;
  }
}

void Watchdog::finalize(std::uint64_t end_t) {
  if (!corrupt_pending_t_) return;
  const std::uint64_t corrupt_t = *corrupt_pending_t_;
  corrupt_pending_t_.reset();
  if (end_t < corrupt_t + options_.reconverge_budget) {  // Too short.
    ++reconverge_inconclusive_;
    return;
  }
  WatchdogViolation v;
  v.invariant = "reconverged";
  v.t = end_t;
  v.value = static_cast<double>(end_t - corrupt_t);
  v.detail = "no frame delivery within " +
             std::to_string(options_.reconverge_budget) +
             " instants of the corruption at t=" + std::to_string(corrupt_t) +
             " (run ended at t=" + std::to_string(end_t) + ")";
  violate(std::move(v));
}

void Watchdog::report(std::ostream& out) const {
  if (ok()) {
    out << "watchdog: all invariants held\n";
  } else {
    out << "watchdog: " << total_violations_ << " violation(s)";
    if (total_violations_ > violations_.size()) {
      out << " (" << violations_.size() << " recorded)";
    }
    out << "\n";
    for (const WatchdogViolation& v : violations_) {
      out << "  [" << v.invariant << "] t=" << v.t << " " << v.detail
          << "\n";
    }
  }
  if (reconverge_inconclusive_ != 0) {
    out << "watchdog: " << reconverge_inconclusive_
        << " reconvergence check(s) inconclusive (run ended within the "
           "budget)\n";
  }
}

void Watchdog::write_json(std::ostream& out) const {
  out << "{\"ok\": " << (ok() ? "true" : "false")
      << ", \"total_violations\": " << total_violations_
      << ", \"violations\": [";
  for (std::size_t i = 0; i < violations_.size(); ++i) {
    const WatchdogViolation& v = violations_[i];
    out << (i == 0 ? "\n" : ",\n") << "  {\"invariant\": "
        << json_quote(v.invariant) << ", \"t\": " << v.t
        << ", \"robot\": " << v.robot << ", \"peer\": " << v.peer
        << ", \"value\": " << json_number(v.value) << ", \"detail\": "
        << json_quote(v.detail) << "}";
  }
  out << (violations_.empty() ? "" : "\n") << "]}\n";
}

}  // namespace stig::obs
