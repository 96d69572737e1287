// Typed telemetry events.
//
// A run of the simulator is, observably, a sequence of movement-signals:
// activations, moves, protocol phase changes, bits leaving and entering
// robots, frames completing, acknowledgments. Each of those is an `Event` —
// a small POD record stamped with the simulated instant — emitted by the
// engine, the protocol drivers and the chat network into an `EventSink`
// (see sink.hpp). Exporters turn the stream into JSONL, Chrome trace JSON
// or aggregate metrics.
//
// This header deliberately depends on nothing above the standard library so
// every layer (sim, proto, core, tools, bench) can emit events without
// dependency cycles.
#pragma once

#include <cstdint>

namespace stig::obs {

/// What happened. Names match the JSONL `type` field (snake_cased there).
enum class EventType : unsigned char {
  Activation,      ///< The scheduler activated `robot` (x,y = position).
  Move,            ///< `robot` changed position this instant (x,y = after,
                   ///< value = distance traveled).
  Collision,       ///< `robot` and `peer` violated the separation invariant
                   ///< (x,y = robot's position; the engine throws after).
  PhaseEnter,      ///< `robot`'s protocol entered phase `label`.
  BitEmitted,      ///< `robot` completed signaling one bit (`bit`) toward
                   ///< `peer` (-1 and label="broadcast" for one-to-all).
  BitDecoded,      ///< `robot` decoded `bit` from sender `peer`, addressed
                   ///< to `aux`.
  FrameDelivered,  ///< A full frame from `peer` addressed to `aux` finished
                   ///< reassembly at `robot` (value = payload bytes; label
                   ///< is "inbox", "overheard" or "broadcast").
  AckObserved,     ///< `robot` observed the Lemma 4.1 implicit ack from
                   ///< `peer` (-1 = every peer); value = instants since the
                   ///< ack window was armed.
  Teleport,        ///< Fault injection moved `robot` to (x,y).
  StepComplete,    ///< Instant `t` finished (value = min pairwise
                   ///< separation of the new configuration).
  FaultInjected,   ///< The fault plan fired on `robot` (label = fault kind:
                   ///< "crash", "stall", "jitter", "burst" or
                   ///< "corrupt_<target>"; value = the fault's magnitude —
                   ///< stall length, jitter distance, burst width or a
                   ///< digest of the corruption garbage; 0 for crash).
  Retransmit,      ///< The reliable message layer re-sent message `aux`
                   ///< from `robot` to `peer` (value = attempt number;
                   ///< label = "retry" or "backup" once degraded to the
                   ///< backup channel).
  MaskedDelivery,  ///< The redundancy layer voted a delivery for logical
                   ///< `robot` from logical `peer` (aux = delivery ordinal
                   ///< on that stream; bit = FNV-1a-32 payload hash;
                   ///< value = agreeing lanes; label = "broadcast" for
                   ///< one-to-all, "unicast" otherwise).
};

/// Number of distinct event types (for per-type counters).
inline constexpr unsigned kEventTypeCount =
    static_cast<unsigned>(EventType::MaskedDelivery) + 1;

/// One telemetry record. Fields not meaningful for a given type keep their
/// defaults; `label`, when set, must point at storage outliving the run
/// (string literals in practice).
struct Event {
  EventType type{};
  std::uint64_t t = 0;      ///< Simulated instant.
  std::int64_t robot = -1;  ///< Primary robot (simulator index).
  std::int64_t peer = -1;   ///< Counterpart robot, -1 when none/all.
  std::int64_t aux = -1;    ///< Secondary robot (e.g. frame addressee).
  double x = 0.0;           ///< Position payload (global frame).
  double y = 0.0;
  double value = 0.0;       ///< Distance / latency / size / separation.
  std::uint32_t bit = 0;    ///< Bit value for Bit* events.
  const char* label = nullptr;  ///< Phase name or annotation.
};

/// Stable snake_case name used by every exporter.
[[nodiscard]] constexpr const char* event_type_name(EventType t) {
  switch (t) {
    case EventType::Activation: return "activation";
    case EventType::Move: return "move";
    case EventType::Collision: return "collision";
    case EventType::PhaseEnter: return "phase_enter";
    case EventType::BitEmitted: return "bit_emitted";
    case EventType::BitDecoded: return "bit_decoded";
    case EventType::FrameDelivered: return "frame_delivered";
    case EventType::AckObserved: return "ack_observed";
    case EventType::Teleport: return "teleport";
    case EventType::StepComplete: return "step_complete";
    case EventType::FaultInjected: return "fault_injected";
    case EventType::Retransmit: return "retransmit";
    case EventType::MaskedDelivery: return "masked_delivery";
  }
  return "unknown";
}

}  // namespace stig::obs
