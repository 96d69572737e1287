// Shared infrastructure for all movement protocols.
//
// Every protocol robot is a `ChatRobot`: a sim::Robot with an outbox of
// framed messages awaiting transmission (bit by bit), per-stream frame
// parsers reassembling the bits it decodes from *other* robots' movements,
// an inbox of messages addressed to it, an "overheard" list (every robot can
// decode every message — the paper's redundancy/fault-tolerance remark), and
// motion/energy statistics for the evaluation harness.
//
// Addressing is in protocol-local *slots*: what a slot means (an ID rank, a
// lexicographic rank, a relative SEC rank, or "the only peer") is defined by
// each protocol; `self_slot()` says which slot the robot itself occupies.
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <optional>
#include <span>
#include <stdexcept>
#include <vector>

#include <array>

#include "encode/bits.hpp"
#include "encode/framing.hpp"
#include "obs/cov.hpp"
#include "obs/sink.hpp"
#include "sim/robot.hpp"

namespace stig::proto {

/// Counters for the evaluation harness (experiments E1, E2, E4).
struct ChatStats {
  std::uint64_t activations = 0;
  std::uint64_t idle_activations = 0;  ///< Activations with an empty outbox.
  std::uint64_t idle_moves = 0;        ///< Moves caused by idle activations
                                       ///< (0 iff the protocol is silent).
  std::uint64_t bits_sent = 0;         ///< Signals completed by this robot.
  std::uint64_t bits_decoded = 0;      ///< Signals decoded from any sender.
  std::uint64_t messages_sent = 0;     ///< Frames fully transmitted.
  std::uint64_t messages_received = 0; ///< Frames addressed to this robot.
  std::uint64_t messages_overheard = 0;///< Frames addressed to others.
};

/// Which mutable state machine ChatRobot::corrupt_state scrambles. Kept at
/// the proto layer (mirrored by fault::CorruptTarget) so protocols never
/// depend on the fault library.
enum class CorruptKind : std::uint8_t {
  phase,   ///< Driver phase counters / per-peer bookkeeping.
  cursor,  ///< Bit cursor of the frame in flight.
  parser,  ///< FrameParser assembly state of one stream.
  naming,  ///< Geometry-derived naming tables (granular protocols).
};

/// A decoded message as seen by one robot. All fields are in the *receiving
/// robot's* slot space.
struct ReceivedMessage {
  std::size_t sender = 0;
  std::size_t addressee = 0;  ///< Equals `sender` for broadcasts.
  bool broadcast = false;     ///< One-to-all message (Section 5 remark).
  std::vector<std::uint8_t> payload;
};

/// Base class for protocol robots: message queues + stream reassembly.
class ChatRobot : public sim::Robot {
 public:
  /// Queues `payload` for transmission to the robot in slot `to_slot`.
  /// The payload is framed (length, CRC) and transmitted bit by bit in FIFO
  /// order. Precondition: `to_slot != self_slot()`.
  void send_message(std::size_t to_slot,
                    std::span<const std::uint8_t> payload);

  /// Queues `payload` as a one-to-all message: it is signaled once and
  /// decoded by every robot (Section 5: "our protocols can be easily
  /// adapted to implement efficiently one-to-many or one-to-all explicit
  /// communication"). The granular protocols carry it on the sender's *own*
  /// diameter — the one label unicast never uses.
  void send_broadcast(std::span<const std::uint8_t> payload);

  /// Messages addressed to this robot, in decode order; clears the inbox.
  [[nodiscard]] std::vector<ReceivedMessage> take_inbox();

  /// Messages this robot decoded but that were addressed to someone else;
  /// clears the list. This is the paper's redundancy: any robot can replay
  /// any overheard message.
  [[nodiscard]] std::vector<ReceivedMessage> take_overheard();

  [[nodiscard]] const ChatStats& stats() const noexcept { return stats_; }

  /// Attaches telemetry. Events this robot emits (BitEmitted, BitDecoded,
  /// FrameDelivered, PhaseEnter, AckObserved) flow into `sink`, stamped
  /// with simulator index `self_index` and the time of the robot's latest
  /// activation. `slot_map` (not owned; may be empty) translates protocol
  /// slots to simulator indices — without it events carry raw slot numbers.
  /// Null `sink` detaches; the hot path then pays a single branch.
  void set_telemetry(obs::EventSink* sink, sim::RobotIndex self_index,
                     std::span<const std::uint32_t> slot_map) noexcept {
    sink_ = sink;
    self_index_ = self_index;
    slot_map_ = slot_map;
  }

  /// True when nothing is queued and the last frame finished transmitting.
  [[nodiscard]] bool send_queue_empty() const noexcept {
    return outbox_.empty();
  }

  /// Attaches a coverage map (not owned; null detaches). Phase transitions
  /// declared via `note_phase` are recorded as proto-domain edges between
  /// protocol-qualified states ("<protocol>.<phase>"), starting from a
  /// "<protocol>.enter" pseudo-state; the per-stream frame parsers (current
  /// and lazily created) are wired for frame-domain coverage. Detached, the
  /// hot path pays one null check per transition.
  void set_coverage(obs::cov::CovMap* map, const char* protocol_name);

  /// Fault-injection hook for the fuzz/fault harnesses: flips `burst`
  /// consecutive decoded bits starting at this robot's `nth_bit`-th decoded
  /// signal (0-based, counted across all streams) — emulating misread
  /// movement signals. The corrupted bits flow through the regular framing
  /// path, so the CRC must catch them; the delivery oracle then observes
  /// the lost frame(s). One-shot: re-arming while a fault is still pending
  /// is a harness bug and throws; whether the injection ever fired is
  /// surfaced via `decode_fault_pending` (and the run report).
  void inject_decode_fault(std::uint64_t nth_bit, std::uint64_t burst = 1) {
    if (fault_first_) {
      throw std::logic_error(
          "inject_decode_fault: a decode fault is already armed");
    }
    if (burst == 0) {
      throw std::invalid_argument("inject_decode_fault: empty burst");
    }
    fault_first_ = nth_bit;
    fault_bits_left_ = burst;
  }

  /// Transient-corruption hook (fault::CorruptTarget, via
  /// core::ChatNetwork): overwrites the targeted state machine with
  /// arbitrary `garbage`-derived values. `cursor` jumps the in-flight
  /// frame's bit cursor anywhere that preserves its phase modulo 8 (frames
  /// are whole bytes and every symbol width divides 8, so byte-level
  /// resync stays possible — a shifted bit phase would be unrecoverable on
  /// streams without an idle-reset rule); `parser` scrambles one stream's
  /// assembly state (or plants a scrambled parser on a garbage stream when
  /// none exist yet); `phase`/`naming` dispatch to the driver's
  /// corrupt_protocol_state. Recovery is the protocols' documented resync
  /// discipline — see docs/STABILIZATION.md.
  void corrupt_state(CorruptKind kind, std::uint64_t garbage);

  /// True while an armed decode fault has bits left to fire. A pending
  /// fault at the end of a run means the injection never happened (the
  /// robot never decoded that many signals) — the harness asked for a
  /// fault the run could not express.
  [[nodiscard]] bool decode_fault_pending() const noexcept {
    return fault_first_.has_value();
  }

  /// The slot this robot occupies in its own addressing space.
  [[nodiscard]] virtual std::size_t self_slot() const = 0;
  /// Number of slots (robots) in this robot's addressing space.
  [[nodiscard]] virtual std::size_t slot_count() const = 0;
  /// Maps an index into the t0 snapshot's robot list (the order
  /// `initialize` saw) to this robot's slot space. This is how an
  /// application layer on the robot names peers; the core ChatNetwork uses
  /// it to translate between simulator indices and slots.
  [[nodiscard]] virtual std::size_t slot_of_t0_index(
      std::size_t t0_index) const = 0;

 protected:
  /// One queued frame in flight.
  struct OutMessage {
    std::size_t to = 0;
    encode::BitString bits;
    std::size_t cursor = 0;
  };

  /// Next bit to transmit and its addressee, or nullopt when idle. Does not
  /// consume the bit — call `advance_outbox()` once the corresponding
  /// movement signal has been *completed* per the protocol's rules.
  [[nodiscard]] std::optional<std::pair<std::size_t, std::uint8_t>>
  peek_bit() const;

  /// Next `bits`-wide symbol (MSB-first) and its addressee, or nullopt when
  /// idle. Precondition: `bits` divides 8, so a frame always contains a
  /// whole number of symbols.
  [[nodiscard]] std::optional<std::pair<std::size_t, std::uint32_t>>
  peek_symbol(unsigned bits) const;

  /// Consumes `bits` bits returned by peek_bit/peek_symbol; updates stats.
  void advance_outbox(unsigned bits = 1);

  /// Feeds one decoded signal into the (sender, addressee) stream and files
  /// any completed frames into inbox/overheard. Slots are in this robot's
  /// own addressing space.
  void on_bit_decoded(std::size_t sender_slot, std::size_t addressee_slot,
                      std::uint8_t bit);

  /// Drops partial frames on every stream originating at `sender_slot`.
  /// Protocols call this when they determine the sender is at a frame
  /// boundary (e.g. it has been silent for several instants — a correct
  /// synchronous sender never pauses mid-frame), so that a transient fault
  /// (a spurious or missed signal) cannot misalign a stream forever.
  void reset_streams_from(std::size_t sender_slot);

  /// Bookkeeping helper: call at the top of on_activate with the snapshot.
  /// Updates activation counters, stamps telemetry with the snapshot time,
  /// and detects idle moves: in the SSM a robot's position changes only
  /// through its own moves, so a position change since the previous
  /// activation is that activation's move — charged as idle when the
  /// outbox was empty then (a silent protocol never produces one).
  void note_activation(const sim::Snapshot& snap);

  /// Declares the protocol phase the robot is in; deduplicated, so calling
  /// it every activation with the current phase name emits one PhaseEnter
  /// event per actual transition. `phase` must be a string literal (or
  /// otherwise outlive the run).
  void note_phase(const char* phase);

  /// Driver-owned state scrambling for CorruptKind::phase and ::naming.
  /// The default is a no-op (a driver with no corruptible phase state — or
  /// no naming tables — simply has nothing to lose). Overrides must keep
  /// the damage inside the driver's *recoverable* envelope: every value
  /// written must be one the documented resync path provably converges
  /// from (see docs/STABILIZATION.md for each protocol's envelope and why
  /// the excluded states are excluded).
  virtual void corrupt_protocol_state(CorruptKind kind,
                                      std::uint64_t garbage) {
    (void)kind;
    (void)garbage;
  }

  /// Marks the opening of a Lemma 4.1 acknowledgment window (async
  /// protocols call this when arming the AckBarrier for a bit in flight).
  void note_ack_window() { ack_armed_t_ = now_; }

  /// Emits AckObserved: the window closed after `now - armed` instants.
  /// `peer_slot` is the acknowledging peer, or negative for "every peer"
  /// (the AsyncN global barrier).
  void note_ack(std::ptrdiff_t peer_slot = -1);

  std::deque<OutMessage> outbox_;
  ChatStats stats_;

 private:
  /// Simulator index for `slot`, or the raw slot without a map.
  [[nodiscard]] std::int64_t engine_index(std::size_t slot) const {
    return static_cast<std::int64_t>(
        slot_map_.empty() ? slot : slot_map_[slot]);
  }
  void emit(obs::Event& e) const;

  /// Interned coverage state for `phase` (null = the enter pseudo-state),
  /// memoized in a small literal-pointer cache. Requires cov_ != nullptr.
  [[nodiscard]] obs::cov::StateId cov_phase_id(const char* phase);

  std::map<std::pair<std::size_t, std::size_t>, encode::FrameParser>
      parsers_;
  std::vector<ReceivedMessage> inbox_;
  std::vector<ReceivedMessage> overheard_;

  // Telemetry plumbing (inactive until set_telemetry).
  obs::EventSink* sink_ = nullptr;
  sim::RobotIndex self_index_ = 0;
  std::span<const std::uint32_t> slot_map_;
  std::uint64_t now_ = 0;            ///< Time of the latest activation.
  std::uint64_t ack_armed_t_ = 0;
  std::optional<std::uint64_t> fault_first_;  ///< Armed decode fault start.
  std::uint64_t fault_bits_left_ = 0;         ///< Remaining burst length.
  const char* phase_name_ = nullptr;
  std::optional<geom::Vec2> last_pos_;  ///< Self position, last activation.
  bool last_was_idle_ = false;

  // Coverage plumbing (inactive until set_coverage).
  obs::cov::CovMap* cov_ = nullptr;      ///< Not owned; null when off.
  const char* cov_prefix_ = nullptr;     ///< Protocol name for state names.
  obs::cov::StateId cov_enter_ = obs::cov::kInvalidState;
  std::array<std::pair<const char*, obs::cov::StateId>, 8> cov_phase_cache_{};
  std::size_t cov_phase_cached_ = 0;
};

}  // namespace stig::proto
