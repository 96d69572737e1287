// stigd wire protocol — compact framed request/response codec.
//
// The serving layer talks over a byte stream (a local socket in stigd, a
// memory buffer in tests) in the motion channel's frames
// (encode/framing.hpp):
//
//   frame := varint(body_length) | body bytes | crc8(body)
//
// where the varint is LEB128 (encode/varint.hpp) and the CRC is the same
// CRC-8/ATM the motion frames carry (encode/crc.hpp). Requests and
// responses share the framing; the direction of the stream disambiguates.
// Body layouts are fixed per verb and documented byte-for-byte in
// docs/SERVING.md; the conformance suite (tests/test_serve_wire.cpp) pins
// a golden encoding for every verb so the protocol cannot drift silently.
//
// The codec is a plain library — no sockets, no I/O — so every layer of
// the daemon (parser resync, verb round-trips, session semantics) is unit
// testable deterministically.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "encode/framing.hpp"

namespace stig::serve {

/// Request verbs (response bodies echo the verb in byte 0).
enum class Verb : std::uint8_t {
  none = 0,           ///< Decode placeholder for malformed bodies.
  open_session = 1,   ///< Create a ChatNetwork session; returns its id.
  send_message = 2,   ///< Queue a payload into the session's injection
                      ///< queue (bounded; BUSY when full, never dropped).
  step = 3,           ///< Drain the injection queue, advance N instants.
  poll_delivery = 4,  ///< Take deliveries for one robot (at-most-once).
  get_report = 5,     ///< The session's obs::RunReport as JSON bytes.
  close_session = 6,  ///< Destroy the session; its id is never reused.
};

/// Response status byte.
enum class Status : std::uint8_t {
  ok = 0,
  busy = 1,       ///< Injection queue full — retry after a step.
  not_found = 2,  ///< Unknown (or already closed) session id.
  error = 3,      ///< Invalid request; detail carries the reason.
  poisoned = 4,   ///< The session's network threw and was quarantined; the
                  ///< id answers poisoned until the client closes it (the
                  ///< daemon survives — fault isolation, not fault denial).
};

/// Stable lower-case verb name ("open_session", ...).
[[nodiscard]] const char* verb_name(Verb verb) noexcept;
/// Stable lower-case status name ("ok", "busy", ...).
[[nodiscard]] const char* status_name(Status status) noexcept;

/// Open-session flag bits.
inline constexpr std::uint8_t kOpenAsync = 1U << 0;
inline constexpr std::uint8_t kOpenVisibleIds = 1U << 1;
inline constexpr std::uint8_t kOpenSenseOfDirection = 1U << 2;
/// Send-message flag bits.
inline constexpr std::uint8_t kSendBroadcast = 1U << 0;
/// Step-response flag bits.
inline constexpr std::uint8_t kStepQuiescent = 1U << 0;

/// One request, flattened across verbs: each verb reads the fields its
/// body layout names and ignores the rest (encode writes only the named
/// fields; decode zero-initializes the rest).
struct Request {
  Verb verb = Verb::none;
  std::uint64_t session = 0;  ///< Every verb except open_session.

  // open_session.
  std::uint64_t seed = 1;
  std::uint64_t robots = 2;
  std::uint8_t protocol = 0;   ///< core::ProtocolKind as a byte.
  std::uint8_t scheduler = 0;  ///< core::SchedulerKind as a byte.
  std::uint8_t flags = 0;      ///< kOpen* / kSend* bits.

  // send_message.
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::vector<std::uint8_t> payload;

  // step.
  std::uint64_t instants = 1;

  // poll_delivery.
  std::uint64_t robot = 0;
  std::uint64_t max_messages = 0;  ///< 0 = everything pending.

  bool operator==(const Request&) const = default;
};

/// One delivery inside a poll_delivery response.
struct WireDelivery {
  std::uint64_t from = 0;
  std::uint64_t to = 0;
  std::uint8_t flags = 0;  ///< kSendBroadcast when one-to-all.
  std::vector<std::uint8_t> payload;

  bool operator==(const WireDelivery&) const = default;
};

/// One response. Body layout: verb byte, status byte, then verb-specific
/// fields when status == ok, else varint-length detail string.
struct Response {
  Verb verb = Verb::none;
  Status status = Status::ok;
  std::string detail;  ///< Reason, carried when status != ok.

  std::uint64_t session = 0;   ///< open_session (the new id).
  std::uint64_t queued = 0;    ///< send_message: injection-queue depth
                               ///< after the accept.
  std::uint64_t instants = 0;  ///< step: the session's engine clock.
  std::uint8_t flags = 0;      ///< step: kStepQuiescent.
  std::vector<WireDelivery> deliveries;  ///< poll_delivery.
  std::vector<std::uint8_t> body;        ///< get_report: JSON bytes.

  bool operator==(const Response&) const = default;
};

/// Frames a request body: varint(len) | body | crc8(body).
[[nodiscard]] std::vector<std::uint8_t> encode_request(const Request& req);
/// Frames a response body the same way.
[[nodiscard]] std::vector<std::uint8_t> encode_response(const Response& res);

/// Decodes a deframed request body (no length prefix, no CRC). Returns
/// nullopt when the verb is unknown or the body is truncated/overlong.
[[nodiscard]] std::optional<Request> decode_request(
    std::span<const std::uint8_t> body);
/// Decodes a deframed response body.
[[nodiscard]] std::optional<Response> decode_response(
    std::span<const std::uint8_t> body);

/// Incremental byte-stream deframer; one instance per in-order stream: the
/// motion channel's encode::Deframer with a byte count. A client joining
/// mid-stream, or a stream damaged by a truncated write, heals at the next
/// frame boundary, whatever sizes the reads came in; bodies over
/// encode::kMaxPayload (1 MiB, enough for get_report on the largest
/// session) count as corruption.
class WireParser : public encode::Deframer {
 public:
  /// Feeds bytes as they arrive from the stream.
  void feed(std::span<const std::uint8_t> bytes) {
    bytes_ += bytes.size();
    Deframer::feed(bytes);
  }

  /// Bytes consumed over the parser's lifetime.
  [[nodiscard]] std::uint64_t bytes_consumed() const noexcept {
    return bytes_;
  }
  /// True when a frame is partially assembled.
  [[nodiscard]] bool mid_frame() const noexcept { return buffered(); }

  /// Transient-corruption hook (stabilization suite): overwrites the
  /// assembly buffer with 1–16 bytes of garbage, as a `corrupt:parser`
  /// fault does to the motion-channel FrameParser. Counters are preserved
  /// — they are monotone telemetry, not parse state — and the next feed()
  /// must re-align at a frame boundary through the standard hunt.
  void scramble(std::uint64_t garbage) {
    Deframer::scramble(1 + (garbage & 15),
                       static_cast<std::uint8_t>(garbage), (garbage & 1) != 0);
  }

 private:
  std::uint64_t bytes_ = 0;
};

}  // namespace stig::serve
