#include "serve/wire.hpp"

#include "encode/varint.hpp"

namespace stig::serve {

namespace {

/// Reading cursor over a request/response body; every read checks bounds.
struct Cursor {
  std::span<const std::uint8_t> bytes;
  std::size_t pos = 0;
  bool ok = true;

  std::uint8_t u8() {
    if (pos >= bytes.size()) {
      ok = false;
      return 0;
    }
    return bytes[pos++];
  }
  std::uint64_t varint() {
    const auto dec = encode::decode_varint(bytes.subspan(pos));
    if (!dec) {
      ok = false;
      return 0;
    }
    pos += dec->consumed;
    return dec->value;
  }
  std::vector<std::uint8_t> blob() {
    const std::uint64_t len = varint();
    if (!ok || len > bytes.size() - pos) {
      ok = false;
      return {};
    }
    std::vector<std::uint8_t> out(bytes.begin() + static_cast<long>(pos),
                                  bytes.begin() +
                                      static_cast<long>(pos + len));
    pos += len;
    return out;
  }
  /// Strict decode: the body must be consumed exactly.
  [[nodiscard]] bool done() const { return ok && pos == bytes.size(); }
};

void put_blob(std::vector<std::uint8_t>& out,
              std::span<const std::uint8_t> blob) {
  encode::append_varint(out, blob.size());
  out.insert(out.end(), blob.begin(), blob.end());
}

}  // namespace

const char* verb_name(Verb verb) noexcept {
  switch (verb) {
    case Verb::none: return "none";
    case Verb::open_session: return "open_session";
    case Verb::send_message: return "send_message";
    case Verb::step: return "step";
    case Verb::poll_delivery: return "poll_delivery";
    case Verb::get_report: return "get_report";
    case Verb::close_session: return "close_session";
  }
  return "unknown";
}

const char* status_name(Status status) noexcept {
  switch (status) {
    case Status::ok: return "ok";
    case Status::busy: return "busy";
    case Status::not_found: return "not_found";
    case Status::error: return "error";
    case Status::poisoned: return "poisoned";
  }
  return "unknown";
}

std::vector<std::uint8_t> encode_request(const Request& req) {
  std::vector<std::uint8_t> body;
  body.push_back(static_cast<std::uint8_t>(req.verb));
  switch (req.verb) {
    case Verb::open_session:
      encode::append_varint(body, req.seed);
      encode::append_varint(body, req.robots);
      body.push_back(req.protocol);
      body.push_back(req.scheduler);
      body.push_back(req.flags);
      break;
    case Verb::send_message:
      encode::append_varint(body, req.session);
      encode::append_varint(body, req.from);
      encode::append_varint(body, req.to);
      body.push_back(req.flags);
      put_blob(body, req.payload);
      break;
    case Verb::step:
      encode::append_varint(body, req.session);
      encode::append_varint(body, req.instants);
      break;
    case Verb::poll_delivery:
      encode::append_varint(body, req.session);
      encode::append_varint(body, req.robot);
      encode::append_varint(body, req.max_messages);
      break;
    case Verb::get_report:
    case Verb::close_session:
      encode::append_varint(body, req.session);
      break;
    case Verb::none:
      break;
  }
  return encode::frame_bytes(body);
}

std::vector<std::uint8_t> encode_response(const Response& res) {
  std::vector<std::uint8_t> body;
  body.push_back(static_cast<std::uint8_t>(res.verb));
  body.push_back(static_cast<std::uint8_t>(res.status));
  if (res.status != Status::ok) {
    put_blob(body, std::span<const std::uint8_t>(
                       reinterpret_cast<const std::uint8_t*>(
                           res.detail.data()),
                       res.detail.size()));
    return encode::frame_bytes(body);
  }
  switch (res.verb) {
    case Verb::open_session:
      encode::append_varint(body, res.session);
      break;
    case Verb::send_message:
      encode::append_varint(body, res.queued);
      break;
    case Verb::step:
      encode::append_varint(body, res.instants);
      body.push_back(res.flags);
      break;
    case Verb::poll_delivery:
      encode::append_varint(body, res.deliveries.size());
      for (const WireDelivery& d : res.deliveries) {
        encode::append_varint(body, d.from);
        encode::append_varint(body, d.to);
        body.push_back(d.flags);
        put_blob(body, d.payload);
      }
      break;
    case Verb::get_report:
      put_blob(body, res.body);
      break;
    case Verb::close_session:
    case Verb::none:
      break;
  }
  return encode::frame_bytes(body);
}

std::optional<Request> decode_request(std::span<const std::uint8_t> body) {
  Cursor c{body};
  Request req;
  const std::uint8_t verb = c.u8();
  if (!c.ok || verb < 1 ||
      verb > static_cast<std::uint8_t>(Verb::close_session)) {
    return std::nullopt;
  }
  req.verb = static_cast<Verb>(verb);
  switch (req.verb) {
    case Verb::open_session:
      req.seed = c.varint();
      req.robots = c.varint();
      req.protocol = c.u8();
      req.scheduler = c.u8();
      req.flags = c.u8();
      break;
    case Verb::send_message:
      req.session = c.varint();
      req.from = c.varint();
      req.to = c.varint();
      req.flags = c.u8();
      req.payload = c.blob();
      break;
    case Verb::step:
      req.session = c.varint();
      req.instants = c.varint();
      break;
    case Verb::poll_delivery:
      req.session = c.varint();
      req.robot = c.varint();
      req.max_messages = c.varint();
      break;
    case Verb::get_report:
    case Verb::close_session:
      req.session = c.varint();
      break;
    case Verb::none:
      return std::nullopt;
  }
  if (!c.done()) return std::nullopt;
  return req;
}

std::optional<Response> decode_response(std::span<const std::uint8_t> body) {
  Cursor c{body};
  Response res;
  const std::uint8_t verb = c.u8();
  const std::uint8_t status = c.u8();
  if (!c.ok || verb > static_cast<std::uint8_t>(Verb::close_session) ||
      status > static_cast<std::uint8_t>(Status::poisoned)) {
    return std::nullopt;
  }
  res.verb = static_cast<Verb>(verb);
  res.status = static_cast<Status>(status);
  if (res.status != Status::ok) {
    const std::vector<std::uint8_t> detail = c.blob();
    res.detail.assign(detail.begin(), detail.end());
    if (!c.done()) return std::nullopt;
    return res;
  }
  switch (res.verb) {
    case Verb::open_session:
      res.session = c.varint();
      break;
    case Verb::send_message:
      res.queued = c.varint();
      break;
    case Verb::step:
      res.instants = c.varint();
      res.flags = c.u8();
      break;
    case Verb::poll_delivery: {
      const std::uint64_t count = c.varint();
      if (!c.ok || count > body.size()) return std::nullopt;
      res.deliveries.reserve(count);
      for (std::uint64_t i = 0; i < count && c.ok; ++i) {
        WireDelivery d;
        d.from = c.varint();
        d.to = c.varint();
        d.flags = c.u8();
        d.payload = c.blob();
        res.deliveries.push_back(std::move(d));
      }
      break;
    }
    case Verb::get_report:
      res.body = c.blob();
      break;
    case Verb::close_session:
    case Verb::none:
      break;
  }
  if (!c.done()) return std::nullopt;
  return res;
}

}  // namespace stig::serve
