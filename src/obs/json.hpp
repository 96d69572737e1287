// Minimal JSON helpers shared by the exporters and the tools that read
// their artifacts back.
//
// Deliberately tiny: quote-and-escape for strings, finite formatting for
// doubles (JSON has no Infinity/NaN — they render as null), and one object
// reader that returns raw member values for the caller to interpret.
#pragma once

#include <cmath>
#include <cstdint>
#include <cstdio>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

namespace stig::obs {

/// Returns `s` as a double-quoted JSON string literal.
[[nodiscard]] inline std::string json_quote(std::string_view s) {
  std::string out;
  out.reserve(s.size() + 2);
  out.push_back('"');
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x",
                        static_cast<unsigned>(static_cast<unsigned char>(c)));
          out += buf;
        } else {
          out.push_back(c);
        }
    }
  }
  out.push_back('"');
  return out;
}

/// Formats `v` as a JSON number: shortest round-trip-safe decimal, integral
/// values without a trailing ".0"-less exponent surprise; non-finite values
/// become null.
[[nodiscard]] inline std::string json_number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  // Prefer the shorter %g form when it round-trips.
  char short_buf[32];
  std::snprintf(short_buf, sizeof(short_buf), "%.9g", v);
  double back = 0.0;
  std::sscanf(short_buf, "%lf", &back);
  return back == v ? short_buf : buf;
}

/// `bytes` as lower-case hex, two digits a byte.
[[nodiscard]] inline std::string hex_bytes(
    std::span<const std::uint8_t> bytes) {
  static constexpr char kHex[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const std::uint8_t b : bytes) {
    out += kHex[b >> 4];
    out += kHex[b & 0xF];
  }
  return out;
}

/// One member of a JSON object: the unescaped key and the value's raw
/// text (a string keeps its quotes and escapes; a nested object or array is
/// its whole bracketed text).
struct JsonMember {
  std::string key;
  std::string_view value;
};

/// Reads the one JSON object `text` holds (whitespace around it allowed):
/// its members in order. Nested objects and arrays are skipped by bracket
/// balance, strings respected. nullopt on malformed input; never reads
/// past the end of `text`.
[[nodiscard]] std::optional<std::vector<JsonMember>> json_object(
    std::string_view text);

/// The raw value of the first member named `key`, or nullopt.
[[nodiscard]] std::optional<std::string_view> json_member(
    const std::vector<JsonMember>& members, std::string_view key);

/// Unescapes a raw JSON string value (with its quotes); nullopt when `raw`
/// is not exactly one well-formed string.
[[nodiscard]] std::optional<std::string> json_unquote(std::string_view raw);

}  // namespace stig::obs
