#include "obs/json.hpp"

#include <charconv>

namespace stig::obs {
namespace {

/// A cursor over JSON text; every step checks the end.
struct Reader {
  std::string_view s;
  std::size_t i = 0;

  void ws() {
    while (i < s.size() && std::string_view(" \n\t\r").find(s[i]) !=
                               std::string_view::npos) {
      ++i;
    }
  }
  bool eat(char c) {
    ws();
    if (i >= s.size() || s[i] != c) return false;
    ++i;
    return true;
  }
  /// Skips the string opening at s[i]; false when there is none.
  bool string() {
    if (i >= s.size() || s[i] != '"') return false;
    for (++i; i < s.size(); ++i) {
      if (s[i] == '\\') {
        ++i;
      } else if (s[i] == '"') {
        ++i;
        return true;
      }
    }
    return false;
  }
  /// Skips one value: a string, a bracket-balanced object or array, or a
  /// bare scalar running to the next delimiter.
  bool value() {
    if (i >= s.size()) return false;
    if (s[i] == '"') return string();
    if (s[i] != '{' && s[i] != '[') {
      const std::size_t start = i;
      constexpr std::string_view kEnds = ",:{}[]\" \n\t\r";
      while (i < s.size() && kEnds.find(s[i]) == std::string_view::npos) ++i;
      return i > start;
    }
    std::string open;  // The closers still owed, innermost last.
    while (i < s.size()) {
      const char c = s[i];
      if (c == '"') {
        if (!string()) return false;
        continue;
      }
      if (c == '{' || c == '[') {
        open.push_back(c == '{' ? '}' : ']');
      } else if (c == '}' || c == ']') {
        if (open.back() != c) return false;
        open.pop_back();
        if (open.empty()) return ++i, true;
      }
      ++i;
    }
    return false;
  }
};

}  // namespace

std::optional<std::vector<JsonMember>> json_object(std::string_view text) {
  Reader r{text};
  if (!r.eat('{')) return std::nullopt;
  std::vector<JsonMember> members;
  if (!r.eat('}')) {
    do {
      r.ws();
      const std::size_t key = r.i;
      if (!r.string()) return std::nullopt;
      auto name = json_unquote(text.substr(key, r.i - key));
      if (!name || !r.eat(':')) return std::nullopt;
      r.ws();
      const std::size_t value = r.i;
      if (!r.value()) return std::nullopt;
      members.push_back({std::move(*name), text.substr(value, r.i - value)});
    } while (r.eat(','));
    if (!r.eat('}')) return std::nullopt;
  }
  r.ws();
  if (r.i != text.size()) return std::nullopt;
  return members;
}

std::optional<std::string_view> json_member(
    const std::vector<JsonMember>& members, std::string_view key) {
  for (const JsonMember& m : members) {
    if (m.key == key) return m.value;
  }
  return std::nullopt;
}

std::optional<std::string> json_unquote(std::string_view raw) {
  if (raw.size() < 2 || raw.front() != '"' || raw.back() != '"') {
    return std::nullopt;
  }
  const std::size_t close = raw.size() - 1;
  std::string out;
  for (std::size_t i = 1; i < close; ++i) {
    if (raw[i] == '"') return std::nullopt;
    if (raw[i] != '\\') {
      out.push_back(raw[i]);
      continue;
    }
    if (++i == close) return std::nullopt;
    const char c = raw[i];
    if (c != 'u') {
      constexpr std::string_view kFrom = "\"\\/bfnrt", kTo = "\"\\/\b\f\n\r\t";
      const std::size_t at = kFrom.find(c);
      if (at == std::string_view::npos) return std::nullopt;
      out.push_back(kTo[at]);
      continue;
    }
    unsigned code = 0;
    const char* digits = raw.data() + i + 1;
    if (close < i + 5 ||
        std::from_chars(digits, digits + 4, code, 16).ptr != digits + 4) {
      return std::nullopt;
    }
    i += 4;
    // UTF-8, one code unit at a time.
    if (code < 0x80) {
      out.push_back(static_cast<char>(code));
    } else if (code < 0x800) {
      out.push_back(static_cast<char>(0xC0 | (code >> 6)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    } else {
      out.push_back(static_cast<char>(0xE0 | (code >> 12)));
      out.push_back(static_cast<char>(0x80 | ((code >> 6) & 0x3F)));
      out.push_back(static_cast<char>(0x80 | (code & 0x3F)));
    }
  }
  return out;
}

}  // namespace stig::obs
