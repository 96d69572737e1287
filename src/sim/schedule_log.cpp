#include "sim/schedule_log.hpp"

namespace stig::sim {

std::uint64_t ScheduleLog::digest() const noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
  const auto mix = [&h](std::uint64_t v) {
    for (int byte = 0; byte < 8; ++byte) {
      h ^= (v >> (8 * byte)) & 0xffU;
      h *= 0x100000001b3ULL;
    }
  };
  for (std::size_t t = 0; t < ends_.size(); ++t) {
    mix(t);
    mix(robots(t));
    for (std::size_t i = begin(t); i < ends_[t]; ++i) {
      h ^= bits_[i] ? 1U : 0U;
      h *= 0x100000001b3ULL;
    }
  }
  return h;
}

}  // namespace stig::sim
