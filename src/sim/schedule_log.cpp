#include "sim/schedule_log.hpp"

#include <algorithm>
#include <array>
#include <bit>

namespace stig::sim {
namespace {

constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

/// kFnvPow[k] = kFnvPrime^k (mod 2^64).
constexpr std::array<std::uint64_t, 65> kFnvPow = [] {
  std::array<std::uint64_t, 65> pow{};
  pow[0] = 1;
  for (std::size_t k = 1; k < pow.size(); ++k) {
    pow[k] = pow[k - 1] * kFnvPrime;
  }
  return pow;
}();

/// kFnvPrime^k for any k.
std::uint64_t fnv_pow(std::size_t k) {
  std::uint64_t r = 1;
  for (; k > 64; k -= 64) r *= kFnvPow[64];
  return r * kFnvPow[k];
}

}  // namespace

std::uint64_t ScheduleLog::digest() const noexcept {
  // FNV-1a steps h = (h ^ b) * p: one per byte of t and of the robot
  // count (8 little-endian bytes each), then one per activation bit. The
  // value is that of the byte loop, computed with fewer dependent
  // multiplies:
  //  * a zero step is h * p, so a run of k zero steps is h * p^k — the
  //    high bytes of t and of the robot count cost one multiply together
  //    with the next non-zero step (`zeros` counts the run pending);
  //  * for a bit b, h ^ b = h + b * (1 - 2 * (h & 1)), and p is odd, so
  //    the parity of h flips exactly at the 1 bits. A chunk of L bits
  //    then gives h * p^L plus, for each 1 bit at position j of the
  //    chunk, +-p^(L - j), negative when h was odd before that bit.
  std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a offset basis.
  std::size_t zeros = 0;
  const auto mix = [&](std::uint64_t v) {
    // Bytes up to the top non-zero one step; the rest join the zero run.
    const int bytes = (71 - std::countl_zero(v)) / 8;
    for (int byte = 0; byte < bytes; ++byte, v >>= 8) {
      if ((v & 0xffU) == 0) {
        ++zeros;
        continue;
      }
      if (zeros != 0) h *= fnv_pow(zeros);
      zeros = 0;
      h = (h ^ (v & 0xffU)) * kFnvPrime;
    }
    zeros += static_cast<std::size_t>(8 - bytes);
  };
  // Chunks end at word boundaries, so each is one shifted, masked word
  // whose 1 bits are visited lowest first.
  for (std::size_t t = 0; t < ends_.size(); ++t) {
    mix(t);
    mix(robots(t));
    for (std::size_t at = begin(t); at != ends_[t];) {
      const std::size_t len =
          std::min<std::size_t>(ends_[t] - at, 64 - at % 64);
      std::uint64_t word = words_[at / 64] >> (at % 64);
      if (len < 64) word &= (std::uint64_t{1} << len) - 1;
      std::uint64_t parity = h & 1U;
      std::uint64_t sum = 0;
      for (; word != 0; word &= word - 1, parity ^= 1U) {
        const auto j = static_cast<std::size_t>(std::countr_zero(word));
        sum += (kFnvPow[len - j] ^ (0 - parity)) + parity;  // +-p^(len-j).
      }
      h = h * fnv_pow(zeros + len) + sum;
      zeros = 0;
      at += len;
    }
  }
  return h * fnv_pow(zeros);
}

}  // namespace stig::sim
