// Repro files — serialized failing fuzz cases.
//
// A repro is one flat JSON object holding a FuzzConfig plus the observed
// failure (kind, detail, schedule digest). It is the interchange format
// between stigfuzz (which writes `repro_<hash>.json` and `repro_last.json`
// on every shrunk failure) and `stigsim --replay` (which re-executes the
// config and verifies kind *and* schedule digest match — the bit-for-bit
// reproduction check). It is read back through obs::json_object; keys are
// stable and documented in docs/FUZZING.md.
#pragma once

#include <optional>
#include <ostream>
#include <string>

#include "fuzz/fuzz_config.hpp"
#include "fuzz/fuzzer.hpp"

namespace stig::fuzz {

struct Repro {
  FuzzConfig config;
  FailureKind kind = FailureKind::none;
  std::string detail;
  std::uint64_t schedule_digest = 0;
  std::size_t schedule_instants = 0;
};

/// Writes `r` as one flat JSON object (stable key order, trailing newline).
void write_repro_json(std::ostream& out, const Repro& r);

/// Writes `repro_<hash>.json` under `dir` (and a `repro_last.json` copy,
/// so scripts can chain without knowing the hash). Returns the hashed
/// path, or nullopt on I/O failure (`error` gets the reason).
[[nodiscard]] std::optional<std::string> save_repro(const std::string& dir,
                                                    const Repro& r,
                                                    std::string* error);

/// Parses a repro file. Returns nullopt and fills `error` on malformed
/// input (missing key, unknown protocol name, bad hex payload).
[[nodiscard]] std::optional<Repro> load_repro(const std::string& path,
                                              std::string* error);

}  // namespace stig::fuzz
