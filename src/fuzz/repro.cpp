#include "fuzz/repro.hpp"

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "obs/json.hpp"

namespace stig::fuzz {
namespace {

std::string hex64(std::uint64_t v) {
  std::ostringstream out;
  out << "0x" << std::hex << v;
  return out.str();
}

}  // namespace

void write_repro_json(std::ostream& out, const Repro& r) {
  const FuzzConfig& c = r.config;
  out << "{\n"
      << "  \"version\": 1,\n"
      << "  \"kind\": " << obs::json_quote(failure_kind_name(r.kind))
      << ",\n"
      << "  \"detail\": " << obs::json_quote(r.detail) << ",\n"
      << "  \"schedule_digest\": " << obs::json_quote(hex64(r.schedule_digest))
      << ",\n"
      << "  \"schedule_instants\": " << r.schedule_instants << ",\n"
      << "  \"config_hash\": " << obs::json_quote(hex64(config_hash(c)))
      << ",\n"
      << "  \"seed\": " << c.seed << ",\n"
      << "  \"protocol\": "
      << obs::json_quote(core::protocol_kind_name(c.protocol)) << ",\n"
      << "  \"scheduler\": "
      << obs::json_quote(core::scheduler_kind_name(c.scheduler)) << ",\n"
      << "  \"p\": " << obs::json_number(c.p) << ",\n"
      << "  \"subset_size\": " << c.subset_size << ",\n"
      << "  \"fairness_bound\": " << c.fairness_bound << ",\n"
      << "  \"n\": " << c.n << ",\n"
      << "  \"payload_hex\": " << obs::json_quote(obs::hex_bytes(c.payload))
      << ",\n"
      << "  \"broadcast\": " << (c.broadcast ? "true" : "false") << ",\n"
      << "  \"max_instants\": " << instant_budget(c) << ",\n"
      << "  \"fault_robot\": "
      << (c.fault ? static_cast<long long>(c.fault->robot) : -1LL) << ",\n"
      << "  \"fault_bit\": " << (c.fault ? c.fault->nth_bit : 0) << ",\n"
      << "  \"group_size\": " << c.group_size << ",\n"
      << "  \"fault_plan\": "
      << obs::json_quote(fault::format_fault_plan(c.fault_plan)) << "\n"
      << "}\n";
}

std::optional<std::string> save_repro(const std::string& dir, const Repro& r,
                                      std::string* error) {
  const std::string base = dir.empty() ? std::string(".") : dir;
  std::error_code ec;
  std::filesystem::create_directories(base, ec);  // Best effort; the open
                                                  // below reports failure.
  const std::string hashed =
      base + "/repro_" + hex64(config_hash(r.config)).substr(2) + ".json";
  for (const std::string& path : {hashed, base + "/repro_last.json"}) {
    std::ofstream out(path);
    if (!out) {
      if (error != nullptr) *error = "could not write " + path;
      return std::nullopt;
    }
    write_repro_json(out, r);
  }
  return hashed;
}

std::optional<Repro> load_repro(const std::string& path,
                                std::string* error) {
  const auto fail = [&](const std::string& why) -> std::optional<Repro> {
    if (error != nullptr) *error = path + ": " + why;
    return std::nullopt;
  };
  std::ifstream in(path);
  if (!in) return fail("could not open");
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string text = buffer.str();
  const auto members = obs::json_object(text);
  if (!members) return fail("not a JSON object");

  // A member's value: strings unescaped, anything else its bare token.
  const auto find_value =
      [&](std::string_view key) -> std::optional<std::string> {
    const auto raw = obs::json_member(*members, key);
    if (!raw) return std::nullopt;
    if (raw->front() == '"') return obs::json_unquote(*raw);
    return std::string(*raw);
  };
  const auto u64 = [&](std::string_view key) -> std::optional<std::uint64_t> {
    const auto raw = find_value(key);
    if (!raw) return std::nullopt;
    return std::strtoull(raw->c_str(), nullptr, 0);  // Handles 0x too.
  };

  Repro r;
  const auto kind = find_value("kind");
  if (!kind) return fail("missing kind");
  r.kind = failure_kind_from_name(*kind);
  if (const auto d = find_value("detail")) r.detail = *d;
  const auto digest = u64("schedule_digest");
  if (!digest) return fail("missing schedule_digest");
  r.schedule_digest = *digest;
  if (const auto si = u64("schedule_instants")) {
    r.schedule_instants = static_cast<std::size_t>(*si);
  }

  FuzzConfig& c = r.config;
  const auto seed = u64("seed");
  if (!seed) return fail("missing seed");
  c.seed = *seed;
  const auto proto_name = find_value("protocol");
  if (!proto_name) return fail("missing protocol");
  // A case names the protocol it ran, never "auto".
  const auto proto = core::protocol_kind_from_name(*proto_name);
  if (!proto || *proto == core::ProtocolKind::automatic) {
    return fail("unknown protocol " + *proto_name);
  }
  c.protocol = *proto;
  const auto sched_name = find_value("scheduler");
  if (!sched_name) return fail("missing scheduler");
  const auto sched = core::scheduler_kind_from_name(*sched_name);
  if (!sched) return fail("unknown scheduler " + *sched_name);
  c.scheduler = *sched;
  if (const auto p = find_value("p")) {
    c.p = std::strtod(p->c_str(), nullptr);
  }
  if (const auto v = u64("subset_size")) {
    c.subset_size = static_cast<std::size_t>(*v);
  }
  if (const auto v = u64("fairness_bound")) {
    c.fairness_bound = static_cast<std::size_t>(*v);
  }
  const auto n = u64("n");
  if (!n || *n < 2) return fail("missing or bad n");
  c.n = static_cast<std::size_t>(*n);
  const auto hexstr = find_value("payload_hex");
  if (!hexstr) return fail("missing payload_hex");
  if (hexstr->size() % 2 != 0) return fail("odd payload_hex length");
  c.payload.clear();
  for (std::size_t i = 0; i + 1 < hexstr->size(); i += 2) {
    const std::string byte = hexstr->substr(i, 2);
    char* end = nullptr;
    const unsigned long v = std::strtoul(byte.c_str(), &end, 16);
    if (end != byte.c_str() + 2) return fail("bad payload_hex");
    c.payload.push_back(static_cast<std::uint8_t>(v));
  }
  if (const auto b = find_value("broadcast")) {
    c.broadcast = *b == "true";
  }
  if (const auto v = u64("max_instants")) c.max_instants = *v;
  const auto fault_robot = find_value("fault_robot");
  if (fault_robot && *fault_robot != "-1") {
    FaultSpec f;
    f.robot = static_cast<std::size_t>(
        std::strtoull(fault_robot->c_str(), nullptr, 0));
    if (const auto bit = u64("fault_bit")) f.nth_bit = *bit;
    c.fault = f;
  }
  // Masking keys are absent from version-1 files written before the fault
  // subsystem existed; their defaults (single lane, empty plan) apply.
  if (const auto v = u64("group_size")) {
    if (*v < 1) return fail("bad group_size");
    c.group_size = static_cast<std::size_t>(*v);
  }
  if (const auto plan = find_value("fault_plan")) {
    const auto parsed = fault::parse_fault_plan(*plan);
    if (!parsed) return fail("bad fault_plan \"" + *plan + "\"");
    c.fault_plan = *parsed;
  }
  return r;
}

}  // namespace stig::fuzz
