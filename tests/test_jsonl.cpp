// Position-history JSONL: pinned bytes, round trips, precision, malformed
// input. The reader lives here: only tests read the format back.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/chat_network.hpp"
#include "encode/bits.hpp"
#include "obs/jsonl_sink.hpp"

namespace stig {
namespace {

using History = std::vector<std::vector<geom::Vec2>>;

/// A parsed history: the header's robot count and every configuration.
struct ParsedHistory {
  std::size_t robots = 0;
  History configs;
};

/// Pulls the numeric value following `"key":` in `line`, or nullopt.
std::optional<double> field(const std::string& line, const std::string& key) {
  const std::string needle = "\"" + key + "\":";
  const auto pos = line.find(needle);
  if (pos == std::string::npos) return std::nullopt;
  try {
    return std::stod(line.substr(pos + needle.size()));
  } catch (...) {
    return std::nullopt;
  }
}

/// Reads what `obs::write_history_jsonl` writes; nullopt on any structural
/// mismatch (wrong header, ragged rows, parse errors, missing instants).
std::optional<ParsedHistory> read_history_jsonl(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) return std::nullopt;
  if (line.find("\"type\":\"header\"") == std::string::npos) {
    return std::nullopt;
  }
  const auto robots = field(line, "robots");
  const auto instants = field(line, "instants");
  if (!robots || !instants) return std::nullopt;

  ParsedHistory parsed;
  parsed.robots = static_cast<std::size_t>(*robots);
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    if (line.find("\"type\":\"config\"") == std::string::npos) {
      return std::nullopt;
    }
    const auto open = line.find("\"p\":[");
    if (open == std::string::npos) return std::nullopt;
    std::vector<geom::Vec2> config;
    std::istringstream pts(line.substr(open + 5));
    char c = 0;
    while (pts >> c) {
      if (c == ']') break;  // End of the outer array.
      if (c != '[') continue;
      geom::Vec2 p;
      char comma = 0, close = 0;
      if (!(pts >> p.x >> comma >> p.y >> close) || comma != ',' ||
          close != ']') {
        return std::nullopt;
      }
      config.push_back(p);
    }
    if (config.size() != parsed.robots) return std::nullopt;
    parsed.configs.push_back(std::move(config));
  }
  if (parsed.configs.size() != static_cast<std::size_t>(*instants)) {
    return std::nullopt;
  }
  return parsed;
}

/// The position history of one fixed three-robot chat.
History recorded_history() {
  core::ChatNetworkOptions opt;
  opt.synchrony = core::Synchrony::synchronous;
  opt.record_positions = true;
  core::ChatNetwork net(
      {geom::Vec2{0.125, -3.5}, geom::Vec2{4.75, 1.0}, geom::Vec2{-2, 6}},
      opt);
  net.send(0, 2, encode::bytes_of("jsonl"));
  net.run_until_quiescent(100'000);
  return net.position_history();
}

std::string written(const History& history) {
  std::ostringstream out;
  EXPECT_TRUE(obs::write_history_jsonl(out, history));
  return out.str();
}

TEST(Jsonl, FixedChatBytesPinned) {
  // FNV-1a 64 of this chat's history file, the format `stigsim --jsonl`
  // writes: every coordinate of all 113 configurations, bit for bit. A
  // move here is a change of the output format or of the motion.
  const std::string text = written(recorded_history());
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : text) {
    h = (h ^ c) * 0x100000001b3ULL;
  }
  EXPECT_EQ(text.size(), 8499u);
  EXPECT_EQ(h, 0xe8b5b7ee93162018ULL);
  EXPECT_EQ(text.substr(0, 103),
            "{\"type\":\"header\",\"robots\":3,\"instants\":113}\n"
            "{\"type\":\"config\",\"t\":0,"
            "\"p\":[[0.125,-3.5],[4.75,1],[-2,6]]}\n");
}

TEST(Jsonl, RoundTripExactDoubles) {
  const History history = recorded_history();
  std::stringstream ss(written(history));
  const auto parsed = read_history_jsonl(ss);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->robots, 3u);
  ASSERT_EQ(parsed->configs.size(), history.size());
  for (std::size_t t = 0; t < parsed->configs.size(); ++t) {
    for (std::size_t i = 0; i < 3; ++i) {
      // setprecision(17) makes doubles round-trip bit-exactly.
      EXPECT_EQ(parsed->configs[t][i], history[t][i])
          << "t=" << t << " i=" << i;
    }
  }
}

TEST(Jsonl, HeaderDescribesContent) {
  std::stringstream ss(written(recorded_history()));
  std::string header;
  std::getline(ss, header);
  EXPECT_NE(header.find("\"type\":\"header\""), std::string::npos);
  EXPECT_NE(header.find("\"robots\":3"), std::string::npos);
}

TEST(Jsonl, EmptyHistoryRefused) {
  core::ChatNetworkOptions opt;
  core::ChatNetwork net({geom::Vec2{0, 0}, geom::Vec2{5, 0}}, opt);
  net.run(3);
  EXPECT_TRUE(net.position_history().empty());  // Not recorded.
  std::stringstream ss;
  EXPECT_FALSE(obs::write_history_jsonl(ss, net.position_history()));
}

TEST(Jsonl, MalformedInputsRejected) {
  const auto parse = [](const std::string& text) {
    std::stringstream ss(text);
    return read_history_jsonl(ss);
  };
  EXPECT_FALSE(parse("").has_value());
  EXPECT_FALSE(parse("{\"type\":\"config\"}\n").has_value());
  EXPECT_FALSE(
      parse("{\"type\":\"header\",\"robots\":2,\"instants\":1}\n"
            "{\"type\":\"config\",\"t\":0,\"p\":[[1,2]]}\n")
          .has_value());  // Ragged row: 1 point, 2 robots.
  EXPECT_FALSE(
      parse("{\"type\":\"header\",\"robots\":1,\"instants\":2}\n"
            "{\"type\":\"config\",\"t\":0,\"p\":[[1,2]]}\n")
          .has_value());  // Missing instant.
  EXPECT_TRUE(
      parse("{\"type\":\"header\",\"robots\":1,\"instants\":1}\n"
            "{\"type\":\"config\",\"t\":0,\"p\":[[1,2]]}\n")
          .has_value());
}

TEST(Jsonl, FileRoundTrip) {
  const History history = recorded_history();
  const std::string path = ::testing::TempDir() + "stig_history_test.jsonl";
  {
    std::ofstream out(path);
    ASSERT_TRUE(obs::write_history_jsonl(out, history));
  }
  std::ifstream in(path);
  const auto parsed = read_history_jsonl(in);
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->configs.size(), history.size());
  std::remove(path.c_str());
}

}  // namespace
}  // namespace stig
