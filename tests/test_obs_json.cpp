// The JSON object reader (obs/json.hpp) over every writer whose output a
// tool reads back, plus the malformed input it must refuse.
#include <gtest/gtest.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <limits>
#include <sstream>

#include "analyze/flight_recorder.hpp"
#include "bench_util.hpp"
#include "fuzz/repro.hpp"
#include "obs/cov.hpp"
#include "obs/json.hpp"
#include "obs/jsonl_parse.hpp"
#include "obs/jsonl_sink.hpp"
#include "obs/metrics.hpp"
#include "perf/perf_matrix.hpp"

namespace stig::obs {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The members of `text`, which must read.
std::vector<JsonMember> members_of(std::string_view text) {
  auto members = json_object(text);
  EXPECT_TRUE(members.has_value()) << text;
  return members.value_or(std::vector<JsonMember>{});
}

/// The raw value of `key`, which must be present.
std::string_view member(const std::vector<JsonMember>& members,
                        std::string_view key) {
  const auto raw = json_member(members, key);
  EXPECT_TRUE(raw.has_value()) << key;
  return raw.value_or("");
}

Event sample_event(EventType type, double x) {
  Event e;
  e.type = type;
  e.t = 41;
  e.robot = 3;
  e.peer = 5;
  e.aux = 2;
  e.x = x;
  e.y = -0.25;
  e.value = 1.5e-7;
  e.bit = 1;
  e.label = "sync2.signal";
  return e;
}

TEST(JsonReader, EventLinesRoundTrip) {
  EventLog log;
  for (unsigned t = 0; t < kEventTypeCount; ++t) {
    const Event e = sample_event(static_cast<EventType>(t), 0.1);
    const std::string line = JsonlEventSink::to_json(e);
    const auto back = log.parse_line(line);
    ASSERT_TRUE(back.has_value()) << line;
    // Every field the writer carries comes back; the rest keep defaults.
    EXPECT_EQ(JsonlEventSink::to_json(*back), line);
  }
}

TEST(JsonReader, NonFiniteValuesReadAsDefaults) {
  EventLog log;
  const Event e = sample_event(EventType::Move,
                               std::numeric_limits<double>::infinity());
  const std::string line = JsonlEventSink::to_json(e);
  ASSERT_NE(line.find("\"x\":null"), std::string::npos) << line;
  const auto back = log.parse_line(line);
  ASSERT_TRUE(back.has_value());
  EXPECT_EQ(back->x, 0.0);
  EXPECT_EQ(back->y, -0.25);
  EXPECT_STREQ(back->label, "sync2.signal");
}

TEST(JsonReader, FlightRecorderDump) {
  FlightRecorder recorder(4);
  for (std::uint64_t t = 0; t < 6; ++t) {
    Event e = sample_event(EventType::BitDecoded, 0.0);
    e.t = t;
    recorder.on_event(e);
  }
  std::ostringstream out;
  recorder.dump(out);
  std::istringstream in(out.str());
  std::string header;
  std::getline(in, header);
  const auto h = members_of(header);
  EXPECT_EQ(member(h, "type"), "\"flight_recorder\"");
  EXPECT_EQ(member(h, "dropped"), "2");
  EventLog log;
  in.seekg(0);
  EXPECT_EQ(log.read(in), 1u);  // The header is not an event.
  ASSERT_EQ(log.events().size(), 4u);
  EXPECT_EQ(log.events().front().t, 2u);
}

TEST(JsonReader, ReproDetailKeepsEveryCharacter) {
  fuzz::Repro r;
  r.kind = fuzz::FailureKind::crash;
  r.detail = "say \"hi\"\\ \n\ttab \x01\x1f end";
  r.schedule_digest = 0xfeedULL;
  r.config.seed = 9;
  r.config.n = 3;
  r.config.payload = {0xAB, 0x00};
  std::ostringstream out;
  fuzz::write_repro_json(out, r);
  const std::string text = out.str();
  const auto m = members_of(text);
  EXPECT_EQ(json_unquote(member(m, "detail")), r.detail);
  EXPECT_EQ(json_unquote(member(m, "payload_hex")), "ab00");
  EXPECT_EQ(member(m, "seed"), "9");

  const std::string path = testing::TempDir() + "json_reader_repro.json";
  {
    std::ofstream f(path);
    f << text;
  }
  std::string error;
  const auto back = fuzz::load_repro(path, &error);
  ASSERT_TRUE(back.has_value()) << error;
  EXPECT_EQ(back->detail, r.detail);
  EXPECT_EQ(back->schedule_digest, r.schedule_digest);
  EXPECT_EQ(back->config.payload, r.config.payload);
  std::filesystem::remove(path);
}

TEST(JsonReader, BenchReportWithTables) {
  const auto dir = std::filesystem::path(testing::TempDir()) / "json_reader";
  std::filesystem::create_directories(dir);
  const auto cwd = std::filesystem::current_path();
  std::filesystem::current_path(dir);
  {
    bench::Report report("reader");
    report.value("count", std::uint64_t{18446744073709551615ULL});
    report.value("ratio", 0.5);
    report.value("name", std::string("a \"quoted\" {brace} [x]"));
    report.value("tracked", false);
    const std::size_t t = report.table("t", {"n", "s"});
    report.add_row(t, {"1", json_quote("]}")});
    report.add_row(t, {"2", json_quote("{[")});
  }
  const std::string text = slurp("BENCH_reader.json");
  std::filesystem::current_path(cwd);
  std::filesystem::remove_all(dir);

  const auto top = members_of(text);
  ASSERT_EQ(top.size(), 4u);
  EXPECT_EQ(json_unquote(member(top, "bench")), "reader");
  EXPECT_EQ(member(top, "tables").front(), '[');
  const auto values = members_of(member(top, "values"));
  ASSERT_EQ(values.size(), 4u);
  EXPECT_EQ(values[0].value, "18446744073709551615");
  EXPECT_EQ(values[1].value, "0.5");
  EXPECT_EQ(json_unquote(values[2].value), "a \"quoted\" {brace} [x]");
  EXPECT_EQ(values[3].value, "false");
}

TEST(JsonReader, PerfArtifact) {
  perf::Scenario s;
  s.name = "reader";
  s.protocol = core::ProtocolKind::sync2;
  const perf::ScenarioResult r = perf::run_scenario(s);
  const std::string text = perf::render_perf_json(r, true);
  const auto top = members_of(text);
  EXPECT_EQ(json_unquote(member(top, "bench")), "reader");
  const auto values = members_of(member(top, "values"));
  EXPECT_EQ(member(values, "instants"), std::to_string(r.instants));
  EXPECT_EQ(member(values, "quiescent"), r.quiescent ? "true" : "false");
  EXPECT_EQ(member(values, "alloc_tracking"),
            r.alloc_tracking ? "true" : "false");
}

TEST(JsonReader, CoverageMap) {
  cov::CovMap map;
  map.hit(cov::Domain::frame, map.state("frame.start"),
          map.state("frame.accept"));
  map.hit(cov::Domain::frame, map.state("frame.accept"),
          map.state("frame.accept"));
  const std::string text = map.render_json("corpus");
  const auto top = members_of(text);
  const auto values = members_of(member(top, "values"));
  EXPECT_EQ(member(values, "edges"), "2");
  EXPECT_EQ(member(values, "edge.frame.frame.accept>frame.accept"), "1");
}

TEST(JsonReader, MetricsRegistry) {
  MetricsRegistry registry;
  registry.counter("a.count").add(7);
  registry.gauge("a.gauge").set(std::nan(""));
  registry.histogram("a.lat_ns").record(100.0);
  std::ostringstream out;
  registry.write_json(out);
  const std::string text = out.str();
  const auto m = members_of(text);
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(member(m, "a.count"), "7");
  EXPECT_EQ(member(m, "a.gauge"), "null");
  const auto h = members_of(member(m, "a.lat_ns"));
  EXPECT_EQ(member(h, "count"), "1");
}

TEST(JsonReader, MalformedInputIsRefused) {
  for (const std::string_view bad : {
           "",
           "{",
           "{\"a\":1",                 // Truncated.
           "{\"a\":1,",                // Truncated after a comma.
           "{\"a\":\"open}",           // Unterminated string.
           "{\"a\\\":1}",              // The key's quote is escaped.
           "{\"a\":{\"b\":1}",         // Unbalanced braces.
           "{\"a\":[1,2}",             // Mismatched bracket.
           "{\"a\":{\"b\":\"}\"}",     // Its last brace is in a string.
           "{\"a\" 1}",                // No colon.
           "{\"a\":}",                 // No value.
           "{\"a\":1}}",               // Trailing bracket.
           "{\"a\":1} x",              // Trailing text.
           "[1]",                      // Not an object.
           "{\"\\q\":1}",              // A key with an unknown escape.
       }) {
    EXPECT_FALSE(json_object(bad).has_value()) << bad;
  }
  EXPECT_FALSE(json_unquote("\"a\"b\"").has_value());
  EXPECT_FALSE(json_unquote("\"a\\\"").has_value());
  EXPECT_FALSE(json_unquote("plain").has_value());
  // A value's escapes are checked when it is unquoted.
  EXPECT_FALSE(json_unquote("\"\\q\"").has_value());
  EXPECT_FALSE(json_unquote("\"\\u12\"").has_value());
  EXPECT_FALSE(json_unquote("\"\\u12G4\"").has_value());
}

TEST(JsonReader, NestingAndEscapes) {
  const auto m = members_of(
      " {\"k\\n\": [1, {\"x\": \"]\"}], \"u\": \"\\u00e9\\u0001\", "
      "\"e\": {}} \n");
  ASSERT_EQ(m.size(), 3u);
  EXPECT_EQ(m[0].key, "k\n");
  EXPECT_EQ(m[0].value, "[1, {\"x\": \"]\"}]");
  EXPECT_EQ(json_unquote(m[1].value), "\xc3\xa9\x01");
  EXPECT_EQ(m[2].value, "{}");
  EXPECT_TRUE(json_object("{}").has_value());
}

}  // namespace
}  // namespace stig::obs
