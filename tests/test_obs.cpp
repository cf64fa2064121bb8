// Unit tests for the observability layer: the tracer's typed records and
// its ring of newest events, profiling spans, the disabled-path no-ops,
// JSON helpers, and the pluggable log sink.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <random>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "common/flags.hpp"
#include "common/logging.hpp"
#include "obs/json.hpp"
#include "obs/profile.hpp"
#include "obs/trace.hpp"

namespace swallow::obs {
namespace {

TEST(Tracer, RecordsTypedArgs) {
  Tracer tracer;
  emit_instant(&tracer, 5.0, "hello", "test", {{"k", 1}});
  ASSERT_EQ(tracer.size(), 1u);
  const TraceEvent ev = tracer.events().front();
  EXPECT_EQ(std::string_view(ev.name), "hello");
  EXPECT_EQ(ev.ph, 'i');
  EXPECT_DOUBLE_EQ(ev.ts, 5.0);
  EXPECT_EQ(std::string_view(ev.args[0].key), "k");
  EXPECT_EQ(std::get<std::int64_t>(ev.args[0].value), 1);
  EXPECT_EQ(ev.args[1].key, nullptr);
}

// The traceEvents array of a Chrome export, parsed.
std::vector<JsonValue> chrome_events(const Tracer& tracer) {
  std::ostringstream oss;
  tracer.write_chrome_trace(oss);
  return parse_json(oss.str()).find("traceEvents")->array;
}

TEST(Tracer, RingKeepsTheNewestEventsAndExportsTheDroppedCount) {
  Tracer tracer(/*max_events=*/2);
  for (int i = 0; i < 5; ++i) emit_instant(&tracer, i, "e", "test");
  EXPECT_EQ(tracer.size(), 2u);
  EXPECT_EQ(tracer.dropped(), 3u);
  const std::vector<TraceEvent> kept = tracer.events();
  ASSERT_EQ(kept.size(), 2u);
  EXPECT_DOUBLE_EQ(kept[0].ts, 3);
  EXPECT_DOUBLE_EQ(kept[1].ts, 4);

  std::vector<double> instants;
  double dropped = -1;
  for (const JsonValue& ev : chrome_events(tracer)) {
    if (ev.find("name")->string == "dropped_events")
      dropped = ev.find("args")->find("count")->number;
    if (ev.find("ph")->string == "i") instants.push_back(ev.find("ts")->number);
  }
  EXPECT_DOUBLE_EQ(dropped, 3);
  EXPECT_EQ(instants, (std::vector<double>{3, 4}));
}

TEST(Tracer, RejectsAnEmptyRing) {
  EXPECT_THROW(Tracer(0), std::invalid_argument);
}

TEST(Tracer, ConcurrentRecordsFillTheRing) {
  constexpr std::size_t kCap = 64;
  constexpr int kThreads = 4;
  constexpr int kPerThread = 5000;
  Tracer tracer(kCap);
  std::vector<std::jthread> threads;
  for (int t = 0; t < kThreads; ++t)
    threads.emplace_back([&tracer, t] {
      for (int i = 0; i < kPerThread; ++i)
        emit_instant(&tracer, i, "e", "test", {{"thread", t}});
    });
  threads.clear();  // join
  EXPECT_EQ(tracer.size(), kCap);
  EXPECT_EQ(tracer.dropped(), kThreads * kPerThread - kCap);
  for (const TraceEvent& ev : tracer.events()) {  // whole records only
    EXPECT_EQ(std::string_view(ev.args[0].key), "thread");
    EXPECT_LT(std::get<std::int64_t>(ev.args[0].value), kThreads);
  }
}

TEST(Tracer, NullSinkPathIsANoOp) {
  emit_instant(nullptr, 0, "ignored", "test");
  ProfileScope scope(nullptr, "ignored");  // must not crash or allocate
}

TEST(ProfileScope, RecordsOneCompleteSpan) {
  Tracer tracer;
  { ProfileScope scope(&tracer, "work", "test"); }
  const std::vector<TraceEvent> events = tracer.events();
  ASSERT_EQ(events.size(), 1u);
  EXPECT_EQ(events[0].ph, 'X');
  EXPECT_EQ(std::string_view(events[0].name), "work");
  EXPECT_EQ(events[0].pid, kWallPid);
  EXPECT_GE(events[0].dur, 0);
}

TEST(ProfileScope, SpansPastTheCapExportComplete) {
  // A ring that overflows mid-nesting still exports only whole spans: each
  // scope is one 'X' record, so no begin can lose its end.
  Tracer tracer(/*max_events=*/3);
  for (int i = 0; i < 10; ++i) {
    ProfileScope outer(&tracer, "outer", "test");
    ProfileScope inner(&tracer, "inner", "test");
  }
  EXPECT_EQ(tracer.dropped(), 17u);
  std::ostringstream oss;
  tracer.write_chrome_trace(oss);
  const JsonValue doc = parse_json(oss.str());
  std::size_t spans = 0;
  for (const JsonValue& ev : doc.find("traceEvents")->array) {
    const std::string& ph = ev.find("ph")->string;
    if (ph == "M") continue;
    EXPECT_EQ(ph, "X");
    EXPECT_GE(ev.find("dur")->number, 0);
    ++spans;
  }
  EXPECT_EQ(spans, 3u);
}

TEST(Tracer, ExportsEveryArgType) {
  Tracer tracer;
  const char* name = tracer.intern(std::string("FVDF") + "-NC");
  EXPECT_EQ(tracer.intern("FVDF-NC"), name);  // one copy per string
  emit_instant(&tracer, 1, "a", "test",
               {{"i", -2},
                {"u", std::numeric_limits<std::uint64_t>::max()},
                {"d", 1.5},
                {"b", true},
                {"s", name}});
  emit_instant(&tracer, 2, "b", "test", {{"q", "x\"y"}});
  // Three metadata records (two track names, the dropped count), then the
  // two events in ts order.
  const std::vector<JsonValue> events = chrome_events(tracer);
  ASSERT_EQ(events.size(), 5u);
  const JsonValue& a = *events[3].find("args");
  ASSERT_EQ(a.object.size(), 5u);
  EXPECT_EQ(a.object[0].first, "i");
  EXPECT_DOUBLE_EQ(a.find("i")->number, -2);
  EXPECT_DOUBLE_EQ(a.find("u")->number, 18446744073709551615.0);
  EXPECT_DOUBLE_EQ(a.find("d")->number, 1.5);
  EXPECT_TRUE(a.find("b")->boolean);
  EXPECT_EQ(a.find("s")->string, "FVDF-NC");
  EXPECT_EQ(events[4].find("args")->find("q")->string, "x\"y");
}

TEST(Json, EscapeAndNumbers) {
  EXPECT_EQ(json_quote("a\"b\\c\n"), "\"a\\\"b\\\\c\\n\"");
  EXPECT_EQ(json_number(3), "3");
  EXPECT_EQ(json_number(1e6), "1000000");
  EXPECT_EQ(json_number(-0.5), "-0.5");
  EXPECT_EQ(json_number(std::numeric_limits<double>::quiet_NaN()), "null");
  EXPECT_EQ(json_number(std::numeric_limits<double>::infinity()), "null");
}

TEST(Json, NumbersRoundTripBitForBit) {
  std::vector<double> values = {
      0.0, -0.0, 0.1, -1241.5773912949446,
      std::numeric_limits<double>::denorm_min(), 1e-310, -4.9e-320,
      std::numeric_limits<double>::min(), std::numeric_limits<double>::max(),
      std::numeric_limits<double>::lowest(), 1e300, -1e300, 1e-300, -1e-300,
      9007199254740991.0, 9007199254740992.0, 9007199254740994.0,
      -9007199254740992.0, 9007199254740993.0 * 2, 1e21, 123456789.0};
  std::mt19937_64 rng(42);
  std::uniform_real_distribution<double> uniform(-1e6, 1e6);
  for (int i = 0; i < 20000; ++i) {
    values.push_back(uniform(rng));
    const double any = std::bit_cast<double>(rng());
    if (std::isfinite(any)) values.push_back(any);
  }
  for (const double v : values) {
    const std::string text = json_number(v);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(std::strtod(text.c_str(), nullptr)),
              std::bit_cast<std::uint64_t>(v))
        << text;
  }
}

TEST(Json, ParserRejectsMalformedInput) {
  EXPECT_THROW(parse_json("{"), std::runtime_error);
  EXPECT_THROW(parse_json("[1,]"), std::runtime_error);
  EXPECT_THROW(parse_json("{\"a\":1} trailing"), std::runtime_error);
  EXPECT_THROW(parse_json("tru"), std::runtime_error);
}

TEST(ThreadTid, DistinctPerThread) {
  const std::uint32_t mine = current_thread_tid();
  EXPECT_EQ(current_thread_tid(), mine);  // stable within a thread
  std::uint32_t other = 0;
  std::jthread([&] { other = current_thread_tid(); }).join();
  EXPECT_NE(other, mine);
}

TEST(LogSink, CapturesAndRestores) {
  std::vector<std::pair<common::LogLevel, std::string>> captured;
  common::set_log_sink([&](common::LogLevel level, const std::string& msg) {
    captured.emplace_back(level, msg);
  });
  const common::LogLevel before = common::log_level();
  common::set_log_level(common::LogLevel::kDebug);
  common::log_warn("problem ", 42);
  common::log_debug("detail");
  common::set_log_level(before);
  common::set_log_sink({});

  ASSERT_EQ(captured.size(), 2u);
  EXPECT_EQ(captured[0].first, common::LogLevel::kWarn);
  EXPECT_EQ(captured[0].second, "problem 42");
  EXPECT_EQ(captured[1].second, "detail");
}

TEST(LogSink, TracerOverflowDiagnosticsFlowThroughIt) {
  std::vector<std::string> warnings;
  common::set_log_sink([&](common::LogLevel level, const std::string& msg) {
    if (level == common::LogLevel::kWarn) warnings.push_back(msg);
  });
  Tracer tracer(/*max_events=*/1);
  emit_instant(&tracer, 0, "a", "test");
  emit_instant(&tracer, 1, "b", "test");  // dropped
  std::ostringstream oss;
  tracer.write_chrome_trace(oss);
  common::set_log_sink({});
  ASSERT_EQ(warnings.size(), 1u);
  EXPECT_NE(warnings[0].find("dropped"), std::string::npos);
}

TEST(LogLevel, ParsesNames) {
  EXPECT_EQ(common::parse_log_level("debug"), common::LogLevel::kDebug);
  EXPECT_EQ(common::parse_log_level("INFO"), common::LogLevel::kInfo);
  EXPECT_EQ(common::parse_log_level("warning"), common::LogLevel::kWarn);
  EXPECT_THROW(common::parse_log_level("loud"), std::invalid_argument);
}

TEST(Flags, SpaceSeparatedValuesAndLogLevel) {
  const char* argv[] = {"prog", "--trace-out", "out.json", "--log-level=info",
                        "--flag"};
  const common::Flags flags(5, argv);
  EXPECT_EQ(flags.get("trace-out", ""), "out.json");
  EXPECT_EQ(flags.get("log-level", ""), "info");
  EXPECT_TRUE(flags.get_bool("flag", false));

  const common::LogLevel before = common::log_level();
  common::apply_log_level_flag(flags);
  EXPECT_EQ(common::log_level(), common::LogLevel::kInfo);
  common::set_log_level(before);
}

}  // namespace
}  // namespace swallow::obs
