// Unit tests for the trace:: observability layer: JSON escaping and the
// streaming writer's determinism guarantees, sink recording semantics
// (time base, interning, args), the thread-local ScopedSink protocol the
// parallel runner relies on, and the Chrome trace_event exporter.
#include <gtest/gtest.h>

#include <algorithm>
#include <sstream>

#include "trace/json.hpp"
#include "trace/trace.hpp"

namespace fgpu::trace {
namespace {

// JSON escaping --------------------------------------------------------------

TEST(JsonEscape, PassthroughPlainAscii) {
  EXPECT_EQ(json_escape("vecadd c4w8t8"), "vecadd c4w8t8");
}

TEST(JsonEscape, QuotesAndBackslashes) {
  EXPECT_EQ(json_escape("say \"hi\""), "say \\\"hi\\\"");
  EXPECT_EQ(json_escape("a\\b"), "a\\\\b");
}

TEST(JsonEscape, NamedControlEscapes) {
  EXPECT_EQ(json_escape("a\nb\tc\rd\be\ff"), "a\\nb\\tc\\rd\\be\\ff");
}

TEST(JsonEscape, UnnamedControlCharsBecomeUnicodeEscapes) {
  EXPECT_EQ(json_escape(std::string_view("\x01\x1f", 2)), "\\u0001\\u001f");
}

TEST(JsonEscape, Utf8BytesPassThrough) {
  // "µs" — multi-byte UTF-8 must not be mangled byte-by-byte.
  EXPECT_EQ(json_escape("\xc2\xb5s"), "\xc2\xb5s");
}

// JsonWriter -----------------------------------------------------------------

TEST(JsonWriter, CompactObjectAndArray) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object();
  w.field("name", "b+tree");
  w.field("ok", true);
  w.field("cycles", static_cast<uint64_t>(31395));
  w.key("grid").begin_array().value(static_cast<uint32_t>(4)).value(static_cast<uint32_t>(8));
  w.end_array();
  w.end_object();
  EXPECT_EQ(os.str(), R"({"name":"b+tree","ok":true,"cycles":31395,"grid":[4,8]})");
}

TEST(JsonWriter, EscapesKeysAndValues) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_object().field("a\"b", "c\\d").end_object();
  EXPECT_EQ(os.str(), R"({"a\"b":"c\\d"})");
}

TEST(JsonWriter, FixedDoubleRecipe) {
  std::ostringstream os;
  JsonWriter w(os);
  w.begin_array().value(0.5).value(1.0).value(123.456).end_array();
  EXPECT_EQ(os.str(), "[0.5,1,123.456]");
}

TEST(JsonWriter, PrettyModeIndentsNestedContainers) {
  std::ostringstream os;
  JsonWriter w(os, /*pretty=*/true);
  w.begin_object().key("a").begin_object().field("b", static_cast<uint64_t>(1)).end_object();
  w.end_object();
  EXPECT_EQ(os.str(), "{\n  \"a\": {\n    \"b\": 1\n  }\n}");
}

// Sink recording -------------------------------------------------------------

TEST(Sink, RecordsEventsWithTimeBase) {
  Sink sink;
  sink.complete("kernel_a", "kernel", 0, 0, 100);
  sink.set_time_base(101);
  sink.instant("barrier", "sync", 2, 7, {{"warps", 8}});
  ASSERT_EQ(sink.size(), 2u);
  EXPECT_EQ(sink.events()[0].phase, Phase::kComplete);
  EXPECT_EQ(sink.events()[0].ts, 0u);
  EXPECT_EQ(sink.events()[0].dur, 100u);
  // Launch-local cycle 7 of the second kernel lands at 101 + 7.
  EXPECT_EQ(sink.events()[1].ts, 108u);
  EXPECT_EQ(sink.events()[1].tid, 2u);
  ASSERT_EQ(sink.events()[1].nargs, 1u);
  EXPECT_STREQ(sink.events()[1].arg_keys[0], "warps");
  EXPECT_EQ(sink.events()[1].arg_vals[0], 8u);
}

TEST(Sink, CounterArgsCapAtMax) {
  Sink sink;
  sink.counter("stalls", 0, 0,
               {{"a", 1}, {"b", 2}, {"c", 3}, {"d", 4}, {"e", 5}, {"f", 6}, {"overflow", 7}});
  ASSERT_EQ(sink.size(), 1u);
  EXPECT_EQ(sink.events()[0].nargs, Event::kMaxArgs);
}

TEST(Sink, InternReturnsStableDedupedPointers) {
  Sink sink;
  const char* a = sink.intern(std::string("l1d.c0"));
  const char* b = sink.intern("l1d.c0");
  const char* c = sink.intern("l1d.c1");
  EXPECT_EQ(a, b);  // same string -> same storage
  EXPECT_NE(a, c);
  EXPECT_STREQ(a, "l1d.c0");
  EXPECT_STREQ(c, "l1d.c1");
}

TEST(Sink, ThreadNamesAreOrderedByTid) {
  Sink sink;
  sink.set_thread_name(3, "core3");
  sink.set_thread_name(0, "core0");
  ASSERT_EQ(sink.thread_names().size(), 2u);
  EXPECT_EQ(sink.thread_names().begin()->first, 0u);
  EXPECT_EQ(sink.thread_names().begin()->second, "core0");
}

// Thread-local install protocol ----------------------------------------------

TEST(ScopedSink, InstallsAndRestores) {
  ASSERT_EQ(current(), nullptr);
  Sink outer, inner;
  {
    ScopedSink a(&outer);
    EXPECT_EQ(current(), &outer);
    {
      ScopedSink b(&inner);
      EXPECT_EQ(current(), &inner);
    }
    EXPECT_EQ(current(), &outer);
  }
  EXPECT_EQ(current(), nullptr);
}

TEST(ScopedSink, MacrosRecordOnlyWhenInstalled) {
  FGPU_TRACE_INSTANT("orphan", "test", 0, 0);  // no sink: must be a no-op
  Sink sink;
  {
    ScopedSink scoped(&sink);
    if (kEnabled) {
      EXPECT_TRUE(FGPU_TRACE_ACTIVE());
    }
    FGPU_TRACE_INSTANT("hit", "test", 1, 5, {"n", 42});
    FGPU_TRACE_COUNTER("track", 0, 1024, {"v", 7});
  }
  EXPECT_FALSE(FGPU_TRACE_ACTIVE());
  if (kEnabled) {
    ASSERT_EQ(sink.size(), 2u);
    EXPECT_STREQ(sink.events()[0].name, "hit");
    EXPECT_EQ(sink.events()[1].phase, Phase::kCounter);
  } else {
    EXPECT_TRUE(sink.empty());
  }
}

// Chrome export --------------------------------------------------------------

TEST(ChromeTrace, EmitsMetadataAndEvents) {
  Sink sink;
  sink.set_thread_name(0, "core0");
  sink.complete(sink.intern("vecadd"), "kernel", 0, 0, 50, {{"instrs", 123}});
  sink.instant("warp_exit", "warp", 0, 9);

  std::ostringstream os;
  write_chrome_trace(os, sink, "bench \"q\"");
  const std::string out = os.str();

  // Structure: top-level object with a traceEvents array.
  EXPECT_EQ(out.find("{\"displayTimeUnit\""), 0u);
  EXPECT_NE(out.find("\"traceEvents\":"), std::string::npos);
  // Process/thread naming metadata with the process name escaped.
  EXPECT_NE(out.find("\"process_name\""), std::string::npos);
  EXPECT_NE(out.find("bench \\\"q\\\""), std::string::npos);
  EXPECT_NE(out.find("\"thread_name\""), std::string::npos);
  EXPECT_NE(out.find("\"core0\""), std::string::npos);
  // The complete event with phase/dur/args.
  EXPECT_NE(out.find("\"name\":\"vecadd\""), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(out.find("\"dur\":50"), std::string::npos);
  EXPECT_NE(out.find("\"instrs\":123"), std::string::npos);
  EXPECT_NE(out.find("\"ph\":\"i\""), std::string::npos);
  // Balanced braces/brackets (cheap well-formedness check).
  EXPECT_EQ(std::count(out.begin(), out.end(), '{'), std::count(out.begin(), out.end(), '}'));
  EXPECT_EQ(std::count(out.begin(), out.end(), '['), std::count(out.begin(), out.end(), ']'));
  EXPECT_EQ(out.back(), '\n');
}

TEST(ChromeTrace, MergesSinksAsSeparateProcesses) {
  Sink a, b;
  a.instant("ea", "t", 0, 1);
  b.instant("eb", "t", 0, 2);
  std::ostringstream os;
  write_chrome_trace(os, {Process{1, "first", &a}, Process{2, "second", &b}});
  const std::string out = os.str();
  EXPECT_NE(out.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(out.find("\"pid\":2"), std::string::npos);
  EXPECT_NE(out.find("\"first\""), std::string::npos);
  EXPECT_NE(out.find("\"second\""), std::string::npos);
}

}  // namespace
}  // namespace fgpu::trace
