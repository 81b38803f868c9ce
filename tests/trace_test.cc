#include <gtest/gtest.h>

#include <algorithm>
#include <future>
#include <string>
#include <vector>

#include "common/task_scheduler.h"
#include "common/thread_pool.h"
#include "common/trace.h"

namespace datalawyer {
namespace {

// The tracer is process-global; every test starts from a clean, enabled
// timeline and leaves tracing off for whoever runs next in this binary.
class TraceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    Tracer::Global().Clear();
    Tracer::Global().set_enabled(true);
  }
  void TearDown() override {
    Tracer::Global().set_enabled(false);
    Tracer::Global().Clear();
  }
};

TEST_F(TraceTest, DisabledSpansRecordNothing) {
  Tracer::Global().set_enabled(false);
  { DL_TRACE_SPAN("should.not.appear", "test"); }
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

TEST_F(TraceTest, SpanLatchesEnabledStateAtConstruction) {
  Tracer::Global().set_enabled(false);
  {
    DL_TRACE_SPAN("opened.while.off", "test");
    Tracer::Global().set_enabled(true);  // mid-span enable must not record
  }
  EXPECT_EQ(Tracer::Global().size(), 0u);
}

TEST_F(TraceTest, NestedSpansGetIncreasingDepths) {
  {
    DL_TRACE_SPAN("outer", "test");
    {
      DL_TRACE_SPAN("middle", "test");
      { DL_TRACE_SPAN("inner", "test"); }
    }
  }
  std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 3u);
  // Spans complete innermost-first.
  EXPECT_EQ(events[0].name, "inner");
  EXPECT_EQ(events[0].depth, 2);
  EXPECT_EQ(events[1].name, "middle");
  EXPECT_EQ(events[1].depth, 1);
  EXPECT_EQ(events[2].name, "outer");
  EXPECT_EQ(events[2].depth, 0);
  // Time containment: each child starts no earlier and ends no later than
  // its parent — this is what makes Chrome's viewer nest them.
  EXPECT_GE(events[0].ts_us, events[1].ts_us);
  EXPECT_LE(events[0].ts_us + events[0].dur_us,
            events[1].ts_us + events[1].dur_us + 1e-6);
  EXPECT_GE(events[1].ts_us, events[2].ts_us);
  EXPECT_LE(events[1].ts_us + events[1].dur_us,
            events[2].ts_us + events[2].dur_us + 1e-6);
  // All on the same thread lane.
  EXPECT_EQ(events[0].tid, events[1].tid);
  EXPECT_EQ(events[1].tid, events[2].tid);
}

TEST_F(TraceTest, SequentialSpansShareDepthZero) {
  { DL_TRACE_SPAN("first", "test"); }
  { DL_TRACE_SPAN("second", "test"); }
  std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].depth, 0);
  EXPECT_EQ(events[1].depth, 0);
  EXPECT_GE(events[1].ts_us, events[0].ts_us);
}

TEST_F(TraceTest, ThreadPoolWorkersGetOwnLanesAndDepths) {
  constexpr size_t kTasks = 64;
  ThreadPool pool(4);
  pool.ParallelFor(kTasks, [](size_t i) {
    ScopedSpan outer("task:" + std::to_string(i), "test");
    DL_TRACE_SPAN("task.inner", "test");
  });
  // The pool's own scheduling events (steal ticks, idle spans) may land on
  // the timeline too; count only the tasks' spans.
  std::vector<TraceEvent> events;
  for (TraceEvent& e : Tracer::Global().Snapshot()) {
    if (std::string(e.category) == "test") events.push_back(std::move(e));
  }
  ASSERT_EQ(events.size(), 2 * kTasks);
  size_t inner = 0, outer = 0;
  for (const TraceEvent& e : events) {
    if (e.name == "task.inner") {
      EXPECT_EQ(e.depth, 1);
      ++inner;
    } else {
      EXPECT_EQ(e.depth, 0);
      ++outer;
    }
  }
  EXPECT_EQ(inner, kTasks);
  EXPECT_EQ(outer, kTasks);
}

TEST_F(TraceTest, ClearResetsTimelineOrigin) {
  { DL_TRACE_SPAN("before.clear", "test"); }
  Tracer::Global().Clear();
  EXPECT_EQ(Tracer::Global().size(), 0u);
  { DL_TRACE_SPAN("after.clear", "test"); }
  std::vector<TraceEvent> events = Tracer::Global().Snapshot();
  ASSERT_EQ(events.size(), 1u);
  // A fresh origin means the new span starts near zero (well under a
  // second, even on a loaded machine).
  EXPECT_LT(events[0].ts_us, 1e6);
}

TEST_F(TraceTest, ChromeJsonShapeAndEscaping) {
  {
    ScopedSpan span("weird \"name\"\twith\\escapes", "test");
  }
  std::string json = Tracer::Global().ToChromeJson();
  // Structural markers of the trace_event format.
  EXPECT_NE(json.find("\"traceEvents\":["), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
  EXPECT_NE(json.find("\"pid\":1"), std::string::npos);
  EXPECT_NE(json.find("\"cat\":\"test\""), std::string::npos);
  // The name must come out escaped, never as a raw quote/tab/backslash.
  EXPECT_NE(json.find("weird \\\"name\\\"\\twith\\\\escapes"),
            std::string::npos);
  // Balanced braces/brackets — cheap structural validity check.
  int braces = 0, brackets = 0;
  bool in_string = false;
  for (size_t i = 0; i < json.size(); ++i) {
    char c = json[i];
    if (in_string) {
      if (c == '\\') {
        ++i;  // skip the escaped character
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    if (c == '"') in_string = true;
    if (c == '{') ++braces;
    if (c == '}') --braces;
    if (c == '[') ++brackets;
    if (c == ']') --brackets;
  }
  EXPECT_EQ(braces, 0);
  EXPECT_EQ(brackets, 0);
  EXPECT_FALSE(in_string);
}

TEST_F(TraceTest, InstantEventsRenderAsTicks) {
  Tracer::Global().RecordInstant("steal:w0", "sched",
                                 Tracer::Global().NowUs());
  { DL_TRACE_SPAN("work", "test"); }
  std::string json = Tracer::Global().ToChromeJson();
  // The instant comes out as ph:"i" with thread scope; the span as ph:"X".
  EXPECT_NE(json.find("\"name\":\"steal:w0\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"i\""), std::string::npos);
  EXPECT_NE(json.find("\"s\":\"t\""), std::string::npos);
  EXPECT_NE(json.find("\"ph\":\"X\""), std::string::npos);
}

TEST_F(TraceTest, ThreadNameMetadataComesFirst) {
  Tracer::Global().SetCurrentThreadName("main-lane");
  { DL_TRACE_SPAN("named.lane", "test"); }
  // Lane names are process-lifetime (keyed by tid, which outlives Clear),
  // so look this thread's entry up rather than assuming an empty map.
  int self = Tracer::CurrentThreadId();
  auto names = Tracer::Global().thread_names();
  ASSERT_TRUE(names.count(self));
  EXPECT_EQ(names[self], "main-lane");

  std::string json = Tracer::Global().ToChromeJson();
  size_t meta = json.find("\"ph\":\"M\"");
  size_t span = json.find("\"ph\":\"X\"");
  ASSERT_NE(meta, std::string::npos);
  ASSERT_NE(span, std::string::npos);
  // Metadata records lead the event array so viewers label lanes before
  // any event lands in them.
  EXPECT_LT(meta, span);
  EXPECT_NE(json.find("\"name\":\"thread_name\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"main-lane\""), std::string::npos);
  // The metadata's tid matches the lane the span rendered into.
  std::string tid = "\"tid\":" + std::to_string(self);
  EXPECT_NE(json.find(tid), std::string::npos);
}

TEST_F(TraceTest, SchedulerWorkersNameTheirLanes) {
  auto before = Tracer::Global().thread_names();
  {
    TaskScheduler scheduler(2);
    std::vector<std::future<void>> futures;
    for (int i = 0; i < 4; ++i) {
      futures.push_back(scheduler.Submit([] {}));
    }
    for (auto& f : futures) f.get();
  }  // join the workers so every registration has landed
  // Exactly the two fresh worker threads registered lanes (earlier tests'
  // pool workers keep theirs — names are process-lifetime).
  auto names = Tracer::Global().thread_names();
  std::vector<std::string> fresh;
  for (const auto& [tid, name] : names) {
    if (!before.count(tid)) fresh.push_back(name);
  }
  std::sort(fresh.begin(), fresh.end());
  ASSERT_EQ(fresh.size(), 2u);
  EXPECT_EQ(fresh[0], "worker-0");
  EXPECT_EQ(fresh[1], "worker-1");
  std::string json = Tracer::Global().ToChromeJson();
  EXPECT_NE(json.find("\"name\":\"worker-0\""), std::string::npos);
  EXPECT_NE(json.find("\"name\":\"worker-1\""), std::string::npos);
}

TEST_F(TraceTest, WriteChromeJsonRejectsBadPath) {
  { DL_TRACE_SPAN("span", "test"); }
  Status st =
      Tracer::Global().WriteChromeJson("/nonexistent-dir/trace.json");
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace datalawyer
