/**
 * @file
 * Tests for the hierarchical wall-clock profiler (src/common/profiler):
 * runtime gating, span path nesting, deterministic multi-thread
 * aggregation, the genreuse.prof/1 JSON export, and the Chrome
 * trace-event timeline export.
 */

#include <cstdio>
#include <gtest/gtest.h>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/metrics.h"
#include "common/obs.h"
#include "common/profiler.h"

namespace genreuse {
namespace {

/** RAII guard: every test leaves the profiler off and empty. */
struct ProfSandbox
{
    ProfSandbox()
    {
        profiler::setEnabled(false);
        profiler::setTimelineCapture(false);
        profiler::reset();
    }
    ~ProfSandbox()
    {
        profiler::setEnabled(false);
        profiler::setTimelineCapture(false);
        profiler::reset();
    }
};

const profiler::SpanEntry *
findSpan(const std::vector<profiler::SpanEntry> &spans,
         const std::string &path)
{
    for (const auto &e : spans)
        if (e.path == path)
            return &e;
    return nullptr;
}

TEST(Profiler, DisabledByDefaultRecordsNothing)
{
    ProfSandbox sandbox;
    EXPECT_FALSE(profiler::enabled());
    {
        profiler::ProfSpan span("off.span");
    }
    EXPECT_FALSE(profiler::hasSpans());
    EXPECT_TRUE(profiler::snapshot().empty());
}

TEST(Profiler, SpanPathsNest)
{
    ProfSandbox sandbox;
    profiler::setEnabled(true);
    {
        profiler::ProfSpan outer("outer");
        {
            profiler::ProfSpan inner("inner");
        }
        {
            profiler::ProfSpan inner("inner");
        }
    }
    {
        profiler::ProfSpan lone("inner");
    }
    auto spans = profiler::snapshot();
    const profiler::SpanEntry *outer = findSpan(spans, "outer");
    const profiler::SpanEntry *nested = findSpan(spans, "outer/inner");
    const profiler::SpanEntry *lone = findSpan(spans, "inner");
    ASSERT_NE(outer, nullptr);
    ASSERT_NE(nested, nullptr);
    ASSERT_NE(lone, nullptr);
    EXPECT_EQ(outer->stats.count, 1u);
    EXPECT_EQ(nested->stats.count, 2u); // same path, two entries
    EXPECT_EQ(lone->stats.count, 1u);   // distinct from the nested one
    // A parent's total covers its children.
    EXPECT_GE(outer->stats.sum, nested->stats.sum);
}

TEST(Profiler, StatsAreConsistent)
{
    ProfSandbox sandbox;
    profiler::setEnabled(true);
    for (int i = 0; i < 50; ++i) {
        profiler::ProfSpan span("stats.span");
    }
    auto spans = profiler::snapshot();
    const profiler::SpanEntry *e = findSpan(spans, "stats.span");
    ASSERT_NE(e, nullptr);
    EXPECT_EQ(e->stats.count, 50u);
    EXPECT_LE(e->stats.min, e->stats.max);
    EXPECT_GE(e->stats.sum, e->stats.max);
    const uint64_t p50 = e->stats.valueAtPercentile(50.0);
    const uint64_t p95 = e->stats.valueAtPercentile(95.0);
    EXPECT_GE(p50, e->stats.min);
    EXPECT_LE(p50, e->stats.max);
    EXPECT_LE(p50, p95);
    EXPECT_LE(p95, e->stats.max);
}

TEST(Profiler, SpanPercentilesWithinHistogramRelativeError)
{
    // Span stats are HDR snapshots in the profiler's geometry, merged
    // per path across threads. Feed a known duration distribution —
    // 1..400 µs in 1 µs steps, dealt round-robin onto four "thread"
    // tracks — and the merged p50/p95 must sit within the geometry's
    // stated relative error (2^-subBucketBits) of the exact order
    // statistics.
    profiler::SpanStats tracks[4];
    for (profiler::SpanStats &t : tracks) {
        t.subBits = profiler::kSpanSubBucketBits;
        t.maxBits = profiler::kSpanMaxValueBits;
    }
    constexpr uint64_t kN = 400;
    for (uint64_t i = 1; i <= kN; ++i)
        tracks[i % 4].record(i * 1000);
    profiler::SpanStats merged;
    for (const profiler::SpanStats &t : tracks)
        merged.merge(t);

    EXPECT_EQ(merged.count, kN);
    EXPECT_EQ(merged.sum, 1000 * kN * (kN + 1) / 2);
    EXPECT_EQ(merged.min, 1000u);
    EXPECT_EQ(merged.max, kN * 1000);
    const double rel = 1.0 / double(1u << profiler::kSpanSubBucketBits);
    // Exact ranks: ceil(0.50 * 400) = 200, ceil(0.95 * 400) = 380.
    const double p50 = double(merged.valueAtPercentile(50.0));
    const double p95 = double(merged.valueAtPercentile(95.0));
    EXPECT_NEAR(p50, 200'000.0, 200'000.0 * rel);
    EXPECT_NEAR(p95, 380'000.0, 380'000.0 * rel);
}

TEST(Profiler, MultiThreadAggregationIsDeterministic)
{
    ProfSandbox sandbox;
    profiler::setEnabled(true);
    constexpr int kThreads = 4;
    constexpr int kIters = 25;
    auto run = [] {
        std::vector<std::thread> workers;
        for (int t = 0; t < kThreads; ++t) {
            workers.emplace_back([] {
                for (int i = 0; i < kIters; ++i) {
                    profiler::ProfSpan outer("mt.outer");
                    profiler::ProfSpan inner("mt.inner");
                }
            });
        }
        for (auto &w : workers)
            w.join();
    };
    run();
    auto first = profiler::snapshot();
    profiler::reset();
    run();
    auto second = profiler::snapshot();

    // Same paths and counts both times, however threads interleaved.
    ASSERT_EQ(first.size(), second.size());
    for (size_t i = 0; i < first.size(); ++i) {
        EXPECT_EQ(first[i].path, second[i].path);
        EXPECT_EQ(first[i].stats.count, second[i].stats.count);
    }
    const profiler::SpanEntry *inner =
        findSpan(first, "mt.outer/mt.inner");
    ASSERT_NE(inner, nullptr);
    EXPECT_EQ(inner->stats.count,
              static_cast<uint64_t>(kThreads) * kIters);
}

TEST(Profiler, ThreadSnapshotSeparatesTracks)
{
    ProfSandbox sandbox;
    profiler::setEnabled(true);
    {
        profiler::ProfSpan here("track.main");
    }
    std::thread([] {
        profiler::ProfSpan there("track.worker");
    }).join();
    auto tracks = profiler::threadSnapshot();
    bool main_seen = false, worker_seen = false;
    for (const auto &[name, entries] : tracks) {
        EXPECT_EQ(name.rfind("thread-", 0), 0u);
        if (findSpan(entries, "track.main"))
            main_seen = true;
        if (findSpan(entries, "track.worker")) {
            worker_seen = true;
            // The worker track holds only the worker's span.
            EXPECT_EQ(findSpan(entries, "track.main"), nullptr);
        }
    }
    EXPECT_TRUE(main_seen);
    EXPECT_TRUE(worker_seen);
}

TEST(Profiler, JsonExportMatchesSchema)
{
    ProfSandbox sandbox;
    profiler::setEnabled(true);
    {
        profiler::ProfSpan a("json.a");
        profiler::ProfSpan b("json.b");
    }
    Expected<JsonValue> doc = parseJson(profiler::toJson());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue *schema = doc->find("schema");
    ASSERT_NE(schema, nullptr);
    EXPECT_EQ(schema->stringOr(""), "genreuse.prof/1");
    const JsonValue *spans = doc->find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_TRUE(spans->isArray());
    ASSERT_FALSE(spans->items.empty());
    for (const JsonValue &s : spans->items) {
        ASSERT_TRUE(s.isObject());
        EXPECT_NE(s.find("path"), nullptr);
        EXPECT_NE(s.find("count"), nullptr);
        EXPECT_NE(s.find("totalNs"), nullptr);
        EXPECT_NE(s.find("p50Ns"), nullptr);
        EXPECT_NE(s.find("p95Ns"), nullptr);
    }
    const JsonValue *threads = doc->find("threads");
    ASSERT_NE(threads, nullptr);
    EXPECT_TRUE(threads->isArray());
}

TEST(Profiler, ChromeTraceParsesWithMonotonicTimestamps)
{
    ProfSandbox sandbox;
    profiler::setEnabled(true);
    profiler::setTimelineCapture(true);
    for (int i = 0; i < 3; ++i) {
        profiler::ProfSpan outer("ct.outer");
        profiler::ProfSpan inner("ct.inner");
    }
    profiler::recordCounterSample("ct.counter", 42.0);
    Expected<JsonValue> doc = parseJson(profiler::chromeTraceJson());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());

    size_t be_events = 0, counter_events = 0;
    double last_ts = -1.0;
    int depth = 0;
    for (const JsonValue &ev : events->items) {
        ASSERT_TRUE(ev.isObject());
        const JsonValue *ph = ev.find("ph");
        ASSERT_NE(ph, nullptr);
        const std::string kind = ph->stringOr("");
        if (kind == "M")
            continue;
        const JsonValue *ts = ev.find("ts");
        ASSERT_NE(ts, nullptr);
        if (kind == "B" || kind == "E") {
            be_events++;
            depth += kind == "B" ? 1 : -1;
            EXPECT_GE(depth, 0);
            // Single-thread capture: event order is time order.
            EXPECT_GE(ts->numberOr(-1.0), last_ts);
            last_ts = ts->numberOr(-1.0);
        } else if (kind == "C") {
            counter_events++;
            EXPECT_NE(ev.find("args"), nullptr);
        }
    }
    EXPECT_EQ(depth, 0);          // every B has its E
    EXPECT_EQ(be_events, 12u);    // 3 iterations x 2 spans x B+E
    EXPECT_EQ(counter_events, 1u);
    EXPECT_EQ(profiler::droppedEvents(), 0u);
}

TEST(Profiler, WriteChromeTraceProducesLoadableFile)
{
    ProfSandbox sandbox;
    profiler::setEnabled(true);
    profiler::setTimelineCapture(true);
    {
        profiler::ProfSpan span("file.span");
    }
    const std::string path = "test_profiler_trace.json";
    ASSERT_TRUE(obs::writeFile(path, profiler::chromeTraceJson()));
    Expected<JsonValue> doc = parseJsonFile(path);
    std::remove(path.c_str());
    ASSERT_TRUE(doc.ok()) << doc.status().toString();
    const JsonValue *events = doc->find("traceEvents");
    ASSERT_NE(events, nullptr);
    EXPECT_TRUE(events->isArray());
    EXPECT_FALSE(events->items.empty());
}

TEST(Profiler, ResetClearsStatsAndTimeline)
{
    ProfSandbox sandbox;
    profiler::setEnabled(true);
    profiler::setTimelineCapture(true);
    {
        profiler::ProfSpan span("reset.span");
    }
    EXPECT_TRUE(profiler::hasSpans());
    profiler::reset();
    EXPECT_FALSE(profiler::hasSpans());
    // No stray B/E events survive the reset (metadata-only trace).
    Expected<JsonValue> doc = parseJson(profiler::chromeTraceJson());
    ASSERT_TRUE(doc.ok());
    for (const JsonValue &ev : doc->find("traceEvents")->items)
        EXPECT_EQ(ev.find("ph")->stringOr(""), "M");
}

TEST(Profiler, SpanOpenAcrossEnableIsDroppedCleanly)
{
    ProfSandbox sandbox;
    // A span constructed while disabled must not record on destruction
    // even if the profiler is enabled mid-span.
    {
        profiler::ProfSpan span("limbo.span");
        profiler::setEnabled(true);
    }
    EXPECT_FALSE(profiler::hasSpans());
}

TEST(Profiler, ExportsEscapeHostileSpanNames)
{
    ProfSandbox sandbox;
    profiler::setEnabled(true);
    profiler::setTimelineCapture(true);
    // Quotes, backslashes and control characters in a span name must
    // come out of both exports as valid JSON, not raw bytes.
    const char *hostile = "evil\"name\\with\tcontrol";
    {
        profiler::ProfSpan span(hostile);
    }
    Expected<JsonValue> prof = parseJson(profiler::toJson());
    ASSERT_TRUE(prof.ok()) << prof.status().toString();
    const JsonValue *spans = prof->find("spans");
    ASSERT_NE(spans, nullptr);
    ASSERT_FALSE(spans->items.empty());
    EXPECT_EQ(spans->items[0].find("path")->stringOr(""), hostile);

    Expected<JsonValue> chrome = parseJson(profiler::chromeTraceJson());
    ASSERT_TRUE(chrome.ok()) << chrome.status().toString();
    bool found = false;
    for (const JsonValue &ev : chrome->find("traceEvents")->items)
        if (ev.find("name")->stringOr("") == hostile)
            found = true;
    EXPECT_TRUE(found);
}

TEST(Profiler, DroppedEventCountSurfacesAsGauge)
{
    ProfSandbox sandbox;
    metrics::reset();
    EXPECT_EQ(profiler::droppedEvents(), 0u);
    // Overflow the counter-sample buffer so drops occur, then check
    // the accessor mirrors the count into the prof.dropped_events
    // gauge at read time.
    profiler::setEnabled(true);
    profiler::setTimelineCapture(true);
    for (size_t i = 0; i < (1u << 16) + 50; ++i)
        profiler::recordCounterSample("test.flood", 1.0);
    const uint64_t dropped = profiler::droppedEvents();
    EXPECT_GE(dropped, 50u);
    double gauge = -1.0;
    for (const metrics::Sample &s : metrics::snapshot())
        if (s.name == "prof.dropped_events")
            gauge = s.value;
    EXPECT_EQ(gauge, static_cast<double>(dropped));
    metrics::reset();
}

} // namespace
} // namespace genreuse
