#include "profiler.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <mutex>

#include "json.h"
#include "metrics.h"

namespace genreuse {
namespace profiler {

namespace detail {

namespace {

// Timeline capture caps: a runaway capture degrades to dropped-event
// accounting instead of unbounded memory growth.
constexpr size_t kMaxEventsPerThread = 1u << 16;
constexpr size_t kMaxCounterSamples = 1u << 16;

std::atomic<uint64_t> g_dropped{0};

/** ns since the process-wide steady-clock epoch. */
uint64_t
nowNs()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

} // namespace

/** One B or E timeline event on a thread track. */
struct TimelineEvent
{
    bool begin = false;
    std::string name; //!< leaf span name
    uint64_t tsNs = 0;
};

/**
 * All profiling state owned by one thread. Heap-allocated, registered
 * once, and intentionally never freed: exports outlive worker threads
 * and handles stay valid through static destruction. The per-state
 * mutex is only ever contended by snapshot/reset readers; span
 * begin/end takes it uncontended.
 */
struct ThreadState
{
    std::mutex mu;
    int tid = 0; //!< registration order; the Chrome-trace track id

    struct Frame
    {
        size_t prevPathLen = 0;
        uint64_t startNs = 0;
    };

    std::string path; //!< current span path, '/'-joined
    std::vector<Frame> stack;
    // Insertion-ordered (path, stats) pairs; path counts stay small
    // (tens), so a linear probe beats hashing here.
    std::vector<std::pair<std::string, SpanStats>> stats;
    std::vector<TimelineEvent> events;

    SpanStats &
    statsFor(const std::string &p)
    {
        for (auto &entry : stats)
            if (entry.first == p)
                return entry.second;
        SpanStats fresh;
        fresh.subBits = kSpanSubBucketBits;
        fresh.maxBits = kSpanMaxValueBits;
        stats.emplace_back(p, std::move(fresh));
        return stats.back().second;
    }
};

namespace {

std::mutex g_reg_mutex;

std::vector<ThreadState *> &
threadRegistry()
{
    static std::vector<ThreadState *> *v = new std::vector<ThreadState *>;
    return *v;
}

thread_local ThreadState *t_state = nullptr;

struct CounterSample
{
    std::string name;
    double value = 0.0;
    uint64_t tsNs = 0;
};

std::mutex g_counter_mutex;

std::vector<CounterSample> &
counterSamples()
{
    static std::vector<CounterSample> *v = new std::vector<CounterSample>;
    return *v;
}

} // namespace

ThreadState &
threadState()
{
    if (t_state == nullptr) {
        ThreadState *s = new ThreadState;
        std::lock_guard<std::mutex> lock(g_reg_mutex);
        s->tid = static_cast<int>(threadRegistry().size());
        threadRegistry().push_back(s);
        t_state = s;
    }
    return *t_state;
}

void
beginSpan(const char *name)
{
    ThreadState &st = threadState();
    const uint64_t ts = nowNs();
    std::lock_guard<std::mutex> lock(st.mu);
    st.stack.push_back({st.path.size(), ts});
    if (!st.path.empty())
        st.path += '/';
    st.path += name;
    if (timelineActive()) {
        if (st.events.size() < kMaxEventsPerThread)
            st.events.push_back({true, name, ts});
        else
            g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
}

void
endSpan()
{
    ThreadState &st = threadState();
    const uint64_t ts = nowNs();
    std::lock_guard<std::mutex> lock(st.mu);
    if (st.stack.empty())
        return; // unbalanced after a mid-span reset; drop silently
    const ThreadState::Frame frame = st.stack.back();
    st.stack.pop_back();
    const uint64_t dur = ts >= frame.startNs ? ts - frame.startNs : 0;
    st.statsFor(st.path).record(dur);
    if (timelineActive()) {
        const size_t leaf_at =
            frame.prevPathLen == 0 ? 0 : frame.prevPathLen + 1;
        if (st.events.size() < kMaxEventsPerThread)
            st.events.push_back({false, st.path.substr(leaf_at), ts});
        else
            g_dropped.fetch_add(1, std::memory_order_relaxed);
    }
    st.path.resize(frame.prevPathLen);
}

} // namespace detail

std::vector<SpanEntry>
snapshot()
{
    std::map<std::string, SpanStats> merged;
    {
        std::lock_guard<std::mutex> reg_lock(detail::g_reg_mutex);
        for (detail::ThreadState *st : detail::threadRegistry()) {
            std::lock_guard<std::mutex> lock(st->mu);
            for (const auto &[path, stats] : st->stats) {
                auto it = merged.find(path);
                if (it == merged.end())
                    merged.emplace(path, stats);
                else
                    it->second.merge(stats);
            }
        }
    }
    std::vector<SpanEntry> out;
    out.reserve(merged.size());
    for (auto &[path, stats] : merged)
        out.push_back({path, stats});
    return out;
}

std::vector<std::pair<std::string, std::vector<SpanEntry>>>
threadSnapshot()
{
    std::vector<std::pair<std::string, std::vector<SpanEntry>>> out;
    std::lock_guard<std::mutex> reg_lock(detail::g_reg_mutex);
    for (detail::ThreadState *st : detail::threadRegistry()) {
        std::lock_guard<std::mutex> lock(st->mu);
        if (st->stats.empty())
            continue;
        std::vector<SpanEntry> entries;
        entries.reserve(st->stats.size());
        for (const auto &[path, stats] : st->stats)
            entries.push_back({path, stats});
        std::sort(entries.begin(), entries.end(),
                  [](const SpanEntry &a, const SpanEntry &b) {
                      return a.path < b.path;
                  });
        out.emplace_back("thread-" + std::to_string(st->tid),
                         std::move(entries));
    }
    return out;
}

bool
hasSpans()
{
    std::lock_guard<std::mutex> reg_lock(detail::g_reg_mutex);
    for (detail::ThreadState *st : detail::threadRegistry()) {
        std::lock_guard<std::mutex> lock(st->mu);
        if (!st->stats.empty())
            return true;
    }
    return false;
}

void
reset()
{
    {
        std::lock_guard<std::mutex> reg_lock(detail::g_reg_mutex);
        for (detail::ThreadState *st : detail::threadRegistry()) {
            std::lock_guard<std::mutex> lock(st->mu);
            st->stats.clear();
            st->events.clear();
        }
    }
    std::lock_guard<std::mutex> lock(detail::g_counter_mutex);
    detail::counterSamples().clear();
    detail::g_dropped.store(0, std::memory_order_relaxed);
}

uint64_t
droppedEvents()
{
    const uint64_t n = detail::g_dropped.load(std::memory_order_relaxed);
    // Mirror into the metrics registry here, at read/export time, not
    // in the drop paths: the counter-sample drop site runs under
    // g_counter_mutex, and a gauge update from there would re-enter
    // recordCounterSample and self-deadlock.
    metrics::gauge("prof.dropped_events").set(static_cast<double>(n));
    return n;
}

void
recordCounterSample(const std::string &name, double value)
{
    const uint64_t ts = detail::nowNs();
    std::lock_guard<std::mutex> lock(detail::g_counter_mutex);
    if (detail::counterSamples().size() < detail::kMaxCounterSamples)
        detail::counterSamples().push_back({name, value, ts});
    else
        detail::g_dropped.fetch_add(1, std::memory_order_relaxed);
}

std::string
toJson()
{
    auto spans = snapshot();
    auto tracks = threadSnapshot();
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.prof/1");
    w.key("spans").beginArray();
    for (const SpanEntry &e : spans) {
        w.beginObject();
        w.key("path").value(e.path);
        w.key("count").value(e.stats.count);
        w.key("totalNs").value(e.stats.sum);
        w.key("minNs").value(e.stats.min);
        w.key("maxNs").value(e.stats.max);
        w.key("p50Ns").value(e.stats.valueAtPercentile(50.0));
        w.key("p95Ns").value(e.stats.valueAtPercentile(95.0));
        w.endObject();
    }
    w.endArray();
    w.key("threads").beginArray();
    for (const auto &[track, entries] : tracks) {
        w.beginObject();
        w.key("name").value(track);
        w.key("spans").beginArray();
        for (const SpanEntry &e : entries) {
            w.beginObject();
            w.key("path").value(e.path);
            w.key("count").value(e.stats.count);
            w.key("totalNs").value(e.stats.sum);
            w.endObject();
        }
        w.endArray();
        w.endObject();
    }
    w.endArray();
    w.key("droppedEvents").value(droppedEvents());
    w.endObject();
    return w.str();
}

std::string
chromeTraceJson()
{
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();
    w.beginObject();
    w.key("name").value("process_name");
    w.key("ph").value("M");
    w.key("pid").value(1);
    w.key("tid").value(0);
    w.key("args").beginObject();
    w.key("name").value("genreuse");
    w.endObject();
    w.endObject();
    std::lock_guard<std::mutex> reg_lock(detail::g_reg_mutex);
    for (detail::ThreadState *st : detail::threadRegistry()) {
        std::lock_guard<std::mutex> lock(st->mu);
        if (st->events.empty())
            continue;
        w.beginObject();
        w.key("name").value("thread_name");
        w.key("ph").value("M");
        w.key("pid").value(1);
        w.key("tid").value(st->tid);
        w.key("args").beginObject();
        w.key("name").value("genreuse-thread-" + std::to_string(st->tid));
        w.endObject();
        w.endObject();
        for (const detail::TimelineEvent &ev : st->events) {
            w.beginObject();
            w.key("name").value(ev.name);
            w.key("ph").value(ev.begin ? "B" : "E");
            w.key("ts").value(static_cast<double>(ev.tsNs) / 1000.0);
            w.key("pid").value(1);
            w.key("tid").value(st->tid);
            w.endObject();
        }
    }
    {
        std::lock_guard<std::mutex> lock(detail::g_counter_mutex);
        for (const detail::CounterSample &s : detail::counterSamples()) {
            w.beginObject();
            w.key("name").value(s.name);
            w.key("ph").value("C");
            w.key("ts").value(static_cast<double>(s.tsNs) / 1000.0);
            w.key("pid").value(1);
            w.key("tid").value(0);
            w.key("args").beginObject();
            w.key("value").value(s.value);
            w.endObject();
            w.endObject();
        }
    }
    w.endArray();
    w.key("displayTimeUnit").value("ms");
    w.endObject();
    return w.str();
}

} // namespace profiler
} // namespace genreuse
