/**
 * @file
 * Hierarchical wall-clock profiler. Where the op ledger (trace.h)
 * counts abstract operations for the MCU cycle model, the profiler
 * measures where *host* wall-clock time actually goes, so model-vs-
 * measured drift can be attributed to a pipeline stage (the MAESTRO
 * argument: stage-level attribution is what makes a cost model
 * actionable).
 *
 * Design mirrors the trace/faultpoint subsystems:
 *
 *  - Off by default. The hot-path gate is one load of the obs gate
 *    word (obs.h) per ProfSpan construction.
 *  - RAII ProfSpans push onto a thread-local span stack. A span's
 *    identity is its *path* — parent names joined with '/', e.g.
 *    "conv.forward/reuse.transform/lsh.cluster" — so the same kernel
 *    is attributed separately per call context.
 *  - Durations (steady clock, ns) accumulate into per-(thread, path)
 *    HDR histogram snapshots (hdrhist.h) from which count / total /
 *    min / max and p50/p95 are read. snapshot() merges the per-thread
 *    tracks deterministically (sorted by path).
 *
 * Two exporters:
 *
 *  - toJson(): schema "genreuse.prof/1" aggregate stats, merged into
 *    BENCH_*.json by bench_common so table3 can reconcile per-stage
 *    wall time against model cycles.
 *  - Chrome trace-event JSON: with timeline capture on (setTimeline-
 *    Capture, or GENREUSE_OBS=prof=<path> which also enables the
 *    profiler and writes the file at process exit), every span
 *    additionally logs B/E events per thread and metrics updates log
 *    counter samples, producing a chrome://tracing / Perfetto-loadable
 *    timeline with one track per thread plus counter tracks.
 */

#ifndef GENREUSE_COMMON_PROFILER_H
#define GENREUSE_COMMON_PROFILER_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "hdrhist.h"
#include "obs.h"

namespace genreuse {
namespace profiler {

namespace detail {
struct ThreadState;
ThreadState &threadState();
void beginSpan(const char *name);
void endSpan();
} // namespace detail

/** True when profiling is on. The hot-path gate. */
inline bool
enabled()
{
    return obs::on(obs::kProf);
}

/** Turn runtime profiling on/off. */
inline void
setEnabled(bool on)
{
    obs::set(obs::kProf, on);
}

/** True when Chrome-trace timeline capture is recording events. */
inline bool
timelineActive()
{
    return obs::on(obs::kTimeline);
}

/** Record B/E span events and metric counter samples for the Chrome
 *  trace export (in addition to the aggregate stats). Implies nothing
 *  about enabled(); GENREUSE_OBS=prof=<path> turns both on. */
inline void
setTimelineCapture(bool on)
{
    obs::set(obs::kTimeline, on);
}

/**
 * RAII wall-clock span. @p name must outlive the span (string
 * literals; layer-name spans copy internally via the string overload
 * of beginSpan is intentionally not offered — keep names static so
 * the off-path stays allocation-free). Construction when profiling is
 * off is one relaxed load.
 */
class ProfSpan
{
  public:
    explicit ProfSpan(const char *name)
    {
        if (enabled()) {
            active_ = true;
            detail::beginSpan(name);
        }
    }

    ~ProfSpan()
    {
        if (active_)
            detail::endSpan();
    }

    ProfSpan(const ProfSpan &) = delete;
    ProfSpan &operator=(const ProfSpan &) = delete;

  private:
    bool active_ = false;
};

/** Span histogram geometry: 8 sub-buckets per octave (percentiles
 *  within 2^-3 = 12.5% of the exact order statistic) up to 2^40 ns
 *  (~18 minutes; longer spans clamp into the top bucket). */
constexpr uint32_t kSpanSubBucketBits = 3;
constexpr uint32_t kSpanMaxValueBits = 40;

/** Aggregated statistics for one span path (possibly merged across
 *  threads): count, sum (total ns), min, max and percentiles. */
using SpanStats = HdrHistogram::Snapshot;

/** One snapshot entry: a span path and its merged stats. */
struct SpanEntry
{
    std::string path;
    SpanStats stats;
};

/** Merged per-path stats across all threads, sorted by path so the
 *  aggregate is deterministic regardless of thread scheduling. */
std::vector<SpanEntry> snapshot();

/** Per-thread view: one (track name, entries) pair per thread that
 *  ever recorded, in thread-registration order. */
std::vector<std::pair<std::string, std::vector<SpanEntry>>>
threadSnapshot();

/** True when any span has been recorded since the last reset(). */
bool hasSpans();

/** Drop all recorded stats and timeline events. Threads keep their
 *  registration (track names are stable within a process). */
void reset();

/** Timeline events dropped because the capture buffer was full. */
uint64_t droppedEvents();

/** Schema-versioned JSON export of the aggregate snapshot
 *  (schema "genreuse.prof/1": per-path count/total/min/max/p50/p95
 *  plus per-thread counts). */
std::string toJson();

/** Chrome trace-event JSON document ({"traceEvents": [...]}) of the
 *  captured timeline: B/E duration events per thread track, counter
 *  tracks from metrics samples, thread-name metadata. */
std::string chromeTraceJson();

/** Hook for metrics: append a counter sample to the timeline. */
void recordCounterSample(const std::string &name, double value);

} // namespace profiler
} // namespace genreuse

#endif // GENREUSE_COMMON_PROFILER_H
