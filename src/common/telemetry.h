/**
 * @file
 * Continuous telemetry exporter: a background thread that snapshots
 * the process's observable state on a fixed interval and appends it
 * to a JSONL time-series file (schema genreuse.tsdb/1, one compact
 * JSON document per line). Where the metrics registry answers "what
 * are the totals *now*" and BENCH records answer "what happened over
 * one whole run", the tsdb stream answers "what was the trajectory" —
 * queue depth climbing, overload level stepping, p99 drifting — and
 * genreuse_inspect --follow tails it into a live dashboard.
 *
 * Every line carries the full metrics-registry snapshot (non-zero
 * entries). Subsystems with richer state — the serve engine's health,
 * histogram percentiles, per-stream strikes — register a *source*: a
 * callback returning one compact JSON object, sampled under the
 * registry lock so registration/unregistration (engine construction/
 * destruction) can never race a sample in progress.
 *
 * Lifecycle follows the profiler/eventlog idiom:
 *
 *  - GENREUSE_OBS=telemetry=<path>[@interval] starts the exporter
 *    before main() (interval accepts parseDurationNs forms — "250ms",
 *    "1s"; default 500ms) and a process-exit hook stops it.
 *  - start() writes the first sample synchronously, the thread writes
 *    one per interval, and stop() writes one final shutdown-flush
 *    sample after joining — so even an immediately-stopped exporter
 *    leaves a well-formed two-line series, and the last line always
 *    reflects final state.
 *  - enabled() is one load of the obs gate word (pinned by
 *    BM_TelemetryGateDisabled) for callers that want to skip work
 *    when nothing is listening.
 */

#ifndef GENREUSE_COMMON_TELEMETRY_H
#define GENREUSE_COMMON_TELEMETRY_H

#include <cstdint>
#include <functional>
#include <string>

#include "obs.h"

namespace genreuse {
namespace telemetry {

/** True while the exporter is running. */
inline bool
enabled()
{
    return obs::on(obs::kTelemetry);
}

/** A registered snapshot callback: returns one *compact* JSON object
 *  (JsonWriter(true)) describing the subsystem's current state. Runs
 *  on the exporter thread (or a sampleNow() caller); must not block
 *  on anything that can wait for the exporter. */
using SourceFn = std::function<std::string()>;

/** Register @p fn under @p name in the per-line "sources" object.
 *  Returns a token for unregisterSource(). Duplicate names are
 *  allowed; the last registration wins in the output. */
uint64_t registerSource(const std::string &name, SourceFn fn);

/** Remove a source. Blocks until any in-flight sample that might be
 *  calling it has finished — after this returns, the callback will
 *  never run again (safe to destroy its captures). */
void unregisterSource(uint64_t token);

/**
 * Start the exporter: open (append) @p path, write one sample
 * immediately, then one per @p interval_ns (0 = 500ms) until stop().
 * Errors when already running or the file cannot be opened.
 */
Status start(const std::string &path, uint64_t interval_ns);

/** Stop the exporter: join the thread, write one final flush sample,
 *  close the file. Idempotent; also runs at process exit. */
void stop();

/** Append one sample line right now (running exporter required).
 *  Tests use this to make line content deterministic. */
void sampleNow();

/** Lines written since start() (0 when not running). */
uint64_t samples();

/** Current output path ("" when not running) / interval. */
std::string path();
uint64_t intervalNs();

} // namespace telemetry
} // namespace genreuse

#endif // GENREUSE_COMMON_TELEMETRY_H
