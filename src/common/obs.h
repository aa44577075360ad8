/**
 * @file
 * The instrumentation core shared by every observer: one gate word,
 * one arming spec, one artifact writer.
 *
 * Gate word. Each subsystem owns one bit of a single process-wide
 * atomic word: trace, prof (+ its timeline capture), events, rtrace,
 * telemetry, audit, canary and fault. Every hot-path gate
 * (trace::enabled(), eventlog::record(), faultpoint::anyArmed(), ...)
 * is one relaxed load of that word plus a mask — the disarmed cost the
 * BM_*Gate* micro-benchmarks pin. A subsystem's setEnabled()/arm()
 * sets or clears its bit; values that go with a bit (the canary's
 * rate, the fault schedule, export paths) stay in their own modules.
 *
 * Arming spec. arm() is the one way to arm observers from outside the
 * program. The grammar is a comma-separated list of sections, each at
 * most once:
 *
 *   prof=<path>                 wall-clock profiler + Chrome-trace
 *                               timeline, written to <path> at exit
 *   events=<path>               flight recorder; postmortem dumps
 *                               (panic, fault fire, exact-rung
 *                               downgrade) go to <path>
 *   rtrace=<path>[@rate]        request tracing; genreuse.rtrace/1
 *                               written at exit, every rate-th request
 *                               expanded into Chrome trace events
 *   telemetry=<path>[@interval] JSONL time series (interval in
 *                               parseDurationNs form, default 500ms)
 *   audit                       reuse-efficacy audit
 *   canary=<rate>               accuracy canary, rate in [0, 1]
 *
 * e.g. GENREUSE_OBS=events=flight.json,audit,canary=0.05
 *
 * The GENREUSE_OBS environment variable is parsed once before main()
 * and a malformed spec is fatal; examples take the same spec through
 * --obs. GENREUSE_FAULT (deterministic fault injection, see
 * faultpoint.h) is read by the same hook but keeps its own schedule
 * grammar: it injects faults rather than observing.
 */

#ifndef GENREUSE_COMMON_OBS_H
#define GENREUSE_COMMON_OBS_H

#include <atomic>
#include <cstdint>
#include <string>

#include "status.h"

namespace genreuse {
namespace obs {

/** One bit per subsystem in the gate word. */
enum Bit : uint32_t
{
    kTrace = 1u << 0,
    kProf = 1u << 1,
    kTimeline = 1u << 2, //!< profiler Chrome-trace event capture
    kEvents = 1u << 3,
    kRtrace = 1u << 4,
    kTelemetry = 1u << 5,
    kAudit = 1u << 6,
    kCanary = 1u << 7,
    kFault = 1u << 8,
};

namespace detail {
// Own cache line: written only when something is armed or disarmed,
// read by every gate.
alignas(64) extern std::atomic<uint32_t> g_gate;
} // namespace detail

/** The gate: true when @p bit is set. One relaxed load plus a mask. */
inline bool
on(Bit bit)
{
    return (detail::g_gate.load(std::memory_order_relaxed) & bit) != 0;
}

/** Set or clear @p bit. */
void set(Bit bit, bool on);

/**
 * Arm the subsystems named by @p spec (grammar above). The whole spec
 * is validated before anything is armed: InvalidArgument naming the
 * offending section on an unknown or duplicate section, a value where
 * none is taken (or none where one is required), an empty path, a bad
 * rate or interval. An empty spec arms nothing. A telemetry file that
 * cannot be opened is reported after the other sections are armed.
 */
Status arm(const std::string &spec);

/** The canary lives in src/core, so it installs its setRate() from a
 *  static initializer; a canary section armed before that (GENREUSE_OBS
 *  is read before main()) is applied when it arrives. Returns true. */
bool installCanary(void (*set_rate)(double rate));

/** Write @p doc plus a newline to @p path (overwrites); warns and
 *  returns false when the file cannot be written. Every artifact
 *  writer goes through here. */
bool writeFile(const std::string &path, const std::string &doc);

} // namespace obs
} // namespace genreuse

#endif // GENREUSE_COMMON_OBS_H
