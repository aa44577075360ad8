/**
 * @file
 * Per-inference flight recorder: a fixed-capacity, lock-free ring
 * journal of typed *semantic* events. Where the profiler answers
 * "where did wall-clock time go" and the metrics registry answers
 * "how often has X happened so far", the event log answers "what was
 * the trajectory of this inference stream" — forward begin/end,
 * per-layer reuse statistics (cluster count, redundancy ratio,
 * reconstruction error vs. the Frobenius budget), guard rung
 * transitions, drift-detector observations, fault-point fires, SRAM
 * high-water updates and warn-once firings, each stamped with a
 * sequence number and a steady-clock timestamp.
 *
 * Design mirrors the trace/profiler/faultpoint subsystems:
 *
 *  - Off by default. The hot-path gate is one load of the obs gate
 *    word (obs.h) per record() / LayerScope construction.
 *  - Writers are lock-free: one fetch_add claims a sequence number,
 *    the slot's payload fields are relaxed atomic stores, and a final
 *    release store of the sequence commits the slot (seqlock-style, so
 *    snapshot() discards slots caught mid-overwrite). One event is a
 *    single cache-line-sized slot (~64 B).
 *  - The ring holds the last kCapacity events; older events are
 *    overwritten, and overwritten() reports how many were lost. That
 *    is the flight-recorder contract: the *recent* history survives.
 *
 * Postmortem ("black box") dumps: when GENREUSE_OBS=events=<path> is
 * set (which also enables the journal), the last events are dumped to
 * that path as a schema-versioned JSON artifact (genreuse.events/1) on
 * panic()/fatal(), on a fault-point fire, and on a guard downgrade to
 * the exact-GEMM rung — so a crashed or degraded inference run leaves
 * a readable record of what led up to it. examples/genreuse_inspect
 * renders the artifact as a timeline.
 *
 * Payload conventions per type (generic fields d0/d1/d2, u32, a8):
 *
 *   ForwardBegin   u32 = batch rows
 *   ForwardEnd     u32 = batch rows
 *   LayerReuse     d0 = redundancy ratio r_t, d1 = vectors n,
 *                  u32 = centroids n_c           (ReuseConv/ReuseDense)
 *   KernelReuse    same as LayerReuse, per kernel invocation
 *                  a8: 0 = vertical, 1 = horizontal, 2 = fc
 *   Cluster        d0 = redundancy ratio, d1 = items, u32 = clusters
 *   GuardRung      d0 = measured error, d1 = error budget,
 *                  a8 = GuardRung, u32 = 1 for deploy-time downgrades
 *   Drift          d0 = observed value, d1 = EWMA, d2 = PH statistic,
 *                  u32 = 1 when this observation trips the detector
 *   FaultFire      a8 = faultpoint::Fault index (tag = current layer)
 *   SramHighWater  d0 = required bytes, d1 = capacity bytes
 *   WarnOnce       tag = warn-once key
 *   Streaming      d0 = redundancy ratio, d1 = vectors,
 *                  d2 = peak scratch bytes, u32 = centroids
 *   Panic          tag = panic message, u32 = 1 when contained by a
 *                  RecoveryDomain (the only kind journaled today)
 *   RequestShed    d0 = ms past the deadline at dequeue,
 *                  d1 = remaining deadline slack in ns at dequeue
 *                  (negative — the shed severity genreuse_inspect
 *                  ranks by), u32 = low 32 bits of the request id
 *   StreamQuarantine u32 = consecutive strikes, a8 = 1 when a
 *                  replacement worker was respawned
 *   Health         a8 = serve::Health state entered, u32 = overload
 *                  level at the transition
 *   CanarySample   d0 = measured error, d1 = error budget, d2 = EWMA
 *                  of the relative error, u32 = rows sampled
 *                  (tag = layer; the shadow-exact accuracy canary)
 *   CanaryBreach   same payload as CanarySample, journaled when the
 *                  measurement exceeds the budget, a8 = overload level
 *                  at the breach (2 ⇒ the guard was not verifying and
 *                  the canary was the only accuracy signal)
 *   SloAlert       tag = SLO name, d0 = fast-window burn rate, d1 =
 *                  slow-window burn rate, d2 = threshold, a8 = 1 when
 *                  the alert fired / 0 when it cleared
 *
 * The tag field is an interned string id — usually the enclosing
 * layer's name, established by the LayerScope RAII in Layer forwards
 * (mirroring trace::TraceScope). Every event additionally carries the
 * recording thread's stream id (common/streamtag.h) so concurrent
 * serve streams demux in a single dump; 0 means "no stream" and is
 * omitted from the JSON. When request tracing (common/rtrace.h) is
 * armed, events also carry the low 32 bits of the request id
 * executing on the recording thread — so a blackbox dump ties every
 * journaled event back to the request that caused it (0 = none,
 * omitted from the JSON).
 */

#ifndef GENREUSE_COMMON_EVENTLOG_H
#define GENREUSE_COMMON_EVENTLOG_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs.h"

namespace genreuse {
namespace eventlog {

/** The journaled event kinds. Names (typeName) use snake_case. */
enum class Type : uint8_t
{
    ForwardBegin,  //!< a whole-network forward started
    ForwardEnd,    //!< a whole-network forward finished
    LayerReuse,    //!< one layer's aggregated reuse statistics
    KernelReuse,   //!< one reuse-kernel invocation's statistics
    Cluster,       //!< one clustering call (panel granularity)
    GuardRung,     //!< a guard decision (rung taken, error vs budget)
    Drift,         //!< a drift-detector observation
    FaultFire,     //!< an armed fault point corrupted something
    SramHighWater, //!< the SRAM high-water mark moved up
    WarnOnce,      //!< a warn-once key fired for the first time
    Streaming,     //!< one streaming reuse convolution's statistics
    Panic,         //!< a panic was contained by a RecoveryDomain
    RequestShed,   //!< a serve request expired before execution
    StreamQuarantine, //!< a serve stream struck out and was parked
    Health,        //!< the serve engine's health state moved
    CanarySample,  //!< one shadow-exact accuracy canary measurement
    CanaryBreach,  //!< a canary measurement exceeded the error budget
    SloAlert,      //!< an SLO burn-rate rule fired (or cleared)
    NumTypes,
};

/** snake_case name used in JSON exports and reports. */
const char *typeName(Type t);

/** One journaled event (a consistent copy out of the ring). */
struct Event
{
    uint64_t seq = 0;  //!< global record order (monotonic)
    uint64_t tsNs = 0; //!< steady-clock ns since the process epoch
    double d0 = 0.0, d1 = 0.0, d2 = 0.0;
    uint32_t u32 = 0;
    uint32_t req = 0;    //!< low 32 bits of the in-flight request id
                         //!< (rtrace::currentRequestId(); 0 = none)
    uint16_t tag = 0;    //!< interned string id (see tagName())
    uint16_t stream = 0; //!< streamtag::current() at record time (0 = none)
    Type type = Type::NumTypes;
    uint8_t a8 = 0;
};

namespace detail {
void recordSlow(Type type, uint16_t tag, double d0, double d1, double d2,
                uint32_t u32, uint8_t a8);
} // namespace detail

/** True when the journal is recording. The hot-path gate. */
inline bool
enabled()
{
    return obs::on(obs::kEvents);
}

/** Turn the journal on/off. */
inline void
setEnabled(bool on)
{
    obs::set(obs::kEvents, on);
}

/** Ring capacity in events (power of two). */
constexpr size_t kCapacity = 4096;

/**
 * Intern @p s into the tag registry, returning a stable id. Tag 0 is
 * the empty string. The registry is capped; once full, new strings
 * map to the shared "(overflow)" tag. Process-lifetime stable.
 */
uint16_t intern(const std::string &s);

/** String for an interned tag (empty for 0 / unknown ids). */
const std::string &tagName(uint16_t tag);

/**
 * Append one event. When the journal is off this is a single inlined
 * relaxed atomic load; when on, one fetch_add plus a cache-line of
 * relaxed stores — no locks, safe from any thread.
 */
inline void
record(Type type, uint16_t tag = 0, double d0 = 0.0, double d1 = 0.0,
       double d2 = 0.0, uint32_t u32 = 0, uint8_t a8 = 0)
{
    if (!enabled())
        return;
    detail::recordSlow(type, tag, d0, d1, d2, u32, a8);
}

/**
 * RAII layer tag mirroring trace::TraceScope: events recorded on this
 * thread inside the scope carry @p layer_name as their tag (innermost
 * scope wins). Construction is one relaxed load when the journal is
 * off.
 */
class LayerScope
{
  public:
    explicit LayerScope(const std::string &layer_name);
    ~LayerScope();

    LayerScope(const LayerScope &) = delete;
    LayerScope &operator=(const LayerScope &) = delete;

  private:
    uint16_t prev_ = 0;
    bool active_ = false;
};

/** Tag events recorded on this thread currently carry (0 = none). */
uint16_t currentTag();

/**
 * Drop the calling thread's layer-scope tag unconditionally. Pooled
 * serve workers call this at request boundaries: a LayerScope leaked
 * by a panicking/throwing forward would otherwise tag the *next*
 * request's events with the previous request's layer. Safe to call
 * with scopes live (they restore their own saved value on exit).
 */
void resetThreadScope();

/** Events recorded since the last reset (including overwritten). */
uint64_t recorded();

/** Events lost to ring wraparound since the last reset. */
uint64_t overwritten();

/** Per-type record counts since the last reset (index = Type). */
std::vector<uint64_t> typeCounts();

/**
 * Consistent copy of the ring's surviving events, oldest first. Slots
 * caught mid-overwrite by a concurrent writer are skipped (seqlock
 * recheck), so the result is always a set of fully-written events.
 */
std::vector<Event> snapshot();

/** Drop all recorded events and zero the counters. Tag interning is
 *  kept (ids are process-lifetime stable). Tests/bench setup only;
 *  not meant to race active recorders. */
void reset();

/**
 * Schema-versioned JSON export (schema "genreuse.events/1"): header
 * (reason, capacity, recorded, overwritten, per-type counts) plus the
 * surviving events with resolved tag strings.
 */
std::string toJson(const std::string &reason = "snapshot");

/** Compact summary JSON (schema "genreuse.events-summary/1"): counts
 *  only, no event bodies — embedded into BENCH_*.json records. */
std::string summaryJson();

/** Arm postmortem dumps to @p path (empty disarms).
 *  GENREUSE_OBS=events=<path> sets this before main() and enables the
 *  journal. */
void setBlackboxPath(const std::string &path);

/** Current postmortem destination ("" when disarmed). */
const std::string &blackboxPath();

/** True when a postmortem destination is armed. */
bool blackboxArmed();

/**
 * Dump the journal to the armed black-box path, tagged with @p reason.
 * No-op when disarmed; re-entrancy-safe (a panic raised while dumping
 * does not recurse). Called automatically on panic()/fatal(), fault
 * fires and guard exact-rung downgrades; callable directly too.
 */
void dumpPostmortem(const char *reason);

/** Postmortem dumps written since process start. */
uint64_t postmortemCount();

} // namespace eventlog
} // namespace genreuse

#endif // GENREUSE_COMMON_EVENTLOG_H
