/**
 * @file
 * Request-scoped tracing: where did ONE request's time go?
 *
 * The profiler aggregates named spans process-wide and the event log
 * journals semantic events, but neither can answer "why was request
 * 4711 slow" — was it admission backpressure, queue wait, the forward
 * itself, or guard verification? This module records a per-request
 * span decomposition:
 *
 *   submit --admit--> queued --wait--> dequeued (deadline slack
 *   sampled here) --forward/verify--> done
 *
 * into a fixed-capacity ring of RequestRecords (the request-level
 * flight recorder, mirroring eventlog's contract: recent history
 * survives, old records are overwritten and counted).
 *
 * Design follows the trace/profiler/eventlog gate idiom:
 *
 *  - Off by default; the disarmed cost of every hook (RequestScope
 *    construction, addVerifyNs, currentRequestId) is one load of the
 *    obs gate word (obs.h) — pinned by BM_RtraceGateDisabled.
 *  - While a request executes, its id and span accumulators live in a
 *    thread-local slot on the owning worker (no locks, no
 *    allocation); the completed record is committed to the ring under
 *    a mutex once per request, off the per-layer hot path.
 *  - The thread-local id is what stamps request ids into eventlog
 *    slots (and thus blackbox dumps): eventlog::recordSlow reads
 *    rtrace::currentRequestId() the same way it reads
 *    streamtag::current().
 *
 * Export: GENREUSE_OBS=rtrace=<path>[@rate] enables tracing before main()
 * and writes a genreuse.rtrace/1 JSON artifact at exit — all ring
 * records plus, for every rate-th request, Chrome trace-event
 * objects (an X slice for the queue phase on a synthetic "client"
 * track, an X slice for execution on the stream's track, and s/f
 * flow events tying the two) loadable in chrome://tracing or Perfetto
 * (extra top-level keys are ignored there). genreuse_inspect renders
 * the same artifact as a top-K slowest-requests table.
 */

#ifndef GENREUSE_COMMON_RTRACE_H
#define GENREUSE_COMMON_RTRACE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "obs.h"

namespace genreuse {
namespace rtrace {

/** One completed request's span decomposition. Timestamps share the
 *  serve engine's steady-clock base; all durations derive from them.
 *  A span that did not happen (e.g. forward on a shed request) is 0. */
struct RequestRecord
{
    uint64_t id = 0;
    uint64_t submitNs = 0;  //!< id allocated at submit()
    uint64_t queuedNs = 0;  //!< actually entered the queue (admit done)
    uint64_t startNs = 0;   //!< worker dequeued it
    uint64_t doneNs = 0;    //!< completed (any status)
    uint64_t forwardNs = 0; //!< stream.infer() duration
    uint64_t verifyNs = 0;  //!< guard measureError() time inside infer
    /** deadline - startNs sampled at dequeue; negative = already
     *  expired (shed). kNoDeadline when the request had none. */
    int64_t deadlineSlackNs = 0;
    uint16_t stream = 0;   //!< executing stream id (0 = never dequeued)
    uint8_t statusCode = 0; //!< ErrorCode of the completion Status
    uint8_t rung = 0;       //!< guard rung after execution
    bool shed = false;      //!< expired at dequeue, never executed
};

constexpr int64_t kNoDeadline = INT64_MAX;

/** Ring capacity in records (power of two). */
constexpr size_t kCapacity = 1024;

namespace detail {
/** Per-thread in-flight request slot (engaged by RequestScope). */
struct ThreadSlot
{
    uint64_t id = 0;
    uint64_t verifyNs = 0;
    bool active = false;
};
inline thread_local ThreadSlot t_slot;
} // namespace detail

/** True when request tracing is armed. The hot-path gate. */
inline bool
enabled()
{
    return obs::on(obs::kRtrace);
}

/** Turn request tracing on/off. */
void setEnabled(bool on);

/** Id of the request executing on this thread, 0 when none (or when
 *  tracing is off). One relaxed load + a thread-local read; this is
 *  what eventlog stamps into slots. */
inline uint64_t
currentRequestId()
{
    if (!enabled())
        return 0;
    return detail::t_slot.active ? detail::t_slot.id : 0;
}

/** Accumulate guard-verification time into the in-flight request on
 *  this thread (no-op off-gate or outside a RequestScope). */
inline void
addVerifyNs(uint64_t ns)
{
    if (!enabled())
        return;
    if (detail::t_slot.active)
        detail::t_slot.verifyNs += ns;
}

/** True when this thread is inside an armed RequestScope — callers
 *  that bracket work with two clock reads check this first so the
 *  disabled path stays one relaxed load. */
inline bool
active()
{
    return enabled() && detail::t_slot.active;
}

/**
 * RAII over one request's execution on a worker thread: binds the
 * request id to the thread (for eventlog stamping and verify-span
 * accumulation) and clears it on every exit path. Construction is one
 * relaxed load when tracing is off. The worker fills a RequestRecord
 * and calls commit() before the scope ends; a scope that ends without
 * commit (panic unwind) just unbinds.
 */
class RequestScope
{
  public:
    explicit RequestScope(uint64_t id)
    {
        if (!enabled())
            return;
        detail::t_slot.id = id;
        detail::t_slot.verifyNs = 0;
        detail::t_slot.active = true;
        active_ = true;
    }

    ~RequestScope()
    {
        if (active_)
            detail::t_slot.active = false;
    }

    RequestScope(const RequestScope &) = delete;
    RequestScope &operator=(const RequestScope &) = delete;

    /** Verify time accumulated so far for this request (0 when the
     *  scope is disarmed). */
    uint64_t
    verifyNs() const
    {
        return active_ ? detail::t_slot.verifyNs : 0;
    }

    /** Commit the completed record to the ring (and to the sampled
     *  Chrome-trace export when armed). No-op when disarmed. */
    void commit(const RequestRecord &rec) const;

  private:
    bool active_ = false;
};

/**
 * RAII verify-time attribution: brackets guard verification work with
 * two clock reads and adds the elapsed time to the in-flight request.
 * Construction outside an armed RequestScope (including tracing off)
 * is one relaxed load and the destructor does nothing.
 */
class VerifySpan
{
  public:
    VerifySpan()
    {
        if (active())
            t0_ = clockNs();
    }

    ~VerifySpan()
    {
        if (t0_ != 0)
            addVerifyNs(clockNs() - t0_);
    }

    VerifySpan(const VerifySpan &) = delete;
    VerifySpan &operator=(const VerifySpan &) = delete;

  private:
    static uint64_t clockNs();
    uint64_t t0_ = 0;
};

/** Records committed since the last reset (including overwritten). */
uint64_t recorded();

/** Records lost to ring wraparound since the last reset. */
uint64_t overwritten();

/** Consistent copy of the ring's surviving records, oldest first. */
std::vector<RequestRecord> snapshot();

/** Drop all records and counters (tests/bench setup only). */
void reset();

/**
 * Arm the export: @p path receives the genreuse.rtrace/1 artifact,
 * with every @p sample_rate-th committed request expanded into Chrome
 * trace events (1 = every request). Empty path disarms.
 * GENREUSE_OBS=rtrace=<path>[@rate] sets this before main(), enables
 * tracing and writes the artifact at exit.
 */
void setExport(const std::string &path, uint64_t sample_rate = 1);

/** Current export destination ("" when disarmed) and sample rate. */
const std::string &exportPath();
uint64_t sampleRate();

/** The genreuse.rtrace/1 artifact (ring records + sampled Chrome
 *  trace events). */
std::string toJson();

} // namespace rtrace
} // namespace genreuse

#endif // GENREUSE_COMMON_RTRACE_H
