/**
 * @file
 * Reuse-efficacy audit: the running, per-layer/per-stream view of the
 * paper's central bet — that fit-time models (redundancy ratio r_t for
 * latency, the squared-Frobenius bound for accuracy) keep predicting
 * what the runtime actually does. Everything observed so far (op
 * ledgers, spans, request traces) measures *cost*; this module
 * measures *efficacy*:
 *
 *  - observed redundancy ratio per layer/stream (last value, EWMA
 *    window, lifetime mean) against the fit-time modeled r_t, so
 *    model/runtime reconciliation is a number, not an assumption;
 *  - cluster-count and centroid-occupancy histograms (HdrHistogram,
 *    the same mergeable buckets the serve latencies use) fed by every
 *    clustering call — the observability ROADMAP item 3 (shared
 *    cluster-table cache) needs before it can be built honestly;
 *  - reorder/copy traffic per layer (the transformation/recovery
 *    element moves the paper charges against reuse wins);
 *  - guard error-budget burn fraction (measured/budget) per layer.
 *
 * Design mirrors trace/faultpoint/eventlog: off by default, the
 * hot-path gate is ONE inlined load of the obs gate word per hook
 * (BM_AuditGateDisabled pins this), armed via audit::setEnabled() or
 * GENREUSE_OBS=audit. When armed, hooks take a registry mutex and update
 * pre-grown slots — steady state performs no heap allocation (the
 * zero-alloc arena test runs with the audit armed).
 *
 * Exports: toJson() (schema "genreuse.audit/1", also embedded in BENCH
 * records), a "audit" pull source on the telemetry exporter, and a few
 * global metrics gauges for timelines.
 */

#ifndef GENREUSE_CORE_REUSE_AUDIT_H
#define GENREUSE_CORE_REUSE_AUDIT_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/hdrhist.h"
#include "common/obs.h"
#include "reuse_stats.h"

namespace genreuse {
namespace audit {

/** Kernel kinds for the per-kind invocation counters (matches the
 *  KernelReuse event's a8 convention). */
enum class Kernel : uint8_t { Vertical = 0, Horizontal = 1, Fc = 2 };

namespace detail {
void recordForwardSlow(const void *owner, const ReuseStats &stats);
void recordKernelSlow(Kernel kind, const ReuseStats &local);
void recordClusteringSlow(size_t items, size_t clusters,
                          const size_t *sizes);
void recordTrafficSlow(const void *owner, uint64_t reorder_elems,
                       uint64_t copy_elems);
void recordBudgetSlow(const void *owner, double measured, double budget);
bool suppressed();
} // namespace detail

/** The hot-path gate. */
inline bool
enabled()
{
    return obs::on(obs::kAudit);
}

/** Arm/disarm the audit. The "audit" telemetry pull source reports
 *  only while armed. */
inline void
setEnabled(bool on)
{
    obs::set(obs::kAudit, on);
}

/** One layer/stream audit slot (a snapshot copy). */
struct LayerAudit
{
    std::string name;    //!< setName()/eventlog tag, may be empty
    uint16_t stream = 0; //!< streamtag at record time (0 = default)

    uint64_t forwards = 0;
    double lastObserved = 0.0; //!< redundancy ratio of the last forward
    double ewmaObserved = 0.0; //!< windowed view (EWMA, alpha = 0.2)
    double sumObserved = 0.0;  //!< lifetime mean = sumObserved/forwards
    uint64_t vectors = 0;      //!< total clustered vectors
    uint64_t centroids = 0;    //!< total centroids produced

    bool hasModeled = false;
    double modeled = 0.0; //!< fit-time modeled r_t (setModeled)

    uint64_t reorderElems = 0; //!< input/weight reorder element moves
    uint64_t copyElems = 0;    //!< recovery/unpermute element moves

    uint64_t burnSamples = 0; //!< guard verifications with a budget
    double burnSum = 0.0;     //!< Σ measured/budget
    double burnMax = 0.0;     //!< worst burn fraction seen

    double meanObserved() const
    {
        return forwards ? sumObserved / static_cast<double>(forwards)
                        : 0.0;
    }
    double meanBurn() const
    {
        return burnSamples ? burnSum / static_cast<double>(burnSamples)
                           : 0.0;
    }
    /** |observed − modeled| reconciliation gap (0 when no model). */
    double modelGap() const
    {
        if (!hasModeled || forwards == 0)
            return 0.0;
        const double g = meanObserved() - modeled;
        return g < 0 ? -g : g;
    }
};

/** Per-kernel-kind invocation counters (a snapshot copy). */
struct KernelAudit
{
    uint64_t invocations = 0;
    uint64_t vectors = 0;
    uint64_t centroids = 0;
};

/** Whole-audit snapshot. */
struct Snapshot
{
    std::vector<LayerAudit> layers;
    KernelAudit kernels[3]; //!< index = Kernel
    uint64_t clusterings = 0;
    HdrHistogram::Snapshot clusterCountHist; //!< clusters per call
    HdrHistogram::Snapshot occupancyHist;    //!< items per cluster
};

// ---- hooks (inline-gated; one relaxed load when disarmed) ----------

/** One layer forward's aggregate reuse statistics (reuse_conv /
 *  reuse_dense call this with their per-forward ReuseStats). */
inline void
recordForward(const void *owner, const ReuseStats &stats)
{
    if (!enabled())
        return;
    detail::recordForwardSlow(owner, stats);
}

/** One reuse-kernel invocation (vertical/horizontal/fc). */
inline void
recordKernel(Kernel kind, const ReuseStats &local)
{
    if (!enabled())
        return;
    detail::recordKernelSlow(kind, local);
}

/** One clustering call: @p sizes is the per-cluster item count array
 *  (length @p clusters) feeding the occupancy histogram. */
inline void
recordClustering(size_t items, size_t clusters, const size_t *sizes)
{
    if (!enabled())
        return;
    detail::recordClusteringSlow(items, clusters, sizes);
}

/** Reorder (transform) and copy (recover) traffic in elements. */
inline void
recordTraffic(const void *owner, uint64_t reorder_elems,
              uint64_t copy_elems)
{
    if (!enabled())
        return;
    detail::recordTrafficSlow(owner, reorder_elems, copy_elems);
}

/** One guard verification's budget burn (measured vs budget). */
inline void
recordBudget(const void *owner, double measured, double budget)
{
    if (!enabled())
        return;
    detail::recordBudgetSlow(owner, measured, budget);
}

// ---- fit-time model registration -----------------------------------

/** Record the fit-time modeled redundancy ratio for @p owner (the
 *  fitted algo). Applies to every stream's slot for that owner. */
void setModeled(const void *owner, double modeled_rt);

/** Display name for @p owner's slots in exports (layer name). */
void setName(const void *owner, const std::string &name);

/** The name registered for @p owner ("" when none). The canary shares
 *  the audit's owner keying and borrows its names. */
std::string nameOf(const void *owner);

/** RAII hook suppression for the calling thread: fit-time model
 *  profiling runs the real kernels, which must not count as observed
 *  runtime statistics. */
class Suppress
{
  public:
    Suppress();
    ~Suppress();
    Suppress(const Suppress &) = delete;
    Suppress &operator=(const Suppress &) = delete;
};

// ---- exports -------------------------------------------------------

Snapshot snapshot();

/** Drop all audit state (slots, histograms, names). Test/bench setup
 *  only; not meant to race active recorders. */
void reset();

/** Schema-versioned JSON export (schema "genreuse.audit/1"). */
std::string toJson();

/** Compact one-line JSON for the telemetry pull source. */
std::string telemetryJson();

} // namespace audit
} // namespace genreuse

#endif // GENREUSE_CORE_REUSE_AUDIT_H
