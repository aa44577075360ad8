/**
 * @file
 * Online accuracy canary: a sampled, always-on ground-truth check of
 * the reuse path. The guard's error budget is measured against a few
 * exactly recomputed rows *of the same forward* — but under overload
 * level 2 verification is shed entirely, and even when it runs, the
 * budget is an absolute Frobenius quantity whose meaning drifts with
 * activation scale. The canary closes both gaps: at a configured
 * sampling rate it re-runs a row subset of an accepted reuse output on
 * the bit-identical exact path, tracks the *relative* error per layer
 * and stream (EWMA + a Welford confidence interval), feeds the
 * existing DriftDetector, and journals CanarySample / CanaryBreach
 * eventlog events. Crucially it keeps sampling at overload level 2 —
 * the canary is the only accuracy signal left when verification is
 * shed, so it is exempt from shedding by design.
 *
 * Arming follows the trace/faultpoint idiom: GENREUSE_OBS=canary=<rate>
 * (a probability in [0, 1]) or canary::setRate(); the disarmed
 * hot-path cost is one load of the obs gate word
 * (BM_CanaryGateDisabled pins it). Sampling is deterministic — a
 * per-stream credit accumulator, not an RNG — so a rate of 1.0 means
 * literally every forward and tests replay exactly.
 */

#ifndef GENREUSE_CORE_CANARY_H
#define GENREUSE_CORE_CANARY_H

#include <cstdint>
#include <string>
#include <vector>

#include "common/obs.h"

namespace genreuse {
namespace canary {

/** The hot-path gate: set while the rate is positive. */
inline bool
enabled()
{
    return obs::on(obs::kCanary);
}

/** Current sampling rate (0.0 when disarmed). */
double rate();

/** Arm at @p rate forwards sampled per forward executed (clamped into
 *  [0, 1]; 0 disarms). GENREUSE_OBS=canary=<rate> does this before
 *  main(). */
void setRate(double rate);

/** One layer/stream canary series (a snapshot copy). */
struct CanaryStats
{
    std::string name;    //!< audit display name, may be empty
    uint16_t stream = 0;

    uint64_t samples = 0;  //!< canaried forwards
    uint64_t breaches = 0; //!< samples whose error exceeded the budget
    double lastError = 0.0;   //!< last measured relative error
    double ewmaError = 0.0;   //!< EWMA of relative error (alpha 0.2)
    double meanError = 0.0;   //!< Welford mean
    double errorCi95 = 0.0;   //!< 95% confidence half-width of the mean
    double worstError = 0.0;
};

/** Copies of every (layer, stream) series. */
std::vector<CanaryStats> snapshot();

/** Total samples / breaches across all series (cheap, for SLOs). */
uint64_t totalSamples();
uint64_t totalBreaches();

/** Drop all canary series (rate is left as-is). */
void reset();

/** Schema-versioned JSON export (schema "genreuse.canary/1"). */
std::string toJson();

/** Compact one-line JSON for the telemetry pull source. */
std::string telemetryJson();

namespace detail {
/**
 * Deterministic per-stream sampling decision: accumulate the rate and
 * fire when the credit crosses 1. @p credit is the caller's per-stream
 * accumulator (GuardStreamState::canaryCredit).
 */
inline bool
shouldSample(double &credit)
{
    credit += rate();
    if (credit < 1.0)
        return false;
    credit -= 1.0;
    return true;
}

void observeSlow(const void *owner, double rel_error, double rel_budget,
                 uint64_t rows, bool breach);
} // namespace detail

/**
 * Record one canary measurement for @p owner (same registry key as the
 * audit: the fitted algo). @p rel_error is the measured relative
 * error, @p rel_budget the relative budget it was judged against,
 * @p breach whether it exceeded it; journals CanarySample (and
 * CanaryBreach on a breach) and updates the per-layer series.
 */
inline void
observe(const void *owner, double rel_error, double rel_budget,
        uint64_t rows, bool breach)
{
    if (!enabled())
        return;
    detail::observeSlow(owner, rel_error, rel_budget, rows, breach);
}

} // namespace canary
} // namespace genreuse

#endif // GENREUSE_CORE_CANARY_H
