/**
 * @file
 * Mergeable HDR-style log-linear latency histogram with bounded
 * memory. The serve engine needs *live* percentiles (p50/p95/p99/
 * p99.9 while requests are still arriving) and the load generator
 * needs them without holding one double per request — a post-hoc sort
 * is O(n) memory and only answers after the run. This histogram is
 * the standard fix (HdrHistogram / Prometheus-style buckets):
 *
 *  - Values are bucketed log-linearly: each power-of-two octave is
 *    split into 2^subBucketBits linear sub-buckets, so the relative
 *    bucket width — and therefore the worst-case percentile error —
 *    is bounded by 2^-subBucketBits (~3.1% at the default 5 bits).
 *    Values below 2^subBucketBits land in exact unit-width buckets.
 *  - Memory is fixed at construction: (maxValueBits - subBucketBits
 *    + 1) * 2^subBucketBits counters (~9.5 KB at the defaults),
 *    independent of how many values are recorded.
 *  - record() is lock-free: one index computation plus relaxed
 *    fetch_adds, safe from any thread (serve workers record
 *    concurrently).
 *  - Histograms with the same geometry merge by bucket-count
 *    addition, which is associative and commutative — per-stream or
 *    per-run histograms combine into fleet aggregates without loss.
 *
 * Values above maxTrackableValue() clamp into the top bucket (and are
 * counted in overflowCount()) rather than being dropped: a stuck
 * request still moves the tail, it just stops being resolved.
 *
 * Units are the caller's; the serve stack records nanoseconds.
 */

#ifndef GENREUSE_COMMON_HDRHIST_H
#define GENREUSE_COMMON_HDRHIST_H

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <vector>

namespace genreuse {

class HdrHistogram
{
  public:
    /** Default geometry: 32 sub-buckets per octave (≤3.125% relative
     *  error) tracking values up to 2^42 — about 73 minutes in ns. */
    static constexpr uint32_t kDefaultSubBucketBits = 5;
    static constexpr uint32_t kDefaultMaxValueBits = 42;

    explicit HdrHistogram(uint32_t sub_bucket_bits = kDefaultSubBucketBits,
                          uint32_t max_value_bits = kDefaultMaxValueBits);

    HdrHistogram(const HdrHistogram &) = delete;
    HdrHistogram &operator=(const HdrHistogram &) = delete;

    /** Record one value (relaxed atomics; any thread). */
    void record(uint64_t value) { recordMany(value, 1); }

    /** Record @p count occurrences of @p value. */
    void recordMany(uint64_t value, uint64_t count);

    /**
     * Value at percentile @p p (0..100): the midpoint of the first
     * bucket whose cumulative count reaches rank ceil(p/100 * count),
     * clamped into [min(), max()] so estimates never leave the
     * observed range. 0 when empty. Within one bucket width of the
     * exact order statistic by construction.
     */
    uint64_t valueAtPercentile(double p) const;

    /** Merge @p other (same geometry required) into this one. Safe
     *  against concurrent record() on either side. */
    void merge(const HdrHistogram &other);

    /** Drop all recorded values (not meant to race recorders). */
    void reset();

    uint64_t count() const;
    uint64_t min() const; //!< smallest recorded value (0 when empty)
    uint64_t max() const; //!< largest recorded value (0 when empty)
    double mean() const;  //!< exact (sum tracked separately)

    /** Values that exceeded maxTrackableValue() and were clamped into
     *  the top bucket (still included in count()/percentiles). */
    uint64_t overflowCount() const;

    uint32_t subBucketBits() const { return subBits_; }
    uint32_t maxValueBits() const { return maxBits_; }
    size_t numBuckets() const { return nBuckets_; }
    uint64_t maxTrackableValue() const;

    /** Bucket index @p value falls into (clamping above the max). */
    size_t bucketIndex(uint64_t value) const;

    /** Inclusive value range covered by bucket @p index. */
    uint64_t bucketLowerBound(size_t index) const;
    uint64_t bucketUpperBound(size_t index) const;

    /** Raw count in bucket @p index (relaxed read). */
    uint64_t bucketCount(size_t index) const;

    /**
     * A point-in-time copy of the histogram: a plain value type the
     * caller owns, with the same geometry and query surface as the
     * live histogram. Snapshots exist for *windowed* percentiles: the
     * live histogram is cumulative-since-start, so a sliding-window
     * consumer (the SLO monitor, `--follow` rate panels) takes a
     * snapshot per tick and queries the delta between consecutive
     * snapshots instead of the whole history.
     */
    struct Snapshot
    {
        uint32_t subBits = kDefaultSubBucketBits;
        uint32_t maxBits = kDefaultMaxValueBits;
        std::vector<uint64_t> counts; //!< empty() means "no data yet"
        uint64_t count = 0;
        uint64_t sum = 0;
        uint64_t overflow = 0;
        uint64_t min = 0; //!< 0 when empty
        uint64_t max = 0;

        bool empty() const { return count == 0; }
        double mean() const;

        /** Record one value into this (single-owner, non-atomic)
         *  snapshot, sizing the buckets from the geometry on first
         *  use: a plain-value histogram for per-thread accumulators
         *  that a lock already serializes (the profiler's spans). */
        void record(uint64_t value);

        /** Add @p other's counts (same geometry, or either side
         *  bucketless). */
        void merge(const Snapshot &other);

        /** Same rank definition and bucket math as the live
         *  histogram's valueAtPercentile (0 when empty). */
        uint64_t valueAtPercentile(double p) const;

        /** Recorded values strictly above @p value (bucket-resolution:
         *  a bucket counts only when its whole range is above, so the
         *  result errs low by at most one straddling bucket). The SLO
         *  monitor's "bad event" counter for latency objectives. */
        uint64_t countAbove(uint64_t value) const;

        /**
         * The window between @p prev and this snapshot: per-bucket
         * count subtraction (exact — merging is bucket addition, so
         * subtraction is its inverse). min/max of the window are
         * re-derived from the surviving buckets' bounds (the recorded
         * extremes cannot be attributed to a window), clamped into
         * [prev-consistent range]. When @p prev is from a *later* or
         * reset histogram (its total exceeds ours) the delta degrades
         * to this whole snapshot instead of underflowing — the same
         * counter-reset tolerance the inspector applies to counters.
         * Geometry must match (REQUIRE panic otherwise); a
         * default-constructed (bucketless) @p prev acts as empty.
         */
        Snapshot deltaSince(const Snapshot &prev) const;
    };

    /** Relaxed-atomic copy of the current state. Safe against
     *  concurrent record(); the usual torn-across-buckets caveat of
     *  relaxed snapshots applies (counts may disagree with count() by
     *  in-flight records, never by more). */
    Snapshot snapshot() const;

  private:
    uint32_t subBits_;
    uint32_t maxBits_;
    size_t nBuckets_;
    std::unique_ptr<std::atomic<uint64_t>[]> counts_;
    std::atomic<uint64_t> count_{0};
    std::atomic<uint64_t> sum_{0};
    std::atomic<uint64_t> overflow_{0};
    std::atomic<uint64_t> min_{~uint64_t{0}};
    std::atomic<uint64_t> max_{0};
};

} // namespace genreuse

#endif // GENREUSE_COMMON_HDRHIST_H
