/**
 * @file
 * StreamContext — the per-inference-stream execution state that used
 * to hide in member and thread_local scratch. One fitted algorithm
 * serving N concurrent requests needs N copies of everything a forward
 * mutates (reorder buffers, cached permutations, cluster scratch,
 * drift/guard state) while sharing the single immutable fit (hash
 * families, column permutation, slicing plans). This type is the "N
 * copies" half of that split.
 *
 * Every thread always has a context: an implicit thread-default one
 * (id 0) materialized on first use, or an explicit one bound with
 * StreamContext::Bind — the serve engine binds stream i's context
 * around each request its pooled worker executes. current() is how the
 * core algorithms find their scratch, so single-threaded callers and
 * the exploration engine keep their exact pre-serve behavior (each
 * thread sees private scratch) with no signature changes, while the
 * serve path routes everything per stream:
 *
 *  - arena(): the stream's own Arena (explicit contexts) or the
 *    thread-local default (id 0). Bind also redirects
 *    Arena::forCurrentStream() here, so kernels follow automatically.
 *  - clusterScratch(): the per-kernel ClusterResult scratch that was a
 *    `static thread_local` in the vertical/horizontal/fc kernels —
 *    owned by whichever thread last ran, a use-after-rebind bug the
 *    moment two streams shared a pooled worker.
 *  - convScratch(owner, fitEpoch): ReuseConvAlgo's former member
 *    scratch (xr/wr/yTmp, cached row perm, band-remapped families,
 *    last-forward stats), keyed by algorithm instance and invalidated
 *    when the owner refits (the guard's re-cluster rung bumps the
 *    epoch).
 *  - guardState(owner, serial): GuardedReuseConvAlgo's former member state
 *    (drift detectors, cached error budget, last rung) so one guarded
 *    algorithm tracks each stream's distribution independently — a
 *    drifting stream must not trip, re-cluster, or budget-boost its
 *    neighbors.
 *
 * Bind additionally tags the thread with the stream id
 * (common/streamtag.h) so journaled events and targeted fault
 * injection (GENREUSE_FAULT=...@stream) demux per stream. Bind does
 * NOT touch the eventlog layer-scope stack — a layer forward may bind
 * a context while its LayerScope is live; request-boundary cleanup is
 * eventlog::resetThreadScope(), called by the serve worker.
 *
 * A StreamContext is confined to one thread at a time (the serve
 * engine's 1:1 worker-owns-stream arrangement enforces this); it is
 * not internally synchronized.
 */

#ifndef GENREUSE_CORE_STREAM_CONTEXT_H
#define GENREUSE_CORE_STREAM_CONTEXT_H

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/arena.h"
#include "common/streamtag.h"
#include "drift.h"
#include "lsh/clustering.h"
#include "reuse_stats.h"
#include "tensor/tensor.h"

namespace genreuse {

/**
 * One (ReuseConvAlgo, stream) pair's forward scratch: everything a
 * reuse-conv forward writes that is not part of the shared fit.
 * Reused across forwards so the steady state allocates nothing; reset
 * when the owning algorithm refits (fitEpoch moves).
 */
struct ConvStreamScratch
{
    const void *owner = nullptr; //!< the ReuseConvAlgo this belongs to
    uint64_t fitEpoch = ~uint64_t{0};

    Tensor xr, wr, yTmp; //!< reordered input/weights, pre-unpermute out

    std::vector<uint32_t> rowPerm; //!< cached row permutation…
    size_t rowPermBatch = static_cast<size_t>(-1); //!< …keyed on geometry
    size_t rowPermRows = static_cast<size_t>(-1);

    std::vector<HashFamily> mappedFamilies; //!< band-remapped fit copies
    size_t mappedNumBands = 0;
    size_t mappedBandHeight = 0;
    bool warnedBandMismatch = false;

    ReuseStats lastStats; //!< statistics of this stream's last forward

    /** Invalidate fit-derived caches for a new fit epoch (buffer
     *  capacity is kept — only the keys and flags reset). */
    void onNewEpoch(uint64_t epoch);
};

/**
 * One (GuardedReuseConvAlgo, stream) pair's guard state: the drift
 * detectors, the cached error budget and the last rung taken. The
 * detectors are created lazily by the guard (it owns the configs and
 * the signal-name convention); lastRung is stored as int to keep this
 * header below guard.h in the include order.
 */
struct GuardStreamState
{
    const void *owner = nullptr; //!< the GuardedReuseConvAlgo
    uint64_t ownerSerial = 0;    //!< its uniqueSerial()

    /** Inner fit epoch the budget was derived at (~0 = none yet). */
    uint64_t budgetEpoch = ~uint64_t{0};
    double perRowBound = 0.0; //!< K-scaled bound per sample row

    int lastRung = 0; //!< GuardRung of this stream's last forward

    /** Accuracy-canary sampling credit (canary::detail::shouldSample):
     *  deterministic per-stream accumulator, so a rate of 1.0 samples
     *  every forward and tests replay exactly. */
    double canaryCredit = 0.0;

    std::unique_ptr<DriftDetector> errDrift;
    std::unique_ptr<DriftDetector> clusterDrift;
};

/**
 * A process-wide, never-repeating number (the first is 1). Per-stream
 * state is found by its owner's address, and a freed algorithm's
 * address is soon handed to a new one. So owners also stamp that state
 * with one of these: ReuseConvAlgo fit epochs, GuardedReuseConvAlgo
 * serials. Otherwise a new algorithm would inherit a dead one's cached
 * row permutation, band-remapped families and drift detectors.
 */
uint64_t uniqueSerial();

class StreamContext
{
  public:
    /** clusterScratch() slots, one per reuse kernel. */
    static constexpr size_t kVertical = 0;
    static constexpr size_t kHorizontal = 1;
    static constexpr size_t kFc = 2;
    static constexpr size_t kNumClusterScratch = 3;

    /**
     * An explicit stream context owning its own arena (retention cap
     * from Arena::envRetainBytes()). @p id must be nonzero — 0 is the
     * thread-default context's id, and doubles as "no stream" in
     * event/fault stream tags.
     */
    explicit StreamContext(uint16_t id, std::string name = {});
    ~StreamContext();

    StreamContext(const StreamContext &) = delete;
    StreamContext &operator=(const StreamContext &) = delete;

    uint16_t id() const { return id_; }
    const std::string &name() const { return name_; }

    /** The stream's arena: the owned one (explicit contexts) or the
     *  calling thread's default (thread-default context). */
    Arena &arena();

    /** Per-kernel ClusterResult scratch (slot = kVertical…kFc). */
    ClusterResult &clusterScratch(size_t slot);

    /** This stream's scratch for @p owner, invalidated (caches reset,
     *  capacity kept) when @p fit_epoch differs from the last call. */
    ConvStreamScratch &convScratch(const void *owner, uint64_t fit_epoch);

    /** This stream's guard state for @p owner (created empty; the
     *  guard fills the detectors lazily). State left by an earlier
     *  owner at the same address (another @p serial) starts over. */
    GuardStreamState &guardState(const void *owner, uint64_t serial);

    /**
     * Quarantine reset: discard everything a (possibly panicking)
     * forward may have half-mutated — the arena is rewound and its
     * blocks released, cluster/conv scratch is dropped, and the guard
     * states (drift detectors, cached budgets, last rungs) are erased
     * so the guard lazily re-creates them re-armed. The shared fit is
     * untouched (it is immutable per contract), so the next request on
     * this context starts from the same state a fresh context would.
     * Caller must ensure no forward is live on the context.
     */
    void reset();

    /**
     * The calling thread's context: the innermost Bind, else the
     * thread-default context (id 0, created on first use).
     */
    static StreamContext &current();

    /**
     * RAII binding of a context to the calling thread: current()
     * returns it, Arena::forCurrentStream() returns its arena, and
     * streamtag::current() returns its id until destruction. Nests
     * (restores the previous binding); does not touch the eventlog
     * layer-scope stack.
     */
    class Bind
    {
      public:
        explicit Bind(StreamContext &ctx);
        ~Bind();

        Bind(const Bind &) = delete;
        Bind &operator=(const Bind &) = delete;

      private:
        StreamContext *prevCtx_;
        Arena *prevArena_;
        uint16_t prevStream_;
    };

  private:
    struct ThreadDefaultTag
    {
    };
    explicit StreamContext(ThreadDefaultTag);

    uint16_t id_;
    std::string name_;
    std::unique_ptr<Arena> ownedArena_; //!< null for the thread default
    ClusterResult clusterScratch_[kNumClusterScratch];
    std::vector<std::unique_ptr<ConvStreamScratch>> convScratch_;
    std::vector<std::unique_ptr<GuardStreamState>> guardStates_;
};

} // namespace genreuse

#endif // GENREUSE_CORE_STREAM_CONTEXT_H
