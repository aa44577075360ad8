/**
 * @file
 * Operation-ledger tracing subsystem. Two layers:
 *
 * 1. The op-count vocabulary every kernel reports in — OpCounts (MACs,
 *    element loads/stores, scalar ALU ops, hash-table probes), the
 *    four reuse pipeline stages of the paper's Table 3, and OpLedger,
 *    a per-stage accumulator. The MCU cost model (src/mcu/cost_model)
 *    prices these counts in cycles; everything the paper's latency
 *    claims rest on flows through this vocabulary.
 *
 * 2. A process-wide trace registry that groups reported counts by
 *    layer. Hot-path kernels call reportOps(); when tracing is off
 *    (the default) that is one load of the obs gate word (obs.h), so
 *    the production inference path pays nothing. When enabled,
 *    every kernel's counts accumulate into a named per-layer ledger
 *    that can be snapshotted, priced by a CostModel, and exported as
 *    schema-versioned JSON (see traceToJson()).
 *
 * Thread model: records inside a TraceScope accumulate into a
 * scope-local ledger without locking and merge into the registry once
 * at scope exit; records outside any scope land in a per-thread
 * "(untagged)" slot (merged on snapshot), so concurrent untagged
 * recorders never contend on a shared mutex. Concurrent scopes on
 * different threads are safe; the exploration engine runs with
 * tracing off.
 */

#ifndef GENREUSE_COMMON_TRACE_H
#define GENREUSE_COMMON_TRACE_H

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "obs.h"

namespace genreuse {

/** Abstract operation counts reported by a kernel. */
struct OpCounts
{
    uint64_t macs = 0;      //!< 8/16-bit SIMD-able multiply-accumulates
    uint64_t elemMoves = 0; //!< element loads+stores (im2col, reorder, ...)
    uint64_t aluOps = 0;    //!< scalar adds/compares outside the MAC path
    uint64_t tableOps = 0;  //!< hash-table probes/updates in clustering

    OpCounts &operator+=(const OpCounts &o);
    OpCounts operator+(const OpCounts &o) const;
    bool operator==(const OpCounts &o) const;
    bool isZero() const;
};

/** The reuse pipeline stages of the paper's Table 3 breakdown. */
enum class Stage
{
    Transformation, //!< im2col + reuse-order layout transformation
    Clustering,     //!< LSH hashing + signature grouping + centroids
    Gemm,           //!< centroid x weight multiplication
    Recovering,     //!< duplicating centroid results / summing partials
    NumStages,
};

/** Human-readable stage name. */
const char *stageName(Stage s);

/**
 * Per-stage accounting for one layer (or one network) execution: the
 * unit that Table 3 rows and all latency numbers are computed from.
 * Pricing-free; src/mcu's CostLedger derives from this to add
 * milliseconds on a board.
 */
class OpLedger
{
  public:
    /** Add op counts to a stage. */
    void add(Stage stage, const OpCounts &ops);

    /** Merge another ledger stage-by-stage. */
    void merge(const OpLedger &other);

    const OpCounts &stage(Stage s) const;

    /** Sum over all stages. */
    OpCounts total() const;

    bool operator==(const OpLedger &o) const;

    void clear();

  protected:
    OpCounts stages_[static_cast<size_t>(Stage::NumStages)];
};

namespace trace {

/** True when runtime tracing is on. The hot-path gate. */
inline bool
enabled()
{
    return obs::on(obs::kTrace);
}

/** Turn runtime tracing on/off. */
inline void
setEnabled(bool on)
{
    obs::set(obs::kTrace, on);
}

/**
 * RAII layer tag: records on this thread between construction and
 * destruction accumulate under @p layer_name. Scopes nest; the
 * innermost wins (kernels called from a layer's forward() report under
 * that layer). Construction is a no-op when tracing is off.
 */
class TraceScope
{
  public:
    explicit TraceScope(const std::string &layer_name);
    ~TraceScope();

    TraceScope(const TraceScope &) = delete;
    TraceScope &operator=(const TraceScope &) = delete;

    void add(Stage stage, const OpCounts &ops) { local_.add(stage, ops); }

  private:
    std::string name_;
    OpLedger local_;
    TraceScope *prev_ = nullptr;
    bool active_ = false;
};

/** Record counts under the current thread's scope (or "(untagged)"). */
void record(Stage stage, const OpCounts &ops);

/** All per-layer ledgers, in first-seen order. */
std::vector<std::pair<std::string, OpLedger>> snapshot();

/** Ledger of one layer (zero ledger when the layer never recorded). */
OpLedger layerLedger(const std::string &name);

/** Drop all recorded ledgers. */
void reset();

/**
 * Schema-versioned JSON export of the current snapshot
 * (schema "genreuse.trace/1": per-layer per-stage op counts + totals).
 */
std::string toJson();

} // namespace trace

/**
 * The single reporting entry point kernels use: adds @p ops to the
 * caller-supplied ledger (when one is attached) and mirrors them into
 * the trace registry (when tracing is enabled). Both sinks off — the
 * production path — costs two predictable branches.
 */
inline void
reportOps(OpLedger *sink, Stage stage, const OpCounts &ops)
{
    if (sink)
        sink->add(stage, ops);
    if (trace::enabled())
        trace::record(stage, ops);
}

} // namespace genreuse

#endif // GENREUSE_COMMON_TRACE_H
