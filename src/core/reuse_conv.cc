#include "reuse_conv.h"

#include "common/eventlog.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "reuse_audit.h"

namespace genreuse {

ReuseConvAlgo::ReuseConvAlgo(ReusePattern pattern, HashMode mode,
                             uint64_t seed)
    : pattern_(std::move(pattern)), mode_(mode), seed_(seed)
{
}

void
ReuseConvAlgo::fit(const Tensor &sample_default_x, const ConvGeometry &geom)
{
    GENREUSE_REQUIRE(pattern_.validFor(geom), "pattern ",
                     pattern_.describe(), " invalid for this geometry");
    GENREUSE_REQUIRE(sample_default_x.shape().rank() == 2 &&
                     sample_default_x.shape().cols() == geom.cols(),
                     "sample im2col shape mismatch");

    colPerm_ = columnPermutation(pattern_, geom);

    // Reorder the sample the same way multiply() will reorder inputs
    // (the sample's rows keep their order: the clustering statistics
    // are permutation-invariant over rows of the sample). Random mode
    // only uses the sample's shape, so both the reorder and the sample
    // copy are skipped there; Learned mode gathers the columns in
    // place on its one copy instead of materializing an identity row
    // permutation and a second matrix.
    if (mode_ == HashMode::Learned && !isIdentity(colPerm_)) {
        Tensor sample = sample_default_x;
        permuteColumnsInPlace(sample, colPerm_);
        fitFamilies(sample, geom);
    } else {
        fitFamilies(sample_default_x, geom);
    }
}

void
ReuseConvAlgo::fitReordered(const Tensor &sample_reordered_x,
                            const ConvGeometry &geom)
{
    GENREUSE_REQUIRE(pattern_.validFor(geom), "pattern ",
                     pattern_.describe(), " invalid for this geometry");
    GENREUSE_REQUIRE(sample_reordered_x.shape().rank() == 2 &&
                     sample_reordered_x.shape().cols() == geom.cols(),
                     "sample im2col shape mismatch");
    colPerm_ = columnPermutation(pattern_, geom);
    fitFamilies(sample_reordered_x, geom);
}

void
ReuseConvAlgo::fitFamilies(const Tensor &sample, const ConvGeometry &geom)
{
    const size_t din = geom.cols();
    const size_t l = pattern_.effectiveGranularity(geom);

    Rng rng(seed_);
    if (pattern_.direction == ReuseDirection::Vertical) {
        vslice_ = VerticalSlicing::plan(din, l, pattern_.blockRows);
        families_ =
            mode_ == HashMode::Random
                ? randomVerticalFamilies(vslice_, din, pattern_.numHashes,
                                         rng)
                : learnedVerticalFamilies(sample, vslice_,
                                          pattern_.numHashes);
    } else {
        hslice_ = HorizontalSlicing::plan(sample.shape().rows(), l);
        families_ =
            mode_ == HashMode::Random
                ? randomHorizontalFamilies(hslice_, sample.shape().rows(),
                                           pattern_.numHashes, rng)
                : learnedHorizontalFamilies(sample, hslice_,
                                            pattern_.numHashes);
    }
    fittedDin_ = din;
    fitted_ = true;
    // Refits (e.g. the guard's re-cluster rung) replace families_, so
    // every stream's band-remapped copies of the old families are
    // stale. A new epoch invalidates them lazily: each stream's scratch
    // resets itself the next time that stream forwards. Epochs never
    // repeat across instances, so scratch left at this address by a
    // freed algorithm is reset too (see uniqueSerial()).
    fitEpoch_ = uniqueSerial();
}

ConvStreamScratch &
ReuseConvAlgo::scratch(StreamContext &ctx) const
{
    return ctx.convScratch(this, fitEpoch_);
}

const ReuseStats &
ReuseConvAlgo::lastStats() const
{
    return scratch(StreamContext::current()).lastStats;
}

Tensor
ReuseConvAlgo::multiply(const Tensor &x, const Tensor &w,
                        const ConvGeometry &geom, CostLedger *ledger)
{
    Tensor y;
    multiplyInto(x, w, geom, ledger, y);
    return y;
}

void
ReuseConvAlgo::multiplyInto(const Tensor &x, const Tensor &w,
                            const ConvGeometry &geom, CostLedger *ledger,
                            Tensor &y)
{
    Status s = tryMultiplyInto(x, w, geom, ledger, y);
    if (!s.ok())
        panic(s.toString());
}

void
ReuseConvAlgo::multiplyInto(StreamContext &ctx, const Tensor &x,
                            const Tensor &w, const ConvGeometry &geom,
                            CostLedger *ledger, Tensor &y)
{
    Status s = tryMultiplyInto(ctx, x, w, geom, ledger, y);
    if (!s.ok())
        panic(s.toString());
}

Expected<Tensor>
ReuseConvAlgo::tryMultiply(const Tensor &x, const Tensor &w,
                           const ConvGeometry &geom, CostLedger *ledger)
{
    Tensor y;
    Status s = tryMultiplyInto(x, w, geom, ledger, y);
    if (!s.ok())
        return s;
    return y;
}

Status
ReuseConvAlgo::tryMultiplyInto(const Tensor &x, const Tensor &w,
                               const ConvGeometry &geom, CostLedger *ledger,
                               Tensor &y)
{
    return tryMultiplyInto(StreamContext::current(), x, w, geom, ledger,
                           y);
}

Status
ReuseConvAlgo::tryMultiplyInto(StreamContext &ctx, const Tensor &x,
                               const Tensor &w, const ConvGeometry &geom,
                               CostLedger *ledger, Tensor &y)
{
    // Bind so every downstream current()/forCurrentStream() — the
    // kernels' cluster scratch, arena frames, event stream tags —
    // resolves to this stream for the duration of the forward.
    StreamContext::Bind bind(ctx);
    if (!fitted_)
        return Status::error(ErrorCode::FailedPrecondition,
                             "ReuseConvAlgo::multiply before fit()");
    if (geom.cols() != fittedDin_)
        return Status::error(ErrorCode::InvalidArgument,
                             "geometry changed since fit: Din ",
                             geom.cols(), " vs ", fittedDin_);
    if (x.shape().rank() != 2 || w.shape().rank() != 2 ||
        x.shape().cols() != w.shape().rows() ||
        x.shape().cols() != geom.cols())
        return Status::error(ErrorCode::InvalidArgument,
                             "reuse GEMM shape mismatch: x ",
                             x.shape().toString(), " w ",
                             w.shape().toString(), " Din ", geom.cols());

    ConvStreamScratch &sc = scratch(ctx);
    const std::vector<uint32_t> &row_perm = cachedRowPerm(sc, geom);
    const bool reorder_rows = !isIdentity(row_perm);
    const bool reorder_cols = !isIdentity(colPerm_);

    // Layout transformation of the input matrix, into the stream's
    // persistent scratch. (The paper includes reorder cost in all
    // reported latencies; weight-row reordering is free at runtime
    // because weights are pre-permuted offline — here sc.wr persists,
    // so the gather costs one pass and no allocation in steady state.)
    const Tensor *xin = &x;
    if (reorder_rows || reorder_cols) {
        profiler::ProfSpan span("reuse.transform");
        if (reorder_rows && reorder_cols) {
            reorderMatrixInto(x, row_perm, colPerm_, sc.xr);
        } else if (reorder_rows) {
            permuteRowsInto(x, row_perm, sc.xr);
        } else {
            // Column gather with implicit identity row order — no
            // identity permutation vector, no second pass.
            const size_t rows = x.shape().rows(), cols = x.shape().cols();
            sc.xr.resize({rows, cols});
            for (size_t r = 0; r < rows; ++r) {
                const float *src = x.data() + r * cols;
                float *dst = sc.xr.data() + r * cols;
                for (size_t c = 0; c < cols; ++c)
                    dst[c] = src[colPerm_[c]];
            }
        }
        xin = &sc.xr;
        OpCounts tf;
        tf.elemMoves = x.size();
        reportOps(ledger, Stage::Transformation, tf);
        audit::recordTraffic(this, tf.elemMoves, 0);
    }
    const Tensor *win = &w;
    if (reorder_cols) {
        permuteRowsInto(w, colPerm_, sc.wr);
        win = &sc.wr;
    }
    reuseCoreInto(sc, *xin, *win, row_perm, reorder_rows, geom, ledger, y);
    return Status();
}

Tensor
ReuseConvAlgo::multiplyReordered(const Tensor &xr, const Tensor &wr,
                                 const ConvGeometry &geom,
                                 CostLedger *ledger)
{
    GENREUSE_REQUIRE(fitted_, "ReuseConvAlgo::multiplyReordered before "
                              "fit()");
    GENREUSE_REQUIRE(geom.cols() == fittedDin_,
                     "geometry changed since fit: Din ", geom.cols(),
                     " vs ", fittedDin_);
    ConvStreamScratch &sc = scratch(StreamContext::current());
    const std::vector<uint32_t> &row_perm = cachedRowPerm(sc, geom);
    const bool reorder_rows = !isIdentity(row_perm);
    const bool reorder_cols = !isIdentity(colPerm_);
    // The caller supplied pre-reordered inputs; the transformation is
    // still charged (the paper includes reorder cost in every reported
    // latency), keeping ledgers identical to multiply().
    if (reorder_rows || reorder_cols) {
        OpCounts tf;
        tf.elemMoves = xr.size();
        reportOps(ledger, Stage::Transformation, tf);
        audit::recordTraffic(this, tf.elemMoves, 0);
    }
    Tensor y;
    reuseCoreInto(sc, xr, wr, row_perm, reorder_rows, geom, ledger, y);
    return y;
}

void
ReuseConvAlgo::reuseCoreInto(ConvStreamScratch &sc, const Tensor &xr,
                             const Tensor &wr,
                             const std::vector<uint32_t> &row_perm,
                             bool reorder_rows, const ConvGeometry &geom,
                             CostLedger *ledger, Tensor &y)
{
    sc.lastStats = ReuseStats{};
    // With a row reorder the kernel writes the permuted-order output
    // into the stream's scratch and the unpermute gathers into y;
    // without one the kernel writes y directly.
    Tensor &yr = reorder_rows ? sc.yTmp : y;
    if (pattern_.direction == ReuseDirection::Vertical) {
        verticalReuseMultiplyInto(xr, wr, vslice_, families_, ledger,
                                  &sc.lastStats, yr);
    } else {
        HorizontalSlicing plan = HorizontalSlicing::plan(
            xr.shape().rows(), pattern_.effectiveGranularity(geom));
        const std::vector<HashFamily> &fams =
            families_.size() == plan.numBands
                ? families_
                : remapFamiliesCached(sc, plan);
        horizontalReuseMultiplyInto(xr, wr, plan, fams, ledger,
                                    &sc.lastStats, yr);
    }

    if (reorder_rows) {
        profiler::ProfSpan span("reuse.recover");
        unpermuteRowsInto(sc.yTmp, row_perm, y);
        OpCounts rc;
        rc.elemMoves = y.size();
        reportOps(ledger, Stage::Recovering, rc);
        audit::recordTraffic(this, 0, rc.elemMoves);
    }
    // One aggregated reuse event per layer forward, on top of the
    // per-kernel events: this is the granularity drift analysis and
    // the inspector's timeline work at.
    if (eventlog::enabled())
        eventlog::record(eventlog::Type::LayerReuse, 0,
                         sc.lastStats.redundancyRatio(),
                         static_cast<double>(sc.lastStats.totalVectors),
                         0.0,
                         static_cast<uint32_t>(sc.lastStats.totalCentroids));
    audit::recordForward(this, sc.lastStats);
}

const std::vector<uint32_t> &
ReuseConvAlgo::cachedRowPerm(ConvStreamScratch &sc,
                             const ConvGeometry &geom)
{
    // (batch, rows) determines the permutation for every RowOrder:
    // pix = rows / batch, and Custom perms are validated against rows.
    if (sc.rowPermBatch != geom.batch || sc.rowPermRows != geom.rows()) {
        sc.rowPerm = rowPermutation(pattern_, geom);
        sc.rowPermBatch = geom.batch;
        sc.rowPermRows = geom.rows();
    }
    return sc.rowPerm;
}

const std::vector<HashFamily> &
ReuseConvAlgo::remapFamiliesCached(ConvStreamScratch &sc,
                                   const HorizontalSlicing &plan)
{
    if (sc.mappedNumBands != plan.numBands ||
        sc.mappedBandHeight != plan.bandHeight) {
        sc.mappedFamilies = remapFamilies(sc, plan);
        sc.mappedNumBands = plan.numBands;
        sc.mappedBandHeight = plan.bandHeight;
    }
    return sc.mappedFamilies;
}

std::vector<HashFamily>
ReuseConvAlgo::remapFamilies(ConvStreamScratch &sc,
                             const HorizontalSlicing &plan)
{
    // Batch size differs from the fitting sample, so the fitted band
    // count does not match the run's banding plan. All full bands
    // share the band height, so every fitted full-height family is
    // applicable: cycle them across the run's bands instead of
    // collapsing onto the first (which silently discarded the other
    // per-band fits). Bands with no matching family — the short
    // trailing band, or every band when the fit batch was smaller than
    // the granularity — fall back to exact GEMM inside
    // horizontalReuseMultiply.
    std::vector<const HashFamily *> full;
    for (const HashFamily &f : families_)
        if (f.vectorLength() == plan.bandHeight)
            full.push_back(&f);

    if (!sc.warnedBandMismatch) {
        sc.warnedBandMismatch = true;
        if (full.empty()) {
            warn("horizontal reuse ", pattern_.describe(), ": fitted ",
                 families_.size(), " band(s) of height ",
                 families_.front().vectorLength(),
                 " but the run needs height ", plan.bandHeight,
                 "; all bands fall back to exact GEMM");
        } else {
            warn("horizontal reuse ", pattern_.describe(),
                 ": batch mismatch (fit ", families_.size(),
                 " bands, run ", plan.numBands, "); cycling ",
                 full.size(), " fitted full-height families");
        }
    }

    std::vector<HashFamily> mapped;
    mapped.reserve(plan.numBands);
    for (size_t i = 0; i < plan.numBands; ++i) {
        mapped.push_back(full.empty() ? families_.front()
                                      : *full[i % full.size()]);
    }
    return mapped;
}

std::string
ReuseConvAlgo::describe() const
{
    return std::string("reuse[") + pattern_.describe() + "|" +
           (mode_ == HashMode::Random ? "random" : "learned") + "]";
}

std::shared_ptr<ReuseConvAlgo>
applyReusePattern(Conv2D &layer, const ReusePattern &pattern,
                  const Tensor &sample_default_x, const ConvGeometry &geom,
                  HashMode mode, uint64_t seed)
{
    GENREUSE_REQUIRE(sample_default_x.shape().cols() == geom.cols(),
                     "sample does not match layer ", layer.name());
    auto algo = std::make_shared<ReuseConvAlgo>(pattern, mode, seed);
    algo->fit(sample_default_x, geom);
    if (audit::enabled()) {
        // Stamp the audit slot's display name and the fit-time modeled
        // r_t from one suppressed profiling forward on the fit sample
        // (suppressed: the profiling run is not observed runtime
        // behavior, it IS the model).
        audit::setName(algo.get(), layer.name());
        audit::Suppress suppress;
        algo->multiply(sample_default_x, layer.weightMatrix(), geom,
                       nullptr);
        audit::setModeled(algo.get(),
                          algo->lastStats().redundancyRatio());
    }
    layer.setAlgo(algo);
    return algo;
}

} // namespace genreuse
