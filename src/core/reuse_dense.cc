#include "reuse_dense.h"

#include "common/eventlog.h"
#include "common/faultpoint.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/simd.h"
#include "guard.h"
#include "lsh/learned_hash.h"
#include "reuse_audit.h"

namespace genreuse {

ReuseDense::ReuseDense(std::string name, size_t in_features,
                       size_t out_features, Rng &rng)
    : Layer(name), dense_(name + ".dense", in_features, out_features, rng)
{
}

void
ReuseDense::fitReuse(const Tensor &sample, size_t segment_len,
                     size_t num_hashes)
{
    GENREUSE_REQUIRE(sample.shape().rank() == 2 &&
                     sample.shape().cols() == dense_.inFeatures(),
                     "sample must be N x inFeatures");
    GENREUSE_REQUIRE(segment_len >= 1 &&
                     segment_len <= dense_.inFeatures(),
                     "segment length out of range");
    // Learn from the segment population across all sample rows.
    const size_t n = sample.shape().rows();
    const size_t f = dense_.inFeatures();
    const size_t segs = f / segment_len;
    GENREUSE_REQUIRE(segs * n >= 2, "not enough segments to learn from");

    // Segments are contiguous length-L pieces of each row: viewing the
    // sample buffer as (n * segs) rows of length L covers exactly the
    // full segments when L divides F; otherwise build a packed copy.
    if (f % segment_len == 0) {
        StridedItems items{sample.data(), n * segs, segment_len,
                           segment_len, 1};
        family_ = std::make_unique<HashFamily>(
            learnHashFamilyPca(items, num_hashes));
    } else {
        Tensor packed({n * segs, segment_len});
        for (size_t r = 0; r < n; ++r)
            for (size_t s = 0; s < segs; ++s)
                for (size_t j = 0; j < segment_len; ++j)
                    packed.at2(r * segs + s, j) =
                        sample.at2(r, s * segment_len + j);
        StridedItems items{packed.data(), n * segs, segment_len,
                           segment_len, 1};
        family_ = std::make_unique<HashFamily>(
            learnHashFamilyPca(items, num_hashes));
    }
    segmentLen_ = segment_len;
    reuseEnabled_ = true;
    if (audit::enabled())
        audit::setName(this, name());
}

Tensor
ReuseDense::forward(const Tensor &x, bool training)
{
    if (training || !reuseEnabled_)
        return dense_.forward(x, training);

    trace::TraceScope tscope(name());
    profiler::ProfSpan pspan("dense.reuse");
    eventlog::LayerScope escope(name());
    // Flatten per sample (same convention as Dense). A rank-2 input is
    // already flat: use it in place instead of copying; higher ranks
    // flatten into persistent member scratch (row-major storage makes
    // the flatten a relabel-plus-copy, never a gather).
    const size_t n = x.shape().dim(0);
    const Tensor *flat = &x;
    if (x.shape().rank() != 2) {
        flat_.resize({n, x.size() / n});
        std::copy(x.data(), x.data() + x.size(), flat_.data());
        flat = &flat_;
    }

    if (faultpoint::active(faultpoint::Fault::NanActivation)) {
        if (flat != &flat_) {
            // Corrupt a copy, never the caller's activations.
            flat_.resize({n, x.size() / n});
            std::copy(x.data(), x.data() + x.size(), flat_.data());
            flat = &flat_;
        }
        faultpoint::noteFired(faultpoint::Fault::NanActivation);
        corruptWithNan(flat_, faultpoint::seed(faultpoint::Fault::NanActivation));
    }

    // Segment reuse averages segments across the row, so one NaN would
    // smear over every output; the exact product confines it. Scan is
    // O(N*F), negligible next to the O(N*F*O) product.
    if (!simd::ops().allFinite(flat->data(), flat->size())) {
        warnOnce("reuse-dense-nonfinite",
                 "ReuseDense ", name(),
                 ": non-finite activations; exact product for this "
                 "forward (warned once)");
        guard::noteNonFiniteInput();
        lastRung_ = GuardRung::ExactFallback;
        lastStats_ = ReuseStats{};
        return fcExactForward(*flat, dense_.weight().value,
                              dense_.bias().value);
    }

    lastRung_ = GuardRung::FullReuse;
    lastStats_ = ReuseStats{};
    Tensor y;
    fcReuseForwardInto(*flat, dense_.weight().value, dense_.bias().value,
                       segmentLen_, *family_, ledger_, &lastStats_, y);
    if (eventlog::enabled())
        eventlog::record(eventlog::Type::LayerReuse, 0,
                         lastStats_.redundancyRatio(),
                         static_cast<double>(lastStats_.totalVectors),
                         0.0,
                         static_cast<uint32_t>(lastStats_.totalCentroids));
    audit::recordForward(this, lastStats_);
    return y;
}

Tensor
ReuseDense::backward(const Tensor &grad_out)
{
    return dense_.backward(grad_out);
}

void
ReuseDense::appendCost(const Shape &in, CostLedger &ledger) const
{
    dense_.appendCost(in, ledger);
}

} // namespace genreuse
