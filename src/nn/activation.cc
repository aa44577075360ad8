#include "activation.h"

#include <bit>
#include <cstdint>

#include "common/logging.h"

namespace genreuse {

Tensor
ReLU::forward(const Tensor &x, bool training)
{
    Tensor y(x.shape());
    const float *in = x.data();
    float *out = y.data();
    const size_t n = x.size();
    // x > 0 ? x : +0.0f (so NaN and -0.0 become +0.0), as a bit mask:
    // a compare-and-branch here mispredicts on every sign change.
    for (size_t i = 0; i < n; ++i) {
        const uint32_t keep = in[i] > 0.0f ? ~0u : 0u;
        out[i] = std::bit_cast<float>(std::bit_cast<uint32_t>(in[i]) & keep);
    }
    if (training) {
        mask_.resize(n);
        for (size_t i = 0; i < n; ++i)
            mask_[i] = in[i] > 0.0f;
        cachedShape_ = x.shape();
        haveCache_ = true;
    }
    return y;
}

Tensor
ReLU::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "ReLU::backward without training forward");
    GENREUSE_REQUIRE(grad_out.size() == mask_.size(),
                     "ReLU gradient size mismatch");
    Tensor gx(cachedShape_);
    for (size_t i = 0; i < gx.size(); ++i)
        gx[i] = mask_[i] ? grad_out[i] : 0.0f;
    haveCache_ = false;
    return gx;
}

void
ReLU::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts ops;
    ops.aluOps = in.elems();
    ledger.add(Stage::Recovering, ops);
}

} // namespace genreuse
