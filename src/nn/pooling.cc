#include "pooling.h"

#include "common/logging.h"

namespace genreuse {

namespace {

void
checkPoolInput(const Shape &in, size_t size, const char *what)
{
    GENREUSE_REQUIRE(in.rank() == 4, what, " input must be NCHW");
    GENREUSE_REQUIRE(in.height() >= size && in.width() >= size, what,
                     " window ", size, " larger than input ", in.toString());
}

size_t
poolOut(size_t in, size_t size, size_t stride)
{
    return (in - size) / stride + 1;
}

} // namespace

MaxPool2D::MaxPool2D(std::string name, size_t size, size_t stride)
    : Layer(std::move(name)), size_(size), stride_(stride)
{
    GENREUSE_REQUIRE(size >= 1 && stride >= 1, "bad pooling parameters");
}

namespace {

/**
 * Max over each size x size window of every (b, c) plane; the first
 * maximum in row-major window order wins ties, and a NaN window origin
 * sticks (v > NaN is false). With kArgmax the winner's flat input index
 * is written to @p argmax, one per output element.
 */
template <bool kArgmax>
void
maxPoolPlanes(const float *x, const Shape &s, size_t size, size_t stride,
              size_t oh, size_t ow, float *y, uint32_t *argmax)
{
    const size_t h = s.height(), w = s.width();
    const size_t planes = s.batch() * s.channels();
    for (size_t pl = 0; pl < planes; ++pl) {
        const float *plane = x + pl * h * w;
        for (size_t yy = 0; yy < oh; ++yy) {
            for (size_t xx = 0; xx < ow; ++xx) {
                const size_t origin = yy * stride * w + xx * stride;
                float best = plane[origin];
                size_t best_at = origin;
                for (size_t kh = 0; kh < size; ++kh) {
                    const float *row = plane + origin + kh * w;
                    for (size_t kw = 0; kw < size; ++kw) {
                        if (row[kw] > best) {
                            best = row[kw];
                            if constexpr (kArgmax)
                                best_at = origin + kh * w + kw;
                        }
                    }
                }
                *y++ = best;
                if constexpr (kArgmax)
                    *argmax++ = static_cast<uint32_t>(pl * h * w + best_at);
            }
        }
    }
}

} // namespace

Tensor
MaxPool2D::forward(const Tensor &x, bool training)
{
    checkPoolInput(x.shape(), size_, "MaxPool2D");
    const Shape &s = x.shape();
    size_t oh = poolOut(s.height(), size_, stride_);
    size_t ow = poolOut(s.width(), size_, stride_);
    Tensor y({s.batch(), s.channels(), oh, ow});
    if (!training) {
        // Inference leaves argmax_ alone: a pending backward() still
        // routes through its own training forward's winners.
        maxPoolPlanes<false>(x.data(), s, size_, stride_, oh, ow, y.data(),
                             nullptr);
        return y;
    }
    argmax_.resize(y.size());
    maxPoolPlanes<true>(x.data(), s, size_, stride_, oh, ow, y.data(),
                        argmax_.data());
    cachedInShape_ = s;
    haveCache_ = true;
    return y;
}

Tensor
MaxPool2D::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "MaxPool2D::backward without forward");
    Tensor gx(cachedInShape_);
    for (size_t i = 0; i < grad_out.size(); ++i)
        gx[argmax_[i]] += grad_out[i];
    haveCache_ = false;
    return gx;
}

Shape
MaxPool2D::outputShape(const Shape &in) const
{
    checkPoolInput(in, size_, "MaxPool2D");
    return Shape({in.batch(), in.channels(),
                  poolOut(in.height(), size_, stride_),
                  poolOut(in.width(), size_, stride_)});
}

void
MaxPool2D::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts ops;
    ops.aluOps = outputShape(in).elems() * size_ * size_;
    ledger.add(Stage::Recovering, ops);
}

AvgPool2D::AvgPool2D(std::string name, size_t size, size_t stride)
    : Layer(std::move(name)), size_(size), stride_(stride)
{
    GENREUSE_REQUIRE(size >= 1 && stride >= 1, "bad pooling parameters");
}

Tensor
AvgPool2D::forward(const Tensor &x, bool training)
{
    checkPoolInput(x.shape(), size_, "AvgPool2D");
    const Shape &s = x.shape();
    size_t oh = poolOut(s.height(), size_, stride_);
    size_t ow = poolOut(s.width(), size_, stride_);
    Tensor y({s.batch(), s.channels(), oh, ow});
    const float inv = 1.0f / static_cast<float>(size_ * size_);

    for (size_t b = 0; b < s.batch(); ++b)
        for (size_t c = 0; c < s.channels(); ++c)
            for (size_t yy = 0; yy < oh; ++yy)
                for (size_t xx = 0; xx < ow; ++xx) {
                    float sum = 0.0f;
                    for (size_t kh = 0; kh < size_; ++kh)
                        for (size_t kw = 0; kw < size_; ++kw)
                            sum += x.at4(b, c, yy * stride_ + kh,
                                         xx * stride_ + kw);
                    y.at4(b, c, yy, xx) = sum * inv;
                }
    if (training) {
        cachedInShape_ = s;
        haveCache_ = true;
    }
    return y;
}

Tensor
AvgPool2D::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "AvgPool2D::backward without forward");
    const Shape &s = cachedInShape_;
    size_t oh = poolOut(s.height(), size_, stride_);
    size_t ow = poolOut(s.width(), size_, stride_);
    Tensor gx(s);
    const float inv = 1.0f / static_cast<float>(size_ * size_);
    for (size_t b = 0; b < s.batch(); ++b)
        for (size_t c = 0; c < s.channels(); ++c)
            for (size_t yy = 0; yy < oh; ++yy)
                for (size_t xx = 0; xx < ow; ++xx) {
                    float g = grad_out.at4(b, c, yy, xx) * inv;
                    for (size_t kh = 0; kh < size_; ++kh)
                        for (size_t kw = 0; kw < size_; ++kw)
                            gx.at4(b, c, yy * stride_ + kh,
                                   xx * stride_ + kw) += g;
                }
    haveCache_ = false;
    return gx;
}

Shape
AvgPool2D::outputShape(const Shape &in) const
{
    checkPoolInput(in, size_, "AvgPool2D");
    return Shape({in.batch(), in.channels(),
                  poolOut(in.height(), size_, stride_),
                  poolOut(in.width(), size_, stride_)});
}

void
AvgPool2D::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts ops;
    ops.aluOps = outputShape(in).elems() * size_ * size_;
    ledger.add(Stage::Recovering, ops);
}

Tensor
GlobalAvgPool2D::forward(const Tensor &x, bool training)
{
    GENREUSE_REQUIRE(x.shape().rank() == 4, "GlobalAvgPool2D input NCHW");
    const Shape &s = x.shape();
    Tensor y({s.batch(), s.channels()});
    const float inv = 1.0f / static_cast<float>(s.height() * s.width());
    for (size_t b = 0; b < s.batch(); ++b)
        for (size_t c = 0; c < s.channels(); ++c) {
            float sum = 0.0f;
            for (size_t h = 0; h < s.height(); ++h)
                for (size_t w = 0; w < s.width(); ++w)
                    sum += x.at4(b, c, h, w);
            y.at2(b, c) = sum * inv;
        }
    if (training) {
        cachedInShape_ = s;
        haveCache_ = true;
    }
    return y;
}

Tensor
GlobalAvgPool2D::backward(const Tensor &grad_out)
{
    GENREUSE_REQUIRE(haveCache_, "GlobalAvgPool2D::backward without forward");
    const Shape &s = cachedInShape_;
    Tensor gx(s);
    const float inv = 1.0f / static_cast<float>(s.height() * s.width());
    for (size_t b = 0; b < s.batch(); ++b)
        for (size_t c = 0; c < s.channels(); ++c) {
            float g = grad_out.at2(b, c) * inv;
            for (size_t h = 0; h < s.height(); ++h)
                for (size_t w = 0; w < s.width(); ++w)
                    gx.at4(b, c, h, w) = g;
        }
    haveCache_ = false;
    return gx;
}

Shape
GlobalAvgPool2D::outputShape(const Shape &in) const
{
    return Shape({in.batch(), in.channels()});
}

void
GlobalAvgPool2D::appendCost(const Shape &in, CostLedger &ledger) const
{
    OpCounts ops;
    ops.aluOps = in.elems();
    ledger.add(Stage::Recovering, ops);
}

} // namespace genreuse
