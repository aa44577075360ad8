#include "im2col.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/logging.h"

namespace genreuse {

bool
ConvGeometry::valid() const
{
    if (batch == 0 || inChannels == 0 || inHeight == 0 || inWidth == 0 ||
        outChannels == 0 || kernelH == 0 || kernelW == 0 || stride == 0) {
        return false;
    }
    return inHeight + 2 * pad >= kernelH && inWidth + 2 * pad >= kernelW;
}

namespace {

void
checkGeometry(const ConvGeometry &geom)
{
    GENREUSE_REQUIRE(geom.valid(), "invalid convolution geometry");
}

/**
 * Kernel offsets k in [lo, hi) of a window of @p size starting at
 * source coordinate @p origin land inside [0, extent); the offsets
 * before lo and from hi on read zero padding.
 */
std::pair<size_t, size_t>
inImage(long origin, long extent, size_t size)
{
    const long n = static_cast<long>(size);
    const long lo = std::clamp(-origin, 0L, n);
    const long hi = std::clamp(extent - origin, lo, n);
    return {static_cast<size_t>(lo), static_cast<size_t>(hi)};
}

/**
 * Writes the whole im2col matrix row by row. The in-image kernel rows
 * and columns are found once per output row / position, so the inner
 * loop copies runs of kw cells without per-element padding tests.
 * kKw > 0 fixes the kernel width at compile time so the interior copies
 * inline; 0 reads geom.kernelW.
 */
template <size_t kKw>
void
im2colRows(const float *in, const ConvGeometry &geom, float *dst)
{
    const size_t kw_n = kKw > 0 ? kKw : geom.kernelW;
    const size_t kh_n = geom.kernelH, chans = geom.inChannels;
    const size_t oh = geom.outHeight(), ow = geom.outWidth();
    const long h = static_cast<long>(geom.inHeight);
    const long w = static_cast<long>(geom.inWidth);
    const long stride = static_cast<long>(geom.stride);
    const long pad = static_cast<long>(geom.pad);
    const size_t plane = geom.inHeight * geom.inWidth;
    for (size_t b = 0; b < geom.batch; ++b) {
        const float *image = in + b * chans * plane;
        for (size_t y = 0; y < oh; ++y) {
            const long y0 = static_cast<long>(y) * stride - pad;
            const auto [kh_lo, kh_hi] = inImage(y0, h, kh_n);
            for (size_t x = 0; x < ow; ++x) {
                const long x0 = static_cast<long>(x) * stride - pad;
                const auto [lo, hi] = inImage(x0, w, kw_n);
                const bool interior = lo == 0 && hi == kw_n;
                for (size_t c = 0; c < chans; ++c) {
                    const float *chan = image + c * plane;
                    if (kh_lo > 0) {
                        std::fill_n(dst, kh_lo * kw_n, 0.0f);
                        dst += kh_lo * kw_n;
                    }
                    for (size_t kh = kh_lo; kh < kh_hi; ++kh, dst += kw_n) {
                        // Offset of the window's (kh, 0) cell; negative
                        // left of the image, so only [lo, hi) is read.
                        const long row =
                            (y0 + static_cast<long>(kh)) * w + x0;
                        if (interior) {
                            std::memcpy(dst, chan + row, kw_n * sizeof(float));
                            continue;
                        }
                        for (size_t kw = 0; kw < kw_n; ++kw)
                            dst[kw] = kw >= lo && kw < hi
                                          ? chan[row + static_cast<long>(kw)]
                                          : 0.0f;
                    }
                    if (kh_hi < kh_n) {
                        std::fill_n(dst, (kh_n - kh_hi) * kw_n, 0.0f);
                        dst += (kh_n - kh_hi) * kw_n;
                    }
                }
            }
        }
    }
}

} // namespace

void
im2colInto(const Tensor &input, const ConvGeometry &geom, Tensor &out)
{
    checkGeometry(geom);
    GENREUSE_REQUIRE(input.shape() ==
                     Shape({geom.batch, geom.inChannels, geom.inHeight,
                            geom.inWidth}),
                     "im2col input shape ", input.shape().toString(),
                     " mismatches geometry");
    out.resize({geom.rows(), geom.cols()});
    // The served CifarNet's 5x5 kernels: a compile-time width halves the
    // expansion time (its interior copies become fixed-size moves).
    if (geom.kernelW == 5)
        im2colRows<5>(input.data(), geom, out.data());
    else
        im2colRows<0>(input.data(), geom, out.data());
}

Tensor
im2col(const Tensor &input, const ConvGeometry &geom)
{
    Tensor out;
    im2colInto(input, geom, out);
    return out;
}

Tensor
col2im(const Tensor &cols, const ConvGeometry &geom)
{
    checkGeometry(geom);
    GENREUSE_REQUIRE(cols.shape() == Shape({geom.rows(), geom.cols()}),
                     "col2im input shape ", cols.shape().toString(),
                     " mismatches geometry");

    const size_t oh = geom.outHeight(), ow = geom.outWidth();
    Tensor out({geom.batch, geom.inChannels, geom.inHeight, geom.inWidth});
    size_t row = 0;
    for (size_t b = 0; b < geom.batch; ++b) {
        for (size_t y = 0; y < oh; ++y) {
            for (size_t x = 0; x < ow; ++x, ++row) {
                const float *src = cols.data() + row * geom.cols();
                size_t col = 0;
                for (size_t c = 0; c < geom.inChannels; ++c) {
                    for (size_t kh = 0; kh < geom.kernelH; ++kh) {
                        long sy = static_cast<long>(y * geom.stride + kh) -
                                  static_cast<long>(geom.pad);
                        for (size_t kw = 0; kw < geom.kernelW; ++kw, ++col) {
                            long sx =
                                static_cast<long>(x * geom.stride + kw) -
                                static_cast<long>(geom.pad);
                            if (sy >= 0 && sx >= 0 &&
                                sy < static_cast<long>(geom.inHeight) &&
                                sx < static_cast<long>(geom.inWidth)) {
                                out.at4(b, c, sy, sx) += src[col];
                            }
                        }
                    }
                }
            }
        }
    }
    return out;
}

Tensor
kernelToMatrix(const Tensor &kernel)
{
    GENREUSE_REQUIRE(kernel.shape().rank() == 4,
                     "kernel must be rank-4 (M, C, KH, KW)");
    const size_t m = kernel.shape().dim(0);
    const size_t din = kernel.shape().dim(1) * kernel.shape().dim(2) *
                       kernel.shape().dim(3);
    Tensor w({din, m});
    // Kernel storage is already [c][kh][kw]-major per filter; each
    // filter becomes a column. Blocking over d keeps the kTile output
    // rows being written resident while the filters stream past.
    constexpr size_t kTile = 16;
    const float *src = kernel.data();
    float *dst = w.data();
    for (size_t d0 = 0; d0 < din; d0 += kTile) {
        const size_t d1 = std::min(din, d0 + kTile);
        for (size_t f = 0; f < m; ++f)
            for (size_t d = d0; d < d1; ++d)
                dst[d * m + f] = src[f * din + d];
    }
    return w;
}

Tensor
matrixToKernel(const Tensor &mat, const ConvGeometry &geom)
{
    const size_t din = geom.cols(), m = geom.outChannels;
    GENREUSE_REQUIRE(mat.shape() == Shape({din, m}),
                     "weight matrix shape ", mat.shape().toString(),
                     " mismatches geometry");
    Tensor kernel({m, geom.inChannels, geom.kernelH, geom.kernelW});
    for (size_t f = 0; f < m; ++f) {
        float *dst = kernel.data() + f * din;
        for (size_t d = 0; d < din; ++d)
            dst[d] = mat.at2(d, f);
    }
    return kernel;
}

namespace {

/**
 * act[b][c][p] = y[b * P + p][c] (+ bias[c]) over the P = OH * OW
 * output positions, transposed in blocks of kTile positions so both the
 * strided reads and the channel-plane writes stay cache-resident.
 */
template <bool kBias>
void
foldRows(const float *y, const float *bias, const ConvGeometry &geom,
         float *act)
{
    constexpr size_t kTile = 16;
    const size_t m = geom.outChannels;
    const size_t positions = geom.outHeight() * geom.outWidth();
    for (size_t b = 0; b < geom.batch; ++b) {
        const float *rows = y + b * positions * m;
        float *image = act + b * m * positions;
        for (size_t p0 = 0; p0 < positions; p0 += kTile) {
            const size_t p1 = std::min(positions, p0 + kTile);
            for (size_t c = 0; c < m; ++c) {
                float *plane = image + c * positions;
                for (size_t p = p0; p < p1; ++p) {
                    if constexpr (kBias)
                        plane[p] = rows[p * m + c] + bias[c];
                    else
                        plane[p] = rows[p * m + c];
                }
            }
        }
    }
}

} // namespace

Tensor
gemmOutputToActivation(const Tensor &y, const ConvGeometry &geom,
                       const float *bias)
{
    const size_t m = geom.outChannels;
    GENREUSE_REQUIRE(y.shape() == Shape({geom.rows(), m}),
                     "GEMM output shape ", y.shape().toString(),
                     " mismatches geometry");
    Tensor act({geom.batch, m, geom.outHeight(), geom.outWidth()});
    if (bias != nullptr)
        foldRows<true>(y.data(), bias, geom, act.data());
    else
        foldRows<false>(y.data(), nullptr, geom, act.data());
    return act;
}

Tensor
activationToGemmOutput(const Tensor &act, const ConvGeometry &geom)
{
    const size_t oh = geom.outHeight(), ow = geom.outWidth();
    const size_t m = geom.outChannels;
    GENREUSE_REQUIRE(act.shape() == Shape({geom.batch, m, oh, ow}),
                     "activation shape ", act.shape().toString(),
                     " mismatches geometry");
    Tensor y({geom.rows(), m});
    size_t row = 0;
    for (size_t b = 0; b < geom.batch; ++b)
        for (size_t yy = 0; yy < oh; ++yy)
            for (size_t xx = 0; xx < ow; ++xx, ++row)
                for (size_t c = 0; c < m; ++c)
                    y.at2(row, c) = act.at4(b, c, yy, xx);
    return y;
}

} // namespace genreuse
