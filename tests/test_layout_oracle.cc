/**
 * @file
 * Differential oracle for the inference layout path. The element-wise
 * at4()/at2() loops the raw-pointer kernels replaced live on here,
 * verbatim, as references; every kernel must reproduce them bit for
 * bit (memcmp, so NaN payloads and the sign of zero count) over a
 * geometry sweep that covers borders, strides, pads wider than the
 * kernel, batches and non-square images. A network-level check then
 * pins Network::forward to the public-call decomposition a per-step
 * tracer runs (im2col -> weightMatrix -> ConvAlgo::multiply -> bias ->
 * gemmOutputToActivation), exact and guarded, scalar and vector.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <string>
#include <vector>

#include "common/simd.h"
#include "core/measurement.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "nn/activation.h"
#include "nn/conv2d.h"
#include "nn/dense.h"
#include "nn/pooling.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

namespace genreuse {
namespace {

// ---- references: the replaced element-wise loops --------------------

Tensor
refIm2col(const Tensor &input, const ConvGeometry &geom)
{
    const size_t oh = geom.outHeight(), ow = geom.outWidth();
    Tensor out({geom.rows(), geom.cols()});
    size_t row = 0;
    for (size_t b = 0; b < geom.batch; ++b) {
        for (size_t y = 0; y < oh; ++y) {
            for (size_t x = 0; x < ow; ++x, ++row) {
                float *dst = out.data() + row * geom.cols();
                size_t col = 0;
                for (size_t c = 0; c < geom.inChannels; ++c) {
                    for (size_t kh = 0; kh < geom.kernelH; ++kh) {
                        // Signed source row; padding yields zeros.
                        long sy = static_cast<long>(y * geom.stride + kh) -
                                  static_cast<long>(geom.pad);
                        for (size_t kw = 0; kw < geom.kernelW; ++kw, ++col) {
                            long sx =
                                static_cast<long>(x * geom.stride + kw) -
                                static_cast<long>(geom.pad);
                            if (sy < 0 || sx < 0 ||
                                sy >= static_cast<long>(geom.inHeight) ||
                                sx >= static_cast<long>(geom.inWidth)) {
                                dst[col] = 0.0f;
                            } else {
                                dst[col] = input.at4(b, c, sy, sx);
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
refKernelToMatrix(const Tensor &kernel)
{
    const size_t m = kernel.shape().dim(0);
    const size_t din = kernel.shape().dim(1) * kernel.shape().dim(2) *
                       kernel.shape().dim(3);
    Tensor w({din, m});
    // Kernel storage is already [c][kh][kw]-major per filter; copy each
    // filter into a column.
    for (size_t f = 0; f < m; ++f) {
        const float *src = kernel.data() + f * din;
        for (size_t d = 0; d < din; ++d)
            w.at2(d, f) = src[d];
    }
    return w;
}

Tensor
refFold(const Tensor &y, const ConvGeometry &geom)
{
    const size_t oh = geom.outHeight(), ow = geom.outWidth();
    const size_t m = geom.outChannels;
    Tensor act({geom.batch, m, oh, ow});
    size_t row = 0;
    for (size_t b = 0; b < geom.batch; ++b)
        for (size_t yy = 0; yy < oh; ++yy)
            for (size_t xx = 0; xx < ow; ++xx, ++row)
                for (size_t c = 0; c < m; ++c)
                    act.at4(b, c, yy, xx) = y.at2(row, c);
    return act;
}

/** Conv2D's separate bias pass, then the fold. */
Tensor
refBiasFold(Tensor y, const Tensor &bias, const ConvGeometry &geom)
{
    const size_t n = y.shape().rows(), m = y.shape().cols();
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < m; ++c)
            y.at2(r, c) += bias[c];
    return refFold(y, geom);
}

struct RefPool
{
    Tensor y;
    std::vector<uint32_t> argmax;
};

RefPool
refMaxPool(const Tensor &x, size_t size, size_t stride)
{
    const Shape &s = x.shape();
    size_t oh = (s.height() - size) / stride + 1;
    size_t ow = (s.width() - size) / stride + 1;
    Tensor y({s.batch(), s.channels(), oh, ow});
    std::vector<uint32_t> argmax_(y.size(), 0);
    const size_t stride_ = stride, size_ = size;

    size_t out = 0;
    for (size_t b = 0; b < s.batch(); ++b) {
        for (size_t c = 0; c < s.channels(); ++c) {
            for (size_t yy = 0; yy < oh; ++yy) {
                for (size_t xx = 0; xx < ow; ++xx, ++out) {
                    float best = x.at4(b, c, yy * stride_, xx * stride_);
                    size_t best_h = yy * stride_, best_w = xx * stride_;
                    for (size_t kh = 0; kh < size_; ++kh) {
                        for (size_t kw = 0; kw < size_; ++kw) {
                            float v = x.at4(b, c, yy * stride_ + kh,
                                            xx * stride_ + kw);
                            if (v > best) {
                                best = v;
                                best_h = yy * stride_ + kh;
                                best_w = xx * stride_ + kw;
                            }
                        }
                    }
                    y[out] = best;
                    argmax_[out] = static_cast<uint32_t>(
                        ((b * s.channels() + c) * s.height() + best_h) *
                            s.width() +
                        best_w);
                }
            }
        }
    }
    return {std::move(y), std::move(argmax_)};
}

struct RefRelu
{
    Tensor y;
    std::vector<uint8_t> mask;
};

RefRelu
refRelu(const Tensor &x)
{
    Tensor y(x.shape());
    std::vector<uint8_t> mask_(x.size(), 0);
    for (size_t i = 0; i < x.size(); ++i) {
        bool pos = x[i] > 0.0f;
        y[i] = pos ? x[i] : 0.0f;
        if (pos)
            mask_[i] = 1;
    }
    return {std::move(y), std::move(mask_)};
}

Tensor
refDense(const Tensor &flat, const Tensor &weight, const Tensor &bias)
{
    Tensor y = matmul(flat, weight);
    for (size_t r = 0; r < y.shape().rows(); ++r)
        for (size_t c = 0; c < y.shape().cols(); ++c)
            y.at2(r, c) += bias[c];
    return y;
}

// ---- helpers ---------------------------------------------------------

bool
bitIdentical(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(), a.size() * sizeof(float)) == 0;
}

/** Normal noise salted with NaN, -0.0 and +0.0 so copies must be bit
 *  copies. */
Tensor
saltedNormal(const Shape &shape, Rng &rng)
{
    Tensor t = Tensor::randomNormal(shape, rng);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (size_t i = 0; i < t.size(); i += 7)
        t[i] = (i / 7) % 3 == 0 ? nan : (i / 7) % 3 == 1 ? -0.0f : 0.0f;
    return t;
}

struct SweepCase
{
    size_t kernel, stride, pad, batch, channels;
};

/** Kernel 1/3/5 x stride 1/2 x pad 0/1/2 x batch 1/3 x C 1/3/64 on a
 *  non-square 7x9 image (pad 2 around a 1x1 kernel leaves whole
 *  out-of-image tiles). */
std::vector<SweepCase>
sweep()
{
    std::vector<SweepCase> cases;
    for (size_t k : {1, 3, 5})
        for (size_t s : {1, 2})
            for (size_t p : {0, 1, 2})
                for (size_t b : {1, 3})
                    for (size_t c : {1, 3, 64})
                        cases.push_back({k, s, p, b, c});
    return cases;
}

ConvGeometry
geomOf(const SweepCase &sc, size_t out_channels)
{
    ConvGeometry g;
    g.batch = sc.batch;
    g.inChannels = sc.channels;
    g.inHeight = 7;
    g.inWidth = 9;
    g.outChannels = out_channels;
    g.kernelH = sc.kernel;
    g.kernelW = sc.kernel;
    g.stride = sc.stride;
    g.pad = sc.pad;
    return g;
}

std::string
describe(const SweepCase &sc)
{
    return "k" + std::to_string(sc.kernel) + " s" + std::to_string(sc.stride) +
           " p" + std::to_string(sc.pad) + " b" + std::to_string(sc.batch) +
           " c" + std::to_string(sc.channels);
}

// ---- kernel oracles --------------------------------------------------

TEST(LayoutOracle, Im2colMatchesElementwiseReference)
{
    Rng rng(1);
    for (const SweepCase &sc : sweep()) {
        ConvGeometry g = geomOf(sc, 4);
        ASSERT_TRUE(g.valid()) << describe(sc);
        Tensor x = saltedNormal({g.batch, g.inChannels, g.inHeight,
                                 g.inWidth}, rng);
        EXPECT_TRUE(bitIdentical(im2col(x, g), refIm2col(x, g)))
            << describe(sc);
    }
}

TEST(LayoutOracle, Im2colIntoOverwritesDirtyBuffers)
{
    // A reused buffer carries the previous geometry's cells; every one
    // the new matrix covers must be rewritten, whether the buffer is
    // larger than needed (stale tail) or smaller (must grow).
    Rng rng(2);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (const SweepCase &sc : sweep()) {
        ConvGeometry g = geomOf(sc, 4);
        Tensor x = saltedNormal({g.batch, g.inChannels, g.inHeight,
                                 g.inWidth}, rng);
        const Tensor ref = refIm2col(x, g);
        for (const Shape &dirty :
             {Shape({g.rows() + 5, g.cols() + 3}), Shape({1, 1})}) {
            Tensor out(dirty, nan);
            im2colInto(x, g, out);
            EXPECT_TRUE(bitIdentical(out, ref))
                << describe(sc) << " into " << dirty.toString();
        }
    }
}

TEST(LayoutOracle, FoldWithAndWithoutBiasMatchesReference)
{
    Rng rng(3);
    const size_t out_channels[] = {1, 7, 64};
    size_t i = 0;
    for (const SweepCase &sc : sweep()) {
        ConvGeometry g = geomOf(sc, out_channels[i++ % 3]);
        Tensor y = saltedNormal({g.rows(), g.outChannels}, rng);
        Tensor bias = saltedNormal({g.outChannels}, rng);
        EXPECT_TRUE(bitIdentical(gemmOutputToActivation(y, g),
                                 refFold(y, g)))
            << describe(sc) << " m" << g.outChannels;
        EXPECT_TRUE(bitIdentical(gemmOutputToActivation(y, g, bias.data()),
                                 refBiasFold(y, bias, g)))
            << describe(sc) << " m" << g.outChannels << " +bias";
    }
}

TEST(LayoutOracle, KernelToMatrixMatchesReference)
{
    Rng rng(4);
    const size_t out_channels[] = {1, 7, 64};
    size_t i = 0;
    for (const SweepCase &sc : sweep()) {
        Tensor kernel = saltedNormal({out_channels[i++ % 3], sc.channels,
                                      sc.kernel, sc.kernel}, rng);
        EXPECT_TRUE(bitIdentical(kernelToMatrix(kernel),
                                 refKernelToMatrix(kernel)))
            << describe(sc);
    }
}

/** Gradient a MaxPool2D routes through @p argmax (same scatter order
 *  as backward()), so two argmax vectors compare through backward(). */
Tensor
scatterThrough(const std::vector<uint32_t> &argmax, const Shape &in,
               const Tensor &g)
{
    Tensor gx(in);
    for (size_t i = 0; i < g.size(); ++i)
        gx[argmax[i]] += g[i];
    return gx;
}

TEST(LayoutOracle, MaxPoolMatchesReferenceWithTiesNanAndSignedZero)
{
    Rng rng(5);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    for (size_t size : {1, 2, 3}) {
        for (size_t stride : {1, 2, 3}) {
            // Few distinct values force ties; -0.0 against 0.0 is a tie
            // the first element must win; NaN anywhere in the window.
            Tensor x({2, 3, 7, 6});
            const float palette[] = {-1.0f, -0.0f, 0.0f, 0.5f, 0.5f, nan};
            for (size_t i = 0; i < x.size(); ++i)
                x[i] = palette[rng.uniformInt(6)];
            const RefPool ref = refMaxPool(x, size, stride);
            const std::string what = "size " + std::to_string(size) +
                                     " stride " + std::to_string(stride);

            MaxPool2D pool("p", size, stride);
            EXPECT_TRUE(bitIdentical(pool.forward(x, false), ref.y)) << what;
            EXPECT_TRUE(bitIdentical(pool.forward(x, true), ref.y)) << what;
            Tensor g = Tensor::iota(ref.y.shape());
            for (size_t i = 0; i < g.size(); ++i)
                g[i] += 1.0f;
            EXPECT_TRUE(bitIdentical(pool.backward(g),
                                     scatterThrough(ref.argmax, x.shape(),
                                                    g)))
                << what;
        }
    }
}

TEST(LayoutOracle, ReluMatchesReferenceWithNanSignedZeroAndDenormals)
{
    const float nan = std::numeric_limits<float>::quiet_NaN();
    const float inf = std::numeric_limits<float>::infinity();
    const float denorm = std::numeric_limits<float>::denorm_min();
    Tensor x({2, 3, 1, 3}, std::vector<float>{
                               nan, -nan, -0.0f, 0.0f, denorm, -denorm,
                               1e-40f, -1e-40f, inf, -inf, 2.5f, -2.5f,
                               1.0f, -1.0f, 0.0f, -0.0f, 3e-39f, nan});
    const RefRelu ref = refRelu(x);
    ReLU relu("r");
    EXPECT_TRUE(bitIdentical(relu.forward(x, false), ref.y));
    EXPECT_TRUE(bitIdentical(relu.forward(x, true), ref.y));
    Tensor g = Tensor::full(x.shape(), 1.0f);
    Tensor gx = relu.backward(g);
    for (size_t i = 0; i < x.size(); ++i)
        EXPECT_EQ(gx[i], ref.mask[i] ? 1.0f : 0.0f) << "element " << i;
}

TEST(LayoutOracle, DenseMatchesReference)
{
    Rng rng(6);
    Dense dense("fc", 4 * 2 * 3, 10, rng);
    dense.bias().value = saltedNormal({10}, rng);
    Tensor x = saltedNormal({3, 4, 2, 3}, rng);
    Tensor ref = refDense(x.reshaped({3, 24}), dense.weight().value,
                          dense.bias().value);
    EXPECT_TRUE(bitIdentical(dense.forward(x, false), ref));
    EXPECT_TRUE(bitIdentical(dense.forward(x, true), ref));
}

// ---- network oracle --------------------------------------------------

/** Network::forward re-run as public calls, conv by conv; each conv's
 *  op counts (the multiply's plus the moves and bias adds around it)
 *  are added to @p ledgers. */
Tensor
decomposedForward(Network &net, const Tensor &x,
                  std::vector<CostLedger> &ledgers)
{
    Tensor act = x;
    size_t conv_index = 0;
    for (size_t i = 0; i < net.numLayers(); ++i) {
        auto *conv = dynamic_cast<Conv2D *>(&net.layer(i));
        if (conv == nullptr) {
            act = net.layer(i).forward(act, /*training=*/false);
            continue;
        }
        CostLedger &ledger = ledgers[conv_index++];
        const ConvGeometry geom = conv->geometry(act.shape());
        Tensor cols = im2col(act, geom);
        Tensor w = conv->weightMatrix();
        Tensor y = conv->algo().multiply(cols, w, geom, &ledger);
        const size_t n = y.shape().rows(), m = y.shape().cols();
        const float *bias = conv->bias().value.data();
        float *out = y.data();
        for (size_t r = 0; r < n; ++r)
            for (size_t c = 0; c < m; ++c)
                out[r * m + c] += bias[c];
        act = gemmOutputToActivation(y, geom);

        OpCounts moves;
        moves.elemMoves = cols.size();
        ledger.add(Stage::Transformation, moves);
        OpCounts recover;
        recover.aluOps = n * m;
        recover.elemMoves = n * m;
        ledger.add(Stage::Recovering, recover);
    }
    return act;
}

/** Restores the dispatch level a test switched away from. */
struct LevelRestorer
{
    simd::Level saved = simd::activeLevel();
    ~LevelRestorer() { (void)simd::setActiveLevel(saved); }
};

void
expectForwardMatchesDecomposition(Network &net, const std::string &what)
{
    LevelRestorer restore;
    SyntheticConfig cfg;
    cfg.numSamples = 3;
    cfg.seed = 17;
    const Dataset images = makeSyntheticCifar(cfg);
    std::vector<simd::Level> levels = {simd::Level::Scalar};
    if (simd::detect() != simd::Level::Scalar)
        levels.push_back(simd::detect());
    const std::vector<Conv2D *> convs = net.convLayers();
    for (simd::Level level : levels) {
        ASSERT_TRUE(simd::setActiveLevel(level).ok());
        for (size_t i = 0; i < images.size(); ++i) {
            const Tensor x = images.gatherImages({i});
            std::vector<CostLedger> conv_ledgers(convs.size());
            std::vector<CostLedger> step_ledgers(convs.size());
            for (size_t c = 0; c < convs.size(); ++c)
                convs[c]->setLedger(&conv_ledgers[c]);
            const Tensor ref = net.forward(x, /*training=*/false);
            for (Conv2D *conv : convs)
                conv->setLedger(nullptr);
            const Tensor steps = decomposedForward(net, x, step_ledgers);
            const std::string at = what + " at " +
                                   simd::levelName(level) + ", image " +
                                   std::to_string(i);
            EXPECT_TRUE(bitIdentical(ref, steps)) << at;
            for (size_t c = 0; c < convs.size(); ++c)
                EXPECT_TRUE(conv_ledgers[c] == step_ledgers[c])
                    << at << ", " << convs[c]->name() << " op counts";
        }
    }
}

TEST(NetworkOracle, ExactCifarNetForwardMatchesDecomposition)
{
    Rng rng(1000);
    Network net = makeCifarNet(rng);
    expectForwardMatchesDecomposition(net, "exact");
}

TEST(NetworkOracle, GuardedCifarNetForwardMatchesDecomposition)
{
    Rng rng(1000);
    Network net = makeCifarNet(rng);
    SyntheticConfig cfg;
    cfg.numSamples = 4;
    cfg.seed = 1001;
    const Dataset fit = makeSyntheticCifar(cfg);
    for (Conv2D *conv : net.convLayers()) {
        ReusePattern p;
        p.granularity = conv->kernelSize() * conv->kernelSize();
        p.numHashes = 4;
        fitAndInstallGuarded(net, *conv, p, fit, {}, HashMode::Learned, 99);
    }
    expectForwardMatchesDecomposition(net, "guarded");
}

} // namespace
} // namespace genreuse
