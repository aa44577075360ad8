/**
 * @file
 * Tests for ReuseConvAlgo end-to-end in a Conv2D layer: fitting,
 * pattern execution with reorders, integration with networks, and the
 * conventional (TREC-style) baseline pattern.
 */

#include <cstring>
#include <gtest/gtest.h>
#include <new>

#include "core/measurement.h"
#include "core/reuse_conv.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace genreuse {
namespace {

/** A conv layer fed with synthetic redundant image data. */
struct ConvFixture
{
    Rng rng{42};
    Conv2D conv{"conv", 3, 8, 5, 1, 2, rng};
    Dataset data;

    ConvFixture()
    {
        SyntheticConfig cfg;
        cfg.numSamples = 6;
        cfg.noiseStddev = 0.0f;
        cfg.redundancy = 0.9f;
        data = makeSyntheticCifar(cfg);
    }

    Tensor
    sampleX()
    {
        Tensor x = data.gatherImages({0, 1});
        conv.forward(x, false);
        return conv.lastIm2col();
    }
};

TEST(ReuseConvAlgo, RequiresFitBeforeMultiply)
{
    ConvFixture f;
    ReusePattern p = ReusePattern::conventional(
        f.conv.geometry({1, 3, 32, 32}));
    ReuseConvAlgo algo(p, HashMode::Random, 1);
    EXPECT_FALSE(algo.fitted());
    ASSERT_DEATH_IF_SUPPORTED(
        {
            Tensor x({1024, 75});
            Tensor w({75, 8});
            algo.multiply(x, w, f.conv.geometry({1, 3, 32, 32}), nullptr);
        },
        "before fit");
}

TEST(ReuseConvAlgo, ConventionalPatternLowError)
{
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    ReusePattern p = ReusePattern::conventional(geom, 6);

    ReuseConvAlgo algo(p, HashMode::Learned, 1);
    algo.fit(sample, geom);
    Tensor w = f.conv.weightMatrix();
    Tensor approx = algo.multiply(sample, w, geom, nullptr);
    Tensor exact = matmul(sample, w);
    EXPECT_LT(relativeError(exact, approx), 0.5);
    EXPECT_GT(algo.lastStats().redundancyRatio(), 0.5);
}

TEST(ReuseConvAlgo, PixelMajorOrderExecutes)
{
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    ReusePattern p;
    p.columnOrder = ColumnOrder::PixelMajor;
    p.granularity = 15; // 5 pixels x 3 channels
    p.numHashes = 6;
    ReuseConvAlgo algo(p, HashMode::Learned, 2);
    algo.fit(sample, geom);
    Tensor w = f.conv.weightMatrix();
    Tensor approx = algo.multiply(sample, w, geom, nullptr);
    EXPECT_LT(relativeError(matmul(sample, w), approx), 0.5);
}

TEST(ReuseConvAlgo, RowReorderRoundTrips)
{
    // With a row reorder, reuse output rows must come back in the
    // original order; verify against the exact product on a high-H
    // (nearly lossless) configuration.
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    ReusePattern p;
    p.rowOrder = RowOrder::PixelMajor;
    p.granularity = 75;
    p.numHashes = 24; // fine clustering: near-exact
    ReuseConvAlgo algo(p, HashMode::Random, 3);
    algo.fit(sample, geom);
    Tensor w = f.conv.weightMatrix();
    Tensor approx = algo.multiply(sample, w, geom, nullptr);
    EXPECT_LT(relativeError(matmul(sample, w), approx), 0.12);
}

TEST(ReuseConvAlgo, NewAlgoAtAFreedAlgosAddressStartsClean)
{
    // Per-stream scratch is found by owner address. An algorithm built
    // where a freed one lived, on the same geometry, must not inherit
    // its cached row permutation.
    ConvFixture f;
    Tensor sample = f.sampleX(); // batch 2: PixelMajor really permutes
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();
    ReusePattern pixel;
    pixel.rowOrder = RowOrder::PixelMajor;
    pixel.granularity = 25;
    pixel.numHashes = 6;
    ReusePattern batch = pixel;
    batch.rowOrder = RowOrder::BatchMajor;

    ReuseConvAlgo fresh(batch, HashMode::Learned, 3);
    fresh.fit(sample, geom);
    CostLedger want_ledger;
    const Tensor want = fresh.multiply(sample, w, geom, &want_ledger);

    alignas(ReuseConvAlgo) unsigned char slot[sizeof(ReuseConvAlgo)];
    auto *old = new (slot) ReuseConvAlgo(pixel, HashMode::Learned, 3);
    old->fit(sample, geom);
    old->multiply(sample, w, geom, nullptr);
    old->~ReuseConvAlgo();
    auto *reborn = new (slot) ReuseConvAlgo(batch, HashMode::Learned, 3);
    reborn->fit(sample, geom);
    CostLedger got_ledger;
    const Tensor got = reborn->multiply(sample, w, geom, &got_ledger);
    reborn->~ReuseConvAlgo();

    ASSERT_EQ(want.shape(), got.shape());
    EXPECT_EQ(0, std::memcmp(want.data(), got.data(),
                             want.size() * sizeof(float)));
    EXPECT_TRUE(want_ledger == got_ledger);
}

TEST(ReuseConvAlgo, HorizontalDirectionExecutes)
{
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    ReusePattern p;
    p.direction = ReuseDirection::Horizontal;
    p.granularity = 256;
    p.numHashes = 8;
    ReuseConvAlgo algo(p, HashMode::Learned, 4);
    algo.fit(sample, geom);
    Tensor w = f.conv.weightMatrix();
    Tensor approx = algo.multiply(sample, w, geom, nullptr);
    EXPECT_EQ(approx.shape(), Shape({sample.shape().rows(), 8u}));
    EXPECT_LT(relativeError(matmul(sample, w), approx), 0.5);
}

TEST(ReuseConvAlgo, DescribeMentionsPatternAndMode)
{
    ReusePattern p;
    p.numHashes = 3;
    ReuseConvAlgo algo(p, HashMode::Learned, 5);
    std::string d = algo.describe();
    EXPECT_NE(d.find("reuse["), std::string::npos);
    EXPECT_NE(d.find("learned"), std::string::npos);
}

TEST(ReuseConvAlgo, LedgerHasAllReuseStages)
{
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    ReusePattern p;
    p.columnOrder = ColumnOrder::PixelMajor; // forces a reorder
    p.granularity = 15;
    p.numHashes = 4;
    ReuseConvAlgo algo(p, HashMode::Learned, 6);
    algo.fit(sample, geom);
    CostLedger ledger;
    algo.multiply(sample, f.conv.weightMatrix(), geom, &ledger);
    EXPECT_GT(ledger.stage(Stage::Transformation).elemMoves, 0u);
    EXPECT_GT(ledger.stage(Stage::Clustering).macs, 0u);
    EXPECT_GT(ledger.stage(Stage::Gemm).macs, 0u);
    EXPECT_GT(ledger.stage(Stage::Recovering).aluOps, 0u);
}

TEST(ReuseConvAlgo, InstalledInConv2DKeepsAccuracy)
{
    // Swap the algo into a live Conv2D and compare layer outputs.
    ConvFixture f;
    Tensor x = f.data.gatherImages({2});
    Tensor exact_out = f.conv.forward(x, false);
    ConvGeometry geom = f.conv.lastGeometry();

    Tensor sample = f.sampleX();
    ReusePattern p = ReusePattern::conventional(geom, 8);
    auto algo = std::make_shared<ReuseConvAlgo>(p, HashMode::Learned, 7);
    algo->fit(sample, geom);
    f.conv.setAlgo(algo);
    Tensor reuse_out = f.conv.forward(x, false);
    EXPECT_LT(relativeError(exact_out, reuse_out), 0.6);
    f.conv.resetAlgo();
    Tensor back = f.conv.forward(x, false);
    EXPECT_LT(maxAbsDiff(exact_out, back), 1e-5f);
}

TEST(ReuseConvAlgo, HorizontalBatchMismatchCyclesFittedFamilies)
{
    // Regression: with a horizontal pattern fitted on a 2-image sample
    // (8 bands of 256 rows) and run on a 1-image input (4 bands), the
    // fallback used to collapse every band onto families_.front(),
    // discarding the other per-band fits. The fix cycles the fitted
    // full-height families, so bands 0..3 use families 0..3 — exactly
    // what a fit on the first image alone would produce.
    ConvFixture f;
    Tensor x2 = f.sampleX(); // images {0,1}: 2048 x 75
    f.conv.forward(f.data.gatherImages({0}), false);
    Tensor x1 = f.conv.lastIm2col(); // image {0}: 1024 x 75
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    ReusePattern p;
    p.direction = ReuseDirection::Horizontal;
    p.granularity = 256;
    p.numHashes = 8;

    ReuseConvAlgo fit_big(p, HashMode::Learned, 4);
    fit_big.fit(x2, geom);
    Tensor mismatched = fit_big.multiply(x1, w, geom, nullptr);
    EXPECT_EQ(fit_big.lastStats().numPanels, 4u);

    ReuseConvAlgo fit_ref(p, HashMode::Learned, 4);
    fit_ref.fit(x1, geom);
    Tensor reference = fit_ref.multiply(x1, w, geom, nullptr);
    EXPECT_EQ(fit_ref.lastStats().numPanels, 4u);

    // Learned families for bands 0..3 are fitted from the same rows in
    // both samples, so the cycled result matches the reference run.
    EXPECT_LT(maxAbsDiff(reference, mismatched), 1e-6f);
}

TEST(ReuseConvAlgo, HorizontalSmallerFitBatchStillReusesAllBands)
{
    // The reverse mismatch: fit on 1 image (4 bands), run on 2 images
    // (8 bands). The 4 fitted families cycle across all 8 bands, so
    // every band executes reuse (no exact-GEMM fallback).
    ConvFixture f;
    f.conv.forward(f.data.gatherImages({0}), false);
    Tensor x1 = f.conv.lastIm2col();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor x2 = f.sampleX();
    Tensor w = f.conv.weightMatrix();

    ReusePattern p;
    p.direction = ReuseDirection::Horizontal;
    p.granularity = 256;
    p.numHashes = 8;

    ReuseConvAlgo algo(p, HashMode::Learned, 4);
    algo.fit(x1, geom);
    Tensor approx = algo.multiply(x2, w, geom, nullptr);
    EXPECT_EQ(approx.shape(), Shape({x2.shape().rows(), 8u}));
    EXPECT_EQ(algo.lastStats().numPanels, 8u);
    EXPECT_LT(relativeError(matmul(x2, w), approx), 0.5);
}

TEST(ReuseConvAlgo, HorizontalBandHeightMismatchFallsBackToExact)
{
    // A fit sample smaller than the band height fits a single short
    // family (height 300) that matches no full run band (height 512):
    // no fitted family applies and every band runs the exact GEMM.
    ConvFixture f;
    f.conv.forward(f.data.gatherImages({0}), false);
    Tensor x1 = f.conv.lastIm2col();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    const size_t din = x1.shape().cols();
    Tensor small({300, din});
    std::copy(x1.data(), x1.data() + 300 * din, small.data());

    ReusePattern p;
    p.direction = ReuseDirection::Horizontal;
    p.granularity = 512;
    p.numHashes = 8;

    ReuseConvAlgo algo(p, HashMode::Learned, 4);
    algo.fit(small, geom);
    Tensor approx = algo.multiply(x1, w, geom, nullptr);
    EXPECT_EQ(algo.lastStats().numPanels, 0u);
    EXPECT_EQ(algo.lastStats().totalVectors, 0u);
    EXPECT_LT(maxAbsDiff(matmul(x1, w), approx), 1e-4f);
}

TEST(Measurement, FitAndInstallOnNetwork)
{
    Rng rng(50);
    Network net = makeTinyNet(rng);
    SyntheticConfig cfg;
    cfg.numSamples = 24;
    cfg.seed = 31;
    Dataset data = makeSyntheticCifar(cfg);

    Conv2D *conv = net.findConv("conv2");
    ASSERT_NE(conv, nullptr);
    ReusePattern p = ReusePattern::conventional(
        ConvGeometry{1, 8, 16, 16, 16, 3, 3, 1, 1}, 6);
    auto algo = fitAndInstall(net, *conv, p, data.slice(0, 4));
    EXPECT_TRUE(algo->fitted());

    CostModel model(McuSpec::stm32f469i());
    Measurement m = measureNetwork(net, data.slice(4, 16), model);
    EXPECT_GE(m.accuracy, 0.0);
    EXPECT_GT(m.perImageMs, 0.0);
    EXPECT_GT(m.convMs, 0.0);
    EXPECT_LT(m.convMs, m.perImageMs);
}

TEST(Measurement, ReuseChangesLatencyVsExact)
{
    Rng rng(51);
    Network net = makeTinyNet(rng);
    SyntheticConfig cfg;
    cfg.numSamples = 20;
    cfg.seed = 32;
    cfg.noiseStddev = 0.0f;
    Dataset data = makeSyntheticCifar(cfg);
    CostModel model(McuSpec::stm32f469i());

    Measurement exact = measureNetwork(net, data.slice(4, 8), model);

    Conv2D *conv = net.findConv("conv2");
    ASSERT_NE(conv, nullptr);
    ReusePattern p = ReusePattern::conventional(
        ConvGeometry{1, 8, 16, 16, 16, 3, 3, 1, 1}, 2);
    fitAndInstall(net, *conv, p, data.slice(0, 4));
    Measurement reuse = measureNetwork(net, data.slice(4, 8), model);
    EXPECT_NE(exact.convMs, reuse.convMs);
    resetAllConvs(net);
}

} // namespace
} // namespace genreuse
