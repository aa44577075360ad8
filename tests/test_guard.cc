/**
 * @file
 * Tests for the runtime reuse guard: the degradation ladder
 * (full reuse -> re-cluster -> exact GEMM), the bit-for-bit exact
 * fallback (the Table-4-style OOD requirement), non-finite activation
 * handling, the nan_activation fault, deploy-time downgrades, guard
 * event accounting, and the NaN-singleton LSH repair.
 */

#include <cmath>
#include <cstring>
#include <gtest/gtest.h>
#include <limits>
#include <new>

#include "common/faultpoint.h"
#include "common/metrics.h"
#include "core/guard.h"
#include "core/measurement.h"
#include "core/reuse_conv.h"
#include "core/reuse_dense.h"
#include "data/synthetic.h"
#include "lsh/clustering.h"
#include "models/models.h"
#include "tensor/gemm.h"
#include "tensor/tensor_ops.h"
#include "test_util.h"

namespace genreuse {
namespace {

/** Every test starts and ends disarmed with zeroed guard counters and
 *  a zeroed metrics registry, so no assertion here depends on which
 *  tests (or how many fixtures) ran earlier in the process. */
struct GuardSandbox
{
    GuardSandbox()
    {
        faultpoint::disarm();
        guard::reset();
        metrics::reset();
    }
    ~GuardSandbox()
    {
        faultpoint::disarm();
        guard::reset();
        metrics::reset();
    }
};

/** Same synthetic conv workload as test_reuse_conv.cc. */
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

bool
bitwiseEqual(const Tensor &a, const Tensor &b)
{
    return a.shape() == b.shape() &&
           std::memcmp(a.data(), b.data(),
                       a.size() * sizeof(float)) == 0;
}

TEST(Guard, FullReuseWhenErrorWithinBudget)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardConfig cfg;
    cfg.marginFactor = 1e9; // in-distribution input must be accepted
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 8), cfg,
                              HashMode::Learned, 1);
    algo.fit(sample, geom);
    Tensor y = algo.multiply(sample, w, geom, nullptr);
    EXPECT_EQ(y.shape(), Shape({sample.shape().rows(), 8u}));
    EXPECT_EQ(algo.lastRung(), GuardRung::FullReuse);

    GuardStats s = guard::snapshot();
    EXPECT_EQ(s.forwards, 1u);
    EXPECT_EQ(s.fullReuse, 1u);
    EXPECT_EQ(s.exactFallbacks, 0u);
    EXPECT_GT(s.lastErrorBudget, 0.0);
    EXPECT_LE(s.lastMeasuredError, s.lastErrorBudget);
}

TEST(Guard, LadderWalksToBitIdenticalExactFallback)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    // A coarse pattern (2 hashes) has real reconstruction error; an
    // absurdly small margin makes any measured error a violation, so
    // the guard must re-cluster maxReclusters times and then return
    // the exact product.
    GuardConfig cfg;
    cfg.marginFactor = 1e-18;
    cfg.maxReclusters = 2;
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 2), cfg,
                              HashMode::Learned, 1);
    algo.fit(sample, geom);
    Tensor y = algo.multiply(sample, w, geom, nullptr);
    EXPECT_EQ(algo.lastRung(), GuardRung::ExactFallback);

    GuardStats s = guard::snapshot();
    EXPECT_EQ(s.forwards, 1u);
    EXPECT_EQ(s.reclusters, 2u);
    EXPECT_EQ(s.exactFallbacks, 1u);
    EXPECT_GT(s.worstMargin, 1.0);

    // Table-4-style OOD requirement: the fallback is the exact
    // baseline bit for bit, not another approximation.
    Tensor exact = ExactConvAlgo().multiply(sample, w, geom, nullptr);
    EXPECT_TRUE(bitwiseEqual(y, exact));
}

TEST(Guard, NonFiniteInputDowngradesToExact)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 8), {},
                              HashMode::Learned, 1);
    algo.fit(sample, geom);

    Tensor poisoned = sample;
    poisoned.data()[7] = std::numeric_limits<float>::quiet_NaN();
    Tensor y = algo.multiply(poisoned, w, geom, nullptr);
    EXPECT_EQ(algo.lastRung(), GuardRung::ExactFallback);

    GuardStats s = guard::snapshot();
    EXPECT_EQ(s.nonFiniteInputs, 1u);
    EXPECT_EQ(s.exactFallbacks, 1u);

    // Exact on the same poisoned input, NaNs and all (memcmp, since
    // NaN != NaN defeats numeric comparison).
    Tensor exact = ExactConvAlgo().multiply(poisoned, w, geom, nullptr);
    EXPECT_TRUE(bitwiseEqual(y, exact));
}

TEST(Guard, NewGuardAtAFreedGuardsAddressStartsClean)
{
    // Per-stream guard state is found by owner address; a guard built
    // where a freed one lived must not inherit its rung or detectors.
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();
    const ReusePattern p = ReusePattern::conventional(geom, 8);

    alignas(GuardedReuseConvAlgo) unsigned char
        slot[sizeof(GuardedReuseConvAlgo)];
    auto *old = new (slot) GuardedReuseConvAlgo(p, {}, HashMode::Learned, 1);
    old->fit(sample, geom);
    Tensor poisoned = sample;
    poisoned.data()[7] = std::numeric_limits<float>::quiet_NaN();
    old->multiply(poisoned, w, geom, nullptr);
    ASSERT_EQ(old->lastRung(), GuardRung::ExactFallback);
    old->~GuardedReuseConvAlgo();

    auto *reborn =
        new (slot) GuardedReuseConvAlgo(p, {}, HashMode::Learned, 1);
    ASSERT_EQ(static_cast<void *>(reborn), static_cast<void *>(old));
    EXPECT_EQ(reborn->lastRung(), GuardRung::FullReuse);
    EXPECT_FALSE(reborn->drifted());
    reborn->~GuardedReuseConvAlgo();
}

TEST(Guard, NanActivationFaultInjectsAndFallsBack)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 8), {},
                              HashMode::Learned, 1);
    algo.fit(sample, geom);

    Tensor y;
    {
        faultpoint::Scoped scoped(faultpoint::Fault::NanActivation, 21);
        y = algo.multiply(sample, w, geom, nullptr);
    }
    EXPECT_EQ(algo.lastRung(), GuardRung::ExactFallback);
    EXPECT_EQ(guard::snapshot().nonFiniteInputs, 1u);

    // The injection is deterministic: exact GEMM on a copy corrupted
    // with the same seed reproduces the guarded output bit for bit.
    Tensor corrupted = sample;
    corruptWithNan(corrupted, 21);
    Tensor exact = ExactConvAlgo().multiply(corrupted, w, geom, nullptr);
    EXPECT_TRUE(bitwiseEqual(y, exact));
}

TEST(Guard, DisabledGuardIsPassThrough)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardConfig cfg;
    cfg.enabled = false;
    GuardedReuseConvAlgo guarded(ReusePattern::conventional(geom, 6),
                                 cfg, HashMode::Learned, 1);
    guarded.fit(sample, geom);
    Tensor y = guarded.multiply(sample, w, geom, nullptr);

    ReuseConvAlgo plain(ReusePattern::conventional(geom, 6),
                        HashMode::Learned, 1);
    plain.fit(sample, geom);
    Tensor ref = plain.multiply(sample, w, geom, nullptr);
    EXPECT_TRUE(bitwiseEqual(y, ref));

    // Pass-through records nothing: off-path cost is one branch.
    EXPECT_EQ(guard::snapshot().forwards, 0u);
}

TEST(Guard, VerificationCostIsChargedToTheLedger)
{
    GuardSandbox sandbox;
    ConvFixture f;
    Tensor sample = f.sampleX();
    ConvGeometry geom = f.conv.lastGeometry();
    Tensor w = f.conv.weightMatrix();

    GuardConfig cfg;
    cfg.marginFactor = 1e9;
    GuardedReuseConvAlgo guarded(ReusePattern::conventional(geom, 6),
                                 cfg, HashMode::Learned, 1);
    guarded.fit(sample, geom);
    CostLedger guarded_ledger;
    guarded.multiply(sample, w, geom, &guarded_ledger);

    ReuseConvAlgo plain(ReusePattern::conventional(geom, 6),
                        HashMode::Learned, 1);
    plain.fit(sample, geom);
    CostLedger plain_ledger;
    plain.multiply(sample, w, geom, &plain_ledger);

    // The sampled verification rows are exact GEMM work, priced like
    // any other op so guarded latencies include the guard's own cost.
    EXPECT_GT(guarded_ledger.stage(Stage::Gemm).macs,
              plain_ledger.stage(Stage::Gemm).macs);
}

TEST(Guard, ToJsonCarriesSchemaAndRung)
{
    GuardSandbox sandbox;
    guard::recordForward(GuardRung::Recluster, 1.0, 2.0);
    std::string json = guard::toJson();
    EXPECT_NE(json.find("genreuse.guard/1"), std::string::npos);
    EXPECT_NE(json.find("\"reclusterWins\": 1"), std::string::npos);
    EXPECT_NE(json.find("\"lastRung\": \"recluster\""),
              std::string::npos);
    EXPECT_FALSE(guard::snapshot().empty());
    guard::reset();
    EXPECT_TRUE(guard::snapshot().empty());
}

TEST(Guard, FitAndInstallGuardedMeasuresThroughWrapper)
{
    GuardSandbox sandbox;
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
    GuardConfig gcfg;
    gcfg.marginFactor = 1e9;
    auto algo =
        fitAndInstallGuarded(net, *conv, p, data.slice(0, 4), gcfg);
    EXPECT_TRUE(algo->inner().fitted());
    EXPECT_NE(algo->describe().find("guard["), std::string::npos);

    CostModel model(McuSpec::stm32f469i());
    Measurement m = measureNetwork(net, data.slice(4, 8), model);
    EXPECT_GE(m.accuracy, 0.0);
    EXPECT_GT(m.convMs, 0.0);
    // measureNetwork reads reuse stats through the guard wrapper.
    EXPECT_GT(m.stats.totalVectors, 0u);
    EXPECT_GT(guard::snapshot().forwards, 0u);
}

TEST(Guard, ReuseDenseFallsBackOnNonFiniteInput)
{
    GuardSandbox sandbox;
    Rng rng(9);
    ReuseDense layer("fc", 32, 10, rng);
    Tensor sample = Tensor::randomNormal({16, 32}, rng);
    layer.fitReuse(sample, 8, 6);

    Tensor clean = Tensor::randomNormal({2, 32}, rng);
    layer.forward(clean, false);
    EXPECT_EQ(layer.lastRung(), GuardRung::FullReuse);

    Tensor poisoned = clean;
    poisoned.data()[3] = std::numeric_limits<float>::infinity();
    Tensor y = layer.forward(poisoned, false);
    EXPECT_EQ(layer.lastRung(), GuardRung::ExactFallback);
    EXPECT_GE(guard::snapshot().nonFiniteInputs, 1u);

    // The fallback is the layer's own exact path on the same input.
    layer.disableReuse();
    Tensor exact = layer.forward(poisoned, false);
    EXPECT_TRUE(bitwiseEqual(y, exact));
}

TEST(Guard, LshRoutesNonFiniteRowsToSingletons)
{
    GuardSandbox sandbox;
    // All-positive hyperplanes with zero bias: the two all-negative
    // rows project negative (bit 0) and the NaN row's comparison is
    // false (bit 0), so all three collide into one cluster whose mean
    // would be poisoned. The repair pass must peel the NaN row into a
    // singleton and leave the finite pair's centroid clean.
    Tensor x({3, 4},
             {-1.0f, -2.0f, -1.5f, -0.5f, //
              -1.0f, -2.0f, -1.5f, -0.5f, //
              std::numeric_limits<float>::quiet_NaN(), 1.0f, 2.0f, 3.0f});
    HashFamily family(Tensor({2, 4}, 1.0f));
    StridedItems items{x.data(), 3, 4, 4, 1};

    ClusterResult r = clusterBySignature(items, family, nullptr);
    EXPECT_TRUE(clusterTableValid(r));
    EXPECT_EQ(r.numClusters(), 2u);
    EXPECT_EQ(r.assignments[0], r.assignments[1]);
    EXPECT_NE(r.assignments[0], r.assignments[2]);
    EXPECT_EQ(r.sizes[r.assignments[2]], 1u);

    // The finite pair's centroid must be finite (the NaN no longer
    // smears into it) and equal to the pair's common value.
    const uint32_t c = r.assignments[0];
    for (size_t j = 0; j < 4; ++j) {
        EXPECT_TRUE(std::isfinite(r.centroids.at2(c, j)));
        EXPECT_FLOAT_EQ(r.centroids.at2(c, j), x.at2(0, j));
    }
}

TEST(Guard, DeployRungDowngradesInsteadOfAborting)
{
    GuardSandbox sandbox;
    MemoryEstimate est;
    // An estimate that cannot fit any board's SRAM.
    est.layers.push_back({"conv1", 1024, 1u << 30, 1u << 30, 0});
    McuSpec board = McuSpec::stm32f469i();
    EXPECT_EQ(deployRung(est, board), GuardRung::ExactFallback);
    EXPECT_EQ(guard::snapshot().deployDowngrades, 1u);
}

} // namespace
} // namespace genreuse
