/**
 * @file
 * Quickstart: the core generalized-reuse API in ~60 lines.
 *
 *   1. Build a convolution layer and some redundant image data.
 *   2. Run it exactly, then under a generalized reuse pattern.
 *   3. Compare output error, MAC counts, and modeled MCU latency.
 *
 * Build: cmake -B build -G Ninja && cmake --build build
 * Run:   ./build/examples/quickstart [--obs prof=out.trace.json]
 *
 * --obs takes a GENREUSE_OBS spec (common/obs.h); prof=<path> enables
 * the wall-clock profiler and writes a Chrome trace-event timeline
 * (load in Perfetto / chrome://tracing) of the run at exit.
 */

#include <cstdio>

#include "common/args.h"
#include "common/obs.h"
#include "common/trace.h"
#include "core/latency_model.h"
#include "core/reuse_conv.h"
#include "data/synthetic.h"
#include "tensor/tensor_ops.h"

using namespace genreuse;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const Status armed = obs::arm(args.getString("obs"));
    if (!armed.ok())
        fatal("--obs: ", armed.toString());

    // --- a conv layer and a redundant input image -------------------
    Rng rng(7);
    Conv2D conv("conv", 3, 64, 5, 1, 2, rng); // 3->64 channels, 5x5
    SyntheticConfig cfg;
    cfg.numSamples = 2;
    Dataset data = makeSyntheticCifar(cfg);

    // --- exact inference ---------------------------------------------
    Tensor image = data.gatherImages({0});
    Tensor exact = conv.forward(image, /*training=*/false);
    ConvGeometry geom = conv.lastGeometry();
    std::printf("exact convolution: %zu MACs\n", geom.macs());

    // --- define a reuse pattern ---------------------------------------
    // Channel-first order (a neuron vector spans all channels of a few
    // kernel positions), vertical direction, 15-wide vectors, 4 hashes.
    ReusePattern pattern;
    pattern.columnOrder = ColumnOrder::PixelMajor;
    pattern.direction = ReuseDirection::Vertical;
    pattern.granularity = 15;
    pattern.numHashes = 6;
    std::printf("reuse pattern: %s\n", pattern.describe().c_str());

    // --- fit hash families on sample data and install ------------------
    auto algo = std::make_shared<ReuseConvAlgo>(pattern, HashMode::Learned);
    algo->fit(conv.lastIm2col(), geom);
    conv.setAlgo(algo);

    // --- reuse inference, with the op-ledger trace on --------------------
    // The attached ledger collects this layer's counts for pricing; the
    // trace registry mirrors the same counts per layer name so a whole
    // network run can be exported as JSON afterwards.
    CostLedger ledger;
    conv.setLedger(&ledger);
    trace::setEnabled(true);
    Tensor approx = conv.forward(image, /*training=*/false);
    trace::setEnabled(false);
    conv.setLedger(nullptr);

    const ReuseStats &stats = algo->lastStats();
    std::printf("redundancy ratio r_t: %.3f (%zu vectors -> %zu "
                "centroids)\n",
                stats.redundancyRatio(), stats.totalVectors,
                stats.totalCentroids);
    std::printf("MACs: %zu exact -> %zu reuse (%.1fx fewer)\n",
                stats.exactMacs, stats.reuseMacs, stats.macReduction());
    std::printf("output relative error: %.4f\n",
                relativeError(exact, approx));

    // --- model the latency on both paper boards -------------------------
    for (const McuSpec &board :
         {McuSpec::stm32f469i(), McuSpec::stm32f767zi()}) {
        CostModel model(board);
        double reuse_ms = ledger.totalMs(model);
        double exact_ms = exactConvLedger(geom).totalMs(model);
        std::printf("%s: exact %.2f ms -> reuse %.2f ms (%.2fx)\n",
                    board.name.c_str(), exact_ms, reuse_ms,
                    exact_ms / reuse_ms);
    }

    // --- export the per-layer op trace as JSON ---------------------------
    obs::writeFile("trace_quickstart.json", trace::toJson());
    std::printf("wrote per-layer op counts to trace_quickstart.json\n");
    trace::reset();

    return 0;
}
