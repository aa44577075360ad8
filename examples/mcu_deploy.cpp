/**
 * @file
 * MCU deployment walkthrough: take SqueezeNet, quantize it to 8-bit
 * fixed point (the paper's deployment format), check that it fits the
 * STM32F469I's flash and SRAM, install generalized reuse on its
 * expand convolutions, and report the per-layer latency budget on both
 * boards — everything an engineer would check before flashing.
 *
 * Run: ./build/examples/mcu_deploy [--obs prof=out.trace.json]
 *
 * --obs takes a GENREUSE_OBS spec (common/obs.h); prof=<path> enables
 * the wall-clock profiler and writes a Chrome trace-event timeline of
 * the whole deployment pass (load in Perfetto / chrome://tracing) at
 * exit.
 *
 * When a fault is armed (GENREUSE_FAULT=<name>) the flight recorder is
 * armed automatically: a postmortem event dump lands in
 * genreuse_blackbox.json (or GENREUSE_OBS=events=<path>) the moment
 * the fault fires, ready for examples/genreuse_inspect.
 */

#include <cstdio>

#include "common/args.h"
#include "common/eventlog.h"
#include "common/faultpoint.h"
#include "common/obs.h"
#include "common/table.h"
#include "core/measurement.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "nn/trainer.h"
#include "quant/fixed_point.h"

using namespace genreuse;

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const Status armed = obs::arm(args.getString("obs"));
    if (!armed.ok())
        fatal("--obs: ", armed.toString());

    // Fault-injection runs are exactly the runs worth a black box: if
    // a fault is armed (GENREUSE_FAULT=...) and no postmortem path was
    // chosen, arm a default one so the crash/degradation trajectory is
    // captured without extra flags.
    if (faultpoint::anyArmed() && !eventlog::blackboxArmed()) {
        eventlog::setBlackboxPath("genreuse_blackbox.json");
        eventlog::setEnabled(true);
        std::printf("fault injection armed: flight recorder will dump "
                    "a postmortem to genreuse_blackbox.json "
                    "(override with GENREUSE_OBS=events=<path>)\n\n");
    }

    // --- model + data ----------------------------------------------
    Rng rng(21);
    Network net = makeSqueezeNet(rng, /*bypass=*/false);
    SyntheticConfig cfg;
    cfg.numSamples = 96;
    cfg.seed = 22;
    Dataset train_data = makeSyntheticCifar(cfg);
    cfg.numSamples = 32;
    cfg.seed = 23;
    Dataset test_data = makeSyntheticCifar(cfg);
    TrainConfig tcfg;
    tcfg.epochs = 2;
    tcfg.batchSize = 16;
    tcfg.sgd.learningRate = 0.01;
    tcfg.sgd.momentum = 0.9;
    train(net, train_data, tcfg);

    // --- quantize weights to 8-bit fixed point -----------------------
    for (auto *conv : net.convLayers()) {
        conv->kernel().value = fakeQuantizeFixedPoint(conv->kernel().value);
        conv->bias().value = fakeQuantizeFixedPoint(conv->bias().value);
    }
    std::printf("quantized %zu convolutions to Q-format int8\n",
                net.convLayers().size());

    // --- memory feasibility on the target board -----------------------
    // Flash holds the weights *plus* the firmware image; the board spec
    // carries that code allowance so fits() accounts for both. The
    // diagnostic report names the failing component and its shortfall
    // in bytes, and a misfit downgrades the deployment to the exact
    // strategy (deployRung) instead of aborting it.
    McuSpec f4 = McuSpec::stm32f469i();
    MemoryEstimate mem = net.memoryEstimate({1, 3, 32, 32});
    std::printf("flash: %.0f KB weights + %.0f KB code = %.0f KB of %.0f "
                "KB\n",
                mem.flashBytes(0) / 1024.0,
                f4.codeAllowanceBytes / 1024.0,
                mem.flashBytes(f4.codeAllowanceBytes) / 1024.0,
                f4.flashBytes / 1024.0);
    FitReport fit_report = mem.diagnose(f4);
    std::printf("memory check: %s\n", fit_report.describe().c_str());
    const bool deploy_reuse =
        deployRung(mem, f4) != GuardRung::ExactFallback;
    std::printf("deploy strategy: %s\n\n",
                deploy_reuse ? "guarded reuse"
                             : "exact GEMM (memory downgrade)");

    // --- install guarded reuse on the expand_3x3 convolutions ----------
    // The guard re-checks the analytic accuracy bound at run time and
    // walks full reuse -> re-cluster -> exact GEMM when it is violated.
    Dataset fit = train_data.slice(0, 4);
    size_t installed = 0;
    for (auto *conv : net.convLayers()) {
        if (conv->name().find("expand_3x3") == std::string::npos)
            continue;
        if (!deploy_reuse)
            continue; // memory downgrade: layers stay on exact GEMM
        ReusePattern p;
        p.granularity = conv->kernelSize() * conv->kernelSize();
        p.numHashes = 3;
        fitAndInstallGuarded(net, *conv, p, fit);
        installed++;
    }
    std::printf("installed guarded reuse on %zu expand_3x3 "
                "convolutions\n\n",
                installed);

    // --- per-board latency budget ----------------------------------------
    TextTable t;
    t.setHeader({"board", "accuracy", "per-image ms", "conv ms"});
    for (const McuSpec &board : {f4, McuSpec::stm32f767zi()}) {
        CostModel model(board);
        Measurement m = measureNetwork(net, test_data, model, 16);
        t.addRow({board.name, formatDouble(m.accuracy, 4),
                  formatDouble(m.perImageMs, 1),
                  formatDouble(m.convMs, 1)});
    }
    std::printf("%s", t.render().c_str());

    // --- per-layer budget on the F4 --------------------------------------
    CostModel model(f4);
    std::printf("\nper-layer reuse-stage breakdown (F4, ms/image):\n");
    TextTable lt;
    lt.setHeader({"layer", "total", "transform", "cluster", "gemm",
                  "recover"});
    for (auto *conv : net.convLayers()) {
        if (conv->name().find("expand_3x3") == std::string::npos)
            continue;
        CostLedger ledger;
        conv->setLedger(&ledger);
        const size_t n = 8;
        for (size_t i = 0; i < n; ++i)
            net.forward(test_data.gatherImages({i}), false);
        conv->setLedger(nullptr);
        lt.addRow({conv->name(),
                   formatDouble(ledger.totalMs(model) / n, 2),
                   formatDouble(
                       ledger.stageMs(Stage::Transformation, model) / n, 2),
                   formatDouble(
                       ledger.stageMs(Stage::Clustering, model) / n, 2),
                   formatDouble(ledger.stageMs(Stage::Gemm, model) / n, 2),
                   formatDouble(
                       ledger.stageMs(Stage::Recovering, model) / n, 2)});
    }
    std::printf("%s", lt.render().c_str());

    // --- guard events observed during measurement -------------------------
    GuardStats gs = guard::snapshot();
    if (!gs.empty()) {
        std::printf("\nguard: %llu forwards, %llu full-reuse, %llu "
                    "re-clusters, %llu exact fallbacks (worst "
                    "error/budget margin %.3f)\n",
                    static_cast<unsigned long long>(gs.forwards),
                    static_cast<unsigned long long>(gs.fullReuse),
                    static_cast<unsigned long long>(gs.reclusters),
                    static_cast<unsigned long long>(gs.exactFallbacks),
                    gs.worstMargin);
    }

    if (eventlog::postmortemCount() > 0) {
        std::printf("\nflight recorder: %llu postmortem dump(s) written "
                    "to %s — inspect with "
                    "./build/examples/genreuse_inspect\n",
                    static_cast<unsigned long long>(
                        eventlog::postmortemCount()),
                    eventlog::blackboxPath().c_str());
    }

    return 0;
}
