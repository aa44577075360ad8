/**
 * @file
 * Table 3 reproduction: per-layer latency breakdown of reuse on the F4
 * board — Transformation (im2col + layout reorder), Clustering, GEMM,
 * Recovering. The paper's observation: after reuse removes >90% of the
 * GEMM computation, GEMM is only a small fraction of layer time and
 * memory-movement stages dominate.
 *
 * This bench doubles as the op-ledger reconciliation check: every
 * layer's breakdown is measured three ways — the layer-attached
 * CostLedger, the trace registry's per-layer ledger, and the sum of
 * per-image estimateLatencyFitted() predictions — and the bench aborts
 * if the trace disagrees with the attached ledger at all, or if the
 * analytic prediction drifts more than 1% from the measured total.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench_common.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/trace.h"
#include "core/latency_model.h"

using namespace genreuse;
using namespace genreuse::bench;

namespace {

/** Map a profiler span path to the Table 3 stage it times (by the
 *  leaf name's suffix), or NumStages for non-stage spans. */
Stage
stageOfSpan(const std::string &path)
{
    const size_t slash = path.rfind('/');
    const std::string leaf =
        slash == std::string::npos ? path : path.substr(slash + 1);
    const size_t dot = leaf.rfind('.');
    const std::string kind =
        dot == std::string::npos ? leaf : leaf.substr(dot + 1);
    if (kind == "im2col" || kind == "transform")
        return Stage::Transformation;
    if (kind == "cluster")
        return Stage::Clustering;
    if (kind == "gemm" || kind == "verify")
        return Stage::Gemm;
    if (kind == "recover" || kind == "bias")
        return Stage::Recovering;
    return Stage::NumStages;
}

/**
 * When the profiler is live (GENREUSE_OBS=prof=...), compare the host
 * wall-clock share of each pipeline stage against the cost model's
 * cycle-priced share. Absolute times differ by machine, so only the
 * distribution is compared — both views must agree on the paper's
 * headline shape (memory stages dominate, GEMM is minor).
 */
void
reconcileWallClock(BenchJson &bj, const double model_ms[])
{
    constexpr size_t kStages = static_cast<size_t>(Stage::NumStages);
    double wall_ms[kStages] = {};
    for (const auto &e : profiler::snapshot()) {
        const Stage s = stageOfSpan(e.path);
        if (s != Stage::NumStages)
            wall_ms[static_cast<size_t>(s)] +=
                static_cast<double>(e.stats.sum) / 1e6;
    }
    double wall_total = 0.0, model_total = 0.0;
    for (size_t s = 0; s < kStages; ++s) {
        wall_total += wall_ms[s];
        model_total += model_ms[s];
    }
    if (wall_total <= 0.0 || model_total <= 0.0)
        return;

    TextTable t;
    t.setHeader({"Stage", "wall(ms)", "wall share", "model(ms)",
                 "model share"});
    JsonWriter w;
    w.beginObject();
    for (size_t s = 0; s < kStages; ++s) {
        const char *name = stageName(static_cast<Stage>(s));
        const double ws = wall_ms[s] / wall_total;
        const double ms = model_ms[s] / model_total;
        t.addRow({name, formatDouble(wall_ms[s], 2), formatPercent(ws),
                  formatDouble(model_ms[s], 2), formatPercent(ms)});
        w.key(name).beginObject();
        w.key("wallMs").value(wall_ms[s]);
        w.key("wallShare").value(ws);
        w.key("modelMs").value(model_ms[s]);
        w.key("modelShare").value(ms);
        w.endObject();
    }
    w.endObject();
    std::printf("\nPer-stage wall clock (profiler spans, this host) vs "
                "cost model (MCU cycles):\n%s\n",
                t.render().c_str());
    bj.extra("wallVsModel", w.str());
}

void
breakdownModel(ModelKind kind, const CostModel &model, TextTable &t,
               BenchJson &bj, double &worst_drift, double model_ms[])
{
    Workbench wb = makeWorkbench(kind);
    Dataset fit = wb.train.slice(0, 4);
    bool first_row = true;
    for (Conv2D *layer : reuseTargets(wb.net, kind)) {
        ReusePattern p =
            pickPatternAnalytically(wb.net, *layer, wb.train, 3, model);
        auto algo = fitAndInstall(wb.net, *layer, p, fit);

        // Measure with both sinks live: the attached ledger and the
        // trace registry must see identical counts.
        CostLedger ledger;
        layer->setLedger(&ledger);
        trace::reset();
        trace::setEnabled(true);
        const size_t n = evalImages(16);
        std::vector<Tensor> images;
        images.reserve(n);
        for (size_t i = 0; i < n; ++i) {
            wb.net.forward(wb.test.gatherImages({i}), false);
            images.push_back(layer->lastIm2col());
        }
        trace::setEnabled(false);
        layer->setLedger(nullptr);

        CostLedger traced(trace::layerLedger(layer->name()));
        GENREUSE_REQUIRE(traced == ledger,
                         "trace ledger diverges from the attached "
                         "ledger for ", layer->name());

        // Re-predict each image with the very same fitted algo: the
        // analytic path must account for exactly what the runtime did.
        Tensor w = layer->weightMatrix();
        ConvGeometry geom = layer->lastGeometry();
        CostLedger predicted;
        for (const Tensor &im : images) {
            LatencyEstimate est = estimateLatencyFitted(*algo, im, w, geom);
            predicted.merge(est.reuseLedger);
        }
        resetAllConvs(wb.net);

        const double measured_ms = ledger.totalMs(model);
        const double predicted_ms = predicted.totalMs(model);
        const double drift =
            std::abs(measured_ms - predicted_ms) / predicted_ms;
        worst_drift = std::max(worst_drift, drift);
        GENREUSE_REQUIRE(drift <= 0.01,
                         "ledger/latency-model reconciliation failed for ",
                         layer->name(), ": measured ", measured_ms,
                         " ms vs predicted ", predicted_ms, " ms (",
                         100.0 * drift, "% drift)");

        double total = measured_ms / n;
        double tf = ledger.stageMs(Stage::Transformation, model) / n;
        double cl = ledger.stageMs(Stage::Clustering, model) / n;
        double mm = ledger.stageMs(Stage::Gemm, model) / n;
        double rc = ledger.stageMs(Stage::Recovering, model) / n;
        model_ms[static_cast<size_t>(Stage::Transformation)] += tf * n;
        model_ms[static_cast<size_t>(Stage::Clustering)] += cl * n;
        model_ms[static_cast<size_t>(Stage::Gemm)] += mm * n;
        model_ms[static_cast<size_t>(Stage::Recovering)] += rc * n;
        t.addRow({first_row ? modelName(kind) : "", layer->name(),
                  formatDouble(total, 2), formatDouble(tf, 2),
                  formatDouble(cl, 2), formatDouble(mm, 2),
                  formatDouble(rc, 2)});
        first_row = false;

        JsonWriter row;
        row.beginObject();
        row.key("layer").value(layer->name());
        row.key("pattern").value(p.describe());
        row.key("latencyMs").value(total);
        row.key("transformationMs").value(tf);
        row.key("clusteringMs").value(cl);
        row.key("gemmMs").value(mm);
        row.key("recoveringMs").value(rc);
        row.key("predictedMs").value(predicted_ms / n);
        row.key("driftPct").value(100.0 * drift);
        row.endObject();
        bj.extra(std::string(modelName(kind)) + "/" + layer->name(),
                 row.str());
    }
    t.addSeparator();
}

} // namespace

int
main()
{
    std::printf("=== Table 3: performance breakdown of reuse (unit: ms, "
                "STM32F469I) ===\n\n");
    CostModel model(McuSpec::stm32f469i());
    BenchJson bj("table3_perf_breakdown");
    bj.meta("board", model.spec().name);
    double worst_drift = 0.0;
    double model_ms[static_cast<size_t>(Stage::NumStages)] = {};
    TextTable t;
    t.setHeader({"Network", "ConvLayer", "Latency", "Transformation",
                 "Clustering", "GEMM", "Recovering"});
    breakdownModel(ModelKind::CifarNet, model, t, bj, worst_drift,
                   model_ms);
    breakdownModel(ModelKind::SqueezeNet, model, t, bj, worst_drift,
                   model_ms);
    std::printf("%s\n", t.render().c_str());
    if (profiler::hasSpans())
        reconcileWallClock(bj, model_ms);
    std::printf("Expected shape (paper §5.3.5): GEMM is a minor share; "
                "transformation/recovering (memory ops) dominate.\n");
    std::printf("reconciliation: trace == attached ledger on every layer; "
                "worst model-vs-measured drift %.4f%% (limit 1%%)\n",
                100.0 * worst_drift);
    bj.record("worstDriftPct", 100.0 * worst_drift);
    return 0;
}
