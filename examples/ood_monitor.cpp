/**
 * @file
 * OOD monitoring demo (paper §5.3.6): a deployed smart-camera model
 * should notice when the world stops looking like its training data.
 * Trains CifarNet on the in-distribution synthetic set, then streams
 * frames through a *guarded* reuse deployment in two regimes — pure ID
 * first, then pure OOD (SVHN-like) — and shows all three detection
 * layers reacting:
 *
 *  1. the classic max-softmax monitor (threshold 0.7) flagging frames,
 *  2. the guard's drift telemetry (EWMA + Page–Hinkley over the
 *     error/budget and cluster-count trajectories) tripping on the
 *     regime change and boosting verification sampling, and
 *  3. the flight recorder journaling the whole trajectory to a
 *     genreuse.events/1 artifact for genreuse_inspect.
 *
 * Run:     ./build/examples/ood_monitor [--events ood_events.json]
 * Then:    ./build/examples/genreuse_inspect ood_events.json
 */

#include <algorithm>
#include <cstdio>

#include "common/args.h"
#include "common/eventlog.h"
#include "core/guard.h"
#include "core/measurement.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "nn/loss.h"
#include "nn/trainer.h"

using namespace genreuse;

namespace {

struct MonitorStats
{
    size_t frames = 0;
    size_t flagged = 0;
};

/** Stream @p data one frame at a time, flagging low-confidence ones. */
MonitorStats
streamFrames(Network &net, const Dataset &data, double threshold)
{
    MonitorStats stats;
    for (size_t i = 0; i < data.size(); ++i) {
        Tensor x = data.gatherImages({i});
        Tensor logits = net.forward(x, false);
        double score = maxSoftmax(logits)[0];
        stats.frames++;
        if (score < threshold)
            stats.flagged++;
    }
    return stats;
}

void
reportDrift(const char *when,
            const std::vector<std::shared_ptr<GuardedReuseConvAlgo>> &algos)
{
    std::printf("%s:\n", when);
    for (const auto &a : algos) {
        std::printf("  %-28s error_ratio ewma=%.4f ph=%.4f%s | "
                    "cluster_ratio ewma=%.4f ph=%.4f%s | verifyRows=%zu\n",
                    a->describe().c_str(), a->errorDrift().ewma(),
                    a->errorDrift().statistic(),
                    a->errorDrift().drifted() ? " TRIPPED" : "",
                    a->clusterDrift().ewma(),
                    a->clusterDrift().statistic(),
                    a->clusterDrift().drifted() ? " TRIPPED" : "",
                    a->verifyRows());
    }
}

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    const std::string events_path =
        args.getString("events", "ood_events.json");

    // Journal everything this run does; the artifact is written at the
    // end (and on any panic if GENREUSE_OBS=events=<path> is also set).
    eventlog::setEnabled(true);

    std::printf("training the in-distribution model...\n");
    Rng rng(30);
    Network net = makeCifarNet(rng);
    SyntheticConfig cfg;
    cfg.numSamples = 192;
    cfg.noiseStddev = 0.15f;
    cfg.seed = 32;
    Dataset train_data = makeSyntheticCifar(cfg);
    cfg.numSamples = 48;
    cfg.seed = 33;
    Dataset id_test = makeSyntheticCifar(cfg);
    Dataset ood_test = makeSyntheticSvhn(48, 34);

    TrainConfig tcfg;
    tcfg.epochs = 3;
    tcfg.batchSize = 16;
    tcfg.sgd.learningRate = 0.01;
    tcfg.sgd.momentum = 0.9;
    train(net, train_data, tcfg);
    std::printf("ID test accuracy: %.4f | OOD 'accuracy' (should be near "
                "chance): %.4f\n\n",
                evaluate(net, id_test, 16), evaluate(net, ood_test, 16));

    // Install *guarded* reuse on both convolutions. The drift config is
    // scaled to the error/budget ratio this workload actually produces
    // (a few 1e-3 in distribution): delta absorbs the ID jitter, and a
    // sustained OOD shift of the same order must trip within the short
    // 48-frame demo stream.
    Dataset fit = train_data.slice(0, 4);
    GuardConfig gcfg;
    gcfg.marginFactor = 4.0; // ID margins sit well below 1.0 at x4
    gcfg.drift.ph.delta = 0.0005;
    gcfg.drift.ph.lambda = 0.005;
    gcfg.drift.ph.warmup = 8;
    // The structural signal jitters per frame; keep its watcher an
    // order of magnitude coarser so only the error trajectory trips.
    gcfg.clusterDrift.ph.delta = 0.01;
    gcfg.clusterDrift.ph.lambda = 0.1;
    std::vector<std::shared_ptr<GuardedReuseConvAlgo>> algos;
    for (auto *conv : net.convLayers()) {
        ReusePattern p;
        p.granularity = conv->kernelSize() * conv->kernelSize();
        p.numHashes = 3;
        algos.push_back(fitAndInstallGuarded(net, *conv, p, fit, gcfg));
    }

    const double threshold = 0.7;
    MonitorStats id_run = streamFrames(net, id_test, threshold);
    std::printf("ID stream:  %zu/%zu frames flagged by max-softmax\n",
                id_run.flagged, id_run.frames);
    reportDrift("drift state after the ID stream (should be quiet)",
                algos);

    MonitorStats ood_run = streamFrames(net, ood_test, threshold);
    std::printf("\nOOD stream: %zu/%zu frames flagged by max-softmax\n",
                ood_run.flagged, ood_run.frames);
    reportDrift("drift state after the OOD stream", algos);

    const GuardStats gs = guard::snapshot();
    std::printf("\nguard: %llu forwards, %llu drift trips, worst "
                "margin %.3f\n",
                static_cast<unsigned long long>(gs.forwards),
                static_cast<unsigned long long>(gs.driftTrips),
                gs.worstMargin);
    const bool any_drift =
        std::any_of(algos.begin(), algos.end(),
                    [](const auto &a) { return a->drifted(); });
    std::printf("drift telemetry %s the ID->OOD regime change; while "
                "tripped the guard verifies up to %zux more rows per "
                "forward.\n",
                any_drift ? "caught" : "did NOT catch",
                gcfg.driftSampleBoost);

    obs::writeFile(events_path, eventlog::toJson("ood_monitor"));
    std::printf("\nflight recorder: %llu events journaled "
                "(%llu overwritten), artifact written to %s\n"
                "inspect it with: ./build/examples/genreuse_inspect %s\n",
                static_cast<unsigned long long>(eventlog::recorded()),
                static_cast<unsigned long long>(eventlog::overwritten()),
                events_path.c_str(), events_path.c_str());
    return 0;
}
