#include "bench_common.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>

#include "common/logging.h"
#include "common/eventlog.h"
#include "common/metrics.h"
#include "common/obs.h"
#include "common/profiler.h"
#include "common/provenance.h"
#include "core/accuracy_model.h"
#include "core/canary.h"
#include "core/latency_model.h"
#include "core/pareto.h"
#include "core/reuse_audit.h"

namespace genreuse::bench {

bool
smokeMode()
{
    const char *v = std::getenv("GENREUSE_BENCH_SMOKE");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

bool
guardMode()
{
    const char *v = std::getenv("GENREUSE_GUARD");
    return v != nullptr && *v != '\0' && std::strcmp(v, "0") != 0;
}

size_t
evalImages(size_t full)
{
    return smokeMode() ? std::min<size_t>(full, 4) : full;
}

BenchJson::BenchJson(std::string bench_name) : name_(std::move(bench_name))
{
    // A suffix keeps re-runs of the same bench under different modes
    // (e.g. the guard-enabled smoke pass) from clobbering each other's
    // records in the suite directory.
    const char *suffix = std::getenv("GENREUSE_BENCH_NAME_SUFFIX");
    if (suffix && *suffix)
        name_ += suffix;
    const char *dir = std::getenv("GENREUSE_BENCH_JSON_DIR");
    std::string d = (dir && *dir) ? dir : ".";
    if (d.back() != '/')
        d += '/';
    path_ = d + "BENCH_" + name_ + ".json";
}

BenchJson::~BenchJson()
{
    write();
}

void
BenchJson::meta(const std::string &key, const std::string &value)
{
    meta_.push_back({key, true, value, 0.0});
}

void
BenchJson::meta(const std::string &key, double value)
{
    meta_.push_back({key, false, {}, value});
}

void
BenchJson::record(const std::string &key, double value)
{
    results_.push_back({key, false, {}, value});
}

void
BenchJson::addSeries(const std::string &name,
                     const std::vector<SeriesPoint> &series)
{
    series_.emplace_back(name, series);
}

void
BenchJson::extra(const std::string &key, const std::string &raw_json)
{
    extra_.emplace_back(key, raw_json);
}

namespace {

void
writeScalars(JsonWriter &w, const std::vector<BenchJson::Scalar> &items);

} // namespace

void
BenchJson::write()
{
    if (written_)
        return;
    written_ = true;

    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.bench/1");
    w.key("bench").value(name_);
    w.key("smoke").value(smokeMode());
    // Which commit/compiler/SIMD level produced this record — so a
    // diff against a stale or cross-machine baseline says so instead
    // of reading as a performance change (bench_diff compares these).
    w.key("provenance").raw(provenance::toJson());
    w.key("meta");
    writeScalars(w, meta_);
    w.key("results");
    writeScalars(w, results_);
    w.key("series").beginObject();
    for (const auto &[name, series] : series_) {
        w.key(name).beginArray();
        for (const SeriesPoint &p : series) {
            w.beginObject();
            w.key("label").value(p.label);
            w.key("accuracy").value(p.accuracy);
            w.key("latencyMs").value(p.latencyMs);
            w.key("redundancy").value(p.redundancy);
            w.endObject();
        }
        w.endArray();
    }
    w.endObject();
    w.key("extra").beginObject();
    for (const auto &[key, raw] : extra_)
        w.key(key).raw(raw);
    // Guard decisions made while this bench ran (fallbacks taken,
    // re-cluster counts, error-bound margins) ride along so fallback
    // cost can be correlated with the latency numbers.
    if (!guard::snapshot().empty())
        w.key("guardEvents").raw(guard::toJson());
    // Wall-clock span statistics (schema genreuse.prof/1) and process
    // metrics recorded while this bench ran — only when the profiler
    // was enabled (GENREUSE_OBS=prof=...), so default records are
    // unchanged.
    if (profiler::hasSpans())
        w.key("profile").raw(profiler::toJson());
    if (metrics::anyNonZero())
        w.key("metrics").raw(metrics::toJson());
    // Flight-recorder traffic (counts only, no event bodies) — only
    // when the journal was on (GENREUSE_OBS=events=... / setEnabled), so
    // default records are unchanged.
    if (eventlog::recorded() > 0)
        w.key("events").raw(eventlog::summaryJson());
    // Reuse-efficacy audit (observed r_t vs the fit-time model, cluster
    // histograms, guard budget burn — schema genreuse.audit/1) and the
    // accuracy canary's per-layer error tracking ride along when armed
    // (GENREUSE_OBS=audit,canary=...), so BENCH records from an
    // audited run carry the efficacy evidence next to the latencies.
    if (audit::enabled())
        w.key("audit").raw(audit::toJson());
    if (canary::enabled())
        w.key("canary").raw(canary::toJson());
    w.endObject();
    w.endObject();

    if (obs::writeFile(path_, w.str()))
        std::printf("[bench-json] wrote %s\n", path_.c_str());
}

namespace {

void
writeScalars(JsonWriter &w, const std::vector<BenchJson::Scalar> &items)
{
    w.beginObject();
    for (const auto &it : items) {
        w.key(it.key);
        if (it.isString)
            w.value(it.s);
        else
            w.value(it.d);
    }
    w.endObject();
}

} // namespace

const char *
modelName(ModelKind kind)
{
    switch (kind) {
      case ModelKind::CifarNet:
        return "CifarNet";
      case ModelKind::ZfNet:
        return "ZfNet";
      case ModelKind::SqueezeNet:
        return "SqueezeNet (vanilla)";
      case ModelKind::SqueezeNetBypass:
        return "SqueezeNet (bypass)";
      case ModelKind::ResNet18:
        return "ResNet-18";
      default:
        return "?";
    }
}

namespace {

Network
buildModel(ModelKind kind, Rng &rng)
{
    switch (kind) {
      case ModelKind::CifarNet:
        return makeCifarNet(rng);
      case ModelKind::ZfNet:
        return makeZfNet(rng);
      case ModelKind::SqueezeNet:
        return makeSqueezeNet(rng, false);
      case ModelKind::SqueezeNetBypass:
        return makeSqueezeNet(rng, true);
      case ModelKind::ResNet18:
        return makeResNet18(rng, 10, 32);
      default:
        panic("unknown model kind");
    }
}

size_t
defaultTrainSamples(ModelKind kind)
{
    switch (kind) {
      case ModelKind::ZfNet:
        return 160;
      case ModelKind::ResNet18:
        return 64;
      default:
        return 224;
    }
}

size_t
defaultEpochs(ModelKind kind)
{
    switch (kind) {
      case ModelKind::ResNet18:
        return 2;
      case ModelKind::SqueezeNet:
      case ModelKind::SqueezeNetBypass:
        return 4;
      default:
        return 3;
    }
}

double
defaultLearningRate(ModelKind kind)
{
    switch (kind) {
      case ModelKind::SqueezeNet:
      case ModelKind::SqueezeNetBypass:
      case ModelKind::ResNet18:
        return 0.02; // BN-normalized nets take the higher rate
      default:
        return 0.01;
    }
}

} // namespace

Workbench
makeWorkbench(ModelKind kind, uint64_t seed, size_t train_samples,
              size_t test_samples, size_t epochs)
{
    Rng rng(seed);
    Workbench wb(buildModel(kind, rng));

    const bool big_input = kind == ModelKind::ResNet18;
    if (train_samples == 0)
        train_samples = defaultTrainSamples(kind);
    if (epochs == 0)
        epochs = defaultEpochs(kind);
    if (smokeMode()) {
        // Same pipeline, CI-friendly sizes; records are tagged smoke.
        train_samples = std::min<size_t>(train_samples, 48);
        test_samples = std::min<size_t>(test_samples, 24);
        epochs = 1;
    }
    // Noisier, less redundant images than the unit-test defaults so
    // accuracies land below 1.0 and the accuracy axis of the spectra
    // is informative (paper figures span ~0.70-0.85).
    constexpr float kBenchNoise = 0.25f;
    constexpr float kBenchRedundancy = 0.58f;
    if (big_input) {
        wb.train = makeSyntheticImagenet64(train_samples, seed + 1,
                                           kBenchNoise, kBenchRedundancy);
        wb.test = makeSyntheticImagenet64(test_samples, seed + 2,
                                          kBenchNoise, kBenchRedundancy);
    } else {
        SyntheticConfig cfg;
        cfg.noiseStddev = kBenchNoise;
        cfg.redundancy = kBenchRedundancy;
        cfg.numSamples = train_samples;
        cfg.seed = seed + 1;
        wb.train = makeSyntheticCifar(cfg);
        cfg.numSamples = test_samples;
        cfg.seed = seed + 2;
        wb.test = makeSyntheticCifar(cfg);
    }

    TrainConfig tcfg;
    tcfg.epochs = epochs;
    tcfg.batchSize = 16;
    tcfg.sgd.learningRate = defaultLearningRate(kind);
    tcfg.sgd.momentum = 0.9;
    tcfg.sgd.weightDecay = 1e-4;
    tcfg.shuffleSeed = seed + 3;
    train(wb.net, wb.train, tcfg);
    wb.baselineAccuracy = evaluate(wb.net, wb.test, 16);
    return wb;
}

std::vector<Conv2D *>
reuseTargets(Network &net, ModelKind kind)
{
    std::vector<Conv2D *> all = net.convLayers();
    if (kind == ModelKind::SqueezeNet ||
        kind == ModelKind::SqueezeNetBypass) {
        std::vector<Conv2D *> targets;
        for (auto *c : all) {
            if (c->name().find("expand_3x3") != std::string::npos)
                targets.push_back(c);
        }
        return targets;
    }
    if (kind == ModelKind::ResNet18) {
        std::vector<Conv2D *> targets;
        for (auto *c : all) {
            // Skip 1x1 projections: negligible reuse room.
            if (c->name().find(".proj") == std::string::npos &&
                c->name() != "conv1")
                targets.push_back(c);
        }
        return targets;
    }
    return all;
}

namespace {

/**
 * Install a pattern on a layer — wrapped in the runtime guard when
 * GENREUSE_GUARD is set. Returns the reuse algorithm (the guarded
 * wrapper's inner one, via an aliasing pointer) so callers read stats
 * the same way in both modes.
 */
std::shared_ptr<ReuseConvAlgo>
installPattern(Network &net, Conv2D &layer, const ReusePattern &p,
               const Dataset &fit, HashMode mode, uint64_t seed)
{
    if (guardMode()) {
        auto guarded =
            fitAndInstallGuarded(net, layer, p, fit, {}, mode, seed);
        return std::shared_ptr<ReuseConvAlgo>(guarded,
                                              &guarded->inner());
    }
    return fitAndInstall(net, layer, p, fit, mode, seed);
}

} // namespace

SeriesPoint
measurePatternEverywhere(Workbench &wb, ModelKind kind,
                         const ReusePattern &base_pattern,
                         const CostModel &model, size_t eval_images,
                         HashMode mode)
{
    Dataset fit = wb.train.slice(0, std::min<size_t>(4, wb.train.size()));
    for (Conv2D *layer : reuseTargets(wb.net, kind)) {
        // Re-derive the conventional granularity per layer when the
        // base pattern uses granularity 0 as "per-layer tile".
        ReusePattern p = base_pattern;
        installPattern(wb.net, *layer, p, fit, mode, 99);
    }
    Measurement m = measureNetwork(wb.net, wb.test, model, eval_images);
    resetAllConvs(wb.net);

    SeriesPoint pt;
    pt.label = base_pattern.describe();
    pt.accuracy = m.accuracy;
    pt.latencyMs = m.perImageMs;
    pt.redundancy = m.stats.redundancyRatio();
    return pt;
}

std::vector<SeriesPoint>
sotaSpectrum(Workbench &wb, ModelKind kind, const CostModel &model,
             size_t eval_images)
{
    std::vector<SeriesPoint> series;
    Dataset fit = wb.train.slice(0, std::min<size_t>(4, wb.train.size()));
    for (size_t h : {1, 2, 4, 6, 8}) {
        for (Conv2D *layer : reuseTargets(wb.net, kind)) {
            // The conventional unit: a 1-D vector of one kernel tile
            // within one channel, vertical direction, default order.
            ReusePattern p;
            p.granularity = layer->kernelSize() * layer->kernelSize();
            p.numHashes = h;
            installPattern(wb.net, *layer, p, fit,
                           HashMode::Learned, 99);
        }
        Measurement m = measureNetwork(wb.net, wb.test, model, eval_images);
        resetAllConvs(wb.net);
        SeriesPoint pt;
        pt.label = "SOTA H=" + std::to_string(h);
        pt.accuracy = m.accuracy;
        pt.latencyMs = m.perImageMs;
        pt.redundancy = m.stats.redundancyRatio();
        series.push_back(pt);
    }
    return series;
}

ReusePattern
pickPatternAnalytically(Network &net, Conv2D &layer, const Dataset &train,
                        size_t num_hashes, const CostModel &model)
{
    // Capture a batch-1 im2col sample.
    layer.resetAlgo();
    Tensor one = train.gatherImages({0});
    net.forward(one, /*training=*/false);
    Tensor sample = layer.lastIm2col();
    ConvGeometry geom = layer.lastGeometry();
    Tensor w = layer.weightMatrix();

    // Generalized candidate scope, fixed H.
    PatternScope scope = PatternScope::defaultScope(geom);
    scope.hashCounts = {num_hashes};
    scope.blockRows = {1, 2};
    std::vector<ReusePattern> candidates = enumeratePatterns(scope, geom);
    GENREUSE_REQUIRE(!candidates.empty(), "no candidates for ",
                     layer.name());

    // The conventional pattern is the reference: generalized reuse is
    // a superset of conventional reuse, so the choice must never be
    // predicted worse on *both* axes. Score all candidates with the
    // analytic models, then take the best predicted speedup among the
    // candidates whose error bound does not exceed the conventional
    // pattern's; keep the conventional pattern when nothing beats it.
    ReusePattern conventional;
    conventional.granularity = geom.kernelH * geom.kernelW;
    conventional.numHashes = num_hashes;
    double conv_bound =
        accuracyBound(sample, w, conventional, geom, 7).bound;
    double conv_speedup =
        estimateLatency(sample, w, conventional, geom, 7).speedup(model);

    ReusePattern chosen = conventional;
    double best_speedup = conv_speedup;
    for (const ReusePattern &candidate : candidates) {
        AccuracyBound b = accuracyBound(sample, w, candidate, geom, 7);
        if (b.bound > conv_bound * 1.05 + 1e-12)
            continue;
        LatencyEstimate est =
            estimateLatency(sample, w, candidate, geom, 7);
        double speedup = est.speedup(model);
        if (speedup > best_speedup) {
            best_speedup = speedup;
            chosen = candidate;
        }
    }
    return chosen;
}

std::vector<SeriesPoint>
generalizedSpectrum(Workbench &wb, ModelKind kind, const CostModel &model,
                    size_t eval_images)
{
    std::vector<SeriesPoint> series;
    Dataset fit = wb.train.slice(0, std::min<size_t>(4, wb.train.size()));
    for (size_t h : {1, 2, 4, 6}) {
        for (Conv2D *layer : reuseTargets(wb.net, kind)) {
            ReusePattern p =
                pickPatternAnalytically(wb.net, *layer, wb.train, h, model);
            installPattern(wb.net, *layer, p, fit,
                           HashMode::Learned, 99);
        }
        Measurement m = measureNetwork(wb.net, wb.test, model, eval_images);
        resetAllConvs(wb.net);
        SeriesPoint pt;
        pt.label = "Ours H=" + std::to_string(h);
        pt.accuracy = m.accuracy;
        pt.latencyMs = m.perImageMs;
        pt.redundancy = m.stats.redundancyRatio();
        series.push_back(pt);
    }
    return series;
}

SingleLayerResult
measureSingleLayer(Workbench &wb, Conv2D &layer, const ReusePattern &pattern,
                   const CostModel &model, size_t eval_images,
                   HashMode mode)
{
    Dataset fit = wb.train.slice(0, std::min<size_t>(4, wb.train.size()));
    auto algo = installPattern(wb.net, layer, pattern, fit, mode, 99);

    CostLedger ledger;
    layer.setLedger(&ledger);
    const size_t n = std::min(eval_images, wb.test.size());
    size_t correct = 0;
    for (size_t i = 0; i < n; ++i) {
        Tensor x = wb.test.gatherImages({i});
        Tensor logits = wb.net.forward(x, false);
        size_t best = 0;
        for (size_t c = 1; c < logits.shape().cols(); ++c)
            if (logits.at2(0, c) > logits.at2(0, best))
                best = c;
        if (wb.test.labels[i] >= 0 &&
            best == static_cast<size_t>(wb.test.labels[i]))
            correct++;
    }
    layer.setLedger(nullptr);

    SingleLayerResult result;
    result.pattern = pattern;
    result.redundancy = algo->lastStats().redundancyRatio();
    result.accuracy = static_cast<double>(correct) / n;
    result.layerReuseMs = ledger.totalMs(model) / static_cast<double>(n);
    result.layerExactMs =
        exactConvLedger(layer.lastGeometry()).totalMs(model);
    resetAllConvs(wb.net);
    return result;
}

void
printSeries(const std::string &title, const std::vector<SeriesPoint> &series)
{
    TextTable t;
    t.setHeader({"config", "accuracy", "latency(ms)", "r_t"});
    for (const auto &p : series) {
        t.addRow({p.label, formatDouble(p.accuracy, 4),
                  formatDouble(p.latencyMs, 2),
                  formatDouble(p.redundancy, 3)});
    }
    std::printf("%s\n%s\n", title.c_str(), t.render().c_str());
}

SpectrumComparison
compareSpectra(const std::vector<SeriesPoint> &sota,
               const std::vector<SeriesPoint> &ours, double accuracy_slack,
               double latency_slack_ratio)
{
    SpectrumComparison cmp;
    for (const auto &o : ours) {
        for (const auto &s : sota) {
            if (o.accuracy >= s.accuracy - accuracy_slack &&
                o.latencyMs > 0.0) {
                cmp.speedupAtMatchedAccuracy =
                    std::max(cmp.speedupAtMatchedAccuracy,
                             s.latencyMs / o.latencyMs);
            }
            if (o.latencyMs <= s.latencyMs * latency_slack_ratio) {
                cmp.accuracyGainAtMatchedLatency =
                    std::max(cmp.accuracyGainAtMatchedLatency,
                             o.accuracy - s.accuracy);
            }
        }
    }
    return cmp;
}

} // namespace genreuse::bench
