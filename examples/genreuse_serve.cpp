/**
 * @file
 * genreuse_serve — serve-engine demo CLI: N concurrent guarded-reuse
 * streams behind a bounded request queue, driven by the open-loop
 * load generator, with the latency percentiles and per-stream guard
 * state printed at the end.
 *
 * Build: cmake -B build && cmake --build build
 * Run:   ./build/examples/genreuse_serve [--workers 2] [--requests 64]
 *            [--rps 50] [--queue 16] [--policy block|reject]
 *            [--poisson] [--events out.events.json]
 *            [--deadline 50ms] [--overload-delay 20ms]
 *            [--health out.health.json] [--obs <spec>]
 *            [--slo 20ms[:interval]]
 *
 * --obs arms observers with the GENREUSE_OBS grammar (common/obs.h),
 * e.g. --obs telemetry=out.tsdb.jsonl@100ms,rtrace=out.rtrace.json,
 * audit,canary=0.05. telemetry streams genreuse.tsdb/1 JSONL samples
 * while the run is live (tail with `genreuse_inspect --follow`);
 * rtrace records per-request span decompositions and writes a
 * genreuse.rtrace/1 artifact (slowest-request table via
 * genreuse_inspect, Chrome trace events via chrome://tracing); canary
 * samples a fraction of guarded forwards onto the exact path and
 * tracks the true relative error per layer; audit arms the
 * reuse-efficacy audit. --slo P99MS runs the burn-rate monitor with
 * the default objective set (p99 latency at P99MS, shed/fail
 * availability, canary accuracy floor), holding health Degraded while
 * any alert fires. All of these publish telemetry sources, so their
 * panels appear on the --follow dashboard.
 *
 * Each worker owns one stream: a guarded reuse convolution fitted
 * with the same seed, so all streams are bit-identical replicas and
 * any divergence between them is a bug (or an injected fault — try
 * GENREUSE_FAULT=nan_activation@2 to trip only stream 2's ladder).
 * --events dumps the event journal; each event carries its stream id,
 * and `genreuse_inspect --events` can demux the interleaved log.
 */

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "common/args.h"
#include "common/eventlog.h"
#include "common/metrics.h"
#include "common/obs.h"
#include "common/rtrace.h"
#include "common/telemetry.h"
#include "core/canary.h"
#include "core/guard.h"
#include "core/reuse_audit.h"
#include "data/synthetic.h"
#include "nn/conv2d.h"
#include "serve/loadgen.h"
#include "serve/serve.h"
#include "serve/slo.h"

using namespace genreuse;
using namespace genreuse::serve;

namespace {

/** One stream: a conv layer with a guarded reuse algorithm installed.
 *  infer() runs on exactly one worker with the context bound. */
class GuardedConvStream : public InferenceStream
{
  public:
    GuardedConvStream(uint32_t stream_id, const Dataset &fit_data)
        : rng_(7), conv_("conv", 3, 32, 5, 1, 2, rng_)
    {
        (void)stream_id; // identical replicas: same seeds everywhere
        Tensor image = fit_data.gatherImages({0});
        conv_.forward(image, /*training=*/false);

        ReusePattern pattern;
        pattern.granularity = conv_.kernelSize() * conv_.kernelSize();
        pattern.numHashes = 4;
        guard_ = std::make_shared<GuardedReuseConvAlgo>(
            pattern, GuardConfig{}, HashMode::Learned, /*seed=*/99);
        guard_->fit(conv_.lastIm2col(), conv_.lastGeometry());
        // Raw-API fit skips applyGuardedReusePattern's name stamping;
        // label the audit/canary slot so dashboards show "conv", not a
        // blank cell.
        audit::setName(&guard_->inner(), conv_.name());
        conv_.setAlgo(guard_);
    }

    Tensor
    infer(const Tensor &input, StreamContext &) override
    {
        return conv_.forward(input, /*training=*/false);
    }

    GuardRung
    lastRung() const override
    {
        return guard_->lastRung();
    }

  private:
    Rng rng_;
    Conv2D conv_;
    std::shared_ptr<GuardedReuseConvAlgo> guard_;
};

} // namespace

int
main(int argc, char **argv)
{
    ArgParser args(argc, argv);
    ServeConfig cfg;
    cfg.workers = static_cast<size_t>(args.getInt("workers", 2));
    cfg.queueCapacity = static_cast<size_t>(args.getInt("queue", 16));
    cfg.name = "serve";
    const std::string policy = args.getString("policy", "block");
    cfg.policy =
        policy == "reject" ? AdmitPolicy::Reject : AdmitPolicy::Block;
    // Failure-containment knobs: a default per-request deadline sheds
    // queue-expired work, a queue-delay threshold arms the overload
    // controller (0 = both off).
    cfg.defaultDeadlineNs = args.getDurationNs("deadline", 0);
    cfg.overloadQueueDelayNs = args.getDurationNs("overload-delay", 0);

    LoadGenConfig lg;
    lg.requests = static_cast<size_t>(args.getInt("requests", 64));
    lg.rps = args.getDouble("rps", 50.0);
    lg.poisson = args.has("poisson");
    const std::string events_path = args.getString("events");
    if (!events_path.empty())
        eventlog::setEnabled(true);

    // Observers are armed BEFORE the engine exists: the telemetry
    // series brackets its whole lifetime (the engine registers its
    // source at construction) and the very first fitted stream is
    // audited/canaried.
    const Status armed = obs::arm(args.getString("obs"));
    if (!armed.ok()) {
        std::fprintf(stderr, "--obs: %s\n", armed.toString().c_str());
        return 2;
    }

    SyntheticConfig data_cfg;
    data_cfg.numSamples = 8;
    Dataset data = makeSyntheticCifar(data_cfg);

    std::printf("serving %zu stream(s), queue %zu (%s), %zu requests "
                "at %.1f rps (%s arrivals)\n",
                cfg.workers, cfg.queueCapacity, policy.c_str(),
                lg.requests, lg.rps, lg.poisson ? "Poisson" : "uniform");

    ServeEngine engine(cfg, [&data](uint32_t stream_id) {
        return std::make_unique<GuardedConvStream>(stream_id, data);
    });

    // SLO burn-rate monitor: --slo gives the p99 latency objective,
    // the rest of the default set (shed/fail availability, canary
    // accuracy) rides along. While any alert fires the engine reports
    // Degraded.
    std::unique_ptr<SloMonitor> slo;
    const uint64_t slo_p99_ns = args.getDurationNs("slo", 0);
    if (slo_p99_ns > 0) {
        slo = std::make_unique<SloMonitor>(
            engine, defaultSloSpecs(static_cast<double>(slo_p99_ns) / 1e6));
        slo->start(args.getDurationNs("slo-interval", 200'000'000));
    }

    LatencyReport rep = runOpenLoop(engine, lg, [&data](size_t i) {
        return data.gatherImages({i % data.size()});
    });

    std::printf("\ncompleted %zu/%zu (rejected %zu)\n", rep.completed,
                rep.offered, rep.rejected);
    std::printf("latency p50 %.2f ms  p95 %.2f ms  p99 %.2f ms  "
                "p99.9 %.2f ms  max %.2f ms\n",
                rep.p50Ms, rep.p95Ms, rep.p99Ms, rep.p999Ms, rep.maxMs);
    std::printf("breakdown: queue wait mean %.2f ms / p95 %.2f ms | "
                "service mean %.2f ms / p95 %.2f ms\n",
                rep.queueWaitMeanMs, rep.queueWaitP95Ms,
                rep.serviceMeanMs, rep.serviceP95Ms);
    std::printf("throughput %.1f rps over %.0f ms\n", rep.throughputRps,
                rep.wallMs);

    for (size_t i = 0; i < engine.numStreams(); ++i) {
        // Guard state is per-stream: bind the stream's context so
        // lastRung() reads that stream's ladder, not this thread's.
        StreamContext::Bind bind(engine.streamContext(i));
        std::printf("stream %zu: last rung %s\n", i + 1,
                    rungName(engine.stream(i).lastRung()));
    }

    if (slo != nullptr) {
        // One last deterministic evaluation, then the final state.
        slo->stop();
        slo->tick();
        std::printf("\nSLOs after %llu ticks:\n",
                    static_cast<unsigned long long>(slo->ticks()));
        for (const SloState &st : slo->states())
            std::printf("  %-20s %-8s fast %.2fx slow %.2fx "
                        "(%llu edges, %llu ticks firing)\n",
                        st.spec.name.c_str(),
                        st.firing ? "FIRING" : "ok", st.fastBurnRate,
                        st.slowBurnRate,
                        static_cast<unsigned long long>(st.transitions),
                        static_cast<unsigned long long>(st.ticksFiring));
    }
    if (canary::enabled())
        std::printf("canary: %llu samples, %llu budget breaches\n",
                    static_cast<unsigned long long>(
                        canary::totalSamples()),
                    static_cast<unsigned long long>(
                        canary::totalBreaches()));

    // Snapshot health BEFORE shutdown: afterwards the engine reports
    // "draining", which is true but not what an operator probing a
    // live process wants to see.
    const std::string health_path = args.getString("health");
    if (!health_path.empty() &&
        obs::writeFile(health_path, engine.healthJson()))
        std::printf("health snapshot -> %s (render with "
                    "genreuse_inspect %s)\n",
                    health_path.c_str(), health_path.c_str());

    engine.shutdown();
    ServeStats st = engine.stats();
    std::printf("engine: accepted %llu, completed %llu, rejected %llu\n",
                static_cast<unsigned long long>(st.accepted),
                static_cast<unsigned long long>(st.completed),
                static_cast<unsigned long long>(st.rejected));
    std::printf("        shed %llu, failed %llu, contained panics %llu, "
                "quarantines %llu, respawns %llu\n",
                static_cast<unsigned long long>(st.shed),
                static_cast<unsigned long long>(st.failed),
                static_cast<unsigned long long>(st.containedPanics),
                static_cast<unsigned long long>(st.quarantines),
                static_cast<unsigned long long>(st.respawns));
    std::printf("        engine-side latency (HDR) p50 %.2f ms  p95 "
                "%.2f ms  p99 %.2f ms  p99.9 %.2f ms\n",
                st.p50Ms, st.p95Ms, st.p99Ms, st.p999Ms);

    if (telemetry::enabled()) {
        // path() goes away at stop().
        const std::string tsdb_path = telemetry::path();
        telemetry::stop(); // final shutdown-flush line, then close
        std::printf("telemetry series -> %s (live view: "
                    "genreuse_inspect --follow %s)\n",
                    tsdb_path.c_str(), tsdb_path.c_str());
    }
    const std::string rtrace_path = rtrace::exportPath();
    if (!rtrace_path.empty()) {
        // Write now (and disarm the exit writer) so the artifact exists
        // before the final message points at it.
        obs::writeFile(rtrace_path, rtrace::toJson());
        rtrace::setExport("");
        std::printf("request trace -> %s (slowest requests: "
                    "genreuse_inspect --slowest 10 %s; timeline: "
                    "chrome://tracing)\n",
                    rtrace_path.c_str(), rtrace_path.c_str());
    }

    if (!events_path.empty()) {
        obs::writeFile(events_path, eventlog::toJson("genreuse_serve"));
        std::printf("event journal -> %s (stream-tagged; demux with "
                    "genreuse_inspect --events %s)\n",
                    events_path.c_str(), events_path.c_str());
    }
    return 0;
}
