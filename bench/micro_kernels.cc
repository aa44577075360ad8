/**
 * @file
 * google-benchmark microbenchmarks of the hot kernels underneath the
 * paper reproduction: blocked GEMM, im2col, im2col reordering, LSH
 * signatures/clustering, and the vertical/horizontal reuse GEMMs
 * against the exact GEMM on redundant inputs. These are wall-clock
 * numbers of this host library (the MCU latencies in the table/figure
 * benches come from the cycle cost model instead).
 */

#include <benchmark/benchmark.h>

#include <chrono>
#include <functional>

#include "bench_common.h"
#include "common/eventlog.h"
#include "common/faultpoint.h"
#include "common/logging.h"
#include "common/profiler.h"
#include "common/rtrace.h"
#include "common/simd.h"
#include "common/telemetry.h"
#include "common/trace.h"
#include "core/canary.h"
#include "core/fc_reuse.h"
#include "core/guard.h"
#include "core/reuse_audit.h"
#include "core/horizontal_reuse.h"
#include "core/reorder.h"
#include "core/vertical_reuse.h"
#include "data/synthetic.h"
#include "lsh/clustering.h"
#include "quant/int8_quant.h"
#include "tensor/gemm.h"
#include "tensor/im2col.h"

using namespace genreuse;

namespace {

Tensor
redundantMatrix(size_t rows, size_t cols, size_t protos, uint64_t seed)
{
    Rng rng(seed);
    Tensor prototypes = Tensor::randomNormal({protos, cols}, rng);
    Tensor out({rows, cols});
    for (size_t r = 0; r < rows; ++r) {
        size_t p = rng.uniformInt(protos);
        std::copy(prototypes.data() + p * cols,
                  prototypes.data() + (p + 1) * cols,
                  out.data() + r * cols);
    }
    return out;
}

void
BM_GemmCifarNetConv2(benchmark::State &state)
{
    // The N x Din x Dout of CifarNet Conv2 (256 x 1600 x 64).
    Rng rng(1);
    Tensor a = Tensor::randomNormal({256, 1600}, rng);
    Tensor b = Tensor::randomNormal({1600, 64}, rng);
    Tensor c({256, 64});
    for (auto _ : state) {
        gemm(a, b, c);
        benchmark::DoNotOptimize(c.data());
    }
    state.SetItemsProcessed(state.iterations() * 256 * 1600 * 64);
}
BENCHMARK(BM_GemmCifarNetConv2);

void
BM_Im2colCifar(benchmark::State &state)
{
    ConvGeometry geom;
    geom.inChannels = 3;
    geom.inHeight = 32;
    geom.inWidth = 32;
    geom.outChannels = 64;
    geom.kernelH = 5;
    geom.kernelW = 5;
    geom.pad = 2;
    Rng rng(2);
    Tensor x = Tensor::randomNormal({1, 3, 32, 32}, rng);
    for (auto _ : state) {
        Tensor cols = im2col(x, geom);
        benchmark::DoNotOptimize(cols.data());
    }
}
BENCHMARK(BM_Im2colCifar);

void
BM_Im2colCifarConv2(benchmark::State &state)
{
    // CifarNet conv2's expansion (256 x 1600) into a warmed buffer, the
    // way Conv2D::forward runs it.
    ConvGeometry geom;
    geom.inChannels = 64;
    geom.inHeight = 16;
    geom.inWidth = 16;
    geom.outChannels = 64;
    geom.kernelH = 5;
    geom.kernelW = 5;
    geom.pad = 2;
    Rng rng(2);
    Tensor x = Tensor::randomNormal({1, 64, 16, 16}, rng);
    Tensor cols;
    for (auto _ : state) {
        im2colInto(x, geom, cols);
        benchmark::DoNotOptimize(cols.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_Im2colCifarConv2);

void
BM_FoldCifarConv1(benchmark::State &state)
{
    // CifarNet conv1's 1024 x 64 GEMM output folded into NCHW with the
    // bias added on the way.
    ConvGeometry geom;
    geom.inChannels = 3;
    geom.inHeight = 32;
    geom.inWidth = 32;
    geom.outChannels = 64;
    geom.kernelH = 5;
    geom.kernelW = 5;
    geom.pad = 2;
    Rng rng(2);
    Tensor y = Tensor::randomNormal({geom.rows(), geom.outChannels}, rng);
    Tensor bias = Tensor::randomNormal({geom.outChannels}, rng);
    for (auto _ : state) {
        Tensor act = gemmOutputToActivation(y, geom, bias.data());
        benchmark::DoNotOptimize(act.data());
        benchmark::ClobberMemory();
    }
}
BENCHMARK(BM_FoldCifarConv1);

void
BM_ColumnReorderPixelMajor(benchmark::State &state)
{
    ConvGeometry geom;
    geom.inChannels = 3;
    geom.inHeight = 32;
    geom.inWidth = 32;
    geom.outChannels = 64;
    geom.kernelH = 5;
    geom.kernelW = 5;
    geom.pad = 2;
    Rng rng(3);
    Tensor x = Tensor::randomNormal({geom.rows(), geom.cols()}, rng);
    ReusePattern p;
    p.columnOrder = ColumnOrder::PixelMajor;
    auto col_perm = columnPermutation(p, geom);
    std::vector<uint32_t> id(geom.rows());
    for (size_t i = 0; i < id.size(); ++i)
        id[i] = static_cast<uint32_t>(i);
    for (auto _ : state) {
        Tensor xr = reorderMatrix(x, id, col_perm);
        benchmark::DoNotOptimize(xr.data());
    }
}
BENCHMARK(BM_ColumnReorderPixelMajor);

void
BM_LshSignatures(benchmark::State &state)
{
    const size_t h = static_cast<size_t>(state.range(0));
    Rng rng(4);
    Tensor x = redundantMatrix(1024, 25, 16, 5);
    HashFamily family = HashFamily::random(h, 25, rng);
    StridedItems items{x.data(), 1024, 25, 25, 1};
    for (auto _ : state) {
        auto sigs = family.signatures(items);
        benchmark::DoNotOptimize(sigs.data());
    }
}
BENCHMARK(BM_LshSignatures)->Arg(2)->Arg(4)->Arg(8);

void
BM_LshSignaturesCifarConv2(benchmark::State &state)
{
    // Guarded CifarNet conv2's hashing: 64 strided L = 25 slices of the
    // 256 x 1600 im2col matrix, H = 4 hyperplanes per slice.
    const size_t rows = 256, din = 1600, l = 25, h = 4;
    Rng rng(4);
    Tensor x = Tensor::randomNormal({rows, din}, rng);
    std::vector<HashFamily> families;
    for (size_t k = 0; k < din / l; ++k)
        families.push_back(HashFamily::random(h, l, rng));
    std::vector<uint64_t> sigs(rows);
    for (auto _ : state) {
        for (size_t k = 0; k < families.size(); ++k) {
            StridedItems items{x.data() + k * l, rows, l, din, 1};
            families[k].signaturesInto(items, sigs.data());
        }
        benchmark::DoNotOptimize(sigs.data());
    }
    state.SetItemsProcessed(state.iterations() * rows * din * h);
}
BENCHMARK(BM_LshSignaturesCifarConv2);

void
BM_GuardAllFinite(benchmark::State &state)
{
    // The guard's pre-reuse scan of conv2's im2col matrix (256 x 1600).
    Rng rng(4);
    Tensor x = Tensor::randomNormal({256, 1600}, rng);
    for (auto _ : state)
        benchmark::DoNotOptimize(simd::ops().allFinite(x.data(), x.size()));
    state.SetBytesProcessed(state.iterations() * x.size() * sizeof(float));
}
BENCHMARK(BM_GuardAllFinite);

void
BM_ClusterBySignature(benchmark::State &state)
{
    Rng rng(5);
    Tensor x = redundantMatrix(1024, 25, 16, 6);
    HashFamily family = HashFamily::random(4, 25, rng);
    StridedItems items{x.data(), 1024, 25, 25, 1};
    for (auto _ : state) {
        ClusterResult res = clusterBySignature(items, family);
        benchmark::DoNotOptimize(res.assignments.data());
    }
}
BENCHMARK(BM_ClusterBySignature);

void
BM_ExactGemmRedundant(benchmark::State &state)
{
    Tensor x = redundantMatrix(1024, 75, 8, 7);
    Rng rng(7);
    Tensor w = Tensor::randomNormal({75, 64}, rng);
    Tensor y({1024, 64});
    for (auto _ : state) {
        gemm(x, w, y);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_ExactGemmRedundant);

void
BM_VerticalReuseRedundant(benchmark::State &state)
{
    Tensor x = redundantMatrix(1024, 75, 8, 7);
    Rng rng(7);
    Tensor w = Tensor::randomNormal({75, 64}, rng);
    VerticalSlicing s = VerticalSlicing::plan(75, 25, 1);
    Rng frng(8);
    auto fams = randomVerticalFamilies(s, 75, 4, frng);
    for (auto _ : state) {
        Tensor y = verticalReuseMultiply(x, w, s, fams, nullptr, nullptr);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_VerticalReuseRedundant);

void
BM_HorizontalReuseRedundant(benchmark::State &state)
{
    // Column-redundant input for the horizontal direction.
    Rng rng(9);
    Tensor protos = Tensor::randomNormal({8, 1024}, rng);
    Tensor x({1024, 75});
    for (size_t c = 0; c < 75; ++c) {
        size_t p = rng.uniformInt(8);
        for (size_t r = 0; r < 1024; ++r)
            x.at2(r, c) = protos.at2(p, r);
    }
    Tensor w = Tensor::randomNormal({75, 64}, rng);
    HorizontalSlicing s = HorizontalSlicing::plan(1024, 256);
    Rng frng(10);
    auto fams = randomHorizontalFamilies(s, 1024, 4, frng);
    for (auto _ : state) {
        Tensor y = horizontalReuseMultiply(x, w, s, fams, nullptr, nullptr);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_HorizontalReuseRedundant);

void
BM_Int8Matmul(benchmark::State &state)
{
    // CifarNet Conv2 shape through the quantized path.
    Rng rng(11);
    Tensor a = Tensor::randomNormal({256, 1600}, rng);
    Tensor b = Tensor::randomNormal({1600, 64}, rng);
    Int8Tensor qa = quantizeInt8(a);
    Int8Tensor qb = quantizeInt8(b);
    for (auto _ : state) {
        Tensor y = int8Matmul(qa, qb, nullptr);
        benchmark::DoNotOptimize(y.data());
    }
    state.SetItemsProcessed(state.iterations() * 256 * 1600 * 64);
}
BENCHMARK(BM_Int8Matmul);

void
BM_FcReuseSegment(benchmark::State &state)
{
    // FC segment reuse: batch 8, F = 1024 in 32-wide segments, O = 64.
    Rng rng(12);
    Tensor x = Tensor::randomNormal({8, 1024}, rng);
    Tensor w = Tensor::randomNormal({1024, 64}, rng);
    Tensor bias({64});
    HashFamily family = HashFamily::random(4, 32, rng);
    for (auto _ : state) {
        Tensor y = fcReuseForward(x, w, bias, 32, family, nullptr,
                                  nullptr);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_FcReuseSegment);

void
BM_FaultGateDisarmed(benchmark::State &state)
{
    // The disarmed fault gate on a hot path: must be one relaxed
    // atomic load, indistinguishable from the bare loop.
    uint64_t acc = 0;
    for (auto _ : state) {
        if (faultpoint::anyArmed())
            acc += 1;
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_FaultGateDisarmed);

void
BM_RecoveryDomainNoFault(benchmark::State &state)
{
    // The serve worker's per-request containment boundary with no
    // fault firing: arming the domain is two thread-local bumps and
    // entering the try block is free (zero-cost exceptions), so this
    // must stay within noise of the bare loop — containment is paid
    // only when a panic actually throws.
    uint64_t acc = 0;
    for (auto _ : state) {
        RecoveryDomain domain;
        try {
            acc += 1;
        } catch (const PanicException &) {
            acc = 0;
        }
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_RecoveryDomainNoFault);

void
BM_GuardedReuseConv(benchmark::State &state)
{
    // The guarded conv algorithm vs its unguarded inner path. Arg:
    // 0 = unguarded baseline, 1 = guard installed but disabled (the
    // "off-path" whose overhead must stay within noise of 0, per the
    // trace-gate criterion), 2 = guard enabled (includes the sampled
    // verification GEMM rows).
    ConvGeometry geom;
    geom.batch = 1;
    geom.inChannels = 3;
    geom.inHeight = 32;
    geom.inWidth = 32;
    geom.outChannels = 64;
    geom.kernelH = 5;
    geom.kernelW = 5;
    geom.stride = 1;
    geom.pad = 2;
    Tensor x = redundantMatrix(1024, 75, 8, 7);
    Rng rng(7);
    Tensor w = Tensor::randomNormal({75, 64}, rng);
    ReusePattern p = ReusePattern::conventional(geom, 4);

    GuardConfig cfg;
    cfg.enabled = state.range(0) != 0;
    cfg.marginFactor = 1e9; // stay on the full-reuse rung
    GuardedReuseConvAlgo guarded(p, cfg, HashMode::Random, 7);
    guarded.fit(x, geom);
    ReuseConvAlgo plain(p, HashMode::Random, 7);
    plain.fit(x, geom);

    for (auto _ : state) {
        Tensor y = state.range(0) == 0
                       ? plain.multiply(x, w, geom, nullptr)
                       : guarded.multiply(x, w, geom, nullptr);
        benchmark::DoNotOptimize(y.data());
    }
}
BENCHMARK(BM_GuardedReuseConv)->Arg(0)->Arg(1)->Arg(2);

void
BM_UntaggedReportOps(benchmark::State &state)
{
    // reportOps() with tracing enabled but no TraceScope: the counts
    // land in the per-thread "(untagged)" slot. Before the slots were
    // sharded this serialized every thread on one global mutex; the
    // multi-threaded variants must now scale with thread count.
    if (state.thread_index() == 0) {
        trace::reset();
        trace::setEnabled(true);
    }
    for (auto _ : state)
        reportOps(nullptr, Stage::Gemm, {.macs = 1});
    if (state.thread_index() == 0) {
        trace::setEnabled(false);
        trace::reset();
    }
}
BENCHMARK(BM_UntaggedReportOps)->Threads(1)->Threads(2)->Threads(4);

void
BM_ProfGateDisabled(benchmark::State &state)
{
    // A ProfSpan with the profiler off (the default): construction and
    // destruction must reduce to one relaxed atomic load, matching the
    // trace/fault gate criterion.
    uint64_t acc = 0;
    for (auto _ : state) {
        profiler::ProfSpan span("bench.gate");
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_ProfGateDisabled);

void
BM_EventlogGateDisabled(benchmark::State &state)
{
    // eventlog::record() with the journal off (the default): the
    // inline gate must reduce the whole call to one relaxed atomic
    // load, matching the trace/fault/profiler gate criterion.
    uint64_t acc = 0;
    for (auto _ : state) {
        eventlog::record(eventlog::Type::KernelReuse, 0, 0.5, 64.0, 0.0,
                         8);
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_EventlogGateDisabled);

void
BM_RtraceGateDisabled(benchmark::State &state)
{
    // A rtrace::RequestScope with request tracing off (the default):
    // construction and destruction must reduce to one relaxed atomic
    // load, matching the trace/fault/profiler/eventlog gate criterion.
    uint64_t acc = 0;
    for (auto _ : state) {
        rtrace::RequestScope scope(acc);
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_RtraceGateDisabled);

void
BM_TelemetryGateDisabled(benchmark::State &state)
{
    // telemetry::enabled() with no exporter running (the default):
    // callers branching on it must pay one relaxed atomic load.
    uint64_t acc = 0;
    for (auto _ : state) {
        if (telemetry::enabled())
            acc += 100;
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_TelemetryGateDisabled);

void
BM_AuditGateDisabled(benchmark::State &state)
{
    // audit::recordForward() with the audit disarmed (the default):
    // the inline gate must reduce the whole hook to one relaxed atomic
    // load, matching the trace/fault/profiler/eventlog gate criterion.
    ReuseStats stats;
    stats.totalVectors = 256;
    stats.totalCentroids = 32;
    uint64_t acc = 0;
    for (auto _ : state) {
        audit::recordForward(&acc, stats);
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_AuditGateDisabled);

void
BM_CanaryGateDisabled(benchmark::State &state)
{
    // canary::observe() with the canary disarmed (the default, rate
    // 0): one relaxed atomic load of the rate bit-pattern.
    uint64_t acc = 0;
    for (auto _ : state) {
        canary::observe(&acc, 0.1, 1.0, 8, false);
        acc += 1;
        benchmark::DoNotOptimize(acc);
    }
}
BENCHMARK(BM_CanaryGateDisabled);

void
BM_SyntheticCifarGeneration(benchmark::State &state)
{
    SyntheticConfig cfg;
    cfg.numSamples = 16;
    for (auto _ : state) {
        Dataset d = makeSyntheticCifar(cfg);
        benchmark::DoNotOptimize(d.images.data());
    }
}
BENCHMARK(BM_SyntheticCifarGeneration);

/**
 * Console reporter that additionally captures each run's per-iteration
 * real time, so the BENCH record carries machine-comparable
 * "<name>Ms" keys (name sanitized: '/' and ':' become '_') and
 * bench_diff can gate kernel latencies across PRs.
 */
class CapturingReporter : public benchmark::ConsoleReporter
{
  public:
    std::vector<std::pair<std::string, double>> timesMs;

    void
    ReportRuns(const std::vector<Run> &reports) override
    {
        for (const Run &run : reports) {
            if (run.run_type != Run::RT_Iteration || run.error_occurred)
                continue;
            // Benches here use the default ns time unit; /1e6 matches
            // how baseline keys were derived from the JSON reporter's
            // real_time field.
            timesMs.emplace_back(sanitize(run.benchmark_name()),
                                 run.GetAdjustedRealTime() / 1e6);
        }
        ConsoleReporter::ReportRuns(reports);
    }

  private:
    static std::string
    sanitize(std::string name)
    {
        for (char &c : name)
            if (c == '/' || c == ':')
                c = '_';
        return name;
    }
};

/** Average wall-clock milliseconds of @p fn over @p reps calls. */
template <typename F>
double
timeMs(F &&fn, int reps)
{
    const auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < reps; ++i)
        fn();
    const auto t1 = std::chrono::steady_clock::now();
    return std::chrono::duration<double, std::milli>(t1 - t0).count() /
           reps;
}

/**
 * In-process scalar-vs-dispatched speedups of the three dispatched
 * kernel families, recorded as HigherIsBetter keys. Skipped (no keys)
 * when dispatch already resolved to scalar — a speedup of a kernel
 * against itself is noise, not signal.
 */
void
recordDispatchSpeedups(genreuse::bench::BenchJson &bj)
{
    const simd::Level best = simd::activeLevel();
    bj.meta("simdLevel", simd::levelName(best));
    if (best == simd::Level::Scalar)
        return;

    Rng rng(21);
    Tensor a = Tensor::randomNormal({256, 1600}, rng);
    Tensor b = Tensor::randomNormal({1600, 64}, rng);
    Tensor c({256, 64});
    Int8Tensor qa = quantizeInt8(a);
    Int8Tensor qb = quantizeInt8(b);
    std::vector<int32_t> qc(256 * 64);
    // Conv2's hashing shape: 256 rows of a 1600-wide matrix, one
    // L = 25 slice, H = 4.
    const size_t rows = 256, din = 1600, l = 25, h = 4;
    Tensor vT = Tensor::randomNormal({l, h}, rng);
    std::vector<float> biases(h, 0.0f);
    std::vector<uint64_t> sigs(rows);

    struct Timed
    {
        const char *key;
        std::function<void()> fn;
        int reps;
    };
    const Timed kernels[] = {
        {"gemmF32DispatchSpeedup",
         [&] {
             simd::ops().gemmF32(a.data(), b.data(), c.data(), 256, 64,
                                 1600, 1600, 64, 64, false);
         },
         5},
        {"gemmInt8DispatchSpeedup",
         [&] {
             simd::ops().gemmInt8(qa.data.data(), qb.data.data(),
                                  qc.data(), 256, 64, 1600, 1600, 64,
                                  64);
         },
         5},
        {"lshSignaturesDispatchSpeedup",
         [&] {
             for (size_t k = 0; k < din / l; ++k)
                 simd::ops().lshSignatures(a.data() + k * l, rows, l, din,
                                           vT.data(), biases.data(), h,
                                           sigs.data());
         },
         50},
    };
    for (const Timed &kr : kernels) {
        (void)simd::setActiveLevel(simd::Level::Scalar);
        kr.fn(); // warm
        const double scalar_ms = timeMs(kr.fn, kr.reps);
        (void)simd::setActiveLevel(best);
        kr.fn();
        const double simd_ms = timeMs(kr.fn, kr.reps);
        if (simd_ms > 0.0)
            bj.record(kr.key, scalar_ms / simd_ms);
    }
}

} // namespace

// Hand-rolled BENCHMARK_MAIN() so the binary also drops a BENCH_*.json
// record into the suite directory: per-kernel wall-clock "<name>Ms"
// keys captured from the reporter, plus scalar-vs-dispatch speedup
// keys for the SIMD kernel layer. google-benchmark's own reporters
// still work (--benchmark_format=json for the full machine-readable
// dump).
int
main(int argc, char **argv)
{
    genreuse::bench::BenchJson bj("micro_kernels");
    bj.meta("reporter",
            "google-benchmark; rerun with --benchmark_format=json for "
            "the full per-kernel dump");
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    CapturingReporter reporter;
    bj.record("benchmarksRun",
              static_cast<double>(
                  benchmark::RunSpecifiedBenchmarks(&reporter)));
    for (const auto &[name, ms] : reporter.timesMs)
        bj.record(name + "Ms", ms);
    recordDispatchSpeedups(bj);
    benchmark::Shutdown();
    return 0;
}
