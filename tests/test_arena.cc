/**
 * @file
 * Tests for the per-stream bump arena (common/arena.h) — alignment,
 * LIFO mark/rewind, frame nesting, growth, reset/release — plus the
 * headline property the arena exists for: a steady-state guarded
 * forward performs ZERO heap allocations. The latter is asserted with
 * real global operator new/delete replacements that count every heap
 * call in the process, so any hidden std::vector growth, std::string
 * build or Tensor reallocation on the hot path fails the test.
 */

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <gtest/gtest.h>
#include <new>
#include <string>

#include "common/arena.h"
#include "common/metrics.h"
#include "common/obs.h"
#include "common/rng.h"
#include "common/rtrace.h"
#include "common/telemetry.h"
#include "core/canary.h"
#include "core/guard.h"
#include "core/fc_reuse.h"
#include "core/reuse_audit.h"
#include "core/reuse_conv.h"
#include "core/reuse_pattern.h"
#include "lsh/lsh.h"
#include "tensor/tensor.h"
#include "test_util.h"

// ---- global allocation counters ------------------------------------
//
// Every operator new in this binary funnels through countedAlloc so
// the zero-allocation tests can read a process-wide counter before and
// after the measured call. Deletes are not counted (a steady-state
// forward that frees memory it allocated earlier is still a bug, but
// it would show up in the new-counter anyway).

namespace {

std::atomic<uint64_t> g_heapAllocs{0};

void *
countedAlloc(std::size_t size, std::size_t align)
{
    g_heapAllocs.fetch_add(1, std::memory_order_relaxed);
    if (size == 0)
        size = 1;
    void *p = nullptr;
    if (align <= alignof(std::max_align_t)) {
        p = std::malloc(size);
    } else if (posix_memalign(&p, align, size) != 0) {
        p = nullptr;
    }
    if (!p)
        throw std::bad_alloc();
    return p;
}

uint64_t
heapAllocCount()
{
    return g_heapAllocs.load(std::memory_order_relaxed);
}

} // namespace

void *
operator new(std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new[](std::size_t size)
{
    return countedAlloc(size, alignof(std::max_align_t));
}

void *
operator new(std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void *
operator new[](std::size_t size, std::align_val_t align)
{
    return countedAlloc(size, static_cast<std::size_t>(align));
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

// ---- arena semantics -----------------------------------------------

namespace genreuse {
namespace {

TEST(Arena, AllocationsAre64ByteAligned)
{
    Arena arena;
    for (size_t bytes : {1, 3, 63, 64, 65, 1000}) {
        void *p = arena.alloc(bytes);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(p) % 64, 0u)
            << "bytes=" << bytes;
    }
}

TEST(Arena, AllocSpanIsTypedAndAligned)
{
    Arena arena;
    float *f = arena.allocSpan<float>(17);
    int32_t *i = arena.allocSpan<int32_t>(9);
    uint64_t *u = arena.allocSpan<uint64_t>(3);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(f) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(i) % 64, 0u);
    EXPECT_EQ(reinterpret_cast<uintptr_t>(u) % 64, 0u);
    // Spans are writable over their whole extent.
    for (size_t k = 0; k < 17; ++k)
        f[k] = static_cast<float>(k);
    EXPECT_EQ(f[16], 16.0f);
}

TEST(Arena, MarkRewindReusesBytes)
{
    Arena arena;
    (void)arena.alloc(128);
    Arena::Marker m = arena.mark();
    void *p1 = arena.alloc(256);
    arena.rewind(m);
    void *p2 = arena.alloc(256);
    EXPECT_EQ(p1, p2); // same bytes handed back after rewind
}

TEST(Arena, FramesNestLifo)
{
    Arena arena;
    const size_t base = arena.bytesInUse();
    {
        ArenaFrame outer(arena);
        (void)arena.alloc(100);
        const size_t after_outer = arena.bytesInUse();
        EXPECT_GT(after_outer, base);
        {
            ArenaFrame inner(arena);
            (void)arena.alloc(1000);
            EXPECT_GT(arena.bytesInUse(), after_outer);
        }
        EXPECT_EQ(arena.bytesInUse(), after_outer);
    }
    EXPECT_EQ(arena.bytesInUse(), base);
}

TEST(Arena, GrowsByAddingChunks)
{
    Arena arena(1024); // tiny first chunk to force growth
    EXPECT_LE(arena.chunkCount(), 1u);
    (void)arena.alloc(512);
    const size_t chunks_before = arena.chunkCount();
    (void)arena.alloc(64 * 1024); // cannot fit the first chunk
    EXPECT_GT(arena.chunkCount(), chunks_before);
    EXPECT_GE(arena.capacityBytes(), 64u * 1024u);
}

TEST(Arena, ResetKeepsCapacityReleaseDropsIt)
{
    Arena arena(1024);
    (void)arena.alloc(100 * 1024);
    const size_t chunks = arena.chunkCount();
    const size_t cap = arena.capacityBytes();
    ASSERT_GT(chunks, 0u);

    arena.reset();
    EXPECT_EQ(arena.bytesInUse(), 0u);
    EXPECT_EQ(arena.chunkCount(), chunks); // chunks retained for reuse
    EXPECT_EQ(arena.capacityBytes(), cap);

    arena.releaseMemory();
    EXPECT_EQ(arena.chunkCount(), 0u);
    EXPECT_EQ(arena.capacityBytes(), 0u);
}

TEST(Arena, WarmArenaAllocatesNothingFromTheHeap)
{
    Arena arena;
    { // warm-up sizes the chunk chain
        ArenaFrame f(arena);
        (void)arena.alloc(32 * 1024);
        (void)arena.alloc(8 * 1024);
    }
    const uint64_t before = heapAllocCount();
    for (int i = 0; i < 100; ++i) {
        ArenaFrame f(arena);
        (void)arena.alloc(32 * 1024);
        (void)arena.alloc(8 * 1024);
    }
    EXPECT_EQ(heapAllocCount(), before);
}

TEST(Arena, ForCurrentStreamIsStablePerThread)
{
    Arena *a = &Arena::forCurrentStream();
    Arena *b = &Arena::forCurrentStream();
    EXPECT_EQ(a, b);
}

TEST(Arena, BindCurrentThreadRedirectsForCurrentStream)
{
    Arena mine(1024);
    Arena *prev = Arena::bindCurrentThread(&mine);
    EXPECT_EQ(&Arena::forCurrentStream(), &mine);
    Arena *restored = Arena::bindCurrentThread(prev);
    EXPECT_EQ(restored, &mine);
    EXPECT_NE(&Arena::forCurrentStream(), &mine);
}

TEST(Arena, RetentionDecayTrimsCapacityOnEmptyRewind)
{
    // Tiny first chunk + a small cap: one oversized request grows the
    // chain past the cap; subsequent *empty* rewinds then free one
    // chunk each until capacity fits the cap again. Mid-frame rewinds
    // (arena non-empty) must never decay.
    Arena arena(1024);
    arena.setRetainBytes(4 * 1024);
    {
        ArenaFrame f(arena);
        (void)arena.alloc(16);        // chunk 0
        (void)arena.alloc(8 * 1024);  // chunk 1
        (void)arena.alloc(64 * 1024); // chunk 2 — the oversized request
    }
    // The frame's rewind emptied the arena above the cap: decay fires,
    // but frees only the newest chunk — the footprint shrinks per
    // request, not in one spike.
    EXPECT_EQ(arena.decayedChunks(), 1u);
    const size_t after_first = arena.capacityBytes();

    // The next empty rewind trims the next chunk.
    {
        ArenaFrame f(arena);
        (void)arena.alloc(16); // small steady-state request
    }
    EXPECT_EQ(arena.decayedChunks(), 2u);
    EXPECT_LT(arena.capacityBytes(), after_first);
    // Decay stops at the cap (or the last chunk) — it never strips the
    // arena bare.
    EXPECT_GE(arena.chunkCount(), 1u);

    // Steady state: once within the cap, no further decay.
    const uint64_t settled = arena.decayedChunks();
    for (int i = 0; i < 4; ++i) {
        ArenaFrame f(arena);
        (void)arena.alloc(16);
    }
    EXPECT_EQ(arena.decayedChunks(), settled);
}

TEST(Arena, RetentionDecayPublishesMetrics)
{
    metrics::reset();
    Arena arena(1024);
    arena.setRetainBytes(2 * 1024);
    {
        ArenaFrame f(arena);
        (void)arena.alloc(16);
        (void)arena.alloc(32 * 1024);
    }
    ASSERT_GT(arena.decayedChunks(), 0u);
    EXPECT_EQ(metrics::counter("arena.decayed_chunks").get(),
              arena.decayedChunks());
    EXPECT_DOUBLE_EQ(metrics::gauge("arena.retained_bytes").get(),
                     static_cast<double>(arena.capacityBytes()));
}

TEST(Arena, ZeroRetainBytesMeansUnlimited)
{
    Arena arena(1024);
    arena.setRetainBytes(0);
    {
        ArenaFrame f(arena);
        (void)arena.alloc(64 * 1024);
    }
    EXPECT_EQ(arena.decayedChunks(), 0u);
    EXPECT_GE(arena.capacityBytes(), 64u * 1024u);
}

// ---- zero-allocation forward paths ---------------------------------

/** The bench/test conv workload: 16x16x3 input, 5x5 kernel, pad 2. */
ConvGeometry
smallGeom()
{
    ConvGeometry geom;
    geom.batch = 1;
    geom.inChannels = 3;
    geom.inHeight = 16;
    geom.inWidth = 16;
    geom.outChannels = 16;
    geom.kernelH = 5;
    geom.kernelW = 5;
    geom.stride = 1;
    geom.pad = 2;
    return geom;
}

TEST(ZeroAlloc, SteadyStateGuardedForward)
{
    ConvGeometry geom = smallGeom();
    Rng rng(7);
    Tensor x = test::redundantRows(256, 75, 8, rng);
    Tensor w = Tensor::randomNormal({75, 16}, rng);

    GuardConfig cfg;
    cfg.marginFactor = 1e9; // in-distribution input stays on rung 0
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 4), cfg,
                              HashMode::Random, 7);
    algo.fit(x, geom);

    Tensor y;
    // Warm-up: size the arena chunks, the thread-local cluster scratch,
    // the algo's member scratch tensors and y's own capacity.
    for (int i = 0; i < 4; ++i)
        algo.multiplyInto(x, w, geom, nullptr, y);
    ASSERT_EQ(algo.lastRung(), GuardRung::FullReuse);

    const uint64_t before = heapAllocCount();
    algo.multiplyInto(x, w, geom, nullptr, y);
    const uint64_t allocs = heapAllocCount() - before;
    EXPECT_EQ(allocs, 0u)
        << "steady-state guarded forward hit the heap " << allocs
        << " time(s)";
    EXPECT_EQ(algo.lastRung(), GuardRung::FullReuse);
}

TEST(ZeroAlloc, SteadyStateUnguardedReuseForward)
{
    ConvGeometry geom = smallGeom();
    Rng rng(8);
    Tensor x = test::redundantRows(256, 75, 8, rng);
    Tensor w = Tensor::randomNormal({75, 16}, rng);

    ReuseConvAlgo algo(ReusePattern::conventional(geom, 4),
                       HashMode::Random, 9);
    algo.fit(x, geom);

    Tensor y;
    for (int i = 0; i < 4; ++i)
        algo.multiplyInto(x, w, geom, nullptr, y);

    const uint64_t before = heapAllocCount();
    algo.multiplyInto(x, w, geom, nullptr, y);
    EXPECT_EQ(heapAllocCount() - before, 0u);
}

TEST(ZeroAlloc, SteadyStateForwardWithTracingAndTelemetryArmed)
{
    // The PR-9 acceptance bar: arming request tracing AND running the
    // telemetry exporter must not add heap traffic to the steady-state
    // serving path — RequestScope binding, guard VerifySpan clock
    // reads, and the ring commit are all allocation-free (the ring and
    // sampled arrays are pre-touched at setEnabled/setExport). Both
    // are armed the way GENREUSE_OBS arms them.
    ConvGeometry geom = smallGeom();
    Rng rng(10);
    Tensor x = test::redundantRows(256, 75, 8, rng);
    Tensor w = Tensor::randomNormal({75, 16}, rng);

    GuardConfig cfg;
    cfg.marginFactor = 1e9;
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 4), cfg,
                              HashMode::Random, 7);
    algo.fit(x, geom);

    const std::string tsdb =
        testing::TempDir() + "arena_telemetry.jsonl";
    std::remove(tsdb.c_str());
    rtrace::reset();
    // Huge interval: the exporter thread parks after the synchronous
    // start sample, so it contributes no concurrent allocations while
    // the counter is being read.
    ASSERT_TRUE(obs::arm("rtrace=" + testing::TempDir() +
                         "arena_rtrace.json,telemetry=" + tsdb + "@3600s")
                    .ok());
    ASSERT_TRUE(rtrace::enabled());
    ASSERT_TRUE(telemetry::enabled());

    Tensor y;
    // Warm-up with the full request choreography so scratch, ring and
    // thread-local slots are all touched before measuring.
    for (uint64_t i = 1; i <= 4; ++i) {
        rtrace::RequestScope scope(i);
        algo.multiplyInto(x, w, geom, nullptr, y);
        rtrace::RequestRecord rec;
        rec.id = i;
        rec.verifyNs = scope.verifyNs();
        scope.commit(rec);
    }
    ASSERT_EQ(algo.lastRung(), GuardRung::FullReuse);

    const uint64_t before = heapAllocCount();
    {
        rtrace::RequestScope scope(99);
        algo.multiplyInto(x, w, geom, nullptr, y);
        rtrace::RequestRecord rec;
        rec.id = 99;
        rec.verifyNs = scope.verifyNs();
        scope.commit(rec);
    }
    const uint64_t allocs = heapAllocCount() - before;
    EXPECT_EQ(allocs, 0u)
        << "steady-state forward with tracing+telemetry armed hit the "
           "heap "
        << allocs << " time(s)";
    EXPECT_EQ(rtrace::recorded(), 5u);

    rtrace::setEnabled(false);
    rtrace::setExport("");
    rtrace::reset();
    telemetry::stop();
}

TEST(ZeroAlloc, SteadyStateGuardedForwardWithAuditAndCanaryArmed)
{
    // The PR-10 bar: the reuse-efficacy audit records into pre-grown
    // slots and the rate-1.0 canary's exact-row recompute runs on the
    // arena, so arming BOTH must not add heap traffic to the
    // steady-state guarded forward.
    ConvGeometry geom = smallGeom();
    Rng rng(11);
    Tensor x = test::redundantRows(256, 75, 8, rng);
    Tensor w = Tensor::randomNormal({75, 16}, rng);

    GuardConfig cfg;
    cfg.marginFactor = 1e9;
    GuardedReuseConvAlgo algo(ReusePattern::conventional(geom, 4), cfg,
                              HashMode::Random, 7);
    algo.fit(x, geom);

    ASSERT_TRUE(obs::arm("audit,canary=1").ok());
    ASSERT_TRUE(audit::enabled());
    ASSERT_EQ(canary::rate(), 1.0);

    Tensor y;
    // Warm-up: grows the audit/canary registry slots and resolves the
    // metrics handles in addition to the usual arena/scratch sizing.
    for (int i = 0; i < 4; ++i)
        algo.multiplyInto(x, w, geom, nullptr, y);
    ASSERT_EQ(algo.lastRung(), GuardRung::FullReuse);
    ASSERT_EQ(canary::totalSamples(), 4u);

    const uint64_t before = heapAllocCount();
    algo.multiplyInto(x, w, geom, nullptr, y);
    const uint64_t allocs = heapAllocCount() - before;
    EXPECT_EQ(allocs, 0u)
        << "steady-state forward with audit+canary armed hit the heap "
        << allocs << " time(s)";
    EXPECT_EQ(canary::totalSamples(), 5u);
    EXPECT_EQ(canary::totalBreaches(), 0u);

    canary::setRate(0.0);
    canary::reset();
    audit::setEnabled(false);
    audit::reset();
}

TEST(ZeroAlloc, SteadyStateFcReuseForward)
{
    Rng rng(9);
    const size_t batch = 4, f = 256, o = 32, seg = 16;
    Tensor x = test::redundantRows(batch, f, 6, rng);
    Tensor w = Tensor::randomNormal({f, o}, rng);
    Tensor bias = Tensor::randomNormal({o}, rng);
    HashFamily family = HashFamily::random(4, seg, rng);

    Tensor y;
    for (int i = 0; i < 4; ++i)
        fcReuseForwardInto(x, w, bias, seg, family, nullptr, nullptr, y);

    const uint64_t before = heapAllocCount();
    fcReuseForwardInto(x, w, bias, seg, family, nullptr, nullptr, y);
    EXPECT_EQ(heapAllocCount() - before, 0u);
}

} // namespace
} // namespace genreuse
