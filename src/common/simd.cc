#include "simd.h"

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <string>

#include "common/logging.h"

namespace genreuse::simd {

// ---- scalar oracle ----------------------------------------------------
//
// These loops are the reference semantics for every level: the blocked
// f32 GEMM (1x8 register tiling over the k-panel) is the pre-dispatch
// genreuse::gemmRaw verbatim, and the int8 kernel mirrors int8Matmul's
// original accumulation. Vector tables must reproduce these
// bit-for-bit (see simd.h).

namespace {

constexpr size_t kBlockM = 64;
constexpr size_t kBlockN = 256;
constexpr size_t kBlockK = 256;

void
microKernelScalar(const float *a, const float *b, float *c, size_t rows,
                  size_t cols, size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < rows; ++i) {
        const float *ai = a + i * lda;
        float *ci = c + i * ldc;
        size_t j = 0;
        for (; j + 8 <= cols; j += 8) {
            float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
            float acc4 = 0, acc5 = 0, acc6 = 0, acc7 = 0;
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                float av = ai[p];
                const float *bp = bj + p * ldb;
                acc0 += av * bp[0];
                acc1 += av * bp[1];
                acc2 += av * bp[2];
                acc3 += av * bp[3];
                acc4 += av * bp[4];
                acc5 += av * bp[5];
                acc6 += av * bp[6];
                acc7 += av * bp[7];
            }
            ci[j + 0] += acc0;
            ci[j + 1] += acc1;
            ci[j + 2] += acc2;
            ci[j + 3] += acc3;
            ci[j + 4] += acc4;
            ci[j + 5] += acc5;
            ci[j + 6] += acc6;
            ci[j + 7] += acc7;
        }
        for (; j < cols; ++j) {
            float acc = 0;
            for (size_t p = 0; p < kc; ++p)
                acc += ai[p] * b[p * ldb + j];
            ci[j] += acc;
        }
    }
}

void
gemmF32Scalar(const float *a, const float *b, float *c, size_t m, size_t n,
              size_t k, size_t lda, size_t ldb, size_t ldc, bool accumulate)
{
    if (!accumulate) {
        for (size_t i = 0; i < m; ++i)
            std::fill(c + i * ldc, c + i * ldc + n, 0.0f);
    }
    for (size_t i0 = 0; i0 < m; i0 += kBlockM) {
        size_t mi = std::min(kBlockM, m - i0);
        for (size_t p0 = 0; p0 < k; p0 += kBlockK) {
            size_t kp = std::min(kBlockK, k - p0);
            for (size_t j0 = 0; j0 < n; j0 += kBlockN) {
                size_t nj = std::min(kBlockN, n - j0);
                microKernelScalar(a + i0 * lda + p0, b + p0 * ldb + j0,
                                  c + i0 * ldc + j0, mi, nj, kp, lda, ldb,
                                  ldc);
            }
        }
    }
}

void
gemmInt8Scalar(const int8_t *a, const int8_t *b, int32_t *c, size_t m,
               size_t n, size_t k, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        const int8_t *ai = a + i * lda;
        int32_t *ci = c + i * ldc;
        for (size_t j = 0; j < n; ++j) {
            int32_t acc = 0;
            for (size_t p = 0; p < k; ++p) {
                acc += static_cast<int32_t>(ai[p]) *
                       static_cast<int32_t>(b[p * ldb + j]);
            }
            ci[j] = acc;
        }
    }
}

void
addIntoScalar(float *dst, const float *src, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] += src[i];
}

void
scaleInPlaceScalar(float *dst, float s, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        dst[i] *= s;
}

void
lshSignaturesScalar(const float *x, size_t count, size_t len, size_t ld,
                    const float *vT, const float *biases, size_t h,
                    uint64_t *sigs)
{
    for (size_t i = 0; i < count; ++i) {
        const float *xi = x + i * ld;
        uint64_t sig = 0;
        for (size_t f = 0; f < h; ++f) {
            // gemmF32's per-element order: one partial sum per k block.
            float proj = 0.0f;
            for (size_t p0 = 0; p0 < len; p0 += kBlockK) {
                const size_t pe = std::min(len, p0 + kBlockK);
                float acc = 0.0f;
                for (size_t p = p0; p < pe; ++p)
                    acc += xi[p] * vT[p * h + f];
                proj += acc;
            }
            if (proj + biases[f] > 0.0f)
                sig |= uint64_t{1} << f;
        }
        sigs[i] = sig;
    }
}

bool
allFiniteScalar(const float *p, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

constexpr Ops kScalarOps = {
    "scalar",      Level::Scalar,      gemmF32Scalar,       gemmInt8Scalar,
    addIntoScalar, scaleInPlaceScalar, lshSignaturesScalar, allFiniteScalar,
};

std::atomic<const Ops *> g_active{nullptr};

} // namespace

// Vector tables live in separately-compiled TUs (simd_avx2.cc /
// simd_neon.cc) so only those files carry ISA compile flags; on
// targets where a table cannot exist the TU compiles to an accessor
// returning nullptr.
const Ops *avx2Ops(); // defined in simd_avx2.cc
const Ops *neonOps(); // defined in simd_neon.cc

namespace {

const Ops *
tableFor(Level level)
{
    switch (level) {
    case Level::Scalar:
        return &kScalarOps;
    case Level::Avx2:
        return avx2Ops(); // nullptr when not compiled in / CPU lacks it
    case Level::Neon:
        return neonOps();
    }
    return nullptr;
}

Level
bestAvailable()
{
    if (tableFor(Level::Avx2))
        return Level::Avx2;
    if (tableFor(Level::Neon))
        return Level::Neon;
    return Level::Scalar;
}

const Ops *
resolveStartupTable()
{
#if defined(GENREUSE_SIMD_FORCE_SCALAR)
    return &kScalarOps;
#else
    Level level = bestAvailable();
    if (const char *env = std::getenv("GENREUSE_SIMD")) {
        Expected<Level> parsed = parseLevel(env);
        if (!parsed.ok()) {
            warn("ignoring GENREUSE_SIMD=", env, ": ",
                 parsed.status().message());
        } else if (const Ops *t = tableFor(*parsed)) {
            return t;
        } else {
            warn("GENREUSE_SIMD=", env, " requests a level this "
                 "build/CPU cannot provide; falling back to scalar");
            return &kScalarOps;
        }
    }
    const Ops *t = tableFor(level);
    return t ? t : &kScalarOps;
#endif
}

} // namespace

bool
available(Level level)
{
    return tableFor(level) != nullptr;
}

Level
detect()
{
    return resolveStartupTable()->level;
}

const Ops &
ops()
{
    const Ops *t = g_active.load(std::memory_order_relaxed);
    if (t == nullptr) {
        // First call: resolve once. Races are benign (same answer).
        t = resolveStartupTable();
        g_active.store(t, std::memory_order_relaxed);
    }
    return *t;
}

const Ops &
opsFor(Level level)
{
    const Ops *t = tableFor(level);
    return t ? *t : kScalarOps;
}

Level
activeLevel()
{
    return ops().level;
}

Status
setActiveLevel(Level level)
{
    const Ops *t = tableFor(level);
    if (!t)
        return Status::error(ErrorCode::InvalidArgument, "SIMD level ",
                             levelName(level),
                             " is not available in this build/CPU");
    ops(); // make sure startup resolution happened first
    g_active.store(t, std::memory_order_relaxed);
    return Status();
}

const char *
levelName(Level level)
{
    switch (level) {
    case Level::Scalar:
        return "scalar";
    case Level::Avx2:
        return "avx2";
    case Level::Neon:
        return "neon";
    }
    return "?";
}

Expected<Level>
parseLevel(const char *s)
{
    std::string v(s ? s : "");
    std::transform(v.begin(), v.end(), v.begin(),
                   [](unsigned char ch) { return std::tolower(ch); });
    if (v == "scalar")
        return Level::Scalar;
    if (v == "avx2")
        return Level::Avx2;
    if (v == "neon")
        return Level::Neon;
    if (v == "auto")
        return bestAvailable();
    return Status::error(ErrorCode::InvalidArgument,
                         "expected scalar|avx2|neon|auto, got \"",
                         v, "\"");
}

} // namespace genreuse::simd
