/**
 * @file
 * AVX2 kernel table. This TU is the only one compiled with -mavx2, so
 * the rest of the binary stays runnable on any x86-64; avx2Ops()
 * returns nullptr when the running CPU lacks AVX2.
 *
 * Bit-identity with the scalar oracle is load-bearing (the guard's
 * exact-GEMM rung must not move): the f32 GEMM keeps the scalar
 * kernel's blocking (64/256/256) and per-element op order, and uses
 * separate _mm256_mul_ps/_mm256_add_ps — never FMA — so every output
 * element sees the same IEEE-754 sequence the scalar 1x8 tile
 * produces. The wider 1x32 tile only changes which *columns* advance
 * together, never the per-column order.
 */

#include "simd.h"

#if (defined(__x86_64__) || defined(_M_X64)) && defined(GENREUSE_HAVE_AVX2)

#include <immintrin.h>

#include <algorithm>
#include <cmath>

namespace genreuse::simd {

namespace {

constexpr size_t kBlockM = 64;
constexpr size_t kBlockN = 256;
constexpr size_t kBlockK = 256;

void
microKernelAvx2(const float *a, const float *b, float *c, size_t rows,
                size_t cols, size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < rows; ++i) {
        const float *ai = a + i * lda;
        float *ci = c + i * ldc;
        size_t j = 0;
        // 1x32 tile: four ymm accumulators amortize the broadcast.
        for (; j + 32 <= cols; j += 32) {
            __m256 acc0 = _mm256_setzero_ps();
            __m256 acc1 = _mm256_setzero_ps();
            __m256 acc2 = _mm256_setzero_ps();
            __m256 acc3 = _mm256_setzero_ps();
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                __m256 av = _mm256_broadcast_ss(ai + p);
                const float *bp = bj + p * ldb;
                acc0 = _mm256_add_ps(acc0,
                                     _mm256_mul_ps(av, _mm256_loadu_ps(bp)));
                acc1 = _mm256_add_ps(
                    acc1, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 8)));
                acc2 = _mm256_add_ps(
                    acc2, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 16)));
                acc3 = _mm256_add_ps(
                    acc3, _mm256_mul_ps(av, _mm256_loadu_ps(bp + 24)));
            }
            float *cj = ci + j;
            _mm256_storeu_ps(cj,
                             _mm256_add_ps(_mm256_loadu_ps(cj), acc0));
            _mm256_storeu_ps(cj + 8,
                             _mm256_add_ps(_mm256_loadu_ps(cj + 8), acc1));
            _mm256_storeu_ps(cj + 16,
                             _mm256_add_ps(_mm256_loadu_ps(cj + 16), acc2));
            _mm256_storeu_ps(cj + 24,
                             _mm256_add_ps(_mm256_loadu_ps(cj + 24), acc3));
        }
        for (; j + 8 <= cols; j += 8) {
            __m256 acc = _mm256_setzero_ps();
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                __m256 av = _mm256_broadcast_ss(ai + p);
                acc = _mm256_add_ps(
                    acc, _mm256_mul_ps(av, _mm256_loadu_ps(bj + p * ldb)));
            }
            float *cj = ci + j;
            _mm256_storeu_ps(cj, _mm256_add_ps(_mm256_loadu_ps(cj), acc));
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
gemmF32Avx2(const float *a, const float *b, float *c, size_t m, size_t n,
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
                microKernelAvx2(a + i0 * lda + p0, b + p0 * ldb + j0,
                                c + i0 * ldc + j0, mi, nj, kp, lda, ldb,
                                ldc);
            }
        }
    }
}

/**
 * Int8 GEMM, j-inner layout: for each output row, walk k broadcasting
 * a[i][p] (widened to i16) against contiguous 16-lane chunks of B's
 * row p; int8*int8 products fit in i16 exactly, and are widened to
 * i32 before accumulating. Integer adds are associative, so
 * restructuring the scalar p-inner loop is exact.
 */
void
gemmInt8Avx2(const int8_t *a, const int8_t *b, int32_t *c, size_t m,
             size_t n, size_t k, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        const int8_t *ai = a + i * lda;
        int32_t *ci = c + i * ldc;
        size_t j = 0;
        for (; j + 16 <= n; j += 16) {
            __m256i acc_lo = _mm256_setzero_si256();
            __m256i acc_hi = _mm256_setzero_si256();
            const int8_t *bj = b + j;
            for (size_t p = 0; p < k; ++p) {
                __m256i av = _mm256_set1_epi16(static_cast<int16_t>(ai[p]));
                __m128i braw = _mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(bj + p * ldb));
                __m256i bv = _mm256_cvtepi8_epi16(braw);
                __m256i prod = _mm256_mullo_epi16(av, bv);
                // Widen the 16 i16 products to i32 and accumulate.
                __m256i lo = _mm256_cvtepi16_epi32(
                    _mm256_castsi256_si128(prod));
                __m256i hi = _mm256_cvtepi16_epi32(
                    _mm256_extracti128_si256(prod, 1));
                acc_lo = _mm256_add_epi32(acc_lo, lo);
                acc_hi = _mm256_add_epi32(acc_hi, hi);
            }
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(ci + j),
                                acc_lo);
            _mm256_storeu_si256(reinterpret_cast<__m256i *>(ci + j + 8),
                                acc_hi);
        }
        for (; j < n; ++j) {
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
addIntoAvx2(float *dst, const float *src, size_t n)
{
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        _mm256_storeu_ps(dst + i,
                         _mm256_add_ps(_mm256_loadu_ps(dst + i),
                                       _mm256_loadu_ps(src + i)));
    }
    for (; i < n; ++i)
        dst[i] += src[i];
}

void
scaleInPlaceAvx2(float *dst, float s, size_t n)
{
    __m256 sv = _mm256_set1_ps(s);
    size_t i = 0;
    for (; i + 8 <= n; i += 8)
        _mm256_storeu_ps(dst + i,
                         _mm256_mul_ps(_mm256_loadu_ps(dst + i), sv));
    for (; i < n; ++i)
        dst[i] *= s;
}

// ---- LSH signatures ---------------------------------------------------
//
// One lane per hash function: a broadcast input element times a row of
// V^T updates every projection of an item at once, so the projections
// never leave registers. Each lane repeats the scalar oracle's sum
// (per k block: acc = 0, acc += x*v ascending, proj += acc; mul and add
// separate), so the bits match gemmF32 + the sign test exactly. Four
// items advance together to give four independent add chains.

/** 4 lanes in one xmm: every hash function of an H <= 4 family. */
struct Xmm
{
    using V = __m128;
    using Mask = __m128i;
    static V zero() { return _mm_setzero_ps(); }
    static V bcast(const float *p) { return _mm_broadcast_ss(p); }
    static V load(const float *p) { return _mm_loadu_ps(p); }
    static V load(const float *p, Mask m) { return _mm_maskload_ps(p, m); }
    static V add(V a, V b) { return _mm_add_ps(a, b); }
    static V mul(V a, V b) { return _mm_mul_ps(a, b); }
    static Mask lanes(size_t w)
    {
        return _mm_cmpgt_epi32(_mm_set1_epi32(static_cast<int>(w)),
                               _mm_setr_epi32(0, 1, 2, 3));
    }
    static uint64_t positive(V a)
    {
        return static_cast<uint64_t>(
            _mm_movemask_ps(_mm_cmp_ps(a, zero(), _CMP_GT_OQ)));
    }
};

/** 8 lanes in one ymm: one group of up to 8 hash functions. */
struct Ymm
{
    using V = __m256;
    using Mask = __m256i;
    static V zero() { return _mm256_setzero_ps(); }
    static V bcast(const float *p) { return _mm256_broadcast_ss(p); }
    static V load(const float *p) { return _mm256_loadu_ps(p); }
    static V load(const float *p, Mask m) { return _mm256_maskload_ps(p, m); }
    static V add(V a, V b) { return _mm256_add_ps(a, b); }
    static V mul(V a, V b) { return _mm256_mul_ps(a, b); }
    static Mask lanes(size_t w)
    {
        return _mm256_cmpgt_epi32(_mm256_set1_epi32(static_cast<int>(w)),
                                  _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
    }
    static uint64_t positive(V a)
    {
        return static_cast<uint64_t>(
            _mm256_movemask_ps(_mm256_cmp_ps(a, zero(), _CMP_GT_OQ)));
    }
};

/** ORs signature bits [f0, f0 + w) of every item into @p sigs. Full
 *  means the group spans the whole register (plain loads); otherwise
 *  masked loads keep V^T reads inside each row. */
template <class R, bool Full>
void
lshLanesAvx2(const float *x, size_t count, size_t len, size_t ld,
             const float *vT, const float *biases, size_t h, size_t f0,
             size_t w, uint64_t *sigs)
{
    using V = typename R::V;
    const typename R::Mask mask = R::lanes(w);
    const float *v = vT + f0;
    const V bias = R::load(biases + f0, mask);
    const uint64_t keep = (uint64_t{1} << w) - 1;
    auto row = [&](size_t p) {
        return Full ? R::load(v + p * h) : R::load(v + p * h, mask);
    };
    auto bits = [&](V proj) {
        return (R::positive(R::add(proj, bias)) & keep) << f0;
    };

    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const float *x0 = x + i * ld, *x1 = x0 + ld, *x2 = x1 + ld,
                    *x3 = x2 + ld;
        V c0 = R::zero(), c1 = R::zero(), c2 = R::zero(), c3 = R::zero();
        for (size_t p0 = 0; p0 < len; p0 += kBlockK) {
            const size_t pe = std::min(len, p0 + kBlockK);
            V a0 = R::zero(), a1 = R::zero(), a2 = R::zero(),
              a3 = R::zero();
            for (size_t p = p0; p < pe; ++p) {
                const V vp = row(p);
                a0 = R::add(a0, R::mul(R::bcast(x0 + p), vp));
                a1 = R::add(a1, R::mul(R::bcast(x1 + p), vp));
                a2 = R::add(a2, R::mul(R::bcast(x2 + p), vp));
                a3 = R::add(a3, R::mul(R::bcast(x3 + p), vp));
            }
            c0 = R::add(c0, a0);
            c1 = R::add(c1, a1);
            c2 = R::add(c2, a2);
            c3 = R::add(c3, a3);
        }
        sigs[i] |= bits(c0);
        sigs[i + 1] |= bits(c1);
        sigs[i + 2] |= bits(c2);
        sigs[i + 3] |= bits(c3);
    }
    for (; i < count; ++i) {
        const float *xi = x + i * ld;
        V c = R::zero();
        for (size_t p0 = 0; p0 < len; p0 += kBlockK) {
            const size_t pe = std::min(len, p0 + kBlockK);
            V a = R::zero();
            for (size_t p = p0; p < pe; ++p)
                a = R::add(a, R::mul(R::bcast(xi + p), row(p)));
            c = R::add(c, a);
        }
        sigs[i] |= bits(c);
    }
}

void
lshSignaturesAvx2(const float *x, size_t count, size_t len, size_t ld,
                  const float *vT, const float *biases, size_t h,
                  uint64_t *sigs)
{
    std::fill(sigs, sigs + count, uint64_t{0});
    if (h == 4) {
        lshLanesAvx2<Xmm, true>(x, count, len, ld, vT, biases, h, 0, h,
                                sigs);
        return;
    }
    if (h < 4) {
        lshLanesAvx2<Xmm, false>(x, count, len, ld, vT, biases, h, 0, h,
                                 sigs);
        return;
    }
    for (size_t f0 = 0; f0 < h; f0 += 8) {
        const size_t w = std::min<size_t>(8, h - f0);
        if (w == 8)
            lshLanesAvx2<Ymm, true>(x, count, len, ld, vT, biases, h, f0,
                                    w, sigs);
        else
            lshLanesAvx2<Ymm, false>(x, count, len, ld, vT, biases, h, f0,
                                     w, sigs);
    }
}

/** A float is NaN or +-Inf exactly when its exponent bits are all
 *  ones, so the integer mask test is exact. */
bool
allFiniteAvx2(const float *p, size_t n)
{
    const __m256i exp = _mm256_set1_epi32(0x7f800000);
    auto special = [&](size_t i) {
        const __m256i bits =
            _mm256_loadu_si256(reinterpret_cast<const __m256i *>(p + i));
        return _mm256_cmpeq_epi32(_mm256_and_si256(bits, exp), exp);
    };
    size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const __m256i bad = _mm256_or_si256(
            _mm256_or_si256(special(i), special(i + 8)),
            _mm256_or_si256(special(i + 16), special(i + 24)));
        if (!_mm256_testz_si256(bad, bad))
            return false;
    }
    for (; i + 8 <= n; i += 8) {
        const __m256i bad = special(i);
        if (!_mm256_testz_si256(bad, bad))
            return false;
    }
    for (; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

const Ops kAvx2Ops = {
    "avx2",      Level::Avx2,      gemmF32Avx2,       gemmInt8Avx2,
    addIntoAvx2, scaleInPlaceAvx2, lshSignaturesAvx2, allFiniteAvx2,
};

} // namespace

const Ops *
avx2Ops()
{
    return __builtin_cpu_supports("avx2") ? &kAvx2Ops : nullptr;
}

} // namespace genreuse::simd

#else // not x86-64: TU compiles to an accessor that reports "absent"

namespace genreuse::simd {

const Ops *
avx2Ops()
{
    return nullptr;
}

} // namespace genreuse::simd

#endif
