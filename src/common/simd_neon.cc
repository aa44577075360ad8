/**
 * @file
 * NEON kernel table for aarch64 targets (the MCU deployment ISA the
 * paper targets is Arm; this path is what a Cortex-A/Neoverse build
 * dispatches to). Advanced SIMD is mandatory on aarch64, so no
 * runtime CPU probe is needed — availability is a compile-time fact.
 *
 * The same bit-identity contract as AVX2 applies: 256-wide k blocks
 * and the scalar per-element op order, vmulq+vaddq (never vfmaq), so
 * the guard's exact-GEMM rung is unchanged by dispatch. The GEMM keeps
 * the scalar kernel's 1xN shape (a 1x16 tile); the AVX2 table's 6x16
 * register tile has no NEON port yet.
 */

#include "simd.h"

#if defined(__aarch64__)

#include <arm_neon.h>

#include <algorithm>
#include <cmath>

namespace genreuse::simd {

namespace {

constexpr size_t kBlockM = 64;
constexpr size_t kBlockN = 256;
constexpr size_t kBlockK = 256;

void
microKernelNeon(const float *a, const float *b, float *c, size_t rows,
                size_t cols, size_t kc, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < rows; ++i) {
        const float *ai = a + i * lda;
        float *ci = c + i * ldc;
        size_t j = 0;
        // 1x16 tile: four q-register accumulators per item row.
        for (; j + 16 <= cols; j += 16) {
            float32x4_t acc0 = vdupq_n_f32(0.0f);
            float32x4_t acc1 = vdupq_n_f32(0.0f);
            float32x4_t acc2 = vdupq_n_f32(0.0f);
            float32x4_t acc3 = vdupq_n_f32(0.0f);
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                float32x4_t av = vdupq_n_f32(ai[p]);
                const float *bp = bj + p * ldb;
                acc0 = vaddq_f32(acc0, vmulq_f32(av, vld1q_f32(bp)));
                acc1 = vaddq_f32(acc1, vmulq_f32(av, vld1q_f32(bp + 4)));
                acc2 = vaddq_f32(acc2, vmulq_f32(av, vld1q_f32(bp + 8)));
                acc3 = vaddq_f32(acc3, vmulq_f32(av, vld1q_f32(bp + 12)));
            }
            float *cj = ci + j;
            vst1q_f32(cj, vaddq_f32(vld1q_f32(cj), acc0));
            vst1q_f32(cj + 4, vaddq_f32(vld1q_f32(cj + 4), acc1));
            vst1q_f32(cj + 8, vaddq_f32(vld1q_f32(cj + 8), acc2));
            vst1q_f32(cj + 12, vaddq_f32(vld1q_f32(cj + 12), acc3));
        }
        for (; j + 4 <= cols; j += 4) {
            float32x4_t acc = vdupq_n_f32(0.0f);
            const float *bj = b + j;
            for (size_t p = 0; p < kc; ++p) {
                float32x4_t av = vdupq_n_f32(ai[p]);
                acc = vaddq_f32(acc, vmulq_f32(av, vld1q_f32(bj + p * ldb)));
            }
            float *cj = ci + j;
            vst1q_f32(cj, vaddq_f32(vld1q_f32(cj), acc));
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
gemmF32Neon(const float *a, const float *b, float *c, size_t m, size_t n,
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
                microKernelNeon(a + i0 * lda + p0, b + p0 * ldb + j0,
                                c + i0 * ldc + j0, mi, nj, kp, lda, ldb,
                                ldc);
            }
        }
    }
}

void
gemmInt8Neon(const int8_t *a, const int8_t *b, int32_t *c, size_t m,
             size_t n, size_t k, size_t lda, size_t ldb, size_t ldc)
{
    for (size_t i = 0; i < m; ++i) {
        const int8_t *ai = a + i * lda;
        int32_t *ci = c + i * ldc;
        size_t j = 0;
        for (; j + 8 <= n; j += 8) {
            int32x4_t acc_lo = vdupq_n_s32(0);
            int32x4_t acc_hi = vdupq_n_s32(0);
            const int8_t *bj = b + j;
            for (size_t p = 0; p < k; ++p) {
                int16x8_t av = vdupq_n_s16(static_cast<int16_t>(ai[p]));
                int16x8_t bv = vmovl_s8(vld1_s8(bj + p * ldb));
                int16x8_t prod = vmulq_s16(av, bv); // exact: fits i16
                acc_lo = vaddw_s16(acc_lo, vget_low_s16(prod));
                acc_hi = vaddw_s16(acc_hi, vget_high_s16(prod));
            }
            vst1q_s32(ci + j, acc_lo);
            vst1q_s32(ci + j + 4, acc_hi);
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
addIntoNeon(float *dst, const float *src, size_t n)
{
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(dst + i,
                  vaddq_f32(vld1q_f32(dst + i), vld1q_f32(src + i)));
    for (; i < n; ++i)
        dst[i] += src[i];
}

void
scaleInPlaceNeon(float *dst, float s, size_t n)
{
    float32x4_t sv = vdupq_n_f32(s);
    size_t i = 0;
    for (; i + 4 <= n; i += 4)
        vst1q_f32(dst + i, vmulq_f32(vld1q_f32(dst + i), sv));
    for (; i < n; ++i)
        dst[i] *= s;
}

// ---- LSH signatures ---------------------------------------------------
//
// One q-register lane per hash function, groups of 4 lanes: a
// broadcast input element times a row of V^T updates the group's
// projections at once. Each lane repeats the scalar oracle's sum (per
// k block: acc = 0, acc += x*v ascending, proj += acc; vmulq + vaddq,
// never vfmaq). Four items advance together for independent chains.

/** Lanes [0, w) of @p p, zeros above; never reads past p[w - 1]. */
float32x4_t
loadLanes(const float *p, size_t w)
{
    if (w == 4)
        return vld1q_f32(p);
    float32x4_t r = vdupq_n_f32(0.0f);
    r = vld1q_lane_f32(p, r, 0);
    if (w > 1)
        r = vld1q_lane_f32(p + 1, r, 1);
    if (w > 2)
        r = vld1q_lane_f32(p + 2, r, 2);
    return r;
}

/** Bits of the lanes where @p a > 0 (NaN compares false). */
uint64_t
positiveLanes(float32x4_t a)
{
    const uint32x4_t bit = {1, 2, 4, 8};
    const uint32x4_t gt = vcgtq_f32(a, vdupq_n_f32(0.0f));
    return static_cast<uint64_t>(vaddvq_u32(vandq_u32(gt, bit)));
}

/** ORs signature bits [f0, f0 + w), w <= 4, of every item into sigs. */
void
lshLanesNeon(const float *x, size_t count, size_t len, size_t ld,
             const float *vT, const float *biases, size_t h, size_t f0,
             size_t w, uint64_t *sigs)
{
    const float *v = vT + f0;
    const float32x4_t bias = loadLanes(biases + f0, w);
    const uint64_t keep = (uint64_t{1} << w) - 1;
    auto bits = [&](float32x4_t proj) {
        return (positiveLanes(vaddq_f32(proj, bias)) & keep) << f0;
    };

    size_t i = 0;
    for (; i + 4 <= count; i += 4) {
        const float *x0 = x + i * ld, *x1 = x0 + ld, *x2 = x1 + ld,
                    *x3 = x2 + ld;
        float32x4_t c0 = vdupq_n_f32(0.0f), c1 = c0, c2 = c0, c3 = c0;
        for (size_t p0 = 0; p0 < len; p0 += kBlockK) {
            const size_t pe = std::min(len, p0 + kBlockK);
            float32x4_t a0 = vdupq_n_f32(0.0f), a1 = a0, a2 = a0, a3 = a0;
            for (size_t p = p0; p < pe; ++p) {
                const float32x4_t vp = loadLanes(v + p * h, w);
                a0 = vaddq_f32(a0, vmulq_f32(vdupq_n_f32(x0[p]), vp));
                a1 = vaddq_f32(a1, vmulq_f32(vdupq_n_f32(x1[p]), vp));
                a2 = vaddq_f32(a2, vmulq_f32(vdupq_n_f32(x2[p]), vp));
                a3 = vaddq_f32(a3, vmulq_f32(vdupq_n_f32(x3[p]), vp));
            }
            c0 = vaddq_f32(c0, a0);
            c1 = vaddq_f32(c1, a1);
            c2 = vaddq_f32(c2, a2);
            c3 = vaddq_f32(c3, a3);
        }
        sigs[i] |= bits(c0);
        sigs[i + 1] |= bits(c1);
        sigs[i + 2] |= bits(c2);
        sigs[i + 3] |= bits(c3);
    }
    for (; i < count; ++i) {
        const float *xi = x + i * ld;
        float32x4_t c = vdupq_n_f32(0.0f);
        for (size_t p0 = 0; p0 < len; p0 += kBlockK) {
            const size_t pe = std::min(len, p0 + kBlockK);
            float32x4_t a = vdupq_n_f32(0.0f);
            for (size_t p = p0; p < pe; ++p)
                a = vaddq_f32(a, vmulq_f32(vdupq_n_f32(xi[p]),
                                           loadLanes(v + p * h, w)));
            c = vaddq_f32(c, a);
        }
        sigs[i] |= bits(c);
    }
}

void
lshSignaturesNeon(const float *x, size_t count, size_t len, size_t ld,
                  const float *vT, const float *biases, size_t h,
                  uint64_t *sigs)
{
    std::fill(sigs, sigs + count, uint64_t{0});
    for (size_t f0 = 0; f0 < h; f0 += 4)
        lshLanesNeon(x, count, len, ld, vT, biases, h, f0,
                     std::min<size_t>(4, h - f0), sigs);
}

/** NaN and +-Inf are exactly the floats whose exponent bits are all
 *  ones, so the integer mask test is exact. */
bool
allFiniteNeon(const float *p, size_t n)
{
    const uint32x4_t exp = vdupq_n_u32(0x7f800000u);
    auto special = [&](size_t i) {
        const uint32x4_t bits = vreinterpretq_u32_f32(vld1q_f32(p + i));
        return vceqq_u32(vandq_u32(bits, exp), exp);
    };
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const uint32x4_t bad = vorrq_u32(vorrq_u32(special(i), special(i + 4)),
                                         vorrq_u32(special(i + 8),
                                                   special(i + 12)));
        if (vmaxvq_u32(bad) != 0)
            return false;
    }
    for (; i + 4 <= n; i += 4)
        if (vmaxvq_u32(special(i)) != 0)
            return false;
    for (; i < n; ++i)
        if (!std::isfinite(p[i]))
            return false;
    return true;
}

const Ops kNeonOps = {
    "neon",      Level::Neon,      gemmF32Neon,       gemmInt8Neon,
    addIntoNeon, scaleInPlaceNeon, lshSignaturesNeon, allFiniteNeon,
};

} // namespace

const Ops *
neonOps()
{
    return &kNeonOps;
}

} // namespace genreuse::simd

#else // non-aarch64 targets: report "absent"

namespace genreuse::simd {

const Ops *
neonOps()
{
    return nullptr;
}

} // namespace genreuse::simd

#endif
