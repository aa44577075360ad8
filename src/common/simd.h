/**
 * @file
 * Runtime SIMD kernel dispatch, after TFLite-Micro's replaceable-kernel
 * design: every hot inner loop (f32 GEMM, raw int8 GEMM, LSH
 * signatures, elementwise add/scale, the guard's finite scan) is
 * reached through a per-process ops table selected once at startup
 * from CPU capabilities, overridable with
 * `GENREUSE_SIMD=scalar|avx2|neon`.
 *
 * Contract (see DESIGN.md "Kernel dispatch & arena"):
 *  - The scalar table is the always-on correctness oracle. It is
 *    compiled into every build and always selectable.
 *  - Vector implementations must be BIT-IDENTICAL to the scalar
 *    oracle, not merely close: they keep the scalar kernel's blocking
 *    and per-element operation order and use separate multiply/add
 *    (no FMA contraction), so each output element sees the exact same
 *    IEEE-754 op sequence. This is what lets the guard ladder's
 *    exact-GEMM rung stay bit-identical to the pre-dispatch output
 *    regardless of the level selected.
 *  - Integer kernels are exact by construction.
 *
 * Levels that were not compiled in (or that the CPU lacks) silently
 * fall back to scalar with a one-shot warning when explicitly
 * requested via the environment.
 */

#ifndef GENREUSE_COMMON_SIMD_H
#define GENREUSE_COMMON_SIMD_H

#include <cstddef>
#include <cstdint>

#include "common/status.h"

namespace genreuse::simd {

enum class Level : int { Scalar = 0, Avx2 = 1, Neon = 2 };

/** The replaceable-kernel table. All pointers are always non-null. */
struct Ops
{
    const char *name; //!< "scalar" | "avx2" | "neon"
    Level level;

    /** C[MxN] (+)= A[MxK] * B[KxN], row-major, leading dims as given.
     *  Bit-identical across levels (see file comment). */
    void (*gemmF32)(const float *a, const float *b, float *c, size_t m,
                    size_t n, size_t k, size_t lda, size_t ldb, size_t ldc,
                    bool accumulate);

    /** C[MxN] = A[MxK] * B[KxN] with int32 accumulators and no
     *  zero-point handling (callers apply corrections). Exact. */
    void (*gemmInt8)(const int8_t *a, const int8_t *b, int32_t *c, size_t m,
                     size_t n, size_t k, size_t lda, size_t ldb, size_t ldc);

    /** dst[i] += src[i] for i in [0, n). */
    void (*addInto)(float *dst, const float *src, size_t n);

    /** dst[i] *= s for i in [0, n). */
    void (*scaleInPlace)(float *dst, float s, size_t n);

    /** LSH signatures of @p count row items (item i is
     *  x[i*ld .. i*ld + len)) against h <= 64 hyperplanes, given
     *  transposed as @p vT (len x h, row-major):
     *  sigs[i] bit f = (proj(i, f) + biases[f] > 0). Each projection
     *  is summed exactly as gemmF32 sums one output element: starting
     *  from 0, per 256-wide k block acc = 0, acc += x[p] * vT[p][f] in
     *  ascending p (separate multiply and add), then proj += acc. So
     *  the bits equal gemmF32 (count x h x len) followed by the sign
     *  test, at every level. */
    void (*lshSignatures)(const float *x, size_t count, size_t len,
                          size_t ld, const float *vT, const float *biases,
                          size_t h, uint64_t *sigs);

    /** True when no element of p[0, n) is NaN or +-Inf. Exact. */
    bool (*allFinite)(const float *p, size_t n);
};

/** True when @p level is compiled in AND supported by this CPU. */
bool available(Level level);

/** The level detect() would pick: the env override if valid, else the
 *  best available vector level, else scalar. */
Level detect();

/** The active table. Resolved once (first call) from detect();
 *  subsequent calls are a relaxed atomic load. */
const Ops &ops();

/** Explicit table for parity tests and benchmarks. Falls back to the
 *  scalar table when @p level is unavailable. */
const Ops &opsFor(Level level);

/** Level of the active table. */
Level activeLevel();

/** Force the active table (tests/benchmarks only; process-wide, not
 *  synchronized against concurrently running kernels). Returns
 *  InvalidArgument when @p level is unavailable. */
Status setActiveLevel(Level level);

const char *levelName(Level level);

/** Parse "scalar"/"avx2"/"neon"/"auto" (case-insensitive). Returns
 *  InvalidArgument on anything else. "auto" maps to detect()'s
 *  hardware choice and is reported as the best available level. */
Expected<Level> parseLevel(const char *s);

} // namespace genreuse::simd

#endif // GENREUSE_COMMON_SIMD_H
