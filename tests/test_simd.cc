/**
 * @file
 * Parity matrix for the runtime SIMD dispatch layer (common/simd.h):
 * every entry of the ops table — gemmF32, gemmInt8, addInto,
 * scaleInPlace, lshSignatures, allFinite — is compared against the
 * scalar oracle over ragged shapes (sizes that are not multiples of any
 * vector width), plus the dispatch plumbing itself: level parsing,
 * explicit table selection, fallback for unavailable levels, and the
 * setActiveLevel() test hook. The GEMM-plus-sign-pass composition that
 * lshSignatures replaced lives on here, verbatim, as the reference for
 * HashFamily::signaturesInto.
 *
 * The float comparisons use a ULP distance with a bound of ZERO: the
 * design contract (DESIGN.md "Kernel dispatch & arena") is that vector
 * kernels are bit-identical to the scalar oracle, because the guard
 * ladder's exact-GEMM rung must not change when dispatch picks a
 * vector level. If that contract is ever deliberately relaxed (e.g.
 * FMA contraction), kMaxUlps is the single knob to loosen.
 */

#include <cmath>
#include <cstdint>
#include <cstring>
#include <gtest/gtest.h>
#include <iterator>
#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "common/simd.h"
#include "core/guard.h"
#include "core/measurement.h"
#include "data/synthetic.h"
#include "lsh/learned_hash.h"
#include "lsh/lsh.h"
#include "models/models.h"
#include "tensor/im2col.h"

namespace genreuse {
namespace {

constexpr int64_t kMaxUlps = 0; // bit-identity, per the dispatch contract

/** ULP distance between two floats (monotonic integer mapping). */
int64_t
ulpDistance(float a, float b)
{
    if (std::isnan(a) || std::isnan(b))
        return a == a && b == b ? 0 : INT64_MAX;
    int32_t ia, ib;
    std::memcpy(&ia, &a, sizeof(ia));
    std::memcpy(&ib, &b, sizeof(ib));
    // Map the sign-magnitude float ordering onto a monotonic integer
    // line so the distance is meaningful across zero.
    const int64_t ka = ia >= 0 ? ia : INT64_C(0x80000000) - ia;
    const int64_t kb = ib >= 0 ? ib : INT64_C(0x80000000) - ib;
    return ka >= kb ? ka - kb : kb - ka;
}

/** Restores the pre-test active level on scope exit. */
struct LevelRestorer
{
    simd::Level saved = simd::activeLevel();
    ~LevelRestorer() { (void)simd::setActiveLevel(saved); }
};

std::vector<float>
randomFloats(size_t n, Rng &rng)
{
    std::vector<float> v(n);
    for (float &x : v)
        x = static_cast<float>(rng.normal(0.0, 1.0));
    return v;
}

std::vector<int8_t>
randomInt8(size_t n, Rng &rng)
{
    std::vector<int8_t> v(n);
    for (int8_t &x : v)
        x = static_cast<int8_t>(static_cast<int>(rng.uniformInt(256)) - 128);
    return v;
}

// Ragged dims: primes and off-by-one-past-a-vector-width sizes so no
// kernel can hide a tail-handling bug behind round shapes.
const size_t kRaggedDims[] = {1, 3, 7, 17, 33, 65};

TEST(SimdDispatch, TablesAreComplete)
{
    for (simd::Level lvl :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Neon}) {
        const simd::Ops &t = simd::opsFor(lvl);
        EXPECT_NE(t.name, nullptr);
        EXPECT_NE(t.gemmF32, nullptr);
        EXPECT_NE(t.gemmInt8, nullptr);
        EXPECT_NE(t.addInto, nullptr);
        EXPECT_NE(t.scaleInPlace, nullptr);
        EXPECT_NE(t.lshSignatures, nullptr);
        EXPECT_NE(t.allFinite, nullptr);
        if (!simd::available(lvl)) {
            // Unavailable levels fall back to the scalar oracle.
            EXPECT_EQ(t.level, simd::Level::Scalar);
        } else {
            EXPECT_EQ(t.level, lvl);
        }
    }
}

TEST(SimdDispatch, ParseLevel)
{
    EXPECT_EQ(*simd::parseLevel("scalar"), simd::Level::Scalar);
    EXPECT_EQ(*simd::parseLevel("SCALAR"), simd::Level::Scalar);
    EXPECT_EQ(*simd::parseLevel("avx2"), simd::Level::Avx2);
    EXPECT_EQ(*simd::parseLevel("Neon"), simd::Level::Neon);
    EXPECT_EQ(*simd::parseLevel("auto"), simd::detect());
    EXPECT_FALSE(simd::parseLevel("sse9").ok());
    EXPECT_FALSE(simd::parseLevel("").ok());
    EXPECT_EQ(simd::parseLevel("bogus").status().code(),
              ErrorCode::InvalidArgument);
}

TEST(SimdDispatch, SetActiveLevel)
{
    LevelRestorer restore;
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar).ok());
    EXPECT_EQ(simd::activeLevel(), simd::Level::Scalar);
    EXPECT_STREQ(simd::ops().name, "scalar");

    // Whatever detect() picked is by definition available.
    ASSERT_TRUE(simd::setActiveLevel(simd::detect()).ok());
    EXPECT_EQ(simd::activeLevel(), simd::detect());

    // Some level is always unavailable (no CPU has AVX2 and NEON).
    for (simd::Level lvl : {simd::Level::Avx2, simd::Level::Neon}) {
        if (simd::available(lvl))
            continue;
        Status s = simd::setActiveLevel(lvl);
        EXPECT_FALSE(s.ok());
        EXPECT_EQ(s.code(), ErrorCode::InvalidArgument);
    }
}

TEST(SimdParity, GemmF32Ragged)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(11);
    for (size_t m : kRaggedDims) {
        for (size_t n : kRaggedDims) {
            for (size_t k : {size_t(1), size_t(7), size_t(33)}) {
                std::vector<float> a = randomFloats(m * k, rng);
                std::vector<float> b = randomFloats(k * n, rng);
                std::vector<float> seed = randomFloats(m * n, rng);
                for (bool accumulate : {false, true}) {
                    std::vector<float> c0 = seed, c1 = seed;
                    scalar.gemmF32(a.data(), b.data(), c0.data(), m, n, k,
                                   k, n, n, accumulate);
                    vec.gemmF32(a.data(), b.data(), c1.data(), m, n, k, k,
                                n, n, accumulate);
                    for (size_t i = 0; i < m * n; ++i)
                        ASSERT_LE(ulpDistance(c0[i], c1[i]), kMaxUlps)
                            << "m=" << m << " n=" << n << " k=" << k
                            << " acc=" << accumulate << " i=" << i
                            << " scalar=" << c0[i] << " vec=" << c1[i];
                }
            }
        }
    }
}

TEST(SimdParity, GemmF32StridedLeadingDims)
{
    // Sub-matrix views: leading dims larger than the logical width.
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(12);
    const size_t m = 17, n = 29, k = 13;
    const size_t lda = k + 5, ldb = n + 3, ldc = n + 9;
    std::vector<float> a = randomFloats(m * lda, rng);
    std::vector<float> b = randomFloats(k * ldb, rng);
    std::vector<float> c0 = randomFloats(m * ldc, rng), c1 = c0;
    scalar.gemmF32(a.data(), b.data(), c0.data(), m, n, k, lda, ldb, ldc,
                   true);
    vec.gemmF32(a.data(), b.data(), c1.data(), m, n, k, lda, ldb, ldc,
                true);
    // The whole buffer must match: padding columns untouched, logical
    // columns bit-identical.
    EXPECT_EQ(std::memcmp(c0.data(), c1.data(), c0.size() * sizeof(float)),
              0);
}

TEST(SimdParity, GemmInt8Ragged)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(13);
    for (size_t m : {size_t(1), size_t(7), size_t(33)}) {
        for (size_t n : kRaggedDims) {
            for (size_t k : {size_t(1), size_t(17), size_t(65)}) {
                std::vector<int8_t> a = randomInt8(m * k, rng);
                std::vector<int8_t> b = randomInt8(k * n, rng);
                std::vector<int32_t> c0(m * n, -1), c1(m * n, -1);
                scalar.gemmInt8(a.data(), b.data(), c0.data(), m, n, k, k,
                                n, n);
                vec.gemmInt8(a.data(), b.data(), c1.data(), m, n, k, k, n,
                             n);
                ASSERT_EQ(c0, c1) << "m=" << m << " n=" << n << " k=" << k;
            }
        }
    }
}

TEST(SimdParity, AddIntoRagged)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(14);
    for (size_t n : kRaggedDims) {
        std::vector<float> src = randomFloats(n, rng);
        std::vector<float> d0 = randomFloats(n, rng), d1 = d0;
        scalar.addInto(d0.data(), src.data(), n);
        vec.addInto(d1.data(), src.data(), n);
        for (size_t i = 0; i < n; ++i)
            ASSERT_LE(ulpDistance(d0[i], d1[i]), kMaxUlps)
                << "n=" << n << " i=" << i;
    }
}

TEST(SimdParity, ScaleInPlaceRagged)
{
    const simd::Ops &scalar = simd::opsFor(simd::Level::Scalar);
    const simd::Ops &vec = simd::opsFor(simd::detect());
    Rng rng(15);
    for (size_t n : kRaggedDims) {
        for (float s : {0.0f, 1.0f, -2.5f, 0.333f}) {
            std::vector<float> d0 = randomFloats(n, rng), d1 = d0;
            scalar.scaleInPlace(d0.data(), s, n);
            vec.scaleInPlace(d1.data(), s, n);
            for (size_t i = 0; i < n; ++i)
                ASSERT_LE(ulpDistance(d0[i], d1[i]), kMaxUlps)
                    << "n=" << n << " s=" << s << " i=" << i;
        }
    }
}

// ---- LSH signatures and the finite scan ------------------------------

/** Every level compiled in and supported here, scalar first. */
std::vector<simd::Level>
compiledLevels()
{
    std::vector<simd::Level> levels;
    for (simd::Level lvl :
         {simd::Level::Scalar, simd::Level::Avx2, simd::Level::Neon})
        if (simd::available(lvl))
            levels.push_back(lvl);
    return levels;
}

float
fromBits(uint32_t bits)
{
    float f;
    std::memcpy(&f, &bits, sizeof(f));
    return f;
}

const float kInf = std::numeric_limits<float>::infinity();
const float kNaN = std::numeric_limits<float>::quiet_NaN();
const float kDenorm = std::numeric_limits<float>::denorm_min();

/** Finite values that exercise signed zeros and subnormals. */
const float kQuietSpecials[] = {-0.0f, 0.0f, kDenorm, -kDenorm * 3,
                                std::numeric_limits<float>::min()};
/** Values that poison a projection (or pin it to +-Inf). */
const float kLoudSpecials[] = {kNaN, -kNaN, fromBits(0x7f800001u), kInf,
                               -kInf};

/** The replaced scalar sign pass, verbatim: sigs[i] bit f =
 *  (proj[i*h + f] + biases[f] > 0) over row-major projections. */
void
refSignProject(const float *proj, const float *biases, size_t count,
               size_t h, uint64_t *sigs)
{
    for (size_t i = 0; i < count; ++i) {
        const float *pi = proj + i * h;
        uint64_t sig = 0;
        for (size_t f = 0; f < h; ++f) {
            if (pi[f] + biases[f] > 0.0f)
                sig |= uint64_t{1} << f;
        }
        sigs[i] = sig;
    }
}

/** The replaced row path of HashFamily::signaturesInto, verbatim up to
 *  its scratch: S = X x V^T via the dispatched GEMM, then the sign
 *  pass. */
void
refRowSignatures(const float *x, size_t count, size_t len, size_t ld,
                 const float *vT, const float *biases, size_t h,
                 uint64_t *sigs)
{
    const simd::Ops &ops = simd::ops();
    std::vector<float> proj(count * h);
    ops.gemmF32(x, vT, proj.data(), count, h, len, ld, h, h, false);
    refSignProject(proj.data(), biases, count, h, sigs);
}

/** @p n floats, N(0, 1) with every fifth element a quiet special. */
std::vector<float>
saltedFloats(size_t n, Rng &rng)
{
    std::vector<float> v = randomFloats(n, rng);
    for (size_t i = 0; i < n; i += 5)
        v[i] = kQuietSpecials[rng.uniformInt(std::size(kQuietSpecials))];
    return v;
}

/** Puts one loud special into roughly a third of the @p count rows. */
void
poisonRows(std::vector<float> &x, size_t count, size_t len, size_t ld,
           Rng &rng)
{
    for (size_t i = 0; i < count; i += 3)
        x[i * ld + rng.uniformInt(len)] =
            kLoudSpecials[rng.uniformInt(std::size(kLoudSpecials))];
}

const size_t kHashCounts[] = {1, 2, 3, 4, 5, 8, 9, 16, 33, 64};
// Crosses gemmF32's 256-wide k block (255/256/257, 600, 1600).
const size_t kItemLens[] = {1, 7, 25, 255, 256, 257, 600, 1600};

TEST(SimdParity, LshSignaturesMatchOracleAndGemmComposition)
{
    Rng rng(16);
    for (size_t h : kHashCounts) {
        for (size_t len : kItemLens) {
            // Ragged counts around the 4-item interleave; strided rows.
            const size_t count = 1 + (h + len) % 11;
            const size_t ld = len + (len % 3) + 1;
            for (int salt = 0; salt < 3; ++salt) {
                std::vector<float> x = saltedFloats(count * ld, rng);
                std::vector<float> vT = saltedFloats(len * h, rng);
                std::vector<float> biases = saltedFloats(h, rng);
                if (salt >= 1)
                    poisonRows(x, count, len, ld, rng);
                if (salt == 2)
                    biases[rng.uniformInt(h)] =
                        kLoudSpecials[rng.uniformInt(
                            std::size(kLoudSpecials))];

                std::vector<uint64_t> ref(count, ~0ull);
                refRowSignatures(x.data(), count, len, ld, vT.data(),
                                 biases.data(), h, ref.data());
                for (simd::Level lvl : compiledLevels()) {
                    std::vector<uint64_t> got(count, ~0ull);
                    simd::opsFor(lvl).lshSignatures(x.data(), count, len,
                                                    ld, vT.data(),
                                                    biases.data(), h,
                                                    got.data());
                    ASSERT_EQ(got, ref)
                        << simd::levelName(lvl) << " h=" << h
                        << " len=" << len << " count=" << count
                        << " ld=" << ld << " salt=" << salt;
                }
            }
        }
    }
}

TEST(SimdParity, LshSignaturesRaggedCountsAndEmpty)
{
    // Every count mod 4 around the interleave, h in both register paths.
    Rng rng(17);
    const size_t len = 25, ld = 1600;
    for (size_t h : {size_t(4), size_t(12)}) {
        for (size_t count = 0; count <= 9; ++count) {
            std::vector<float> x = randomFloats(count * ld + len, rng);
            std::vector<float> vT = randomFloats(len * h, rng);
            std::vector<float> biases = randomFloats(h, rng);
            std::vector<uint64_t> ref(count + 1, 7), got(count + 1, 7);
            refRowSignatures(x.data(), count, len, ld, vT.data(),
                             biases.data(), h, ref.data());
            for (simd::Level lvl : compiledLevels()) {
                std::fill(got.begin(), got.end(), 7);
                simd::opsFor(lvl).lshSignatures(x.data(), count, len, ld,
                                                vT.data(), biases.data(),
                                                h, got.data());
                // sigs[count] is past the output: left untouched.
                ASSERT_EQ(got, ref) << simd::levelName(lvl) << " h=" << h
                                    << " count=" << count;
            }
        }
    }
}

TEST(SimdParity, LshSignaturesExactZeroBoundary)
{
    // proj + bias == 0 exactly: the strict `> 0` comparison must agree
    // across levels (a vectorized >= would flip these bits).
    const size_t count = 33, h = 5, len = 1;
    const std::vector<float> biases = {0.5f, -0.25f, 0.0f, 1.0f, -2.0f};
    std::vector<float> vT(len * h, 1.0f);
    std::vector<float> x(count);
    for (size_t i = 0; i < count; ++i)
        x[i] = i % 3 == 0 ? -biases[i % h] : (i % 2 ? 0.125f : -0.125f);
    std::vector<uint64_t> ref(count);
    refRowSignatures(x.data(), count, len, len, vT.data(), biases.data(),
                     h, ref.data());
    for (simd::Level lvl : compiledLevels()) {
        std::vector<uint64_t> got(count);
        simd::opsFor(lvl).lshSignatures(x.data(), count, len, len,
                                        vT.data(), biases.data(), h,
                                        got.data());
        EXPECT_EQ(got, ref) << simd::levelName(lvl);
    }
}

TEST(SimdParity, LshSignaturesKeepGemmRoundingOrder)
{
    // Random data almost never puts a projection within rounding of
    // zero, so these rows are built to: a different summation order or
    // a fused multiply-add flips every bit.
    struct Case
    {
        const char *what;
        std::vector<std::pair<size_t, float>> x, v; // (p, value)
        float bias;
        bool bit; // the replaced GEMM path's answer
    };
    const float big = 16777216.0f;                  // 2^24
    const float third = 1.0f + std::ldexp(1.0f, -12); // (1 + 2^-12)
    const Case cases[] = {
        // Per-block sums: (2^24 + 0) + (1 + 1) = 2^24 + 2. One running
        // sum rounds 2^24 + 1 down twice and ends at 2^24.
        {"k-block partial sums", {{0, big}, {256, 1.0f}, {257, 1.0f}},
         {{0, 1.0f}, {256, 1.0f}, {257, 1.0f}}, -big, true},
        // (1 + 2^-12)^2 rounds (a tie, to even) to 1 + 2^-11, so the
        // separate multiply and add cancel to 0; an FMA keeps 2^-24.
        {"separate multiply and add",
         {{0, -(1.0f + std::ldexp(1.0f, -11))}, {1, third}},
         {{0, 1.0f}, {1, third}}, 0.0f, false},
    };
    const size_t len = 600, count = 6;
    for (const Case &c : cases) {
        for (size_t h : {size_t(3), size_t(4), size_t(12)}) {
            std::vector<float> x(count * len, 0.0f), vT(len * h, 0.0f);
            for (size_t i = 0; i < count; ++i)
                for (const auto &[p, val] : c.x)
                    x[i * len + p] = val;
            for (size_t f = 0; f < h; ++f)
                for (const auto &[p, val] : c.v)
                    vT[p * h + f] = val;
            const std::vector<float> biases(h, c.bias);
            const uint64_t want = c.bit ? (uint64_t{1} << h) - 1 : 0;
            std::vector<uint64_t> ref(count);
            refRowSignatures(x.data(), count, len, len, vT.data(),
                             biases.data(), h, ref.data());
            ASSERT_EQ(ref, std::vector<uint64_t>(count, want))
                << c.what << ": the reference itself";
            for (simd::Level lvl : compiledLevels()) {
                std::vector<uint64_t> got(count);
                simd::opsFor(lvl).lshSignatures(x.data(), count, len, len,
                                                vT.data(), biases.data(),
                                                h, got.data());
                EXPECT_EQ(got, ref)
                    << c.what << " at " << simd::levelName(lvl)
                    << " h=" << h;
            }
        }
    }
}

TEST(SimdParity, SignaturesIntoMatchesReplacedGemmPath)
{
    // HashFamily's row path (strided rows and materialized blocks) at
    // every level: random families and learned, biased ones.
    LevelRestorer restore;
    Rng rng(18);
    for (size_t h : kHashCounts) {
        for (size_t len : {size_t(25), size_t(257), size_t(600)}) {
            const size_t count = 40 + h % 5, ld = len + 11;
            std::vector<float> x = saltedFloats(count * ld, rng);
            StridedItems items{x.data(), count, len, ld, 1};
            std::vector<HashFamily> families = {
                HashFamily::random(h, len, rng)};
            if (h <= 5) // PCA cost grows with h x len^2
                families.push_back(learnHashFamilyPca(items, h));
            for (const HashFamily &fam : families) {
                const size_t fh = fam.numFunctions();
                Tensor vT({len, fh});
                for (size_t f = 0; f < fh; ++f)
                    for (size_t j = 0; j < len; ++j)
                        vT.at2(j, f) = fam.vectors().at2(f, j);
                for (simd::Level lvl : compiledLevels()) {
                    ASSERT_TRUE(simd::setActiveLevel(lvl).ok());
                    std::vector<uint64_t> ref(count), got(count);
                    refRowSignatures(x.data(), count, len, ld, vT.data(),
                                     fam.biases().data(), fh, ref.data());
                    fam.signaturesInto(items, got.data());
                    ASSERT_EQ(0, std::memcmp(got.data(), ref.data(),
                                             count * sizeof(uint64_t)))
                        << simd::levelName(lvl) << " h=" << fh
                        << " len=" << len;
                }
            }
        }
    }
}

TEST(SimdParity, AllFiniteAcceptsFiniteSpecials)
{
    Rng rng(19);
    for (size_t n : {size_t(0), size_t(1), size_t(7), size_t(8), size_t(9),
                     size_t(31), size_t(32), size_t(33), size_t(1000)}) {
        std::vector<float> v = saltedFloats(n, rng);
        if (n > 2) {
            v[1] = std::numeric_limits<float>::max();
            v[2] = -std::numeric_limits<float>::max();
        }
        for (simd::Level lvl : compiledLevels())
            EXPECT_TRUE(simd::opsFor(lvl).allFinite(v.data(), n))
                << simd::levelName(lvl) << " n=" << n;
    }
}

TEST(SimdParity, AllFiniteFindsOneSpecialAtEveryPosition)
{
    // One NaN or Inf at every position of a ragged buffer: every lane
    // of every vector width, the unrolled blocks and the scalar tail.
    Rng rng(20);
    const size_t n = 77;
    const std::vector<float> clean = randomFloats(n, rng);
    for (float bad : kLoudSpecials) {
        for (size_t pos = 0; pos < n; ++pos) {
            std::vector<float> v = clean;
            v[pos] = bad;
            for (simd::Level lvl : compiledLevels()) {
                ASSERT_FALSE(simd::opsFor(lvl).allFinite(v.data(), n))
                    << simd::levelName(lvl) << " pos=" << pos
                    << " value=" << bad;
                // Outside the scanned prefix it must not be seen.
                ASSERT_TRUE(simd::opsFor(lvl).allFinite(v.data(), pos))
                    << simd::levelName(lvl) << " pos=" << pos;
            }
        }
    }
}

// ---- guarded forward oracle ------------------------------------------

/** What one guarded network forward leaves behind, per conv. */
struct GuardedForward
{
    Tensor out;
    std::vector<CostLedger> ledgers;
    std::vector<ReuseStats> stats;
    std::vector<GuardRung> rungs;
};

/** A guarded network fitted at one level, with every forward it ran. */
struct GuardedRun
{
    std::unique_ptr<Network> net;
    std::vector<std::shared_ptr<GuardedReuseConvAlgo>> algos;
    std::vector<GuardedForward> forwards;
};

/** The hashes the vertical kernel takes of @p cols — one item per
 *  blockRows x width block of each slice — equal the replaced GEMM
 *  path's, bit for bit. */
void
expectKernelHashesMatchReference(const Tensor &cols,
                                 const ReuseConvAlgo &algo,
                                 const ConvGeometry &geom,
                                 const std::string &at)
{
    const size_t n = cols.shape().rows(), din = cols.shape().cols();
    const size_t r = algo.pattern().blockRows;
    const VerticalSlicing s = VerticalSlicing::plan(
        din, algo.pattern().effectiveGranularity(geom), r);
    ASSERT_EQ(algo.families().size(), s.numSlices) << at;
    const size_t blocks = n / r;
    for (size_t k = 0; k < s.numSlices; ++k) {
        const size_t col0 = k * s.sliceWidth, width = s.width(k, din);
        std::vector<float> flat(blocks * r * width);
        for (size_t i = 0; i < blocks * r; ++i)
            std::copy_n(cols.data() + i * din + col0, width,
                        flat.data() + i * width);
        // r = 1 hashes the strided rows in place; r > 1 the
        // materialized blocks.
        const StridedItems items =
            r == 1 ? StridedItems{cols.data() + col0, n, width, din, 1}
                   : StridedItems{flat.data(), blocks, r * width,
                                  r * width, 1};
        const HashFamily &fam = algo.families()[k];
        const size_t h = fam.numFunctions();
        Tensor vT({items.length, h});
        for (size_t f = 0; f < h; ++f)
            for (size_t j = 0; j < items.length; ++j)
                vT.at2(j, f) = fam.vectors().at2(f, j);
        std::vector<uint64_t> ref(items.count), got(items.count);
        refRowSignatures(items.base, items.count, items.length,
                         items.itemStride, vT.data(), fam.biases().data(),
                         h, ref.data());
        fam.signaturesInto(items, got.data());
        ASSERT_EQ(0, std::memcmp(got.data(), ref.data(),
                                 items.count * sizeof(uint64_t)))
            << at << " slice " << k;
    }
}

/** One forward, layer by layer, so each conv's input is at hand. */
GuardedForward
guardedForward(GuardedRun &run, const Tensor &x, const std::string &at)
{
    const std::vector<Conv2D *> convs = run.net->convLayers();
    GuardedForward f;
    f.ledgers.resize(convs.size());
    for (size_t c = 0; c < convs.size(); ++c)
        convs[c]->setLedger(&f.ledgers[c]);
    Tensor act = x;
    size_t c = 0;
    for (size_t i = 0; i < run.net->numLayers(); ++i) {
        Layer &layer = run.net->layer(i);
        const Tensor in = act;
        act = layer.forward(in, /*training=*/false);
        if (dynamic_cast<Conv2D *>(&layer) == nullptr)
            continue;
        const GuardedReuseConvAlgo &algo = *run.algos[c++];
        if (algo.lastRung() != GuardRung::ExactFallback) {
            const ConvGeometry geom = convs[c - 1]->geometry(in.shape());
            expectKernelHashesMatchReference(im2col(in, geom), algo.inner(),
                                             geom,
                                             at + " " + layer.name());
        }
    }
    for (Conv2D *conv : convs)
        conv->setLedger(nullptr);
    f.out = act;
    for (const auto &algo : run.algos) {
        f.stats.push_back(algo->inner().lastStats());
        f.rungs.push_back(algo->lastRung());
    }
    return f;
}

/** Fits a guarded network at @p level and runs three in-distribution
 *  forwards, then one whose input holds a NaN. CifarNet's conv rows
 *  are even; TinyNet at 18 px gives conv2 81 rows, so blockRows = 2
 *  leaves a remainder row. */
GuardedRun
guardedRun(simd::Level level, bool cifar, size_t block_rows)
{
    EXPECT_TRUE(simd::setActiveLevel(level).ok());
    const std::string at = std::string(simd::levelName(level)) +
                           (cifar ? " CifarNet" : " TinyNet") + " r=" +
                           std::to_string(block_rows);
    const size_t image = cifar ? 32 : 18;
    Rng rng(1000);
    GuardedRun run;
    run.net = std::make_unique<Network>(
        cifar ? makeCifarNet(rng) : makeTinyNet(rng, 10, image));
    SyntheticConfig cfg;
    cfg.numSamples = 4;
    cfg.seed = 1001;
    cfg.imageSize = image;
    cfg.blockSize = cifar ? 8 : 6;
    const Dataset fit = makeSyntheticCifar(cfg);
    for (Conv2D *conv : run.net->convLayers()) {
        ReusePattern p;
        p.granularity = conv->kernelSize() * conv->kernelSize();
        p.numHashes = 4;
        p.blockRows = block_rows;
        run.algos.push_back(fitAndInstallGuarded(
            *run.net, *conv, p, fit, {}, HashMode::Learned, 99));
    }
    cfg.numSamples = 3;
    cfg.seed = 17;
    const Dataset images = makeSyntheticCifar(cfg);
    for (size_t i = 0; i < images.size(); ++i)
        run.forwards.push_back(guardedForward(
            run, images.gatherImages({i}),
            at + " image " + std::to_string(i)));
    size_t reused = 0;
    for (const GuardedForward &f : run.forwards)
        for (GuardRung rung : f.rungs)
            reused += rung != GuardRung::ExactFallback;
    EXPECT_GT(reused, 0u) << at << ": no conv reached the hash check";
    Tensor poisoned = images.gatherImages({0});
    poisoned.data()[poisoned.size() / 2] = kNaN;
    run.forwards.push_back(guardedForward(run, poisoned, at + " NaN"));
    EXPECT_EQ(run.forwards.back().rungs[0], GuardRung::ExactFallback)
        << at << ": a non-finite input must take the exact rung";
    return run;
}

TEST(GuardedForwardOracle, ScalarAndDetectedLevelsAgreeBitForBit)
{
    LevelRestorer restore;
    for (bool cifar : {true, false}) {
        for (size_t r : {size_t(1), size_t(2)}) {
            if (cifar && r == 2)
                continue; // TinyNet covers r = 2 with a remainder row
            const GuardedRun ref = guardedRun(simd::Level::Scalar, cifar, r);
            const GuardedRun vec = guardedRun(simd::detect(), cifar, r);
            ASSERT_EQ(ref.forwards.size(), vec.forwards.size());
            for (size_t i = 0; i < ref.forwards.size(); ++i) {
                const GuardedForward &a = ref.forwards[i];
                const GuardedForward &b = vec.forwards[i];
                const std::string at =
                    std::string(cifar ? "CifarNet" : "TinyNet") + " r=" +
                    std::to_string(r) + " forward " + std::to_string(i);
                ASSERT_EQ(a.out.shape(), b.out.shape()) << at;
                EXPECT_EQ(0, std::memcmp(a.out.data(), b.out.data(),
                                         a.out.size() * sizeof(float)))
                    << at;
                EXPECT_EQ(a.rungs, b.rungs) << at;
                for (size_t c = 0; c < a.ledgers.size(); ++c) {
                    EXPECT_TRUE(a.ledgers[c] == b.ledgers[c])
                        << at << " conv " << c << " op counts";
                    EXPECT_EQ(0, std::memcmp(&a.stats[c], &b.stats[c],
                                             sizeof(ReuseStats)))
                        << at << " conv " << c << " reuse stats";
                }
            }
        }
    }
}

TEST(SimdParity, ActiveTableMatchesOpsForActiveLevel)
{
    LevelRestorer restore;
    ASSERT_TRUE(simd::setActiveLevel(simd::Level::Scalar).ok());
    EXPECT_EQ(simd::ops().gemmF32,
              simd::opsFor(simd::Level::Scalar).gemmF32);
    ASSERT_TRUE(simd::setActiveLevel(simd::detect()).ok());
    EXPECT_EQ(simd::ops().gemmF32, simd::opsFor(simd::detect()).gemmF32);
}

} // namespace
} // namespace genreuse
