/**
 * @file
 * Locality-sensitive hashing (§2 of the paper): sign-of-dot-product
 * hyperplane hashing. H hash functions map a neuron vector to an H-bit
 * signature; vectors with equal signatures form a cluster.
 */

#ifndef GENREUSE_LSH_LSH_H
#define GENREUSE_LSH_LSH_H

#include <cstdint>
#include <vector>

#include "common/rng.h"
#include "tensor/matrix_view.h"
#include "tensor/tensor.h"

namespace genreuse {

/**
 * A family of H hyperplane hash functions over vectors of a fixed
 * length L. h_v(x) = 1 iff v.x + bias > 0 (Equation 1; the paper's
 * form has bias = 0, learned families may carry a centering bias).
 */
class HashFamily
{
  public:
    HashFamily() = default;

    /**
     * @param vectors H x L matrix, one hash hyperplane per row
     * @param biases optional per-function bias (empty means all zero)
     */
    HashFamily(Tensor vectors, std::vector<float> biases = {});

    /** Random Gaussian hyperplanes — the "lightweight" profiling family. */
    static HashFamily random(size_t num_functions, size_t length, Rng &rng);

    size_t numFunctions() const { return vectors_.shape().rows(); }
    size_t vectorLength() const { return vectors_.shape().cols(); }

    const Tensor &vectors() const { return vectors_; }
    const std::vector<float> &biases() const { return biases_; }

    /** Signature of a single strided item. @pre item length matches */
    uint64_t signature(const StridedItems &items, size_t index) const;

    /**
     * Signatures for every item (see signaturesInto() for the fast
     * paths).
     */
    std::vector<uint64_t> signatures(const StridedItems &items) const;

    /**
     * signatures() without the output allocation: writes into
     * @p sigs[0 .. items.count). Contiguous rows go through the
     * dispatched simd lshSignatures kernel; unit-item-stride column
     * layouts (the horizontal kernel's per-band view) through a
     * dispatched GEMM with arena scratch. Both sum each projection as
     * the same ordered float sequence, so row- and column-view
     * signatures of the same data agree bit-for-bit.
     */
    void signaturesInto(const StridedItems &items, uint64_t *sigs) const;

    /**
     * MAC count of hashing @p n items (n * H * L) — consumed by the MCU
     * cost model, which charges clustering as an extra X x Hash GEMM.
     */
    size_t
    hashMacs(size_t n) const
    {
        return n * numFunctions() * vectorLength();
    }

  private:
    Tensor vectors_;  // H x L
    Tensor vectorsT_; // L x H, cached once for the signature kernel
    std::vector<float> biases_;
};

} // namespace genreuse

#endif // GENREUSE_LSH_LSH_H
