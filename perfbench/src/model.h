/**
 * @file
 * The served model of the benchmark: CifarNet trained once from a
 * fixed model seed, saved, and loaded into identically built replicas
 * in every measured process.
 */

#ifndef PERFBENCH_MODEL_H
#define PERFBENCH_MODEL_H

#include <memory>
#include <string>
#include <vector>

#include "core/guard.h"
#include "data/dataset.h"
#include "nn/network.h"

namespace perfbench {

/** In-distribution images like the training set, from @p seed. */
genreuse::Dataset makeImages(size_t count, uint64_t seed);

/** The first four training images: the sample hash families are
 *  fitted on, and pattern selection profiles and fits on. */
genreuse::Dataset fitSample();

/** Held-out images of the model seed (pattern selection's check). */
genreuse::Dataset heldOutImages(size_t count);

/** Train CifarNet on its training set and save its parameters. */
void trainAndSave(const std::string &params_path);

/** One served copy of the model. */
struct Replica
{
    genreuse::Network net{"CifarNet"};
    /** Guarded algorithms installed on conv1 and conv2 (empty when
     *  the replica serves the exact model). */
    std::vector<std::shared_ptr<genreuse::GuardedReuseConvAlgo>> guards;
};

/**
 * Build a replica from saved parameters. With @p guarded, install the
 * serve tier's guarded reuse on every conv: L = k*k, H = 4, learned
 * hashes fitted on the first four training images.
 */
std::unique_ptr<Replica> makeReplica(const std::string &params_path,
                                     bool guarded,
                                     const genreuse::Dataset &fit_sample);

} // namespace perfbench

#endif // PERFBENCH_MODEL_H
