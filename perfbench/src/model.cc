#include "model.h"

#include "common/rng.h"
#include "core/measurement.h"
#include "data/synthetic.h"
#include "models/models.h"
#include "nn/serialize.h"
#include "nn/trainer.h"

using namespace genreuse;

namespace perfbench {

namespace {

/** Seed of the model's weights, training set and training order. */
constexpr uint64_t kModelSeed = 1000;

// The repository's paper benches use these CifarNet settings: noisy,
// partly redundant images so accuracy is informative, not saturated.
constexpr float kNoise = 0.25f;
constexpr float kRedundancy = 0.58f;
constexpr size_t kTrainImages = 224;

} // namespace

Dataset
makeImages(size_t count, uint64_t seed)
{
    SyntheticConfig cfg;
    cfg.noiseStddev = kNoise;
    cfg.redundancy = kRedundancy;
    cfg.numSamples = count;
    cfg.seed = seed;
    return makeSyntheticCifar(cfg);
}

Dataset
fitSample()
{
    // The generator is sequential, so this is the training set's prefix.
    return makeImages(4, kModelSeed + 1);
}

Dataset
heldOutImages(size_t count)
{
    return makeImages(count, kModelSeed + 2);
}

void
trainAndSave(const std::string &params_path)
{
    Rng rng(kModelSeed);
    Network net = makeCifarNet(rng);
    TrainConfig cfg;
    cfg.epochs = 3;
    cfg.batchSize = 16;
    cfg.sgd.learningRate = 0.01;
    cfg.sgd.momentum = 0.9;
    cfg.sgd.weightDecay = 1e-4;
    cfg.shuffleSeed = kModelSeed + 3;
    train(net, makeImages(kTrainImages, kModelSeed + 1), cfg);
    saveParameters(net, params_path);
}

std::unique_ptr<Replica>
makeReplica(const std::string &params_path, bool guarded,
            const Dataset &fit_sample)
{
    auto r = std::make_unique<Replica>();
    Rng rng(kModelSeed);
    r->net = makeCifarNet(rng);
    loadParameters(r->net, params_path);
    if (!guarded)
        return r;
    // conv1 is installed first, so conv2's hashes are fitted on conv1's
    // guarded output: the same order the serve tier's replicas use.
    for (Conv2D *conv : r->net.convLayers()) {
        ReusePattern p;
        p.granularity = conv->kernelSize() * conv->kernelSize();
        p.numHashes = 4;
        r->guards.push_back(fitAndInstallGuarded(
            r->net, *conv, p, fit_sample, {}, HashMode::Learned, 99));
    }
    return r;
}

} // namespace perfbench
