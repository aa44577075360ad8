/**
 * @file
 * Tests for parameter/hash-family serialization: byte-exact round
 * trips, mismatch detection, and a save-train-load workflow.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sstream>

#include "data/synthetic.h"
#include "models/models.h"
#include "nn/serialize.h"
#include "nn/trainer.h"
#include "tensor/tensor_ops.h"

namespace genreuse {
namespace {

std::string
tempPath(const char *name)
{
    return std::string("/tmp/genreuse_test_") + name + ".bin";
}

TEST(Serialize, TensorRoundTrip)
{
    Rng rng(1);
    Tensor t = Tensor::randomNormal({3, 4, 5}, rng);
    std::stringstream ss;
    writeTensor(ss, t);
    Tensor back = readTensor(ss);
    EXPECT_EQ(back.shape(), t.shape());
    EXPECT_EQ(maxAbsDiff(back, t), 0.0f);
}

TEST(Serialize, ScalarTensorRoundTrip)
{
    Tensor t; // rank 0
    t[0] = 42.0f;
    std::stringstream ss;
    writeTensor(ss, t);
    Tensor back = readTensor(ss);
    EXPECT_EQ(back.shape().rank(), 0u);
    EXPECT_EQ(back[0], 42.0f);
}

TEST(Serialize, NetworkParametersRoundTrip)
{
    Rng rng(2);
    Network a = makeTinyNet(rng);
    std::string path = tempPath("net");
    saveParameters(a, path);

    Rng rng2(99); // different init
    Network b = makeTinyNet(rng2);
    // Ensure they differ before loading.
    EXPECT_GT(maxAbsDiff(a.params()[0]->value, b.params()[0]->value), 0.0f);
    loadParameters(b, path);
    auto pa = a.params(), pb = b.params();
    ASSERT_EQ(pa.size(), pb.size());
    for (size_t i = 0; i < pa.size(); ++i)
        EXPECT_EQ(maxAbsDiff(pa[i]->value, pb[i]->value), 0.0f);
    std::remove(path.c_str());
}

TEST(Serialize, LoadedNetworkPredictsIdentically)
{
    Rng rng(3);
    Network a = makeTinyNet(rng);
    SyntheticConfig cfg;
    cfg.numSamples = 8;
    Dataset data = makeSyntheticCifar(cfg);
    // Train briefly so weights are non-trivial.
    TrainConfig tcfg;
    tcfg.epochs = 1;
    tcfg.batchSize = 4;
    train(a, data, tcfg);

    std::string path = tempPath("pred");
    saveParameters(a, path);
    Rng rng2(4);
    Network b = makeTinyNet(rng2);
    loadParameters(b, path);

    Tensor x = data.gatherImages({0, 1});
    Tensor ya = a.forward(x, false);
    Tensor yb = b.forward(x, false);
    EXPECT_EQ(maxAbsDiff(ya, yb), 0.0f);
    std::remove(path.c_str());
}

TEST(Serialize, MismatchedArchitectureDies)
{
    Rng rng(5);
    Network a = makeTinyNet(rng);
    std::string path = tempPath("mismatch");
    saveParameters(a, path);
    Rng rng2(6);
    Network b = makeCifarNet(rng2);
    ASSERT_DEATH_IF_SUPPORTED(loadParameters(b, path), "mismatch");
    std::remove(path.c_str());
}

TEST(Serialize, MissingFileDies)
{
    Rng rng(7);
    Network a = makeTinyNet(rng);
    ASSERT_DEATH_IF_SUPPORTED(
        loadParameters(a, "/nonexistent/genreuse.bin"), "cannot open");
}

TEST(Serialize, OversizedElementCountDies)
{
    // rank 2, dims 2^32 x 2^32: each dimension passes the per-dim
    // bound but the element count overflows size_t.
    std::stringstream overflow;
    for (uint64_t v : {uint64_t{2}, uint64_t{1} << 32, uint64_t{1} << 32})
        overflow.write(reinterpret_cast<const char *>(&v), sizeof(v));
    ASSERT_DEATH_IF_SUPPORTED(readTensor(overflow),
                              "tensor element count exceeds the stream");
    // rank 2, dims 2^20 x 2^20: no overflow, but 2^40 floats cannot
    // come out of an empty remainder.
    std::stringstream huge;
    for (uint64_t v : {uint64_t{2}, uint64_t{1} << 20, uint64_t{1} << 20})
        huge.write(reinterpret_cast<const char *>(&v), sizeof(v));
    ASSERT_DEATH_IF_SUPPORTED(readTensor(huge),
                              "tensor element count exceeds the stream");
}

TEST(Serialize, HashFamilyRoundTrip)
{
    Rng rng(8);
    HashFamily f = HashFamily::random(6, 12, rng);
    std::stringstream ss;
    writeHashFamily(ss, f);
    HashFamily back = readHashFamily(ss);
    EXPECT_EQ(back.numFunctions(), 6u);
    EXPECT_EQ(back.vectorLength(), 12u);
    EXPECT_EQ(maxAbsDiff(back.vectors(), f.vectors()), 0.0f);

    // Identical signatures on identical data.
    Tensor m = Tensor::randomNormal({10, 12}, rng);
    StridedItems items{m.data(), 10, 12, 12, 1};
    EXPECT_EQ(f.signatures(items), back.signatures(items));
}

} // namespace
} // namespace genreuse
