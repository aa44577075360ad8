#include "serialize.h"

#include <cstdint>
#include <cstddef>
#include <fstream>

#include "common/logging.h"

namespace genreuse {

namespace {

constexpr uint32_t kMagic = 0x47525a53; // "GRZS"
constexpr uint32_t kVersion = 1;

void
writeU32(std::ostream &os, uint32_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

void
writeU64(std::ostream &os, uint64_t v)
{
    os.write(reinterpret_cast<const char *>(&v), sizeof(v));
}

uint32_t
readU32(std::istream &is)
{
    uint32_t v = 0;
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    GENREUSE_REQUIRE(is.good(), "truncated stream");
    return v;
}

uint64_t
readU64(std::istream &is)
{
    uint64_t v = 0;
    is.read(reinterpret_cast<char *>(&v), sizeof(v));
    GENREUSE_REQUIRE(is.good(), "truncated stream");
    return v;
}

} // namespace

void
writeTensor(std::ostream &os, const Tensor &t)
{
    writeU64(os, t.shape().rank());
    for (size_t i = 0; i < t.shape().rank(); ++i)
        writeU64(os, t.shape().dim(i));
    os.write(reinterpret_cast<const char *>(t.data()),
             static_cast<std::streamsize>(t.size() * sizeof(float)));
}

Tensor
readTensor(std::istream &is)
{
    uint64_t rank = readU64(is);
    GENREUSE_REQUIRE(rank <= Shape::kMaxRank, "implausible tensor rank ",
                     rank);
    std::vector<size_t> dims(rank);
    size_t elems = 1;
    bool overflow = false;
    for (auto &d : dims) {
        d = readU64(is);
        GENREUSE_REQUIRE(d <= (1ull << 32), "implausible dimension ", d);
        overflow = overflow || (d != 0 && elems > SIZE_MAX / d);
        elems *= d;
    }
    // Each dimension is bounded but their product is not: reject a
    // count that overflows size_t or that the rest of a seekable stream
    // cannot hold, before allocating it.
    size_t room = SIZE_MAX;
    const std::streampos here = is.tellg();
    if (here >= 0) {
        is.seekg(0, std::ios::end);
        room = static_cast<size_t>(is.tellg() - here) / sizeof(float);
        is.seekg(here);
    }
    GENREUSE_REQUIRE(!overflow && elems <= room,
                     "tensor element count exceeds the stream (",
                     overflow ? "overflows size_t" : "too large", ")");
    Tensor t{Shape(dims)};
    is.read(reinterpret_cast<char *>(t.data()),
            static_cast<std::streamsize>(t.size() * sizeof(float)));
    GENREUSE_REQUIRE(is.good(), "truncated tensor data");
    return t;
}

void
saveParameters(Network &net, const std::string &path)
{
    std::ofstream os(path, std::ios::binary);
    GENREUSE_REQUIRE(os.is_open(), "cannot open ", path, " for writing");
    auto params = net.params();
    writeU32(os, kMagic);
    writeU32(os, kVersion);
    writeU64(os, params.size());
    for (auto *p : params)
        writeTensor(os, p->value);
    GENREUSE_REQUIRE(os.good(), "write failure on ", path);
}

void
loadParameters(Network &net, const std::string &path)
{
    std::ifstream is(path, std::ios::binary);
    GENREUSE_REQUIRE(is.is_open(), "cannot open ", path, " for reading");
    GENREUSE_REQUIRE(readU32(is) == kMagic, "bad magic in ", path);
    uint32_t version = readU32(is);
    GENREUSE_REQUIRE(version == kVersion, "unsupported version ", version);

    auto params = net.params();
    uint64_t count = readU64(is);
    GENREUSE_REQUIRE(count == params.size(), "parameter count mismatch: ",
                     "file has ", count, ", network has ", params.size());
    for (auto *p : params) {
        Tensor t = readTensor(is);
        GENREUSE_REQUIRE(t.shape() == p->value.shape(),
                         "parameter shape mismatch: file ",
                         t.shape().toString(), " vs network ",
                         p->value.shape().toString());
        p->value = std::move(t);
    }
}

void
writeHashFamily(std::ostream &os, const HashFamily &family)
{
    writeTensor(os, family.vectors());
    writeU64(os, family.biases().size());
    os.write(reinterpret_cast<const char *>(family.biases().data()),
             static_cast<std::streamsize>(family.biases().size() *
                                          sizeof(float)));
}

HashFamily
readHashFamily(std::istream &is)
{
    Tensor vectors = readTensor(is);
    uint64_t n = readU64(is);
    GENREUSE_REQUIRE(n == vectors.shape().rows(),
                     "bias count mismatches hash vector count");
    std::vector<float> biases(n);
    is.read(reinterpret_cast<char *>(biases.data()),
            static_cast<std::streamsize>(n * sizeof(float)));
    GENREUSE_REQUIRE(is.good(), "truncated hash family");
    return HashFamily(std::move(vectors), std::move(biases));
}

} // namespace genreuse
