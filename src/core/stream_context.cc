#include "stream_context.h"

#include <atomic>

#include "common/logging.h"

namespace genreuse {

namespace {

thread_local StreamContext *t_current = nullptr;

} // namespace

uint64_t
uniqueSerial()
{
    static std::atomic<uint64_t> next{1};
    return next.fetch_add(1, std::memory_order_relaxed);
}

void
ConvStreamScratch::onNewEpoch(uint64_t epoch)
{
    fitEpoch = epoch;
    // The row permutation only depends on the pattern and geometry, but
    // resetting its key is cheap and keeps "epoch moved" meaning "all
    // fit-derived caches rebuilt". The mapped families hold copies of
    // the *old* families and must go; the warn flag re-arms so a
    // band mismatch against the new fit is reported once per fit.
    rowPermBatch = static_cast<size_t>(-1);
    rowPermRows = static_cast<size_t>(-1);
    mappedFamilies.clear();
    mappedNumBands = 0;
    mappedBandHeight = 0;
    warnedBandMismatch = false;
}

StreamContext::StreamContext(uint16_t id, std::string name)
    : id_(id), name_(std::move(name)),
      ownedArena_(std::make_unique<Arena>())
{
    GENREUSE_REQUIRE(id != 0, "explicit StreamContext id must be nonzero "
                              "(0 is the thread-default context)");
    ownedArena_->setRetainBytes(Arena::envRetainBytes());
}

StreamContext::StreamContext(ThreadDefaultTag) : id_(0) {}

StreamContext::~StreamContext() = default;

Arena &
StreamContext::arena()
{
    if (ownedArena_)
        return *ownedArena_;
    return Arena::forCurrentStream();
}

ClusterResult &
StreamContext::clusterScratch(size_t slot)
{
    GENREUSE_REQUIRE(slot < kNumClusterScratch,
                     "bad cluster scratch slot ", slot);
    return clusterScratch_[slot];
}

ConvStreamScratch &
StreamContext::convScratch(const void *owner, uint64_t fit_epoch)
{
    // Linear scan: a context serves a handful of algorithm instances
    // (one per reuse-optimized layer), and the scan is branch-predicted
    // against pointers already in cache.
    for (auto &sc : convScratch_) {
        if (sc->owner == owner) {
            if (sc->fitEpoch != fit_epoch)
                sc->onNewEpoch(fit_epoch);
            return *sc;
        }
    }
    convScratch_.push_back(std::make_unique<ConvStreamScratch>());
    ConvStreamScratch &sc = *convScratch_.back();
    sc.owner = owner;
    sc.fitEpoch = fit_epoch;
    return sc;
}

GuardStreamState &
StreamContext::guardState(const void *owner, uint64_t serial)
{
    for (auto &st : guardStates_) {
        if (st->owner == owner) {
            if (st->ownerSerial != serial) {
                // The address outlived its algorithm: start fresh.
                *st = GuardStreamState{};
                st->owner = owner;
                st->ownerSerial = serial;
            }
            return *st;
        }
    }
    guardStates_.push_back(std::make_unique<GuardStreamState>());
    GuardStreamState &st = *guardStates_.back();
    st.owner = owner;
    st.ownerSerial = serial;
    return st;
}

void
StreamContext::reset()
{
    if (ownedArena_) {
        ownedArena_->reset();
        // A panicking forward may have left poisoned bytes behind the
        // bump pointer; releasing the blocks (not just rewinding) puts
        // the arena in a truly fresh state. Retention config is kept.
        ownedArena_->releaseMemory();
    }
    for (auto &scratch : clusterScratch_)
        scratch = ClusterResult{};
    convScratch_.clear();
    guardStates_.clear();
}

StreamContext &
StreamContext::current()
{
    if (t_current != nullptr)
        return *t_current;
    static thread_local StreamContext def{ThreadDefaultTag{}};
    return def;
}

StreamContext::Bind::Bind(StreamContext &ctx)
    : prevCtx_(t_current),
      prevArena_(Arena::bindCurrentThread(&ctx.arena())),
      prevStream_(streamtag::bind(ctx.id()))
{
    t_current = &ctx;
}

StreamContext::Bind::~Bind()
{
    t_current = prevCtx_;
    Arena::bindCurrentThread(prevArena_);
    streamtag::bind(prevStream_);
}

} // namespace genreuse
