#include "eventlog.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "faultpoint.h"
#include "json.h"
#include "logging.h"
#include "metrics.h"
#include "rtrace.h"
#include "streamtag.h"

namespace genreuse {
namespace eventlog {

const char *
typeName(Type t)
{
    switch (t) {
      case Type::ForwardBegin:
        return "forward_begin";
      case Type::ForwardEnd:
        return "forward_end";
      case Type::LayerReuse:
        return "layer_reuse";
      case Type::KernelReuse:
        return "kernel_reuse";
      case Type::Cluster:
        return "cluster";
      case Type::GuardRung:
        return "guard_rung";
      case Type::Drift:
        return "drift";
      case Type::FaultFire:
        return "fault_fire";
      case Type::SramHighWater:
        return "sram_high_water";
      case Type::WarnOnce:
        return "warn_once";
      case Type::Streaming:
        return "streaming";
      case Type::Panic:
        return "panic";
      case Type::RequestShed:
        return "request_shed";
      case Type::StreamQuarantine:
        return "stream_quarantine";
      case Type::Health:
        return "health";
      case Type::CanarySample:
        return "canary_sample";
      case Type::CanaryBreach:
        return "canary_breach";
      case Type::SloAlert:
        return "slo_alert";
      default:
        return "?";
    }
}

namespace {

/** ns since the journal's process-wide steady-clock epoch. */
uint64_t
nowNs()
{
    static const std::chrono::steady_clock::time_point epoch =
        std::chrono::steady_clock::now();
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now() - epoch)
            .count());
}

// Slot sequence sentinels. Real sequence numbers would need ~585 years
// of continuous recording to reach them.
constexpr uint64_t kSeqEmpty = ~uint64_t{0};
constexpr uint64_t kSeqBusy = ~uint64_t{0} - 1;

/**
 * One ring slot. Every field is an individually-relaxed atomic so
 * concurrent overwrite + snapshot is a data-race-free torn read that
 * the seq recheck then discards — no locks anywhere on the write path.
 */
struct Slot
{
    std::atomic<uint64_t> seq{kSeqEmpty};
    std::atomic<uint64_t> tsNs{0};
    std::atomic<double> d0{0.0}, d1{0.0}, d2{0.0};
    std::atomic<uint32_t> u32{0};
    std::atomic<uint32_t> req{0};
    std::atomic<uint16_t> tag{0};
    std::atomic<uint16_t> stream{0};
    std::atomic<uint8_t> type{0};
    std::atomic<uint8_t> a8{0};
};

static_assert(sizeof(Slot) <= 64, "one event must fit a cache line");
static_assert((kCapacity & (kCapacity - 1)) == 0,
              "ring capacity must be a power of two");

std::atomic<uint64_t> g_next{0};
std::atomic<uint64_t> g_type_counts[static_cast<size_t>(Type::NumTypes)];

Slot *
ring()
{
    // Heap-allocated and never freed: recorders in static destructors
    // (atexit profilers, late warn-once fires) stay safe.
    static Slot *r = new Slot[kCapacity];
    return r;
}

// --- tag interning ---------------------------------------------------

// Tags are append-only and process-lifetime stable so a uint16_t in a
// slot never dangles. Capped: id kOverflowTag absorbs everything past
// the cap instead of growing without bound on dynamic names.
constexpr size_t kMaxTags = 4096;
constexpr uint16_t kOverflowTag = 1;

std::mutex g_tag_mutex;

std::vector<std::string> &
tagTable()
{
    static std::vector<std::string> *v =
        new std::vector<std::string>{"", "(overflow)"};
    return *v;
}

thread_local uint16_t t_tag = 0;

// --- black box -------------------------------------------------------

std::mutex g_bb_mutex;

std::string &
blackboxPathStorage()
{
    static std::string *p = new std::string;
    return *p;
}

std::atomic<bool> g_bb_armed{false};
std::atomic<uint64_t> g_postmortems{0};

} // namespace

uint16_t
intern(const std::string &s)
{
    if (s.empty())
        return 0;
    std::lock_guard<std::mutex> lock(g_tag_mutex);
    auto &table = tagTable();
    for (size_t i = 0; i < table.size(); ++i)
        if (table[i] == s)
            return static_cast<uint16_t>(i);
    if (table.size() >= kMaxTags)
        return kOverflowTag;
    table.push_back(s);
    return static_cast<uint16_t>(table.size() - 1);
}

const std::string &
tagName(uint16_t tag)
{
    std::lock_guard<std::mutex> lock(g_tag_mutex);
    auto &table = tagTable();
    if (tag >= table.size())
        return table[0];
    return table[tag];
}

void
detail::recordSlow(Type type, uint16_t tag, double d0, double d1, double d2,
                   uint32_t u32, uint8_t a8)
{
    if (tag == 0)
        tag = t_tag;
    g_type_counts[static_cast<size_t>(type) %
                  static_cast<size_t>(Type::NumTypes)]
        .fetch_add(1, std::memory_order_relaxed);
    const uint64_t seq = g_next.fetch_add(1, std::memory_order_relaxed);
    Slot &s = ring()[seq & (kCapacity - 1)];
    // Mark busy (acquire pairs with the previous writer's release so
    // this overwrite is ordered after the prior commit), fill the
    // payload relaxed, then commit with a release of the sequence.
    s.seq.exchange(kSeqBusy, std::memory_order_acquire);
    s.tsNs.store(nowNs(), std::memory_order_relaxed);
    s.d0.store(d0, std::memory_order_relaxed);
    s.d1.store(d1, std::memory_order_relaxed);
    s.d2.store(d2, std::memory_order_relaxed);
    s.u32.store(u32, std::memory_order_relaxed);
    s.req.store(static_cast<uint32_t>(rtrace::currentRequestId()),
                std::memory_order_relaxed);
    s.tag.store(tag, std::memory_order_relaxed);
    s.stream.store(streamtag::current(), std::memory_order_relaxed);
    s.type.store(static_cast<uint8_t>(type), std::memory_order_relaxed);
    s.a8.store(a8, std::memory_order_relaxed);
    s.seq.store(seq, std::memory_order_release);
}

LayerScope::LayerScope(const std::string &layer_name)
{
    if (!enabled())
        return;
    prev_ = t_tag;
    t_tag = intern(layer_name);
    active_ = true;
}

LayerScope::~LayerScope()
{
    if (active_)
        t_tag = prev_;
}

uint16_t
currentTag()
{
    return t_tag;
}

void
resetThreadScope()
{
    t_tag = 0;
}

uint64_t
recorded()
{
    return g_next.load(std::memory_order_relaxed);
}

uint64_t
overwritten()
{
    const uint64_t n = recorded();
    return n > kCapacity ? n - kCapacity : 0;
}

std::vector<uint64_t>
typeCounts()
{
    std::vector<uint64_t> out(static_cast<size_t>(Type::NumTypes), 0);
    for (size_t i = 0; i < out.size(); ++i)
        out[i] = g_type_counts[i].load(std::memory_order_relaxed);
    return out;
}

std::vector<Event>
snapshot()
{
    std::vector<Event> out;
    out.reserve(std::min<uint64_t>(recorded(), kCapacity));
    for (size_t i = 0; i < kCapacity; ++i) {
        Slot &s = ring()[i];
        const uint64_t seq0 = s.seq.load(std::memory_order_acquire);
        if (seq0 == kSeqEmpty || seq0 == kSeqBusy)
            continue;
        Event e;
        e.seq = seq0;
        e.tsNs = s.tsNs.load(std::memory_order_relaxed);
        e.d0 = s.d0.load(std::memory_order_relaxed);
        e.d1 = s.d1.load(std::memory_order_relaxed);
        e.d2 = s.d2.load(std::memory_order_relaxed);
        e.u32 = s.u32.load(std::memory_order_relaxed);
        e.req = s.req.load(std::memory_order_relaxed);
        e.tag = s.tag.load(std::memory_order_relaxed);
        e.stream = s.stream.load(std::memory_order_relaxed);
        e.type = static_cast<Type>(s.type.load(std::memory_order_relaxed));
        e.a8 = s.a8.load(std::memory_order_relaxed);
        // Seqlock recheck: a writer may have started overwriting this
        // slot mid-copy; if the sequence moved, discard the torn copy.
        if (s.seq.load(std::memory_order_acquire) != seq0)
            continue;
        out.push_back(e);
    }
    std::sort(out.begin(), out.end(),
              [](const Event &a, const Event &b) { return a.seq < b.seq; });
    return out;
}

void
reset()
{
    for (size_t i = 0; i < kCapacity; ++i)
        ring()[i].seq.store(kSeqEmpty, std::memory_order_relaxed);
    for (auto &c : g_type_counts)
        c.store(0, std::memory_order_relaxed);
    g_next.store(0, std::memory_order_relaxed);
}

std::string
toJson(const std::string &reason)
{
    auto events = snapshot();
    auto counts = typeCounts();
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.events/1");
    w.key("reason").value(reason);
    w.key("capacity").value(static_cast<uint64_t>(kCapacity));
    w.key("recorded").value(recorded());
    w.key("overwritten").value(overwritten());
    w.key("byType").beginObject();
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        w.key(typeName(static_cast<Type>(i))).value(counts[i]);
    }
    w.endObject();
    w.key("events").beginArray();
    for (const Event &e : events) {
        w.beginObject();
        w.key("seq").value(e.seq);
        w.key("tsNs").value(e.tsNs);
        w.key("type").value(typeName(e.type));
        if (e.tag != 0)
            w.key("tag").value(tagName(e.tag));
        // Additive field within genreuse.events/1: older readers skip
        // unknown keys, and single-stream dumps are byte-identical.
        if (e.stream != 0)
            w.key("stream").value(static_cast<uint64_t>(e.stream));
        // Likewise additive: stamped only while request tracing is
        // armed, so untraced dumps stay byte-identical.
        if (e.req != 0)
            w.key("req").value(static_cast<uint64_t>(e.req));
        if (e.type == Type::FaultFire)
            w.key("fault").value(faultpoint::faultName(
                static_cast<faultpoint::Fault>(e.a8)));
        w.key("v0").value(e.d0);
        w.key("v1").value(e.d1);
        w.key("v2").value(e.d2);
        w.key("n").value(static_cast<uint64_t>(e.u32));
        w.key("k").value(static_cast<uint64_t>(e.a8));
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

std::string
summaryJson()
{
    auto counts = typeCounts();
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.events-summary/1");
    w.key("recorded").value(recorded());
    w.key("overwritten").value(overwritten());
    w.key("byType").beginObject();
    for (size_t i = 0; i < counts.size(); ++i) {
        if (counts[i] == 0)
            continue;
        w.key(typeName(static_cast<Type>(i))).value(counts[i]);
    }
    w.endObject();
    w.endObject();
    return w.str();
}

void
setBlackboxPath(const std::string &path)
{
    std::lock_guard<std::mutex> lock(g_bb_mutex);
    blackboxPathStorage() = path;
    g_bb_armed.store(!path.empty(), std::memory_order_relaxed);
}

const std::string &
blackboxPath()
{
    std::lock_guard<std::mutex> lock(g_bb_mutex);
    return blackboxPathStorage();
}

bool
blackboxArmed()
{
    return g_bb_armed.load(std::memory_order_relaxed);
}

void
dumpPostmortem(const char *reason)
{
    if (!blackboxArmed())
        return;
    // A panic raised while dumping (e.g. from inside fopen-adjacent
    // code) must not recurse back in here.
    static std::atomic<bool> dumping{false};
    if (dumping.exchange(true, std::memory_order_acquire))
        return;
    std::string path;
    {
        std::lock_guard<std::mutex> lock(g_bb_mutex);
        path = blackboxPathStorage();
    }
    if (!path.empty()) {
        obs::writeFile(path, toJson(reason));
        g_postmortems.fetch_add(1, std::memory_order_relaxed);
        metrics::counter("eventlog.postmortems").add();
        inform("flight recorder: postmortem (", reason, ") written to ",
               path);
    }
    dumping.store(false, std::memory_order_release);
}

uint64_t
postmortemCount()
{
    return g_postmortems.load(std::memory_order_relaxed);
}

} // namespace eventlog
} // namespace genreuse
