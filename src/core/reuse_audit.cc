#include "reuse_audit.h"

#include <algorithm>
#include <mutex>
#include <utility>

#include "common/json.h"
#include "common/metrics.h"
#include "common/streamtag.h"
#include "common/telemetry.h"

namespace genreuse {
namespace audit {

namespace detail {

namespace {

/** EWMA smoothing for the windowed observed-redundancy view. */
constexpr double kEwmaAlpha = 0.2;

/** Cluster histograms: counts and occupancies live in the thousands
 *  for real layers, so a small geometry (8 sub-buckets, values to
 *  2^20) keeps the footprint at ~1 KiB per histogram. */
constexpr uint32_t kHistSubBits = 3;
constexpr uint32_t kHistMaxBits = 20;

thread_local int t_suppress = 0;

/** One registry slot; the owner pointer is the fitted algo, so the
 *  guard (recording through inner()) and the algo itself land in the
 *  same slot. */
struct Entry
{
    const void *owner = nullptr;
    LayerAudit data;
};

struct Registry
{
    std::mutex mu;
    std::vector<Entry> entries;
    // Names/models arrive at fit time, usually before the first
    // recorded forward; kept keyed by owner so late-created stream
    // slots inherit them.
    std::vector<std::pair<const void *, std::string>> names;
    std::vector<std::pair<const void *, double>> modeled;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

struct KernelSlot
{
    std::atomic<uint64_t> invocations{0};
    std::atomic<uint64_t> vectors{0};
    std::atomic<uint64_t> centroids{0};
};

KernelSlot g_kernels[3];
std::atomic<uint64_t> g_clusterings{0};

HdrHistogram &
clusterCountHist()
{
    static HdrHistogram h(kHistSubBits, kHistMaxBits);
    return h;
}

HdrHistogram &
occupancyHist()
{
    static HdrHistogram h(kHistSubBits, kHistMaxBits);
    return h;
}

/** Find or create the (owner, stream) slot. Caller holds r.mu. */
LayerAudit &
slotLocked(Registry &r, const void *owner, uint16_t stream)
{
    for (Entry &e : r.entries) {
        if (e.owner == owner && e.data.stream == stream)
            return e.data;
    }
    r.entries.emplace_back();
    Entry &e = r.entries.back();
    e.owner = owner;
    e.data.stream = stream;
    for (const auto &n : r.names) {
        if (n.first == owner)
            e.data.name = n.second;
    }
    for (const auto &m : r.modeled) {
        if (m.first == owner) {
            e.data.hasModeled = true;
            e.data.modeled = m.second;
        }
    }
    return e.data;
}

// Registered for the process lifetime and empty while disarmed, so
// arming never calls into the exporter (whose samples hold its lock
// while they read this registry).
const uint64_t g_source = telemetry::registerSource(
    "audit", [] { return enabled() ? telemetryJson() : std::string(); });

} // namespace

bool
suppressed()
{
    return t_suppress > 0;
}

void
recordForwardSlow(const void *owner, const ReuseStats &stats)
{
    if (suppressed() || stats.totalVectors == 0)
        return;
    const double r = stats.redundancyRatio();
    Registry &reg = registry();
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        LayerAudit &a = slotLocked(reg, owner, streamtag::current());
        a.lastObserved = r;
        a.ewmaObserved = a.forwards == 0
                             ? r
                             : a.ewmaObserved +
                                   kEwmaAlpha * (r - a.ewmaObserved);
        a.sumObserved += r;
        ++a.forwards;
        a.vectors += stats.totalVectors;
        a.centroids += stats.totalCentroids;
    }
    // Global timeline view (the per-layer split lives in the JSON
    // exports); resolved once — the registry lookup heap-allocates.
    static metrics::Gauge &g_rt = metrics::gauge("audit.observed_rt");
    static metrics::Counter &g_fwd = metrics::counter("audit.forwards");
    g_rt.set(r);
    g_fwd.add();
}

void
recordKernelSlow(Kernel kind, const ReuseStats &local)
{
    if (suppressed())
        return;
    KernelSlot &k = g_kernels[static_cast<size_t>(kind)];
    k.invocations.fetch_add(1, std::memory_order_relaxed);
    k.vectors.fetch_add(local.totalVectors, std::memory_order_relaxed);
    k.centroids.fetch_add(local.totalCentroids,
                          std::memory_order_relaxed);
}

void
recordClusteringSlow(size_t items, size_t clusters, const size_t *sizes)
{
    if (suppressed())
        return;
    (void)items;
    g_clusterings.fetch_add(1, std::memory_order_relaxed);
    clusterCountHist().record(clusters);
    if (sizes != nullptr) {
        for (size_t i = 0; i < clusters; ++i)
            occupancyHist().record(sizes[i]);
    }
}

void
recordTrafficSlow(const void *owner, uint64_t reorder_elems,
                  uint64_t copy_elems)
{
    if (suppressed())
        return;
    Registry &reg = registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    LayerAudit &a = slotLocked(reg, owner, streamtag::current());
    a.reorderElems += reorder_elems;
    a.copyElems += copy_elems;
}

void
recordBudgetSlow(const void *owner, double measured, double budget)
{
    if (suppressed() || budget <= 0.0)
        return;
    const double burn = measured / budget;
    Registry &reg = registry();
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        LayerAudit &a = slotLocked(reg, owner, streamtag::current());
        ++a.burnSamples;
        a.burnSum += burn;
        a.burnMax = std::max(a.burnMax, burn);
    }
    static metrics::Gauge &g_burn = metrics::gauge("audit.burn");
    g_burn.set(burn);
}

} // namespace detail

void
setModeled(const void *owner, double modeled_rt)
{
    detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    bool found = false;
    for (auto &m : reg.modeled) {
        if (m.first == owner) {
            m.second = modeled_rt;
            found = true;
        }
    }
    if (!found)
        reg.modeled.emplace_back(owner, modeled_rt);
    for (auto &e : reg.entries) {
        if (e.owner == owner) {
            e.data.hasModeled = true;
            e.data.modeled = modeled_rt;
        }
    }
}

void
setName(const void *owner, const std::string &name)
{
    detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    bool found = false;
    for (auto &n : reg.names) {
        if (n.first == owner) {
            n.second = name;
            found = true;
        }
    }
    if (!found)
        reg.names.emplace_back(owner, name);
    for (auto &e : reg.entries) {
        if (e.owner == owner)
            e.data.name = name;
    }
}

std::string
nameOf(const void *owner)
{
    detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    for (const auto &n : reg.names) {
        if (n.first == owner)
            return n.second;
    }
    return "";
}

Suppress::Suppress() { ++detail::t_suppress; }
Suppress::~Suppress() { --detail::t_suppress; }

Snapshot
snapshot()
{
    Snapshot s;
    detail::Registry &reg = detail::registry();
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        s.layers.reserve(reg.entries.size());
        for (const detail::Entry &e : reg.entries)
            s.layers.push_back(e.data);
    }
    for (size_t i = 0; i < 3; ++i) {
        s.kernels[i].invocations =
            detail::g_kernels[i].invocations.load(
                std::memory_order_relaxed);
        s.kernels[i].vectors = detail::g_kernels[i].vectors.load(
            std::memory_order_relaxed);
        s.kernels[i].centroids = detail::g_kernels[i].centroids.load(
            std::memory_order_relaxed);
    }
    s.clusterings = detail::g_clusterings.load(std::memory_order_relaxed);
    s.clusterCountHist = detail::clusterCountHist().snapshot();
    s.occupancyHist = detail::occupancyHist().snapshot();
    return s;
}

void
reset()
{
    detail::Registry &reg = detail::registry();
    {
        std::lock_guard<std::mutex> lock(reg.mu);
        reg.entries.clear();
        reg.names.clear();
        reg.modeled.clear();
    }
    for (size_t i = 0; i < 3; ++i) {
        detail::g_kernels[i].invocations.store(0,
                                               std::memory_order_relaxed);
        detail::g_kernels[i].vectors.store(0, std::memory_order_relaxed);
        detail::g_kernels[i].centroids.store(0,
                                             std::memory_order_relaxed);
    }
    detail::g_clusterings.store(0, std::memory_order_relaxed);
    detail::clusterCountHist().reset();
    detail::occupancyHist().reset();
}

namespace {

const char *
kernelKey(size_t i)
{
    switch (i) {
      case 0:
        return "vertical";
      case 1:
        return "horizontal";
      default:
        return "fc";
    }
}

void
writeLayer(JsonWriter &w, const LayerAudit &a)
{
    w.beginObject();
    w.key("name").value(a.name);
    w.key("stream").value(static_cast<uint64_t>(a.stream));
    w.key("forwards").value(a.forwards);
    w.key("observed_rt_last").value(a.lastObserved);
    w.key("observed_rt_ewma").value(a.ewmaObserved);
    w.key("observed_rt_mean").value(a.meanObserved());
    if (a.hasModeled) {
        w.key("modeled_rt").value(a.modeled);
        w.key("model_gap").value(a.modelGap());
    }
    w.key("vectors").value(a.vectors);
    w.key("centroids").value(a.centroids);
    w.key("reorder_elems").value(a.reorderElems);
    w.key("copy_elems").value(a.copyElems);
    w.key("burn_samples").value(a.burnSamples);
    w.key("burn_mean").value(a.meanBurn());
    w.key("burn_max").value(a.burnMax);
    w.endObject();
}

void
writeHist(JsonWriter &w, const HdrHistogram::Snapshot &h)
{
    w.beginObject();
    w.key("count").value(h.count);
    w.key("mean").value(h.empty() ? 0.0 : h.mean());
    w.key("p50").value(h.valueAtPercentile(50.0));
    w.key("p90").value(h.valueAtPercentile(90.0));
    w.key("p99").value(h.valueAtPercentile(99.0));
    w.key("max").value(h.max);
    w.endObject();
}

std::string
render(bool compact)
{
    Snapshot s = snapshot();
    JsonWriter w(compact);
    w.beginObject();
    w.key("schema").value("genreuse.audit/1");
    w.key("enabled").value(enabled());
    w.key("layers").beginArray();
    for (const LayerAudit &a : s.layers)
        writeLayer(w, a);
    w.endArray();
    w.key("kernels").beginObject();
    for (size_t i = 0; i < 3; ++i) {
        w.key(kernelKey(i)).beginObject();
        w.key("invocations").value(s.kernels[i].invocations);
        w.key("vectors").value(s.kernels[i].vectors);
        w.key("centroids").value(s.kernels[i].centroids);
        w.endObject();
    }
    w.endObject();
    w.key("clusterings").value(s.clusterings);
    w.key("cluster_count").raw([&] {
        JsonWriter h(compact);
        writeHist(h, s.clusterCountHist);
        return h.str();
    }());
    w.key("occupancy").raw([&] {
        JsonWriter h(compact);
        writeHist(h, s.occupancyHist);
        return h.str();
    }());
    w.endObject();
    return w.str();
}

} // namespace

std::string
toJson()
{
    return render(false);
}

std::string
telemetryJson()
{
    return render(true);
}

} // namespace audit
} // namespace genreuse
