#include "canary.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <mutex>

#include "common/eventlog.h"
#include "common/json.h"
#include "common/metrics.h"
#include "common/overload.h"
#include "common/streamtag.h"
#include "common/telemetry.h"
#include "reuse_audit.h"

namespace genreuse {
namespace canary {

namespace detail {

namespace {

// The sampling rate's double bit-pattern (the gate is the obs bit).
std::atomic<uint64_t> g_rate_bits{0};

constexpr double kEwmaAlpha = 0.2;

/** One (owner, stream) series with Welford accumulators. */
struct Entry
{
    const void *owner = nullptr;
    uint16_t stream = 0;
    uint64_t samples = 0;
    uint64_t breaches = 0;
    double lastError = 0.0;
    double ewmaError = 0.0;
    double mean = 0.0;
    double m2 = 0.0; //!< Welford sum of squared deviations
    double worstError = 0.0;
};

struct Registry
{
    std::mutex mu;
    std::vector<Entry> entries;
};

Registry &
registry()
{
    static Registry r;
    return r;
}

std::atomic<uint64_t> g_samples{0};
std::atomic<uint64_t> g_breaches{0};

Entry &
slotLocked(Registry &r, const void *owner, uint16_t stream)
{
    for (Entry &e : r.entries) {
        if (e.owner == owner && e.stream == stream)
            return e;
    }
    r.entries.emplace_back();
    Entry &e = r.entries.back();
    e.owner = owner;
    e.stream = stream;
    return e;
}

double
ci95(const Entry &e)
{
    if (e.samples < 2)
        return 0.0;
    const double n = static_cast<double>(e.samples);
    const double var = e.m2 / (n - 1.0);
    return 1.96 * std::sqrt(var / n);
}

const bool g_hooked = obs::installCanary(setRate);

// Registered for the process lifetime and empty while disarmed, so
// arming never calls into the exporter (whose samples hold its lock
// while they read this registry).
const uint64_t g_source = telemetry::registerSource(
    "canary", [] { return enabled() ? telemetryJson() : std::string(); });

} // namespace

void
observeSlow(const void *owner, double rel_error, double rel_budget,
            uint64_t rows, bool breach)
{
    double ewma = rel_error;
    {
        Registry &reg = registry();
        std::lock_guard<std::mutex> lock(reg.mu);
        Entry &e = slotLocked(reg, owner, streamtag::current());
        e.lastError = rel_error;
        e.ewmaError = e.samples == 0
                          ? rel_error
                          : e.ewmaError +
                                kEwmaAlpha * (rel_error - e.ewmaError);
        ewma = e.ewmaError;
        ++e.samples;
        const double d = rel_error - e.mean;
        e.mean += d / static_cast<double>(e.samples);
        e.m2 += d * (rel_error - e.mean);
        e.worstError = std::max(e.worstError, rel_error);
        if (breach)
            ++e.breaches;
    }
    g_samples.fetch_add(1, std::memory_order_relaxed);
    static metrics::Counter &c_samples = metrics::counter("canary.samples");
    static metrics::Gauge &g_err = metrics::gauge("canary.error");
    c_samples.add();
    g_err.set(rel_error);
    if (eventlog::enabled() || breach) {
        eventlog::record(eventlog::Type::CanarySample,
                         eventlog::currentTag(), rel_error, rel_budget,
                         ewma, static_cast<uint32_t>(rows),
                         static_cast<uint8_t>(overload::level()));
    }
    if (breach) {
        g_breaches.fetch_add(1, std::memory_order_relaxed);
        static metrics::Counter &c_breaches =
            metrics::counter("canary.breaches");
        c_breaches.add();
        eventlog::record(eventlog::Type::CanaryBreach,
                         eventlog::currentTag(), rel_error, rel_budget,
                         ewma, static_cast<uint32_t>(rows),
                         static_cast<uint8_t>(overload::level()));
    }
}

} // namespace detail

double
rate()
{
    const uint64_t bits =
        detail::g_rate_bits.load(std::memory_order_relaxed);
    double r;
    static_assert(sizeof(r) == sizeof(bits), "double is 64-bit");
    std::memcpy(&r, &bits, sizeof(r));
    return r;
}

void
setRate(double r)
{
    if (!(r >= 0.0))
        r = 0.0;
    r = std::min(r, 1.0);
    uint64_t bits = 0;
    if (r > 0.0)
        std::memcpy(&bits, &r, sizeof(bits));
    // Under the registry lock so concurrent setRate calls leave the
    // rate and the gate bit agreeing.
    std::lock_guard<std::mutex> lock(detail::registry().mu);
    detail::g_rate_bits.store(bits, std::memory_order_relaxed);
    obs::set(obs::kCanary, bits != 0);
}

std::vector<CanaryStats>
snapshot()
{
    std::vector<CanaryStats> out;
    detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    out.reserve(reg.entries.size());
    for (const detail::Entry &e : reg.entries) {
        CanaryStats s;
        s.name = audit::nameOf(e.owner);
        s.stream = e.stream;
        s.samples = e.samples;
        s.breaches = e.breaches;
        s.lastError = e.lastError;
        s.ewmaError = e.ewmaError;
        s.meanError = e.mean;
        s.errorCi95 = detail::ci95(e);
        s.worstError = e.worstError;
        out.push_back(std::move(s));
    }
    return out;
}

uint64_t
totalSamples()
{
    return detail::g_samples.load(std::memory_order_relaxed);
}

uint64_t
totalBreaches()
{
    return detail::g_breaches.load(std::memory_order_relaxed);
}

void
reset()
{
    detail::Registry &reg = detail::registry();
    std::lock_guard<std::mutex> lock(reg.mu);
    reg.entries.clear();
    detail::g_samples.store(0, std::memory_order_relaxed);
    detail::g_breaches.store(0, std::memory_order_relaxed);
}

namespace {

std::string
render(bool compact)
{
    std::vector<CanaryStats> series = snapshot();
    JsonWriter w(compact);
    w.beginObject();
    w.key("schema").value("genreuse.canary/1");
    w.key("rate").value(rate());
    w.key("samples").value(totalSamples());
    w.key("breaches").value(totalBreaches());
    w.key("series").beginArray();
    for (const CanaryStats &s : series) {
        w.beginObject();
        w.key("name").value(s.name);
        w.key("stream").value(static_cast<uint64_t>(s.stream));
        w.key("samples").value(s.samples);
        w.key("breaches").value(s.breaches);
        w.key("error_last").value(s.lastError);
        w.key("error_ewma").value(s.ewmaError);
        w.key("error_mean").value(s.meanError);
        w.key("error_ci95").value(s.errorCi95);
        w.key("error_worst").value(s.worstError);
        w.endObject();
    }
    w.endArray();
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

} // namespace canary
} // namespace genreuse
