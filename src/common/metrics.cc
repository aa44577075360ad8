#include "metrics.h"

#include <memory>
#include <mutex>

#include "json.h"
#include "profiler.h"

namespace genreuse {
namespace metrics {

namespace {

// First-seen-order registry. Entries are heap-allocated and never
// freed so handles resolved by hot paths stay valid through static
// destruction (same intentional leak as the profiler registry).
std::mutex g_mutex;
std::vector<Counter *> &
counters()
{
    static std::vector<Counter *> *v = new std::vector<Counter *>;
    return *v;
}

std::vector<Gauge *> &
gauges()
{
    static std::vector<Gauge *> *v = new std::vector<Gauge *>;
    return *v;
}

} // namespace

void
Counter::add(uint64_t delta)
{
    uint64_t now = value_.fetch_add(delta, std::memory_order_relaxed) +
                   delta;
    if (profiler::timelineActive())
        profiler::recordCounterSample(name_, static_cast<double>(now));
}

void
Gauge::set(double v)
{
    value_.store(v, std::memory_order_relaxed);
    if (profiler::timelineActive())
        profiler::recordCounterSample(name_, v);
}

void
Gauge::setMax(double v)
{
    double cur = value_.load(std::memory_order_relaxed);
    while (v > cur &&
           !value_.compare_exchange_weak(cur, v,
                                         std::memory_order_relaxed)) {
    }
    if (v > cur && profiler::timelineActive())
        profiler::recordCounterSample(name_, v);
}

Counter &
counter(const std::string &name)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    for (Counter *c : counters())
        if (c->name() == name)
            return *c;
    counters().push_back(new Counter(name));
    return *counters().back();
}

Gauge &
gauge(const std::string &name)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    for (Gauge *g : gauges())
        if (g->name() == name)
            return *g;
    gauges().push_back(new Gauge(name));
    return *gauges().back();
}

std::vector<Sample>
snapshot()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    std::vector<Sample> out;
    out.reserve(counters().size() + gauges().size());
    for (const Counter *c : counters())
        out.push_back({c->name(), true, static_cast<double>(c->get())});
    for (const Gauge *g : gauges())
        out.push_back({g->name(), false, g->get()});
    return out;
}

bool
anyNonZero()
{
    for (const Sample &s : snapshot())
        if (s.value != 0.0)
            return true;
    return false;
}

void
reset()
{
    std::lock_guard<std::mutex> lock(g_mutex);
    for (Counter *c : counters())
        c->value_.store(0, std::memory_order_relaxed);
    for (Gauge *g : gauges())
        g->value_.store(0.0, std::memory_order_relaxed);
}

std::string
toJson()
{
    auto samples = snapshot();
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.metrics/1");
    w.key("counters").beginObject();
    for (const Sample &s : samples)
        if (s.isCounter)
            w.key(s.name).value(static_cast<uint64_t>(s.value));
    w.endObject();
    w.key("gauges").beginObject();
    for (const Sample &s : samples)
        if (!s.isCounter)
            w.key(s.name).value(s.value);
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace metrics
} // namespace genreuse
