#include "telemetry.h"

#include <chrono>
#include <condition_variable>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <mutex>
#include <thread>
#include <vector>

#include "json.h"
#include "logging.h"
#include "metrics.h"
#include "provenance.h"

namespace genreuse {
namespace telemetry {

namespace {

constexpr uint64_t kDefaultIntervalNs = 500'000'000; // 500ms

struct SourceEntry
{
    uint64_t token = 0;
    std::string name;
    SourceFn fn;
};

// g_mu orders every state change AND every sample: a sample holds it
// while invoking source callbacks, so unregisterSource() returning
// means no callback is running or will run again.
std::mutex g_mu;
std::vector<SourceEntry> *g_sources = nullptr;
uint64_t g_next_token = 1;
std::FILE *g_file = nullptr;
uint64_t g_interval_ns = kDefaultIntervalNs;
uint64_t g_samples = 0;
uint64_t g_seq = 0;
bool g_stopping = false;
std::thread *g_thread = nullptr;
bool g_atexit_registered = false;

// Heap-allocated on first use: start() can run from the GENREUSE_OBS
// hook before this file's dynamic initializers have.
std::condition_variable &
cv()
{
    static std::condition_variable *c = new std::condition_variable;
    return *c;
}

std::string &
pathStorage()
{
    static std::string *p = new std::string;
    return *p;
}

uint64_t
wallNowNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

std::vector<SourceEntry> &
sources()
{
    if (g_sources == nullptr)
        g_sources = new std::vector<SourceEntry>;
    return *g_sources;
}

/** One compact genreuse.tsdb/1 line. Caller holds g_mu. */
std::string
sampleLineLocked(const char *reason)
{
    JsonWriter w(/*compact=*/true);
    w.beginObject();
    w.key("schema").value("genreuse.tsdb/1");
    w.key("seq").value(g_seq);
    w.key("tsNs").value(wallNowNs());
    if (reason != nullptr && *reason != '\0')
        w.key("reason").value(reason);
    // Only the series' first line carries provenance: it identifies the
    // whole file without repeating four strings on every sample.
    if (reason != nullptr && std::strcmp(reason, "start") == 0)
        w.key("provenance").raw(provenance::toJson(/*compact=*/true));
    // Counters and gauges land in separate sub-objects (mirroring
    // metrics::toJson) so a dashboard can turn counter deltas between
    // consecutive lines into rates without guessing from names.
    const std::vector<metrics::Sample> snap = metrics::snapshot();
    w.key("metrics").beginObject();
    w.key("counters").beginObject();
    for (const metrics::Sample &s : snap)
        if (s.isCounter && s.value != 0.0)
            w.key(s.name).value(s.value);
    w.endObject();
    w.key("gauges").beginObject();
    for (const metrics::Sample &s : snap)
        if (!s.isCounter && s.value != 0.0)
            w.key(s.name).value(s.value);
    w.endObject();
    w.endObject();
    w.key("sources").beginObject();
    for (const SourceEntry &e : sources()) {
        std::string doc;
        try {
            doc = e.fn ? e.fn() : std::string();
        } catch (const std::exception &ex) {
            warn("telemetry source ", e.name, " threw: ", ex.what());
        }
        if (doc.empty())
            continue;
        w.key(e.name).raw(doc);
    }
    w.endObject();
    w.endObject();
    return w.str();
}

/** Caller holds g_mu; writes + flushes one line. */
void
writeSampleLocked(const char *reason)
{
    if (g_file == nullptr)
        return;
    const std::string line = sampleLineLocked(reason);
    std::fputs(line.c_str(), g_file);
    std::fputc('\n', g_file);
    std::fflush(g_file);
    ++g_samples;
    ++g_seq;
}

void
exporterMain()
{
    std::unique_lock<std::mutex> lock(g_mu);
    while (!g_stopping) {
        cv().wait_for(lock, std::chrono::nanoseconds(g_interval_ns),
                      [] { return g_stopping; });
        if (g_stopping)
            break;
        writeSampleLocked("");
    }
}

void
stopAtExit()
{
    stop();
}

} // namespace

uint64_t
registerSource(const std::string &name, SourceFn fn)
{
    std::lock_guard<std::mutex> lock(g_mu);
    const uint64_t token = g_next_token++;
    SourceEntry e;
    e.token = token;
    e.name = name;
    e.fn = std::move(fn);
    sources().push_back(std::move(e));
    return token;
}

void
unregisterSource(uint64_t token)
{
    std::lock_guard<std::mutex> lock(g_mu);
    auto &v = sources();
    for (size_t i = 0; i < v.size(); ++i) {
        if (v[i].token == token) {
            v.erase(v.begin() + static_cast<long>(i));
            return;
        }
    }
}

Status
start(const std::string &path, uint64_t interval_ns)
{
    std::lock_guard<std::mutex> lock(g_mu);
    if (g_thread != nullptr)
        return Status::error(ErrorCode::FailedPrecondition,
                             "telemetry exporter already running (",
                             pathStorage(), ")");
    std::FILE *f = std::fopen(path.c_str(), "a");
    if (f == nullptr)
        return Status::error(ErrorCode::InvalidArgument,
                             "cannot open telemetry path ", path);
    g_file = f;
    pathStorage() = path;
    g_interval_ns = interval_ns == 0 ? kDefaultIntervalNs : interval_ns;
    g_samples = 0;
    g_stopping = false;
    obs::set(obs::kTelemetry, true);
    // First sample synchronously: a series always starts with state at
    // start(), however short-lived the exporter is.
    writeSampleLocked("start");
    g_thread = new std::thread(exporterMain);
    if (!g_atexit_registered) {
        g_atexit_registered = true;
        std::atexit(stopAtExit);
    }
    return Status{};
}

void
stop()
{
    std::thread *t = nullptr;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        if (g_thread == nullptr)
            return;
        g_stopping = true;
        t = g_thread;
        g_thread = nullptr;
    }
    cv().notify_all();
    t->join();
    delete t;
    std::lock_guard<std::mutex> lock(g_mu);
    // Final flush: the last line always reflects shutdown-time state.
    writeSampleLocked("shutdown");
    obs::set(obs::kTelemetry, false);
    if (g_file != nullptr) {
        std::fclose(g_file);
        g_file = nullptr;
    }
    pathStorage().clear();
}

void
sampleNow()
{
    std::lock_guard<std::mutex> lock(g_mu);
    writeSampleLocked("");
}

uint64_t
samples()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_samples;
}

std::string
path()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return pathStorage();
}

uint64_t
intervalNs()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_interval_ns;
}

} // namespace telemetry
} // namespace genreuse
