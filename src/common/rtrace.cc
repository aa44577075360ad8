#include "rtrace.h"

#include <algorithm>
#include <chrono>
#include <mutex>

#include "json.h"

namespace genreuse {
namespace rtrace {

namespace {

// Sampled records kept for Chrome-trace expansion at export time.
// Fixed capacity so commit() never allocates on the serving path.
constexpr size_t kMaxSampled = 2048;

std::mutex g_mu;
uint64_t g_next = 0; // committed records (monotonic)
size_t g_sampled_count = 0;
uint64_t g_sampled_dropped = 0;
uint64_t g_sample_rate = 1;

static_assert((kCapacity & (kCapacity - 1)) == 0,
              "rtrace ring capacity must be a power of two");

std::string &
exportPathStorage()
{
    static std::string *p = new std::string;
    return *p;
}

RequestRecord *
ring()
{
    // Heap-allocated once and never freed (the exit writer stays safe);
    // setEnabled(true) pre-touches it so the first commit on a
    // zero-allocation serving path does not allocate.
    static RequestRecord *r = new RequestRecord[kCapacity];
    return r;
}

RequestRecord *
sampled()
{
    static RequestRecord *r = new RequestRecord[kMaxSampled];
    return r;
}

/** Chrome trace-event timestamps are µs doubles; rebase them to the
 *  earliest sampled submit so the timeline starts near zero. */
double
usSince(uint64_t ns, uint64_t base_ns)
{
    return static_cast<double>(ns - std::min(ns, base_ns)) / 1e3;
}

void
writeRecordJson(JsonWriter &w, const RequestRecord &r)
{
    w.beginObject();
    w.key("id").value(r.id);
    w.key("stream").value(static_cast<uint64_t>(r.stream));
    w.key("submitNs").value(r.submitNs);
    w.key("admitNs").value(r.queuedNs - std::min(r.queuedNs, r.submitNs));
    w.key("queueNs").value(r.startNs - std::min(r.startNs, r.queuedNs));
    w.key("forwardNs").value(r.forwardNs);
    w.key("verifyNs").value(r.verifyNs);
    w.key("totalNs").value(r.doneNs - std::min(r.doneNs, r.submitNs));
    if (r.deadlineSlackNs != kNoDeadline)
        w.key("slackNs").value(static_cast<double>(r.deadlineSlackNs));
    w.key("status").value(static_cast<uint64_t>(r.statusCode));
    w.key("rung").value(static_cast<uint64_t>(r.rung));
    w.key("shed").value(r.shed);
    w.endObject();
}

} // namespace

uint64_t
VerifySpan::clockNs()
{
    return static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count());
}

void
setEnabled(bool on)
{
    if (on) {
        ring(); // pre-touch: no allocation later on the serving path
        sampled();
        exportPathStorage();
    }
    obs::set(obs::kRtrace, on);
}

void
RequestScope::commit(const RequestRecord &rec) const
{
    if (!active_)
        return;
    std::lock_guard<std::mutex> lock(g_mu);
    ring()[g_next & (kCapacity - 1)] = rec;
    const uint64_t seq = g_next++;
    if (!exportPathStorage().empty() && seq % g_sample_rate == 0) {
        if (g_sampled_count < kMaxSampled)
            sampled()[g_sampled_count++] = rec;
        else
            ++g_sampled_dropped;
    }
}

uint64_t
recorded()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_next;
}

uint64_t
overwritten()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_next > kCapacity ? g_next - kCapacity : 0;
}

std::vector<RequestRecord>
snapshot()
{
    std::lock_guard<std::mutex> lock(g_mu);
    const uint64_t n = std::min<uint64_t>(g_next, kCapacity);
    std::vector<RequestRecord> out;
    out.reserve(static_cast<size_t>(n));
    // Oldest surviving record first.
    const uint64_t first = g_next - n;
    for (uint64_t s = first; s < g_next; ++s)
        out.push_back(ring()[s & (kCapacity - 1)]);
    return out;
}

void
reset()
{
    std::lock_guard<std::mutex> lock(g_mu);
    g_next = 0;
    g_sampled_count = 0;
    g_sampled_dropped = 0;
}

void
setExport(const std::string &path, uint64_t sample_rate)
{
    std::lock_guard<std::mutex> lock(g_mu);
    exportPathStorage() = path;
    g_sample_rate = std::max<uint64_t>(1, sample_rate);
    if (!path.empty())
        sampled(); // pre-touch
}

const std::string &
exportPath()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return exportPathStorage();
}

uint64_t
sampleRate()
{
    std::lock_guard<std::mutex> lock(g_mu);
    return g_sample_rate;
}

std::string
toJson()
{
    std::vector<RequestRecord> records = snapshot();
    std::vector<RequestRecord> samples;
    uint64_t rate = 1;
    uint64_t dropped = 0;
    {
        std::lock_guard<std::mutex> lock(g_mu);
        samples.assign(sampled(), sampled() + g_sampled_count);
        rate = g_sample_rate;
        dropped = g_sampled_dropped;
    }

    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.rtrace/1");
    w.key("capacity").value(static_cast<uint64_t>(kCapacity));
    w.key("recorded").value(recorded());
    w.key("overwritten").value(overwritten());
    w.key("sampleRate").value(rate);
    w.key("sampled").value(static_cast<uint64_t>(samples.size()));
    w.key("sampledDropped").value(dropped);
    w.key("records").beginArray();
    for (const RequestRecord &r : records)
        writeRecordJson(w, r);
    w.endArray();

    // Chrome trace events for the sampled subset: queue slice on a
    // synthetic client track, execution slice on the stream's track,
    // s/f flow events tying the two (chrome://tracing and Perfetto
    // ignore the extra top-level keys above).
    uint64_t base = ~uint64_t{0};
    for (const RequestRecord &r : samples)
        base = std::min(base, r.submitNs);
    if (samples.empty())
        base = 0;
    w.key("traceEvents").beginArray();
    w.beginObject();
    w.key("ph").value("M");
    w.key("pid").value(1);
    w.key("tid").value(0);
    w.key("name").value("thread_name");
    w.key("args").beginObject();
    w.key("name").value("client/queue");
    w.endObject();
    w.endObject();
    std::vector<uint16_t> streams_seen;
    for (const RequestRecord &r : samples) {
        if (r.stream != 0 &&
            std::find(streams_seen.begin(), streams_seen.end(),
                      r.stream) == streams_seen.end()) {
            streams_seen.push_back(r.stream);
            w.beginObject();
            w.key("ph").value("M");
            w.key("pid").value(1);
            w.key("tid").value(static_cast<uint64_t>(r.stream));
            w.key("name").value("thread_name");
            w.key("args").beginObject();
            w.key("name").value("stream-" + std::to_string(r.stream));
            w.endObject();
            w.endObject();
        }
    }
    for (const RequestRecord &r : samples) {
        const double queue_start = usSince(r.submitNs, base);
        const double exec_start = usSince(r.startNs, base);
        w.beginObject();
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(0);
        w.key("name").value("queue");
        w.key("cat").value("rtrace");
        w.key("ts").value(queue_start);
        w.key("dur").value(usSince(r.startNs, base) - queue_start);
        w.key("args").beginObject();
        w.key("id").value(r.id);
        w.key("admitMs")
            .value(static_cast<double>(
                       r.queuedNs - std::min(r.queuedNs, r.submitNs)) /
                   1e6);
        w.key("queueMs")
            .value(static_cast<double>(
                       r.startNs - std::min(r.startNs, r.queuedNs)) /
                   1e6);
        w.endObject();
        w.endObject();
        w.beginObject();
        w.key("ph").value("s");
        w.key("pid").value(1);
        w.key("tid").value(0);
        w.key("id").value(r.id);
        w.key("name").value("request");
        w.key("cat").value("rtrace");
        w.key("ts").value(queue_start);
        w.endObject();
        w.beginObject();
        w.key("ph").value("f");
        w.key("bp").value("e");
        w.key("pid").value(1);
        w.key("tid").value(static_cast<uint64_t>(r.stream));
        w.key("id").value(r.id);
        w.key("name").value("request");
        w.key("cat").value("rtrace");
        w.key("ts").value(exec_start);
        w.endObject();
        w.beginObject();
        w.key("ph").value("X");
        w.key("pid").value(1);
        w.key("tid").value(static_cast<uint64_t>(r.stream));
        w.key("name").value(r.shed ? "shed" : "execute");
        w.key("cat").value("rtrace");
        w.key("ts").value(exec_start);
        w.key("dur").value(usSince(r.doneNs, base) - exec_start);
        w.key("args").beginObject();
        w.key("id").value(r.id);
        w.key("forwardMs")
            .value(static_cast<double>(r.forwardNs) / 1e6);
        w.key("verifyMs").value(static_cast<double>(r.verifyNs) / 1e6);
        if (r.deadlineSlackNs != kNoDeadline)
            w.key("slackMs")
                .value(static_cast<double>(r.deadlineSlackNs) / 1e6);
        w.key("status").value(static_cast<uint64_t>(r.statusCode));
        w.key("rung").value(static_cast<uint64_t>(r.rung));
        w.endObject();
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace rtrace
} // namespace genreuse
