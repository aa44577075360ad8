#include "obs.h"

#include <cstdio>
#include <cstdlib>
#include <mutex>
#include <utility>
#include <vector>

#include "args.h"
#include "eventlog.h"
#include "faultpoint.h"
#include "profiler.h"
#include "rtrace.h"
#include "telemetry.h"

namespace genreuse {
namespace obs {

namespace detail {
alignas(64) std::atomic<uint32_t> g_gate{0};
} // namespace detail

namespace {

/** A validated spec; empty paths / negative rate mean "section absent". */
struct Spec
{
    std::string prof, events, rtrace, telemetry;
    uint64_t rtraceRate = 1;
    uint64_t telemetryIntervalNs = 0; // 0 = the exporter's default
    bool audit = false;
    double canary = -1.0;
};

template <typename... Args>
Status
bad(const std::string &section, Args &&...args)
{
    return Status::error(ErrorCode::InvalidArgument, "section '", section,
                         "': ", std::forward<Args>(args)...);
}

Status
parseSection(const std::string &name, const std::string *value, Spec &s)
{
    if (name == "audit") {
        if (value != nullptr)
            return bad(name, "takes no value (got '", *value, "')");
        s.audit = true;
        return Status{};
    }
    if (name != "prof" && name != "events" && name != "rtrace" &&
        name != "telemetry" && name != "canary")
        return bad(name, "unknown section (known: prof, events, rtrace, "
                         "telemetry, audit, canary)");
    if (value == nullptr || value->empty())
        return bad(name, "needs a value (", name, "=...)");
    if (name == "canary") {
        char *end = nullptr;
        const double r = std::strtod(value->c_str(), &end);
        if (*end != '\0' || !(r >= 0.0 && r <= 1.0))
            return bad(name, "rate '", *value, "' is not in [0, 1]");
        s.canary = r;
    } else if (name == "prof") {
        s.prof = *value;
    } else if (name == "events") {
        s.events = *value;
    } else {
        // rtrace and telemetry: "<path>[@option]".
        const size_t at = value->rfind('@');
        const std::string path = value->substr(0, at);
        const std::string opt =
            at == std::string::npos ? "" : value->substr(at + 1);
        if (path.empty())
            return bad(name, "empty path in '", *value, "'");
        if (name == "rtrace") {
            char *end = nullptr;
            const unsigned long long r =
                std::strtoull(opt.c_str(), &end, 10);
            if (at != std::string::npos &&
                (opt.empty() || opt[0] < '0' || opt[0] > '9' ||
                 *end != '\0' || r == 0))
                return bad(name, "bad sample rate '", opt,
                           "' (want rtrace=<path>[@rate], rate >= 1)");
            s.rtrace = path;
            s.rtraceRate = at == std::string::npos ? 1 : r;
        } else {
            Expected<uint64_t> ns = parseDurationNs(opt);
            if (at != std::string::npos && (!ns.ok() || *ns == 0))
                return bad(name, "bad interval '", opt,
                           "' (want telemetry=<path>[@interval], e.g. "
                           "@250ms)");
            s.telemetry = path;
            s.telemetryIntervalNs = at == std::string::npos ? 0 : *ns;
        }
    }
    return Status{};
}

Status
parse(const std::string &spec, Spec &s)
{
    std::vector<std::string> seen;
    for (size_t start = 0; start <= spec.size();) {
        size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string item = spec.substr(start, comma - start);
        start = comma + 1;
        if (item.empty())
            return Status::error(ErrorCode::InvalidArgument,
                                 "empty section in '", spec, "'");
        const size_t eq = item.find('=');
        const std::string name = item.substr(0, eq);
        const std::string value =
            eq == std::string::npos ? "" : item.substr(eq + 1);
        for (const std::string &n : seen)
            if (n == name)
                return bad(name, "duplicate section");
        seen.push_back(name);
        Status st = parseSection(
            name, eq == std::string::npos ? nullptr : &value, s);
        if (!st.ok())
            return st;
    }
    return Status{};
}

// The canary's setRate(), installed from src/core. Constant-initialized
// so installCanary() is safe from any static initializer.
std::mutex g_canary_mu;
void (*g_canary_set_rate)(double) = nullptr;
double g_canary_pending = -1.0; // < 0: nothing pending

void
applyCanary(double rate)
{
    void (*fn)(double) = nullptr;
    {
        std::lock_guard<std::mutex> lock(g_canary_mu);
        if (g_canary_set_rate == nullptr) {
            g_canary_pending = rate;
            return;
        }
        fn = g_canary_set_rate;
    }
    fn(rate);
}

std::string &
profPath()
{
    static std::string *p = new std::string;
    return *p;
}

/** The one exit-time writer: the armed profiler timeline and the
 *  request trace. */
void
writeAtExit()
{
    if (!profPath().empty())
        writeFile(profPath(), profiler::chromeTraceJson());
    const std::string rt = rtrace::exportPath();
    if (!rt.empty())
        writeFile(rt, rtrace::toJson());
}

void
registerExitWriter()
{
    static std::once_flag once;
    std::call_once(once, [] { std::atexit(writeAtExit); });
}

} // namespace

void
set(Bit bit, bool on)
{
    if (on)
        detail::g_gate.fetch_or(bit, std::memory_order_relaxed);
    else
        detail::g_gate.fetch_and(~static_cast<uint32_t>(bit),
                                 std::memory_order_relaxed);
}

Status
arm(const std::string &spec)
{
    Spec s;
    if (spec.empty())
        return Status{};
    Status st = parse(spec, s);
    if (!st.ok())
        return st;
    if (!s.prof.empty()) {
        profPath() = s.prof;
        profiler::setEnabled(true);
        profiler::setTimelineCapture(true);
        registerExitWriter();
    }
    if (!s.events.empty()) {
        eventlog::setBlackboxPath(s.events);
        eventlog::setEnabled(true);
    }
    if (!s.rtrace.empty()) {
        rtrace::setExport(s.rtrace, s.rtraceRate);
        rtrace::setEnabled(true);
        registerExitWriter();
    }
    // Audit and canary before the exporter starts, so their telemetry
    // sources are in its first line.
    if (s.audit)
        set(kAudit, true);
    if (s.canary >= 0.0)
        applyCanary(s.canary);
    if (!s.telemetry.empty())
        return telemetry::start(s.telemetry, s.telemetryIntervalNs);
    return Status{};
}

bool
installCanary(void (*set_rate)(double rate))
{
    double pending = -1.0;
    {
        std::lock_guard<std::mutex> lock(g_canary_mu);
        g_canary_set_rate = set_rate;
        std::swap(pending, g_canary_pending);
    }
    if (pending >= 0.0)
        set_rate(pending);
    return true;
}

bool
writeFile(const std::string &path, const std::string &doc)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
        warn("cannot write ", path);
        return false;
    }
    std::fputs(doc.c_str(), f);
    std::fputc('\n', f);
    std::fclose(f);
    return true;
}

namespace {

/** Reads GENREUSE_FAULT and GENREUSE_OBS once, before main(). A bad
 *  spec is a user error: fail loudly rather than silently observing
 *  (or injecting) nothing. */
struct EnvInit
{
    EnvInit()
    {
        const char *fault = std::getenv("GENREUSE_FAULT");
        if (fault != nullptr && *fault != '\0') {
            Status s = faultpoint::armSpec(fault);
            if (!s.ok())
                fatal("GENREUSE_FAULT: ", s.toString());
        }
        const char *spec = std::getenv("GENREUSE_OBS");
        if (spec != nullptr) {
            Status s = arm(spec);
            if (!s.ok())
                fatal("GENREUSE_OBS: ", s.toString());
        }
    }
};

EnvInit g_env_init;

} // namespace

} // namespace obs
} // namespace genreuse
