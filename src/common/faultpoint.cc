#include "faultpoint.h"

#include <cstdlib>

#include "eventlog.h"
#include "metrics.h"

namespace genreuse {
namespace faultpoint {

namespace detail {

EventSlot g_events[static_cast<size_t>(Fault::NumFaults)];

bool
scheduledCheck(EventSlot &slot)
{
    // Count this eligibility check; the event fires exactly at its
    // appointed one. The counter races only against concurrent checks
    // on the *targeted* stream (or any stream for an untargeted
    // event), and fetch_add hands the appointed ordinal to exactly one
    // of them — the one-shot guarantee.
    const uint64_t at = slot.fireAt.load(std::memory_order_relaxed);
    const uint64_t c = slot.checks.fetch_add(1,
                                             std::memory_order_relaxed) + 1;
    return c == at;
}

} // namespace detail

const char *
faultName(Fault f)
{
    switch (f) {
      case Fault::SramExhausted:
        return "sram_exhausted";
      case Fault::ClusterCollapse:
        return "cluster_collapse";
      case Fault::ClusterEmpty:
        return "cluster_empty";
      case Fault::NanActivation:
        return "nan_activation";
      case Fault::CorruptClusterIds:
        return "corrupt_cluster_ids";
      case Fault::ZeroQuantScale:
        return "zero_quant_scale";
      case Fault::WorkerPanic:
        return "worker_panic";
      case Fault::OodScale:
        return "ood_scale";
      default:
        return "?";
    }
}

const std::vector<std::string> &
allFaultNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> v;
        for (int i = 0; i < static_cast<int>(Fault::NumFaults); ++i)
            v.push_back(faultName(static_cast<Fault>(i)));
        return v;
    }();
    return names;
}

Expected<Fault>
faultByName(const std::string &name)
{
    for (int i = 0; i < static_cast<int>(Fault::NumFaults); ++i) {
        if (name == faultName(static_cast<Fault>(i)))
            return static_cast<Fault>(i);
    }
    return Status::error(ErrorCode::InvalidArgument,
                         "unknown fault point '", name,
                         "' (known: sram_exhausted, cluster_collapse, "
                         "cluster_empty, nan_activation, "
                         "corrupt_cluster_ids, zero_quant_scale, "
                         "worker_panic, ood_scale)");
}

uint64_t
seed(Fault f)
{
    const detail::EventSlot &slot =
        detail::g_events[static_cast<size_t>(f)];
    if (!slot.armed.load(std::memory_order_relaxed))
        return 1;
    return slot.seed.load(std::memory_order_relaxed);
}

int
targetStream(Fault f)
{
    const detail::EventSlot &slot =
        detail::g_events[static_cast<size_t>(f)];
    if (!slot.armed.load(std::memory_order_relaxed))
        return -1;
    return slot.stream.load(std::memory_order_relaxed);
}

namespace {

/** Lowest-indexed armed fault, NumFaults when nothing is armed. */
Fault
firstArmed()
{
    for (size_t i = 0; i < static_cast<size_t>(Fault::NumFaults); ++i) {
        if (detail::g_events[i].armed.load(std::memory_order_relaxed))
            return static_cast<Fault>(i);
    }
    return Fault::NumFaults;
}

} // namespace

uint64_t
seed()
{
    const Fault f = firstArmed();
    return f == Fault::NumFaults ? 1 : seed(f);
}

int
targetStream()
{
    const Fault f = firstArmed();
    return f == Fault::NumFaults ? -1 : targetStream(f);
}

void
noteFired(Fault f)
{
    GENREUSE_REQUIRE(f != Fault::NumFaults, "cannot fire NumFaults");
    metrics::counter("fault.fires").add();
    metrics::counter(std::string("fault.fires.") + faultName(f)).add();
    // A fire is exactly the moment the flight recorder exists for:
    // journal it (tagged with the enclosing layer, if any) and dump
    // the black box so the lead-up survives whatever happens next.
    eventlog::record(eventlog::Type::FaultFire, eventlog::currentTag(),
                     0.0, 0.0, 0.0, 0, static_cast<uint8_t>(f));
    eventlog::dumpPostmortem("fault_fire");
}

void
armEvent(Fault f, uint64_t seed, int stream, uint64_t fire_at)
{
    GENREUSE_REQUIRE(f != Fault::NumFaults, "cannot arm NumFaults");
    detail::EventSlot &slot = detail::g_events[static_cast<size_t>(f)];
    slot.seed.store(seed, std::memory_order_relaxed);
    slot.stream.store(stream < 0 ? -1 : stream,
                      std::memory_order_relaxed);
    slot.fireAt.store(fire_at, std::memory_order_relaxed);
    slot.checks.store(0, std::memory_order_relaxed);
    // Arm last: the slot is complete before the gate opens.
    slot.armed.store(true, std::memory_order_relaxed);
    obs::set(obs::kFault, true);
}

void
arm(Fault f, uint64_t seed, int stream)
{
    disarm();
    armEvent(f, seed, stream, 0);
}

namespace {

/** Parse one "<name>[:seed][@stream[:at]]" event of a schedule. */
Status
armOneEvent(const std::string &event, const std::string &spec)
{
    // Strip the @stream[:at] suffix first so a seed parse never
    // swallows it.
    std::string body = event;
    int stream = -1;
    uint64_t fire_at = 0;
    const size_t at_pos = event.find('@');
    if (at_pos != std::string::npos) {
        body = event.substr(0, at_pos);
        std::string stream_str = event.substr(at_pos + 1);
        const size_t colon = stream_str.find(':');
        if (colon != std::string::npos) {
            const std::string at_str = stream_str.substr(colon + 1);
            stream_str = stream_str.substr(0, colon);
            char *end = nullptr;
            unsigned long long v =
                std::strtoull(at_str.c_str(), &end, 10);
            if (at_str.empty() || end == nullptr || *end != '\0' ||
                v == 0) {
                return Status::error(
                    ErrorCode::InvalidArgument, "bad check ordinal '",
                    at_str, "' in spec '", spec,
                    "' (want <name>[:seed][@stream[:at]], at >= 1)");
            }
            fire_at = static_cast<uint64_t>(v);
        }
        char *end = nullptr;
        unsigned long long v = std::strtoull(stream_str.c_str(), &end, 10);
        if (stream_str.empty() || end == nullptr || *end != '\0' ||
            v > 65535) {
            return Status::error(
                ErrorCode::InvalidArgument, "bad stream '", stream_str,
                "' in spec '", spec,
                "' (want <name>[:seed][@stream[:at]])");
        }
        stream = static_cast<int>(v);
    }
    std::string name = body;
    uint64_t s = 1;
    const size_t colon = body.find(':');
    if (colon != std::string::npos) {
        name = body.substr(0, colon);
        const std::string seed_str = body.substr(colon + 1);
        char *end = nullptr;
        unsigned long long v = std::strtoull(seed_str.c_str(), &end, 10);
        if (seed_str.empty() || end == nullptr || *end != '\0') {
            return Status::error(
                ErrorCode::InvalidArgument, "bad seed '", seed_str,
                "' in spec '", spec,
                "' (want <name>[:seed][@stream[:at]])");
        }
        s = static_cast<uint64_t>(v);
    }
    Expected<Fault> f = faultByName(name);
    if (!f.ok())
        return f.status();
    armEvent(*f, s, stream, fire_at);
    return Status{};
}

} // namespace

Status
armSpec(const std::string &spec)
{
    // A schedule replaces whatever was armed, even when a later event
    // turns out malformed — half-armed schedules would test something
    // the user did not ask for.
    disarm();
    size_t start = 0;
    while (start <= spec.size()) {
        size_t comma = spec.find(',', start);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string event = spec.substr(start, comma - start);
        if (event.empty()) {
            disarm();
            return Status::error(ErrorCode::InvalidArgument,
                                 "empty event in spec '", spec,
                                 "' (want a comma-separated list of "
                                 "<name>[:seed][@stream[:at]])");
        }
        Status s = armOneEvent(event, spec);
        if (!s.ok()) {
            disarm();
            return s;
        }
        start = comma + 1;
    }
    return Status{};
}

void
disarm()
{
    for (size_t i = 0; i < static_cast<size_t>(Fault::NumFaults); ++i) {
        detail::EventSlot &slot = detail::g_events[i];
        slot.armed.store(false, std::memory_order_relaxed);
        slot.seed.store(1, std::memory_order_relaxed);
        slot.stream.store(-1, std::memory_order_relaxed);
        slot.fireAt.store(0, std::memory_order_relaxed);
        slot.checks.store(0, std::memory_order_relaxed);
    }
    obs::set(obs::kFault, false);
}

} // namespace faultpoint
} // namespace genreuse
