#include "trace.h"

#include <mutex>

#include "json.h"
#include "logging.h"

namespace genreuse {

OpCounts &
OpCounts::operator+=(const OpCounts &o)
{
    macs += o.macs;
    elemMoves += o.elemMoves;
    aluOps += o.aluOps;
    tableOps += o.tableOps;
    return *this;
}

OpCounts
OpCounts::operator+(const OpCounts &o) const
{
    OpCounts r = *this;
    r += o;
    return r;
}

bool
OpCounts::operator==(const OpCounts &o) const
{
    return macs == o.macs && elemMoves == o.elemMoves &&
           aluOps == o.aluOps && tableOps == o.tableOps;
}

bool
OpCounts::isZero() const
{
    return macs == 0 && elemMoves == 0 && aluOps == 0 && tableOps == 0;
}

const char *
stageName(Stage s)
{
    switch (s) {
      case Stage::Transformation:
        return "Transformation";
      case Stage::Clustering:
        return "Clustering";
      case Stage::Gemm:
        return "GEMM";
      case Stage::Recovering:
        return "Recovering";
      default:
        return "?";
    }
}

void
OpLedger::add(Stage stage, const OpCounts &ops)
{
    size_t i = static_cast<size_t>(stage);
    GENREUSE_REQUIRE(i < static_cast<size_t>(Stage::NumStages),
                     "bad stage index");
    stages_[i] += ops;
}

void
OpLedger::merge(const OpLedger &other)
{
    for (size_t i = 0; i < static_cast<size_t>(Stage::NumStages); ++i)
        stages_[i] += other.stages_[i];
}

const OpCounts &
OpLedger::stage(Stage s) const
{
    return stages_[static_cast<size_t>(s)];
}

OpCounts
OpLedger::total() const
{
    OpCounts t;
    for (const auto &s : stages_)
        t += s;
    return t;
}

bool
OpLedger::operator==(const OpLedger &o) const
{
    for (size_t i = 0; i < static_cast<size_t>(Stage::NumStages); ++i)
        if (!(stages_[i] == o.stages_[i]))
            return false;
    return true;
}

void
OpLedger::clear()
{
    for (auto &s : stages_)
        s = OpCounts{};
}

namespace trace {

namespace {

constexpr const char *kUntagged = "(untagged)";

std::mutex g_mutex;
// Insertion-ordered so exports are stable run to run.
std::vector<std::pair<std::string, OpLedger>> g_ledgers;

thread_local TraceScope *t_scope = nullptr;

/** Registry slot for @p name; caller holds g_mutex. */
OpLedger &
ledgerForLocked(const std::string &name)
{
    for (auto &entry : g_ledgers)
        if (entry.first == name)
            return entry.second;
    g_ledgers.emplace_back(name, OpLedger{});
    return g_ledgers.back().second;
}

// Out-of-scope records used to funnel through g_mutex onto one shared
// "(untagged)" ledger — a contention point when many threads trace
// without scopes (BM_UntaggedReportOps). Now each thread owns a slot
// whose mutex only it ever takes on the hot path; snapshot/reset walk
// the slot list. Slots are heap-allocated and never freed so a
// thread's counts survive its exit until the next reset().
struct UntaggedSlot
{
    std::mutex mu;
    OpLedger ledger;
};

std::mutex g_untagged_mutex;

std::vector<UntaggedSlot *> &
untaggedSlots()
{
    static std::vector<UntaggedSlot *> *v =
        new std::vector<UntaggedSlot *>;
    return *v;
}

thread_local UntaggedSlot *t_untagged = nullptr;

UntaggedSlot &
untaggedSlot()
{
    if (t_untagged == nullptr) {
        UntaggedSlot *s = new UntaggedSlot;
        std::lock_guard<std::mutex> lock(g_untagged_mutex);
        untaggedSlots().push_back(s);
        t_untagged = s;
    }
    return *t_untagged;
}

/** All untagged slots merged into one ledger. */
OpLedger
untaggedMerged()
{
    OpLedger total;
    std::lock_guard<std::mutex> lock(g_untagged_mutex);
    for (UntaggedSlot *s : untaggedSlots()) {
        std::lock_guard<std::mutex> slot_lock(s->mu);
        total.merge(s->ledger);
    }
    return total;
}

} // namespace

TraceScope::TraceScope(const std::string &layer_name)
{
    if (!enabled())
        return;
    name_ = layer_name;
    prev_ = t_scope;
    t_scope = this;
    active_ = true;
}

TraceScope::~TraceScope()
{
    if (!active_)
        return;
    t_scope = prev_;
    if (local_.total().isZero())
        return;
    std::lock_guard<std::mutex> lock(g_mutex);
    ledgerForLocked(name_).merge(local_);
}

void
record(Stage stage, const OpCounts &ops)
{
    if (t_scope) {
        t_scope->add(stage, ops);
        return;
    }
    // Sharded path: this thread's own slot, whose mutex is only ever
    // contended by snapshot/reset — never by other recording threads.
    UntaggedSlot &slot = untaggedSlot();
    std::lock_guard<std::mutex> lock(slot.mu);
    slot.ledger.add(stage, ops);
}

std::vector<std::pair<std::string, OpLedger>>
snapshot()
{
    std::vector<std::pair<std::string, OpLedger>> out;
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        out = g_ledgers;
    }
    OpLedger untagged = untaggedMerged();
    if (!untagged.total().isZero())
        out.emplace_back(kUntagged, untagged);
    return out;
}

OpLedger
layerLedger(const std::string &name)
{
    if (name == kUntagged)
        return untaggedMerged();
    std::lock_guard<std::mutex> lock(g_mutex);
    for (const auto &entry : g_ledgers)
        if (entry.first == name)
            return entry.second;
    return OpLedger{};
}

void
reset()
{
    {
        std::lock_guard<std::mutex> lock(g_mutex);
        g_ledgers.clear();
    }
    std::lock_guard<std::mutex> lock(g_untagged_mutex);
    for (UntaggedSlot *s : untaggedSlots()) {
        std::lock_guard<std::mutex> slot_lock(s->mu);
        s->ledger.clear();
    }
}

namespace {

void
writeCounts(JsonWriter &w, const OpCounts &ops)
{
    w.beginObject();
    w.key("macs").value(ops.macs);
    w.key("elemMoves").value(ops.elemMoves);
    w.key("aluOps").value(ops.aluOps);
    w.key("tableOps").value(ops.tableOps);
    w.endObject();
}

} // namespace

std::string
toJson()
{
    auto ledgers = snapshot();
    JsonWriter w;
    w.beginObject();
    w.key("schema").value("genreuse.trace/1");
    w.key("layers").beginArray();
    for (const auto &[name, ledger] : ledgers) {
        w.beginObject();
        w.key("name").value(name);
        w.key("stages").beginObject();
        for (size_t s = 0; s < static_cast<size_t>(Stage::NumStages);
             ++s) {
            Stage stage = static_cast<Stage>(s);
            w.key(stageName(stage));
            writeCounts(w, ledger.stage(stage));
        }
        w.endObject();
        w.key("total");
        writeCounts(w, ledger.total());
        w.endObject();
    }
    w.endArray();
    w.endObject();
    return w.str();
}

} // namespace trace
} // namespace genreuse
