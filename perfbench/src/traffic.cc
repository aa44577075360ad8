#include "traffic.h"

#include <chrono>
#include <cmath>
#include <condition_variable>
#include <mutex>
#include <thread>

#include "common/logging.h"
#include "common/rng.h"
#include "spans.h"

using namespace genreuse;
using namespace genreuse::serve;

namespace perfbench {

namespace {

/** Counts completions of the requests one generator sent. */
class Completions
{
  public:
    void
    sent()
    {
        std::lock_guard<std::mutex> lock(mu_);
        ++outstanding_;
    }

    void
    done()
    {
        // Notify under the lock: the waiter may destroy this object as
        // soon as it sees the count drop.
        std::lock_guard<std::mutex> lock(mu_);
        --outstanding_;
        cv_.notify_all();
    }

    /** Wait until fewer than @p limit requests are outstanding. */
    void
    waitBelow(size_t limit)
    {
        std::unique_lock<std::mutex> lock(mu_);
        cv_.wait(lock, [&] { return outstanding_ < limit; });
    }

  private:
    std::mutex mu_;
    std::condition_variable cv_;
    size_t outstanding_ = 0; //!< guarded by mu_
};

/** Send @p input (request item @p item) as @p out's request. */
void
send(ServeEngine &engine, Tensor input, uint32_t item, Outcome &out,
     Completions &completions)
{
    out.item = item;
    out.sentNs = nowNs();
    completions.sent();
    out.admitted = engine.trySubmit(
        std::move(input), [&out, &completions](ServeResult &&r) {
            out.ok = r.status.ok();
            out.stream = r.streamId;
            out.enqueueNs = r.enqueueNs;
            out.queuedNs = r.queuedNs;
            out.startNs = r.startNs;
            out.doneNs = r.doneNs;
            out.output = std::move(r.output);
            completions.done();
        });
    if (!out.admitted)
        completions.done();
}

/**
 * Return at @p due_ns: sleep while it is far, then spin, so a send is
 * not late by a timer or idle-CPU wake-up (which on a virtual machine
 * can take milliseconds).
 */
void
waitUntil(uint64_t due_ns)
{
    constexpr uint64_t kSpinNs = 2000000;
    const uint64_t now = nowNs();
    if (due_ns > now + kSpinNs)
        std::this_thread::sleep_for(
            std::chrono::nanoseconds(due_ns - now - kSpinNs));
    while (nowNs() < due_ns) {
    }
}

} // namespace

std::vector<Outcome>
openLoop(ServeEngine &engine, uint32_t items, const MakeInput &make,
         double rate_rps, uint64_t duration_ns, uint64_t seed,
         size_t first)
{
    GENREUSE_REQUIRE(items > 0 && rate_rps > 0.0,
                     "open loop needs items and a positive rate");
    // The whole schedule is fixed before the first send.
    Rng rng(seed);
    std::vector<uint64_t> due;
    double t = 0.0;
    for (;;) {
        t += -std::log(1.0 - rng.uniform()) / rate_rps * 1e9;
        if (t >= static_cast<double>(duration_ns))
            break;
        due.push_back(static_cast<uint64_t>(t));
    }
    std::vector<Outcome> outcomes(due.size());
    Completions completions;
    const uint64_t start = nowNs() + 1000000;
    for (size_t k = 0; k < due.size(); ++k) {
        Outcome &out = outcomes[k];
        out.dueNs = start + due[k];
        const uint32_t item = static_cast<uint32_t>((first + k) % items);
        Tensor input = make(item);
        waitUntil(out.dueNs);
        send(engine, std::move(input), item, out, completions);
    }
    completions.waitBelow(1);
    return outcomes;
}

std::vector<Outcome>
closedLoop(ServeEngine &engine, uint32_t items, const MakeInput &make,
           size_t inflight, uint64_t duration_ns, size_t first)
{
    GENREUSE_REQUIRE(items > 0 && inflight > 0,
                     "closed loop needs items and an in-flight count");
    // Outcomes are written by worker callbacks, so their addresses must
    // not move: reserve for the highest plausible rate, then refuse to
    // outgrow it.
    const size_t capacity =
        static_cast<size_t>(duration_ns / 1000000) + inflight;
    std::vector<Outcome> outcomes;
    outcomes.reserve(capacity);
    Completions completions;
    const uint64_t end = nowNs() + duration_ns;
    for (size_t k = first; outcomes.size() < capacity; ++k) {
        const uint32_t item = static_cast<uint32_t>(k % items);
        Tensor input = make(item);
        completions.waitBelow(inflight);
        const uint64_t now = nowNs();
        if (now >= end)
            break;
        outcomes.emplace_back();
        outcomes.back().dueNs = now;
        send(engine, std::move(input), item, outcomes.back(), completions);
    }
    completions.waitBelow(1);
    return outcomes;
}

} // namespace perfbench
