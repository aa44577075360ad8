/**
 * @file
 * The benchmark's own load generators over ServeEngine::trySubmit, so
 * an edit to the repository's load generator cannot move the
 * yardstick. Both run on the calling thread (the one generator
 * thread) and record every request's outcome for the output checks.
 */

#ifndef PERFBENCH_TRAFFIC_H
#define PERFBENCH_TRAFFIC_H

#include <cstdint>
#include <functional>
#include <vector>

#include "serve/serve.h"

namespace perfbench {

/** One request sent and what came back. */
struct Outcome
{
    uint32_t item = 0;    //!< index into the workload's request items
    bool admitted = false;
    bool ok = false;      //!< completed with an Ok status
    uint32_t stream = 0;  //!< 1-based stream that executed it
    uint64_t dueNs = 0;   //!< scheduled send (open loop) or send
    uint64_t sentNs = 0;  //!< trySubmit() called
    uint64_t enqueueNs = 0, queuedNs = 0, startNs = 0, doneNs = 0;
    genreuse::Tensor output;
};

/** Builds the input tensor of request item @p item. */
using MakeInput = std::function<genreuse::Tensor(uint32_t item)>;

/**
 * Open loop: Poisson arrivals at @p rate_rps for @p duration_ns, from
 * @p seed. Request k sends item (@p first + k) % @p items. Latency is
 * measured by the caller from dueNs, so a stall is charged to every
 * request it delays.
 */
std::vector<Outcome> openLoop(genreuse::serve::ServeEngine &engine,
                              uint32_t items, const MakeInput &make,
                              double rate_rps, uint64_t duration_ns,
                              uint64_t seed, size_t first = 0);

/**
 * Closed loop: keep @p inflight requests outstanding for
 * @p duration_ns; request k sends item (@p first + k) % @p items.
 */
std::vector<Outcome> closedLoop(genreuse::serve::ServeEngine &engine,
                                uint32_t items, const MakeInput &make,
                                size_t inflight, uint64_t duration_ns,
                                size_t first = 0);

} // namespace perfbench

#endif // PERFBENCH_TRAFFIC_H
