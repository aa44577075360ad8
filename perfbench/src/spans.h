/**
 * @file
 * The traced run's forward: the model executed layer by layer through
 * the library's public calls, with a span around each call. A conv is
 * decomposed into im2col -> weightMatrix -> ConvAlgo::multiply (with a
 * CostLedger) -> bias + gemmOutputToActivation, exactly the steps of
 * Conv2D::forward, so the output is bit-identical to Network::forward
 * (checked by main.cc before any traced request is served).
 */

#ifndef PERFBENCH_SPANS_H
#define PERFBENCH_SPANS_H

#include <cstdint>
#include <string>
#include <vector>

#include "mcu/cost_model.h"
#include "model.h"

namespace perfbench {

/** One recorded span. Spans of one request share @c request. */
struct SpanRecord
{
    uint32_t request = 0; //!< per-stream request sequence number
    uint16_t name = 0;    //!< index into SpanTracer::names()
    uint16_t parent = 0;  //!< name index of the enclosing span
    uint64_t startNs = 0;
    uint64_t endNs = 0;
};

/** What one conv's multiply did on one traced request. */
struct ConvSample
{
    uint16_t conv = 0;  //!< 0 = conv1, 1 = conv2
    bool guarded = false;
    genreuse::GuardRung rung = genreuse::GuardRung::FullReuse;
    double redundancy = 0.0; //!< observed r_t (guarded only)
    double centroids = 0.0;  //!< n_c (guarded only)
    genreuse::CostLedger ledger; //!< the layer's op counts
};

/**
 * Runs traced forwards over one replica and keeps every span in
 * memory. Used from exactly one thread at a time.
 */
class SpanTracer
{
  public:
    explicit SpanTracer(Replica &replica);

    /** Traced forward; output bit-identical to Network::forward. */
    genreuse::Tensor forward(const genreuse::Tensor &x);

    /** Span names; index 0 is the request root "serve.infer". */
    const std::vector<std::string> &names() const { return names_; }
    const std::vector<SpanRecord> &spans() const { return spans_; }
    const std::vector<ConvSample> &convSamples() const { return convs_; }

  private:
    /** Per conv: name indices of its layer span and its four steps. */
    struct ConvSpans
    {
        uint16_t layer, im2col, weights, multiply, fold;
    };

    uint16_t intern(const std::string &name);
    /** The conv's steps as child spans, the first starting at @p t. */
    genreuse::Tensor convForward(genreuse::Conv2D &conv, size_t conv_index,
                                 const genreuse::Tensor &x, uint32_t req,
                                 uint64_t t);
    /** Records a span from @p start to now; returns its end. */
    uint64_t record(uint32_t req, uint16_t name, uint16_t parent,
                    uint64_t start);

    Replica &replica_;
    std::vector<std::string> names_;
    std::vector<uint16_t> layerSpan_; //!< per network layer
    std::vector<int> convIndex_;      //!< per layer: conv index or -1
    std::vector<ConvSpans> convSpans_;
    std::vector<SpanRecord> spans_;
    std::vector<ConvSample> convs_;
    uint32_t next_ = 0;
};

} // namespace perfbench

#endif // PERFBENCH_SPANS_H
