#include "spans.h"

#include "serve/serve.h"
#include "tensor/im2col.h"

using namespace genreuse;
using genreuse::serve::nowNs;

namespace perfbench {

SpanTracer::SpanTracer(Replica &replica) : replica_(replica)
{
    intern("serve.infer");
    Network &net = replica_.net;
    for (size_t i = 0; i < net.numLayers(); ++i) {
        Layer &layer = net.layer(i);
        layerSpan_.push_back(intern("nn." + layer.name()));
        if (dynamic_cast<Conv2D *>(&layer) == nullptr) {
            convIndex_.push_back(-1);
            continue;
        }
        const std::string &n = layer.name();
        const bool guarded = convSpans_.size() < replica_.guards.size();
        convIndex_.push_back(static_cast<int>(convSpans_.size()));
        convSpans_.push_back(
            {layerSpan_.back(), intern("tensor.im2col." + n),
             intern("nn.weight_matrix." + n),
             intern((guarded ? "core.multiply." : "tensor.gemm.") + n),
             intern("tensor.fold." + n)});
    }
    spans_.reserve(1 << 16);
    convs_.reserve(1 << 12);
}

uint16_t
SpanTracer::intern(const std::string &name)
{
    names_.push_back(name);
    return static_cast<uint16_t>(names_.size() - 1);
}

uint64_t
SpanTracer::record(uint32_t req, uint16_t name, uint16_t parent,
                   uint64_t start)
{
    const uint64_t end = nowNs();
    spans_.push_back({req, name, parent, start, end});
    return end;
}

Tensor
SpanTracer::forward(const Tensor &x)
{
    // Consecutive spans share their boundary instant, so the layer
    // spans tile the request's span: time the host takes between two
    // calls (a preemption, a page fault on the span buffer) lands in
    // the next span instead of in no span.
    const uint32_t req = next_++;
    const uint64_t root = nowNs();
    uint64_t t = root;
    Tensor act;
    Network &net = replica_.net;
    for (size_t i = 0; i < net.numLayers(); ++i) {
        const Tensor &in = i == 0 ? x : act;
        if (convIndex_[i] >= 0) {
            act = convForward(static_cast<Conv2D &>(net.layer(i)),
                              static_cast<size_t>(convIndex_[i]), in, req,
                              t);
        } else {
            act = net.layer(i).forward(in, /*training=*/false);
        }
        t = record(req, layerSpan_[i], 0, t);
    }
    spans_.push_back({req, 0, 0, root, t});
    return act;
}

Tensor
SpanTracer::convForward(Conv2D &conv, size_t conv_index, const Tensor &x,
                        uint32_t req, uint64_t t)
{
    const ConvSpans &s = convSpans_[conv_index];
    ConvSample sample;
    sample.conv = static_cast<uint16_t>(conv_index);
    sample.guarded = conv_index < replica_.guards.size();

    const ConvGeometry geom = conv.geometry(x.shape());
    Tensor cols = im2col(x, geom);
    t = record(req, s.im2col, s.layer, t);

    Tensor w = conv.weightMatrix();
    t = record(req, s.weights, s.layer, t);

    Tensor y = conv.algo().multiply(cols, w, geom, &sample.ledger);
    t = record(req, s.multiply, s.layer, t);

    const size_t n = y.shape().rows(), m = y.shape().cols();
    const float *bias = conv.bias().value.data();
    float *out = y.data();
    for (size_t r = 0; r < n; ++r)
        for (size_t c = 0; c < m; ++c)
            out[r * m + c] += bias[c];
    Tensor act = gemmOutputToActivation(y, geom);
    record(req, s.fold, s.layer, t);

    // The op counts Conv2D::forward reports around the multiply: one
    // element move per im2col cell, then one bias add and one fold move
    // per output element.
    OpCounts moves;
    moves.elemMoves = cols.size();
    sample.ledger.add(Stage::Transformation, moves);
    OpCounts recover;
    recover.aluOps = n * m;
    recover.elemMoves = n * m;
    sample.ledger.add(Stage::Recovering, recover);
    if (sample.guarded) {
        const GuardedReuseConvAlgo &g = *replica_.guards[conv_index];
        sample.rung = g.lastRung();
        const ReuseStats &st = g.inner().lastStats();
        sample.redundancy = st.redundancyRatio();
        sample.centroids = static_cast<double>(st.totalCentroids);
    }
    convs_.push_back(sample);
    return act;
}

} // namespace perfbench
