#include "workloads/graph.hh"

#include <atomic>
#include <cmath>

#include "support/logging.hh"

namespace mosaic::workloads
{

namespace
{

std::atomic<std::uint64_t> graphsBuilt{0};

} // namespace

SyntheticGraph::SyntheticGraph(const GraphParams &params)
    : params_(params)
{
    ++graphsBuilt;
    const std::uint64_t v = params_.numVertices;
    mosaic_assert(v >= 16, "graph too small");

    if (params_.kind == GraphKind::Road) {
        // Near-square grid; interior vertices have degree 4. Offsets
        // are a closed form over the width, so nothing is stored.
        gridWidth_ = static_cast<std::uint64_t>(std::sqrt(
            static_cast<double>(v)));
        numEdges_ = roadOffset(v);
        return;
    }

    // Power-law kinds: each vertex's drawn degree is parked in its
    // offsets_ slot, then the slots turn into prefix sums in place.
    offsets_.resize(v + 1);
    Rng rng(params_.seed);
    const double max_degree =
        std::min<double>(static_cast<double>(v) / 4.0, 65536.0);
    double scale_acc = 0.0;
    for (std::uint64_t u = 0; u < v; ++u) {
        double d =
            rng.nextBoundedPareto(params_.degreeAlpha, 1.0, max_degree);
        offsets_[u] = static_cast<std::uint32_t>(d);
        scale_acc += d;
    }
    // Rescale to hit the requested average degree (the bounded Pareto
    // mean depends on alpha).
    double factor = params_.avgDegree * static_cast<double>(v) / scale_acc;
    std::uint64_t acc = 0;
    for (std::uint64_t u = 0; u < v; ++u) {
        auto scaled = static_cast<std::uint32_t>(std::max(
            1.0, std::floor(static_cast<double>(offsets_[u]) * factor)));
        offsets_[u] = acc;
        acc += scaled;
    }
    offsets_[v] = acc;
    numEdges_ = acc;
}

std::uint64_t
SyntheticGraph::neighbor(std::uint64_t u, std::uint32_t i) const
{
    const std::uint64_t v = params_.numVertices;
    // Derived endpoint: deterministic per (seed, u, i).
    std::uint64_t state = params_.seed ^ (u * 0x9e3779b97f4a7c15ULL) ^
                          (static_cast<std::uint64_t>(i) + 1) *
                              0xbf58476d1ce4e5b9ULL;
    std::uint64_t r1 = splitMix64(state);
    std::uint64_t r2 = splitMix64(state);

    switch (params_.kind) {
      case GraphKind::Road: {
        // Enumerate the (up, down, left, right) neighbours in order.
        std::uint64_t options[4];
        std::uint32_t count = 0;
        if (u >= gridWidth_)
            options[count++] = u - gridWidth_;
        if (u + gridWidth_ < v)
            options[count++] = u + gridWidth_;
        if (u % gridWidth_ != 0)
            options[count++] = u - 1;
        if ((u + 1) % gridWidth_ != 0 && u + 1 < v)
            options[count++] = u + 1;
        mosaic_assert(i < count, "road neighbour index out of degree");
        return options[i];
      }
      case GraphKind::Twitter: {
        // Hub bias: the product of two uniforms concentrates mass near
        // zero, emulating preferential attachment to early vertices.
        double u1 = static_cast<double>(r1 >> 11) * 0x1.0p-53;
        double u2 = static_cast<double>(r2 >> 11) * 0x1.0p-53;
        auto target = static_cast<std::uint64_t>(
            u1 * u2 * static_cast<double>(v));
        return target < v ? target : v - 1;
      }
      case GraphKind::Web: {
        // 80% community-local (geometric offset), 20% global hubs.
        if ((r1 & 0xff) < 205) {
            std::uint64_t span = 1 + (r2 & 0x3fff); // within ~16K ids
            bool back = (r1 >> 8) & 1;
            if (back && u >= span)
                return u - span;
            std::uint64_t fwd = u + span;
            return fwd < v ? fwd : u / 2;
        }
        double u1 = static_cast<double>(r2 >> 11) * 0x1.0p-53;
        auto target = static_cast<std::uint64_t>(
            u1 * u1 * static_cast<double>(v));
        return target < v ? target : v - 1;
      }
    }
    mosaic_panic("bad graph kind");
}

std::uint64_t
SyntheticGraph::built()
{
    return graphsBuilt;
}

GraphParams
twitterGraph(std::uint64_t vertices)
{
    GraphParams params;
    params.kind = GraphKind::Twitter;
    params.numVertices = vertices;
    params.avgDegree = 24.0;
    params.degreeAlpha = 1.8;
    params.seed = 0x7817;
    return params;
}

GraphParams
webGraph(std::uint64_t vertices)
{
    GraphParams params;
    params.kind = GraphKind::Web;
    params.numVertices = vertices;
    params.avgDegree = 16.0;
    params.degreeAlpha = 2.0;
    params.seed = 0x3eb;
    return params;
}

GraphParams
roadGraph(std::uint64_t vertices)
{
    GraphParams params;
    params.kind = GraphKind::Road;
    params.numVertices = vertices;
    params.avgDegree = 4.0;
    params.seed = 0x70ad;
    return params;
}

} // namespace mosaic::workloads
