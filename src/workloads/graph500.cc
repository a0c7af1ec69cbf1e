#include "workloads/graph500.hh"

#include <deque>

#include "support/logging.hh"

namespace mosaic::workloads
{

Graph500Workload::Graph500Workload(const Graph500Params &params)
    : params_(params)
{
}

GraphParams
Graph500Workload::graphParams() const
{
    GraphParams graph;
    graph.kind = GraphKind::Twitter; // Kronecker-like skew
    graph.numVertices = params_.numVertices;
    graph.avgDegree = params_.avgDegree;
    graph.degreeAlpha = 1.7;
    graph.seed = params_.seed;
    return graph;
}

WorkloadInfo
Graph500Workload::info() const
{
    return {"graph500", params_.sizeName};
}

namespace
{

/** The CSR, parent and visited arrays plus 4 MiB of slack. */
Bytes
anonPoolBytes(const SyntheticGraph &graph)
{
    Bytes props = graph.numVertices() * 8 + graph.numVertices() / 8;
    return alignUp(graph.offsetsBytes() + graph.adjacencyBytes() + props +
                       4_MiB,
                   2_MiB);
}

} // namespace

Bytes
Graph500Workload::anonPoolSize() const
{
    return anonPoolSize_.get(
        [this] { return anonPoolBytes(SyntheticGraph(graphParams())); });
}

trace::MemoryTrace
Graph500Workload::generateTrace() const
{
    SyntheticGraph graph(graphParams());
    // Size the pool from this graph, so baselineAllocConfig() does not
    // build a second one.
    anonPoolSize_.get([&graph] { return anonPoolBytes(graph); });
    TraceBuilder builder(baselineAllocConfig(), params_.refBudget + 64);
    auto &allocator = builder.allocator();

    // graph500 maps its arrays with anonymous mmap, not malloc.
    VirtAddr offsets = allocator.mmap(graph.offsetsBytes());
    VirtAddr adjacency = allocator.mmap(graph.adjacencyBytes());
    VirtAddr parent = allocator.mmap(graph.numVertices() * 8);
    VirtAddr visited = allocator.mmap(graph.numVertices() / 8 + 8);
    mosaic_assert(offsets && adjacency && parent && visited,
                  "graph500 mmap failed");

    const std::uint64_t v = graph.numVertices();

    // Phase 1 (compression): stream the CSR into place. Writes are
    // sequential; sampled so the phase takes ~5% of the budget (the
    // real kernel's compression is a small fraction of a full run of
    // 64 BFS iterations).
    std::uint64_t build_budget = params_.refBudget * 5 / 100;
    std::uint64_t edge_stride =
        std::max<std::uint64_t>(1, graph.numEdges() / build_budget);
    for (std::uint64_t e = 0; e < graph.numEdges(); e += edge_stride) {
        builder.store(adjacency + e * 8, 3);
        if (builder.numRefs() >= build_budget)
            break;
    }

    // Phase 2: BFS with the standard top-down step.
    std::vector<bool> seen(v, false);
    std::deque<std::uint64_t> queue;
    Rng rng(params_.seed ^ 0xb5);

    auto push_root = [&] {
        for (int tries = 0; tries < 64; ++tries) {
            std::uint64_t root = rng.nextBounded(v);
            if (!seen[root]) {
                seen[root] = true;
                queue.push_back(root);
                return true;
            }
        }
        return false;
    };

    push_root();
    while (builder.numRefs() < params_.refBudget) {
        if (queue.empty() && !push_root())
            break;
        std::uint64_t u = queue.front();
        queue.pop_front();

        builder.load(offsets + u * 8, 2);
        std::uint32_t deg = graph.degree(u);
        std::uint64_t off = graph.offset(u);
        for (std::uint32_t i = 0; i < deg; ++i) {
            builder.load(adjacency + (off + i) * 8, 1);
            std::uint64_t w = graph.neighbor(u, i);
            builder.loadDependent(visited + w / 8, 1);
            if (!seen[w]) {
                seen[w] = true;
                queue.push_back(w);
                builder.store(parent + w * 8, 1);
            }
            if (builder.numRefs() >= params_.refBudget)
                return builder.take();
        }
    }
    return builder.take();
}

Graph500Params
graph500Small()
{
    Graph500Params params;
    params.numVertices = 1u << 19;
    params.sizeName = "2GB";
    params.seed = 0x500502;
    return params;
}

Graph500Params
graph500Medium()
{
    Graph500Params params;
    params.numVertices = 1u << 20;
    params.sizeName = "4GB";
    params.seed = 0x500504;
    return params;
}

Graph500Params
graph500Large()
{
    Graph500Params params;
    params.numVertices = 1u << 21;
    params.sizeName = "8GB";
    params.refBudget = 600000; // largest graph: keep counters steady
    params.seed = 0x500508;
    return params;
}

} // namespace mosaic::workloads
