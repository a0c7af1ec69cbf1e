#include "workloads/gapbs.hh"

#include <deque>

#include "support/logging.hh"

namespace mosaic::workloads
{

std::string
gapbsKernelName(GapbsKernel kernel)
{
    switch (kernel) {
      case GapbsKernel::Bc:
        return "bc";
      case GapbsKernel::Pr:
        return "pr";
      case GapbsKernel::Bfs:
        return "bfs";
      case GapbsKernel::Sssp:
        return "sssp";
    }
    mosaic_panic("bad kernel enum");
}

GapbsWorkload::GapbsWorkload(const GapbsParams &params)
    : params_(params)
{
}

WorkloadInfo
GapbsWorkload::info() const
{
    return {"gapbs",
            gapbsKernelName(params_.kernel) + "-" + params_.graphName};
}

namespace
{

/** The CSR, two property arrays and the visited bitmap plus 4 MiB of
 *  slack. */
Bytes
heapPoolBytes(const SyntheticGraph &graph)
{
    Bytes props = graph.numVertices() * 8 * 2 + graph.numVertices() / 8;
    return alignUp(graph.offsetsBytes() + graph.adjacencyBytes() + props +
                       4_MiB,
                   2_MiB);
}

} // namespace

Bytes
GapbsWorkload::heapPoolSize() const
{
    return heapPoolSize_.get(
        [this] { return heapPoolBytes(SyntheticGraph(params_.graph)); });
}

GapbsWorkload::Arrays
GapbsWorkload::allocateArrays(TraceBuilder &builder,
                              const SyntheticGraph &graph) const
{
    Arrays arrays;
    auto &heap = builder.allocator();
    arrays.offsets = heap.malloc(graph.offsetsBytes());
    arrays.adjacency = heap.malloc(graph.adjacencyBytes());
    arrays.propA = heap.malloc(graph.numVertices() * 8);
    arrays.propB = heap.malloc(graph.numVertices() * 8);
    arrays.visited = heap.malloc(graph.numVertices() / 8 + 8);
    mosaic_assert(arrays.offsets && arrays.adjacency && arrays.propA &&
                      arrays.propB && arrays.visited,
                  "GAPBS allocation failed");
    return arrays;
}

void
GapbsWorkload::tracePr(TraceBuilder &builder, const SyntheticGraph &graph,
                       const Arrays &arrays) const
{
    // PageRank: sequential sweep over vertices; rank loads target the
    // neighbour vertices (hub-biased for twitter). Vertices are visited
    // with a stride and neighbour runs are sampled so one sweep covers
    // the whole CSR address range within the reference budget.
    const std::uint64_t v = graph.numVertices();
    const std::uint64_t stride = 16;
    const std::uint32_t neighbour_cap = 6;

    std::uint64_t sweep = 0;
    while (builder.numRefs() < params_.refBudget) {
        for (std::uint64_t u = sweep % stride; u < v; u += stride) {
            builder.load(arrays.offsets + u * 8, 2); // xadj[u], xadj[u+1]
            std::uint32_t deg = graph.degree(u);
            std::uint32_t take = std::min(deg, neighbour_cap);
            std::uint64_t off = graph.offset(u);
            for (std::uint32_t i = 0; i < take; ++i) {
                builder.load(arrays.adjacency + (off + i) * 8, 1);
                std::uint64_t w = graph.neighbor(u, i);
                // rank[w]: indexed by the neighbour id just loaded.
                builder.loadDependent(arrays.propA + w * 8, 2);
            }
            builder.store(arrays.propB + u * 8, 3); // next_rank[u]
            if (builder.numRefs() >= params_.refBudget)
                break;
        }
        ++sweep;
    }
}

void
GapbsWorkload::traceBfs(TraceBuilder &builder, const SyntheticGraph &graph,
                        const Arrays &arrays) const
{
    // Genuine frontier BFS (host-side queue/visited state), traced
    // until the reference budget is met. Like the real GAPBS harness,
    // which times 64 BFS trials from distinct sources, the traversal
    // periodically restarts from a fresh random root; on high-diameter
    // road graphs this samples many frontier positions instead of one.
    const std::uint64_t v = graph.numVertices();
    std::vector<bool> visited(v, false);
    std::deque<std::uint64_t> queue;
    Rng rng(params_.seed);

    auto push_root = [&] {
        for (int tries = 0; tries < 64; ++tries) {
            std::uint64_t root = rng.nextBounded(v);
            if (!visited[root]) {
                visited[root] = true;
                queue.push_back(root);
                return true;
            }
        }
        return false;
    };

    const std::uint64_t trial_refs = params_.refBudget / 12;
    std::uint64_t next_restart = trial_refs;

    push_root();
    while (builder.numRefs() < params_.refBudget) {
        if (builder.numRefs() >= next_restart) {
            next_restart += trial_refs;
            queue.clear();
            if (!push_root())
                break;
        }
        if (queue.empty() && !push_root())
            break;
        std::uint64_t u = queue.front();
        queue.pop_front();

        builder.load(arrays.offsets + u * 8, 2);
        std::uint32_t deg = graph.degree(u);
        std::uint64_t off = graph.offset(u);
        for (std::uint32_t i = 0; i < deg; ++i) {
            builder.load(arrays.adjacency + (off + i) * 8, 1);
            std::uint64_t w = graph.neighbor(u, i);
            builder.loadDependent(arrays.visited + w / 8, 1); // bitmap
            if (!visited[w]) {
                visited[w] = true;
                queue.push_back(w);
                builder.store(arrays.propB + w * 8, 1); // parent[w]
            }
            if (builder.numRefs() >= params_.refBudget)
                return;
        }
    }
}

void
GapbsWorkload::traceSssp(TraceBuilder &builder,
                         const SyntheticGraph &graph,
                         const Arrays &arrays) const
{
    // Delta-stepping flavoured relaxation: like BFS but every edge
    // loads dist[w] and roughly half the relaxations improve it (store
    // + requeue), so vertices are revisited as in the real kernel.
    const std::uint64_t v = graph.numVertices();
    std::vector<std::uint8_t> settled(v, 0);
    std::deque<std::uint64_t> queue;
    Rng rng(params_.seed ^ 0x555);

    auto push_root = [&] {
        std::uint64_t root = rng.nextBounded(v);
        queue.push_back(root);
    };

    push_root();
    while (builder.numRefs() < params_.refBudget) {
        if (queue.empty())
            push_root();
        std::uint64_t u = queue.front();
        queue.pop_front();

        builder.load(arrays.offsets + u * 8, 2);
        builder.load(arrays.propA + u * 8, 1); // dist[u]
        std::uint32_t deg = graph.degree(u);
        std::uint64_t off = graph.offset(u);
        for (std::uint32_t i = 0; i < deg; ++i) {
            builder.load(arrays.adjacency + (off + i) * 8, 1);
            std::uint64_t w = graph.neighbor(u, i);
            builder.loadDependent(arrays.propA + w * 8, 2); // dist[w]
            bool improves = (rng.next() & 1) != 0;
            if (improves) {
                builder.store(arrays.propA + w * 8, 1);
                if (settled[w] < 3) {
                    ++settled[w]; // Bound revisits per vertex.
                    queue.push_back(w);
                }
            }
            if (builder.numRefs() >= params_.refBudget)
                return;
        }
    }
}

void
GapbsWorkload::traceBc(TraceBuilder &builder, const SyntheticGraph &graph,
                       const Arrays &arrays) const
{
    // Betweenness centrality: a forward BFS accumulating path counts
    // (sigma), then a reverse-order dependency pass (delta).
    const std::uint64_t v = graph.numVertices();
    std::vector<bool> visited(v, false);
    std::vector<std::uint64_t> order;
    std::deque<std::uint64_t> queue;
    Rng rng(params_.seed ^ 0xbc);

    std::uint64_t forward_budget = params_.refBudget * 6 / 10;

    std::uint64_t root = rng.nextBounded(v);
    visited[root] = true;
    queue.push_back(root);
    while (builder.numRefs() < forward_budget && !queue.empty()) {
        std::uint64_t u = queue.front();
        queue.pop_front();
        order.push_back(u);

        builder.load(arrays.offsets + u * 8, 2);
        std::uint32_t deg = graph.degree(u);
        std::uint64_t off = graph.offset(u);
        for (std::uint32_t i = 0; i < deg; ++i) {
            builder.load(arrays.adjacency + (off + i) * 8, 1);
            std::uint64_t w = graph.neighbor(u, i);
            builder.loadDependent(arrays.propA + w * 8, 1); // sigma[w]
            if (!visited[w]) {
                visited[w] = true;
                queue.push_back(w);
                builder.store(arrays.propA + w * 8, 1);
            }
            if (builder.numRefs() >= forward_budget)
                break;
        }
    }

    // Dependency accumulation in reverse BFS order.
    for (auto it = order.rbegin(); it != order.rend(); ++it) {
        std::uint64_t u = *it;
        builder.load(arrays.offsets + u * 8, 2);
        std::uint32_t deg = graph.degree(u);
        std::uint64_t off = graph.offset(u);
        std::uint32_t take = std::min<std::uint32_t>(deg, 8);
        for (std::uint32_t i = 0; i < take; ++i) {
            builder.load(arrays.adjacency + (off + i) * 8, 1);
            std::uint64_t w = graph.neighbor(u, i);
            builder.loadDependent(arrays.propA + w * 8, 1); // sigma[w]
            builder.load(arrays.propB + w * 8, 1);          // delta[w]
        }
        builder.store(arrays.propB + u * 8, 3); // delta[u]
        if (builder.numRefs() >= params_.refBudget)
            return;
    }
}

trace::MemoryTrace
GapbsWorkload::generateTrace() const
{
    SyntheticGraph graph(params_.graph);
    // Size the pool from this graph, so baselineAllocConfig() does not
    // build a second one.
    heapPoolSize_.get([&graph] { return heapPoolBytes(graph); });
    TraceBuilder builder(baselineAllocConfig(), params_.refBudget + 64);
    Arrays arrays = allocateArrays(builder, graph);

    switch (params_.kernel) {
      case GapbsKernel::Pr:
        tracePr(builder, graph, arrays);
        break;
      case GapbsKernel::Bfs:
        traceBfs(builder, graph, arrays);
        break;
      case GapbsKernel::Sssp:
        traceSssp(builder, graph, arrays);
        break;
      case GapbsKernel::Bc:
        traceBc(builder, graph, arrays);
        break;
    }
    return builder.take();
}

GapbsParams
gapbsBcTwitter()
{
    GapbsParams params;
    params.kernel = GapbsKernel::Bc;
    params.graph = twitterGraph();
    params.graphName = "twitter";
    params.seed = 0xbc0001;
    return params;
}

GapbsParams
gapbsPrTwitter()
{
    GapbsParams params;
    params.kernel = GapbsKernel::Pr;
    params.graph = twitterGraph();
    params.graphName = "twitter";
    params.seed = 0x550001;
    return params;
}

GapbsParams
gapbsBfsTwitter()
{
    GapbsParams params;
    params.kernel = GapbsKernel::Bfs;
    params.graph = twitterGraph();
    params.graphName = "twitter";
    params.seed = 0xbf0001;
    return params;
}

GapbsParams
gapbsBfsRoad()
{
    GapbsParams params;
    params.kernel = GapbsKernel::Bfs;
    params.graph = roadGraph();
    params.graphName = "road";
    params.seed = 0xbf0002;
    return params;
}

GapbsParams
gapbsSsspTwitter()
{
    GapbsParams params;
    params.kernel = GapbsKernel::Sssp;
    params.graph = twitterGraph();
    params.graphName = "twitter";
    params.seed = 0x530001;
    return params;
}

GapbsParams
gapbsSsspWeb()
{
    GapbsParams params;
    params.kernel = GapbsKernel::Sssp;
    params.graph = webGraph();
    params.graphName = "web";
    params.seed = 0x530002;
    return params;
}

} // namespace mosaic::workloads
