/**
 * @file
 * Graph500 surrogate: graph compression (CSR build) + BFS.
 *
 * Unlike the GAPBS surrogates, graph500 allocates with mmap — the paper
 * singles it out as a workload libhugetlbfs cannot handle because it
 * does not malloc (Section V-A). The anonymous-mmap pool is therefore
 * its primary layout target. Its TLB misses concentrate in a small hot
 * segment of the CSR (the hub adjacency runs), which is what makes the
 * sliding-window heuristic effective (Section VI-B's example: 80% of
 * graph500/2GB misses come from a small fraction of its space).
 */

#ifndef MOSAIC_WORKLOADS_GRAPH500_HH
#define MOSAIC_WORKLOADS_GRAPH500_HH

#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace mosaic::workloads
{

/** Configuration of one graph500 instance. */
struct Graph500Params
{
    /** Scale-free graph vertices (paper sizes 2/4/8 GB, scaled). */
    std::uint64_t numVertices = 1u << 18;
    double avgDegree = 16.0;

    std::string sizeName = "2GB";
    std::uint64_t refBudget = 380000;
    std::uint64_t seed = 0x500500;
};

class Graph500Workload : public Workload
{
  public:
    explicit Graph500Workload(const Graph500Params &params);

    WorkloadInfo info() const override;
    PoolKind primaryPool() const override { return PoolKind::Anon; }
    Bytes heapPoolSize() const override { return 8_MiB; }
    Bytes anonPoolSize() const override;
    trace::MemoryTrace generateTrace() const override;

    const Graph500Params &params() const { return params_; }

    /** The graph this instance traverses. */
    GraphParams graphParams() const;

  private:
    Graph500Params params_;
    PoolSizeMemo anonPoolSize_;
};

Graph500Params graph500Small();  ///< "2GB"
Graph500Params graph500Medium(); ///< "4GB"
Graph500Params graph500Large();  ///< "8GB"

} // namespace mosaic::workloads

#endif // MOSAIC_WORKLOADS_GRAPH500_HH
