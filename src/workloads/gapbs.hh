/**
 * @file
 * GAP Benchmark Suite surrogates: BC, PR, BFS, SSSP kernels over the
 * synthetic twitter/web/road graphs (Table 5 of the paper).
 *
 * Kernels run their genuine traversal logic (host-side frontier queues
 * and visited sets) over CSR structures laid out in Mosalloc-allocated
 * memory, emitting the address trace. Reference budgets cap the trace
 * length; vertex/neighbour sampling keeps the touched address range
 * representative of the full working set (see DESIGN.md).
 */

#ifndef MOSAIC_WORKLOADS_GAPBS_HH
#define MOSAIC_WORKLOADS_GAPBS_HH

#include "workloads/graph.hh"
#include "workloads/workload.hh"

namespace mosaic::workloads
{

/** The four TLB-sensitive GAPBS kernels the paper runs. */
enum class GapbsKernel
{
    Bc,
    Pr,
    Bfs,
    Sssp,
};

/** Kernel name as used in the paper's labels ("bc", "pr", ...). */
std::string gapbsKernelName(GapbsKernel kernel);

/** Configuration of one GAPBS instance. */
struct GapbsParams
{
    GapbsKernel kernel = GapbsKernel::Pr;
    GraphParams graph;
    std::string graphName = "twitter"; ///< label suffix

    /** Approximate number of references to record. */
    std::uint64_t refBudget = 400000;

    std::uint64_t seed = 0x9a9b50;
};

class GapbsWorkload : public Workload
{
  public:
    explicit GapbsWorkload(const GapbsParams &params);

    WorkloadInfo info() const override;
    Bytes heapPoolSize() const override;
    trace::MemoryTrace generateTrace() const override;

    const GapbsParams &params() const { return params_; }

  private:
    /** Addresses of the CSR + property arrays once allocated. */
    struct Arrays
    {
        VirtAddr offsets = 0;
        VirtAddr adjacency = 0;
        VirtAddr propA = 0; ///< rank / dist / sigma
        VirtAddr propB = 0; ///< next-rank / parent / delta
        VirtAddr visited = 0;
    };

    Arrays allocateArrays(TraceBuilder &builder,
                          const SyntheticGraph &graph) const;

    void tracePr(TraceBuilder &builder, const SyntheticGraph &graph,
                 const Arrays &arrays) const;
    void traceBfs(TraceBuilder &builder, const SyntheticGraph &graph,
                  const Arrays &arrays) const;
    void traceSssp(TraceBuilder &builder, const SyntheticGraph &graph,
                   const Arrays &arrays) const;
    void traceBc(TraceBuilder &builder, const SyntheticGraph &graph,
                 const Arrays &arrays) const;

    GapbsParams params_;
    PoolSizeMemo heapPoolSize_;
};

/** The paper's six GAPBS instances. */
GapbsParams gapbsBcTwitter();
GapbsParams gapbsPrTwitter();
GapbsParams gapbsBfsTwitter();
GapbsParams gapbsBfsRoad();
GapbsParams gapbsSsspTwitter();
GapbsParams gapbsSsspWeb();

} // namespace mosaic::workloads

#endif // MOSAIC_WORKLOADS_GAPBS_HH
