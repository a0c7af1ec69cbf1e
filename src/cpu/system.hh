/**
 * @file
 * System assembly: platform + allocator mosaic -> one simulated run.
 *
 * A System owns the per-run state (physical memory, page table, cache
 * hierarchy, MMU, core) built from a PlatformSpec and a Mosalloc
 * instance whose pools define the page mosaic. Running a trace through
 * it produces the PMU readout (R, H, M, C, cache-load breakdown) the
 * runtime models consume.
 */

#ifndef MOSAIC_CPU_SYSTEM_HH
#define MOSAIC_CPU_SYSTEM_HH

#include <memory>
#include <span>
#include <vector>

#include "cpu/core.hh"
#include "support/error.hh"
#include "cpu/platform.hh"
#include "memhier/hierarchy.hh"
#include "mosalloc/mosalloc.hh"
#include "support/sim_context.hh"
#include "trace/trace.hh"
#include "vm/frame_pool.hh"
#include "vm/mmu.hh"
#include "vm/page_table.hh"

namespace mosaic::cpu
{

/**
 * One fully assembled simulated machine.
 *
 * A System owns all of its mutable state (physical memory, page table,
 * caches, TLBs, walkers); the trace it replays is read-only. Distinct
 * System instances may therefore replay the same shared MemoryTrace
 * from different threads concurrently — the campaign scheduler relies
 * on this. Observability goes through the SimContext the System was
 * built with (per-worker shard or, by default, the global registry).
 */
class System
{
  public:
    /**
     * Build the machine: allocates physical frames for every page of
     * every pool of @p allocator and constructs the page table.
     * Metrics publish into @p context's sink.
     */
    System(const PlatformSpec &platform, const alloc::Mosalloc &allocator,
           const SimContext &context = globalSimContext());

    /**
     * As above with OS-level memory management: unbounded @p os
     * behaves identically to the two-argument form; a bounded one
     * builds a private FramePool and defers every frame to demand
     * faults (no page is resident at start).
     */
    System(const PlatformSpec &platform, const alloc::Mosalloc &allocator,
           const vm::OsConfig &os,
           const SimContext &context = globalSimContext());

    /**
     * Multi-tenant form: the machine pages on demand as one tenant of
     * the *shared* bounded @p pool, which must outlive the System.
     */
    System(const PlatformSpec &platform, const alloc::Mosalloc &allocator,
           vm::FramePool &pool,
           const SimContext &context = globalSimContext());

    /** Replay @p trace from a cold start and return the PMU readout. */
    RunResult run(const trace::MemoryTrace &trace);

    /**
     * Sampled partial replay from a cold start: replay only
     * @p segments of @p trace (CoreModel::runSampled) and return one
     * delta readout per segment. The sampling subsystem extrapolates
     * full-run counters from these deltas; callers wanting the
     * full-run estimate should use sampling::simulateSampled instead
     * of calling this directly.
     */
    std::vector<RunResult> runSampled(
        const trace::MemoryTrace &trace,
        std::span<const SampledSegment> segments);

    const PlatformSpec &platform() const { return platform_; }
    const vm::PageTable &pageTable() const { return *pageTable_; }
    const vm::Mmu &mmu() const { return *mmu_; }
    const mem::MemoryHierarchy &hierarchy() const { return *hierarchy_; }
    const SimContext &context() const { return context_; }

  private:
    /** The multi-tenant interference engine drives this System's
     *  machine state directly. */
    friend std::vector<RunResult> simulateRunTenants(
        const PlatformSpec &platform,
        std::span<const alloc::MosallocConfig> alloc_configs,
        std::span<const trace::MemoryTrace *const> traces,
        const vm::OsConfig &os, const SimContext &context);

    /** Shared tail of every constructor: hierarchy + MMU assembly
     *  over the already-built page table, wiring the pager when
     *  @p pool is bounded. */
    void finishMachine(const alloc::Mosalloc &allocator,
                       vm::FramePool &pool);

    PlatformSpec platform_;
    SimContext context_;
    std::unique_ptr<vm::FramePool> framePool_;
    std::unique_ptr<vm::PageTable> pageTable_;
    std::unique_ptr<mem::MemoryHierarchy> hierarchy_;
    std::unique_ptr<vm::Mmu> mmu_;
    CoreModel core_;
};

/**
 * Convenience wrapper: build a System for (platform, layout) and run.
 *
 * @param platform machine description
 * @param alloc_config pool sizes + mosaics (the Mosalloc inputs)
 * @param trace recorded workload execution
 */
RunResult simulateRun(const PlatformSpec &platform,
                      const alloc::MosallocConfig &alloc_config,
                      const trace::MemoryTrace &trace);

/** As above, publishing observability through @p context. */
RunResult simulateRun(const PlatformSpec &platform,
                      const alloc::MosallocConfig &alloc_config,
                      const trace::MemoryTrace &trace,
                      const SimContext &context);

/** As above with OS-level memory management (@p os); an unbounded
 *  config reproduces the plain run bit for bit. */
RunResult simulateRun(const PlatformSpec &platform,
                      const alloc::MosallocConfig &alloc_config,
                      const trace::MemoryTrace &trace,
                      const vm::OsConfig &os,
                      const SimContext &context = globalSimContext());

/**
 * Multi-tenant interference run: build one machine per tenant, all
 * registered on one shared bounded frame pool, and replay the
 * tenants' traces round-robin interleaved at chunk granularity
 * (CoreModel::runInterleaved). @p alloc_configs and @p traces are
 * parallel; @p os must be bounded. Returns one RunResult per tenant
 * in tenant order; throws (ResourceError and friends) if the shared
 * pool cannot hold the tenants' largest page — multi-tenant cells
 * fail as a unit, since tenant results are coupled through the pool.
 */
std::vector<RunResult>
simulateRunTenants(const PlatformSpec &platform,
                   std::span<const alloc::MosallocConfig> alloc_configs,
                   std::span<const trace::MemoryTrace *const> traces,
                   const vm::OsConfig &os,
                   const SimContext &context = globalSimContext());

} // namespace mosaic::cpu

#endif // MOSAIC_CPU_SYSTEM_HH
