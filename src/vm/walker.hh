/**
 * @file
 * Page-walk caches and the hardware page-table walker.
 *
 * A TLB miss triggers up to four dependent reads of page-table entries
 * (non-overlapping: each entry points to the next table). Page-walk
 * caches (PWCs) hold upper-level entries — PML4E (512GB reach), PDPTE
 * (1GB), PDE (2MB) — letting the walker skip the cached prefix and
 * start deeper, as on real Intel parts. Walk reads go through the
 * shared cache hierarchy with Requester::Walker, producing the cache
 * pollution visible in the paper's Table 7.
 *
 * Broadwell and later have *two* walkers operating concurrently; the
 * walk-cycle counter C sums busy cycles across walkers, which is why C
 * can exceed the total execution cycles R on gups (Section VI-D) and
 * drive the Basu model's ideal-runtime estimate negative.
 */

#ifndef MOSAIC_VM_WALKER_HH
#define MOSAIC_VM_WALKER_HH

#include <array>
#include <cstdint>
#include <vector>

#include "memhier/hierarchy.hh"
#include "support/types.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"

namespace mosaic::vm
{

/** Geometry of the three page-walk caches. */
struct PwcConfig
{
    std::uint32_t pml4eEntries = 2;
    std::uint32_t pdpteEntries = 4;
    std::uint32_t pdeEntries = 32; ///< per Intel's "PDE cache" sizing
};

/** Outcome of one hardware page walk. */
struct WalkResult
{
    /** Cycles the walk itself took (PT-entry reads, serialized). */
    Cycles walkCycles = 0;

    /** Cycles the request waited for a free walker before starting. */
    Cycles queueCycles = 0;

    /** Absolute completion time (start-of-walk + walkCycles). */
    Cycles completesAt = 0;

    /** Number of page-table levels actually read (1..4). */
    unsigned levelsRead = 0;

    /** Physical address of the translated access. */
    PhysAddr physAddr = 0;

    alloc::PageSize pageSize = alloc::PageSize::Page4K;
};

/** Counters the walker exports (the paper's C lives here). */
struct WalkerStats
{
    std::uint64_t walks = 0;
    Cycles walkCycles = 0;  ///< the paper's C: sum across walkers
    Cycles queueCycles = 0; ///< waiting for a free walker (not in C)
    std::uint64_t levelReads = 0;
    std::uint64_t pwcHits[3] = {0, 0, 0}; ///< PML4E, PDPTE, PDE
};

/**
 * The hardware page-table walker pool with page-walk caches.
 */
class PageWalker
{
  public:
    /**
     * @param page_table the radix table to walk
     * @param hierarchy shared cache hierarchy (pollution happens here)
     * @param num_walkers concurrent hardware walkers (1 or 2 on the
     *        modelled parts)
     */
    PageWalker(const PageTable &page_table, mem::MemoryHierarchy &hierarchy,
               const PwcConfig &pwc, unsigned num_walkers);

    /**
     * Perform the walk for @p vaddr issued at time @p now.
     *
     * The walk is assigned to the earliest-free walker; its busy time
     * is charged to C, and queueing (if all walkers are busy) delays
     * completion without entering C.
     */
    WalkResult walk(VirtAddr vaddr, Cycles now);

    /**
     * Same, with the software translation already in hand (the MMU
     * translates once per access and shares the result): probe(),
     * then finish() over @p xlate's entry chain.
     */
    WalkResult walk(const Translation &xlate, VirtAddr vaddr, Cycles now);

    /**
     * First half of a walk: probe the PWCs from the deepest cache
     * upward, as the hardware does, and count the hit.
     * @param leaf chain index of the leaf entry (leafLevel() of the
     *        page size: 3 for 4KB, 2 for 2MB, 1 for 1GB)
     * @return the first chain index the walk must read; == @p leaf
     *         when the PWC just above the leaf hit, so the walk reads
     *         the leaf entry alone
     */
    unsigned probe(VirtAddr vaddr, unsigned leaf);

    /**
     * Second half: read chain entries [@p start, @p leaf] through the
     * hierarchy, install the traversed non-leaf entries into the
     * PWCs and dispatch the walk to the earliest-free walker.
     * @param chain entry addresses indexed by level; only
     *        [@p start, @p leaf] are read
     * @return the walk's timing; physAddr and pageSize are left for
     *         the caller, which holds the translation
     */
    WalkResult finish(const std::array<PhysAddr, numPtLevels> &chain,
                      unsigned start, unsigned leaf, VirtAddr vaddr,
                      Cycles now);

    /** Drop PWC contents (walker availability persists). */
    void flushPwcs();

    const WalkerStats &stats() const { return stats_; }
    unsigned numWalkers() const { return numWalkers_; }

  private:
    const PageTable &pageTable_;
    mem::MemoryHierarchy &hierarchy_;
    unsigned numWalkers_;

    /** One LRU key array per cached level: PML4E, PDPTE, PDE. */
    TlbArray pwcPml4e_;
    TlbArray pwcPdpte_;
    TlbArray pwcPde_;

    /** Absolute time each hardware walker becomes free. */
    std::vector<Cycles> walkerFreeAt_;

    WalkerStats stats_;
};

} // namespace mosaic::vm

#endif // MOSAIC_VM_WALKER_HH
