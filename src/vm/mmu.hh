/**
 * @file
 * The MMU facade: TLB system + page-walk caches + hardware walkers.
 *
 * This is the "partial simulator of the virtual memory subsystem" of
 * Figure 1 in the paper, plus the PMU counters that a real machine
 * would expose: H (L1-TLB misses that hit the L2 TLB), M (misses in
 * both TLB levels), and C (aggregate page-walk cycles).
 *
 * Software translation is a pure function of the (immutable once
 * populated) page table, so the MMU memoizes it in a direct-mapped
 * per-4KB-granule cache. This is a *simulator* optimization, not a
 * modelled structure: it skips the host-side radix descent, never the
 * simulated TLB/PWC/walker accounting, so every counter stays
 * bit-identical to the unmemoized path (the golden-counter suite
 * enforces this).
 */

#ifndef MOSAIC_VM_MMU_HH
#define MOSAIC_VM_MMU_HH

#include "memhier/hierarchy.hh"
#include "support/logging.hh"
#include "support/types.hh"
#include "vm/frame_pool.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "vm/walker.hh"

namespace mosaic::vm
{

/** Full MMU configuration (one per platform generation, Table 4). */
struct MmuConfig
{
    L1TlbConfig l1Tlb;
    L2TlbConfig l2Tlb;
    PwcConfig pwc;
    unsigned numWalkers = 1;

    /** L2-TLB access latency: 7 cycles per Intel's manuals (the
     *  constant the Pham model multiplies H by). */
    Cycles l2TlbHitLatency = 7;
};

/** What one address translation cost. */
struct TranslationEvent
{
    PhysAddr physAddr = 0;
    alloc::PageSize pageSize = alloc::PageSize::Page4K;
    TlbOutcome outcome = TlbOutcome::L1Hit;

    /** Translation latency excluding walker queueing (0 on L1 hit, 7
     *  on L2 hit, walk cycles on a miss). */
    Cycles latency = 0;

    /** Extra delay spent waiting for a free hardware walker. */
    Cycles queueCycles = 0;

    /** Swap cycles of a demand fault on this access (paged mode
     *  only). Also included in `latency`; reported separately so the
     *  core can serialize the stall — a major fault traps to the OS
     *  and blocks the thread, it is never overlapped like a cache
     *  miss. */
    Cycles swapStall = 0;
};

/** The paper's PMU counter triple (plus walk count), extended with
 *  the OS layer's swap accounting (all zero in unbounded mode). */
struct MmuCounters
{
    std::uint64_t h = 0; ///< L2-TLB hits
    std::uint64_t m = 0; ///< misses in both TLB levels
    Cycles c = 0;        ///< aggregate walk cycles
    Cycles s = 0;        ///< aggregate swap cycles (faults + writebacks)

    std::uint64_t l1Hits = 0;
    Cycles queueCycles = 0;

    std::uint64_t majorFaults = 0;
    std::uint64_t evictions = 0;
    std::uint64_t writebacks = 0;
};

/**
 * Per-access translation engine with PMU-style accounting.
 *
 * In unbounded mode the page table must be fully populated before the
 * first translate() call; later map() calls would not be visible
 * through the translation memo. In paged mode (attachPager()) the
 * table is mutable and every access goes through translatePaged(),
 * which bypasses the memo and the staged fast path entirely — the
 * unbounded hot loop is untouched.
 */
class Mmu : public ShootdownSink
{
  public:
    Mmu(const PageTable &page_table, mem::MemoryHierarchy &hierarchy,
        const MmuConfig &config);

    /**
     * Translate @p vaddr at time @p now, simulating TLB lookups and,
     * on a full miss, a hardware page walk.
     */
    inline TranslationEvent translate(VirtAddr vaddr, Cycles now);

    /**
     * translate() for a record whose software translation was already
     * staged: @p staged_phys, @p staged_leaf and @p size must be the
     * physAddr (page-offset included), leaf-entry address and page
     * size that peekTranslate(@p vaddr) produced. Skips the duplicate
     * memo lookup on the TLB-hit paths, and the radix descent on
     * walks that read only the leaf entry; every simulated action and
     * counter is identical to translate(vaddr, now). The replay
     * kernel stages a chunk and then retires it through this entry.
     */
    inline TranslationEvent translateStaged(VirtAddr vaddr,
                                            PhysAddr staged_phys,
                                            PhysAddr staged_leaf,
                                            alloc::PageSize size,
                                            Cycles now);

    /**
     * What the replay loop stages per record: everything the timing
     * pass needs that is derivable from the pure software translation.
     */
    struct StagedXlate
    {
        PhysAddr physAddr;        ///< vaddr's translation (offset included)
        PhysAddr leafEntry;       ///< leaf page-table entry's address
        alloc::PageSize pageSize;
    };

    /**
     * Software-translate @p vaddr without touching any simulated
     * state: no TLB lookup, no counters, no walker. Warms the
     * translation memo as a side effect (pure, so harmless). Used by
     * the replay loop to stage a chunk of translations up front.
     */
    StagedXlate
    peekTranslate(VirtAddr vaddr)
    {
        std::uint64_t granule = vaddr >> 12;
        XlateEntry &slot =
            xlateCache_[granule & (kXlateCacheSize - 1)];
        if ((slot.tag >> 2) != granule) [[unlikely]]
            refillXlate(granule, slot);
        return {slot.physBase + (vaddr & 0xfff), slot.leafEntry,
                static_cast<alloc::PageSize>(slot.tag & 0x3)};
    }

    /** Host-side prefetch of @p vaddr's translation-memo slot. */
    void
    prefetchXlate(VirtAddr vaddr) const
    {
        std::uint64_t granule = vaddr >> 12;
        __builtin_prefetch(
            &xlateCache_[granule & (kXlateCacheSize - 1)], 0, 3);
    }

    /**
     * Enter paged mode: route every access through @p pool's
     * demand-fault machinery as @p tenant. The pool evicts through
     * this MMU's ShootdownSink hook.
     */
    void
    attachPager(FramePool &pool, FramePool::TenantId tenant)
    {
        pager_ = &pool;
        pagerTenant_ = tenant;
    }

    bool paged() const { return pager_ != nullptr; }

    /**
     * Paged-mode translation: ensure the page is resident first
     * (possibly faulting, evicting, and charging swap cycles into S),
     * then run the usual TLB/walker accounting against the live page
     * table. A faulting access always misses the TLB afterwards — its
     * translation was shot down when the page was last evicted — so
     * every major fault also counts in M and walks, like the retried
     * instruction on a real machine.
     */
    TranslationEvent translatePaged(VirtAddr vaddr, bool is_write,
                                    Cycles now);

    /** ShootdownSink: the frame pool evicted one of this address
     *  space's pages. */
    void
    shootdown(VirtAddr vbase, alloc::PageSize size) override
    {
        tlb_.invalidate(vbase, size);
    }

    /** Reset TLBs and PWCs (e.g., between benchmark repetitions). */
    void flush();

    /**
     * Cold continuation of translateStaged() after an L1-TLB miss: the
     * L2 lookup, and the walk on a miss. Out-of-line (and kept out of
     * the inliner's reach) so the replay loop's hot path carries only
     * the L1-hit code; see the "Replay kernel" section of DESIGN.md.
     */
    [[gnu::noinline]] TranslationEvent
    translateCold(VirtAddr vaddr, PhysAddr staged_phys,
                  PhysAddr staged_leaf, alloc::PageSize size, Cycles now);

    const MmuCounters &counters() const { return counters_; }
    const TlbSystem &tlb() const { return tlb_; }
    const PageWalker &walker() const { return walker_; }
    const MmuConfig &config() const { return config_; }

  private:
    /** Translation-memo geometry: direct-mapped, 4KB granules. 16K
     *  slots (384 KiB of host memory) cover a 64 MiB footprint with
     *  no conflict misses. */
    static constexpr std::size_t kXlateCacheSize = 16384;

    /**
     * Memoized software translation of one 4KB granule's base, packed
     * to 24 bytes so the staging pass's random slot reads stay inside
     * the host L2 (a full Translation-per-slot memo is 3x larger and
     * streams the entry chain the hot path never reads; a walk that
     * reads more than the leaf entry re-derives the chain from the
     * page table).
     */
    struct XlateEntry
    {
        /** (granule << 2) | pageSize; ~0 = empty. Granules come from
         *  48-bit virtual addresses, so the tag cannot reach ~0. */
        std::uint64_t tag = ~0ULL;
        PhysAddr physBase = 0;  ///< translation of the granule base
        PhysAddr leafEntry = 0; ///< entryAddrs[depth - 1]
    };

    /** Memo-miss refill: the full (pure) software radix descent. */
    [[gnu::noinline]] void
    refillXlate(std::uint64_t granule, XlateEntry &slot);

    const PageTable &pageTable_;
    MmuConfig config_;
    TlbSystem tlb_;
    PageWalker walker_;
    MmuCounters counters_;
    std::vector<XlateEntry> xlateCache_;

    /** Batched-descent cursor for memo refills and cold walks: runs
     *  of nearby addresses skip the radix levels they share. Host
     *  state only; never affects what a translation returns. */
    PageTable::DescentCursor descentCursor_;

    /** Paged mode only: the shared frame pool and this address
     *  space's tenant id within it. */
    FramePool *pager_ = nullptr;
    FramePool::TenantId pagerTenant_ = 0;
};

TranslationEvent
Mmu::translate(VirtAddr vaddr, Cycles now)
{
    // One implementation for both entries: translate() is
    // translateStaged() fed straight from the memo, a pure function
    // of the page table, so routing through the staged form changes
    // no simulated action.
    StagedXlate staged = peekTranslate(vaddr);
    return translateStaged(vaddr, staged.physAddr, staged.leafEntry,
                           staged.pageSize, now);
}

TranslationEvent
Mmu::translateStaged(VirtAddr vaddr, PhysAddr staged_phys,
                     PhysAddr staged_leaf, alloc::PageSize size,
                     Cycles now)
{
    // Fast path: the replay loop's common case is an L1-TLB hit, and
    // it needs nothing beyond the staged translation and a counter
    // bump. Everything else (L2 latency, walks, fills) lives in the
    // out-of-line cold continuation so this inlines small and hot.
    if (tlb_.lookupL1(vaddr, size)) [[likely]] {
        ++counters_.l1Hits;
        TranslationEvent event;
        event.physAddr = staged_phys;
        event.pageSize = size;
        return event;
    }
    return translateCold(vaddr, staged_phys, staged_leaf, size, now);
}

} // namespace mosaic::vm

#endif // MOSAIC_VM_MMU_HH
