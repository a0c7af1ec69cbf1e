#include "vm/mmu.hh"

namespace mosaic::vm
{

Mmu::Mmu(const PageTable &page_table, mem::MemoryHierarchy &hierarchy,
         const MmuConfig &config)
    : pageTable_(page_table),
      config_(config),
      tlb_(config.l1Tlb, config.l2Tlb),
      walker_(page_table, hierarchy, config.pwc, config.numWalkers),
      xlateCache_(kXlateCacheSize)
{
}

TranslationEvent
Mmu::translateCold(VirtAddr vaddr, PhysAddr staged_phys,
                   PhysAddr staged_leaf, alloc::PageSize size, Cycles now)
{
    TranslationEvent event;
    event.physAddr = staged_phys;
    event.pageSize = size;
    event.outcome = tlb_.lookupL2(vaddr, size);
    if (event.outcome == TlbOutcome::L2Hit) {
        ++counters_.h;
        event.latency = config_.l2TlbHitLatency;
        return event;
    }

    // Full miss. The staging pass runs up to a whole chunk ahead of
    // retirement and may have recycled this record's memo slot since,
    // so the staged values are checked against the page table's
    // translation (pure) before the walk trusts them: the guard below
    // fires on a staged record that does not describe this vaddr.
    // All radix indices use address bits >= 12, so the granule base
    // walks the same entry chain.
    const auto leaf = static_cast<unsigned>(leafLevel(size));
    const unsigned start = walker_.probe(vaddr, leaf);
    std::array<PhysAddr, numPtLevels> chain;
    const std::uint64_t granule = vaddr >> 12;
    const XlateEntry &slot =
        xlateCache_[granule & (kXlateCacheSize - 1)];
    if (start == leaf && (slot.tag >> 2) == granule) {
        // The PWC above the leaf hit, so the walk reads the leaf entry
        // alone, and the memo slot still holds the granule's
        // translation: no descent is needed.
        mosaic_assert(slot.physBase + (vaddr & 0xfff) == staged_phys &&
                          static_cast<alloc::PageSize>(slot.tag & 0x3) ==
                              size &&
                          slot.leafEntry == staged_leaf,
                      "staged translation aliased for vaddr ", vaddr);
    } else {
        Translation xlate =
            pageTable_.translateWith(descentCursor_, granule << 12);
        mosaic_assert(xlate.valid, "access to unmapped address ", vaddr);
        mosaic_assert(xlate.physAddr + (vaddr & 0xfff) == staged_phys &&
                          xlate.pageSize == size &&
                          xlate.entryAddrs[leaf] == staged_leaf,
                      "staged translation aliased for vaddr ", vaddr);
        chain = xlate.entryAddrs;
    }
    chain[leaf] = staged_leaf;
    WalkResult walk = walker_.finish(chain, start, leaf, vaddr, now);
    tlb_.fill(vaddr, size);
    ++counters_.m;
    counters_.c += walk.walkCycles;
    counters_.queueCycles += walk.queueCycles;
    event.latency = walk.walkCycles;
    event.queueCycles = walk.queueCycles;
    return event;
}

TranslationEvent
Mmu::translatePaged(VirtAddr vaddr, bool is_write, Cycles now)
{
    mosaic_assert(pager_, "translatePaged without an attached pager");
    FramePool::FaultOutcome fault =
        pager_->touch(pagerTenant_, vaddr, is_write);
    counters_.s += fault.swapCycles;
    counters_.majorFaults += fault.majorFault ? 1 : 0;
    counters_.evictions += fault.evictions;
    counters_.writebacks += fault.writebacks;

    // The page table is mutable here, so the translation memo and the
    // staged fast path are bypassed: re-derive the translation from
    // the live table on every access. The descent cursor stays safe —
    // it caches node ids, and intermediate nodes are never freed.
    Translation xlate = pageTable_.translateWith(descentCursor_, vaddr);
    mosaic_assert(xlate.valid, "access to unmapped address ", vaddr);

    TranslationEvent event;
    event.physAddr = xlate.physAddr;
    event.pageSize = xlate.pageSize;
    // The swap stall serializes the access: TLB/walk latency accrues
    // after the fault is serviced.
    event.latency = fault.swapCycles;
    event.swapStall = fault.swapCycles;
    TlbOutcome outcome = tlb_.lookup(vaddr, xlate.pageSize);
    event.outcome = outcome;
    if (outcome == TlbOutcome::L1Hit) {
        ++counters_.l1Hits;
        return event;
    }
    if (outcome == TlbOutcome::L2Hit) {
        ++counters_.h;
        event.latency += config_.l2TlbHitLatency;
        return event;
    }
    WalkResult walk =
        walker_.walk(xlate, vaddr, now + fault.swapCycles);
    tlb_.fill(vaddr, xlate.pageSize);
    ++counters_.m;
    counters_.c += walk.walkCycles;
    counters_.queueCycles += walk.queueCycles;
    event.latency += walk.walkCycles;
    event.queueCycles = walk.queueCycles;
    return event;
}

void
Mmu::refillXlate(std::uint64_t granule, XlateEntry &slot)
{
    // All radix indices use address bits >= 12, so the granule base
    // translates through the same entry chain as any address inside
    // it; only the low 12 bits of physAddr differ.
    Translation fresh =
        pageTable_.translateWith(descentCursor_, granule << 12);
    mosaic_assert(fresh.valid, "access to unmapped granule ",
                  granule << 12);
    slot.tag = (granule << 2) |
               static_cast<std::uint64_t>(fresh.pageSize);
    slot.physBase = fresh.physAddr;
    slot.leafEntry = fresh.entryAddrs[fresh.depth - 1];
}

void
Mmu::flush()
{
    // Architectural state only: the translation memo caches a pure
    // function of the page table and survives flushes by design.
    tlb_.flush();
    walker_.flushPwcs();
}

} // namespace mosaic::vm
