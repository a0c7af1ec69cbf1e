#include "vm/walker.hh"

#include <algorithm>

#include "support/logging.hh"

namespace mosaic::vm
{

PageWalker::PageWalker(const PageTable &page_table,
                       mem::MemoryHierarchy &hierarchy,
                       const PwcConfig &pwc, unsigned num_walkers)
    : pageTable_(page_table),
      hierarchy_(hierarchy),
      numWalkers_(num_walkers),
      pwcPml4e_(pwc.pml4eEntries, pwc.pml4eEntries),
      pwcPdpte_(pwc.pdpteEntries, pwc.pdpteEntries),
      pwcPde_(pwc.pdeEntries, pwc.pdeEntries),
      walkerFreeAt_(num_walkers, 0)
{
    mosaic_assert(num_walkers >= 1, "need at least one walker");
}

WalkResult
PageWalker::walk(VirtAddr vaddr, Cycles now)
{
    return walk(pageTable_.translate(vaddr), vaddr, now);
}

WalkResult
PageWalker::walk(const Translation &xlate, VirtAddr vaddr, Cycles now)
{
    mosaic_assert(xlate.valid, "walk of unmapped address ", vaddr);
    // Entry chain indices: 0 = PML4E, 1 = PDPTE, 2 = PDE, 3 = PTE.
    // The leaf is at depth-1; upper levels may be skipped via the PWCs.
    const unsigned leaf = xlate.depth - 1;
    WalkResult result =
        finish(xlate.entryAddrs, probe(vaddr, leaf), leaf, vaddr, now);
    result.physAddr = xlate.physAddr;
    result.pageSize = xlate.pageSize;
    return result;
}

unsigned
PageWalker::probe(VirtAddr vaddr, unsigned leaf)
{
    // Paging-structure caches hold non-leaf entries only.
    if (leaf >= 3 && pwcPde_.lookup(vaddr >> 21)) {
        ++stats_.pwcHits[2];
        return 3;
    }
    if (leaf >= 2 && pwcPdpte_.lookup(vaddr >> 30)) {
        ++stats_.pwcHits[1];
        return 2;
    }
    if (leaf >= 1 && pwcPml4e_.lookup(vaddr >> 39)) {
        ++stats_.pwcHits[0];
        return 1;
    }
    return 0;
}

WalkResult
PageWalker::finish(const std::array<PhysAddr, numPtLevels> &chain,
                   unsigned start, unsigned leaf, VirtAddr vaddr,
                   Cycles now)
{
    // The remaining reads are serialized: each entry names the next
    // table, so latencies sum (Section II-B of the paper).
    Cycles walk_cycles = 0;
    for (unsigned level = start; level <= leaf; ++level) {
        auto access =
            hierarchy_.access(chain[level], mem::Requester::Walker);
        walk_cycles += access.latency;
        ++stats_.levelReads;
    }

    // Install the traversed non-leaf entries into the PWCs.
    for (unsigned level = start; level < leaf; ++level) {
        switch (level) {
          case 0:
            pwcPml4e_.insert(vaddr >> 39);
            break;
          case 1:
            pwcPdpte_.insert(vaddr >> 30);
            break;
          case 2:
            pwcPde_.insert(vaddr >> 21);
            break;
          default:
            mosaic_panic("non-leaf level out of range");
        }
    }

    // Dispatch to the earliest-free hardware walker.
    auto it = std::min_element(walkerFreeAt_.begin(), walkerFreeAt_.end());
    Cycles start_time = std::max(now, *it);
    *it = start_time + walk_cycles;

    WalkResult result;
    result.walkCycles = walk_cycles;
    result.queueCycles = start_time - now;
    result.completesAt = start_time + walk_cycles;
    result.levelsRead = leaf - start + 1;

    ++stats_.walks;
    stats_.walkCycles += walk_cycles;
    stats_.queueCycles += result.queueCycles;
    return result;
}

void
PageWalker::flushPwcs()
{
    pwcPml4e_.flush();
    pwcPdpte_.flush();
    pwcPde_.flush();
}

} // namespace mosaic::vm
