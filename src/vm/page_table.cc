#include "vm/page_table.hh"

#include "support/logging.hh"

namespace mosaic::vm
{

PageTable::PageTable(FramePool &frame_pool)
    : framePool_(frame_pool)
{
    newNode(); // Node 0: the PML4 root.
}

std::uint32_t
PageTable::newNode()
{
    Node node;
    node.frame = framePool_.allocPageTableNode();
    nodes_.push_back(node);
    return static_cast<std::uint32_t>(nodes_.size() - 1);
}

void
PageTable::map(VirtAddr vbase, alloc::PageSize size, PhysAddr pbase)
{
    Bytes page = alloc::pageBytes(size);
    mosaic_assert(vbase % page == 0, "vbase ", vbase, " misaligned for ",
                  alloc::pageSizeName(size));
    mosaic_assert(pbase % page == 0, "pbase ", pbase, " misaligned for ",
                  alloc::pageSizeName(size));

    PtLevel leaf = leafLevel(size);
    std::uint32_t node_id = 0;
    for (unsigned l = 0; l < numPtLevels; ++l) {
        auto level = static_cast<PtLevel>(l);
        std::uint64_t index = levelIndex(vbase, level);
        Entry &entry = nodes_[node_id].entries[index];
        if (level == leaf) {
            mosaic_assert(!entry.present, "double mapping of ", vbase);
            entry.present = true;
            entry.leaf = true;
            entry.phys = pbase;
            ++mappedPages_[static_cast<std::size_t>(size)];
            return;
        }
        if (!entry.present) {
            std::uint32_t child = newNode();
            // newNode() may reallocate nodes_; re-take the reference.
            Entry &fresh = nodes_[node_id].entries[index];
            fresh.present = true;
            fresh.leaf = false;
            fresh.next = child;
            node_id = child;
        } else {
            mosaic_assert(!entry.leaf,
                          "hugepage already mapped over ", vbase);
            node_id = entry.next;
        }
    }
    mosaic_panic("unreachable: walk ran past the PT level");
}

void
PageTable::unmap(VirtAddr vbase, alloc::PageSize size)
{
    PtLevel leaf = leafLevel(size);
    std::uint32_t node_id = 0;
    for (unsigned l = 0; l < numPtLevels; ++l) {
        auto level = static_cast<PtLevel>(l);
        std::uint64_t index = levelIndex(vbase, level);
        Entry &entry = nodes_[node_id].entries[index];
        mosaic_assert(entry.present, "unmap of unmapped address ",
                      vbase);
        if (level == leaf) {
            mosaic_assert(entry.leaf, "unmap size mismatch at ", vbase);
            entry.present = false;
            entry.leaf = false;
            entry.phys = 0;
            --mappedPages_[static_cast<std::size_t>(size)];
            return;
        }
        mosaic_assert(!entry.leaf, "unmap under a hugepage at ", vbase);
        node_id = entry.next;
    }
    mosaic_panic("unreachable: unmap ran past the PT level");
}

void
PageTable::populate(const alloc::Mosalloc &allocator)
{
    // Counting pass: a page needs a node at every level down to its
    // leaf's, and the node at level l is selected by the address bits
    // above levelShift(l - 1). The walk ascends, so each change of
    // such a prefix is one node map() will create (for any order, and
    // over a table that already has nodes, an upper bound).
    std::array<VirtAddr, numPtLevels> prefix;
    prefix.fill(~VirtAddr(0));
    std::size_t fresh = 0;
    allocator.forEachPageMapping([&](const alloc::PageMapping &mapping) {
        const auto leaf = static_cast<unsigned>(leafLevel(mapping.pageSize));
        for (unsigned l = 1; l <= leaf; ++l) {
            const VirtAddr above =
                mapping.virtBase >> levelShift(static_cast<PtLevel>(l - 1));
            if (above != prefix[l]) {
                prefix[l] = above;
                ++fresh;
            }
        }
    });
    nodes_.reserve(nodes_.size() + fresh);
    const std::size_t reserved = nodes_.capacity();

    allocator.forEachPageMapping([&](const alloc::PageMapping &mapping) {
        PhysAddr frame = framePool_.allocDataFrame(mapping.pageSize);
        map(mapping.virtBase, mapping.pageSize, frame);
    });
    mosaic_assert(nodes_.capacity() == reserved,
                  "populate outgrew its reservation of ", reserved,
                  " nodes");
}

Translation
PageTable::translate(VirtAddr vaddr) const
{
    Translation result;
    std::uint32_t node_id = 0;
    for (unsigned l = 0; l < numPtLevels; ++l) {
        auto level = static_cast<PtLevel>(l);
        std::uint64_t index = levelIndex(vaddr, level);
        const Entry &entry = nodes_[node_id].entries[index];
        result.entryAddrs[result.depth++] = entryPhysAddr(node_id, index);
        if (!entry.present)
            return result; // valid stays false
        if (entry.leaf) {
            alloc::PageSize size =
                level == PtLevel::Pdpt ? alloc::PageSize::Page1G
                : level == PtLevel::Pd ? alloc::PageSize::Page2M
                                       : alloc::PageSize::Page4K;
            mosaic_assert(level != PtLevel::Pml4, "leaf PML4E impossible");
            Bytes page = alloc::pageBytes(size);
            result.valid = true;
            result.pageSize = size;
            result.physAddr = entry.phys + (vaddr & (page - 1));
            return result;
        }
        node_id = entry.next;
    }
    return result;
}

Translation
PageTable::translateWith(DescentCursor &cursor, VirtAddr vaddr) const
{
    // Deepest restartable level: the node entered at level l is
    // selected by vaddr bits 47:levelShift(l-1), so it is shared iff
    // those bits match the cursor's address. The tests are nested
    // (diff >> 21 == 0 implies diff >> 30 == 0), so the sum counts
    // the matching prefix — no branches on the address bits.
    std::uint64_t diff = vaddr ^ cursor.lastVaddr;
    unsigned start = 0;
    if (cursor.warm) {
        start = static_cast<unsigned>((diff >> 39) == 0) +
                static_cast<unsigned>((diff >> 30) == 0) +
                static_cast<unsigned>((diff >> 21) == 0);
        start = std::min(start, cursor.maxStart);
    }

    Translation result;
    // Re-emit the skipped prefix's entry addresses from the cached
    // node ids — the same nodes a full descent would visit.
    for (unsigned l = 0; l < start; ++l) {
        result.entryAddrs[result.depth++] = entryPhysAddr(
            cursor.nodeId[l], levelIndex(vaddr, static_cast<PtLevel>(l)));
    }

    std::uint32_t node_id = cursor.nodeId[start];
    for (unsigned l = start; l < numPtLevels; ++l) {
        auto level = static_cast<PtLevel>(l);
        cursor.nodeId[l] = node_id;
        std::uint64_t index = levelIndex(vaddr, level);
        const Entry &entry = nodes_[node_id].entries[index];
        result.entryAddrs[result.depth++] = entryPhysAddr(node_id, index);
        if (!entry.present) {
            // valid stays false. The loop above already rewrote
            // nodeId slots for this vaddr's path while lastVaddr
            // still names the previous one; go cold rather than let
            // a later prefix match reuse the mixed state.
            cursor.warm = false;
            return result;
        }
        if (entry.leaf) {
            alloc::PageSize size =
                level == PtLevel::Pdpt ? alloc::PageSize::Page1G
                : level == PtLevel::Pd ? alloc::PageSize::Page2M
                                       : alloc::PageSize::Page4K;
            mosaic_assert(level != PtLevel::Pml4, "leaf PML4E impossible");
            Bytes page = alloc::pageBytes(size);
            result.valid = true;
            result.pageSize = size;
            result.physAddr = entry.phys + (vaddr & (page - 1));
            cursor.lastVaddr = vaddr;
            cursor.maxStart = result.depth - 1;
            cursor.warm = true;
            return result;
        }
        node_id = entry.next;
    }
    return result;
}

} // namespace mosaic::vm
