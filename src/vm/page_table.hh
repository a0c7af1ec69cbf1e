/**
 * @file
 * The x86-64 four-level radix page table.
 *
 * Levels (top to bottom): PML4 (bits 47:39), PDPT (38:30), PD (29:21),
 * PT (20:12). A 1GB page terminates the walk with a leaf PDPTE, a 2MB
 * page with a leaf PDE, and a 4KB page with a PTE. Table nodes occupy
 * simulated physical frames, so every entry has a physical address the
 * walker can feed through the cache hierarchy.
 */

#ifndef MOSAIC_VM_PAGE_TABLE_HH
#define MOSAIC_VM_PAGE_TABLE_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mosalloc/mosalloc.hh"
#include "mosalloc/page_size.hh"
#include "support/types.hh"
#include "vm/frame_pool.hh"

namespace mosaic::vm
{

/** Walk levels, from the root down. */
enum class PtLevel : std::uint8_t
{
    Pml4 = 0,
    Pdpt = 1,
    Pd = 2,
    Pt = 3,
};

constexpr std::size_t numPtLevels = 4;

/** @return the VA bit shift selecting the index at @p level. */
constexpr unsigned
levelShift(PtLevel level)
{
    switch (level) {
      case PtLevel::Pml4:
        return 39;
      case PtLevel::Pdpt:
        return 30;
      case PtLevel::Pd:
        return 21;
      case PtLevel::Pt:
        return 12;
    }
    return 0;
}

/** @return the 9-bit table index of @p vaddr at @p level. */
constexpr std::uint64_t
levelIndex(VirtAddr vaddr, PtLevel level)
{
    return (vaddr >> levelShift(level)) & 0x1ff;
}

/** The level at which a page of @p size terminates the walk. */
constexpr PtLevel
leafLevel(alloc::PageSize size)
{
    switch (size) {
      case alloc::PageSize::Page4K:
        return PtLevel::Pt;
      case alloc::PageSize::Page2M:
        return PtLevel::Pd;
      case alloc::PageSize::Page1G:
        return PtLevel::Pdpt;
    }
    return PtLevel::Pt;
}

/** Result of a (software) translation. */
struct Translation
{
    bool valid = false;
    PhysAddr physAddr = 0;
    alloc::PageSize pageSize = alloc::PageSize::Page4K;

    /** Physical address of each page-table entry a full walk reads,
     *  root first; length == number of levels actually traversed. */
    std::array<PhysAddr, numPtLevels> entryAddrs{};
    unsigned depth = 0;
};

/**
 * The radix table itself. Nodes are 512-entry arrays held host-side;
 * each node also owns a simulated physical frame for entry addressing.
 */
class PageTable
{
  public:
    explicit PageTable(FramePool &frame_pool);

    /**
     * Map one page: @p vbase (aligned to @p size) -> @p pbase.
     * Intermediate nodes are created on demand; double mapping panics.
     */
    void map(VirtAddr vbase, alloc::PageSize size, PhysAddr pbase);

    /**
     * Unmap one page previously map()ed at @p vbase with @p size:
     * clears the leaf entry. Intermediate nodes are never freed, so
     * page-walk caches (which hold only non-leaf entries) stay valid;
     * the caller owns the TLB shootdown. Used by the frame pool's
     * eviction path.
     */
    void unmap(VirtAddr vbase, alloc::PageSize size);

    /**
     * Populate the table from a Mosalloc instance: allocates a data
     * frame for every page of every pool and maps it. The pages are
     * walked twice, first to count the nodes the table will need and
     * reserve them, so the node array never reallocates here.
     */
    void populate(const alloc::Mosalloc &allocator);

    /**
     * Translate @p vaddr, reporting the entry chain a hardware walk
     * would touch.
     */
    Translation translate(VirtAddr vaddr) const;

    /**
     * Memo of the most recent descent: the node entered at each level
     * and the address whose index bits selected it. translateWith()
     * reuses the longest matching prefix, so a run of translations in
     * the same region (a staging pass refilling consecutive memo
     * granules, or a cluster of TLB-missing records) skips the
     * upper-level node visits they share. Purely host-side state — a
     * cursor never changes what a translation returns, only how many
     * radix nodes the host touches to compute it.
     */
    struct DescentCursor
    {
        VirtAddr lastVaddr = 0;

        /** Node entered at each level ([0] is always the root). */
        std::array<std::uint32_t, numPtLevels> nodeId{};

        /** Deepest level whose cached node may be reused (depth - 1
         *  of the last descent: levels past a leaf were never
         *  entered, so their slots are stale). */
        unsigned maxStart = 0;

        bool warm = false;
    };

    /**
     * translate(), restarting the radix descent from the deepest
     * level @p cursor shares with @p vaddr. Returns bit-identical
     * results to translate() for every address (property-tested).
     */
    Translation translateWith(DescentCursor &cursor,
                              VirtAddr vaddr) const;

    /** Number of table nodes (== simulated PT frames). */
    std::size_t numNodes() const { return nodes_.size(); }

    /** Total mapped pages per page size. */
    const std::array<std::uint64_t, alloc::numPageSizes> &
    mappedPages() const
    {
        return mappedPages_;
    }

  private:
    struct Entry
    {
        bool present = false;
        bool leaf = false;
        std::uint32_t next = 0; ///< node index when !leaf
        PhysAddr phys = 0;      ///< frame base when leaf
    };

    struct Node
    {
        std::array<Entry, 512> entries{};
        PhysAddr frame = 0; ///< simulated physical base of this node
    };

    std::uint32_t newNode();

    /** Physical address of entry @p index inside node @p node_id. */
    PhysAddr
    entryPhysAddr(std::uint32_t node_id, std::uint64_t index) const
    {
        return nodes_[node_id].frame + index * 8;
    }

    FramePool &framePool_;
    std::vector<Node> nodes_; ///< node 0 is the PML4 root
    std::array<std::uint64_t, alloc::numPageSizes> mappedPages_{};
};

} // namespace mosaic::vm

#endif // MOSAIC_VM_PAGE_TABLE_HH
