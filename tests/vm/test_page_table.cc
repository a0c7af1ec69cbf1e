/**
 * @file
 * Tests for physical memory, page-table construction and translation.
 */

#include <gtest/gtest.h>

#include <vector>

#include "mosalloc/mosalloc.hh"
#include "vm/page_table.hh"
#include "vm/frame_pool.hh"

using namespace mosaic;
using namespace mosaic::vm;
using alloc::PageSize;

TEST(FramePool, PageTableNodesAreSequential4k)
{
    FramePool mem;
    PhysAddr a = mem.allocPageTableNode();
    PhysAddr b = mem.allocPageTableNode();
    EXPECT_EQ(b - a, 4_KiB);
    EXPECT_EQ(mem.numPageTableNodes(), 2u);
}

TEST(FramePool, DataFramesNaturallyAligned)
{
    FramePool mem;
    PhysAddr small = mem.allocDataFrame(PageSize::Page4K);
    PhysAddr huge = mem.allocDataFrame(PageSize::Page2M);
    PhysAddr giant = mem.allocDataFrame(PageSize::Page1G);
    EXPECT_EQ(small % 4_KiB, 0u);
    EXPECT_EQ(huge % 2_MiB, 0u);
    EXPECT_EQ(giant % 1_GiB, 0u);
    EXPECT_GE(huge, FramePool::dataBase);
}

TEST(LevelHelpers, ShiftsAndIndices)
{
    EXPECT_EQ(levelShift(PtLevel::Pml4), 39u);
    EXPECT_EQ(levelShift(PtLevel::Pt), 12u);
    VirtAddr va = (3ULL << 39) | (5ULL << 30) | (7ULL << 21) | (9ULL << 12);
    EXPECT_EQ(levelIndex(va, PtLevel::Pml4), 3u);
    EXPECT_EQ(levelIndex(va, PtLevel::Pdpt), 5u);
    EXPECT_EQ(levelIndex(va, PtLevel::Pd), 7u);
    EXPECT_EQ(levelIndex(va, PtLevel::Pt), 9u);
}

TEST(LevelHelpers, LeafLevels)
{
    EXPECT_EQ(leafLevel(PageSize::Page4K), PtLevel::Pt);
    EXPECT_EQ(leafLevel(PageSize::Page2M), PtLevel::Pd);
    EXPECT_EQ(leafLevel(PageSize::Page1G), PtLevel::Pdpt);
}

TEST(PageTable, MapAndTranslate4k)
{
    FramePool mem;
    PageTable table(mem);
    VirtAddr va = 0x4000000000ULL;
    table.map(va, PageSize::Page4K, 0x80000000ULL);

    Translation xlate = table.translate(va + 0x123);
    ASSERT_TRUE(xlate.valid);
    EXPECT_EQ(xlate.physAddr, 0x80000123ULL);
    EXPECT_EQ(xlate.pageSize, PageSize::Page4K);
    EXPECT_EQ(xlate.depth, 4u);
}

TEST(PageTable, MapAndTranslate2m)
{
    FramePool mem;
    PageTable table(mem);
    VirtAddr va = 0x4000000000ULL;
    table.map(va, PageSize::Page2M, 0x80000000ULL);
    Translation xlate = table.translate(va + 0x123456);
    ASSERT_TRUE(xlate.valid);
    EXPECT_EQ(xlate.physAddr, 0x80123456ULL);
    EXPECT_EQ(xlate.pageSize, PageSize::Page2M);
    EXPECT_EQ(xlate.depth, 3u);
}

TEST(PageTable, MapAndTranslate1g)
{
    FramePool mem;
    PageTable table(mem);
    VirtAddr va = 0x4000000000ULL;
    table.map(va, PageSize::Page1G, 0x40000000ULL);
    Translation xlate = table.translate(va + 0x3fffffffULL);
    ASSERT_TRUE(xlate.valid);
    EXPECT_EQ(xlate.physAddr, 0x40000000ULL + 0x3fffffffULL);
    EXPECT_EQ(xlate.depth, 2u);
}

TEST(PageTable, UnmappedIsInvalid)
{
    FramePool mem;
    PageTable table(mem);
    Translation xlate = table.translate(0x1234000);
    EXPECT_FALSE(xlate.valid);
}

TEST(PageTable, EntryChainAddressesAreDistinctAndInPtRegion)
{
    FramePool mem;
    PageTable table(mem);
    VirtAddr va = 0x4000000000ULL;
    table.map(va, PageSize::Page4K, 0x80000000ULL);
    Translation xlate = table.translate(va);
    ASSERT_EQ(xlate.depth, 4u);
    for (unsigned i = 0; i < 4; ++i) {
        EXPECT_LT(xlate.entryAddrs[i],
                  FramePool::pageTableBase + FramePool::pageTableRegion);
        for (unsigned j = i + 1; j < 4; ++j)
            EXPECT_NE(xlate.entryAddrs[i], xlate.entryAddrs[j]);
    }
}

TEST(PageTable, SiblingPagesShareUpperNodes)
{
    FramePool mem;
    PageTable table(mem);
    VirtAddr va = 0x4000000000ULL;
    table.map(va, PageSize::Page4K, 0x80000000ULL);
    std::size_t nodes_after_first = table.numNodes();
    table.map(va + 4_KiB, PageSize::Page4K, 0x80001000ULL);
    // Same PT leaf node: no new nodes needed.
    EXPECT_EQ(table.numNodes(), nodes_after_first);
    // Entry chains share the first three levels.
    Translation x1 = table.translate(va);
    Translation x2 = table.translate(va + 4_KiB);
    EXPECT_EQ(x1.entryAddrs[0], x2.entryAddrs[0]);
    EXPECT_EQ(x1.entryAddrs[2], x2.entryAddrs[2]);
    EXPECT_NE(x1.entryAddrs[3], x2.entryAddrs[3]);
}

TEST(PageTable, RejectsDoubleAndMisalignedMaps)
{
    FramePool mem;
    PageTable table(mem);
    VirtAddr va = 0x4000000000ULL;
    table.map(va, PageSize::Page4K, 0x80000000ULL);
    EXPECT_THROW(table.map(va, PageSize::Page4K, 0x80002000ULL),
                 std::logic_error);
    EXPECT_THROW(table.map(0x123, PageSize::Page4K, 0x80000000ULL),
                 std::logic_error);
    EXPECT_THROW(table.map(va + 8_MiB, PageSize::Page2M, 0x1000ULL),
                 std::logic_error);
}

TEST(PageTable, PopulateFromMosalloc)
{
    alloc::MosallocConfig config;
    config.heapLayout = alloc::MosaicLayout(
        4_MiB, {alloc::MosaicRegion{2_MiB, 2_MiB, PageSize::Page2M}});
    config.anonLayout = alloc::MosaicLayout(2_MiB);
    config.filePoolSize = 1_MiB;
    alloc::Mosalloc allocator(config);

    FramePool mem;
    PageTable table(mem);
    table.populate(allocator);

    // 2 MiB of 4KB heap pages + 1 x 2MB page.
    auto counts = table.mappedPages();
    EXPECT_EQ(counts[static_cast<std::size_t>(PageSize::Page2M)], 1u);
    EXPECT_EQ(counts[static_cast<std::size_t>(PageSize::Page4K)],
              (2_MiB + 2_MiB + 1_MiB) / 4_KiB);

    // Every pool address translates; page sizes match the layout.
    VirtAddr heap = alloc::PoolAddresses::heapBase;
    EXPECT_TRUE(table.translate(heap).valid);
    EXPECT_EQ(table.translate(heap + 3_MiB).pageSize, PageSize::Page2M);
    EXPECT_EQ(table.translate(heap + 1_MiB).pageSize, PageSize::Page4K);

    // Distinct pages map to distinct frames.
    PhysAddr f1 = table.translate(heap).physAddr;
    PhysAddr f2 = table.translate(heap + 4_KiB).physAddr;
    EXPECT_NE(f1, f2);
}

namespace
{

/** The per-page list populate() was once built from, kept here as the
 *  reference its visitor walk must reproduce: every page of @p layout
 *  at @p base, in ascending order, 4KB pages filling the gaps. */
void
appendPages(std::vector<alloc::PageMapping> &pages, VirtAddr base,
            const alloc::MosaicLayout &layout)
{
    auto emit4k = [&](Bytes from, Bytes to) {
        for (Bytes off = from; off < to; off += 4_KiB)
            pages.push_back({base + off, PageSize::Page4K});
    };
    Bytes cursor = 0;
    for (const auto &region : layout.regions()) {
        emit4k(cursor, region.start);
        Bytes page = alloc::pageBytes(region.pageSize);
        for (Bytes off = region.start; off < region.end(); off += page)
            pages.push_back({base + off, region.pageSize});
        cursor = region.end();
    }
    emit4k(cursor, layout.poolSize());
}

void
expectSameTranslation(const Translation &a, const Translation &b,
                      VirtAddr vaddr)
{
    ASSERT_EQ(a.valid, b.valid) << vaddr;
    ASSERT_EQ(a.physAddr, b.physAddr) << vaddr;
    ASSERT_EQ(a.pageSize, b.pageSize) << vaddr;
    ASSERT_EQ(a.depth, b.depth) << vaddr;
    for (unsigned l = 0; l < a.depth; ++l)
        ASSERT_EQ(a.entryAddrs[l], b.entryAddrs[l]) << vaddr;
}

} // namespace

TEST(PageTable, PopulateMatchesPerPageListOnFragmentedLayout)
{
    using alloc::MosaicRegion;
    // 2MB and 1GB regions with 4KB gaps between them and 4KB tails
    // that end off a 2MB boundary; the file pool is 4KB by design.
    alloc::MosallocConfig config;
    config.heapLayout = alloc::MosaicLayout(
        2_GiB + 12_KiB,
        {MosaicRegion{2_MiB, 4_MiB, PageSize::Page2M},
         MosaicRegion{8_MiB, 1_GiB - 10_MiB, PageSize::Page2M},
         MosaicRegion{1_GiB, 1_GiB, PageSize::Page1G}});
    config.anonLayout = alloc::MosaicLayout(
        1_GiB + 8_MiB + 20_KiB,
        {MosaicRegion{0, 1_GiB, PageSize::Page1G},
         MosaicRegion{1_GiB + 4_MiB, 4_MiB, PageSize::Page2M}});
    config.filePoolSize = 1_MiB + 4_KiB;
    alloc::Mosalloc allocator(config);

    std::vector<alloc::PageMapping> pages;
    appendPages(pages, allocator.heapPool().base(),
                allocator.heapPool().layout());
    appendPages(pages, allocator.anonPool().base(),
                allocator.anonPool().layout());
    appendPages(pages, allocator.filePool().base(),
                allocator.filePool().layout());
    FramePool reference_frames;
    PageTable reference(reference_frames);
    for (const auto &page : pages) {
        reference.map(page.virtBase, page.pageSize,
                      reference_frames.allocDataFrame(page.pageSize));
    }

    // populate() asserts that its counting pass reserved every node
    // it went on to create, so an undercount throws here.
    FramePool frames;
    PageTable table(frames);
    ASSERT_NO_THROW(table.populate(allocator));
    EXPECT_EQ(table.numNodes(), reference.numNodes());
    EXPECT_EQ(table.mappedPages(), reference.mappedPages());
    for (const auto &page : pages) {
        for (VirtAddr vaddr :
             {page.virtBase,
              page.virtBase + alloc::pageBytes(page.pageSize) - 1}) {
            expectSameTranslation(table.translate(vaddr),
                                  reference.translate(vaddr), vaddr);
            if (::testing::Test::HasFatalFailure())
                return;
        }
    }
}

/**
 * Property test backing the "bit-identical to translate()" promise on
 * PageTable::translateWith: a single cursor dragged through a stream
 * mixing locality runs (prefix reuse), random jumps (full restarts),
 * page-size changes (different leaf depths) and unmapped holes (the
 * cursor must go cold, not corrupt) always yields exactly what a
 * fresh full descent yields — valid bit, physical address, page size,
 * and the per-level entry addresses a walker would read.
 */
TEST(PageTable, CursorDescentMatchesFullTranslateEverywhere)
{
    FramePool mem;
    PageTable table(mem);
    const VirtAddr base = 0x4000000000ULL;
    // A mixed mapping: 512 x 4K pages, 8 x 2M pages, 1 x 1G page,
    // spread so upper-level prefixes are shared sometimes and not
    // others; a hole lives between the 2M run and the 1G page.
    for (std::uint64_t i = 0; i < 512; ++i)
        table.map(base + i * 4_KiB, PageSize::Page4K,
                  0x80000000ULL + i * 4_KiB);
    for (std::uint64_t i = 0; i < 8; ++i)
        table.map(base + 1_GiB + i * 2_MiB, PageSize::Page2M,
                  0xc0000000ULL + i * 2_MiB);
    table.map(base + 4_GiB, PageSize::Page1G, 0x100000000ULL);

    PageTable::DescentCursor cursor;
    std::uint64_t state = 0x9e3779b97f4a7c15ULL;
    auto next = [&state]() {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (int i = 0; i < 20000; ++i) {
        VirtAddr vaddr;
        switch (next() % 8) {
          case 0: // sequential run inside the 4K region
            vaddr = base + (static_cast<std::uint64_t>(i) % 512) * 4_KiB;
            break;
          case 1: // random 4K page
            vaddr = base + (next() % 512) * 4_KiB + (next() % 4096);
            break;
          case 2: // 2M region
            vaddr = base + 1_GiB + (next() % (8 * 2_MiB));
            break;
          case 3: // 1G page
            vaddr = base + 4_GiB + (next() % 1_GiB);
            break;
          case 4: // unmapped hole past the 4K run
            vaddr = base + 2_MiB + (next() % 2_MiB);
            break;
          default: // repeat the previous granule (max prefix reuse)
            vaddr = cursor.lastVaddr + (next() % 4096);
        }
        Translation full = table.translate(vaddr);
        Translation cursored = table.translateWith(cursor, vaddr);
        ASSERT_EQ(cursored.valid, full.valid) << "access " << i;
        if (!full.valid)
            continue;
        ASSERT_EQ(cursored.physAddr, full.physAddr) << "access " << i;
        ASSERT_EQ(cursored.pageSize, full.pageSize) << "access " << i;
        ASSERT_EQ(cursored.depth, full.depth) << "access " << i;
        for (unsigned l = 0; l < full.depth; ++l)
            ASSERT_EQ(cursored.entryAddrs[l], full.entryAddrs[l])
                << "access " << i << " level " << l;
    }
}
