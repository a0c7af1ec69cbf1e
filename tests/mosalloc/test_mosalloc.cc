/**
 * @file
 * Tests for the Mosalloc facade: malloc layer, syscall layer, mallopt
 * knobs, and the page-mapping export.
 */

#include <gtest/gtest.h>

#include <set>

#include "mosalloc/mosalloc.hh"

using namespace mosaic;
using namespace mosaic::alloc;

namespace
{

MosallocConfig
smallConfig()
{
    MosallocConfig config;
    config.heapLayout = MosaicLayout(8_MiB);
    config.anonLayout = MosaicLayout(8_MiB);
    config.filePoolSize = 1_MiB;
    return config;
}

} // namespace

TEST(Mosalloc, MallocReturnsHeapAddresses)
{
    Mosalloc allocator(smallConfig());
    VirtAddr p = allocator.malloc(100);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(allocator.heapPool().contains(p));
    EXPECT_GE(allocator.allocationSize(p), 100u);
}

TEST(Mosalloc, MallocZeroReturnsNull)
{
    Mosalloc allocator(smallConfig());
    EXPECT_EQ(allocator.malloc(0), 0u);
}

TEST(Mosalloc, DistinctLiveAllocationsDoNotOverlap)
{
    Mosalloc allocator(smallConfig());
    std::vector<std::pair<VirtAddr, Bytes>> live;
    for (int i = 1; i <= 100; ++i) {
        Bytes size = static_cast<Bytes>(i) * 24;
        VirtAddr p = allocator.malloc(size);
        ASSERT_NE(p, 0u);
        for (const auto &[q, qsize] : live) {
            bool disjoint = p + size <= q || q + qsize <= p;
            ASSERT_TRUE(disjoint) << "overlap at allocation " << i;
        }
        live.emplace_back(p, size);
    }
}

TEST(Mosalloc, FreeAndReuse)
{
    Mosalloc allocator(smallConfig());
    VirtAddr a = allocator.malloc(64);
    allocator.free(a);
    VirtAddr b = allocator.malloc(64);
    EXPECT_EQ(a, b); // First fit reuses the freed chunk.
}

TEST(Mosalloc, FreeCoalescesNeighbours)
{
    Mosalloc allocator(smallConfig());
    VirtAddr a = allocator.malloc(64);
    VirtAddr b = allocator.malloc(64);
    VirtAddr c = allocator.malloc(64);
    (void)c;
    allocator.free(a);
    allocator.free(b);
    // The coalesced block serves a 128-byte request at a's address.
    VirtAddr d = allocator.malloc(128);
    EXPECT_EQ(d, a);
}

TEST(Mosalloc, DoubleFreePanics)
{
    Mosalloc allocator(smallConfig());
    VirtAddr a = allocator.malloc(64);
    allocator.free(a);
    EXPECT_THROW(allocator.free(a), std::logic_error);
}

TEST(Mosalloc, CallocOverflowGuard)
{
    Mosalloc allocator(smallConfig());
    EXPECT_EQ(allocator.calloc(~Bytes(0) / 2, 4), 0u);
    VirtAddr p = allocator.calloc(10, 12);
    EXPECT_GE(allocator.allocationSize(p), 120u);
}

TEST(Mosalloc, ReallocSemantics)
{
    Mosalloc allocator(smallConfig());
    VirtAddr p = allocator.malloc(100);
    // Shrinking stays in place.
    EXPECT_EQ(allocator.realloc(p, 50), p);
    // Growing moves (or extends); the result must be live and sized.
    VirtAddr q = allocator.realloc(p, 4000);
    ASSERT_NE(q, 0u);
    EXPECT_GE(allocator.allocationSize(q), 4000u);
    // realloc(ptr, 0) frees.
    EXPECT_EQ(allocator.realloc(q, 0), 0u);
    EXPECT_EQ(allocator.allocationSize(q), 0u);
    // realloc(nullptr, n) is malloc.
    VirtAddr r = allocator.realloc(0, 32);
    EXPECT_NE(r, 0u);
}

TEST(Mosalloc, MorecoreExtendsHeapLikeGlibc)
{
    Mosalloc allocator(smallConfig());
    auto before = allocator.stats().morecoreCalls;
    // A large allocation must trigger heap extension via morecore.
    VirtAddr p = allocator.malloc(1_MiB);
    ASSERT_NE(p, 0u);
    EXPECT_GT(allocator.stats().morecoreCalls, before);
    EXPECT_GE(allocator.heapPool().bytesInUse(), 1_MiB);
}

TEST(Mosalloc, DefaultConfigForcesHeapOnly)
{
    // Mosalloc sets M_MMAP_MAX = 0, so even huge mallocs go through
    // morecore (the libhugetlbfs bug the paper fixes).
    Mosalloc allocator(smallConfig());
    VirtAddr p = allocator.malloc(512_KiB);
    EXPECT_TRUE(allocator.heapPool().contains(p));
    EXPECT_EQ(allocator.stats().directMmapAllocs, 0u);
}

TEST(Mosalloc, GlibcDefaultsSendLargeMallocsToMmap)
{
    // With M_MMAP_MAX > 0 (glibc default), requests above the
    // threshold bypass morecore — the behaviour Mosalloc must disable.
    MosallocConfig config = smallConfig();
    config.mmapMax = 65536;
    Mosalloc allocator(config);
    VirtAddr p = allocator.malloc(512_KiB);
    ASSERT_NE(p, 0u);
    EXPECT_TRUE(allocator.anonPool().contains(p));
    EXPECT_EQ(allocator.stats().directMmapAllocs, 1u);
    // Small requests still come from the heap.
    VirtAddr q = allocator.malloc(64);
    EXPECT_TRUE(allocator.heapPool().contains(q));
    // And free() routes the direct mapping back to munmap.
    allocator.free(p);
    EXPECT_EQ(allocator.anonPool().numMappings(), 0u);
}

TEST(Mosalloc, MalloptKnobs)
{
    Mosalloc allocator(smallConfig());
    EXPECT_EQ(allocator.mallopt(MalloptParam::MmapMax, 65536), 1);
    EXPECT_EQ(allocator.mallopt(MalloptParam::MmapThreshold, 4096), 1);
    VirtAddr p = allocator.malloc(8_KiB);
    EXPECT_TRUE(allocator.anonPool().contains(p));

    EXPECT_EQ(allocator.mallopt(MalloptParam::MmapMax, 0), 1);
    VirtAddr q = allocator.malloc(8_KiB);
    EXPECT_TRUE(allocator.heapPool().contains(q));

    EXPECT_EQ(allocator.mallopt(MalloptParam::MmapMax, -1), 0);
    EXPECT_EQ(allocator.mallopt(MalloptParam::ArenaMax, 0), 0);
    EXPECT_EQ(allocator.mallopt(MalloptParam::ArenaMax, 4), 1);
}

TEST(Mosalloc, SbrkAndBrkRouteToHeapPool)
{
    Mosalloc allocator(smallConfig());
    VirtAddr brk0 = allocator.sbrk(0);
    EXPECT_EQ(brk0, PoolAddresses::heapBase);
    allocator.sbrk(64_KiB);
    EXPECT_EQ(allocator.heapPool().programBreak(), brk0 + 64_KiB);
    EXPECT_EQ(allocator.brk(brk0 + 32_KiB), 0);
}

TEST(Mosalloc, MmapAndMunmapByPool)
{
    Mosalloc allocator(smallConfig());
    VirtAddr anon = allocator.mmap(64_KiB);
    VirtAddr file = allocator.mmap(64_KiB, true);
    EXPECT_TRUE(allocator.anonPool().contains(anon));
    EXPECT_TRUE(allocator.filePool().contains(file));
    EXPECT_EQ(allocator.munmap(anon, 64_KiB), 0);
    EXPECT_EQ(allocator.munmap(file, 64_KiB), 0);
    EXPECT_EQ(allocator.munmap(0x1234, 4_KiB), -1);
}

TEST(Mosalloc, PageSizeOfRespectsLayouts)
{
    MosallocConfig config = smallConfig();
    config.heapLayout = MosaicLayout(
        8_MiB, {MosaicRegion{2_MiB, 2_MiB, PageSize::Page2M}});
    Mosalloc allocator(config);
    VirtAddr heap = PoolAddresses::heapBase;
    EXPECT_EQ(allocator.pageSizeOf(heap), PageSize::Page4K);
    EXPECT_EQ(allocator.pageSizeOf(heap + 3_MiB), PageSize::Page2M);
    EXPECT_EQ(allocator.pageBaseOf(heap + 3_MiB), heap + 2_MiB);
    EXPECT_THROW(allocator.pageSizeOf(0x10), std::runtime_error);
}

TEST(Mosalloc, PageMappingsCoverAllPoolsWithoutOverlap)
{
    MosallocConfig config = smallConfig();
    config.heapLayout = MosaicLayout(
        4_MiB, {MosaicRegion{0, 2_MiB, PageSize::Page2M}});
    Mosalloc allocator(config);

    Bytes total = 0;
    std::set<VirtAddr> starts;
    allocator.forEachPageMapping([&](const PageMapping &mapping) {
        EXPECT_TRUE(starts.insert(mapping.virtBase).second);
        EXPECT_EQ(mapping.virtBase %
                      pageBytes(mapping.pageSize),
                  0u);
        total += pageBytes(mapping.pageSize);
    });
    Bytes expected = allocator.heapPool().size() +
                     allocator.anonPool().size() +
                     allocator.filePool().size();
    EXPECT_EQ(total, expected);
}

TEST(Mosalloc, StatsTrackCalls)
{
    Mosalloc allocator(smallConfig());
    allocator.malloc(100);
    allocator.mmap(4_KiB);
    auto stats = allocator.stats();
    EXPECT_EQ(stats.mallocCalls, 1u);
    EXPECT_EQ(stats.mmapCalls, 1u);
    EXPECT_GT(stats.heapInUse, 0u);
    EXPECT_EQ(stats.anonInUse, 4_KiB);
}

TEST(Mosalloc, LibhugetlbfsStyleSkipsAnonLayout)
{
    // Morecore-only interception: the anonymous pool stays 4KB no
    // matter what hugepage size was requested (Section V-A).
    auto config = libhugetlbfsStyleConfig(8_MiB, PageSize::Page2M,
                                          8_MiB);
    Mosalloc allocator(config);
    EXPECT_DOUBLE_EQ(allocator.anonPool().layout().hugeCoverage(), 0.0);
    EXPECT_GT(allocator.heapPool().layout().hugeCoverage(), 0.99);
    VirtAddr mapped = allocator.mmap(64_KiB);
    EXPECT_EQ(allocator.pageSizeOf(mapped), PageSize::Page4K);
}

TEST(Mosalloc, LibhugetlbfsStyleArenaEscapes)
{
    // With multiple arenas allowed, a slice of sizeable mallocs lands
    // in mmap-backed arenas outside the hugepage heap — the paper's
    // Section V-C bug. Mosalloc's arenaMax=1 default prevents it.
    auto lib_config = libhugetlbfsStyleConfig(64_MiB, PageSize::Page2M,
                                              64_MiB);
    Mosalloc lib(lib_config);
    for (int i = 0; i < 1000; ++i)
        lib.malloc(8_KiB);
    EXPECT_GT(lib.stats().directMmapAllocs, 0u);

    MosallocConfig mos_config;
    mos_config.heapLayout = MosaicLayout::uniform(64_MiB,
                                                  PageSize::Page2M);
    mos_config.anonLayout = MosaicLayout(64_MiB);
    Mosalloc mosalloc(mos_config);
    for (int i = 0; i < 1000; ++i)
        mosalloc.malloc(8_KiB);
    EXPECT_EQ(mosalloc.stats().directMmapAllocs, 0u);
}
