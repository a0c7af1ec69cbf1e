/**
 * @file
 * Tests for the MMU facade and its PMU-style H/M/C accounting.
 */

#include <gtest/gtest.h>

#include <stdexcept>
#include <string>

#include "memhier/hierarchy.hh"
#include "vm/mmu.hh"

using namespace mosaic;
using namespace mosaic::vm;
using alloc::PageSize;

namespace
{

struct MmuFixture
{
    explicit MmuFixture(unsigned walkers = 1)
        : table(mem), hierarchy(hierConfig())
    {
        MmuConfig config;
        config.numWalkers = walkers;
        mmu = std::make_unique<Mmu>(table, hierarchy, config);
    }

    static mem::HierarchyConfig
    hierConfig()
    {
        mem::HierarchyConfig config;
        config.l1 = {"L1", 4_KiB, 2, 64};
        config.l2 = {"L2", 32_KiB, 4, 64};
        config.l3 = {"L3", 256_KiB, 8, 64};
        return config;
    }

    FramePool mem;
    PageTable table;
    mem::MemoryHierarchy hierarchy;
    std::unique_ptr<Mmu> mmu;
};

constexpr VirtAddr base = 0x4000000000ULL;

} // namespace

TEST(Mmu, FirstAccessWalksThenHits)
{
    MmuFixture fixture;
    fixture.table.map(base, PageSize::Page4K, 0x80000000ULL);

    auto first = fixture.mmu->translate(base + 8, 0);
    EXPECT_EQ(first.outcome, TlbOutcome::Miss);
    EXPECT_GT(first.latency, 0u);
    EXPECT_EQ(first.physAddr, 0x80000008ULL);
    EXPECT_EQ(fixture.mmu->counters().m, 1u);
    EXPECT_GT(fixture.mmu->counters().c, 0u);

    auto second = fixture.mmu->translate(base + 16, 100000);
    EXPECT_EQ(second.outcome, TlbOutcome::L1Hit);
    EXPECT_EQ(second.latency, 0u);
    EXPECT_EQ(second.physAddr, 0x80000010ULL);
}

TEST(Mmu, L2HitCostsSevenCycles)
{
    MmuFixture fixture;
    // Map enough pages to overflow the 64-entry L1 but not the L2.
    for (std::uint64_t i = 0; i < 256; ++i)
        fixture.table.map(base + i * 4_KiB, PageSize::Page4K,
                          0x80000000ULL + i * 4_KiB);
    for (std::uint64_t i = 0; i < 256; ++i)
        fixture.mmu->translate(base + i * 4_KiB, i * 1000);

    auto result = fixture.mmu->translate(base, 10000000);
    EXPECT_EQ(result.outcome, TlbOutcome::L2Hit);
    EXPECT_EQ(result.latency, 7u);
    EXPECT_EQ(fixture.mmu->counters().h, 1u);
}

TEST(Mmu, CountersSumToAccesses)
{
    MmuFixture fixture;
    for (std::uint64_t i = 0; i < 512; ++i)
        fixture.table.map(base + i * 4_KiB, PageSize::Page4K,
                          0x80000000ULL + i * 4_KiB);
    const std::uint64_t n = 5000;
    for (std::uint64_t i = 0; i < n; ++i)
        fixture.mmu->translate(base + (i % 512) * 4_KiB, i * 10);
    const auto &counters = fixture.mmu->counters();
    EXPECT_EQ(counters.l1Hits + counters.h + counters.m, n);
}

TEST(Mmu, UnmappedAccessPanics)
{
    MmuFixture fixture;
    EXPECT_THROW(fixture.mmu->translate(0x123456000ULL, 0),
                 std::logic_error);
}

TEST(Mmu, FlushForgetsTranslations)
{
    MmuFixture fixture;
    fixture.table.map(base, PageSize::Page4K, 0x80000000ULL);
    fixture.mmu->translate(base, 0);
    fixture.mmu->flush();
    auto result = fixture.mmu->translate(base, 100000);
    EXPECT_EQ(result.outcome, TlbOutcome::Miss);
    EXPECT_EQ(fixture.mmu->counters().m, 2u);
}

TEST(Mmu, StagedAndFullTranslationsAgreeWhenInterleaved)
{
    // Regression test for the staged-translation memo aliasing hazard:
    // the replay kernel stages peekTranslate() results a chunk ahead of
    // the retire loop, so a staged {physAddr, pageSize} can be consumed
    // at a different `now`, after other translations have advanced
    // time and recycled the same memo slots. Two MMUs over
    // one page table replay the same access stream, one through
    // translate(), one through peek-then-translateStaged with a
    // deliberately stale staging distance and a second stream hammering
    // aliasing granules in between; every event and every counter must
    // be bit-identical.
    MmuFixture plain, staged;
    // Map both fixtures' tables identically: mixed 4K/2M pages so the
    // staged path carries both page sizes.
    auto mapBoth = [&](VirtAddr vaddr, PageSize size, PhysAddr paddr) {
        plain.table.map(vaddr, size, paddr);
        staged.table.map(vaddr, size, paddr);
    };
    for (std::uint64_t i = 0; i < 128; ++i)
        mapBoth(base + i * 4_KiB, PageSize::Page4K,
                0x80000000ULL + i * 4_KiB);
    mapBoth(base + 1_GiB, PageSize::Page2M, 0xc0000000ULL);

    // Access stream: strides that wrap the 128-page window (TLB
    // evictions), repeated granules (memo hits), and the 2M page
    // (different size class through the same staged plumbing).
    std::vector<VirtAddr> stream;
    for (std::uint64_t i = 0; i < 4000; ++i) {
        switch (i % 5) {
          case 0:
            stream.push_back(base + (i * 7 % 128) * 4_KiB + (i % 4096));
            break;
          case 1:
            stream.push_back(base + (i % 128) * 4_KiB);
            break;
          case 2:
            stream.push_back(base + 1_GiB + (i * 64 % 2_MiB));
            break;
          default:
            stream.push_back(base + (i * 31 % 128) * 4_KiB);
        }
    }

    constexpr std::size_t kStageAhead = 16;
    std::vector<Mmu::StagedXlate> pending(kStageAhead);
    for (std::size_t i = 0; i < stream.size(); ++i) {
        // Stage kStageAhead addresses in a burst, as the kernel does,
        // then retire them one by one at later timestamps.
        if (i % kStageAhead == 0) {
            for (std::size_t j = i;
                 j < std::min(i + kStageAhead, stream.size()); ++j)
                pending[j - i] = staged.mmu->peekTranslate(stream[j]);
        }
        Cycles now = static_cast<Cycles>(i * 37);
        auto full = plain.mmu->translate(stream[i], now);
        const Mmu::StagedXlate &stage = pending[i % kStageAhead];
        auto lazy = staged.mmu->translateStaged(
            stream[i], stage.physAddr, stage.leafEntry, stage.pageSize,
            now);
        ASSERT_EQ(full.physAddr, lazy.physAddr) << "at access " << i;
        ASSERT_EQ(full.outcome, lazy.outcome) << "at access " << i;
        ASSERT_EQ(full.latency, lazy.latency) << "at access " << i;
        ASSERT_EQ(full.pageSize, lazy.pageSize) << "at access " << i;
    }
    EXPECT_EQ(plain.mmu->counters().l1Hits,
              staged.mmu->counters().l1Hits);
    EXPECT_EQ(plain.mmu->counters().h, staged.mmu->counters().h);
    EXPECT_EQ(plain.mmu->counters().m, staged.mmu->counters().m);
    EXPECT_EQ(plain.mmu->counters().c, staged.mmu->counters().c);
}

namespace
{

/** Run @p retire and expect the staged-translation aliasing guard. */
template <typename Fn>
void
expectAliasPanic(Fn &&retire, const char *what)
{
    try {
        retire();
    } catch (const std::logic_error &error) {
        EXPECT_NE(std::string(error.what())
                      .find("staged translation aliased"),
                  std::string::npos)
            << what << ": " << error.what();
        return;
    }
    ADD_FAILURE() << what << ": no aliasing panic";
}

} // namespace

TEST(Mmu, LeafOnlyWalkPanicsOnAliasedStagedRecord)
{
    // A walk whose PDE-cache probe hits reads the staged leaf entry
    // alone, without a radix descent. The guard then checks the
    // staged record against the memo slot: a wrong physAddr or leaf
    // entry must panic, not be walked.
    MmuFixture fixture;
    fixture.table.map(base, PageSize::Page4K, 0x80000000ULL);
    fixture.table.map(base + 4_KiB, PageSize::Page4K, 0x80001000ULL);
    fixture.mmu->translate(base, 0); // fills the PDE cache
    const VirtAddr vaddr = base + 4_KiB + 8;
    const Mmu::StagedXlate staged = fixture.mmu->peekTranslate(vaddr);

    expectAliasPanic(
        [&] {
            fixture.mmu->translateStaged(vaddr, staged.physAddr + 4_KiB,
                                         staged.leafEntry,
                                         staged.pageSize, 100);
        },
        "physAddr");
    expectAliasPanic(
        [&] {
            fixture.mmu->translateStaged(vaddr, staged.physAddr,
                                         staged.leafEntry + 8,
                                         staged.pageSize, 200);
        },
        "leaf entry");

    // The untouched record walks the leaf entry alone: four reads for
    // the first walk, one for this one.
    auto event = fixture.mmu->translateStaged(
        vaddr, staged.physAddr, staged.leafEntry, staged.pageSize, 300);
    EXPECT_EQ(event.outcome, TlbOutcome::Miss);
    EXPECT_EQ(event.physAddr, 0x80001008ULL);
    EXPECT_EQ(fixture.mmu->walker().stats().walks, 2u);
    EXPECT_EQ(fixture.mmu->walker().stats().levelReads, 5u);
}

TEST(Mmu, DescendingWalkPanicsOnAliasedStagedRecord)
{
    // A walk that reads more than the leaf entry descends the radix
    // table and checks all three staged values against it: on a cold
    // walk (no PWC hit), and on a leaf-only walk whose memo slot an
    // aliasing granule has since taken over.
    MmuFixture fixture;
    fixture.table.map(base, PageSize::Page4K, 0x80000000ULL);
    fixture.table.map(base + 4_KiB, PageSize::Page4K, 0x80001000ULL);
    // 16K granules (64 MiB) apart: the same direct-mapped memo slot.
    const VirtAddr alias = base + 4_KiB + 64_MiB;
    fixture.table.map(alias, PageSize::Page4K, 0x80002000ULL);
    const Mmu::StagedXlate cold = fixture.mmu->peekTranslate(base);

    expectAliasPanic(
        [&] {
            fixture.mmu->translateStaged(base, cold.physAddr + 4_KiB,
                                         cold.leafEntry, cold.pageSize,
                                         0);
        },
        "cold physAddr");
    fixture.mmu->flush();
    expectAliasPanic(
        [&] {
            fixture.mmu->translateStaged(base, cold.physAddr,
                                         cold.leafEntry + 8,
                                         cold.pageSize, 0);
        },
        "cold leaf entry");

    fixture.mmu->flush();
    fixture.mmu->translate(base, 0); // fills the PDE cache
    const Mmu::StagedXlate staged =
        fixture.mmu->peekTranslate(base + 4_KiB);
    fixture.mmu->peekTranslate(alias); // recycles the memo slot
    expectAliasPanic(
        [&] {
            fixture.mmu->translateStaged(base + 4_KiB, staged.physAddr,
                                         staged.leafEntry + 8,
                                         staged.pageSize, 100);
        },
        "recycled slot");
}

TEST(Mmu, WalkCyclesAccumulateAcrossWalkers)
{
    // With 2 walkers and back-to-back misses, C grows by the full walk
    // latency of each walk even though they overlap in time.
    MmuFixture fixture(2);
    fixture.table.map(base, PageSize::Page4K, 0x80000000ULL);
    fixture.table.map(base + 1_GiB, PageSize::Page4K, 0x80002000ULL);
    auto e1 = fixture.mmu->translate(base, 0);
    auto e2 = fixture.mmu->translate(base + 1_GiB, 0);
    EXPECT_EQ(e2.queueCycles, 0u);
    EXPECT_EQ(fixture.mmu->counters().c, e1.latency + e2.latency);
}
