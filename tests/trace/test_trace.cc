/**
 * @file
 * Tests for the trace container and the miss-profile / hot-region
 * analysis (the PEBS substitute).
 */

#include <gtest/gtest.h>

#include "support/random.hh"
#include "trace/miss_profile.hh"
#include "trace/trace.hh"

using namespace mosaic;
using namespace mosaic::trace;

TEST(MemoryTrace, AddAndQuery)
{
    MemoryTrace trace;
    trace.add(0x1000, 3, false);
    trace.add(0x2000, 0, true);
    EXPECT_EQ(trace.size(), 2u);
    EXPECT_EQ(trace.records()[0].vaddr, 0x1000u);
    EXPECT_EQ(trace.records()[0].gap, 3u);
    EXPECT_FALSE(trace.records()[0].isWrite);
    EXPECT_TRUE(trace.records()[1].isWrite);
}

TEST(MemoryTrace, GapSaturatesAt16Bits)
{
    MemoryTrace trace;
    trace.add(0x1000, 1 << 20, false);
    EXPECT_EQ(trace.records()[0].gap, 0xffffu);
}

TEST(MemoryTrace, TotalInstructionsCountsRefsAndGaps)
{
    MemoryTrace trace;
    trace.add(0x1000, 3, false); // 3 + the ref itself
    trace.add(0x2000, 0, false); // 1
    EXPECT_EQ(trace.totalInstructions(), 5u);
    trace.add(0x3000, 1 << 20, false); // the stored, saturated gap
    EXPECT_EQ(trace.totalInstructions(), 5u + 0xffffu + 1);
}

TEST(MemoryTrace, NumLoadsExcludesStores)
{
    MemoryTrace trace;
    trace.add(0x1000, 0, false);
    trace.add(0x2000, 0, true);
    trace.add(0x3000, 0, false);
    EXPECT_EQ(trace.numLoads(), 2u);
}

TEST(MemoryTrace, AddressRangeAndUniquePages)
{
    MemoryTrace trace;
    trace.add(0x1000, 0, false);
    trace.add(0x9fff, 0, false);
    trace.add(0x1800, 0, false); // same 4KB page as 0x1000
    auto [lo, hi] = trace.addressRange();
    EXPECT_EQ(lo, 0x1000u);
    EXPECT_EQ(hi, 0x9fffu);
    EXPECT_EQ(trace.uniquePages4k(), 2u);
}

TEST(MemoryTrace, EmptyRangePanics)
{
    MemoryTrace trace;
    EXPECT_THROW(trace.addressRange(), std::logic_error);
}

namespace
{

/** A trace hammering one hot 16MB stripe of a 128MB pool plus sparse
 *  cold accesses elsewhere. */
MemoryTrace
hotColdTrace(VirtAddr pool_base, Bytes pool_size, Bytes hot_start,
             Bytes hot_len)
{
    MemoryTrace trace;
    Rng rng(123);
    for (int i = 0; i < 60000; ++i) {
        bool hot = rng.nextBounded(10) < 9; // 90% of traffic
        Bytes offset =
            hot ? hot_start + rng.nextBounded(hot_len)
                : rng.nextBounded(pool_size);
        trace.add(pool_base + offset, 2, false);
    }
    return trace;
}

} // namespace

TEST(MissProfile, AttributesMissesToPool)
{
    const VirtAddr base = 4_GiB;
    const Bytes size = 128_MiB;
    MemoryTrace trace = hotColdTrace(base, size, 32_MiB, 16_MiB);
    MissProfile profile(trace, base, size);
    EXPECT_GT(profile.totalMisses(), 0u);
}

TEST(MissProfile, IgnoresOtherPools)
{
    MemoryTrace trace;
    Rng rng(5);
    for (int i = 0; i < 20000; ++i)
        trace.add(8_GiB + rng.nextBounded(64_MiB), 1, false);
    MissProfile profile(trace, 4_GiB, 128_MiB);
    EXPECT_EQ(profile.totalMisses(), 0u);
    // And the hot region degenerates gracefully.
    auto hot = profile.findHotRegion(0.5);
    EXPECT_EQ(hot.length, 0u);
}

TEST(MissProfile, HotRegionCoversTheHotStripe)
{
    const VirtAddr base = 4_GiB;
    const Bytes size = 128_MiB;
    const Bytes hot_start = 32_MiB;
    const Bytes hot_len = 16_MiB;
    MemoryTrace trace = hotColdTrace(base, size, hot_start, hot_len);
    MissProfile profile(trace, base, size);

    auto hot = profile.findHotRegion(0.8);
    EXPECT_GE(hot.coverage, 0.8);
    // The found region must overlap the planted stripe substantially
    // and not be much larger than it.
    EXPECT_LT(hot.start, hot_start + hot_len);
    EXPECT_GT(hot.end(), hot_start);
    EXPECT_LE(hot.length, hot_len + 8 * MissProfile::bucketBytes);
}

TEST(MissProfile, SmallerFractionSmallerRegion)
{
    const VirtAddr base = 4_GiB;
    MemoryTrace trace = hotColdTrace(base, 128_MiB, 32_MiB, 16_MiB);
    MissProfile profile(trace, base, 128_MiB);
    auto r20 = profile.findHotRegion(0.2);
    auto r80 = profile.findHotRegion(0.8);
    EXPECT_LE(r20.length, r80.length);
}

TEST(MissProfile, RegionIsBucketAligned)
{
    const VirtAddr base = 4_GiB;
    MemoryTrace trace = hotColdTrace(base, 128_MiB, 32_MiB, 16_MiB);
    MissProfile profile(trace, base, 128_MiB);
    auto hot = profile.findHotRegion(0.4);
    EXPECT_EQ(hot.start % MissProfile::bucketBytes, 0u);
    EXPECT_EQ(hot.length % MissProfile::bucketBytes, 0u);
}

TEST(MissProfile, BottomDetection)
{
    const VirtAddr base = 4_GiB;
    MemoryTrace low = hotColdTrace(base, 128_MiB, 4_MiB, 16_MiB);
    MissProfile low_profile(low, base, 128_MiB);
    auto low_hot = low_profile.findHotRegion(0.6);
    EXPECT_TRUE(low_profile.hotRegionNearBottom(low_hot));

    MemoryTrace high = hotColdTrace(base, 128_MiB, 100_MiB, 16_MiB);
    MissProfile high_profile(high, base, 128_MiB);
    auto high_hot = high_profile.findHotRegion(0.6);
    EXPECT_FALSE(high_profile.hotRegionNearBottom(high_hot));
}

TEST(MissProfile, SmallTlbMissesMoreThanLargeTlb)
{
    const VirtAddr base = 4_GiB;
    MemoryTrace trace = hotColdTrace(base, 128_MiB, 32_MiB, 16_MiB);
    MissProfile small_tlb(trace, base, 128_MiB, 64);
    MissProfile large_tlb(trace, base, 128_MiB, 4096);
    EXPECT_GT(small_tlb.totalMisses(), large_tlb.totalMisses());
}
