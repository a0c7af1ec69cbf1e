/**
 * @file
 * Tests for the TLB arrays and the two-level TLB system, including the
 * per-microarchitecture L2 policies of Table 4.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "vm/tlb.hh"

using namespace mosaic;
using namespace mosaic::vm;
using alloc::PageSize;

TEST(TlbArray, AbsentArrayAlwaysMisses)
{
    TlbArray array(0, 0);
    EXPECT_FALSE(array.present());
    EXPECT_FALSE(array.lookup(42));
    array.insert(42); // no-op, no crash
    EXPECT_FALSE(array.lookup(42));
}

TEST(TlbArray, InsertThenHit)
{
    TlbArray array(16, 4);
    EXPECT_FALSE(array.lookup(100));
    array.insert(100);
    EXPECT_TRUE(array.lookup(100));
    EXPECT_EQ(array.hits, 1u);
    EXPECT_EQ(array.misses, 1u);
}

TEST(TlbArray, FullyAssociativeWhenWaysExceedEntries)
{
    TlbArray array(4, 16);
    EXPECT_EQ(array.numWays(), 4u);
    EXPECT_EQ(array.numSets(), 1u);
}

TEST(TlbArray, LruEvictionWithinSet)
{
    // Fully associative 2-entry array.
    TlbArray array(2, 2);
    array.insert(1 << 2);
    array.insert(2 << 2);
    array.lookup(1 << 2);    // refresh key 1
    array.insert(3 << 2);    // evicts key 2
    EXPECT_TRUE(array.lookup(1 << 2));
    EXPECT_FALSE(array.lookup(2 << 2));
    EXPECT_TRUE(array.lookup(3 << 2));
}

TEST(TlbArray, CapacityBound)
{
    // Insert more distinct keys than entries: at most `entries` can hit.
    TlbArray array(16, 4);
    for (std::uint64_t k = 0; k < 64; ++k)
        array.insert(k << 2);
    unsigned resident = 0;
    for (std::uint64_t k = 0; k < 64; ++k)
        resident += array.lookup(k << 2) ? 1 : 0;
    EXPECT_LE(resident, 16u);
}

TEST(TlbArray, FlushDropsEverything)
{
    TlbArray array(16, 4);
    array.insert(5);
    array.flush();
    EXPECT_FALSE(array.lookup(5));
}

namespace
{

L2TlbConfig
sandyBridgeL2()
{
    L2TlbConfig l2;
    l2.entries = 512;
    l2.ways = 4;
    l2.shares2m = false;
    l2.entries1g = 0;
    return l2;
}

L2TlbConfig
broadwellL2()
{
    L2TlbConfig l2;
    l2.entries = 1536;
    l2.ways = 12;
    l2.shares2m = true;
    l2.entries1g = 16;
    return l2;
}

} // namespace

TEST(TlbSystem, MissFillHitSequence)
{
    TlbSystem tlb(L1TlbConfig{}, sandyBridgeL2());
    VirtAddr va = 0x12345678000ULL;
    EXPECT_EQ(tlb.lookup(va, PageSize::Page4K), TlbOutcome::Miss);
    tlb.fill(va, PageSize::Page4K);
    EXPECT_EQ(tlb.lookup(va, PageSize::Page4K), TlbOutcome::L1Hit);
    EXPECT_EQ(tlb.fullMisses(), 1u);
    EXPECT_EQ(tlb.l1Hits(), 1u);
}

TEST(TlbSystem, L2HitAfterL1Eviction)
{
    TlbSystem tlb(L1TlbConfig{}, sandyBridgeL2());
    // Fill 64 + extra 4KB translations mapping to distinct L1 slots;
    // early ones fall out of the 64-entry L1 but stay in the 512-entry
    // L2.
    for (std::uint64_t i = 0; i < 256; ++i)
        tlb.fill(i * 4_KiB, PageSize::Page4K);
    auto outcome = tlb.lookup(0, PageSize::Page4K);
    EXPECT_EQ(outcome, TlbOutcome::L2Hit);
    EXPECT_EQ(tlb.l2Hits(), 1u);
    // An L2 hit promotes to L1: next access is an L1 hit.
    EXPECT_EQ(tlb.lookup(0, PageSize::Page4K), TlbOutcome::L1Hit);
}

TEST(TlbSystem, SandyBridge2mSkipsL2)
{
    // SNB's L2 TLB holds 4KB translations only: a 2MB translation
    // evicted from L1 must walk again (Miss, not L2Hit).
    TlbSystem tlb(L1TlbConfig{}, sandyBridgeL2());
    for (std::uint64_t i = 0; i < 64; ++i)
        tlb.fill(i * 2_MiB, PageSize::Page2M);
    EXPECT_EQ(tlb.lookup(0, PageSize::Page2M), TlbOutcome::Miss);
    EXPECT_FALSE(tlb.l2Holds(PageSize::Page2M));
}

TEST(TlbSystem, Broadwell2mSharesL2)
{
    TlbSystem tlb(L1TlbConfig{}, broadwellL2());
    for (std::uint64_t i = 0; i < 64; ++i)
        tlb.fill(i * 2_MiB, PageSize::Page2M);
    EXPECT_EQ(tlb.lookup(0, PageSize::Page2M), TlbOutcome::L2Hit);
    EXPECT_TRUE(tlb.l2Holds(PageSize::Page2M));
}

TEST(TlbSystem, Broadwell1gHasDedicatedArray)
{
    TlbSystem tlb(L1TlbConfig{}, broadwellL2());
    // Push 8 x 1GB translations: more than the 4-entry L1 but within
    // the 16-entry L2 1GB array.
    for (std::uint64_t i = 0; i < 8; ++i)
        tlb.fill(i * 1_GiB, PageSize::Page1G);
    EXPECT_EQ(tlb.lookup(0, PageSize::Page1G), TlbOutcome::L2Hit);

    TlbSystem snb(L1TlbConfig{}, sandyBridgeL2());
    for (std::uint64_t i = 0; i < 8; ++i)
        snb.fill(i * 1_GiB, PageSize::Page1G);
    EXPECT_EQ(snb.lookup(0, PageSize::Page1G), TlbOutcome::Miss);
}

TEST(TlbSystem, PageSizesDoNotAlias)
{
    // A 2MB translation of a region must not answer 4KB lookups of
    // the same addresses, and vice versa.
    TlbSystem tlb(L1TlbConfig{}, broadwellL2());
    tlb.fill(0x40000000ULL, PageSize::Page2M);
    EXPECT_EQ(tlb.lookup(0x40000000ULL, PageSize::Page4K),
              TlbOutcome::Miss);
}

TEST(TlbSystem, CountersMatchOutcomes)
{
    TlbSystem tlb(L1TlbConfig{}, broadwellL2());
    std::uint64_t h = 0, m = 0, l1 = 0;
    for (std::uint64_t i = 0; i < 3000; ++i) {
        VirtAddr va = (i % 700) * 4_KiB;
        auto outcome = tlb.lookup(va, PageSize::Page4K);
        switch (outcome) {
          case TlbOutcome::L1Hit:
            ++l1;
            break;
          case TlbOutcome::L2Hit:
            ++h;
            break;
          case TlbOutcome::Miss:
            ++m;
            tlb.fill(va, PageSize::Page4K);
            break;
        }
    }
    EXPECT_EQ(tlb.l1Hits(), l1);
    EXPECT_EQ(tlb.l2Hits(), h);
    EXPECT_EQ(tlb.fullMisses(), m);
    EXPECT_EQ(l1 + h + m, 3000u);
    EXPECT_GT(h, 0u);
    EXPECT_GT(m, 0u);
}

class TlbReachTest : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(TlbReachTest, WorkingSetsWithinL1ReachNeverMissTwice)
{
    // Property: a working set of N <= 32 2MB pages (L1 2MB capacity),
    // accessed round-robin, misses each page exactly once.
    std::uint64_t pages = GetParam();
    TlbSystem tlb(L1TlbConfig{}, broadwellL2());
    std::uint64_t misses = 0;
    for (int round = 0; round < 5; ++round) {
        for (std::uint64_t p = 0; p < pages; ++p) {
            if (tlb.lookup(p * 2_MiB, PageSize::Page2M) ==
                TlbOutcome::Miss) {
                ++misses;
                tlb.fill(p * 2_MiB, PageSize::Page2M);
            }
        }
    }
    EXPECT_EQ(misses, pages);
}

INSTANTIATE_TEST_SUITE_P(Sweep, TlbReachTest,
                         ::testing::Values(1u, 4u, 8u, 16u, 32u));

namespace
{

/** One TLB array geometry from Table 4 of the paper. */
struct TlbShape
{
    const char *label;
    std::uint32_t entries;
    std::uint32_t ways;
    std::uint32_t expectWays;
    std::uint32_t expectSets;
};

/**
 * Print a shape by its label. GoogleTest's fallback dumps the raw
 * bytes, label pointer included, and gtest_discover_tests names each
 * case after that dump — so the test names changed with every build.
 */
void
PrintTo(const TlbShape &shape, std::ostream *os)
{
    *os << shape.label;
}

} // namespace

class TlbShapeTest : public ::testing::TestWithParam<TlbShape>
{
};

TEST_P(TlbShapeTest, GeometryDerivesAndClampsSafely)
{
    // Regression for the ctor hardening: every Table-4 shape —
    // including the degenerate ones (absent arrays, ways exceeding
    // entries) — must derive a sane geometry instead of dividing by
    // zero or mis-sizing the set count.
    const TlbShape &shape = GetParam();
    TlbArray array(shape.entries, shape.ways);
    EXPECT_EQ(array.present(), shape.entries != 0) << shape.label;
    EXPECT_EQ(array.numEntries(), shape.entries) << shape.label;
    EXPECT_EQ(array.numWays(), shape.expectWays) << shape.label;
    EXPECT_EQ(array.numSets(), shape.expectSets) << shape.label;
}

TEST_P(TlbShapeTest, FillsToCapacityAndNoFurther)
{
    // Insert exactly `entries` keys that spread across all sets, then
    // `entries` more: a correct geometry retains exactly one array's
    // worth; a mis-derived set mask would thrash or alias.
    const TlbShape &shape = GetParam();
    TlbArray array(shape.entries, shape.ways);
    if (shape.entries == 0) {
        array.insert(4); // must be a harmless no-op
        EXPECT_FALSE(array.lookup(4));
        return;
    }
    for (std::uint64_t k = 0; k < shape.entries; ++k)
        array.insert(k << 2);
    unsigned resident = 0;
    for (std::uint64_t k = 0; k < shape.entries; ++k)
        resident += array.lookup(k << 2) ? 1 : 0;
    EXPECT_EQ(resident, shape.entries) << shape.label;

    for (std::uint64_t k = shape.entries; k < 2 * shape.entries; ++k)
        array.insert(k << 2);
    resident = 0;
    for (std::uint64_t k = 0; k < 2 * shape.entries; ++k)
        resident += array.lookup(k << 2) ? 1 : 0;
    EXPECT_EQ(resident, shape.entries) << shape.label;
}

INSTANTIATE_TEST_SUITE_P(
    Table4, TlbShapeTest,
    ::testing::Values(
        // L1 arrays (all generations).
        TlbShape{"l1_4k_64x4", 64, 4, 4, 16},
        TlbShape{"l1_2m_32x4", 32, 4, 4, 8},
        // The 4-entry 1GB array: ways == entries, fully associative.
        TlbShape{"l1_1g_4x4", 4, 4, 4, 1},
        // ways > entries must clamp to fully associative, not assert.
        TlbShape{"l1_1g_4x16_clamped", 4, 16, 4, 1},
        // ways == 0 likewise means fully associative.
        TlbShape{"l1_1g_4x0_clamped", 4, 0, 4, 1},
        // L2 arrays: SNB/IVB, HSW, BDW/SKL (+ the 16-entry 1GB side
        // array, fully associative).
        TlbShape{"l2_snb_512x4", 512, 4, 4, 128},
        TlbShape{"l2_hsw_1024x8", 1024, 8, 8, 128},
        TlbShape{"l2_bdw_1536x12", 1536, 12, 12, 128},
        TlbShape{"l2_bdw_1g_16x16", 16, 16, 16, 1},
        // Absent arrays (SNB has no L2 1GB entries): 0 entries must
        // not derive any geometry.
        TlbShape{"absent_0x0", 0, 0, 0, 0},
        TlbShape{"absent_0x4", 0, 4, 0, 0}));

TEST(TlbSystem, FullyAssociative1gArrayRetainsFourPages)
{
    // The 4-entry fully-associative L1 1GB array on a platform with no
    // L2 1GB backing (SandyBridge): 4 huge pages round-robin must miss
    // once each, and a 5th must evict the LRU one.
    TlbSystem tlb(L1TlbConfig{}, sandyBridgeL2());
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t p = 0; p < 4; ++p) {
            if (tlb.lookup(p * 1_GiB, PageSize::Page1G) ==
                TlbOutcome::Miss)
                tlb.fill(p * 1_GiB, PageSize::Page1G);
        }
    }
    EXPECT_EQ(tlb.fullMisses(), 4u);

    tlb.fill(4 * 1_GiB, PageSize::Page1G); // evicts the LRU page (0)
    EXPECT_EQ(tlb.lookup(0, PageSize::Page1G), TlbOutcome::Miss);
    EXPECT_EQ(tlb.lookup(4 * 1_GiB, PageSize::Page1G),
              TlbOutcome::L1Hit);
}

namespace
{

/**
 * Naive reference of TlbArray's documented replacement contract:
 * linear scans over (key, lastUse) pairs, no packed recency, no vector
 * scans, no repeat-hit memo. Rules, stated literally: lookup hit
 * refreshes lastUse; insert refreshes a resident key; otherwise the
 * victim is the LAST empty way if any way is empty, else the way with
 * the smallest lastUse (timestamps of resident keys are unique);
 * invalidate empties the key's way and zeroes its stamp.
 */
class ReferenceTlbArray
{
  public:
    ReferenceTlbArray(std::uint32_t entries, std::uint32_t ways)
        : ways_(ways == 0 || ways > entries ? entries : ways),
          sets_(entries == 0 ? 0 : entries / ways_), keys_(entries, kEmpty),
          lastUse_(entries, 0)
    {
    }

    bool
    lookup(std::uint64_t key)
    {
        if (sets_ == 0)
            return false;
        std::uint64_t base = ((key >> 2) % sets_) * ways_;
        ++clock_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (keys_[base + w] == key) {
                lastUse_[base + w] = clock_;
                return true;
            }
        }
        return false;
    }

    void
    insert(std::uint64_t key)
    {
        if (sets_ == 0)
            return;
        std::uint64_t base = ((key >> 2) % sets_) * ways_;
        ++clock_;
        int victim = -1;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (keys_[base + w] == key) {
                lastUse_[base + w] = clock_;
                return;
            }
        }
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (keys_[base + w] == kEmpty)
                victim = static_cast<int>(w);
        }
        if (victim < 0) {
            victim = 0;
            for (std::uint32_t w = 1; w < ways_; ++w) {
                if (lastUse_[base + w] <
                    lastUse_[base + static_cast<std::uint32_t>(victim)])
                    victim = static_cast<int>(w);
            }
        }
        keys_[base + static_cast<std::uint32_t>(victim)] = key;
        lastUse_[base + static_cast<std::uint32_t>(victim)] = clock_;
    }

    void
    invalidate(std::uint64_t key)
    {
        if (sets_ == 0)
            return;
        std::uint64_t base = ((key >> 2) % sets_) * ways_;
        for (std::uint32_t w = 0; w < ways_; ++w) {
            if (keys_[base + w] == key) {
                keys_[base + w] = kEmpty;
                lastUse_[base + w] = 0;
            }
        }
    }

  private:
    static constexpr std::uint64_t kEmpty = ~0ULL;
    std::uint32_t ways_;
    std::uint64_t sets_;
    std::vector<std::uint64_t> keys_;
    std::vector<std::uint64_t> lastUse_;
    std::uint64_t clock_ = 0;
};

} // namespace

/**
 * The vectorized lookup/insert paths against the reference, across
 * every TLB and page-walk-cache geometry the platforms instantiate
 * (set-associative L1/L2 shapes, the fully-associative 1GB arrays and
 * PWCs, and the 32-entry PDE cache that keeps rank bytes instead of a
 * packed stack). Interleaved lookups, inserts and shootdowns with
 * warm-up, steady-state eviction and re-reference; any divergence in
 * the victim order (the last empty way while a set warms up, or
 * again after an invalidation, then the LRU way), in the repeat-hit
 * memo or in the miss memo (half the missed lookups are filled at
 * once, as the replay path does) shows up as a hit/miss mismatch at
 * a concrete step.
 * Runs under every SIMD tier, since the rank-byte updates have a
 * vector and a scalar form.
 */
TEST(TlbArray, MatchesReferenceModelAcrossGeometries)
{
    struct Shape
    {
        std::uint32_t entries, ways;
    };
    constexpr Shape kShapes[] = {
        {64, 4},   {32, 4},  {4, 4}, {512, 4},  {1024, 8},
        {1536, 12}, {16, 16}, {2, 2}, {32, 32}, {32, 0},
    };
    struct TierGuard
    {
        simd::Tier saved = simd::activeTier();
        ~TierGuard() { simd::setTier(saved); }
    } guard;
    for (simd::Tier tier : {simd::Tier::Scalar, simd::compiledTier()}) {
        simd::setTier(tier);
        for (const auto &shape : kShapes) {
            TlbArray array(shape.entries, shape.ways);
            ReferenceTlbArray reference(shape.entries, shape.ways);
            std::uint64_t state = 0x243f6a8885a308d3ULL ^ shape.entries;
            auto next = [&state]() {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                return state;
            };
            std::uint64_t hits = 0, misses = 0;
            for (int i = 0; i < 50000; ++i) {
                // Keys over ~2x capacity force evictions; low bits
                // carry a fake page-size tag as TlbSystem's makeKey
                // does.
                std::uint64_t key =
                    ((next() % (2 * shape.entries + 3)) << 2) |
                    (next() % 3);
                std::uint64_t op = next() % 16;
                if (op < 5) {
                    array.insert(key);
                    reference.insert(key);
                } else if (op == 5) {
                    array.invalidate(key);
                    reference.invalidate(key);
                } else {
                    bool hit = array.lookup(key);
                    ASSERT_EQ(hit, reference.lookup(key))
                        << simd::tierName(tier)
                        << " entries=" << shape.entries
                        << " ways=" << shape.ways << " step " << i;
                    hit ? ++hits : ++misses;
                    if (!hit && op % 2 == 0) {
                        // The replay path's fill of a key that just
                        // missed (the miss memo skips its scan).
                        array.insert(key);
                        reference.insert(key);
                    }
                }
            }
            EXPECT_EQ(array.hits, hits);
            EXPECT_EQ(array.misses, misses);
            EXPECT_GT(hits, 0u);
            EXPECT_GT(misses, 0u);
        }
    }
}
