/**
 * @file
 * Property-style sweeps over cache geometry: invariants that must hold
 * for any set-associative LRU cache.
 */

#include <gtest/gtest.h>

#include <ostream>

#include "memhier/cache.hh"
#include "support/random.hh"

using namespace mosaic;
using namespace mosaic::mem;

namespace
{

struct Geometry
{
    Bytes capacity;
    unsigned ways;
};

/**
 * Print a geometry as "<capacity>_<ways>way". GoogleTest's fallback
 * dumps the raw bytes, uninitialised padding included, and
 * gtest_discover_tests names each case after that dump — so the test
 * names changed from build to build.
 */
void
PrintTo(const Geometry &geometry, std::ostream *os)
{
    if (geometry.capacity % 1_MiB == 0)
        *os << geometry.capacity / 1_MiB << "MiB";
    else
        *os << geometry.capacity / 1_KiB << "KiB";
    *os << "_" << geometry.ways << "way";
}

} // namespace

class CacheGeometryTest : public ::testing::TestWithParam<Geometry>
{
};

TEST_P(CacheGeometryTest, WorkingSetWithinCapacityMissesOnce)
{
    // Round-robin over a working set no larger than the capacity: LRU
    // guarantees each line misses exactly once (no thrashing).
    auto [capacity, ways] = GetParam();
    Cache cache(CacheConfig{"sweep", capacity, ways, 64});
    const std::uint64_t lines = capacity / 64;
    for (int round = 0; round < 4; ++round) {
        for (std::uint64_t i = 0; i < lines; ++i)
            cache.access(i * 64, Requester::Program);
    }
    EXPECT_EQ(cache.stats().totalMisses(), lines);
}

TEST_P(CacheGeometryTest, OversizedWorkingSetThrashes)
{
    // Round-robin over 2x the capacity: LRU evicts every line before
    // reuse, so every access misses.
    auto [capacity, ways] = GetParam();
    Cache cache(CacheConfig{"sweep", capacity, ways, 64});
    const std::uint64_t lines = 2 * capacity / 64;
    std::uint64_t accesses = 0;
    for (int round = 0; round < 3; ++round) {
        for (std::uint64_t i = 0; i < lines; ++i, ++accesses)
            cache.access(i * 64, Requester::Program);
    }
    EXPECT_EQ(cache.stats().totalMisses(), accesses);
}

TEST_P(CacheGeometryTest, HitRateNeverExceedsOneMinusCompulsory)
{
    auto [capacity, ways] = GetParam();
    Cache cache(CacheConfig{"sweep", capacity, ways, 64});
    Rng rng(capacity ^ ways);
    const int n = 20000;
    std::uint64_t distinct_span = 4 * capacity;
    for (int i = 0; i < n; ++i)
        cache.access(rng.nextBounded(distinct_span), Requester::Program);
    const auto &stats = cache.stats();
    EXPECT_EQ(stats.totalAccesses(), static_cast<std::uint64_t>(n));
    // Misses at least cover the compulsory distinct-line count.
    EXPECT_GE(stats.totalMisses(), capacity / 64 / 2);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CacheGeometryTest,
    ::testing::Values(Geometry{4_KiB, 1}, Geometry{4_KiB, 4},
                      Geometry{32_KiB, 8}, Geometry{256_KiB, 8},
                      Geometry{1_MiB, 16}));

namespace
{

/**
 * Naive reference implementation of the cache's documented
 * replacement contract, written with none of the production tricks
 * (no packed LRU stack, no vectorized scans, no narrow tags): per-way
 * valid bit + full tag + monotonic use timestamp, linear scans.
 *
 * Replacement rules, stated once and encoded literally:
 *  - hit: refresh the way's timestamp;
 *  - miss with empty ways: victim is the LAST (highest-index) empty
 *    way — the pinned warm-up rule the seed stack reproduces;
 *  - miss with a full set: victim is the way with the smallest
 *    timestamp (timestamps are unique, so no tie rule is needed).
 */
class ReferenceLruCache
{
  public:
    ReferenceLruCache(Bytes capacity, unsigned ways, Bytes lineSize)
        : ways_(ways), lineSize_(lineSize),
          numSets_(capacity / lineSize / ways),
          sets_(numSets_ * ways)
    {
    }

    bool
    access(PhysAddr addr)
    {
        std::uint64_t line = addr / lineSize_;
        std::uint64_t set = line % numSets_;
        std::uint64_t tag = line / numSets_;
        Way *base = &sets_[set * ways_];
        ++clock_;
        for (unsigned w = 0; w < ways_; ++w) {
            if (base[w].valid && base[w].tag == tag) {
                base[w].lastUse = clock_;
                return true;
            }
        }
        int victim = -1;
        for (unsigned w = 0; w < ways_; ++w) {
            if (!base[w].valid)
                victim = static_cast<int>(w);
        }
        if (victim < 0) {
            victim = 0;
            for (unsigned w = 1; w < ways_; ++w) {
                if (base[w].lastUse <
                    base[static_cast<unsigned>(victim)].lastUse)
                    victim = static_cast<int>(w);
            }
        }
        base[victim] = {tag, clock_, true};
        return false;
    }

  private:
    struct Way
    {
        std::uint64_t tag = 0;
        std::uint64_t lastUse = 0;
        bool valid = false;
    };

    unsigned ways_;
    Bytes lineSize_;
    std::uint64_t numSets_;
    std::vector<Way> sets_;
    std::uint64_t clock_ = 0;
};

} // namespace

/**
 * Per-access equivalence against the reference model across every
 * associativity the packed stack supports (1..16 ways). The stream
 * mixes uniform-random lines over 4x the capacity (evictions), a hot
 * subset (hits, LRU refreshes) and strided sweeps (warm-up order per
 * set), so warm sets, full sets and re-reference after eviction are
 * all exercised; any divergence in the splice/victim machinery shows
 * up as a hit/miss mismatch at a concrete access index.
 */
class CacheReferenceTest : public ::testing::TestWithParam<unsigned>
{
};

TEST_P(CacheReferenceTest, MatchesNaiveLruModelPerAccess)
{
    const unsigned ways = GetParam();
    const Bytes line = 64;
    const std::uint64_t sets = 8;
    const Bytes capacity = ways * sets * line;
    Cache cache(CacheConfig{"ref-sweep", capacity, ways, line});
    ReferenceLruCache reference(capacity, ways, line);

    Rng rng(0x5eedULL + ways);
    const std::uint64_t span_lines = 4 * capacity / line;
    std::uint64_t hits = 0, misses = 0;
    for (int i = 0; i < 30000; ++i) {
        std::uint64_t pick = rng.nextBounded(10);
        std::uint64_t line_index;
        if (pick < 4) {
            line_index = rng.nextBounded(span_lines); // evict traffic
        } else if (pick < 8) {
            line_index = rng.nextBounded(ways + 1); // hot subset
        } else {
            // Strided sweep position: walks sets in order, so each
            // set sees its ways fill in a deterministic sequence.
            line_index = (static_cast<std::uint64_t>(i) * 3) %
                         span_lines;
        }
        PhysAddr addr = line_index * line;
        bool hit = cache.access(addr, Requester::Program);
        bool expected = reference.access(addr);
        ASSERT_EQ(hit, expected)
            << "divergence from reference LRU at access " << i
            << " (ways=" << ways << ", addr=" << addr << ")";
        hit ? ++hits : ++misses;
    }
    EXPECT_EQ(cache.stats().hits[0], hits);
    EXPECT_EQ(cache.stats().misses[0], misses);
    // The stream must actually exercise both outcomes.
    EXPECT_GT(hits, 0u);
    EXPECT_GT(misses, 0u);
}

INSTANTIATE_TEST_SUITE_P(AllWays, CacheReferenceTest,
                         ::testing::Range(1u, 17u));

/**
 * The warm-up edge case in isolation: conflicting lines fill a set's
 * empty ways from the highest index down (the pinned rule), every
 * fill is a miss, residents then all hit, and the first eviction takes
 * the true LRU way, not an artifact of the seed order.
 */
TEST(CacheWarmupProperty, FillOrderThenLruEviction)
{
    for (unsigned ways = 1; ways <= 16; ++ways) {
        const Bytes line = 64;
        // >= 8 sets: the 32-bit-tag geometry bound needs
        // lineShift + setShift >= 9 (see the Cache constructor).
        const std::uint64_t sets = 8;
        Cache cache(
            CacheConfig{"warmup", ways * sets * line, ways, line});
        // Lines that all map to set 0: line index = k * sets.
        auto conflicting = [&](std::uint64_t k) {
            return static_cast<PhysAddr>(k * sets * line);
        };
        for (std::uint64_t k = 0; k < ways; ++k)
            EXPECT_FALSE(cache.access(conflicting(k),
                                      Requester::Program))
                << "fill " << k << " of a " << ways
                << "-way set must miss";
        for (std::uint64_t k = 0; k < ways; ++k)
            EXPECT_TRUE(cache.access(conflicting(k),
                                     Requester::Program))
                << "resident line " << k << " must hit (ways="
                << ways << ")";
        // One more conflicting line evicts the LRU resident — line 0,
        // the first one re-touched in the hit pass.
        EXPECT_FALSE(cache.access(conflicting(ways),
                                  Requester::Program));
        EXPECT_FALSE(cache.access(conflicting(0), Requester::Program))
            << "LRU victim must have been line 0 (ways=" << ways
            << ")";
        // That probe miss re-inserted line 0, evicting the next LRU
        // resident (line 1); lines 2..ways-1 and the newcomer must
        // still be resident.
        for (std::uint64_t k = 2; k < ways; ++k)
            EXPECT_TRUE(cache.access(conflicting(k),
                                     Requester::Program))
                << "non-LRU resident " << k << " must survive "
                << "(ways=" << ways << ")";
        if (ways >= 2) {
            EXPECT_TRUE(cache.access(conflicting(ways),
                                     Requester::Program))
                << "newcomer must survive (ways=" << ways << ")";
        }
    }
}

class PwcReachTest : public ::testing::TestWithParam<std::uint32_t>
{
};

#include "vm/page_table.hh"
#include "vm/walker.hh"

TEST_P(PwcReachTest, LargerPdeCacheShortensMoreWalks)
{
    // Touch pages across R distinct 2MB regions twice. With a PDE
    // cache of E entries, the second pass gets 1-read walks for at
    // most min(E, R) regions.
    const std::uint32_t entries = GetParam();
    vm::FramePool mem;
    vm::PageTable table(mem);
    const std::uint32_t regions = 16;
    for (std::uint32_t r = 0; r < regions; ++r)
        table.map(0x4000000000ULL + r * 2_MiB, alloc::PageSize::Page4K,
                  0x80000000ULL + r * 4_KiB);

    mem::HierarchyConfig hconfig;
    hconfig.l1 = {"L1", 4_KiB, 2, 64};
    hconfig.l2 = {"L2", 32_KiB, 4, 64};
    hconfig.l3 = {"L3", 256_KiB, 8, 64};
    mem::MemoryHierarchy hierarchy(hconfig);
    vm::PwcConfig pwc{2, 4, entries};
    vm::PageWalker walker(table, hierarchy, pwc, 1);

    // First pass: train the PWCs (round-robin, LRU-hostile when
    // entries < regions).
    for (std::uint32_t r = 0; r < regions; ++r)
        walker.walk(0x4000000000ULL + r * 2_MiB, 0);
    auto first_hits = walker.stats().pwcHits[2];
    // Second pass.
    for (std::uint32_t r = 0; r < regions; ++r)
        walker.walk(0x4000000000ULL + r * 2_MiB, 1000000);
    auto second_hits = walker.stats().pwcHits[2] - first_hits;

    if (entries >= regions) {
        EXPECT_EQ(second_hits, regions);
    } else {
        // LRU round-robin over more regions than entries: no reuse.
        EXPECT_EQ(second_hits, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, PwcReachTest,
                         ::testing::Values(4u, 8u, 16u, 32u, 64u));
