/**
 * @file
 * Equivalence tests for the vectorized key/tag scans.
 *
 * The scans in support/simd.hh are drop-in replacements for scalar
 * first-match loops in the replay hot path; the whole correctness
 * story of the SIMD kernel rests on every tier returning the same
 * index for the same input. These tests fuzz both primitives
 * (findKey, findKey32) across every reachable tier, every count 1..32
 * (covering the 4-way TLBs, 8/16-way caches and the 32-entry
 * fully-associative PWC; findKey up to its 64-key limit), needle
 * present / absent / duplicated, and misaligned buffer offsets (the
 * set base address is never guaranteed 16-byte aligned).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <vector>

#include "support/random.hh"
#include "support/simd.hh"

using namespace mosaic;
using namespace mosaic::simd;

namespace
{

/** Scalar reference: lowest match. */
template <typename T>
int
refFirst(const T *keys, unsigned count, T needle)
{
    for (unsigned i = 0; i < count; ++i)
        if (keys[i] == needle)
            return static_cast<int>(i);
    return -1;
}

/** Tiers reachable in this binary (compiled ceiling applies). */
std::vector<Tier>
reachableTiers()
{
    std::vector<Tier> tiers{Tier::Scalar};
    if (compiledTier() >= Tier::Sse2)
        tiers.push_back(Tier::Sse2);
    if (compiledTier() >= Tier::Avx2)
        tiers.push_back(Tier::Avx2);
    return tiers;
}

/** Restore the ambient tier even if an assertion aborts the test. */
struct TierGuard
{
    Tier saved = activeTier();
    ~TierGuard() { setTier(saved); }
};

} // namespace

TEST(Simd, SetTierClampsToCompiledTier)
{
    TierGuard guard;
    setTier(Tier::Avx2);
    EXPECT_LE(activeTier(), compiledTier());
    setTier(Tier::Scalar);
    EXPECT_EQ(activeTier(), Tier::Scalar);
}

TEST(Simd, FindKey64AllTiersMatchReference)
{
    TierGuard guard;
    Rng rng(0xf00d);
    // Up to the 64 keys one mask word covers (TlbArray pads its sets
    // to whole vectors, so counts past 32 are reachable).
    for (unsigned count = 1; count <= kMaxFindKeys; ++count) {
        for (int trial = 0; trial < 200; ++trial) {
            // Offset into an oversized buffer: exercises unaligned
            // loads and proves the scans never read past count.
            std::vector<std::uint64_t> buffer(count + 9,
                                              0xdeadbeefcafe0000ULL);
            std::uint64_t *keys = buffer.data() + (trial % 4);
            for (unsigned i = 0; i < count; ++i)
                keys[i] = rng.nextBounded(count + 3); // dups likely
            std::uint64_t needle = rng.nextBounded(count + 3);
            int expected = refFirst(keys, count, needle);
            for (Tier tier : reachableTiers()) {
                setTier(tier);
                EXPECT_EQ(findKey(keys, count, needle), expected)
                    << tierName(tier) << " count=" << count
                    << " trial=" << trial;
            }
        }
    }
}

TEST(Simd, FindKey32AllTiersMatchReference)
{
    TierGuard guard;
    Rng rng(0xbeef);
    for (unsigned count = 1; count <= 32; ++count) {
        for (int trial = 0; trial < 200; ++trial) {
            std::vector<std::uint32_t> buffer(count + 17, 0xabad1deau);
            std::uint32_t *keys = buffer.data() + (trial % 8);
            for (unsigned i = 0; i < count; ++i)
                keys[i] =
                    static_cast<std::uint32_t>(rng.nextBounded(count + 3));
            auto needle =
                static_cast<std::uint32_t>(rng.nextBounded(count + 3));
            int expected = refFirst(keys, count, needle);
            for (Tier tier : reachableTiers()) {
                setTier(tier);
                EXPECT_EQ(findKey32(keys, count, needle), expected)
                    << tierName(tier) << " count=" << count
                    << " trial=" << trial;
            }
        }
    }
}
