/**
 * @file
 * A set-associative cache model with true-LRU replacement.
 *
 * The hierarchy tracks which requester touched it (the program or the
 * hardware page-table walker) because the paper's Table 7 shows walker
 * references polluting the data caches — one of the mechanisms behind
 * runtime growing *faster* than linearly in walk cycles.
 *
 * access()/probe() are header-inline: they run several times per trace
 * record in the replay inner loop. Recency is kept as one packed
 * 64-bit LRU stack per set (support/packed_lru.hh, shared with the
 * TLB arrays) instead of per-way timestamps: the victim is read
 * straight off the stack tail with no per-way bookkeeping, the hit
 * path refreshes recency with a branchless nibble splice, and a set's
 * tags are stored as 4 bytes per way, so a 16-way L3 set's tags fit
 * one host cache line and the largest tag array stays host-L2-resident. The
 * packed form caps associativity at 16 ways (the largest any modelled
 * platform uses).
 */

#ifndef MOSAIC_MEMHIER_CACHE_HH
#define MOSAIC_MEMHIER_CACHE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/logging.hh"
#include "support/packed_lru.hh"
#include "support/simd.hh"
#include "support/types.hh"

namespace mosaic::mem
{

/** Who issued a memory reference. */
enum class Requester : std::uint8_t
{
    Program = 0,
    Walker = 1,
    Prefetcher = 2,
};

/** Per-requester hit/miss counters for one cache level. */
struct CacheStats
{
    std::uint64_t hits[3] = {0, 0, 0};
    std::uint64_t misses[3] = {0, 0, 0};

    std::uint64_t
    accesses(Requester req) const
    {
        auto i = static_cast<std::size_t>(req);
        return hits[i] + misses[i];
    }

    std::uint64_t totalAccesses() const
    {
        return accesses(Requester::Program) +
               accesses(Requester::Walker) +
               accesses(Requester::Prefetcher);
    }

    std::uint64_t totalMisses() const
    {
        return misses[0] + misses[1] + misses[2];
    }
};

/** Geometry and identity of one cache level. */
struct CacheConfig
{
    std::string name = "cache";
    Bytes capacity = 32_KiB;
    unsigned ways = 8;
    Bytes lineSize = 64;
};

/**
 * Set-associative, write-allocate cache with true-LRU replacement.
 *
 * Data contents are not stored (the simulation is timing-only); each
 * way keeps a tag, and each set a packed LRU order.
 */
class Cache
{
  public:
    explicit Cache(const CacheConfig &config);

    /**
     * Access the line containing @p addr.
     * @return true on hit; on miss the line is allocated (LRU victim).
     */
    inline bool access(PhysAddr addr, Requester requester);

    /** Probe without changing state. @return true if resident. */
    inline bool probe(PhysAddr addr) const;

    /**
     * Hint the host CPU to pull @p addr's set metadata into its own
     * caches. Purely a host-side prefetch: no simulated state (tags,
     * LRU, stats) is touched, so issuing or skipping it can never
     * change a counter.
     */
    inline void prefetchSet(PhysAddr addr) const;

    /** Invalidate all lines and reset the LRU order (not the stats). */
    void flush();

    const CacheConfig &config() const { return config_; }
    const CacheStats &stats() const { return stats_; }
    void clearStats() { stats_ = CacheStats(); }

    std::uint64_t numSets() const { return numSets_; }

  private:
    /**
     * Tag of an empty way. Tags are stored narrow (32-bit) so a
     * 16-way L3 set's tags fit one host cache line and the largest
     * tag array stays L2-resident on the host; accessImpl asserts
     * every real tag fits below the sentinel (simulated physical
     * memory is a few GiB, so line >> setShift has ample headroom).
     */
    static constexpr std::uint32_t kEmptyTag = ~0u;

    template <unsigned kWays>
    inline bool accessImpl(PhysAddr addr, Requester requester);

    CacheConfig config_;
    std::uint64_t numSets_;
    std::uint64_t setMask_;
    unsigned lineShift_;
    unsigned setShift_;
    unsigned numWays_; ///< config_.ways, hoisted for the scan
    std::vector<std::uint32_t> tags_; ///< numSets_ x ways, row-major
    std::vector<std::uint64_t> lruStack_; ///< one packed stack per set
    CacheStats stats_;
};

template <unsigned kWays>
bool
Cache::accessImpl(PhysAddr addr, Requester requester)
{
    const unsigned ways = kWays > 0 ? kWays : numWays_;
    std::uint64_t line = addr >> lineShift_;
    std::uint64_t set = line & setMask_;
    // Lossless narrowing: for the unrolled arms the constructor proves
    // every address below kMaxSimPhysAddr tags under the sentinel (and
    // the FramePool enforces that bound on each allocation); the generic arm
    // serves arbitrary test geometries, so it checks each access —
    // off the replay hot path, the branch costs nothing.
    if constexpr (kWays == 0) {
        mosaic_assert((line >> setShift_) < kEmptyTag,
                      "address tags above the 32-bit sentinel in ",
                      config_.name);
    }
    auto tag = static_cast<std::uint32_t>(line >> setShift_);
    std::uint32_t *base = &tags_[set * ways];
    std::uint64_t &stack = lruStack_[set];

    auto req = static_cast<std::size_t>(requester);

    // Vectorized tag scan: one data-parallel compare across the whole
    // set (kWays constant => the chunk loop unrolls flat). Tags are
    // unique within a set, so the scan's lowest-match contract makes
    // it behaviourally identical to the original way-by-way loop.
    int w = simd::findKey32(base, ways, tag);
    if (w >= 0) {
        stack = lru::touch(stack, static_cast<unsigned>(w));
        ++stats_.hits[req];
        return true;
    }

    // Miss: the victim is the stack tail — the LRU way once the set is
    // full, the highest-index empty way while it is warming up (see
    // lru::kSeed). Allocating makes it MRU.
    base[lru::wayAt(stack, ways - 1)] = tag;
    stack = lru::spliceToFront(stack, ways - 1);
    ++stats_.misses[req];
    return false;
}

bool
Cache::access(PhysAddr addr, Requester requester)
{
    // Compile-time trip counts for the associativities every modelled
    // platform uses (8-way L1d/L2, 16-way L3): the unrolled scans
    // have no loop overhead. Behaviour is identical across arms.
    switch (numWays_) {
      case 8:
        return accessImpl<8>(addr, requester);
      case 16:
        return accessImpl<16>(addr, requester);
      default:
        return accessImpl<0>(addr, requester);
    }
}

bool
Cache::probe(PhysAddr addr) const
{
    std::uint64_t line = addr >> lineShift_;
    std::uint64_t set = line & setMask_;
    auto tag = static_cast<std::uint32_t>(line >> setShift_);
    const std::uint32_t *base = &tags_[set * numWays_];
    return simd::findKey32(base, numWays_, tag) >= 0;
}

void
Cache::prefetchSet(PhysAddr addr) const
{
    std::uint64_t set = (addr >> lineShift_) & setMask_;
    const char *base =
        reinterpret_cast<const char *>(&tags_[set * numWays_]);
    // A set's tags span numWays_ * 8 bytes (up to 2 host lines for a
    // 16-way L3 set). Read-intent prefetch: PREFETCHW is painfully
    // slow under some hypervisors, and the scan reads before it
    // writes anyway.
    for (unsigned offset = 0; offset < numWays_ * sizeof(std::uint32_t);
         offset += 64)
        __builtin_prefetch(base + offset, 0, 3);
    // The set's packed LRU stack lives in a separate array (8B per
    // set, ~120KB for the largest modelled L3) and every access reads
    // and rewrites it; pull its line too.
    __builtin_prefetch(&lruStack_[set], 0, 3);
}

} // namespace mosaic::mem

#endif // MOSAIC_MEMHIER_CACHE_HH
