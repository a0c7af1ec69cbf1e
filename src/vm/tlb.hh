/**
 * @file
 * Translation lookaside buffers.
 *
 * L1 TLBs are split per page size (Table 4: 64 x 4KB, 32 x 2MB,
 * 4 x 1GB entries on every modelled generation). The L2 TLB differs
 * per microarchitecture: SandyBridge/IvyBridge hold 4KB translations
 * only, Haswell shares 4KB+2MB entries, Broadwell/Skylake additionally
 * have a small 1GB array. Page sizes the L2 cannot hold fall straight
 * through to the page walker, exactly as on the real parts.
 *
 * The lookup/insert paths are header-inline: they run once per trace
 * record in the replay inner loop, and cross-TU calls cost more than
 * the 4-way scans themselves. Each is O(1) in the associativity: one
 * vector key compare plus a packed-LRU update, with no per-way
 * recency scan. The golden-counter suite pins their observable
 * behaviour (hit/miss counts and LRU order) bit-exactly.
 */

#ifndef MOSAIC_VM_TLB_HH
#define MOSAIC_VM_TLB_HH

#include <array>
#include <cstdint>
#include <vector>

#include "mosalloc/page_size.hh"
#include "support/packed_lru.hh"
#include "support/simd.hh"
#include "support/types.hh"

namespace mosaic::vm
{

/**
 * One set-associative translation array.
 *
 * The array stores opaque 64-bit keys; callers encode the virtual page
 * number and (for shared arrays) the page size into the key. The set
 * index is derived from the key's low bits, LRU replacement within a
 * set. Keys must never equal ~0 (the empty-way sentinel); real keys
 * are derived from 48-bit virtual addresses and cannot reach it.
 *
 * Replacement (pinned by the golden counters): a hit or a refill of a
 * resident key makes its way the most recent; a new key takes the
 * *last* empty way while the set has one, else the least recently
 * used way. Recency is exact LRU kept in O(1) per operation. A set of
 * up to 16 ways keeps one packed stack (support/packed_lru.hh, the
 * data caches' scheme), seeded so the empty ways form its tail,
 * highest index last: the tail is the victim in both phases. Wider
 * sets (the 32-entry PDE cache) keep one recency rank byte per way
 * with the same order, updated out of line.
 */
class TlbArray
{
  public:
    /**
     * @param entries total entry count (0 = array absent)
     * @param ways associativity; 0 or > entries clamps to entries
     *        (fully associative)
     */
    TlbArray(std::uint32_t entries, std::uint32_t ways);

    /** Look up @p key; updates LRU on hit. */
    inline bool lookup(std::uint64_t key);

    /** Install @p key (evicting the set's LRU victim on conflict). */
    inline void insert(std::uint64_t key);

    /** Drop @p key if present (single-entry shootdown). Off the hot
     *  path: runs only on frame-pool evictions. */
    void invalidate(std::uint64_t key);

    /** Drop all entries. */
    void flush();

    bool present() const { return entries_ != 0; }
    std::uint32_t numEntries() const { return entries_; }
    std::uint32_t numWays() const { return ways_; }
    std::uint32_t numSets() const { return numSets_; }

    std::uint64_t hits = 0;
    std::uint64_t misses = 0;

  private:
    /** Key value of an empty way; unreachable for real keys. */
    static constexpr std::uint64_t kEmptyKey = ~0ULL;

    /** Make way @p way of @p set the most recently used. */
    inline void touch(std::uint32_t set, unsigned way);

    /** touch() and insert()'s fill for sets wider than one packed
     *  stack: rank-byte updates, out of the inline paths. */
    [[gnu::noinline]] void touchRanked(std::uint32_t set, unsigned way);
    [[gnu::noinline]] void fillRanked(std::uint32_t set,
                                      std::uint64_t key);

    /** Recency rank bytes of @p set's ways (0 = MRU). */
    std::uint8_t *
    ranks(std::uint32_t set)
    {
        return &ranks_[static_cast<std::size_t>(set) * rankStride_];
    }

    std::uint32_t entries_;
    std::uint32_t ways_;
    std::uint32_t numSets_ = 0;
    std::uint64_t setMask_ = 0;

    /** Most ways a set may have: a set is one findKey() scan. */
    static constexpr std::uint32_t kMaxWays = simd::kMaxFindKeys;

    /** Way keys, numSets_ x keyStride_, row-major: a 4-way set is one
     *  32-byte vector compare. keyStride_ rounds ways_ up to 4, so
     *  every scan is whole vectors; the padding keys stay kEmptyKey,
     *  which no real key equals. */
    std::vector<std::uint64_t> keys_;
    std::uint32_t keyStride_ = 0;

    /** Way of @p set holding @p key, or -1. */
    int
    find(std::uint32_t set, std::uint64_t key) const
    {
        return simd::findKey(&keys_[static_cast<std::size_t>(set) *
                                    keyStride_],
                             keyStride_, key);
    }

    /** ways_ <= lru::kMaxWays: one packed LRU stack per set. */
    std::vector<std::uint64_t> lruStack_;

    /**
     * ways_ > lru::kMaxWays: each way's recency rank (0 = MRU,
     * ways_ - 1 = the victim), rankStride_ bytes per set. The stride
     * rounds ways_ up to 16 so every update is whole 16-byte vectors;
     * the padding ranks hold kPadRank, which no update moves and no
     * victim search matches.
     */
    std::vector<std::uint8_t> ranks_;
    std::uint32_t rankStride_ = 0;
    static constexpr std::uint8_t kPadRank = 0x7f;

    /** No-memo sentinel for lastHit_. */
    static constexpr std::uint32_t kNoWay = ~0u;

    /**
     * Slot (set * keyStride_ + way) that served the last hit, with
     * its set and way (repeat-lookup memo). Checked by key on every
     * use, so eviction or flush cannot make it serve a stale
     * translation; it only short-circuits the set scan, and keeping
     * the set and way spares the hit path a division. Indices (not a
     * pointer) keep copies of the array safe.
     */
    std::uint32_t lastHit_ = kNoWay;
    std::uint32_t lastSet_ = 0;
    std::uint32_t lastWay_ = 0;

    /**
     * Key of the last lookup() that missed, or kEmptyKey (miss memo).
     * Only an insert() can make it resident, and every insert() clears
     * it, so while it is set the key is known absent: an insert() of
     * it skips the refresh scan. Every fill on the replay path (the
     * L1 promotion after an L2 hit, the TLB fills and PWC installs
     * after a walk) inserts a key that just missed.
     */
    std::uint64_t lastMiss_ = kEmptyKey;
};

void
TlbArray::touch(std::uint32_t set, unsigned way)
{
    if (ways_ > lru::kMaxWays) [[unlikely]] {
        touchRanked(set, way);
        return;
    }
    std::uint64_t &stack = lruStack_[set];
    // MRU early-out: a run of hits on one page (the repeat-hit memo's
    // case) finds its way at the front already.
    if (lru::wayAt(stack, 0) != way)
        stack = lru::touch(stack, way);
}

bool
TlbArray::lookup(std::uint64_t key)
{
    if (entries_ == 0) {
        ++misses;
        return false;
    }
    // Repeat-hit fast path: the scan would find this same way and
    // perform exactly these updates.
    if (lastHit_ != kNoWay && keys_[lastHit_] == key) {
        touch(lastSet_, lastWay_);
        ++hits;
        return true;
    }
    // Low 2 bits of the key carry the page size; index above them.
    auto set = static_cast<std::uint32_t>((key >> 2) & setMask_);
    // Vectorized set scan; keys are unique within a set, so the
    // lowest-match contract reproduces the original loop exactly.
    int w = find(set, key);
    if (w >= 0) {
        auto way = static_cast<unsigned>(w);
        touch(set, way);
        lastHit_ = set * keyStride_ + way;
        lastSet_ = set;
        lastWay_ = way;
        ++hits;
        return true;
    }
    lastMiss_ = key;
    ++misses;
    return false;
}

void
TlbArray::insert(std::uint64_t key)
{
    if (entries_ == 0)
        return;
    auto set = static_cast<std::uint32_t>((key >> 2) & setMask_);
    if (key != lastMiss_) {
        int match = find(set, key);
        if (match >= 0) {
            touch(set, static_cast<unsigned>(match));
            return;
        }
    }
    lastMiss_ = kEmptyKey;
    if (ways_ > lru::kMaxWays) [[unlikely]] {
        fillRanked(set, key);
        return;
    }
    // The stack tail is the victim: the last empty way while the set
    // warms up, the LRU way once it is full.
    std::uint64_t &stack = lruStack_[set];
    keys_[set * keyStride_ + lru::wayAt(stack, ways_ - 1)] = key;
    stack = lru::spliceToFront(stack, ways_ - 1);
}

/** Split L1 TLB geometry: one array per page size. */
struct L1TlbConfig
{
    std::uint32_t entries4k = 64;
    std::uint32_t entries2m = 32;
    std::uint32_t entries1g = 4;
    std::uint32_t ways4k = 4;
    std::uint32_t ways2m = 4;
    std::uint32_t ways1g = 4; ///< == entries1g: fully associative
};

/** L2 ("STLB") configuration per Table 4 of the paper. */
struct L2TlbConfig
{
    /** Total shared entries (4KB, plus 2MB when shares2m). */
    std::uint32_t entries = 512;
    std::uint32_t ways = 4;

    /** Haswell onward: 2MB translations share the main array. */
    bool shares2m = false;

    /** Broadwell/Skylake: dedicated 1GB entries (0 = none). */
    std::uint32_t entries1g = 0;
};

/** Where a translation request was satisfied. */
enum class TlbOutcome : std::uint8_t
{
    L1Hit = 0,
    L2Hit = 1,  ///< counted as H in the paper's notation
    Miss = 2,   ///< counted as M; triggers a page walk
};

/**
 * Two-level TLB system with the paper's H/M accounting.
 */
class TlbSystem
{
  public:
    TlbSystem(const L1TlbConfig &l1, const L2TlbConfig &l2);

    /**
     * Look up @p vaddr, whose page is known to be @p size.
     * On Miss the caller must complete a walk and then call fill().
     */
    inline TlbOutcome lookup(VirtAddr vaddr, alloc::PageSize size);

    /** lookup() in two steps, so a caller can keep the L1 hit inline
     *  and the rest out of line: lookupL1() is true (and counted) on
     *  an L1 hit; after it returns false, lookupL2() gives L2Hit or
     *  Miss. */
    inline bool lookupL1(VirtAddr vaddr, alloc::PageSize size);
    inline TlbOutcome lookupL2(VirtAddr vaddr, alloc::PageSize size);

    /** Install a translation after a walk (fills L1 and L2). */
    inline void fill(VirtAddr vaddr, alloc::PageSize size);

    /** Shoot down one page's translation from both levels (the
     *  frame-pool eviction path; counts nothing). */
    void invalidate(VirtAddr vaddr, alloc::PageSize size);

    /** Drop all entries in both levels. */
    void flush();

    /** L2-TLB hits (the paper's H). */
    std::uint64_t l2Hits() const { return l2HitCount_; }

    /** Misses in both levels (the paper's M). */
    std::uint64_t fullMisses() const { return fullMissCount_; }

    std::uint64_t l1Hits() const { return l1HitCount_; }

    const TlbArray &l1Array(alloc::PageSize size) const;

    const TlbArray &l2Shared() const { return l2Shared_; }
    const TlbArray &l2Huge1g() const { return l2Huge1g_; }

    /** True if the L2 can hold translations of @p size. */
    bool
    l2Holds(alloc::PageSize size) const
    {
        switch (size) {
          case alloc::PageSize::Page4K:
            return l2Shared_.present();
          case alloc::PageSize::Page2M:
            return l2Config_.shares2m && l2Shared_.present();
          case alloc::PageSize::Page1G:
            return l2Huge1g_.present();
        }
        return false;
    }

  private:
    /** Size-disambiguated lookup key for shared arrays. */
    static std::uint64_t
    makeKey(VirtAddr vaddr, alloc::PageSize size)
    {
        std::uint64_t vpn = vaddr >> alloc::pageShift(size);
        return (vpn << 2) | static_cast<std::uint64_t>(size);
    }

    TlbArray &
    l1ArrayMut(alloc::PageSize size)
    {
        return l1_[static_cast<std::size_t>(size)];
    }

    std::array<TlbArray, alloc::numPageSizes> l1_;
    TlbArray l2Shared_;
    TlbArray l2Huge1g_;
    L2TlbConfig l2Config_;

    std::uint64_t l1HitCount_ = 0;
    std::uint64_t l2HitCount_ = 0;
    std::uint64_t fullMissCount_ = 0;
};

TlbOutcome
TlbSystem::lookup(VirtAddr vaddr, alloc::PageSize size)
{
    return lookupL1(vaddr, size) ? TlbOutcome::L1Hit
                                 : lookupL2(vaddr, size);
}

bool
TlbSystem::lookupL1(VirtAddr vaddr, alloc::PageSize size)
{
    if (!l1ArrayMut(size).lookup(makeKey(vaddr, size)))
        return false;
    ++l1HitCount_;
    return true;
}

TlbOutcome
TlbSystem::lookupL2(VirtAddr vaddr, alloc::PageSize size)
{
    std::uint64_t key = makeKey(vaddr, size);
    if (l2Holds(size)) {
        TlbArray &l2 = size == alloc::PageSize::Page1G ? l2Huge1g_
                                                       : l2Shared_;
        if (l2.lookup(key)) {
            // Promote into the L1 on an L2 hit, as the hardware does.
            l1ArrayMut(size).insert(key);
            ++l2HitCount_;
            return TlbOutcome::L2Hit;
        }
    }
    ++fullMissCount_;
    return TlbOutcome::Miss;
}

void
TlbSystem::fill(VirtAddr vaddr, alloc::PageSize size)
{
    std::uint64_t key = makeKey(vaddr, size);
    l1ArrayMut(size).insert(key);
    if (l2Holds(size)) {
        TlbArray &l2 = size == alloc::PageSize::Page1G ? l2Huge1g_
                                                       : l2Shared_;
        l2.insert(key);
    }
}

} // namespace mosaic::vm

#endif // MOSAIC_VM_TLB_HH
