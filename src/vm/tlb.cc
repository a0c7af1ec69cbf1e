#include "vm/tlb.hh"

#include "support/logging.hh"

namespace mosaic::vm
{

namespace
{

/**
 * Age every rank below @p rank by one step: the ways more recent than
 * the one being made MRU each move one place toward LRU. @p stride is
 * a multiple of 16.
 */
void
ageRanksBelow(std::uint8_t *ranks, std::uint32_t stride, std::uint8_t rank)
{
#if MOSAIC_SIMD_X86
    if (simd::activeTier() != simd::Tier::Scalar) {
        const __m128i bound = _mm_set1_epi8(static_cast<char>(rank));
        for (std::uint32_t i = 0; i < stride; i += 16) {
            auto *chunk = reinterpret_cast<__m128i *>(ranks + i);
            __m128i v = _mm_loadu_si128(chunk);
            // Ranks stay below 128, so the signed compare is exact;
            // subtracting its all-ones lanes adds one.
            _mm_storeu_si128(chunk,
                             _mm_sub_epi8(v, _mm_cmplt_epi8(v, bound)));
        }
        return;
    }
#endif
    for (std::uint32_t i = 0; i < stride; ++i)
        ranks[i] = static_cast<std::uint8_t>(ranks[i] + (ranks[i] < rank));
}

/** The way whose rank is @p rank (exactly one way holds each rank
 *  below the set's associativity). */
unsigned
wayWithRank(const std::uint8_t *ranks, std::uint32_t stride,
            std::uint8_t rank)
{
#if MOSAIC_SIMD_X86
    if (simd::activeTier() != simd::Tier::Scalar) {
        const __m128i needle = _mm_set1_epi8(static_cast<char>(rank));
        for (std::uint32_t i = 0; i < stride; i += 16) {
            __m128i v = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(ranks + i));
            auto mask = static_cast<unsigned>(
                _mm_movemask_epi8(_mm_cmpeq_epi8(v, needle)));
            if (mask)
                return i + static_cast<unsigned>(__builtin_ctz(mask));
        }
        mosaic_panic("no way holds LRU rank ", unsigned(rank));
    }
#endif
    for (std::uint32_t i = 0; i < stride; ++i) {
        if (ranks[i] == rank)
            return i;
    }
    mosaic_panic("no way holds LRU rank ", unsigned(rank));
}

} // namespace

TlbArray::TlbArray(std::uint32_t entries, std::uint32_t ways)
    : entries_(entries), ways_(ways)
{
    if (entries_ == 0) {
        // Absent array: lookups count misses, inserts are dropped,
        // and no geometry is derived (nothing to divide by).
        ways_ = 0;
        return;
    }
    if (ways_ == 0 || ways_ > entries_)
        ways_ = entries_; // Clamp to fully associative.
    mosaic_assert(entries_ % ways_ == 0, "TLB entries ", entries_,
                  " not divisible by ways ", ways_);
    mosaic_assert(ways_ <= kMaxWays, "TLB associativity ", ways_,
                  " above the limit of ", kMaxWays);
    numSets_ = entries_ / ways_;
    mosaic_assert(isPowerOfTwo(numSets_), "set count must be 2^n, got ",
                  numSets_);
    setMask_ = numSets_ - 1;
    keyStride_ = (ways_ + 3) / 4 * 4;
    if (ways_ > lru::kMaxWays)
        rankStride_ = (ways_ + 15) / 16 * 16;
    flush();
}

void
TlbArray::touchRanked(std::uint32_t set, unsigned way)
{
    std::uint8_t *rank = ranks(set);
    ageRanksBelow(rank, rankStride_, rank[way]);
    rank[way] = 0;
}

void
TlbArray::fillRanked(std::uint32_t set, std::uint64_t key)
{
    unsigned victim = wayWithRank(ranks(set), rankStride_,
                                  static_cast<std::uint8_t>(ways_ - 1));
    keys_[static_cast<std::size_t>(set) * keyStride_ + victim] = key;
    touchRanked(set, victim);
}

void
TlbArray::invalidate(std::uint64_t key)
{
    if (entries_ == 0)
        return;
    auto set = static_cast<std::uint32_t>((key >> 2) & setMask_);
    std::uint32_t base = set * keyStride_;
    int w = find(set, key);
    if (w < 0)
        return;
    keys_[base + static_cast<unsigned>(w)] = kEmptyKey;
    // The repeat-hit memo may name the invalidated way; it is checked
    // by key on use, but clear it anyway so the scan path stays the
    // single source of truth after a shootdown.
    if (lastHit_ == base + static_cast<unsigned>(w))
        lastHit_ = kNoWay;

    // Re-seat the set's recency: resident ways first, in recency
    // order, then the empty ways by ascending index. The tail is then
    // the highest-index empty way, the victim the warm-up rule picks,
    // and later fills keep that order as a freshly warming set does.
    std::array<std::uint8_t, kMaxWays> byRecency;
    const bool packed = ways_ <= lru::kMaxWays;
    for (unsigned way = 0; way < ways_; ++way) {
        unsigned pos = packed ? lru::position(lruStack_[set], way)
                              : ranks(set)[way];
        byRecency[pos] = static_cast<std::uint8_t>(way);
    }
    std::array<std::uint8_t, kMaxWays> order;
    unsigned seated = 0;
    for (unsigned pos = 0; pos < ways_; ++pos)
        if (keys_[base + byRecency[pos]] != kEmptyKey)
            order[seated++] = byRecency[pos];
    for (unsigned way = 0; way < ways_; ++way)
        if (keys_[base + way] == kEmptyKey)
            order[seated++] = static_cast<std::uint8_t>(way);

    if (packed) {
        // Positions >= ways_ keep their padding nibbles.
        std::uint64_t stack = lruStack_[set];
        for (unsigned pos = 0; pos < ways_; ++pos) {
            stack &= ~(0xfULL << (4 * pos));
            stack |= static_cast<std::uint64_t>(order[pos]) << (4 * pos);
        }
        lruStack_[set] = stack;
    } else {
        for (unsigned pos = 0; pos < ways_; ++pos)
            ranks(set)[order[pos]] = static_cast<std::uint8_t>(pos);
    }
}

void
TlbArray::flush()
{
    keys_.assign(static_cast<std::size_t>(numSets_) * keyStride_,
                 kEmptyKey);
    if (ways_ <= lru::kMaxWays) {
        lruStack_.assign(numSets_, lru::kSeed);
    } else {
        // Seeded as the packed stack is: way i at rank i.
        ranks_.assign(static_cast<std::size_t>(numSets_) * rankStride_,
                      kPadRank);
        for (std::uint32_t set = 0; set < numSets_; ++set)
            for (unsigned way = 0; way < ways_; ++way)
                ranks(set)[way] = static_cast<std::uint8_t>(way);
    }
    lastHit_ = kNoWay;
    lastMiss_ = kEmptyKey;
}

TlbSystem::TlbSystem(const L1TlbConfig &l1, const L2TlbConfig &l2)
    : l1_{TlbArray(l1.entries4k, l1.ways4k),
          TlbArray(l1.entries2m, l1.ways2m),
          TlbArray(l1.entries1g, l1.ways1g)},
      l2Shared_(l2.entries, l2.ways),
      l2Huge1g_(l2.entries1g, l2.entries1g), // Tiny array: fully assoc.
      l2Config_(l2)
{
}

const TlbArray &
TlbSystem::l1Array(alloc::PageSize size) const
{
    return l1_[static_cast<std::size_t>(size)];
}

void
TlbSystem::invalidate(VirtAddr vaddr, alloc::PageSize size)
{
    std::uint64_t key = makeKey(vaddr, size);
    l1ArrayMut(size).invalidate(key);
    if (l2Holds(size)) {
        TlbArray &l2 = size == alloc::PageSize::Page1G ? l2Huge1g_
                                                       : l2Shared_;
        l2.invalidate(key);
    }
}

void
TlbSystem::flush()
{
    for (auto &array : l1_)
        array.flush();
    l2Shared_.flush();
    l2Huge1g_.flush();
}

} // namespace mosaic::vm
