/**
 * @file
 * Exact true-LRU order of up to 16 ways, packed in one 64-bit word.
 *
 * Nibble i of a stack holds the way at recency position i: the MRU
 * way sits in the low nibble and the LRU way at position ways - 1.
 * The data caches (mem::Cache) and the TLB and page-walk-cache arrays
 * (vm::TlbArray) keep one stack per set, so both share this one LRU
 * implementation:
 *
 *  - a hit moves the way's nibble to the front (touch);
 *  - a fill takes the way at the tail (wayAt(stack, ways - 1)) and
 *    splices that position to the front.
 *
 * Every operation is a handful of ALU ops with no loop and no
 * data-dependent branch, whatever the associativity.
 */

#ifndef MOSAIC_SUPPORT_PACKED_LRU_HH
#define MOSAIC_SUPPORT_PACKED_LRU_HH

#include <bit>
#include <cstdint>

namespace mosaic::lru
{

/** Most ways one packed stack can order (16 nibbles). */
constexpr unsigned kMaxWays = 16;

/**
 * Initial stack: nibble i holds way i, so the stack reads MRU=[0, 1,
 * ..., 15]=LRU. Empty ways therefore form the stack's tail in
 * ascending index order, with the highest-index empty way last: a
 * fill while the set still has empty ways takes the *last* empty way,
 * because touched ways have been spliced to the front and untouched
 * ones keep their seed order. Nibbles at positions >= ways are inert
 * padding: every splice moves only positions below ways, and a
 * padding nibble (value >= ways) never equals a real way.
 */
constexpr std::uint64_t kSeed = 0xfedcba9876543210ULL;

/** The way at recency position @p pos of @p stack. */
constexpr unsigned
wayAt(std::uint64_t stack, unsigned pos)
{
    return static_cast<unsigned>((stack >> (4 * pos)) & 0xf);
}

/**
 * Recency position of @p way in @p stack, which must hold it among
 * its first ways nibbles. SWAR zero-nibble scan: the lowest flagged
 * position is exact, because no borrow propagates past a nonzero
 * nibble, and @p way occurs once, below any padding nibble.
 */
inline unsigned
position(std::uint64_t stack, unsigned way)
{
    std::uint64_t diff = stack ^ (0x1111111111111111ULL * way);
    std::uint64_t zero =
        (diff - 0x1111111111111111ULL) & ~diff & 0x8888888888888888ULL;
    return static_cast<unsigned>(std::countr_zero(zero)) >> 2;
}

/**
 * Move the nibble at position @p pos of @p stack to the front (MRU).
 * Positions above @p pos are untouched; position 0 is a no-op.
 */
constexpr std::uint64_t
spliceToFront(std::uint64_t stack, unsigned pos)
{
    std::uint64_t nib = (stack >> (4 * pos)) & 0xf;
    std::uint64_t below = stack & ((1ULL << (4 * pos)) - 1);
    // Two shifts: "4 * pos + 4" would be an undefined 64-bit shift
    // for pos 15.
    std::uint64_t above = ((stack >> (4 * pos)) >> 4) << (4 * pos);
    return (above << 4) | (below << 4) | nib;
}

/** Make @p way the MRU way of @p stack. */
inline std::uint64_t
touch(std::uint64_t stack, unsigned way)
{
    return spliceToFront(stack, position(stack, way));
}

} // namespace mosaic::lru

#endif // MOSAIC_SUPPORT_PACKED_LRU_HH
