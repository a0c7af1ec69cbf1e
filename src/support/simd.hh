/**
 * @file
 * Vectorized key/tag scans for the replay inner loop.
 *
 * Every simulated lookup structure on the replay hot path — the
 * set-associative data caches, the TLB arrays, and the page-walk
 * caches — stores its keys contiguously per set and answers one
 * question per access: "which way, if any, holds this key?". This
 * header provides that primitive as a data-parallel compare across a
 * whole set — findKey for 64-bit keys (TLBs, PWCs) and findKey32 for
 * the caches' narrow 32-bit tags — with three implementations each:
 *
 *  * AVX2  — 4 keys per compare (`vpcmpeqq` + movemask), compiled in
 *            when the build enables AVX2 (see MOSAIC_SIMD in the
 *            top-level CMakeLists);
 *  * SSE2  — 2 keys per compare; SSE2 is part of the x86-64 baseline,
 *            so this path exists in every x86-64 build, including the
 *            CI `-march=x86-64` no-AVX leg;
 *  * scalar — portable fallback, also selectable at *runtime* via
 *            MOSAIC_SIMD=scalar (or simd::setTier) so a single binary
 *            can demonstrate kernel-independence of the simulated
 *            counters (the golden suite runs both paths).
 *
 * Correctness contract: findKey/findKey32 return the LOWEST matching
 * way index (or -1). Keys within a set are unique (inserts refresh an
 * existing key instead of duplicating it) and the empty-way sentinel
 * ~0 is unreachable for real keys, so for real keys "lowest match"
 * and "the match" coincide — but the exact-index guarantee is what
 * makes the vectorized scans drop-in replacements for the original
 * way-by-way loops, keeping every counter and LRU decision
 * bit-identical across tiers. The golden suite pins this by replaying
 * identical traces under the best tier and Tier::Scalar.
 */

#ifndef MOSAIC_SUPPORT_SIMD_HH
#define MOSAIC_SUPPORT_SIMD_HH

#include <bit>
#include <cstdint>

#if defined(__x86_64__) || defined(_M_X64)
#define MOSAIC_SIMD_X86 1
#include <immintrin.h>
#endif

namespace mosaic::simd
{

/** Kernel tiers, ordered; the active tier never exceeds the build's. */
enum class Tier : int
{
    Scalar = 0,
    Sse2 = 1,
    Avx2 = 2,
};

/** The best tier this binary was compiled with. */
constexpr Tier
compiledTier()
{
#if defined(__AVX2__)
    return Tier::Avx2;
#elif defined(__SSE2__) || defined(MOSAIC_SIMD_X86)
    return Tier::Sse2;
#else
    return Tier::Scalar;
#endif
}

namespace detail
{
/** Active tier as a raw int for a cheap, well-predicted load in the
 *  hot scans. Initialized from MOSAIC_SIMD before main() runs. */
extern int gTier;

int initTier();
} // namespace detail

/** The tier the scans currently dispatch to. */
inline Tier
activeTier()
{
    return static_cast<Tier>(detail::gTier);
}

/**
 * Select the scan implementation at runtime (test hook; the env var
 * MOSAIC_SIMD=scalar|sse2|avx2 does the same at process start).
 * Requests above compiledTier() clamp to it. Not thread-safe against
 * concurrent replays — switch tiers only between runs.
 */
void setTier(Tier tier);

const char *tierName(Tier tier);

/** Scalar reference scan: lowest i in [0,count) with keys[i]==needle,
 *  else -1. The vector paths must match this exactly. */
inline int
findKeyScalar(const std::uint64_t *keys, unsigned count,
              std::uint64_t needle)
{
    for (unsigned i = 0; i < count; ++i) {
        if (keys[i] == needle)
            return static_cast<int>(i);
    }
    return -1;
}

#if MOSAIC_SIMD_X86

/**
 * SSE2 scan. SSE2 has no 64-bit integer compare, so equality is two
 * 32-bit compares ANDed across each 64-bit lane: a lane is all-ones
 * iff both halves matched, and its sign bit is the way's mask bit.
 *
 * The vector scans compare the whole set and OR the lane masks into
 * one word before testing it, so a scan has a single data-dependent
 * branch, hit or miss, however wide the set (an exit per chunk
 * mispredicts on the wide L2-TLB sets and on the 32-entry PDE cache
 * probed on every walk). countr_zero of the word is the lowest match.
 */
inline int
findKeySse2(const std::uint64_t *keys, unsigned count,
            std::uint64_t needle)
{
    const __m128i n =
        _mm_set1_epi64x(static_cast<long long>(needle));
    std::uint64_t mask = 0;
    unsigned i = 0;
    for (; i + 2 <= count; i += 2) {
        __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(keys + i));
        __m128i eq32 = _mm_cmpeq_epi32(v, n);
        __m128i eq64 = _mm_and_si128(
            eq32, _mm_shuffle_epi32(eq32, _MM_SHUFFLE(2, 3, 0, 1)));
        mask |= static_cast<std::uint64_t>(
                    _mm_movemask_pd(_mm_castsi128_pd(eq64)))
                << i;
    }
    if (i < count)
        mask |= static_cast<std::uint64_t>(keys[i] == needle) << i;
    return mask ? std::countr_zero(mask) : -1;
}

#if defined(__AVX2__)

/** AVX2 scan: 4 keys per compare, one mask word as findKeySse2. Only
 *  compiled when the whole build targets AVX2, so it inlines into
 *  the replay loop with no cross-target call overhead. */
inline int
findKeyAvx2(const std::uint64_t *keys, unsigned count,
            std::uint64_t needle)
{
    const __m256i n =
        _mm256_set1_epi64x(static_cast<long long>(needle));
    std::uint64_t mask = 0;
    unsigned i = 0;
    for (; i + 4 <= count; i += 4) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(keys + i));
        __m256i eq = _mm256_cmpeq_epi64(v, n);
        mask |= static_cast<std::uint64_t>(
                    _mm256_movemask_pd(_mm256_castsi256_pd(eq)))
                << i;
    }
    for (; i < count; ++i)
        mask |= static_cast<std::uint64_t>(keys[i] == needle) << i;
    return mask ? std::countr_zero(mask) : -1;
}

#endif // __AVX2__
#endif // MOSAIC_SIMD_X86

/** 32-bit variant of findKeyScalar; same lowest-match contract. */
inline int
findKeyScalar32(const std::uint32_t *keys, unsigned count,
                std::uint32_t needle)
{
    for (unsigned i = 0; i < count; ++i) {
        if (keys[i] == needle)
            return static_cast<int>(i);
    }
    return -1;
}

#if MOSAIC_SIMD_X86

/** SSE2 scan over 32-bit tags: 4 per compare (the data caches store
 *  tags narrow; see Cache). Lowest-match order as findKeyScalar32. */
inline int
findKeySse2_32(const std::uint32_t *keys, unsigned count,
               std::uint32_t needle)
{
    const __m128i n = _mm_set1_epi32(static_cast<int>(needle));
    unsigned i = 0;
    for (; i + 4 <= count; i += 4) {
        __m128i v = _mm_loadu_si128(
            reinterpret_cast<const __m128i *>(keys + i));
        int mask = _mm_movemask_epi8(_mm_cmpeq_epi32(v, n));
        if (mask)
            return static_cast<int>(
                i + (static_cast<unsigned>(__builtin_ctz(
                         static_cast<unsigned>(mask))) >>
                     2));
    }
    for (; i < count; ++i) {
        if (keys[i] == needle)
            return static_cast<int>(i);
    }
    return -1;
}

#if defined(__AVX2__)

/** AVX2 scan over 32-bit tags: 8 per compare — a whole 8-way set in
 *  one instruction, a 16-way L3 set in two. */
inline int
findKeyAvx2_32(const std::uint32_t *keys, unsigned count,
               std::uint32_t needle)
{
    const __m256i n = _mm256_set1_epi32(static_cast<int>(needle));
    unsigned i = 0;
    for (; i + 8 <= count; i += 8) {
        __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(keys + i));
        auto mask = static_cast<unsigned>(
            _mm256_movemask_epi8(_mm256_cmpeq_epi32(v, n)));
        if (mask)
            return static_cast<int>(
                i + (static_cast<unsigned>(__builtin_ctz(mask)) >> 2));
    }
    for (; i < count; ++i) {
        if (keys[i] == needle)
            return static_cast<int>(i);
    }
    return -1;
}

#endif // __AVX2__
#endif // MOSAIC_SIMD_X86

/** Most keys one findKey() call may scan: its match mask is one
 *  64-bit word. */
constexpr unsigned kMaxFindKeys = 64;

/**
 * Lowest way index in [0,count) holding @p needle, or -1.
 * @p count must not exceed kMaxFindKeys.
 *
 * The tier branch is one load-and-compare against a process-wide int
 * that never changes mid-replay, so the hardware predicts it
 * perfectly; with @p count a compile-time constant (the unrolled
 * associativity arms in Cache::access) the chunk loops fully unroll.
 */
inline int
findKey(const std::uint64_t *keys, unsigned count, std::uint64_t needle)
{
#if MOSAIC_SIMD_X86
    const int tier = detail::gTier;
#if defined(__AVX2__)
    if (tier >= static_cast<int>(Tier::Avx2))
        return findKeyAvx2(keys, count, needle);
#endif
    if (tier >= static_cast<int>(Tier::Sse2))
        return findKeySse2(keys, count, needle);
#endif
    return findKeyScalar(keys, count, needle);
}

/** findKey over 32-bit tags; same contract and dispatch. */
inline int
findKey32(const std::uint32_t *keys, unsigned count,
          std::uint32_t needle)
{
#if MOSAIC_SIMD_X86
    const int tier = detail::gTier;
#if defined(__AVX2__)
    if (tier >= static_cast<int>(Tier::Avx2))
        return findKeyAvx2_32(keys, count, needle);
#endif
    if (tier >= static_cast<int>(Tier::Sse2))
        return findKeySse2_32(keys, count, needle);
#endif
    return findKeyScalar32(keys, count, needle);
}

} // namespace mosaic::simd

#endif // MOSAIC_SUPPORT_SIMD_HH
