/**
 * @file
 * Per-interval working-set/reuse signatures for sampled replay.
 *
 * A trace is sliced into fixed-size intervals of records; each interval
 * is summarized by a small normalized feature vector capturing what
 * drives the timing model's counters:
 *
 *  - page-granular footprint (distinct 4KB pages touched per record),
 *  - a log2-bucketed reuse-time histogram (records since the same page
 *    was last touched, with a dedicated cold bucket for first touches),
 *  - the write, pointer-chase, and mean-gap mix.
 *
 * Two intervals with near-identical signatures exercise the TLBs,
 * walkers, and cache hierarchy near-identically, so one can stand in
 * for the other during replay — the premise of the sampling subsystem
 * (src/sampling), following the SimPoint/working-set line of work.
 *
 * Extraction is a single deterministic forward pass (one hash-map
 * lookup per record) over either a materialized MemoryTrace or the
 * .mtsc columnar store's zero-copy vaddr/meta spans; both sources feed
 * the same accumulation code, so signatures are identical whichever
 * form the campaign's trace cache served.
 */

#ifndef MOSAIC_TRACE_INTERVAL_SIGNATURE_HH
#define MOSAIC_TRACE_INTERVAL_SIGNATURE_HH

#include <array>
#include <cstdint>
#include <span>
#include <vector>

#include "support/types.hh"
#include "trace/trace.hh"

namespace mosaic::trace
{

/** One interval's normalized behavior signature. */
struct IntervalSignature
{
    /** Reuse-time histogram buckets: log2(records since last touch of
     *  the page), capped, plus one trailing cold bucket for first
     *  touches. */
    static constexpr std::size_t kReuseBuckets = 16;

    /** Feature-vector length: reuse histogram + footprint rate +
     *  write/chase fractions + normalized mean gap. */
    static constexpr std::size_t kFeatures = kReuseBuckets + 4;

    /** Record range [begin, end) the signature covers. */
    std::uint64_t begin = 0;
    std::uint64_t end = 0;

    /** Distinct 4KB pages touched within the interval. */
    std::uint64_t distinctPages = 0;

    /**
     * The normalized feature vector clustering consumes. Every
     * component lies in [0, 1]: buckets and fractions are per-record
     * shares, the footprint rate is pages-per-record, and the mean gap
     * is scaled by kGapNorm.
     */
    std::array<double, kFeatures> features{};

    std::uint64_t records() const { return end - begin; }
};

/** Mean-gap normalization divisor (gaps above this saturate at 1). */
constexpr double kSignatureGapNorm = 64.0;

/**
 * Slice @p trace into intervals of @p interval_records records (the
 * final interval may be shorter) and extract one signature per
 * interval. @p interval_records must be >= 1; an empty trace yields an
 * empty vector. Reuse times look across interval boundaries — a page
 * last touched two intervals ago lands in a far bucket, not the cold
 * bucket — so signatures reflect cross-interval locality.
 */
std::vector<IntervalSignature>
extractIntervalSignatures(const MemoryTrace &trace,
                          std::uint64_t interval_records);

/**
 * As above, over the columnar store's zero-copy spans (@p meta packed
 * as gap | writeBit | dependsBit, the TraceStore column layout).
 * Produces bit-identical signatures to the MemoryTrace overload on
 * the same records.
 */
std::vector<IntervalSignature>
extractIntervalSignatures(std::span<const VirtAddr> vaddr,
                          std::span<const std::uint32_t> meta,
                          std::uint64_t interval_records);

} // namespace mosaic::trace

#endif // MOSAIC_TRACE_INTERVAL_SIGNATURE_HH
