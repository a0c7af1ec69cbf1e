/**
 * @file
 * Memory-reference traces.
 *
 * A workload runs once (its algorithm executing over Mosalloc-allocated
 * memory) and records the virtual addresses it touches. The trace is
 * layout-independent — allocation addresses do not depend on the page
 * mosaic — so the campaign replays one trace under all 54+ layouts
 * instead of regenerating it.
 */

#ifndef MOSAIC_TRACE_TRACE_HH
#define MOSAIC_TRACE_TRACE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "support/types.hh"

namespace mosaic::trace
{

/** One memory reference plus the non-memory work preceding it. */
struct TraceRecord
{
    /** Virtual address touched. */
    VirtAddr vaddr;

    /** Non-memory instructions retired since the previous reference. */
    std::uint16_t gap;

    /** True for stores, false for loads. */
    bool isWrite;

    /**
     * True when this reference's address depends on the previous
     * reference's data (a pointer-chase step): it cannot issue before
     * the previous reference completes. Independent references overlap
     * freely up to the MSHR/ROB bounds.
     */
    bool dependsOnPrev;
};

static_assert(sizeof(TraceRecord) <= 16, "keep trace records compact");

/** A full recorded execution. */
class MemoryTrace
{
  public:
    MemoryTrace() = default;

    void reserve(std::size_t n) { records_.reserve(n); }

    /** Append one reference. */
    void
    add(VirtAddr vaddr, unsigned gap, bool is_write,
        bool depends_on_prev = false)
    {
        const auto stored_gap =
            static_cast<std::uint16_t>(gap > 0xffff ? 0xffff : gap);
        records_.push_back(
            TraceRecord{vaddr, stored_gap, is_write, depends_on_prev});
        totalInstructions_ += stored_gap + 1;
    }

    /** Count of references flagged as dependent on their predecessor. */
    std::uint64_t numDependent() const;

    const std::vector<TraceRecord> &records() const { return records_; }
    std::size_t size() const { return records_.size(); }
    bool empty() const { return records_.empty(); }

    /** Total retired instructions (each reference counts as one),
     *  kept as a running sum by add(), the only writer. */
    Insts totalInstructions() const { return totalInstructions_; }

    /** Number of load (non-write) references. */
    std::uint64_t numLoads() const;

    /** Lowest and highest address touched; requires non-empty trace. */
    std::pair<VirtAddr, VirtAddr> addressRange() const;

    /** Count of distinct 4KB pages touched. */
    std::uint64_t uniquePages4k() const;

  private:
    std::vector<TraceRecord> records_;
    Insts totalInstructions_ = 0;
};

} // namespace mosaic::trace

#endif // MOSAIC_TRACE_TRACE_HH
