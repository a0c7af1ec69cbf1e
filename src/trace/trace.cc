#include "trace/trace.hh"

#include <algorithm>
#include <unordered_set>

#include "support/logging.hh"

namespace mosaic::trace
{

std::uint64_t
MemoryTrace::numDependent() const
{
    return static_cast<std::uint64_t>(
        std::count_if(records_.begin(), records_.end(),
                      [](const TraceRecord &r) {
                          return r.dependsOnPrev;
                      }));
}

std::uint64_t
MemoryTrace::numLoads() const
{
    return static_cast<std::uint64_t>(
        std::count_if(records_.begin(), records_.end(),
                      [](const TraceRecord &r) { return !r.isWrite; }));
}

std::pair<VirtAddr, VirtAddr>
MemoryTrace::addressRange() const
{
    mosaic_assert(!records_.empty(), "address range of empty trace");
    VirtAddr lo = records_.front().vaddr;
    VirtAddr hi = lo;
    for (const auto &record : records_) {
        lo = std::min(lo, record.vaddr);
        hi = std::max(hi, record.vaddr);
    }
    return {lo, hi};
}

std::uint64_t
MemoryTrace::uniquePages4k() const
{
    std::unordered_set<VirtAddr> pages;
    pages.reserve(records_.size() / 16);
    for (const auto &record : records_)
        pages.insert(record.vaddr >> 12);
    return pages.size();
}

} // namespace mosaic::trace
