#include "mosalloc/layout.hh"

#include <algorithm>
#include <sstream>

#include "support/logging.hh"
#include "support/str.hh"

namespace mosaic::alloc
{

MosaicLayout::MosaicLayout(Bytes pool_size)
    : poolSize_(alignUp(pool_size, 4_KiB))
{
}

MosaicLayout::MosaicLayout(Bytes pool_size, std::vector<MosaicRegion> regions)
    : poolSize_(alignUp(pool_size, 4_KiB)), regions_(std::move(regions))
{
    std::sort(regions_.begin(), regions_.end(),
              [](const MosaicRegion &a, const MosaicRegion &b) {
                  return a.start < b.start;
              });
    // Drop empty regions, then make sure the pool is large enough to
    // hold every aligned region (layouts may pad the pool).
    std::erase_if(regions_, [](const MosaicRegion &r) {
        return r.length == 0;
    });
    for (const auto &region : regions_)
        poolSize_ = std::max(poolSize_, region.end());
    validate();
}

MosaicLayout
MosaicLayout::uniform(Bytes pool_size, PageSize size)
{
    Bytes padded = alignUp(pool_size, pageBytes(size));
    if (size == PageSize::Page4K)
        return MosaicLayout(padded);
    return MosaicLayout(padded, {MosaicRegion{0, padded, size}});
}

MosaicLayout
MosaicLayout::withWindow(Bytes pool_size, Bytes start, Bytes len,
                         PageSize size)
{
    if (len == 0 || size == PageSize::Page4K)
        return MosaicLayout(pool_size);
    Bytes page = pageBytes(size);
    Bytes aligned_start = alignDown(start, page);
    Bytes aligned_end = alignUp(start + len, page);
    // Clip to the pool; grow the pool rather than truncate the window
    // only when the window started inside the pool.
    if (aligned_start >= pool_size)
        return MosaicLayout(pool_size);
    aligned_end = std::min(aligned_end, alignUp(pool_size, page));
    return MosaicLayout(pool_size,
                        {MosaicRegion{aligned_start,
                                      aligned_end - aligned_start, size}});
}

void
MosaicLayout::validate() const
{
    mosaic_assert(poolSize_ == alignDown(poolSize_, 4_KiB),
                  "pool size not 4KB aligned: ", poolSize_);
    Bytes prev_end = 0;
    for (const auto &region : regions_) {
        Bytes page = pageBytes(region.pageSize);
        mosaic_assert(region.pageSize != PageSize::Page4K,
                      "explicit 4KB regions are implicit background");
        mosaic_assert(region.start % page == 0,
                      "region start ", region.start,
                      " not aligned to ", pageSizeName(region.pageSize));
        mosaic_assert(region.length % page == 0,
                      "region length ", region.length,
                      " not a multiple of ", pageSizeName(region.pageSize));
        mosaic_assert(region.start >= prev_end,
                      "regions overlap at offset ", region.start);
        mosaic_assert(region.end() <= poolSize_,
                      "region ends beyond pool: ", region.end(), " > ",
                      poolSize_);
        prev_end = region.end();
    }
}

PageSize
MosaicLayout::pageSizeAt(Bytes offset) const
{
    mosaic_assert(offset < poolSize_, "offset ", offset, " out of pool ",
                  poolSize_);
    // Binary search over sorted, disjoint regions.
    auto it = std::upper_bound(regions_.begin(), regions_.end(), offset,
                               [](Bytes off, const MosaicRegion &r) {
                                   return off < r.start;
                               });
    if (it != regions_.begin()) {
        const MosaicRegion &candidate = *(it - 1);
        if (offset < candidate.end())
            return candidate.pageSize;
    }
    return PageSize::Page4K;
}

Bytes
MosaicLayout::pageBaseAt(Bytes offset) const
{
    return alignDown(offset, pageBytes(pageSizeAt(offset)));
}

std::array<std::uint64_t, numPageSizes>
MosaicLayout::pageCounts() const
{
    std::array<std::uint64_t, numPageSizes> counts{};
    Bytes cursor = 0;
    for (const auto &region : regions_) {
        counts[static_cast<std::size_t>(PageSize::Page4K)] +=
            (region.start - cursor) / 4_KiB;
        counts[static_cast<std::size_t>(region.pageSize)] +=
            region.length / pageBytes(region.pageSize);
        cursor = region.end();
    }
    counts[static_cast<std::size_t>(PageSize::Page4K)] +=
        (poolSize_ - cursor) / 4_KiB;
    return counts;
}

double
MosaicLayout::hugeCoverage() const
{
    if (poolSize_ == 0)
        return 0.0;
    Bytes huge = 0;
    for (const auto &region : regions_)
        huge += region.length;
    return static_cast<double>(huge) / static_cast<double>(poolSize_);
}

std::string
MosaicLayout::toConfigString() const
{
    // Format: "<poolSize>;<start>:<length>:<pagesize>,..."
    std::ostringstream os;
    os << poolSize_ << ";";
    for (std::size_t i = 0; i < regions_.size(); ++i) {
        if (i > 0)
            os << ",";
        os << regions_[i].start << ":" << regions_[i].length << ":"
           << pageBytes(regions_[i].pageSize);
    }
    return os.str();
}

MosaicLayout
MosaicLayout::fromConfigString(Bytes pool_size, const std::string &text)
{
    auto halves = splitString(text, ';');
    mosaic_assert(halves.size() == 2, "bad layout config: ", text);
    Bytes declared = std::stoull(halves[0]);
    if (pool_size == 0)
        pool_size = declared;

    std::vector<MosaicRegion> regions;
    if (!trimString(halves[1]).empty()) {
        for (const auto &piece : splitString(halves[1], ',')) {
            auto fields = splitString(piece, ':');
            mosaic_assert(fields.size() == 3, "bad region spec: ", piece);
            MosaicRegion region;
            region.start = std::stoull(fields[0]);
            region.length = std::stoull(fields[1]);
            region.pageSize = pageSizeFromBytes(std::stoull(fields[2]));
            regions.push_back(region);
        }
    }
    return MosaicLayout(pool_size, std::move(regions));
}

} // namespace mosaic::alloc
