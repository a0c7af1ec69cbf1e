#include "mosalloc/mosalloc.hh"

#include <algorithm>

#include "support/logging.hh"

namespace mosaic::alloc
{

namespace
{

/** malloc rounds requests to 16-byte granules, as glibc does. */
constexpr Bytes chunkAlign = 16;

} // namespace

MosallocConfig
libhugetlbfsStyleConfig(Bytes heap_size, PageSize size, Bytes anon_size)
{
    MosallocConfig config;
    config.heapLayout = MosaicLayout::uniform(heap_size, size);
    config.anonLayout = MosaicLayout(anon_size);
    config.morecoreOnlyInterception = true;
    // glibc defaults stay in force: libhugetlbfs disables the direct
    // mmap path (M_MMAP_MAX = 0) like Mosalloc does...
    config.mmapMax = 0;
    // ...but not the contention arenas — the bug the paper reports.
    config.arenaMax = 8;
    return config;
}

Mosalloc::Mosalloc(MosallocConfig config)
    : config_(std::move(config))
{
    if (config_.morecoreOnlyInterception) {
        // Only morecore is hooked: everything outside the heap pool is
        // backed by ordinary 4KB pages, whatever the user asked for.
        config_.anonLayout = MosaicLayout(config_.anonLayout.poolSize());
    }
    heap_ = std::make_unique<HeapPool>(PoolAddresses::heapBase,
                                       config_.heapLayout);
    anon_ = std::make_unique<AnonPool>(PoolAddresses::anonBase,
                                       config_.anonLayout);
    file_ = std::make_unique<FilePool>(PoolAddresses::fileBase,
                                       config_.filePoolSize);
    // glibc's loader calls sbrk(0) to find the break; Mosalloc answers
    // with the pool base, anchoring all further brk traffic here.
    heapTop_ = heap_->sbrk(0);
}

bool
Mosalloc::morecore(Bytes min_bytes)
{
    ++stats_.morecoreCalls;
    // Extend in generous steps to limit sbrk traffic, like glibc's
    // top-chunk growth.
    Bytes grow = std::max<Bytes>(alignUp(min_bytes, 4_KiB), 256_KiB);
    VirtAddr old_break = heap_->sbrk(static_cast<std::int64_t>(grow));
    if (old_break == 0)
        return false;
    // The fresh extent becomes one free chunk; merge with a trailing
    // free chunk if the heap top was free.
    if (!chunks_.empty()) {
        auto last = std::prev(chunks_.end());
        if (last->second.free &&
            last->first + last->second.size == old_break) {
            last->second.size += grow;
            heapTop_ = old_break + grow;
            return true;
        }
    }
    chunks_[old_break] = Chunk{grow, true, false};
    heapTop_ = old_break + grow;
    return true;
}

VirtAddr
Mosalloc::takeChunk(Bytes size)
{
    for (auto it = chunks_.begin(); it != chunks_.end(); ++it) {
        if (!it->second.free || it->second.size < size)
            continue;
        it->second.free = false;
        if (it->second.size > size) {
            // Split the remainder into a new free chunk.
            VirtAddr rest_addr = it->first + size;
            Bytes rest_size = it->second.size - size;
            it->second.size = size;
            chunks_[rest_addr] = Chunk{rest_size, true, false};
        }
        return it->first;
    }
    return 0;
}

VirtAddr
Mosalloc::malloc(Bytes size)
{
    ++stats_.mallocCalls;
    if (size == 0)
        return 0;
    size = alignUp(size, chunkAlign);

    // glibc behaviour Mosalloc suppresses with M_ARENA_MAX=1: under
    // thread contention malloc spawns mmap-backed arenas that bypass
    // morecore entirely. Emulated here as a deterministic escape of
    // every 127th sizeable request when multiple arenas are allowed —
    // the libhugetlbfs bug of Section V-C.
    if (config_.arenaMax > 1 && size >= 4_KiB &&
        stats_.mallocCalls % 127 == 0) {
        VirtAddr arena = anon_->mmap(size);
        if (arena != 0) {
            ++stats_.directMmapAllocs;
            chunks_[arena] = Chunk{alignUp(size, 4_KiB), false, true};
            return arena;
        }
    }

    // glibc behaviour Mosalloc suppresses with mallopt: large requests
    // bypass morecore and go straight to anonymous mmap.
    if (config_.mmapMax > 0 && size >= config_.mmapThreshold) {
        VirtAddr addr = anon_->mmap(size);
        if (addr != 0) {
            ++stats_.directMmapAllocs;
            chunks_[addr] = Chunk{alignUp(size, 4_KiB), false, true};
            return addr;
        }
        // Fall through to the heap on mmap failure, like glibc.
    }

    VirtAddr addr = takeChunk(size);
    if (addr == 0) {
        if (!morecore(size))
            return 0;
        addr = takeChunk(size);
    }
    return addr;
}

void
Mosalloc::free(VirtAddr ptr)
{
    ++stats_.freeCalls;
    if (ptr == 0)
        return;
    auto it = chunks_.find(ptr);
    mosaic_assert(it != chunks_.end() && !it->second.free,
                  "free of unknown or already-free pointer ", ptr);

    if (it->second.direct) {
        anon_->munmap(ptr, it->second.size);
        chunks_.erase(it);
        return;
    }

    it->second.free = true;
    // Coalesce with free neighbours to fight chunk fragmentation.
    if (it != chunks_.begin()) {
        auto prev = std::prev(it);
        if (prev->second.free && !prev->second.direct &&
            prev->first + prev->second.size == it->first) {
            prev->second.size += it->second.size;
            chunks_.erase(it);
            it = prev;
        }
    }
    auto next = std::next(it);
    if (next != chunks_.end() && next->second.free &&
        !next->second.direct &&
        it->first + it->second.size == next->first) {
        it->second.size += next->second.size;
        chunks_.erase(next);
    }
}

VirtAddr
Mosalloc::calloc(Bytes count, Bytes size)
{
    if (count != 0 && size > ~Bytes(0) / count)
        return 0; // Multiplication would overflow.
    return malloc(count * size);
}

VirtAddr
Mosalloc::realloc(VirtAddr ptr, Bytes size)
{
    if (ptr == 0)
        return malloc(size);
    if (size == 0) {
        free(ptr);
        return 0;
    }
    Bytes old_size = allocationSize(ptr);
    mosaic_assert(old_size != 0, "realloc of unknown pointer ", ptr);
    if (alignUp(size, chunkAlign) <= old_size)
        return ptr; // Shrinking in place is always fine.
    VirtAddr fresh = malloc(size);
    if (fresh == 0)
        return 0;
    free(ptr);
    return fresh;
}

Bytes
Mosalloc::allocationSize(VirtAddr ptr) const
{
    auto it = chunks_.find(ptr);
    if (it == chunks_.end() || it->second.free)
        return 0;
    return it->second.size;
}

VirtAddr
Mosalloc::mmap(Bytes length, bool file_backed)
{
    ++stats_.mmapCalls;
    return file_backed ? file_->mmap(length) : anon_->mmap(length);
}

int
Mosalloc::munmap(VirtAddr addr, Bytes length)
{
    ++stats_.munmapCalls;
    if (anon_->contains(addr))
        return anon_->munmap(addr, length);
    if (file_->contains(addr))
        return file_->munmap(addr, length);
    return -1;
}

VirtAddr
Mosalloc::sbrk(std::int64_t delta)
{
    VirtAddr result = heap_->sbrk(delta);
    if (result != 0)
        heapTop_ = heap_->programBreak();
    return result;
}

int
Mosalloc::brk(VirtAddr addr)
{
    int result = heap_->brk(addr);
    if (result == 0)
        heapTop_ = heap_->programBreak();
    return result;
}

int
Mosalloc::mallopt(MalloptParam param, std::int64_t value)
{
    switch (param) {
      case MalloptParam::MmapMax:
        if (value < 0)
            return 0;
        config_.mmapMax = static_cast<int>(value);
        return 1;
      case MalloptParam::ArenaMax:
        if (value < 1)
            return 0;
        config_.arenaMax = static_cast<int>(value);
        return 1;
      case MalloptParam::MmapThreshold:
        if (value < 0)
            return 0;
        config_.mmapThreshold = static_cast<Bytes>(value);
        return 1;
    }
    return 0;
}

PageSize
Mosalloc::pageSizeOf(VirtAddr addr) const
{
    if (heap_->contains(addr))
        return heap_->pageSizeAt(addr);
    if (anon_->contains(addr))
        return anon_->pageSizeAt(addr);
    if (file_->contains(addr))
        return PageSize::Page4K;
    mosaic_fatal("address ", addr, " belongs to no Mosalloc pool");
}

VirtAddr
Mosalloc::pageBaseOf(VirtAddr addr) const
{
    if (heap_->contains(addr))
        return heap_->pageBaseAt(addr);
    if (anon_->contains(addr))
        return anon_->pageBaseAt(addr);
    if (file_->contains(addr))
        return file_->pageBaseAt(addr);
    mosaic_fatal("address ", addr, " belongs to no Mosalloc pool");
}

bool
Mosalloc::owns(VirtAddr addr) const
{
    return heap_->contains(addr) || anon_->contains(addr) ||
           file_->contains(addr);
}

MosallocStats
Mosalloc::stats() const
{
    stats_.heapInUse = heap_->bytesInUse();
    stats_.anonInUse = anon_->bytesInUse();
    stats_.fileInUse = file_->bytesInUse();
    stats_.heapHighWater = heap_->highWater();
    stats_.anonHighWater = anon_->highWater();
    stats_.anonFragmentation = anon_->fragmentationOverhead();
    return stats_;
}

} // namespace mosaic::alloc
