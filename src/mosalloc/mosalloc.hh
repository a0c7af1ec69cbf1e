/**
 * @file
 * Mosalloc, the Mosaic Memory Allocator (Section V of the paper).
 *
 * The original library is an LD_PRELOAD shim hooking glibc's morecore,
 * brk/sbrk, mmap and munmap. Here the same interception surface is
 * reproduced over a *simulated* address space: workloads allocate
 * through this facade, the facade routes requests to the heap /
 * anonymous / file pools, and the resulting page mosaic is exported to
 * the MMU model for page-table construction.
 *
 * The glibc behaviours Mosalloc must defeat are modelled too:
 *  - malloc bypasses morecore via mmap for requests >= M_MMAP_THRESHOLD
 *    unless M_MMAP_MAX is 0 (Mosalloc sets it to 0 via mallopt);
 *  - malloc spawns mmap-backed arenas under contention unless
 *    M_ARENA_MAX is 1 (Mosalloc sets that too; libhugetlbfs does not,
 *    which the paper calls a bug).
 */

#ifndef MOSAIC_MOSALLOC_MOSALLOC_HH
#define MOSAIC_MOSALLOC_MOSALLOC_HH

#include <map>
#include <memory>
#include <vector>

#include "mosalloc/layout.hh"
#include "mosalloc/pool.hh"
#include "support/types.hh"

namespace mosaic::alloc
{

/** mallopt() parameter names mirrored from <malloc.h>. */
enum class MalloptParam
{
    MmapMax,       ///< M_MMAP_MAX: max mmap-served allocations (0 = off)
    ArenaMax,      ///< M_ARENA_MAX: max malloc arenas
    MmapThreshold, ///< M_MMAP_THRESHOLD: direct-mmap size cutoff
};

/** Static pool placement in the simulated 48-bit address space. */
struct PoolAddresses
{
    static constexpr VirtAddr heapBase = 0x004000000000ULL; // 256 GiB
    static constexpr VirtAddr anonBase = 0x008000000000ULL; // 512 GiB
    static constexpr VirtAddr fileBase = 0x00c000000000ULL; // 768 GiB
};

/** Construction-time configuration (the env-var surface of the paper). */
struct MosallocConfig
{
    /** Mosaic for the heap (brk) pool; its poolSize is the pool size. */
    MosaicLayout heapLayout = MosaicLayout(256_MiB);

    /** Mosaic for the anonymous mmap pool. */
    MosaicLayout anonLayout = MosaicLayout(256_MiB);

    /** File-backed pool size (always 4KB pages). */
    Bytes filePoolSize = 16_MiB;

    /**
     * Emulated glibc tunables. Mosalloc's defaults (0 and 1) force all
     * malloc traffic through morecore so the mosaic covers everything;
     * tests override them to demonstrate the interception bug the paper
     * found in libhugetlbfs.
     */
    int mmapMax = 0;
    int arenaMax = 1;
    Bytes mmapThreshold = 128_KiB;

    /**
     * libhugetlbfs emulation (Section V-A): intercept *only* the
     * morecore path. Direct mmap/brk users and malloc's direct-mmap
     * escapes then land on ordinary 4KB pages regardless of the
     * requested hugepage size — the limitation (and bug) that
     * motivated Mosalloc.
     */
    bool morecoreOnlyInterception = false;
};

/**
 * A libhugetlbfs-style configuration: uniform hugepages of @p size on
 * the heap via the morecore hook, glibc knobs left at their defaults
 * (so large mallocs escape to 4KB-backed mmap), and no interception of
 * direct mmap at all.
 */
MosallocConfig libhugetlbfsStyleConfig(Bytes heap_size,
                                       PageSize size,
                                       Bytes anon_size = 256_MiB);

/** One translated page exported to the MMU: virtual base + size. */
struct PageMapping
{
    VirtAddr virtBase;
    PageSize pageSize;
};

/** Allocation statistics for reporting and tests. */
struct MosallocStats
{
    Bytes heapInUse = 0;
    Bytes anonInUse = 0;
    Bytes fileInUse = 0;
    Bytes heapHighWater = 0;
    Bytes anonHighWater = 0;
    std::uint64_t mallocCalls = 0;
    std::uint64_t freeCalls = 0;
    std::uint64_t mmapCalls = 0;
    std::uint64_t munmapCalls = 0;
    std::uint64_t morecoreCalls = 0;
    std::uint64_t directMmapAllocs = 0; ///< malloc served via anon mmap
    double anonFragmentation = 0.0;
};

/**
 * The allocator facade: glibc-level API over the three pools.
 */
class Mosalloc
{
  public:
    explicit Mosalloc(MosallocConfig config);

    // --- malloc-level interface -------------------------------------

    /** Allocate @p size bytes. @return address or 0 on exhaustion. */
    VirtAddr malloc(Bytes size);

    /** Release a pointer previously returned by malloc/calloc/realloc. */
    void free(VirtAddr ptr);

    /** Allocate zeroed array (simulated; same as malloc sizing-wise). */
    VirtAddr calloc(Bytes count, Bytes size);

    /** Resize an allocation, preserving its contents conceptually. */
    VirtAddr realloc(VirtAddr ptr, Bytes size);

    /** Size of the live allocation at @p ptr (0 if unknown). */
    Bytes allocationSize(VirtAddr ptr) const;

    // --- syscall-level interface ------------------------------------

    /** Anonymous or file-backed mmap. @return address or 0. */
    VirtAddr mmap(Bytes length, bool file_backed = false);

    /** munmap; routes to the owning pool. @return 0 or -1. */
    int munmap(VirtAddr addr, Bytes length);

    /** Move the program break. @return previous break or 0. */
    VirtAddr sbrk(std::int64_t delta);

    /** Set the program break. @return 0 or -1. */
    int brk(VirtAddr addr);

    /** Emulated mallopt. @return 1 on success, 0 on bad input. */
    int mallopt(MalloptParam param, std::int64_t value);

    // --- introspection ----------------------------------------------

    const HeapPool &heapPool() const { return *heap_; }
    const AnonPool &anonPool() const { return *anon_; }
    const FilePool &filePool() const { return *file_; }

    /** Page size backing @p addr; fatal if addr is in no pool. */
    PageSize pageSizeOf(VirtAddr addr) const;

    /** Base of the page containing @p addr. */
    VirtAddr pageBaseOf(VirtAddr addr) const;

    /** @return true if @p addr belongs to any pool reservation. */
    bool owns(VirtAddr addr) const;

    /**
     * Call @p visit(mapping) for every page of every pool, for
     * page-table construction: heap, then anon, then file, each in
     * ascending address order. Heap/anon pools use their mosaics; the
     * file pool is 4KB.
     */
    template <typename Visit>
    void
    forEachPageMapping(Visit &&visit) const
    {
        auto visit_pool = [&](const Pool &pool) {
            pool.layout().forEachPage([&](Bytes offset, PageSize size) {
                visit(PageMapping{pool.base() + offset, size});
            });
        };
        visit_pool(*heap_);
        visit_pool(*anon_);
        visit_pool(*file_);
    }

    /** Snapshot of allocation statistics. */
    MosallocStats stats() const;

  private:
    struct Chunk
    {
        Bytes size;
        bool free;
        bool direct; ///< served by direct mmap, not the heap chunk pool
    };

    /** Grow the heap by at least @p min_bytes via sbrk. */
    bool morecore(Bytes min_bytes);

    /** Find a free heap chunk >= @p size (first fit), split it. */
    VirtAddr takeChunk(Bytes size);

    MosallocConfig config_;
    std::unique_ptr<HeapPool> heap_;
    std::unique_ptr<AnonPool> anon_;
    std::unique_ptr<FilePool> file_;

    /** Heap chunks by address (allocated and free), sorted. */
    std::map<VirtAddr, Chunk> chunks_;

    /** Top of chunk-managed heap space (== program break). */
    VirtAddr heapTop_;

    mutable MosallocStats stats_;
};

} // namespace mosaic::alloc

#endif // MOSAIC_MOSALLOC_MOSALLOC_HH
