/**
 * @file
 * Example: a tour of the Mosalloc allocator itself (Section V).
 *
 * Shows the three pools, the brk emulation, the mallopt "tricks" that
 * defeat glibc's direct-mmap paths (the libhugetlbfs bug the paper
 * fixes), and how a mosaic layout changes which page size backs each
 * allocation.
 *
 * Build & run:  ./build/examples/mosalloc_tour
 */

#include <cstdio>

#include "mosalloc/mosalloc.hh"
#include "support/str.hh"

int
main()
{
    using namespace mosaic;
    using namespace mosaic::alloc;

    // A heap pool whose middle 4MB is backed by 2MB pages, rest 4KB.
    MosallocConfig config;
    config.heapLayout = MosaicLayout(
        16_MiB, {MosaicRegion{4_MiB, 4_MiB, PageSize::Page2M}});
    config.anonLayout = MosaicLayout(16_MiB);
    config.filePoolSize = 4_MiB;
    Mosalloc allocator(config);

    std::printf("pools:\n");
    std::printf("  heap  @ 0x%llx  %s  (mosaic: %s)\n",
                static_cast<unsigned long long>(
                    allocator.heapPool().base()),
                formatBytes(allocator.heapPool().size()).c_str(),
                config.heapLayout.toConfigString().c_str());
    std::printf("  anon  @ 0x%llx  %s\n",
                static_cast<unsigned long long>(
                    allocator.anonPool().base()),
                formatBytes(allocator.anonPool().size()).c_str());
    std::printf("  file  @ 0x%llx  %s (always 4KB pages)\n\n",
                static_cast<unsigned long long>(
                    allocator.filePool().base()),
                formatBytes(allocator.filePool().size()).c_str());

    // glibc boots by asking where the program break is.
    VirtAddr brk0 = allocator.sbrk(0);
    std::printf("sbrk(0) -> 0x%llx (the heap pool base: all further "
                "brk traffic lands in the mosaic)\n\n",
                static_cast<unsigned long long>(brk0));

    // Allocate across the pool and see which page size backs what.
    std::printf("%-14s %-14s %-10s\n", "allocation", "address",
                "page size");
    for (Bytes size : {64_KiB, 4_MiB, 2_MiB, 6_MiB}) {
        VirtAddr p = allocator.malloc(size);
        std::printf("%-14s 0x%-12llx %s\n", formatBytes(size).c_str(),
                    static_cast<unsigned long long>(p),
                    pageSizeName(allocator.pageSizeOf(p)).c_str());
    }

    // The mallopt story: with glibc defaults, a big malloc silently
    // bypasses morecore — and so would bypass the mosaic.
    std::printf("\nwith glibc defaults (M_MMAP_MAX > 0):\n");
    allocator.mallopt(MalloptParam::MmapMax, 65536);
    VirtAddr escaped = allocator.malloc(1_MiB);
    std::printf("  1 MiB malloc -> 0x%llx (%s pool!) — the escape "
                "Mosalloc closes via mallopt(M_MMAP_MAX, 0)\n",
                static_cast<unsigned long long>(escaped),
                allocator.anonPool().contains(escaped) ? "anonymous"
                                                       : "heap");
    allocator.mallopt(MalloptParam::MmapMax, 0);
    VirtAddr kept = allocator.malloc(1_MiB);
    std::printf("  after closing it   -> 0x%llx (%s pool)\n\n",
                static_cast<unsigned long long>(kept),
                allocator.heapPool().contains(kept) ? "heap" : "anon");

    // Direct mmap users (graph500-style) get the anonymous pool.
    VirtAddr mapped = allocator.mmap(256_KiB);
    allocator.munmap(mapped, 256_KiB);

    auto stats = allocator.stats();
    std::printf("stats: %llu mallocs, %llu morecore extensions, %llu "
                "mmaps; heap in use %s, anon fragmentation %s\n",
                static_cast<unsigned long long>(stats.mallocCalls),
                static_cast<unsigned long long>(stats.morecoreCalls),
                static_cast<unsigned long long>(stats.mmapCalls),
                formatBytes(stats.heapInUse).c_str(),
                formatPercent(stats.anonFragmentation, 2).c_str());

    // The export the MMU consumes.
    std::uint64_t count4k = 0, count2m = 0;
    allocator.forEachPageMapping([&](const PageMapping &mapping) {
        if (mapping.pageSize == PageSize::Page4K)
            ++count4k;
        else if (mapping.pageSize == PageSize::Page2M)
            ++count2m;
    });
    std::printf("page-table export: %llu x 4KB + %llu x 2MB pages "
                "across all pools\n",
                static_cast<unsigned long long>(count4k),
                static_cast<unsigned long long>(count2m));
    return 0;
}
