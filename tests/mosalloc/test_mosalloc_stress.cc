/**
 * @file
 * Randomized stress test of the Mosalloc chunk allocator: thousands of
 * interleaved malloc/free/realloc/mmap operations with continuously
 * checked accounting invariants.
 */

#include <gtest/gtest.h>

#include <map>

#include "mosalloc/mosalloc.hh"
#include "support/random.hh"

using namespace mosaic;
using namespace mosaic::alloc;

namespace
{

MosallocConfig
stressConfig()
{
    MosallocConfig config;
    config.heapLayout = MosaicLayout(64_MiB);
    config.anonLayout = MosaicLayout(64_MiB);
    config.filePoolSize = 8_MiB;
    return config;
}

} // namespace

TEST(MosallocStress, RandomOperationsKeepInvariants)
{
    Mosalloc allocator(stressConfig());
    Rng rng(0x57e55);
    std::map<VirtAddr, Bytes> live;       // malloc'd chunks
    std::map<VirtAddr, Bytes> mapped;     // anon mmaps

    for (int op = 0; op < 20000; ++op) {
        unsigned kind = static_cast<unsigned>(rng.nextBounded(100));
        if (kind < 45) {
            // malloc of 16B..64KB
            Bytes size = 16 + rng.nextBounded(64_KiB);
            VirtAddr p = allocator.malloc(size);
            if (p != 0) {
                ASSERT_TRUE(allocator.heapPool().contains(p));
                ASSERT_EQ(live.count(p), 0u);
                live[p] = size;
            }
        } else if (kind < 75 && !live.empty()) {
            // free a random live chunk
            auto it = live.begin();
            std::advance(it, rng.nextBounded(live.size()));
            allocator.free(it->first);
            live.erase(it);
        } else if (kind < 85 && !live.empty()) {
            // realloc a random chunk
            auto it = live.begin();
            std::advance(it, rng.nextBounded(live.size()));
            Bytes size = 16 + rng.nextBounded(32_KiB);
            VirtAddr q = allocator.realloc(it->first, size);
            if (q != 0) {
                if (q != it->first)
                    live.erase(it);
                live[q] = size;
            }
        } else if (kind < 93) {
            // anon mmap
            Bytes size = 4_KiB * (1 + rng.nextBounded(16));
            VirtAddr p = allocator.mmap(size);
            if (p != 0)
                mapped[p] = size;
        } else if (!mapped.empty()) {
            // munmap
            auto it = mapped.begin();
            std::advance(it, rng.nextBounded(mapped.size()));
            ASSERT_EQ(allocator.munmap(it->first, it->second), 0);
            mapped.erase(it);
        }

        // Invariants, checked throughout (cheap ones every op).
        ASSERT_LE(allocator.heapPool().bytesInUse(),
                  allocator.heapPool().size());
        ASSERT_LE(allocator.anonPool().bytesInUse(),
                  allocator.anonPool().highWater());
        if (op % 500 == 0) {
            // Every tracked pointer still resolves to a live chunk of
            // at least the requested size.
            for (const auto &[p, size] : live) {
                ASSERT_GE(allocator.allocationSize(p), size)
                    << "op " << op;
            }
            ASSERT_EQ(allocator.anonPool().numMappings(),
                      mapped.size() +
                          0 /* direct malloc escapes: none here */);
        }
    }

    // Tear down everything; the pools must drain to empty.
    for (const auto &[p, size] : live)
        allocator.free(p);
    for (const auto &[p, size] : mapped)
        ASSERT_EQ(allocator.munmap(p, size), 0);
    EXPECT_EQ(allocator.anonPool().bytesInUse(), 0u);
    EXPECT_EQ(allocator.anonPool().numMappings(), 0u);
}

TEST(MosallocStress, PageMappingsStableAcrossChurn)
{
    // The page-table export depends only on pool geometry, never on
    // allocation history.
    Mosalloc a(stressConfig());
    Mosalloc b(stressConfig());
    Rng rng(7);
    for (int i = 0; i < 2000; ++i) {
        VirtAddr p = b.malloc(16 + rng.nextBounded(8_KiB));
        if (p != 0 && (rng.next() & 1))
            b.free(p);
    }
    auto mappings = [](const Mosalloc &allocator) {
        std::vector<PageMapping> out;
        allocator.forEachPageMapping(
            [&](const PageMapping &mapping) { out.push_back(mapping); });
        return out;
    };
    auto ma = mappings(a);
    auto mb = mappings(b);
    ASSERT_EQ(ma.size(), mb.size());
    for (std::size_t i = 0; i < ma.size(); ++i) {
        EXPECT_EQ(ma[i].virtBase, mb[i].virtBase);
        EXPECT_EQ(ma[i].pageSize, mb[i].pageSize);
    }
}
