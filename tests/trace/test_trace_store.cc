/**
 * @file
 * Tests for the columnar CRC-guarded trace store: round trips,
 * deterministic bytes, CRC-footer rejection, torn-commit detection,
 * fault injection, and quarantine.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <fstream>
#include <unistd.h>

#include "common/scratch_dir.hh"
#include "support/fault_injector.hh"
#include "support/io_util.hh"
#include "support/random.hh"
#include "trace/trace_store.hh"

using namespace mosaic;
using namespace mosaic::trace;

namespace
{

MemoryTrace
randomTrace(std::size_t n, std::uint64_t seed = 7)
{
    MemoryTrace trace;
    Rng rng(seed);
    for (std::size_t i = 0; i < n; ++i) {
        trace.add(rng.next() & 0xffffffffffffULL,
                  static_cast<unsigned>(rng.nextBounded(1000)),
                  (rng.next() & 1) != 0, (rng.next() & 3) == 0);
    }
    return trace;
}

/** A named file inside its own scratch directory, gone on scope exit. */
struct TempFile
{
    explicit TempFile(const char *name) : path(scratch.file(name)) {}
    test::ScratchDir scratch;
    std::string path;
};

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** Overwrite @p size bytes at @p offset in an existing file. */
void
patchFile(const std::string &path, long offset, const void *data,
          std::size_t size)
{
    FILE *raw = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(raw, nullptr);
    ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
    ASSERT_EQ(std::fwrite(data, 1, size, raw), size);
    std::fclose(raw);
}

/** XOR one byte at @p offset. */
void
flipByte(const std::string &path, long offset)
{
    FILE *raw = std::fopen(path.c_str(), "rb+");
    ASSERT_NE(raw, nullptr);
    ASSERT_EQ(std::fseek(raw, offset, SEEK_SET), 0);
    int byte = std::fgetc(raw);
    ASSERT_NE(byte, EOF);
    std::fseek(raw, -1, SEEK_CUR);
    std::fputc(byte ^ 0x40, raw);
    std::fclose(raw);
}

constexpr long superblockBytes = 64;
constexpr long sectionFooterBytes = 16;

class TraceStoreTest : public ::testing::Test
{
  protected:
    void SetUp() override { faults().reset(); }
    void TearDown() override { faults().reset(); }
};

} // namespace

TEST_F(TraceStoreTest, RoundTripPreservesEveryRecord)
{
    TempFile file("store_roundtrip.mtsc");
    MemoryTrace original = randomTrace(10000);
    ASSERT_TRUE(TraceStore::save(original, file.path).ok());

    auto opened = TraceStore::open(file.path);
    ASSERT_TRUE(opened.ok());
    const TraceStore &store = opened.value();
    ASSERT_EQ(store.size(), original.size());

    MemoryTrace loaded = store.toTrace();
    ASSERT_EQ(loaded.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto &want = original.records()[i];
        const auto &got = loaded.records()[i];
        ASSERT_EQ(got.vaddr, want.vaddr);
        ASSERT_EQ(got.gap, want.gap);
        ASSERT_EQ(got.isWrite, want.isWrite);
        ASSERT_EQ(got.dependsOnPrev, want.dependsOnPrev);
    }

    // The mapped columns carry the same data zero-copy, in the packed
    // gap | writeBit | dependsBit encoding.
    auto vaddr = store.vaddr();
    auto meta = store.meta();
    ASSERT_EQ(vaddr.size(), original.size());
    ASSERT_EQ(meta.size(), original.size());
    for (std::size_t i = 0; i < original.size(); ++i) {
        const auto &want = original.records()[i];
        ASSERT_EQ(vaddr[i], want.vaddr);
        ASSERT_EQ(meta[i] & traceStoreGapMask, want.gap);
        ASSERT_EQ((meta[i] & traceStoreWriteBit) != 0, want.isWrite);
        ASSERT_EQ((meta[i] & traceStoreDependsBit) != 0,
                  want.dependsOnPrev);
    }
}

TEST_F(TraceStoreTest, EmptyTraceRoundTrips)
{
    TempFile file("store_empty.mtsc");
    ASSERT_TRUE(TraceStore::save(MemoryTrace(), file.path).ok());
    auto opened = TraceStore::open(file.path);
    ASSERT_TRUE(opened.ok());
    EXPECT_EQ(opened.value().size(), 0u);
    EXPECT_EQ(opened.value().toTrace().size(), 0u);
}

TEST_F(TraceStoreTest, SaveIsByteDeterministic)
{
    // The generation is derived from the column CRCs, not a clock, so
    // two saves of the same trace publish byte-identical files, so a
    // regenerated store matches the one it replaces.
    TempFile a("store_det_a.mtsc");
    std::string b_path = a.scratch.file("store_det_b.mtsc");
    MemoryTrace trace = randomTrace(5000);
    ASSERT_TRUE(TraceStore::save(trace, a.path).ok());
    ASSERT_TRUE(TraceStore::save(trace, b_path).ok());
    EXPECT_EQ(slurp(a.path), slurp(b_path));

    auto opened = TraceStore::open(a.path);
    ASSERT_TRUE(opened.ok());
    EXPECT_NE(opened.value().generation(), 0u);
    EXPECT_EQ(opened.value().generation(),
              TraceStore::open(b_path).value().generation());
}

TEST_F(TraceStoreTest, DetectsBitFlipInVaddrColumnViaCrc)
{
    TempFile file("store_flip_vaddr.mtsc");
    ASSERT_TRUE(TraceStore::save(randomTrace(5000), file.path).ok());
    flipByte(file.path, superblockBytes + 1000);

    auto result = TraceStore::open(file.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Corrupt);
    EXPECT_NE(result.error().message().find("vaddr"), std::string::npos);
    EXPECT_NE(result.error().message().find("CRC"), std::string::npos);
}

TEST_F(TraceStoreTest, DetectsBitFlipInMetaColumnViaCrc)
{
    constexpr std::size_t n = 5000;
    TempFile file("store_flip_meta.mtsc");
    ASSERT_TRUE(TraceStore::save(randomTrace(n), file.path).ok());
    const long meta_offset =
        superblockBytes + static_cast<long>(n) * 8 + sectionFooterBytes;
    flipByte(file.path, meta_offset + 100);

    auto result = TraceStore::open(file.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Corrupt);
    EXPECT_NE(result.error().message().find("meta"), std::string::npos);
}

TEST_F(TraceStoreTest, DetectsSuperblockDamageBeforeTrustingOffsets)
{
    TempFile file("store_flip_super.mtsc");
    ASSERT_TRUE(TraceStore::save(randomTrace(100), file.path).ok());
    flipByte(file.path, 16); // numRecords field

    auto result = TraceStore::open(file.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Corrupt);
    EXPECT_NE(result.error().message().find("superblock CRC"),
              std::string::npos);
}

TEST_F(TraceStoreTest, ZeroByteFileIsCorruptNotIo)
{
    // The shape a crashed non-atomic writer leaves: quarantinable
    // damage, not a transient I/O blip worth retrying.
    TempFile file("store_zero.mtsc");
    std::fclose(std::fopen(file.path.c_str(), "wb"));

    auto result = TraceStore::open(file.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Corrupt);
    EXPECT_NE(result.error().message().find("zero-byte"),
              std::string::npos);
}

TEST_F(TraceStoreTest, DetectsTruncationAsTornCommit)
{
    TempFile file("store_trunc.mtsc");
    ASSERT_TRUE(TraceStore::save(randomTrace(5000), file.path).ok());
    FILE *raw = std::fopen(file.path.c_str(), "rb");
    std::fseek(raw, 0, SEEK_END);
    long size = std::ftell(raw);
    std::fclose(raw);
    ASSERT_EQ(truncate(file.path.c_str(), size - 10), 0);

    auto result = TraceStore::open(file.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Corrupt);
    EXPECT_NE(result.error().message().find("torn commit"),
              std::string::npos);
}

TEST_F(TraceStoreTest, InjectedTornCommitIsDetectedOnOpen)
{
    // "store-commit" publishes the file without its commit marker —
    // the simulated mid-rename crash of a non-atomic writer.
    TempFile file("store_torn.mtsc");
    faults().arm(FaultSite::StoreCommit, 1);
    ASSERT_TRUE(TraceStore::save(randomTrace(1000), file.path).ok());
    faults().reset();

    auto result = TraceStore::open(file.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Corrupt);
    EXPECT_NE(result.error().message().find("torn commit"),
              std::string::npos);
}

TEST_F(TraceStoreTest, InjectedWriteCorruptionIsCaughtOnOpen)
{
    // "store-corrupt" damages the column after the CRCs are computed,
    // so the footer must convict it exactly like real on-disk rot.
    TempFile file("store_corrupt.mtsc");
    faults().arm(FaultSite::StoreCorrupt, 1);
    ASSERT_TRUE(TraceStore::save(randomTrace(1000), file.path).ok());
    faults().reset();

    auto result = TraceStore::open(file.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Corrupt);
}

TEST_F(TraceStoreTest, InjectedOpenFailureIsTransientIoError)
{
    TempFile file("store_fault_open.mtsc");
    ASSERT_TRUE(TraceStore::save(randomTrace(10), file.path).ok());

    faults().arm(FaultSite::StoreOpen, 1);
    auto result = TraceStore::open(file.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Io);
    EXPECT_TRUE(result.error().transient());
    // The file is fine, so a later attempt (a retry) succeeds.
    faults().reset();
    EXPECT_TRUE(TraceStore::open(file.path).ok());
}

TEST_F(TraceStoreTest, MissingFileIsTransientIoError)
{
    auto result = TraceStore::open("no_such_store.mtsc");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Io);
    EXPECT_TRUE(result.error().transient());
}

TEST_F(TraceStoreTest, RejectsFutureVersion)
{
    TempFile file("store_future.mtsc");
    ASSERT_TRUE(TraceStore::save(randomTrace(10), file.path).ok());

    // Bump the version and re-seal the superblock CRC, so the version
    // check itself — not the CRC guard — must reject the file.
    std::string bytes = slurp(file.path);
    ASSERT_GE(bytes.size(), 64u);
    std::uint32_t future = traceStoreVersion + 1;
    std::memcpy(bytes.data() + 4, &future, sizeof(future));
    std::uint32_t zero = 0;
    std::memcpy(bytes.data() + 12, &zero, sizeof(zero));
    std::uint32_t crc = crc32(bytes.data(), 64);
    patchFile(file.path, 4, &future, sizeof(future));
    patchFile(file.path, 12, &crc, sizeof(crc));

    auto result = TraceStore::open(file.path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Corrupt);
    EXPECT_NE(result.error().message().find("version"),
              std::string::npos);
}

TEST_F(TraceStoreTest, QuarantineKeepsEvidenceAndFreesTheSlot)
{
    TempFile file("store_quarantine.mtsc");
    ASSERT_TRUE(TraceStore::save(randomTrace(100), file.path).ok());
    flipByte(file.path, superblockBytes + 8);
    ASSERT_FALSE(TraceStore::open(file.path).ok());

    std::string moved = quarantineStoreFile(file.path);
    EXPECT_EQ(moved, file.path + ".corrupt");
    EXPECT_FALSE(isTraceStoreFile(file.path));
    EXPECT_TRUE(isTraceStoreFile(moved)); // magic survives the damage

    // The slot is free: a regeneration publishes a healthy store, and
    // a second quarantine replaces the first evidence file.
    ASSERT_TRUE(TraceStore::save(randomTrace(100), file.path).ok());
    EXPECT_TRUE(TraceStore::open(file.path).ok());
    EXPECT_EQ(quarantineStoreFile(file.path), file.path + ".corrupt");
    EXPECT_FALSE(isTraceStoreFile(file.path));
}

TEST_F(TraceStoreTest, LoadStoredTraceMatchesSavedTrace)
{
    TempFile file("store_load.mtsc");
    MemoryTrace original = randomTrace(3000);
    ASSERT_TRUE(TraceStore::save(original, file.path).ok());

    auto loaded = loadStoredTrace(file.path, globalSimContext());
    ASSERT_TRUE(loaded.ok());
    ASSERT_EQ(loaded.value().size(), original.size());
    EXPECT_EQ(loaded.value().numDependent(), original.numDependent());
    EXPECT_EQ(loaded.value().records().back().vaddr,
              original.records().back().vaddr);
}

TEST_F(TraceStoreTest, SaveLeavesNoTempFileBehind)
{
    TempFile file("store_tmp.mtsc");
    ASSERT_TRUE(TraceStore::save(randomTrace(100), file.path).ok());
    EXPECT_TRUE(isTraceStoreFile(file.path));
    FILE *tmp = std::fopen(tempPathFor(file.path).c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
}

TEST_F(TraceStoreTest, IsTraceStoreFileRecognizesOwnOutputOnly)
{
    TempFile file("store_magic.mtsc");
    ASSERT_TRUE(TraceStore::save(randomTrace(10), file.path).ok());
    EXPECT_TRUE(isTraceStoreFile(file.path));
    EXPECT_FALSE(isTraceStoreFile("no_such_file.mtsc"));

    std::string bogus = file.scratch.file("bogus.bin");
    FILE *raw = std::fopen(bogus.c_str(), "wb");
    std::fputs("definitely not a store", raw);
    std::fclose(raw);
    EXPECT_FALSE(isTraceStoreFile(bogus));
}
