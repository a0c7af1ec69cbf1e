#include "trace/trace_store.hh"

#include <cstdio>
#include <cstring>
#include <memory>
#include <vector>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "support/fault_injector.hh"
#include "support/io_util.hh"
#include "support/metrics.hh"

namespace mosaic::trace
{

namespace
{

/** Fixed little-endian superblock; every offset is absolute. */
struct Superblock
{
    std::uint32_t magic;
    std::uint32_t version;
    std::uint32_t endianTag;
    std::uint32_t superCrc; ///< CRC32 of this block with superCrc = 0
    std::uint64_t numRecords;
    std::uint64_t generation;
    std::uint64_t vaddrOffset;
    std::uint64_t metaOffset;
    std::uint64_t commitOffset;
    std::uint64_t fileBytes;
};

static_assert(sizeof(Superblock) == 64, "superblock layout");

/** Trails each column section; crc covers the payload bytes only. */
struct SectionFooter
{
    std::uint32_t magic;
    std::uint32_t crc;
    std::uint64_t payloadBytes;
};

static_assert(sizeof(SectionFooter) == 16, "section footer layout");

/** Trailing commit marker; echoes the superblock's identity fields. */
struct CommitMarker
{
    std::uint32_t magic;
    std::uint32_t crc; ///< CRC32 over (generation, numRecords)
    std::uint64_t generation;
    std::uint64_t numRecords;
};

static_assert(sizeof(CommitMarker) == 24, "commit marker layout");

std::uint32_t
commitCrc(std::uint64_t generation, std::uint64_t num_records)
{
    std::uint64_t fields[2] = {generation, num_records};
    return crc32(fields, sizeof(fields));
}

std::uint32_t
superblockCrc(Superblock block)
{
    block.superCrc = 0;
    return crc32(&block, sizeof(block));
}

struct FileCloser
{
    void
    operator()(std::FILE *file) const
    {
        if (file)
            std::fclose(file);
    }
};

using FilePtr = std::unique_ptr<std::FILE, FileCloser>;

} // namespace

Result<void>
TraceStore::save(const MemoryTrace &trace, const std::string &path)
{
    return save(trace, path, globalSimContext());
}

Result<void>
TraceStore::save(const MemoryTrace &trace, const std::string &path,
                 const SimContext &context)
{
    MetricsRegistry &registry = context.metrics();
    FaultInjector &faults = context.faults();
    ScopedTimer timer(registry, "trace_store/save");
    registry.add("trace_store/saves");

    // Stage the columns in the packed encoding the mapped spans
    // expose, so zero-copy readers (interval signatures) consume the
    // mapping without re-encoding.
    const std::size_t n = trace.size();
    std::vector<VirtAddr> vaddr_col;
    std::vector<std::uint32_t> meta_col;
    vaddr_col.reserve(n);
    meta_col.reserve(n);
    for (const auto &record : trace.records()) {
        vaddr_col.push_back(record.vaddr);
        meta_col.push_back(
            static_cast<std::uint32_t>(record.gap) |
            (record.isWrite ? traceStoreWriteBit : 0u) |
            (record.dependsOnPrev ? traceStoreDependsBit : 0u));
    }

    const std::size_t vaddr_bytes = n * sizeof(VirtAddr);
    const std::size_t meta_bytes = n * sizeof(std::uint32_t);

    Superblock super{};
    super.magic = traceStoreMagic;
    super.version = traceStoreVersion;
    super.endianTag = traceStoreEndianTag;
    super.numRecords = n;
    super.vaddrOffset = sizeof(Superblock);
    super.metaOffset =
        super.vaddrOffset + vaddr_bytes + sizeof(SectionFooter);
    super.commitOffset =
        super.metaOffset + meta_bytes + sizeof(SectionFooter);
    super.fileBytes = super.commitOffset + sizeof(CommitMarker);

    // CRCs cover the true column bytes *before* fault injection, so an
    // injected corruption is detectable on open, like real rot.
    SectionFooter vaddr_footer{traceStoreSectionMagic,
                               crc32(vaddr_col.data(), vaddr_bytes),
                               vaddr_bytes};
    SectionFooter meta_footer{traceStoreSectionMagic,
                              crc32(meta_col.data(), meta_bytes),
                              meta_bytes};

    // The generation is derived from the content CRCs: deterministic
    // for a deterministic trace (store files byte-compare equal across
    // runs), distinct whenever the content differs.
    super.generation =
        (static_cast<std::uint64_t>(vaddr_footer.crc) << 32) |
        meta_footer.crc;
    super.superCrc = superblockCrc(super);

    if (faults.shouldFail(FaultSite::StoreCorrupt)) {
        if (!vaddr_col.empty())
            faults.corruptBuffer(vaddr_col.data(), vaddr_bytes);
        else
            super.superCrc ^= 0x1; // corrupt an empty store's metadata
    }

    const std::string tmp = tempPathFor(path);
    FilePtr file(std::fopen(tmp.c_str(), "wb"));
    if (!file || faults.shouldFail(FaultSite::StoreOpen))
        return ioError("cannot open " + tmp + " for writing");

    auto writeBlock = [&](const void *data,
                          std::size_t bytes) -> Result<void> {
        if (bytes > 0 &&
            std::fwrite(data, 1, bytes, file.get()) != bytes)
            return ioError("short write to " + tmp);
        return {};
    };

    CommitMarker commit{traceStoreCommitMagic,
                       commitCrc(super.generation, super.numRecords),
                       super.generation, super.numRecords};
    // An armed "store-commit" fault simulates a torn publication: the
    // store is renamed into place *without* its commit marker, the
    // damage a crashed copy or a non-atomic writer would leave. open()
    // must reject the file as torn instead of replaying a prefix.
    const bool omit_commit = faults.shouldFail(FaultSite::StoreCommit);

    Result<void> written = writeBlock(&super, sizeof(super));
    if (written.ok())
        written = writeBlock(vaddr_col.data(), vaddr_bytes);
    if (written.ok())
        written = writeBlock(&vaddr_footer, sizeof(vaddr_footer));
    if (written.ok())
        written = writeBlock(meta_col.data(), meta_bytes);
    if (written.ok())
        written = writeBlock(&meta_footer, sizeof(meta_footer));
    if (written.ok() && !omit_commit)
        written = writeBlock(&commit, sizeof(commit));
    if (written.ok())
        written = flushAndSync(file.get(), tmp);
    if (!written.ok()) {
        file.reset();
        removeFileIfExists(tmp);
        return written;
    }
    file.reset();
    if (auto renamed = renameFile(tmp, path); !renamed.ok()) {
        removeFileIfExists(tmp);
        return renamed;
    }
    return {};
}

Result<TraceStore>
TraceStore::open(const std::string &path)
{
    return open(path, globalSimContext());
}

Result<TraceStore>
TraceStore::open(const std::string &path, const SimContext &context)
{
    MetricsRegistry &registry = context.metrics();
    ScopedTimer timer(registry, "trace_store/open");
    registry.add("trace_store/opens");

    int fd = ::open(path.c_str(), O_RDONLY);
    if (fd < 0 || context.faults().shouldFail(FaultSite::StoreOpen)) {
        if (fd >= 0)
            ::close(fd);
        return ioError("cannot open " + path);
    }
    struct stat st{};
    if (fstat(fd, &st) != 0) {
        ::close(fd);
        return ioError("cannot stat " + path);
    }
    const std::size_t bytes = static_cast<std::size_t>(st.st_size);
    if (bytes == 0) {
        ::close(fd);
        return corruptError("zero-byte store file " + path);
    }
    if (bytes < sizeof(Superblock)) {
        ::close(fd);
        return corruptError("truncated superblock in " + path);
    }
    void *mapping = mmap(nullptr, bytes, PROT_READ, MAP_PRIVATE, fd, 0);
    ::close(fd); // the mapping keeps the file alive
    if (mapping == MAP_FAILED)
        return ioError("cannot mmap " + path);

    TraceStore store;
    store.mapping_ = mapping;
    store.mapBytes_ = bytes;
    const auto *base = static_cast<const unsigned char *>(mapping);

    Superblock super{};
    std::memcpy(&super, base, sizeof(super));
    if (super.magic != traceStoreMagic)
        return corruptError("not a trace store file: " + path);
    if (super.version != traceStoreVersion) {
        return corruptError(
            "unsupported trace store version " +
            std::to_string(super.version) + " in " + path +
            " (expected " + std::to_string(traceStoreVersion) + ")");
    }
    if (super.endianTag != traceStoreEndianTag) {
        return corruptError("trace store " + path +
                            " was written with a different endianness");
    }
    if (super.superCrc != superblockCrc(super)) {
        return corruptError("superblock CRC mismatch in " + path +
                            " (metadata is corrupt)");
    }

    // Geometry: every offset the superblock claims must be consistent
    // with the record count and land inside the mapped file before a
    // single column byte is trusted.
    const std::uint64_t n = super.numRecords;
    const std::uint64_t want_vaddr = sizeof(Superblock);
    const std::uint64_t want_meta =
        want_vaddr + n * sizeof(VirtAddr) + sizeof(SectionFooter);
    const std::uint64_t want_commit =
        want_meta + n * sizeof(std::uint32_t) + sizeof(SectionFooter);
    const std::uint64_t want_bytes = want_commit + sizeof(CommitMarker);
    if (super.vaddrOffset != want_vaddr ||
        super.metaOffset != want_meta ||
        super.commitOffset != want_commit ||
        super.fileBytes != want_bytes) {
        return corruptError("inconsistent section offsets in " + path);
    }
    if (bytes != want_bytes) {
        return corruptError(
            "torn commit in " + path + " (file is " +
            std::to_string(bytes) + " bytes, superblock promises " +
            std::to_string(want_bytes) + ")");
    }

    CommitMarker commit{};
    std::memcpy(&commit, base + super.commitOffset, sizeof(commit));
    if (commit.magic != traceStoreCommitMagic ||
        commit.generation != super.generation ||
        commit.numRecords != super.numRecords ||
        commit.crc != commitCrc(commit.generation, commit.numRecords)) {
        return corruptError("torn commit in " + path +
                            " (commit marker does not match the "
                            "superblock)");
    }

    auto checkSection = [&](const char *name, std::uint64_t offset,
                            std::uint64_t payload) -> Result<void> {
        SectionFooter footer{};
        std::memcpy(&footer, base + offset + payload, sizeof(footer));
        if (footer.magic != traceStoreSectionMagic ||
            footer.payloadBytes != payload) {
            return corruptError(std::string("damaged ") + name +
                                " section footer in " + path);
        }
        if (footer.crc != crc32(base + offset, payload)) {
            return corruptError(std::string("CRC mismatch in ") + name +
                                " section of " + path +
                                " (file is corrupt)");
        }
        return {};
    };
    if (auto ok = checkSection("vaddr", super.vaddrOffset,
                               n * sizeof(VirtAddr));
        !ok.ok())
        return ok.error();
    if (auto ok = checkSection("meta", super.metaOffset,
                               n * sizeof(std::uint32_t));
        !ok.ok())
        return ok.error();

    store.vaddr_ =
        reinterpret_cast<const VirtAddr *>(base + super.vaddrOffset);
    store.meta_ = reinterpret_cast<const std::uint32_t *>(
        base + super.metaOffset);
    store.numRecords_ = static_cast<std::size_t>(n);
    store.generation_ = super.generation;
    registry.add("trace_store/records_mapped", n);
    return store;
}

TraceStore::TraceStore(TraceStore &&other) noexcept
    : mapping_(other.mapping_),
      mapBytes_(other.mapBytes_),
      vaddr_(other.vaddr_),
      meta_(other.meta_),
      numRecords_(other.numRecords_),
      generation_(other.generation_)
{
    other.mapping_ = nullptr;
    other.mapBytes_ = 0;
}

TraceStore &
TraceStore::operator=(TraceStore &&other) noexcept
{
    if (this != &other) {
        if (mapping_)
            munmap(mapping_, mapBytes_);
        mapping_ = other.mapping_;
        mapBytes_ = other.mapBytes_;
        vaddr_ = other.vaddr_;
        meta_ = other.meta_;
        numRecords_ = other.numRecords_;
        generation_ = other.generation_;
        other.mapping_ = nullptr;
        other.mapBytes_ = 0;
    }
    return *this;
}

TraceStore::~TraceStore()
{
    if (mapping_)
        munmap(mapping_, mapBytes_);
}

MemoryTrace
TraceStore::toTrace() const
{
    MemoryTrace trace;
    trace.reserve(numRecords_);
    for (std::size_t i = 0; i < numRecords_; ++i) {
        const std::uint32_t meta = meta_[i];
        trace.add(vaddr_[i], meta & traceStoreGapMask,
                  (meta & traceStoreWriteBit) != 0,
                  (meta & traceStoreDependsBit) != 0);
    }
    return trace;
}

bool
isTraceStoreFile(const std::string &path)
{
    FilePtr file(std::fopen(path.c_str(), "rb"));
    if (!file)
        return false;
    std::uint32_t magic = 0;
    if (std::fread(&magic, sizeof(magic), 1, file.get()) != 1)
        return false;
    return magic == traceStoreMagic;
}

Result<MemoryTrace>
loadStoredTrace(const std::string &path, const SimContext &context)
{
    auto store = TraceStore::open(path, context);
    if (!store.ok())
        return store.error();
    return store.value().toTrace();
}

std::string
quarantineStoreFile(const std::string &path)
{
    const std::string quarantine = path + ".corrupt";
    removeFileIfExists(quarantine);
    if (renameFile(path, quarantine).ok())
        return quarantine;
    // An unreadable/undeletable entry must still vacate the cache slot
    // if at all possible; losing the evidence beats replaying it.
    removeFileIfExists(path);
    return "";
}

} // namespace mosaic::trace
