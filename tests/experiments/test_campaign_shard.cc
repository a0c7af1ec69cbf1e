/**
 * @file
 * Sharded-campaign tests: the deterministic cell partition, shard CSV
 * manifests, the merge back to the byte-identical canonical dataset,
 * the kill/resume chaos drill for the sharded path, and degraded
 * merges that turn a lost shard into an explicit missing-cell report.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>
#include <set>

#include "common/scratch_dir.hh"
#include "common/tiny_workload.hh"
#include "experiments/campaign.hh"
#include "experiments/shard.hh"
#include "support/fault_injector.hh"
#include "support/io_util.hh"

using namespace mosaic;
using namespace mosaic::exp;

namespace
{

/** Full paper-platform grid over the injected tiny workload. */
CampaignConfig
shardTestConfig()
{
    CampaignConfig config = test::tinyCampaign();
    config.retry.initialDelay = std::chrono::milliseconds(0);
    return config;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

class CampaignShardTest : public ::testing::Test
{
  protected:
    void SetUp() override { faults().reset(); }
    void TearDown() override { faults().reset(); }

    /** Run one shard of a 2-shard campaign and return its CSV path. */
    std::string
    runShard(CampaignConfig config, unsigned index, unsigned count,
             const char *name)
    {
        config.shardIndex = index;
        config.shardCount = count;
        std::string csv = scratch_.file(name);
        CampaignReport report = CampaignRunner(config).runReport(csv);
        EXPECT_TRUE(report.allOk()) << report.summary();
        return csv;
    }

    test::ScratchDir scratch_;
};

} // namespace

TEST_F(CampaignShardTest, PartitionCoversEveryCellExactlyOnce)
{
    // The partition is pure index arithmetic: every (pair, layout)
    // cell lands on exactly one shard, and the per-pair counts add up.
    for (unsigned count : {1u, 2u, 3u, 5u}) {
        for (std::size_t pair = 0; pair < 7; ++pair) {
            std::size_t pair_total = 0;
            for (std::size_t layout = 0; layout < 55; ++layout) {
                unsigned owners = 0;
                for (unsigned shard = 0; shard < count; ++shard) {
                    if (shardOwnsCell(shard, count, pair, layout, 55))
                        ++owners;
                }
                EXPECT_EQ(owners, 1u)
                    << "count=" << count << " pair=" << pair
                    << " layout=" << layout;
            }
            for (unsigned shard = 0; shard < count; ++shard)
                pair_total += shardCellsOfPair(shard, count, pair, 55);
            EXPECT_EQ(pair_total, 55u);
        }
    }
}

TEST_F(CampaignShardTest, ConfigHashPinsTheCampaignDefinition)
{
    std::vector<std::string> w = {"test/tiny"};
    std::vector<std::string> p = {"A", "B"};
    std::uint32_t base = shardConfigHash(w, p, true, 7, 55, 2);
    EXPECT_EQ(base, shardConfigHash(w, p, true, 7, 55, 2));
    EXPECT_NE(base, shardConfigHash(w, p, true, 8, 55, 2)); // seed
    EXPECT_NE(base, shardConfigHash(w, p, false, 7, 54, 2)); // 1g
    EXPECT_NE(base, shardConfigHash(w, p, true, 7, 55, 3)); // shards
    EXPECT_NE(base, shardConfigHash(w, {"A"}, true, 7, 55, 2));
}

TEST_F(CampaignShardTest, TwoShardMergeIsByteIdenticalToUnsharded)
{
    // The acceptance drill: shard 0/2 and 1/2 under a parallel
    // scheduler, merged, must reproduce the single-process CSV byte
    // for byte.
    CampaignConfig config = shardTestConfig();
    config.jobs = 4;
    std::string full_csv = scratch_.file("full.csv");
    CampaignReport full = CampaignRunner(config).runReport(full_csv);
    ASSERT_TRUE(full.allOk()) << full.summary();
    ASSERT_EQ(full.cellsCompleted, 3u * 55u);

    std::string shard0 = runShard(config, 0, 2, "shard0.csv");
    std::string shard1 = runShard(config, 1, 2, "shard1.csv");

    auto a = readShardFile(shard0);
    auto b = readShardFile(shard1);
    ASSERT_TRUE(a.ok()) << a.error().str();
    ASSERT_TRUE(b.ok()) << b.error().str();

    // The round-robin split is balanced to within one cell and
    // complete: 165 = 83 + 82.
    EXPECT_EQ(a.value().manifest.cells, a.value().manifest.expected);
    EXPECT_EQ(b.value().manifest.cells, b.value().manifest.expected);
    EXPECT_EQ(a.value().manifest.cells + b.value().manifest.cells,
              3u * 55u);
    EXPECT_EQ(a.value().manifest.configHash,
              b.value().manifest.configHash);

    auto merged = mergeShards({a.value(), b.value()}, false);
    ASSERT_TRUE(merged.ok()) << merged.error().str();
    EXPECT_TRUE(merged.value().missing.empty());
    EXPECT_EQ(merged.value().rowsMerged, 3u * 55u);
    EXPECT_EQ(merged.value().csv, slurp(full_csv));
}

TEST_F(CampaignShardTest, KilledShardResumesAndMergesByteIdentical)
{
    // The chaos drill: shard 1/2 "killed" mid-checkpoint — its CSV cut
    // off mid-row, the shape a power cut through a non-atomic writer
    // leaves — must resume, complete, and merge byte-identical to the
    // single-process run.
    CampaignConfig config = shardTestConfig();
    config.jobs = 4;
    std::string full_csv = scratch_.file("chaos_full.csv");
    CampaignReport full = CampaignRunner(config).runReport(full_csv);
    ASSERT_TRUE(full.allOk()) << full.summary();

    std::string shard0 = runShard(config, 0, 2, "chaos_shard0.csv");
    std::string shard1 = runShard(config, 1, 2, "chaos_shard1.csv");
    std::string shard1_complete = slurp(shard1);

    // Damage shard 1: keep roughly the first third of the file and cut
    // mid-row (no trailing newline, no manifest).
    std::string torn = shard1_complete.substr(0, shard1_complete.size() / 3);
    ASSERT_TRUE(writeFileAtomic(shard1, torn).ok());
    ASSERT_FALSE(readShardFile(shard1).ok()); // unusable as-is

    // Resume: covered cells are kept, the lost ones recomputed, and
    // the republished shard is byte-identical to the uninterrupted
    // one — manifest included.
    CampaignConfig resume = config;
    resume.shardIndex = 1;
    resume.shardCount = 2;
    CampaignReport resumed = CampaignRunner(resume).runReport(shard1);
    ASSERT_TRUE(resumed.allOk()) << resumed.summary();
    EXPECT_GT(resumed.cellsResumed, 0u);
    EXPECT_GT(resumed.cellsCompleted, 0u);
    EXPECT_EQ(slurp(shard1), shard1_complete);

    auto a = readShardFile(shard0);
    auto b = readShardFile(shard1);
    ASSERT_TRUE(a.ok()) << a.error().str();
    ASSERT_TRUE(b.ok()) << b.error().str();
    auto merged = mergeShards({a.value(), b.value()}, false);
    ASSERT_TRUE(merged.ok()) << merged.error().str();
    EXPECT_EQ(merged.value().csv, slurp(full_csv));
}

TEST_F(CampaignShardTest, DegradedMergeReportsEveryMissingCell)
{
    CampaignConfig config = shardTestConfig();
    config.jobs = 2;
    std::string shard0 = runShard(config, 0, 2, "degraded_shard0.csv");

    auto a = readShardFile(shard0);
    ASSERT_TRUE(a.ok()) << a.error().str();

    // Strict merge refuses to paper over the absent shard.
    auto strict = mergeShards({a.value()}, false);
    ASSERT_FALSE(strict.ok());

    // Degraded merge recovers shard 0's cells and names shard 1's,
    // cell by cell, so one lost shard costs its own cells only.
    auto degraded = mergeShards({a.value()}, true);
    ASSERT_TRUE(degraded.ok()) << degraded.error().str();
    const MergeOutcome &outcome = degraded.value();
    EXPECT_EQ(outcome.rowsMerged, a.value().manifest.cells);
    EXPECT_EQ(outcome.rowsMerged + outcome.missing.size(), 3u * 55u);
    std::set<std::array<std::string, 3>> reported;
    for (const auto &cell : outcome.missing) {
        EXPECT_EQ(cell.workload, "test/tiny");
        EXPECT_TRUE(
            reported.insert({cell.platform, cell.workload, cell.layout})
                .second);
        // A missing cell is by definition not in the merged rows.
        EXPECT_FALSE(a.value().rows.count(
            {cell.platform, cell.workload, cell.layout}));
    }

    // The partial CSV still parses as a dataset covering the merged
    // rows.
    std::string partial_csv = scratch_.file("degraded_partial.csv");
    ASSERT_TRUE(writeFileAtomic(partial_csv, outcome.csv).ok());
    auto loaded = Dataset::loadResult(partial_csv);
    ASSERT_TRUE(loaded.ok());
    EXPECT_EQ(loaded.value().totalRuns(), outcome.rowsMerged);
}

TEST_F(CampaignShardTest, MergeRejectsShardsOfADifferentCampaign)
{
    CampaignConfig config = shardTestConfig();
    config.jobs = 2;
    std::string shard0 = runShard(config, 0, 2, "foreign_shard0.csv");

    CampaignConfig other = config;
    other.seed = config.seed + 1; // different layout exploration
    std::string shard1 = runShard(other, 1, 2, "foreign_shard1.csv");

    auto a = readShardFile(shard0);
    auto b = readShardFile(shard1);
    ASSERT_TRUE(a.ok()) << a.error().str();
    ASSERT_TRUE(b.ok()) << b.error().str();
    ASSERT_NE(a.value().manifest.configHash,
              b.value().manifest.configHash);

    for (bool allow_missing : {false, true}) {
        auto merged = mergeShards({a.value(), b.value()}, allow_missing);
        ASSERT_FALSE(merged.ok());
        EXPECT_NE(merged.error().message().find("config"),
                  std::string::npos);
    }
}

TEST_F(CampaignShardTest, ReadShardFileRejectsUnshardedCsv)
{
    // A plain campaign CSV carries no manifest; feeding it to the
    // merge must be an explicit Corrupt error, not a silent merge of
    // unverifiable rows.
    CampaignConfig config = shardTestConfig();
    config.jobs = 2;
    config.platforms = {cpu::sandyBridge()};
    std::string csv = scratch_.file("unsharded.csv");
    CampaignReport report = CampaignRunner(config).runReport(csv);
    ASSERT_TRUE(report.allOk()) << report.summary();

    auto shard = readShardFile(csv);
    ASSERT_FALSE(shard.ok());
    EXPECT_EQ(shard.error().category(), ErrorCategory::Corrupt);
    EXPECT_NE(shard.error().message().find("manifest"),
              std::string::npos);
}

TEST_F(CampaignShardTest, InjectedMergeReadFaultIsTransientIo)
{
    CampaignConfig config = shardTestConfig();
    config.jobs = 2;
    config.platforms = {cpu::sandyBridge()};
    std::string shard0 = runShard(config, 0, 2, "fault_shard0.csv");

    faults().arm(FaultSite::MergeRead, 1);
    auto result = readShardFile(shard0);
    faults().reset();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Io);
    EXPECT_TRUE(result.error().transient());
    EXPECT_TRUE(readShardFile(shard0).ok()); // a retry succeeds
}

TEST_F(CampaignShardTest, InjectedShardWriteFaultFailsTheSaveNotTheRun)
{
    CampaignConfig config = shardTestConfig();
    config.jobs = 2;
    config.platforms = {cpu::sandyBridge()};
    config.shardIndex = 0;
    config.shardCount = 2;
    config.checkpointEvery = 0; // only the final save hits the site
    std::string csv = scratch_.file("shardwrite.csv");

    // Every publication attempt fails, exhausting the backoff: the
    // cells all simulated, and the missing shard CSV is reported as a
    // single structured save failure, not a crashed campaign.
    faults().arm(FaultSite::ShardWrite, 0);
    CampaignReport report = CampaignRunner(config).runReport(csv);
    faults().reset();

    EXPECT_EQ(report.cellsCompleted, shardCellsOfPair(0, 2, 0, 55));
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].layout, "save");
    EXPECT_FALSE(readShardFile(csv).ok());

    // A clean rerun recomputes and republishes a valid shard.
    CampaignReport retry = CampaignRunner(config).runReport(csv);
    EXPECT_TRUE(retry.allOk()) << retry.summary();
    EXPECT_TRUE(readShardFile(csv).ok());
}

TEST_F(CampaignShardTest, ShardTimeoutSurfacesHungCellsAsFailures)
{
    // The watchdog drill on the sharded path: an impossible per-cell
    // budget makes every owned cell fail with a Timeout error — the
    // campaign completes, nothing hangs, and the failures are
    // attributed to cells, not the process.
    CampaignConfig config = shardTestConfig();
    config.jobs = 2;
    config.platforms = {cpu::sandyBridge()};
    config.shardIndex = 0;
    config.shardCount = 2;
    config.cellTimeoutSeconds = 1e-9;
    CampaignReport report = CampaignRunner(config).runReport();

    ASSERT_FALSE(report.allOk());
    EXPECT_EQ(report.cellsCompleted, 0u);
    EXPECT_EQ(report.failures.size(), shardCellsOfPair(0, 2, 0, 55));
    for (const auto &failure : report.failures)
        EXPECT_EQ(failure.error.category(), ErrorCategory::Timeout);
}

TEST_F(CampaignShardTest, TruncationMatrixRejectsEveryTornPrefix)
{
    // The torn-trailer matrix: a shard killed mid-write can leave a
    // prefix of any length. Every proper prefix must be rejected as a
    // structured error — never accepted, never mis-diagnosed as row
    // corruption or a foreign campaign, never a crash. The trailer
    // region (order lines + manifest commit marker) is swept at every
    // single byte length, since that is where a torn manifest line
    // used to parse as a "valid" shorter hex hash; the row region is
    // sampled.
    CampaignConfig config = shardTestConfig();
    config.jobs = 2;
    std::string shard_csv = runShard(config, 0, 2, "matrix_shard.csv");
    const std::string complete = slurp(shard_csv);

    auto trailer = complete.find("# mosaic-shard-order:");
    ASSERT_NE(trailer, std::string::npos);
    ASSERT_TRUE(readShardFile(shard_csv).ok());

    std::vector<std::size_t> lengths;
    for (std::size_t cut = 0; cut < complete.size(); cut += 97)
        lengths.push_back(cut); // sampled row region (and prefix)
    for (std::size_t cut = trailer; cut < complete.size(); ++cut)
        lengths.push_back(cut); // every byte of the trailer region

    std::string torn_csv = scratch_.file("matrix_torn.csv");
    for (std::size_t cut : lengths) {
        ASSERT_TRUE(
            writeFileAtomic(torn_csv, complete.substr(0, cut)).ok());
        auto torn = readShardFile(torn_csv);
        ASSERT_FALSE(torn.ok()) << "prefix of " << cut
                                << " bytes parsed as a valid shard";
        EXPECT_EQ(torn.error().category(), ErrorCategory::Corrupt)
            << "cut=" << cut << ": " << torn.error().str();
        const std::string message = torn.error().str();
        if (cut == 0 || complete[cut - 1] != '\n') {
            // Mid-line tear: diagnosed as truncation, not as CRC/row
            // corruption or a config mismatch.
            EXPECT_NE(message.find("truncated"), std::string::npos)
                << "cut=" << cut << ": " << message;
        } else {
            // Tear at a line boundary: complete lines but no commit
            // marker -> reported as a missing manifest.
            EXPECT_NE(message.find("manifest"), std::string::npos)
                << "cut=" << cut << ": " << message;
        }
    }

    // The untouched file still round-trips after the sweep.
    ASSERT_TRUE(writeFileAtomic(torn_csv, complete).ok());
    EXPECT_TRUE(readShardFile(torn_csv).ok());
}
