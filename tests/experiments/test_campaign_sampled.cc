/**
 * @file
 * Sampled campaigns: the est_err CSV column round-trips, the sampled
 * dataset is byte-identical across jobs scheduling, the
 * resume format guard keeps full-replay and sampled caches apart, and
 * sampling actually replays fewer records than the full campaign.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "common/scratch_dir.hh"
#include "common/tiny_workload.hh"
#include "experiments/campaign.hh"

using namespace mosaic;
using namespace mosaic::exp;

namespace
{

CampaignConfig
sampledConfig()
{
    CampaignConfig config = test::tinyCampaign();
    config.sampling.mode = sampling::SampleMode::Interval;
    config.sampling.intervalRecords = 1024; // 12 intervals over 12000
    config.sampling.clusters = 3;
    config.sampling.warmupRecords = 256;
    return config;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

class CampaignSampledTest : public ::testing::Test
{
  protected:
    test::ScratchDir scratch_;
};

} // namespace

TEST_F(CampaignSampledTest, EmitsEstErrColumnAndRoundTrips)
{
    CampaignConfig config = sampledConfig();
    config.jobs = 2;
    std::string csv = scratch_.file("sampled.csv");
    CampaignReport report = CampaignRunner(config).runReport(csv);
    ASSERT_TRUE(report.allOk()) << report.summary();
    EXPECT_EQ(report.cellsCompleted, 3u * 55u);
    EXPECT_TRUE(report.dataset.estErrColumn());
    EXPECT_STREQ(report.dataset.csvHeader(), datasetCsvHeaderEstErr());

    // The serialized header is the est_err variant and every row
    // parses back with its error bound intact (to the emitter's fixed
    // 6-decimal precision).
    Dataset loaded = Dataset::load(csv);
    EXPECT_TRUE(loaded.estErrColumn());
    EXPECT_EQ(loaded.totalRuns(), report.dataset.totalRuns());
    for (const auto &platform : report.dataset.platforms()) {
        const auto &fresh = report.dataset.runs(platform, "test/tiny");
        const auto &reloaded = loaded.runs(platform, "test/tiny");
        ASSERT_EQ(fresh.size(), reloaded.size());
        for (std::size_t i = 0; i < fresh.size(); ++i) {
            EXPECT_EQ(fresh[i].layout, reloaded[i].layout);
            EXPECT_EQ(fresh[i].result.runtimeCycles,
                      reloaded[i].result.runtimeCycles);
            EXPECT_NEAR(fresh[i].estErr, reloaded[i].estErr, 1e-6);
            EXPECT_GE(reloaded[i].estErr, 0.0);
        }
    }
}

TEST_F(CampaignSampledTest, ByteIdenticalAcrossJobsAndFused)
{
    CampaignConfig serial = sampledConfig();
    serial.jobs = 1;
    std::string serial_csv = scratch_.file("jobs1.csv");
    CampaignReport a = CampaignRunner(serial).runReport(serial_csv);
    ASSERT_TRUE(a.allOk()) << a.summary();

    CampaignConfig wide = sampledConfig();
    wide.jobs = 8;
    std::string wide_csv = scratch_.file("jobs8.csv");
    CampaignReport b = CampaignRunner(wide).runReport(wide_csv);
    ASSERT_TRUE(b.allOk()) << b.summary();

    std::string serial_bytes = slurp(serial_csv);
    ASSERT_FALSE(serial_bytes.empty());
    EXPECT_EQ(serial_bytes, slurp(wide_csv));
}

TEST_F(CampaignSampledTest, ResumeFormatGuardKeepsFormatsApart)
{
    // A full-replay cache must not seed a sampled campaign (and the
    // sampled run must still produce the complete sampled dataset).
    CampaignConfig classic = sampledConfig();
    classic.sampling.mode = sampling::SampleMode::Off;
    std::string csv = scratch_.file("cache.csv");
    CampaignReport full = CampaignRunner(classic).runReport(csv);
    ASSERT_TRUE(full.allOk()) << full.summary();
    EXPECT_FALSE(full.dataset.estErrColumn());

    CampaignConfig sampled = sampledConfig();
    CampaignReport resumed = CampaignRunner(sampled).runReport(csv);
    ASSERT_TRUE(resumed.allOk()) << resumed.summary();
    EXPECT_EQ(resumed.cellsResumed, 0u);
    EXPECT_EQ(resumed.cellsCompleted, 3u * 55u);
    Dataset reloaded = Dataset::load(csv);
    EXPECT_TRUE(reloaded.estErrColumn());
}

TEST_F(CampaignSampledTest, SampledRunReplaysFewerRecords)
{
    const std::uint64_t replayed_before = static_cast<std::uint64_t>(
        metrics().counter("replay/sampled_records_replayed"));
    const std::uint64_t skipped_before = static_cast<std::uint64_t>(
        metrics().counter("replay/sampled_records_skipped"));

    CampaignConfig config = sampledConfig();
    config.jobs = 2;
    CampaignReport report = CampaignRunner(config).runReport();
    ASSERT_TRUE(report.allOk()) << report.summary();

    const std::uint64_t replayed =
        static_cast<std::uint64_t>(
            metrics().counter("replay/sampled_records_replayed")) -
        replayed_before;
    const std::uint64_t skipped =
        static_cast<std::uint64_t>(
            metrics().counter("replay/sampled_records_skipped")) -
        skipped_before;
    EXPECT_GT(replayed, 0u);
    EXPECT_GT(skipped, replayed); // most of every trace is skipped
    EXPECT_EQ(metrics().gauge("campaign/sampled"), 1.0);
}

TEST_F(CampaignSampledTest, CoWorkloadIsRejectedAsConfigError)
{
    CampaignConfig config = sampledConfig();
    config.coWorkload = "test/tiny";
    config.os.memFrames = 4096; // co-workload precondition
    CampaignReport report = CampaignRunner(config).runReport();
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].error.category(),
              ErrorCategory::Config);
    EXPECT_EQ(report.cellsCompleted, 0u);
}
