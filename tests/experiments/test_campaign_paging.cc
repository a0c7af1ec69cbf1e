/**
 * @file
 * Campaign tests for the OS layer: the swap (S) column in the dataset
 * CSV, bounded-pool campaigns, resource-exhaustion cell isolation,
 * co-workload interference cells (shared-pool multi-tenancy), the
 * jobs determinism guarantee under paging, and the resume-cache format
 * guard.
 */

#include <gtest/gtest.h>

#include <string>

#include "common/scratch_dir.hh"
#include "common/tiny_workload.hh"
#include "experiments/campaign.hh"
#include "support/random.hh"

using namespace mosaic;
using namespace mosaic::exp;

namespace
{

/** A second tiny workload used as the interference co-tenant. */
class NoisyWorkload : public workloads::Workload
{
  public:
    workloads::WorkloadInfo
    info() const override
    {
        return {"test", "noisy"};
    }

    Bytes heapPoolSize() const override { return 16_MiB; }

    trace::MemoryTrace
    generateTrace() const override
    {
        trace::MemoryTrace trace;
        Rng rng(7);
        VirtAddr base = alloc::PoolAddresses::heapBase;
        for (int i = 0; i < 9000; ++i)
            trace.add(base + alignDown(rng.nextBounded(16_MiB), 8), 2,
                      i % 3 == 0);
        return trace;
    }
};

/** Quiet single-workload campaign over SandyBridge via the factory. */
CampaignConfig
pagingConfig()
{
    CampaignConfig config = test::tinyCampaign({cpu::sandyBridge()});
    config.workloadFactory =
        [](const std::string &label) -> std::unique_ptr<workloads::Workload> {
        if (label == "test/noisy")
            return std::make_unique<NoisyWorkload>();
        return test::tinyFactory(label);
    };
    return config;
}

/** A frame budget that forces steady eviction of TinyWorkload's 24MiB
 *  working set yet still fits its largest (1GB rounds down to pool
 *  coverage) page: 2048 frames = 8 MiB. */
vm::OsConfig
boundedOs(std::uint64_t frames = 2048)
{
    vm::OsConfig os;
    os.memFrames = frames;
    os.policy = vm::ReplacementPolicyKind::Fifo;
    return os;
}

} // namespace

TEST(CampaignPaging, UnboundedKeepsLegacyCsvFormat)
{
    CampaignConfig config = pagingConfig();
    CampaignRunner runner(config);
    CampaignReport report = runner.runReport();
    ASSERT_TRUE(report.allOk()) << report.summary();
    EXPECT_FALSE(report.dataset.swapColumn());
    const std::string csv = report.dataset.toCsv();
    const std::string header = csv.substr(0, csv.find('\n'));
    EXPECT_EQ(header, datasetCsvHeader());
    for (const auto &record :
         report.dataset.runs("SandyBridge", "test/tiny"))
        EXPECT_EQ(record.result.swapCycles, 0u) << record.layout;
}

TEST(CampaignPaging, BoundedCampaignEmitsSwapColumnAndCharges)
{
    // 2 MiB of frames against a 24 MiB working set: every layout
    // sustains paging traffic but no layout's largest page (2MB)
    // exceeds the budget. Exclude the 1GB layout — a 1GB page cannot
    // fit and is covered by the isolation test below.
    CampaignConfig config = pagingConfig();
    config.os = boundedOs(512);
    config.include1g = false;
    CampaignRunner runner(config);
    CampaignReport report = runner.runReport();
    ASSERT_TRUE(report.allOk()) << report.summary();
    ASSERT_TRUE(report.dataset.swapColumn());

    const auto &runs = report.dataset.runs("SandyBridge", "test/tiny");
    ASSERT_EQ(runs.size(), 54u);
    for (const auto &record : runs) {
        EXPECT_GT(record.result.swapCycles, 0u) << record.layout;
        EXPECT_GT(record.result.majorFaults, 0u) << record.layout;
        // S is charged serially into the runtime, so R must cover it.
        EXPECT_GE(record.result.runtimeCycles, record.result.swapCycles)
            << record.layout;
    }

    // The samples carry S for the models.
    auto set = report.dataset.sampleSet("SandyBridge", "test/tiny");
    EXPECT_GT(set.all4k.s, 0.0);
}

TEST(CampaignPaging, SwapCsvRoundTrips)
{
    test::ScratchDir scratch;
    CampaignConfig config = pagingConfig();
    config.os = boundedOs(512);
    config.include1g = false;
    CampaignRunner runner(config);
    CampaignReport report = runner.runReport();
    ASSERT_TRUE(report.allOk()) << report.summary();

    const std::string path = scratch.file("paged.csv");
    report.dataset.save(path);
    auto loaded = Dataset::loadResult(path);
    ASSERT_TRUE(loaded.ok()) << loaded.error().str();
    EXPECT_TRUE(loaded.value().swapColumn());
    EXPECT_EQ(loaded.value().toCsv(), report.dataset.toCsv());
}

TEST(CampaignPaging, OversizedPagesFailAsResourceCellsOthersSurvive)
{
    // 1 MiB of frames: all-4KB layouts page happily, but any layout
    // with a 2MB or 1GB page cannot fit one page and must fail as an
    // isolated Resource cell, not kill the campaign.
    CampaignConfig config = pagingConfig();
    config.os = boundedOs(256);
    CampaignRunner runner(config);
    CampaignReport report = runner.runReport();

    EXPECT_FALSE(report.allOk());
    EXPECT_GT(report.cellsCompleted, 0u);
    for (const auto &failure : report.failures) {
        EXPECT_EQ(failure.error.category(), ErrorCategory::Resource)
            << failure.layout << ": " << failure.error.str();
        EXPECT_NE(failure.layout, "*");
    }
    // The all-4KB reference survived with real paging traffic.
    const auto &all4k =
        report.dataset.findRun("SandyBridge", "test/tiny", layoutAll4k);
    EXPECT_GT(all4k.result.swapCycles, 0u);
    EXPECT_THROW(
        report.dataset.findRun("SandyBridge", "test/tiny", layoutAll1g),
        std::exception);
}

TEST(CampaignPaging, CoWorkloadRequiresBoundedPool)
{
    CampaignConfig config = pagingConfig();
    config.coWorkload = "test/noisy"; // but os stays unbounded
    CampaignRunner runner(config);
    CampaignReport report = runner.runReport();
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].error.category(), ErrorCategory::Config);
    EXPECT_EQ(report.cellsCompleted, 0u);
}

TEST(CampaignPaging, InterferenceSlowsThePrimaryTenant)
{
    CampaignConfig config = pagingConfig();
    config.os = boundedOs();
    config.include1g = false;
    CampaignRunner alone(config);
    CampaignReport baseline = alone.runReport();
    ASSERT_TRUE(baseline.allOk()) << baseline.summary();

    config.coWorkload = "test/noisy";
    CampaignRunner contended(config);
    CampaignReport report = contended.runReport();
    ASSERT_TRUE(report.allOk()) << report.summary();

    // Same grid shape: the recorded rows are the primary tenant's.
    const auto &alone_runs =
        baseline.dataset.runs("SandyBridge", "test/tiny");
    const auto &tenant_runs =
        report.dataset.runs("SandyBridge", "test/tiny");
    ASSERT_EQ(tenant_runs.size(), alone_runs.size());

    // Contention must show up as extra paging work somewhere (the
    // co-tenant steals frames), and never as *less* total runtime.
    std::uint64_t alone_swap = 0, tenant_swap = 0;
    for (std::size_t i = 0; i < alone_runs.size(); ++i) {
        EXPECT_EQ(tenant_runs[i].layout, alone_runs[i].layout);
        alone_swap += alone_runs[i].result.swapCycles;
        tenant_swap += tenant_runs[i].result.swapCycles;
    }
    EXPECT_GT(tenant_swap, alone_swap);
}

TEST(CampaignPaging, MultiTenantDeterministicAcrossJobsAndFused)
{
    CampaignConfig config = pagingConfig();
    config.os = boundedOs();
    config.include1g = false;
    config.coWorkload = "test/noisy";
    config.jobs = 1;

    CampaignReport first = CampaignRunner(config).runReport();
    ASSERT_TRUE(first.allOk()) << first.summary();
    const std::string golden = first.dataset.toCsv();

    config.jobs = 4;
    CampaignReport parallel = CampaignRunner(config).runReport();
    ASSERT_TRUE(parallel.allOk()) << parallel.summary();
    EXPECT_EQ(parallel.dataset.toCsv(), golden) << "jobs=4 diverged";
}

TEST(CampaignPaging, PagedCampaignDeterministicAcrossJobsAndFused)
{
    // Single-tenant bounded paging: same determinism contract as the
    // classic campaign, for any worker count.
    CampaignConfig config = pagingConfig();
    config.os = boundedOs(512);
    config.include1g = false;
    config.jobs = 1;
    CampaignReport first = CampaignRunner(config).runReport();
    ASSERT_TRUE(first.allOk()) << first.summary();
    const std::string golden = first.dataset.toCsv();

    config.jobs = 4;
    CampaignReport second = CampaignRunner(config).runReport();
    ASSERT_TRUE(second.allOk()) << second.summary();
    EXPECT_EQ(second.dataset.toCsv(), golden);
}

TEST(CampaignPaging, ResumeCacheWithWrongFormatStartsFresh)
{
    test::ScratchDir scratch;
    const std::string cache = scratch.file("campaign.csv");

    // Seed the cache with an unbounded (legacy-format) run.
    CampaignConfig config = pagingConfig();
    config.include1g = false;
    CampaignReport legacy = CampaignRunner(config).runReport(cache);
    ASSERT_TRUE(legacy.allOk()) << legacy.summary();
    EXPECT_EQ(legacy.cellsResumed, 0u);

    // A bounded campaign over the same cache must not splice legacy
    // rows (they have no S): it starts fresh and re-runs every cell.
    config.os = boundedOs(512);
    CampaignReport paged = CampaignRunner(config).runReport(cache);
    ASSERT_TRUE(paged.allOk()) << paged.summary();
    EXPECT_EQ(paged.cellsResumed, 0u);
    EXPECT_EQ(paged.cellsCompleted, 54u);
    ASSERT_TRUE(paged.dataset.swapColumn());

    // And the rewritten cache now resumes cleanly in bounded mode.
    CampaignReport resumed = CampaignRunner(config).runReport(cache);
    ASSERT_TRUE(resumed.allOk()) << resumed.summary();
    EXPECT_EQ(resumed.cellsResumed, 54u);
    EXPECT_EQ(resumed.cellsCompleted, 0u);
    EXPECT_EQ(resumed.dataset.toCsv(), paged.dataset.toCsv());
}
