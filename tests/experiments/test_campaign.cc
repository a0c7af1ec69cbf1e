/**
 * @file
 * Tests for the campaign runner using a purpose-built tiny workload,
 * so the 54-layout orchestration is exercised in milliseconds.
 */

#include <gtest/gtest.h>

#include <cctype>
#include <chrono>
#include <memory>

#include "common/tiny_workload.hh"
#include "experiments/campaign.hh"
#include "support/fault_injector.hh"
#include "support/sim_context.hh"

using namespace mosaic;
using namespace mosaic::exp;

namespace
{

/** TinyWorkload on @p platforms, as one campaign that must not fail
 *  a cell. */
Dataset
runTiny(std::vector<cpu::PlatformSpec> platforms,
        CampaignConfig config = test::tinyCampaign())
{
    config.platforms = std::move(platforms);
    CampaignReport report = CampaignRunner(config).runReport();
    EXPECT_TRUE(report.allOk()) << report.summary();
    return std::move(report.dataset);
}

} // namespace

TEST(Campaign, RunPairProduces55Layouts)
{
    Dataset dataset = runTiny({cpu::sandyBridge()});
    const auto &runs = dataset.runs("SandyBridge", "test/tiny");
    EXPECT_EQ(runs.size(), 55u); // 54 mosaics + all-1GB

    // The reference layouts are present by name.
    EXPECT_NO_THROW(dataset.findRun("SandyBridge", "test/tiny",
                                    layoutAll4k));
    EXPECT_NO_THROW(dataset.findRun("SandyBridge", "test/tiny",
                                    layoutAll2m));
    EXPECT_NO_THROW(dataset.findRun("SandyBridge", "test/tiny",
                                    layoutAll1g));
}

TEST(Campaign, Without1gRuns54Layouts)
{
    CampaignConfig config = test::tinyCampaign();
    config.include1g = false;
    Dataset dataset = runTiny({cpu::sandyBridge()}, config);
    EXPECT_EQ(dataset.runs("SandyBridge", "test/tiny").size(), 54u);
}

TEST(Campaign, RunPairIsDeterministic)
{
    Dataset a = runTiny({cpu::haswell()});
    Dataset b = runTiny({cpu::haswell()});
    const auto &runs_a = a.runs("Haswell", "test/tiny");
    const auto &runs_b = b.runs("Haswell", "test/tiny");
    ASSERT_EQ(runs_a.size(), runs_b.size());
    for (std::size_t i = 0; i < runs_a.size(); ++i) {
        EXPECT_EQ(runs_a[i].layout, runs_b[i].layout);
        EXPECT_EQ(runs_a[i].result.runtimeCycles,
                  runs_b[i].result.runtimeCycles);
        EXPECT_EQ(runs_a[i].result.walkCycles,
                  runs_b[i].result.walkCycles);
    }
}

TEST(Campaign, CountersOrderedByCoverage)
{
    Dataset dataset = runTiny({cpu::sandyBridge()});
    auto set = dataset.sampleSet("SandyBridge", "test/tiny");
    // The uniform endpoints bracket every mosaic sample's misses.
    for (const auto &sample : set.samples) {
        EXPECT_LE(sample.m, set.all4k.m * 1.01) << sample.layoutName;
        EXPECT_GE(sample.m, set.all2m.m * 0.5) << sample.layoutName;
    }
}

TEST(Campaign, TraceCacheStemsNeverCollide)
{
    // "spec06/mcf" and "spec06_mcf" used to sanitize to the identical
    // stem "spec06_mcf", so one workload could silently replay the
    // other's cached trace. The label hash keeps the stems apart.
    EXPECT_NE(traceCacheStem("spec06/mcf"), traceCacheStem("spec06_mcf"));
    EXPECT_NE(traceCacheStem("a/b"), traceCacheStem("a b"));
    EXPECT_NE(traceCacheStem("a/b"), traceCacheStem("a.b"));

    // Deterministic (the stem is the on-disk cache key across runs).
    EXPECT_EQ(traceCacheStem("spec06/mcf"), traceCacheStem("spec06/mcf"));

    // Still filesystem-safe: no separators or shell metacharacters.
    for (char c : traceCacheStem("we/ird: la*bel?")) {
        EXPECT_TRUE(std::isalnum(static_cast<unsigned char>(c)) ||
                    c == '_' || c == '-')
            << "unsafe stem character: " << c;
    }
}

TEST(Campaign, RunnerThreadsProduceSameDatasetAsSerial)
{
    // Two platforms of one workload over two workers must produce the
    // rows of two serial one-pair campaigns.
    Dataset serial = runTiny({cpu::sandyBridge()});
    Dataset haswell = runTiny({cpu::haswell()});
    for (const auto &record : haswell.runs("Haswell", "test/tiny"))
        serial.add(record);

    CampaignConfig config = test::tinyCampaign();
    config.jobs = 2;
    Dataset parallel =
        runTiny({cpu::sandyBridge(), cpu::haswell()}, config);
    EXPECT_EQ(parallel.toCsv(), serial.toCsv());
}

TEST(Campaign, CallerDeadlineFailsEveryCellWithoutReplaying)
{
    // A deadline that passed before the run: every cell is a Timeout
    // failure, and none of them builds a machine or replays a record.
    MetricsRegistry shard;
    SimContext context =
        SimContext(shard, faults())
            .withDeadline(std::chrono::steady_clock::now() -
                          std::chrono::seconds(1));
    CampaignReport report =
        CampaignRunner(test::tinyCampaign({cpu::sandyBridge()}), context)
            .runReport();
    ASSERT_EQ(report.failures.size(), 55u);
    for (const auto &failure : report.failures)
        EXPECT_EQ(failure.error.category(), ErrorCategory::Timeout);
    EXPECT_EQ(report.cellsCompleted, 0u);
    EXPECT_EQ(shard.counter("campaign/cells_timed_out"), 55u);
    EXPECT_EQ(shard.phase("campaign/cell").count, 0u);
    EXPECT_EQ(shard.counter("replay/records"), 0u);
}

TEST(Campaign, NullWorkloadFactoryIsAConfigFailure)
{
    CampaignConfig config = test::tinyCampaign({cpu::sandyBridge()});
    config.workloads = {"test/none"};
    config.workloadFactory = [](const std::string &) {
        return std::unique_ptr<workloads::Workload>();
    };
    CampaignReport report = CampaignRunner(config).runReport();
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].layout, "*");
    EXPECT_EQ(report.failures[0].error.category(), ErrorCategory::Config);
    EXPECT_EQ(report.dataset.totalRuns(), 0u);
}
