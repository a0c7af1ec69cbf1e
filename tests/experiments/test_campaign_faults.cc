/**
 * @file
 * Fault-tolerance tests for the campaign engine: cell-failure
 * isolation, corrupt-trace-cache recovery, transient-I/O retries, and
 * checkpoint/resume from a partial dataset CSV — the failure drills
 * behind "a killed campaign loses at most one checkpoint interval".
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <sys/stat.h>
#include <unistd.h>

#include "common/scratch_dir.hh"
#include "common/tiny_workload.hh"
#include "experiments/campaign.hh"
#include "support/fault_injector.hh"
#include "support/io_util.hh"
#include "trace/trace_store.hh"

using namespace mosaic;
using namespace mosaic::exp;

namespace
{

/** Quiet config with instant retries and a scratch trace-cache dir. */
CampaignConfig
faultConfig(const std::string &trace_dir = std::string())
{
    CampaignConfig config;
    config.verbose = false;
    config.retry.initialDelay = std::chrono::milliseconds(0);
    config.traceCacheDir = trace_dir;
    if (!trace_dir.empty())
        mkdir(trace_dir.c_str(), 0755);
    return config;
}

/** One-pair campaign over TinyWorkload on SandyBridge. */
CampaignReport
runTinyPair(CampaignConfig config)
{
    config.workloads = {"test/tiny"};
    config.platforms = {cpu::sandyBridge()};
    config.workloadFactory = test::tinyFactory;
    return CampaignRunner(config).runReport();
}

class CampaignFaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { faults().reset(); }
    void TearDown() override { faults().reset(); }

    /** Where the trace cache stores TinyWorkload's trace. */
    static std::string
    tinyCachePath(const std::string &dir)
    {
        return dir + "/" + traceCacheStem("test/tiny") +
               trace::traceStoreExtension;
    }

    test::ScratchDir scratch_;
};

} // namespace

TEST_F(CampaignFaultTest, CorruptTraceCacheIsRegenerated)
{
    std::string dir = scratch_.file("trace_cache");
    std::string cache = tinyCachePath(dir);
    CampaignConfig config = faultConfig(dir);

    // First pair run populates the cache — with the write corrupted.
    faults().arm(FaultSite::StoreCorrupt, 1);
    CampaignReport first = runTinyPair(config);
    faults().reset();
    EXPECT_TRUE(first.allOk()) << first.summary();
    ASSERT_TRUE(trace::isTraceStoreFile(cache));
    EXPECT_FALSE(trace::TraceStore::open(cache).ok()); // damage landed

    // Second run must detect the damage (CRC), quarantine the file,
    // regenerate, and still complete every cell.
    CampaignReport second = runTinyPair(config);
    EXPECT_TRUE(second.allOk()) << second.summary();
    EXPECT_EQ(second.dataset.runs("SandyBridge", "test/tiny").size(),
              55u);

    // The damaged file was preserved as evidence, the repaired cache
    // is valid again, and the two datasets agree (the trace is
    // deterministic either way).
    EXPECT_TRUE(trace::isTraceStoreFile(cache + ".corrupt"));
    EXPECT_TRUE(trace::TraceStore::open(cache).ok());
    EXPECT_EQ(first.dataset.findRun("SandyBridge", "test/tiny", layoutAll2m)
                  .result.runtimeCycles,
              second.dataset
                  .findRun("SandyBridge", "test/tiny", layoutAll2m)
                  .result.runtimeCycles);
}

TEST_F(CampaignFaultTest, TransientOpenFailureIsRetried)
{
    std::string dir = scratch_.file("retry_cache");
    std::string cache = tinyCachePath(dir);
    CampaignConfig config = faultConfig(dir);

    // Populate a valid cache.
    ASSERT_TRUE(runTinyPair(config).allOk());
    ASSERT_TRUE(trace::TraceStore::open(cache).ok());

    // Fail the 1st cache open; the backoff retry must recover.
    faults().arm(FaultSite::StoreOpen, 1);
    CampaignReport report = runTinyPair(config);
    faults().reset();

    EXPECT_TRUE(report.allOk()) << report.summary();
    EXPECT_GE(report.retriesPerformed, 1u);
    EXPECT_EQ(report.dataset.runs("SandyBridge", "test/tiny").size(),
              55u);
}

TEST_F(CampaignFaultTest, ExhaustedRetriesFailThePairNotTheCampaign)
{
    std::string dir = scratch_.file("dead_cache");
    std::string cache = tinyCachePath(dir);
    CampaignConfig config = faultConfig(dir);
    config.retry.maxAttempts = 2;

    ASSERT_TRUE(runTinyPair(config).allOk());
    ASSERT_TRUE(trace::isTraceStoreFile(cache));

    // Every open fails: the cache load gives up after its retries, but
    // the engine falls back to regenerating the trace in memory — the
    // cache is an optimization, never a single point of failure. The
    // re-save also fails (same site), which only costs the cache.
    faults().arm(FaultSite::StoreOpen, 0);
    CampaignReport report = runTinyPair(config);
    faults().reset();

    EXPECT_TRUE(report.allOk()) << report.summary();
    EXPECT_EQ(report.dataset.runs("SandyBridge", "test/tiny").size(),
              55u);
}

TEST_F(CampaignFaultTest, SimLaneFaultFailsOneCellOthersMatchCleanRun)
{
    CampaignConfig config = faultConfig();
    config.workloads = {"test/tiny"};
    config.platforms = {cpu::sandyBridge()};
    config.workloadFactory = test::tinyFactory;
    config.jobs = 2;
    CampaignReport clean = CampaignRunner(config).runReport();
    ASSERT_TRUE(clean.allOk()) << clean.summary();

    // The 3rd cell to start building its machine fails. Which layout
    // that is depends on how the two workers interleave, so the
    // checks below hold for any of them.
    faults().arm(FaultSite::SimLane, 3);
    CampaignReport faulty = CampaignRunner(config).runReport();
    faults().reset();

    ASSERT_EQ(faulty.failures.size(), 1u) << faulty.summary();
    const CellFailure &failure = faulty.failures[0];
    EXPECT_EQ(failure.platform, "SandyBridge");
    EXPECT_EQ(failure.workload, "test/tiny");
    EXPECT_EQ(failure.error.category(), ErrorCategory::Internal);
    EXPECT_EQ(faulty.cellsCompleted, clean.cellsCompleted - 1);

    // The failed layout is absent; every other row is byte-identical
    // to the clean run's, in the same canonical order.
    Dataset expected;
    for (const RunRecord &run :
         clean.dataset.runs("SandyBridge", "test/tiny")) {
        if (run.layout != failure.layout)
            expected.add(run);
    }
    EXPECT_EQ(faulty.dataset.totalRuns(), clean.dataset.totalRuns() - 1);
    EXPECT_EQ(faulty.dataset.toCsv(), expected.toCsv());
}

/**
 * The end-to-end drill from the issue: a campaign with an injected
 * fault completes, reports the failed cells in its summary, and a
 * rerun resumes from the partial CSV without recomputing covered
 * cells. Uses the real registry workload "gups/8GB" (the cheapest one)
 * because the threaded runner resolves workloads by label.
 */
TEST_F(CampaignFaultTest, FaultyCampaignCompletesReportsAndResumes)
{
    std::string cache = scratch_.file("resume.csv");

    CampaignConfig config = faultConfig();
    config.workloads = {"gups/8GB", "bogus/does-not-exist"};
    config.platforms = {cpu::sandyBridge()};
    config.jobs = 2;
    config.checkpointEvery = 1;
    CampaignRunner runner(config);

    // Phase A: the bad workload fails; the good pair still completes
    // and is checkpointed + saved to the CSV cache.
    CampaignReport first = runner.runReport(cache);
    EXPECT_FALSE(first.allOk());
    ASSERT_EQ(first.failures.size(), 1u);
    EXPECT_EQ(first.failures[0].workload, "bogus/does-not-exist");
    EXPECT_EQ(first.failures[0].layout, "*");
    EXPECT_EQ(first.failures[0].error.category(), ErrorCategory::Config);
    EXPECT_EQ(first.cellsCompleted, 55u);
    EXPECT_EQ(first.cellsResumed, 0u);
    EXPECT_GE(first.checkpointsWritten, 1u);
    EXPECT_NE(first.summary().find("FAILED"), std::string::npos);
    EXPECT_NE(first.summary().find("bogus/does-not-exist"),
              std::string::npos);
    ASSERT_EQ(first.dataset.runs("SandyBridge", "gups/8GB").size(), 55u);

    // Phase B: a rerun resumes every completed cell from the CSV and
    // simulates nothing new; only the bad workload fails again.
    CampaignReport second = runner.runReport(cache);
    EXPECT_EQ(second.cellsResumed, 55u);
    EXPECT_EQ(second.cellsCompleted, 0u);
    ASSERT_EQ(second.failures.size(), 1u);
    EXPECT_EQ(second.failures[0].workload, "bogus/does-not-exist");
    EXPECT_EQ(second.dataset.totalRuns(), 55u);

    // Phase C: drop 5 cells from the cache (an interrupted run's
    // partial CSV); the resume recomputes exactly those 5, and the
    // recomputed values match the original run bit-for-bit.
    const auto &complete = first.dataset.runs("SandyBridge", "gups/8GB");
    Dataset partial;
    std::vector<std::string> dropped;
    for (std::size_t i = 0; i < complete.size(); ++i) {
        if (i < 5)
            dropped.push_back(complete[i].layout);
        else
            partial.add(complete[i]);
    }
    partial.save(cache);

    CampaignConfig good_only = config;
    good_only.workloads = {"gups/8GB"};
    CampaignRunner resumer(good_only);
    CampaignReport third = resumer.runReport(cache);
    EXPECT_TRUE(third.allOk());
    EXPECT_EQ(third.cellsResumed, 50u);
    EXPECT_EQ(third.cellsCompleted, 5u);
    EXPECT_EQ(third.dataset.totalRuns(), 55u);
    for (const auto &layout : dropped) {
        EXPECT_EQ(third.dataset.findRun("SandyBridge", "gups/8GB", layout)
                      .result.runtimeCycles,
                  first.dataset.findRun("SandyBridge", "gups/8GB", layout)
                      .result.runtimeCycles)
            << layout;
    }

    // The final CSV on disk now covers the full pair again.
    auto reloaded = Dataset::loadResult(cache);
    ASSERT_TRUE(reloaded.ok());
    EXPECT_EQ(reloaded.value().totalRuns(), 55u);
}

/**
 * Resume-after-checkpoint row uniqueness: a cache CSV damaged into
 * holding the same (platform, workload, layout) rows twice — the shape
 * a checkpoint that fired mid-pair plus a later re-append would leave —
 * must resume into a dataset with every key exactly once, even when
 * the configured grid also names the pair twice.
 */
TEST_F(CampaignFaultTest, ResumeAfterCheckpointNeverDuplicatesRows)
{
    std::string cache = scratch_.file("dedup.csv");

    CampaignConfig config = faultConfig();
    config.workloads = {"gups/8GB"};
    config.platforms = {cpu::sandyBridge()};
    config.jobs = 2;
    CampaignRunner runner(config);

    // A complete pair to damage.
    CampaignReport first = runner.runReport(cache);
    ASSERT_TRUE(first.allOk());
    const auto &complete = first.dataset.runs("SandyBridge", "gups/8GB");
    ASSERT_EQ(complete.size(), 55u);

    // Partial cache with duplicates: the first 10 cells twice over,
    // the remaining 45 missing.
    Dataset damaged;
    for (std::size_t i = 0; i < 10; ++i)
        damaged.add(complete[i]);
    for (std::size_t i = 0; i < 10; ++i)
        damaged.add(complete[i]);
    damaged.save(cache);
    ASSERT_EQ(Dataset::loadResult(cache).value().totalRuns(), 20u);

    // Resume with the pair listed twice in the grid for good measure.
    CampaignConfig doubled = config;
    doubled.workloads = {"gups/8GB", "gups/8GB"};
    CampaignRunner resumer(doubled);
    CampaignReport second = resumer.runReport(cache);
    EXPECT_TRUE(second.allOk());
    EXPECT_EQ(second.cellsResumed, 10u);
    EXPECT_EQ(second.cellsCompleted, 45u);

    // Every key appears exactly once, in memory and in the saved CSV.
    auto assertUnique = [](const Dataset &dataset) {
        const auto &runs = dataset.runs("SandyBridge", "gups/8GB");
        EXPECT_EQ(runs.size(), 55u);
        std::set<std::string> layouts;
        for (const auto &record : runs)
            EXPECT_TRUE(layouts.insert(record.layout).second)
                << "duplicate row for layout " << record.layout;
    };
    assertUnique(second.dataset);
    auto reloaded = Dataset::loadResult(cache);
    ASSERT_TRUE(reloaded.ok());
    assertUnique(reloaded.value());
    EXPECT_EQ(reloaded.value().totalRuns(), 55u);
}

/**
 * loadOrRun completeness must count distinct layouts, not raw rows: a
 * cache holding 55 rows made of 11 layouts five times over has the
 * "right" row count, but 44 cells were never simulated. The old raw
 * runs().size() check declared such a cache complete and returned it
 * as-is.
 */
TEST_F(CampaignFaultTest, LoadOrRunTreatsDuplicateRowCacheAsIncomplete)
{
    std::string cache = scratch_.file("loadorrun.csv");

    CampaignConfig config = faultConfig();
    config.workloads = {"gups/8GB"};
    config.platforms = {cpu::sandyBridge()};
    config.jobs = 2;

    CampaignRunner runner(config);
    Dataset complete_data = runner.loadOrRun(cache);
    const auto &complete = complete_data.runs("SandyBridge", "gups/8GB");
    ASSERT_EQ(complete.size(), 55u);

    // Damaged cache: the first 11 layouts repeated five times — 55 raw
    // rows (the expected per-pair count), only 11 distinct layouts.
    Dataset damaged;
    for (int copy = 0; copy < 5; ++copy) {
        for (std::size_t i = 0; i < 11; ++i)
            damaged.add(complete[i]);
    }
    damaged.save(cache);
    ASSERT_EQ(Dataset::loadResult(cache).value().totalRuns(), 55u);

    // loadOrRun must see through the row count, resume the 44 missing
    // layouts, and hand back a full deduplicated pair.
    CampaignRunner resumer(config);
    Dataset repaired = resumer.loadOrRun(cache);
    const auto &runs = repaired.runs("SandyBridge", "gups/8GB");
    EXPECT_EQ(runs.size(), 55u);
    std::set<std::string> layouts;
    for (const auto &record : runs)
        layouts.insert(record.layout);
    EXPECT_EQ(layouts.size(), 55u);

    // The resumed cells match the original simulation bit-for-bit.
    for (const auto &record : complete) {
        EXPECT_EQ(repaired
                      .findRun("SandyBridge", "gups/8GB", record.layout)
                      .result.runtimeCycles,
                  record.result.runtimeCycles)
            << record.layout;
    }
}

/**
 * The per-cell watchdog: an impossible budget makes every cell fail
 * with a Timeout error. The campaign completes, nothing hangs, and the
 * failures are attributed to cells, not the process.
 */
TEST_F(CampaignFaultTest, CellTimeoutFailsEveryCellAsTimeout)
{
    CampaignConfig config = test::tinyCampaign({cpu::sandyBridge()});
    config.jobs = 2;
    config.cellTimeoutSeconds = 1e-9;
    MetricsRegistry registry;
    CampaignReport report =
        CampaignRunner(config, SimContext(registry, faults())).runReport();

    EXPECT_EQ(report.cellsCompleted, 0u);
    ASSERT_EQ(report.failures.size(), 55u);
    for (const auto &failure : report.failures)
        EXPECT_EQ(failure.error.category(), ErrorCategory::Timeout);
    EXPECT_EQ(registry.counter("campaign/cells_timed_out"), 55u);
}

/**
 * A final save that cannot be written (here: its directory is missing)
 * exhausts the backoff and is one structured Io failure named "save";
 * every cell still simulated, and a rerun to a writable path saves.
 */
TEST_F(CampaignFaultTest, FinalSaveFailureFailsTheSaveNotTheRun)
{
    CampaignConfig config = test::tinyCampaign({cpu::sandyBridge()});
    config.retry.initialDelay = std::chrono::milliseconds(0);
    CampaignReport report = CampaignRunner(config).runReport(
        scratch_.file("no-such-dir/x.csv"));
    EXPECT_EQ(report.cellsCompleted, 55u);
    ASSERT_EQ(report.failures.size(), 1u);
    EXPECT_EQ(report.failures[0].layout, "save");
    EXPECT_EQ(report.failures[0].error.category(), ErrorCategory::Io);

    std::string csv = scratch_.file("x.csv");
    CampaignReport retry = CampaignRunner(config).runReport(csv);
    EXPECT_TRUE(retry.allOk()) << retry.summary();
    auto saved = Dataset::loadResult(csv);
    ASSERT_TRUE(saved.ok()) << saved.error().str();
    EXPECT_EQ(saved.value().totalRuns(), 55u);
}
