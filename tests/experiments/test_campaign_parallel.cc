/**
 * @file
 * Determinism stress tests for the parallel campaign scheduler: the
 * same grid must produce a byte-identical dataset CSV and identical
 * golden counters for any --jobs value, and a killed run, torn CSV
 * tail included, must resume under a parallel scheduler without
 * recomputing or duplicating cells.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <iterator>

#include "common/scratch_dir.hh"
#include "common/tiny_workload.hh"
#include "experiments/campaign.hh"
#include "support/fault_injector.hh"
#include "support/io_util.hh"
#include "support/sim_context.hh"

using namespace mosaic;
using namespace mosaic::exp;

namespace
{

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

/** "test/seed-N": TinyWorkload's reads, drawn from seed N. */
class SeededWorkload : public test::TinyWorkload
{
  public:
    explicit SeededWorkload(std::uint64_t seed) : seed_(seed) {}

    workloads::WorkloadInfo
    info() const override
    {
        return {"test", "seed-" + std::to_string(seed_)};
    }

    trace::MemoryTrace
    generateTrace() const override
    {
        trace::MemoryTrace trace;
        Rng rng(seed_);
        VirtAddr base = alloc::PoolAddresses::heapBase;
        for (int i = 0; i < 12000; ++i)
            trace.add(base + alignDown(rng.nextBounded(24_MiB), 8), 2,
                      false);
        return trace;
    }

  private:
    std::uint64_t seed_;
};

const std::vector<std::string> seededLabels = {
    "test/seed-1", "test/seed-2", "test/seed-3", "test/seed-4"};

std::unique_ptr<workloads::Workload>
seededFactory(const std::string &label)
{
    for (std::size_t i = 0; i < seededLabels.size(); ++i) {
        if (label == seededLabels[i])
            return std::make_unique<SeededWorkload>(i + 1);
    }
    throw std::runtime_error("unknown test workload: " + label);
}

class CampaignParallelTest : public ::testing::Test
{
  protected:
    test::ScratchDir scratch_;
};

} // namespace

TEST_F(CampaignParallelTest, EffectiveJobsRespectsConfigAndFallsBack)
{
    CampaignConfig config = test::tinyCampaign();
    config.jobs = 3;
    EXPECT_EQ(CampaignRunner(config).effectiveJobs(), 3u);
    config.jobs = 0;
    EXPECT_GE(CampaignRunner(config).effectiveJobs(), 1u);
}

TEST_F(CampaignParallelTest, DatasetIsByteIdenticalForAnyJobCount)
{
    // The issue's determinism stress drill: the identical grid at
    // --jobs 1 and --jobs 8 must yield byte-identical CSVs — same
    // rows, same order, same golden counters in every column.
    CampaignConfig serial_config = test::tinyCampaign();
    serial_config.jobs = 1;
    std::string serial_csv = scratch_.file("jobs1.csv");
    CampaignReport serial =
        CampaignRunner(serial_config).runReport(serial_csv);
    ASSERT_TRUE(serial.allOk()) << serial.summary();
    EXPECT_EQ(serial.cellsCompleted, 3u * 55u); // 3 platforms x 55

    CampaignConfig wide_config = test::tinyCampaign();
    wide_config.jobs = 8;
    std::string wide_csv = scratch_.file("jobs8.csv");
    CampaignReport wide =
        CampaignRunner(wide_config).runReport(wide_csv);
    ASSERT_TRUE(wide.allOk()) << wide.summary();
    EXPECT_EQ(wide.cellsCompleted, serial.cellsCompleted);

    std::string serial_bytes = slurp(serial_csv);
    ASSERT_FALSE(serial_bytes.empty());
    EXPECT_EQ(serial_bytes, slurp(wide_csv));

    // Golden counters: every record's PMU readout matches cell by
    // cell, not just the serialized text.
    for (const auto &platform : wide.dataset.platforms()) {
        const auto &a = serial.dataset.runs(platform, "test/tiny");
        const auto &b = wide.dataset.runs(platform, "test/tiny");
        ASSERT_EQ(a.size(), b.size()) << platform;
        for (std::size_t i = 0; i < a.size(); ++i) {
            EXPECT_EQ(a[i].layout, b[i].layout);
            EXPECT_EQ(a[i].result.runtimeCycles,
                      b[i].result.runtimeCycles);
            EXPECT_EQ(a[i].result.tlbMisses, b[i].result.tlbMisses);
            EXPECT_EQ(a[i].result.walkCycles, b[i].result.walkCycles);
        }
    }
}

TEST_F(CampaignParallelTest, PerWorkerPhaseBreakdownCoversAllCells)
{
    PhaseStats before[4];
    for (unsigned worker = 0; worker < 4; ++worker) {
        before[worker] = metrics().phase("campaign/worker/" +
                                         std::to_string(worker));
    }

    CampaignConfig config = test::tinyCampaign();
    config.jobs = 4;
    CampaignReport report = CampaignRunner(config).runReport();
    ASSERT_TRUE(report.allOk()) << report.summary();

    // The merged per-worker breakdown accounts for every simulated
    // cell exactly once, whichever workers they landed on.
    std::uint64_t cells_timed = 0;
    for (unsigned worker = 0; worker < 4; ++worker) {
        PhaseStats after = metrics().phase("campaign/worker/" +
                                           std::to_string(worker));
        cells_timed += after.count - before[worker].count;
    }
    EXPECT_EQ(cells_timed, report.cellsCompleted);
    EXPECT_EQ(metrics().gauge("campaign/jobs"), 4.0);
}

TEST_F(CampaignParallelTest, KilledRunResumesUnderParallelScheduler)
{
    // Reference run: the full grid in one go.
    CampaignConfig config = test::tinyCampaign();
    config.jobs = 4;
    std::string full_csv = scratch_.file("full.csv");
    CampaignReport full = CampaignRunner(config).runReport(full_csv);
    ASSERT_TRUE(full.allOk()) << full.summary();
    std::string full_bytes = slurp(full_csv);

    // "Kill" mid-run: a partial checkpoint CSV holding an arbitrary
    // subset of the cells (some pairs partially done, one untouched).
    Dataset partial;
    std::size_t kept = 0, dropped = 0;
    const auto platforms = full.dataset.platforms();
    for (std::size_t p = 0; p < platforms.size(); ++p) {
        const auto &runs = full.dataset.runs(platforms[p], "test/tiny");
        for (std::size_t i = 0; i < runs.size(); ++i) {
            // Platform 0 keeps everything, 1 keeps half, 2 nothing.
            bool keep = p == 0 || (p == 1 && i % 2 == 0);
            if (keep) {
                partial.add(runs[i]);
                ++kept;
            } else {
                ++dropped;
            }
        }
    }
    ASSERT_GT(dropped, 0u);
    std::string resume_csv = scratch_.file("resume.csv");
    partial.save(resume_csv);

    // Resume under --jobs 4: only the dropped cells are simulated, and
    // the final CSV is byte-identical to the uninterrupted run.
    CampaignReport resumed = CampaignRunner(config).runReport(resume_csv);
    ASSERT_TRUE(resumed.allOk()) << resumed.summary();
    EXPECT_EQ(resumed.cellsResumed, kept);
    EXPECT_EQ(resumed.cellsCompleted, dropped);
    EXPECT_EQ(resumed.dataset.totalRuns(), kept + dropped);
    EXPECT_EQ(slurp(resume_csv), full_bytes);
}

TEST_F(CampaignParallelTest, TornCsvTailResumesByteIdentical)
{
    CampaignConfig config = test::tinyCampaign();
    config.jobs = 4;
    std::string full_csv = scratch_.file("full.csv");
    CampaignReport full = CampaignRunner(config).runReport(full_csv);
    ASSERT_TRUE(full.allOk()) << full.summary();
    std::string full_bytes = slurp(full_csv);

    // A writer killed mid-row leaves a torn tail. Cut copies of the
    // uninterrupted CSV resume to the same bytes, recomputing the torn
    // row: one cut at a third of its bytes, one without the final
    // newline and last digit, and one inside the last counter of the
    // row before, which then still has every field and parses.
    const std::size_t last_row_end =
        full_bytes.rfind('\n', full_bytes.size() - 2);
    for (std::size_t cut : {full_bytes.size() / 3, full_bytes.size() - 2,
                            last_row_end - 1}) {
        std::string torn_csv = scratch_.file("torn.csv");
        ASSERT_TRUE(
            writeFileAtomic(torn_csv, full_bytes.substr(0, cut)).ok());
        CampaignReport torn = CampaignRunner(config).runReport(torn_csv);
        ASSERT_TRUE(torn.allOk()) << torn.summary();
        EXPECT_GT(torn.cellsCompleted, 0u) << "cut at " << cut;
        EXPECT_EQ(torn.cellsResumed + torn.cellsCompleted, 3u * 55u);
        EXPECT_EQ(slurp(torn_csv), full_bytes) << "cut at " << cut;
    }
}

TEST_F(CampaignParallelTest, LiveWorkloadsAreBoundedByJobs)
{
    // A workload's trace is dropped when its last cell commits, so of
    // four workloads one worker holds one at a time and two workers
    // at most two; without the drop all four stay resident.
    auto run = [&](unsigned jobs, const std::string &csv) {
        CampaignConfig config = test::tinyCampaign({cpu::sandyBridge()});
        config.workloads = seededLabels;
        config.workloadFactory = seededFactory;
        config.jobs = jobs;
        MetricsRegistry registry;
        CampaignReport report =
            CampaignRunner(config, SimContext(registry, faults()))
                .runReport(csv);
        EXPECT_TRUE(report.allOk()) << report.summary();
        EXPECT_EQ(report.cellsCompleted, 4u * 55u);
        return registry.gauge("campaign/workloads_live_max");
    };
    const std::string serial_csv = scratch_.file("live1.csv");
    const std::string wide_csv = scratch_.file("live2.csv");
    EXPECT_EQ(run(1, serial_csv), 1.0);
    const double wide = run(2, wide_csv);
    EXPECT_GE(wide, 1.0);
    EXPECT_LE(wide, 2.0);
    const std::string serial_bytes = slurp(serial_csv);
    ASSERT_FALSE(serial_bytes.empty());
    EXPECT_EQ(serial_bytes, slurp(wide_csv));
}
