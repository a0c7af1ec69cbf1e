/**
 * @file
 * Tests for the campaign dataset container and its CSV persistence.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "common/scratch_dir.hh"
#include "experiments/dataset.hh"
#include "support/fault_injector.hh"
#include "support/io_util.hh"

using namespace mosaic;
using namespace mosaic::exp;

namespace
{

RunRecord
makeRecord(const std::string &platform, const std::string &workload,
           const std::string &layout, Cycles runtime, Cycles walks)
{
    RunRecord record;
    record.platform = platform;
    record.workload = workload;
    record.layout = layout;
    record.result.runtimeCycles = runtime;
    record.result.walkCycles = walks;
    record.result.tlbMisses = walks / 40;
    record.result.tlbHitsL2 = walks / 80;
    record.result.instructions = 1000000;
    record.result.memoryRefs = 200000;
    record.result.progL1dLoads = 200000;
    record.result.walkL1dLoads = walks / 40;
    return record;
}

Dataset
makeToyDataset()
{
    Dataset dataset;
    // A fake 5-layout campaign for one pair.
    dataset.add(makeRecord("SandyBridge", "toy/a", layoutAll4k, 2000, 900));
    dataset.add(makeRecord("SandyBridge", "toy/a", "rand-0", 1800, 700));
    dataset.add(makeRecord("SandyBridge", "toy/a", "rand-1", 1500, 400));
    dataset.add(makeRecord("SandyBridge", "toy/a", layoutAll2m, 1200, 60));
    dataset.add(
        makeRecord("SandyBridge", "toy/a", layoutAll1g, 1100, 10));
    return dataset;
}

} // namespace

TEST(Dataset, AddAndQuery)
{
    Dataset dataset = makeToyDataset();
    EXPECT_TRUE(dataset.has("SandyBridge", "toy/a"));
    EXPECT_FALSE(dataset.has("Haswell", "toy/a"));
    EXPECT_EQ(dataset.runs("SandyBridge", "toy/a").size(), 5u);
    EXPECT_EQ(dataset.totalRuns(), 5u);
    EXPECT_EQ(dataset.platforms(), std::vector<std::string>{"SandyBridge"});
    EXPECT_EQ(dataset.workloads(), std::vector<std::string>{"toy/a"});
    EXPECT_THROW(dataset.runs("X", "Y"), std::logic_error);
}

TEST(Dataset, SampleSetSplitsReferences)
{
    Dataset dataset = makeToyDataset();
    auto set = dataset.sampleSet("SandyBridge", "toy/a");
    // The 1GB run is held out; the other 4 become samples.
    EXPECT_EQ(set.samples.size(), 4u);
    EXPECT_DOUBLE_EQ(set.all4k.r, 2000.0);
    EXPECT_DOUBLE_EQ(set.all2m.r, 1200.0);
    EXPECT_DOUBLE_EQ(set.all1g.r, 1100.0);
}

TEST(Dataset, TlbSensitivityFromSampleSet)
{
    Dataset dataset = makeToyDataset();
    auto set = dataset.sampleSet("SandyBridge", "toy/a");
    EXPECT_TRUE(set.tlbSensitive()); // (2000-1100)/2000 = 45%
    set.all1g.r = set.all4k.r * 0.97;
    EXPECT_FALSE(set.tlbSensitive());
}

TEST(Dataset, FindRunByLayout)
{
    Dataset dataset = makeToyDataset();
    const auto &run = dataset.findRun("SandyBridge", "toy/a", "rand-1");
    EXPECT_EQ(run.result.runtimeCycles, 1500u);
    EXPECT_THROW(dataset.findRun("SandyBridge", "toy/a", "nope"),
                 std::runtime_error);
}

TEST(Dataset, MissingReferencesPanics)
{
    Dataset dataset;
    dataset.add(makeRecord("P", "w/x", "rand-0", 100, 10));
    EXPECT_THROW(dataset.sampleSet("P", "w/x"), std::logic_error);
}

TEST(Dataset, SampleSetResultReportsMissingReferences)
{
    Dataset dataset;
    dataset.add(makeRecord("P", "w/x", "rand-0", 100, 10));
    auto partial = dataset.sampleSetResult("P", "w/x");
    ASSERT_FALSE(partial.ok());
    EXPECT_EQ(partial.error().category(), ErrorCategory::Config);
    auto absent = dataset.sampleSetResult("P", "w/y");
    ASSERT_FALSE(absent.ok());
    EXPECT_EQ(absent.error().category(), ErrorCategory::Config);

    // All-2MB stands in for a missing all-1GB run.
    dataset.add(makeRecord("P", "w/x", layoutAll4k, 300, 50));
    dataset.add(makeRecord("P", "w/x", layoutAll2m, 150, 5));
    auto set = dataset.sampleSetResult("P", "w/x");
    ASSERT_TRUE(set.ok()) << set.error().str();
    EXPECT_EQ(set.value().samples.size(), 3u);
    EXPECT_DOUBLE_EQ(set.value().all1g.r, 150.0);
}

TEST(Dataset, CsvRoundTrip)
{
    Dataset dataset = makeToyDataset();
    dataset.add(makeRecord("Haswell", "toy/b", layoutAll4k, 900, 300));

    test::ScratchDir scratch;
    std::string path = scratch.file("roundtrip.csv");
    dataset.save(path);
    Dataset loaded = Dataset::load(path);

    EXPECT_EQ(loaded.totalRuns(), dataset.totalRuns());
    const auto &original = dataset.findRun("SandyBridge", "toy/a",
                                           "rand-0");
    const auto &restored = loaded.findRun("SandyBridge", "toy/a",
                                          "rand-0");
    EXPECT_EQ(original.result.runtimeCycles,
              restored.result.runtimeCycles);
    EXPECT_EQ(original.result.walkCycles, restored.result.walkCycles);
    EXPECT_EQ(original.result.tlbMisses, restored.result.tlbMisses);
    EXPECT_EQ(original.result.progL1dLoads,
              restored.result.progL1dLoads);
}

TEST(Dataset, LoadRejectsBadHeader)
{
    test::ScratchDir scratch;
    std::string path = scratch.file("bad.csv");
    FILE *file = std::fopen(path.c_str(), "w");
    std::fputs("not,a,dataset\n", file);
    std::fclose(file);
    EXPECT_THROW(Dataset::load(path), std::runtime_error);
    auto result = Dataset::loadResult(path);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Corrupt);
}

TEST(Dataset, LoadMissingFileIsTransientIoError)
{
    auto result = Dataset::loadResult("no_such_dataset.csv");
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Io);
    EXPECT_TRUE(result.error().transient());
}

TEST(Dataset, LoadSkipsMalformedRows)
{
    Dataset dataset = makeToyDataset();
    test::ScratchDir scratch;
    std::string path = scratch.file("malformed.csv");
    dataset.save(path);

    // Append the kind of tail a killed writer (without atomic rename)
    // would leave: a half-written row, a non-numeric row, junk — plus
    // the rows std::stoull used to let through: a negative count
    // (wraps to 2^64-1) and a number with trailing junk (silently
    // truncated) — and a last row cut inside its final counter, which
    // still has every field and parses but lacks its newline. The
    // strict parser must reject all of them.
    FILE *file = std::fopen(path.c_str(), "a");
    std::fputs("SandyBridge,toy/a,chopped,123\n", file);
    std::fputs("SandyBridge,toy/a,bad,x,y,z,w,v,u,t\n", file);
    std::fputs("garbage\n", file);
    std::fputs("SandyBridge,toy/a,neg,-1,2,3,4,5,6,7,8,9,10,11,12,13,"
               "14,15,16\n",
               file);
    std::fputs("SandyBridge,toy/a,junk,123abc,2,3,4,5,6,7,8,9,10,11,12,"
               "13,14,15,16\n",
               file);
    std::fputs("SandyBridge,toy/a,torn,1,2,3,4,5,6,7,8,9,10,11,12,13,14,"
               "15,82",
               file);
    std::fclose(file);

    DatasetLoadStats stats;
    auto result = Dataset::loadResult(path, &stats);

    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().totalRuns(), dataset.totalRuns());
    EXPECT_EQ(stats.rowsLoaded, dataset.totalRuns());
    EXPECT_EQ(stats.rowsSkipped, 6u);
}

TEST(Dataset, SaveIsAtomicAndLeavesNoTempFile)
{
    Dataset dataset = makeToyDataset();
    test::ScratchDir scratch;
    std::string path = scratch.file("atomic.csv");

    // Pre-existing file gets replaced wholesale, not appended to.
    FILE *stale = std::fopen(path.c_str(), "w");
    std::fputs("stale contents that must vanish\n", stale);
    std::fclose(stale);

    dataset.save(path);
    Dataset loaded = Dataset::load(path);
    EXPECT_EQ(loaded.totalRuns(), dataset.totalRuns());

    FILE *tmp = std::fopen(tempPathFor(path).c_str(), "rb");
    EXPECT_EQ(tmp, nullptr);
    if (tmp)
        std::fclose(tmp);
}

TEST(Dataset, InjectedTruncatedRowIsSkippedOnReload)
{
    Dataset dataset = makeToyDataset();
    test::ScratchDir scratch;
    std::string path = scratch.file("fault.csv");

    faults().reset();
    faults().arm(FaultSite::CsvTruncate, 1);
    dataset.save(path);
    faults().reset();

    DatasetLoadStats stats;
    auto result = Dataset::loadResult(path, &stats);

    // The damaged row is dropped, everything else survives.
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().totalRuns(), dataset.totalRuns() - 1);
    EXPECT_EQ(stats.rowsSkipped, 1u);
}

TEST(Dataset, InjectedOpenFailureIsIoError)
{
    Dataset dataset = makeToyDataset();
    test::ScratchDir scratch;
    std::string path = scratch.file("openfault.csv");
    dataset.save(path);

    faults().reset();
    faults().arm(FaultSite::CsvOpen, 1);
    auto result = Dataset::loadResult(path);
    faults().reset();
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Io);

    // The file itself is intact; a retry succeeds.
    EXPECT_TRUE(Dataset::loadResult(path).ok());
}

TEST(Dataset, ToSampleMapsCounters)
{
    RunRecord record = makeRecord("P", "w/x", "rand-0", 5000, 800);
    auto sample = toSample(record);
    EXPECT_DOUBLE_EQ(sample.r, 5000.0);
    EXPECT_DOUBLE_EQ(sample.c, 800.0);
    EXPECT_DOUBLE_EQ(sample.m, 20.0);
    EXPECT_DOUBLE_EQ(sample.h, 10.0);
    EXPECT_EQ(sample.layoutName, "rand-0");
}

TEST(Dataset, EstErrColumnRoundTripsWithFixedPrecision)
{
    Dataset dataset;
    dataset.setEstErrColumn(true);
    RunRecord a = makeRecord("P", "w/x", "rand-0", 5000, 800);
    a.estErr = 0.0375;
    RunRecord b = makeRecord("P", "w/x", "rand-1", 4800, 700);
    b.estErr = 0.0; // full-coverage plan: exactly zero
    dataset.add(a);
    dataset.add(b);

    EXPECT_STREQ(dataset.csvHeader(), datasetCsvHeaderEstErr());
    test::ScratchDir scratch;
    std::string path = scratch.file("est_err.csv");
    dataset.save(path);

    Dataset loaded = Dataset::load(path);
    EXPECT_TRUE(loaded.estErrColumn());
    EXPECT_FALSE(loaded.swapColumn());
    EXPECT_NEAR(loaded.findRun("P", "w/x", "rand-0").estErr, 0.0375,
                1e-9);
    EXPECT_EQ(loaded.findRun("P", "w/x", "rand-1").estErr, 0.0);

    // A second save of the loaded dataset is byte-identical: the
    // fixed-precision emitter is a fixed point over its own output.
    std::string again = scratch.file("est_err2.csv");
    loaded.save(again);
    std::ifstream f1(path), f2(again);
    std::string s1((std::istreambuf_iterator<char>(f1)),
                   std::istreambuf_iterator<char>());
    std::string s2((std::istreambuf_iterator<char>(f2)),
                   std::istreambuf_iterator<char>());
    EXPECT_EQ(s1, s2);
}

TEST(Dataset, EstErrColumnComposesWithSwapColumn)
{
    Dataset dataset;
    dataset.setSwapColumn(true);
    dataset.setEstErrColumn(true);
    RunRecord record = makeRecord("P", "w/x", "rand-0", 5000, 800);
    record.result.swapCycles = 123;
    record.estErr = 0.5;
    dataset.add(record);

    test::ScratchDir scratch;
    std::string path = scratch.file("both.csv");
    dataset.save(path);
    Dataset loaded = Dataset::load(path);
    EXPECT_TRUE(loaded.swapColumn());
    EXPECT_TRUE(loaded.estErrColumn());
    const auto &run = loaded.findRun("P", "w/x", "rand-0");
    EXPECT_EQ(run.result.swapCycles, 123u);
    EXPECT_NEAR(run.estErr, 0.5, 1e-9);
}

TEST(Dataset, MalformedEstErrRowsAreSkipped)
{
    Dataset dataset;
    dataset.setEstErrColumn(true);
    dataset.add(makeRecord("P", "w/x", "rand-0", 5000, 800));
    test::ScratchDir scratch;
    std::string path = scratch.file("bad_est_err.csv");
    dataset.save(path);

    // est_err must be a finite non-negative number: negative values,
    // nan/inf, trailing junk, and a missing field are all damage.
    FILE *file = std::fopen(path.c_str(), "a");
    std::fputs("P,w/x,neg,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,-0.5\n",
               file);
    std::fputs("P,w/x,nan,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,nan\n",
               file);
    std::fputs(
        "P,w/x,junk,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16,0.5x\n",
        file);
    std::fputs("P,w/x,short,1,2,3,4,5,6,7,8,9,10,11,12,13,14,15,16\n",
               file);
    std::fclose(file);

    DatasetLoadStats stats;
    auto result = Dataset::loadResult(path, &stats);
    ASSERT_TRUE(result.ok());
    EXPECT_EQ(result.value().totalRuns(), 1u);
    EXPECT_EQ(stats.rowsSkipped, 4u);
}
