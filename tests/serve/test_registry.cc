/**
 * @file
 * Tests for the serve ModelRegistry: warm predictions from a loaded
 * campaign dataset, structured rejection of unknown names, and the
 * cold path — on-demand simulation, the interval-sampled cold
 * variant, per-layout failure isolation, single-flight dedup, the
 * fill's replay width, deadline timeouts, and trace-store reuse and
 * quarantine.
 */

#include <gtest/gtest.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <fstream>
#include <mutex>
#include <thread>
#include <vector>

#include "common/scratch_dir.hh"
#include "common/tiny_workload.hh"
#include "experiments/campaign.hh"
#include "serve/model_registry.hh"
#include "support/fault_injector.hh"
#include "support/sim_context.hh"
#include "trace/trace_store.hh"

using namespace mosaic;
using namespace mosaic::serve;

namespace
{

/** Campaign dataset over TinyWorkload, built once per test binary. */
const exp::Dataset &
sharedDataset()
{
    static const exp::Dataset dataset = [] {
        return exp::CampaignRunner(test::tinyCampaign({cpu::sandyBridge()}))
            .runReport()
            .dataset;
    }();
    return dataset;
}

ModelRegistry::Options
coldOptions()
{
    ModelRegistry::Options options;
    options.workloadFactory = test::tinyFactory;
    return options;
}

PredictQuery
tinyQuery()
{
    PredictQuery query;
    query.platform = "SandyBridge";
    query.workload = "test/tiny";
    query.byLayout = true;
    query.layout = "grow-3";
    return query;
}

/** Every layout of @p platform's resident tiny surface measured the
 *  runtime @p campaign recorded for it. */
void
expectCampaignSurface(ModelRegistry &registry, const std::string &platform,
                      const exp::Dataset &campaign)
{
    MetricsRegistry shard;
    SimContext context(shard, faults());
    const auto &runs = campaign.runs(platform, "test/tiny");
    ASSERT_EQ(runs.size(), 55u);
    for (const auto &run : runs) {
        PredictQuery query = tinyQuery();
        query.platform = platform;
        query.layout = run.layout;
        auto answer = registry.predict(query, context);
        ASSERT_TRUE(answer.ok()) << run.layout << ": "
                                 << answer.error().str();
        EXPECT_FALSE(answer.value().cold) << run.layout;
        EXPECT_EQ(answer.value().measuredCycles,
                  static_cast<double>(run.result.runtimeCycles))
            << platform << " " << run.layout;
    }
}

} // namespace

TEST(ServeRegistry, LoadsDatasetAndPredictsWarm)
{
    test::ScratchDir scratch("serve_registry");
    const std::string csv = scratch.path() + "/campaign.csv";
    sharedDataset().save(csv);

    ModelRegistry registry(ModelRegistry::Options{});
    auto loaded = registry.loadDataset(csv);
    ASSERT_TRUE(loaded.ok()) << loaded.error().str();
    EXPECT_EQ(loaded.value(), 1u);
    EXPECT_TRUE(registry.isResident("SandyBridge", "test/tiny"));

    MetricsRegistry shard;
    SimContext context(shard, faults());
    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_FALSE(prediction.value().cold);
    EXPECT_TRUE(prediction.value().hasMeasured);
    EXPECT_GT(prediction.value().predictedCycles, 0.0);
    EXPECT_GT(prediction.value().measuredCycles, 0.0);
    EXPECT_EQ(shard.counter("serve/warm_hits"), 1u);
    EXPECT_EQ(shard.counter("serve/model_fits"), 1u);

    // Second query reuses the fitted model.
    auto again = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(again.ok());
    EXPECT_EQ(shard.counter("serve/model_fits"), 1u);
    EXPECT_EQ(shard.counter("serve/model_cache_hits"), 1u);
    EXPECT_DOUBLE_EQ(again.value().predictedCycles,
                     prediction.value().predictedCycles);
}

TEST(ServeRegistry, MetricQueriesPredictWithoutMeasuredRuntime)
{
    test::ScratchDir scratch("serve_registry");
    const std::string csv = scratch.path() + "/campaign.csv";
    sharedDataset().save(csv);
    ModelRegistry registry(ModelRegistry::Options{});
    ASSERT_TRUE(registry.loadDataset(csv).ok());

    MetricsRegistry shard;
    SimContext context(shard, faults());
    PredictQuery query = tinyQuery();
    query.byLayout = false;
    query.layout.clear();
    query.h = 1000;
    query.m = 200;
    query.c = 60000;
    auto prediction = registry.predict(query, context);
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_FALSE(prediction.value().hasMeasured);
    EXPECT_TRUE(std::isfinite(prediction.value().predictedCycles));
}

TEST(ServeRegistry, UnknownNamesAreConfigErrorsNotAborts)
{
    test::ScratchDir scratch("serve_registry");
    const std::string csv = scratch.path() + "/campaign.csv";
    sharedDataset().save(csv);
    ModelRegistry registry(ModelRegistry::Options{});
    ASSERT_TRUE(registry.loadDataset(csv).ok());

    MetricsRegistry shard;
    SimContext context(shard, faults());

    PredictQuery query = tinyQuery();
    query.model = "no-such-model";
    auto badModel = registry.predict(query, context);
    ASSERT_FALSE(badModel.ok());
    EXPECT_EQ(badModel.error().category(), ErrorCategory::Config);

    query = tinyQuery();
    query.layout = "grow-999";
    auto badLayout = registry.predict(query, context);
    ASSERT_FALSE(badLayout.ok());
    EXPECT_EQ(badLayout.error().category(), ErrorCategory::Config);

    // Unknown platform and workload surface from the cold path.
    ModelRegistry cold(coldOptions());
    query = tinyQuery();
    query.platform = "Cray-1";
    auto badPlatform = cold.predict(query, context);
    ASSERT_FALSE(badPlatform.ok());
    EXPECT_EQ(badPlatform.error().category(), ErrorCategory::Config);

    query = tinyQuery();
    query.workload = "test/unknown";
    auto badWorkload = cold.predict(query, context);
    ASSERT_FALSE(badWorkload.ok());
    EXPECT_EQ(badWorkload.error().category(), ErrorCategory::Config);
}

TEST(ServeRegistry, ColdDisabledRefusesUnknownPairs)
{
    ModelRegistry::Options options = coldOptions();
    options.allowCold = false;
    ModelRegistry registry(std::move(options));
    MetricsRegistry shard;
    SimContext context(shard, faults());
    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_FALSE(prediction.ok());
    EXPECT_EQ(prediction.error().category(), ErrorCategory::Config);
    EXPECT_NE(prediction.error().message().find("cold"),
              std::string::npos);
}

TEST(ServeRegistry, ColdPathSimulatesCachesAndMatchesTheCampaign)
{
    ModelRegistry registry(coldOptions());
    MetricsRegistry shard;
    SimContext context(shard, faults());

    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_TRUE(prediction.value().cold);
    EXPECT_EQ(shard.counter("serve/cold_simulations"), 1u);
    EXPECT_TRUE(registry.isResident("SandyBridge", "test/tiny"));

    // The cold surface is the campaign surface: same layouts, same
    // seed, same replay kernel — the measured runtime of grow-3 must
    // be bit-identical to the dataset the campaign runner produced.
    const auto &row =
        sharedDataset().findRun("SandyBridge", "test/tiny", "grow-3");
    EXPECT_DOUBLE_EQ(prediction.value().measuredCycles,
                     static_cast<double>(row.result.runtimeCycles));

    // Later queries answer warm from the cached surface.
    auto warm = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(warm.ok());
    EXPECT_FALSE(warm.value().cold);
    EXPECT_EQ(shard.counter("serve/cold_simulations"), 1u);
}

TEST(ServeRegistry, ColdSampledPathEstimatesAndReplaysFewerRecords)
{
    ModelRegistry::Options options = coldOptions();
    options.coldSampling.mode = sampling::SampleMode::Interval;
    options.coldSampling.intervalRecords = 1024; // 12 intervals
    options.coldSampling.clusters = 3;
    options.coldSampling.warmupRecords = 256;
    ModelRegistry registry(std::move(options));
    MetricsRegistry shard;
    SimContext context(shard, faults());

    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_TRUE(prediction.value().cold);
    EXPECT_EQ(shard.counter("serve/cold_sampled"), 1u);
    EXPECT_TRUE(registry.isResident("SandyBridge", "test/tiny"));

    // Sampled cold lanes replay only the plan's segments: strictly
    // fewer records measured than skipped, across the whole grid.
    const std::uint64_t replayed =
        shard.counter("replay/sampled_records_replayed");
    const std::uint64_t skipped =
        shard.counter("replay/sampled_records_skipped");
    EXPECT_GT(replayed, 0u);
    EXPECT_GT(skipped, replayed);

    // The extrapolated grow-3 runtime approximates the full campaign
    // measurement (loose bound — the plan reports its own estimate).
    const auto &row =
        sharedDataset().findRun("SandyBridge", "test/tiny", "grow-3");
    const double full = static_cast<double>(row.result.runtimeCycles);
    EXPECT_GT(prediction.value().measuredCycles, 0.0);
    EXPECT_NEAR(prediction.value().measuredCycles, full, 0.25 * full);

    // Sampled cold surfaces are deterministic: a second registry with
    // the same knobs lands on the identical estimate.
    ModelRegistry::Options again = coldOptions();
    again.coldSampling.mode = sampling::SampleMode::Interval;
    again.coldSampling.intervalRecords = 1024;
    again.coldSampling.clusters = 3;
    again.coldSampling.warmupRecords = 256;
    ModelRegistry rerun(std::move(again));
    auto repeat = rerun.predict(tinyQuery(), context);
    ASSERT_TRUE(repeat.ok()) << repeat.error().str();
    EXPECT_DOUBLE_EQ(repeat.value().measuredCycles,
                     prediction.value().measuredCycles);
}

TEST(ServeRegistry, ColdLaneFaultDropsOneLayoutUnlessItIsAReference)
{
    // At jobs 1 cold layouts replay in campaign order, so the 2nd
    // machine built is grow-1: a fault there costs that one layout,
    // and the pair is still fitted and answers. A wider fill builds
    // machines in whatever order its threads reach them, and the N-th
    // sim-lane hit would name no particular layout, so this test pins
    // the width to 1.
    ModelRegistry::Options serial = coldOptions();
    serial.jobs = 1;
    faults().reset();
    {
        ModelRegistry registry(serial);
        MetricsRegistry shard;
        SimContext context(shard, faults());
        faults().arm(FaultSite::SimLane, 2);
        auto prediction = registry.predict(tinyQuery(), context);
        faults().reset();
        ASSERT_TRUE(prediction.ok()) << prediction.error().str();
        EXPECT_EQ(shard.counter("serve/cold_lane_failures"), 1u);
        EXPECT_TRUE(registry.isResident("SandyBridge", "test/tiny"));
    }

    // The 1st is the all-4KB reference every model needs: the cold
    // fill fails with an error naming it, and nothing is cached.
    ModelRegistry registry(serial);
    MetricsRegistry shard;
    SimContext context(shard, faults());
    faults().arm(FaultSite::SimLane, 1);
    auto prediction = registry.predict(tinyQuery(), context);
    faults().reset();
    ASSERT_FALSE(prediction.ok());
    const std::string message = prediction.error().str();
    EXPECT_NE(message.find("required reference " + exp::layoutAll4k),
              std::string::npos)
        << message;
    EXPECT_EQ(shard.counter("serve/cold_lane_failures"), 0u);
    EXPECT_FALSE(registry.isResident("SandyBridge", "test/tiny"));
}

TEST(ServeRegistry, ConcurrentColdQueriesDedupToOneSimulation)
{
    ModelRegistry registry(coldOptions());
    MetricsRegistry shard;

    constexpr int kThreads = 8;
    std::atomic<int> armed{0};
    std::atomic<int> okCount{0};
    std::vector<std::thread> threads;
    for (int i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            SimContext context(shard, faults());
            armed.fetch_add(1);
            while (armed.load() < kThreads) {
            }
            auto prediction = registry.predict(tinyQuery(), context);
            if (prediction.ok())
                okCount.fetch_add(1);
        });
    }
    for (auto &thread : threads)
        thread.join();

    EXPECT_EQ(okCount.load(), kThreads);
    EXPECT_EQ(shard.counter("serve/cold_simulations"), 1u);
}

TEST(ServeRegistry, LoneColdFillReplaysAtTheDaemonsFullWidth)
{
    ModelRegistry::Options options = coldOptions();
    options.jobs = 4;
    ModelRegistry registry(std::move(options));
    MetricsRegistry shard;
    SimContext context(shard, faults());

    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_TRUE(prediction.value().cold);
    EXPECT_EQ(shard.gauge("campaign/jobs"), 4.0);

    // Replaying wide changes no counter: the whole surface is the
    // campaign's.
    expectCampaignSurface(registry, "SandyBridge", sharedDataset());
}

TEST(ServeRegistry, OverlappingColdFillsEachReplayAtTheDaemonsWidth)
{
    // Each fill builds its workload before it replays. A factory that
    // waits there for the other fill keeps both fills in flight
    // together until both have arrived.
    std::mutex mutex;
    std::condition_variable cv;
    int arrived = 0; ///< fills that reached the factory
    int met = 0;     ///< fills that saw the other one arrive
    ModelRegistry::Options options = coldOptions();
    options.jobs = 2;
    options.workloadFactory = [&](const std::string &label) {
        std::unique_lock<std::mutex> lock(mutex);
        ++arrived;
        cv.notify_all();
        if (cv.wait_for(lock, std::chrono::seconds(60),
                        [&] { return arrived >= 2; }))
            ++met;
        return test::tinyFactory(label);
    };
    ModelRegistry registry(std::move(options));

    const std::array<std::string, 2> platforms = {"SandyBridge",
                                                  "Haswell"};
    std::array<MetricsRegistry, 2> shards;
    std::array<bool, 2> cold = {false, false};
    std::vector<std::thread> threads;
    for (std::size_t i = 0; i < platforms.size(); ++i) {
        threads.emplace_back([&, i] {
            PredictQuery query = tinyQuery();
            query.platform = platforms[i];
            auto prediction =
                registry.predict(query, SimContext(shards[i], faults()));
            cold[i] = prediction.ok() && prediction.value().cold;
        });
    }
    for (auto &thread : threads)
        thread.join();

    ASSERT_EQ(met, 2) << "the two fills never overlapped";
    for (std::size_t i = 0; i < platforms.size(); ++i) {
        EXPECT_TRUE(cold[i]) << platforms[i];
        EXPECT_EQ(shards[i].gauge("campaign/jobs"), 2.0) << platforms[i];
    }

    const exp::Dataset campaign =
        exp::CampaignRunner(
            test::tinyCampaign({cpu::sandyBridge(), cpu::haswell()}))
            .runReport()
            .dataset;
    for (const auto &platform : platforms)
        expectCampaignSurface(registry, platform, campaign);
}

TEST(ServeRegistry, ExpiredDeadlineTimesOutTheColdPath)
{
    ModelRegistry registry(coldOptions());
    MetricsRegistry shard;
    SimContext context =
        SimContext(shard, faults())
            .withDeadline(std::chrono::steady_clock::now() -
                          std::chrono::seconds(1));
    auto prediction = registry.predict(tinyQuery(), context);
    ASSERT_FALSE(prediction.ok());
    EXPECT_EQ(prediction.error().category(), ErrorCategory::Timeout);
    EXPECT_EQ(shard.counter("serve/cold_timeouts"), 1u);
    // The failed pair is not cached; a later unbounded query works.
    EXPECT_FALSE(registry.isResident("SandyBridge", "test/tiny"));
    SimContext unbounded(shard, faults());
    EXPECT_TRUE(registry.predict(tinyQuery(), unbounded).ok());
}

TEST(ServeRegistry, TraceCacheDirIsReusedAcrossRegistries)
{
    test::ScratchDir scratch("serve_trace_cache");
    MetricsRegistry shard;
    SimContext context(shard, faults());

    ModelRegistry::Options options = coldOptions();
    options.traceCacheDir = scratch.path();
    ModelRegistry first(std::move(options));
    ASSERT_TRUE(first.predict(tinyQuery(), context).ok());
    EXPECT_EQ(shard.counter("trace_store/hits"), 0u);

    ModelRegistry::Options reuse = coldOptions();
    reuse.traceCacheDir = scratch.path();
    ModelRegistry second(std::move(reuse));
    ASSERT_TRUE(second.predict(tinyQuery(), context).ok());
    EXPECT_EQ(shard.counter("trace_store/hits"), 1u);
}

TEST(ServeRegistry, CorruptTraceStoreIsQuarantinedAndRegenerated)
{
    test::ScratchDir scratch("serve_corrupt_store");
    const std::string store = scratch.path() + "/" +
                              exp::traceCacheStem("test/tiny") +
                              trace::traceStoreExtension;
    {
        ModelRegistry::Options options = coldOptions();
        options.traceCacheDir = scratch.path();
        ModelRegistry first(std::move(options));
        MetricsRegistry shard;
        ASSERT_TRUE(first.predict(tinyQuery(), SimContext(shard, faults()))
                        .ok());
    }

    // Flip one byte of the first column, past the 64-byte superblock:
    // the store still opens as a file but fails its column CRC.
    {
        std::fstream file(store,
                          std::ios::in | std::ios::out | std::ios::binary);
        ASSERT_TRUE(file.good()) << store;
        file.seekg(100);
        char byte = 0;
        file.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x20);
        file.seekp(100);
        file.write(&byte, 1);
    }

    // The cold fill quarantines the damaged store, regenerates the
    // trace, and answers with the campaign's runtime.
    ModelRegistry::Options options = coldOptions();
    options.traceCacheDir = scratch.path();
    ModelRegistry second(std::move(options));
    MetricsRegistry shard;
    auto prediction =
        second.predict(tinyQuery(), SimContext(shard, faults()));
    ASSERT_TRUE(prediction.ok()) << prediction.error().str();
    EXPECT_TRUE(prediction.value().cold);
    const auto &row =
        sharedDataset().findRun("SandyBridge", "test/tiny", "grow-3");
    EXPECT_DOUBLE_EQ(prediction.value().measuredCycles,
                     static_cast<double>(row.result.runtimeCycles));
    EXPECT_TRUE(std::ifstream(store + ".corrupt").good());
    EXPECT_EQ(shard.counter("trace_store/quarantined"), 1u);
}
