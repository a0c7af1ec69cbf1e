/**
 * @file
 * Integration tests: the full pipeline — workload trace, 54-layout
 * Mosalloc campaign, simulation, model fitting, evaluation — on a
 * scaled-down workload, asserting the paper's headline structure.
 */

#include <gtest/gtest.h>

#include <cstdio>

#include "common/scratch_dir.hh"
#include "cpu/platform.hh"
#include "experiments/campaign.hh"
#include "experiments/report.hh"
#include "models/evaluation.hh"
#include "models/fixed_models.hh"
#include "models/mosmodel.hh"
#include "workloads/gups.hh"

using namespace mosaic;

namespace
{

/** One small gups pair, campaign run once and shared across tests. */
const exp::Dataset &
sharedDataset()
{
    static const exp::Dataset dataset = [] {
        exp::CampaignConfig config;
        config.verbose = false;
        config.workloads = {"gups/8GB"};
        config.platforms = {cpu::sandyBridge()};
        config.workloadFactory = [](const std::string &) {
            workloads::GupsParams params;
            params.tableBytes = 64_MiB;
            params.updates = 60000;
            params.sizeName = "8GB";
            return std::make_unique<workloads::GupsWorkload>(params);
        };
        return exp::CampaignRunner(config).runReport().dataset;
    }();
    return dataset;
}

} // namespace

TEST(EndToEnd, CampaignProducesFiftyFivRuns)
{
    const auto &dataset = sharedDataset();
    // 54 exploration layouts + the all-1GB reference.
    EXPECT_EQ(dataset.runs("SandyBridge", "gups/8GB").size(), 55u);
}

TEST(EndToEnd, SamplesSpanTheWalkCycleRange)
{
    auto set = sharedDataset().sampleSet("SandyBridge", "gups/8GB");
    ASSERT_EQ(set.samples.size(), 54u);
    double min_c = 1e300, max_c = 0;
    for (const auto &sample : set.samples) {
        min_c = std::min(min_c, sample.c);
        max_c = std::max(max_c, sample.c);
    }
    // The campaign's purpose: many points between the endpoints.
    EXPECT_GT(max_c, 5.0 * std::max(min_c, 1.0));
    int interior = 0;
    for (const auto &sample : set.samples)
        interior += sample.c > min_c * 1.5 && sample.c < max_c * 0.75;
    EXPECT_GE(interior, 10);
}

TEST(EndToEnd, WorkloadIsTlbSensitive)
{
    auto set = sharedDataset().sampleSet("SandyBridge", "gups/8GB");
    EXPECT_TRUE(set.tlbSensitive());
    EXPECT_GT(set.all4k.r, set.all1g.r);
    EXPECT_GT(set.all4k.m, set.all1g.m * 50);
}

TEST(EndToEnd, MosmodelBeatsEveryFixedModel)
{
    // The paper's headline: preexisting models err badly; Mosmodel
    // bounds the error.
    auto set = sharedDataset().sampleSet("SandyBridge", "gups/8GB");

    double worst_fixed = 0.0;
    for (auto &model : models::makeFixedModels()) {
        auto errors = models::evaluateModel(*model, set);
        worst_fixed = std::max(worst_fixed, errors.maxError);
    }
    models::Mosmodel mosmodel;
    auto mos_errors = models::evaluateModel(mosmodel, set);

    EXPECT_GT(worst_fixed, 0.10);
    EXPECT_LT(mos_errors.maxError, 0.03); // the paper's bound
    EXPECT_LT(mos_errors.maxError, worst_fixed / 4.0);
}

TEST(EndToEnd, PolynomialHierarchyHolds)
{
    auto set = sharedDataset().sampleSet("SandyBridge", "gups/8GB");
    double e1 = models::evaluateModel(*exp::makeModelByName("poly1"),
                                      set)
                    .maxError;
    double e3 = models::evaluateModel(*exp::makeModelByName("poly3"),
                                      set)
                    .maxError;
    EXPECT_LE(e3, e1 + 1e-9);
}

TEST(EndToEnd, ReportPipelinesAgree)
{
    // computeErrorGrid must reproduce what direct evaluation gives.
    const auto &dataset = sharedDataset();
    auto rows = exp::computeErrorGrid(dataset, exp::ErrorKind::Max);
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_TRUE(rows[0].tlbSensitive);

    auto set = dataset.sampleSet("SandyBridge", "gups/8GB");
    models::Mosmodel mosmodel;
    auto direct = models::evaluateModel(mosmodel, set);
    EXPECT_NEAR(rows[0].errors.at("mosmodel"), direct.maxError, 1e-12);

    auto overall = exp::computeOverallMaxErrors(dataset);
    EXPECT_NEAR(overall.at("mosmodel"), direct.maxError, 1e-12);
}

TEST(EndToEnd, CurveIsSortedAndConsistent)
{
    auto curve = exp::computeCurve(sharedDataset(), "SandyBridge",
                                   "gups/8GB", {"yaniv", "mosmodel"});
    ASSERT_EQ(curve.size(), 54u);
    for (std::size_t i = 1; i < curve.size(); ++i)
        EXPECT_GE(curve[i].c, curve[i - 1].c);
    for (const auto &point : curve) {
        EXPECT_GT(point.measured, 0.0);
        EXPECT_EQ(point.predicted.size(), 2u);
    }
}

TEST(EndToEnd, CaseStudyPredicts1GbWell)
{
    // Section VII-D: train on the 4KB/2MB mosaics, predict all-1GB.
    auto rows = exp::computeCaseStudy1g(sharedDataset(),
                                        {"yaniv", "mosmodel"});
    ASSERT_EQ(rows.size(), 1u);
    EXPECT_LT(rows[0].errors.at("mosmodel"), 0.10);
}

TEST(EndToEnd, R2GridRanksWalkCyclesHigh)
{
    auto rows = exp::computeR2Grid(sharedDataset());
    ASSERT_EQ(rows.size(), 1u);
    // Table 8: C is the strongest single predictor for gups.
    EXPECT_GT(rows[0].r2c, 0.9);
    EXPECT_GE(rows[0].r2c, rows[0].r2h);
}

TEST(EndToEnd, CrossValidationStillFavoursMosmodel)
{
    auto cv = exp::computeCrossValidation(sharedDataset());
    EXPECT_LT(cv.at("mosmodel"), 0.10);
    EXPECT_LE(cv.at("poly3"), cv.at("poly1") + 0.05);
}

TEST(EndToEnd, DatasetCacheRoundTripPreservesEvaluation)
{
    const auto &dataset = sharedDataset();
    test::ScratchDir scratch;
    std::string path = scratch.file("e2e_cache.csv");
    dataset.save(path);
    auto loaded = exp::Dataset::load(path);

    auto before = exp::computeOverallMaxErrors(dataset);
    auto after = exp::computeOverallMaxErrors(loaded);
    for (const auto &[name, error] : before)
        EXPECT_NEAR(after.at(name), error, 1e-12) << name;
}
