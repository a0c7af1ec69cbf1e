/**
 * @file
 * Tests for Mosmodel's configuration surface: input subsets (the
 * ablation interface), automatic Lasso-strength selection, and the
 * endpoint-pinned cross-validation procedure.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>

#include "models/evaluation.hh"
#include "models/mosmodel.hh"
#include "models/regression_models.hh"
#include "support/random.hh"

using namespace mosaic;
using namespace mosaic::models;

namespace
{

/** Campaign-shaped synthetic data with a mild nonlinearity. */
SampleSet
campaignData(std::uint64_t seed = 11)
{
    SampleSet data;
    Rng rng(seed);
    for (std::size_t i = 0; i < 54; ++i) {
        double coverage = static_cast<double>(i) / 53.0;
        double jitter = 0.95 + 0.1 * rng.nextDouble();
        double m = 8e5 * (1.0 - coverage) * jitter;
        double h = 2e5 * (1.0 - 0.7 * coverage) * jitter;
        double c = 45.0 * m + 7.0 * h;
        double r = 3e7 + 0.85 * c + c * c / 5e8 + 6.0 * h;
        data.samples.push_back(
            Sample{"s" + std::to_string(i), r, h, m, c});
    }
    // Order samples so the extremes carry the endpoint names.
    data.all4k = data.samples.front();
    data.all2m = data.samples.back();
    data.all1g = data.samples.back();
    return data;
}

} // namespace

TEST(MosmodelConfig, InputSubsetNames)
{
    MosmodelConfig config;
    config.inputs = {'C'};
    EXPECT_EQ(Mosmodel(config).name(), "mosmodel[C]");
    config.inputs = {'M', 'C'};
    EXPECT_EQ(Mosmodel(config).name(), "mosmodel[MC]");
    config.inputs = {'H', 'M', 'C'};
    EXPECT_EQ(Mosmodel(config).name(), "mosmodel");
}

TEST(MosmodelConfig, SingleInputFeatureCount)
{
    MosmodelConfig config;
    config.inputs = {'C'};
    Mosmodel model(config);
    EXPECT_EQ(model.numFeatures(), 4u); // 1, C, C^2, C^3
}

TEST(MosmodelConfig, RejectsBadInputs)
{
    MosmodelConfig config;
    config.inputs = {'Z'};
    Mosmodel model(config);
    EXPECT_THROW(model.fit(campaignData()), std::runtime_error);
}

TEST(MosmodelConfig, CInputFitsCDrivenData)
{
    MosmodelConfig config;
    config.inputs = {'C'};
    config.autoLambda = false;
    config.lasso.lambdaRatio = 1e-4;
    // Build data where R depends only on C.
    SampleSet data = campaignData();
    for (auto &sample : data.samples)
        sample.r = 1e7 + 0.9 * sample.c + sample.c * sample.c / 1e9;
    Mosmodel model(config);
    auto errors = evaluateModel(model, data);
    EXPECT_LT(errors.maxError, 0.01);
}

TEST(MosmodelConfig, AutoLambdaPicksFromGrid)
{
    MosmodelConfig config;
    config.autoLambda = true;
    Mosmodel model(config);
    model.fit(campaignData());
    const auto &grid = config.lambdaGrid;
    EXPECT_NE(std::find(grid.begin(), grid.end(),
                        model.chosenLambdaRatio()),
              grid.end());
}

TEST(MosmodelConfig, FixedLambdaIsRespected)
{
    MosmodelConfig config;
    config.autoLambda = false;
    config.lasso.lambdaRatio = 0.05;
    Mosmodel model(config);
    model.fit(campaignData());
    EXPECT_DOUBLE_EQ(model.chosenLambdaRatio(), 0.05);
}

TEST(MosmodelConfig, AutoLambdaNoWorseThanWorstFixed)
{
    // The selected lambda's in-sample error must not exceed the error
    // of the stiffest grid entry (sanity of the selection logic).
    SampleSet data = campaignData();
    MosmodelConfig stiff;
    stiff.autoLambda = false;
    stiff.lasso.lambdaRatio = 3e-2;
    Mosmodel stiff_model(stiff);
    auto stiff_errors = evaluateModel(stiff_model, data);

    MosmodelConfig automatic;
    automatic.autoLambda = true;
    Mosmodel auto_model(automatic);
    auto auto_errors = evaluateModel(auto_model, data);
    EXPECT_LE(auto_errors.maxError, stiff_errors.maxError + 1e-9);
}

TEST(MosmodelConfig, ReportsLambdaSelectionAndCertificate)
{
    Mosmodel selected{MosmodelConfig()};
    selected.fit(campaignData());
    EXPECT_TRUE(std::isfinite(selected.cvScore()));
    EXPECT_GE(selected.cvScore(), 0.0);
    EXPECT_LE(selected.lassoResult().kktRatio, stats::kLassoCertifiedKkt);

    MosmodelConfig fixed;
    fixed.autoLambda = false;
    fixed.lasso.lambdaRatio = 1e-3;
    Mosmodel configured(fixed);
    configured.fit(campaignData());
    EXPECT_TRUE(std::isnan(configured.cvScore()));
    EXPECT_LE(configured.lassoResult().kktRatio,
              stats::kLassoCertifiedKkt);
}

TEST(CrossValidation, EndpointPinningBoundsExtrapolation)
{
    // Construct data whose maximal-C sample is far beyond the rest: a
    // cubic trained without it would extrapolate wildly. Pinning the
    // extremes into every training fold keeps CV finite and sane.
    SampleSet data = campaignData();
    Sample extreme = data.samples.back();
    extreme.c *= 6.0;
    extreme.m *= 6.0;
    extreme.r = 3e7 + 0.85 * extreme.c + extreme.c * extreme.c / 5e8 +
                6.0 * extreme.h;
    data.samples.push_back(extreme);
    data.all2m = extreme;

    double cv = crossValidateMaxError([] { return makePoly3(); }, data);
    EXPECT_LT(cv, 0.25);
}

TEST(CrossValidation, DeterministicPerSeed)
{
    SampleSet data = campaignData();
    double a = crossValidateMaxError([] { return makePoly2(); }, data,
                                     6, 7);
    double b = crossValidateMaxError([] { return makePoly2(); }, data,
                                     6, 7);
    EXPECT_DOUBLE_EQ(a, b);
}

TEST(CrossValidation, MosmodelGeneralizesOnCleanData)
{
    double cv = crossValidateMaxError([] { return makeMosmodel(); },
                                      campaignData());
    EXPECT_LT(cv, 0.05);
}
