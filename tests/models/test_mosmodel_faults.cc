/**
 * @file
 * Tests for Mosmodel's numeric-failure handling: dropping poisoned
 * samples and degrading to lower polynomial degrees instead of
 * publishing garbage, driven through the fault injector.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <limits>

#include "models/mosmodel.hh"
#include "support/fault_injector.hh"
#include "support/metrics.hh"
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
    data.all4k = data.samples.front();
    data.all2m = data.samples.back();
    data.all1g = data.samples.back();
    return data;
}

/** Fixed-lambda config: the fault hits the degree-D fit directly
 *  instead of being absorbed by the lambda cross-validation. */
MosmodelConfig
fixedLambdaConfig()
{
    MosmodelConfig config;
    config.autoLambda = false;
    config.lasso.lambdaRatio = 1e-3;
    return config;
}

class MosmodelFaultTest : public ::testing::Test
{
  protected:
    void SetUp() override { faults().reset(); }
    void TearDown() override { faults().reset(); }
};

} // namespace

TEST_F(MosmodelFaultTest, CleanFitUsesConfiguredDegree)
{
    Mosmodel model(fixedLambdaConfig());
    model.fit(campaignData());
    EXPECT_TRUE(model.fitted());
    EXPECT_EQ(model.fittedDegree(), 3u);
    EXPECT_FALSE(model.degraded());
    EXPECT_EQ(model.droppedSamples(), 0u);
}

TEST_F(MosmodelFaultTest, RankDeficientDesignKeepsConfiguredDegree)
{
    // C = 45 M + 7 H exactly, so the degree-3 design has rank 9 of 19:
    // every cross-validation solve and the final fit must still be
    // certified at degree 3, with no fallback.
    const auto fallbacks = metrics().counter("fit/degree_fallbacks");
    const auto uncertified = metrics().counter("lasso/uncertified");
    Mosmodel model;
    model.fit(campaignData());
    EXPECT_EQ(model.fittedDegree(), 3u);
    EXPECT_LE(model.lassoResult().kktRatio, stats::kLassoCertifiedKkt);
    EXPECT_EQ(metrics().counter("fit/degree_fallbacks"), fallbacks);
    EXPECT_EQ(metrics().counter("lasso/uncertified"), uncertified);
}

TEST_F(MosmodelFaultTest, InjectedNanDegradesToLowerDegree)
{
    // The 1st Lasso call (the degree-3 fit) is poisoned; the degree-2
    // retry runs clean and is accepted.
    faults().arm(FaultSite::LassoNan, 1);
    Mosmodel model(fixedLambdaConfig());
    model.fit(campaignData());

    EXPECT_TRUE(model.fitted());
    EXPECT_TRUE(model.degraded());
    EXPECT_EQ(model.fittedDegree(), 2u);

    // The degraded model still predicts finite, sane runtimes.
    SampleSet data = campaignData();
    for (const auto &sample : data.samples) {
        double predicted = model.predict(sample);
        ASSERT_TRUE(std::isfinite(predicted));
        EXPECT_NEAR(predicted, sample.r, sample.r * 0.25);
    }
}

TEST_F(MosmodelFaultTest, PersistentNanFailsEveryDegreeLoudly)
{
    faults().arm(FaultSite::LassoNan, 0); // every Lasso call poisoned
    Mosmodel model(fixedLambdaConfig());
    EXPECT_THROW(model.fit(campaignData()), std::runtime_error);
    EXPECT_FALSE(model.fitted());
}

TEST_F(MosmodelFaultTest, DropsNonFiniteSamples)
{
    SampleSet data = campaignData();
    data.samples[5].m = std::numeric_limits<double>::quiet_NaN();
    data.samples[20].r = std::numeric_limits<double>::infinity();

    Mosmodel model(fixedLambdaConfig());
    model.fit(data);
    EXPECT_TRUE(model.fitted());
    EXPECT_EQ(model.droppedSamples(), 2u);
    EXPECT_FALSE(model.degraded()); // 52 clean samples still suffice
    EXPECT_TRUE(std::isfinite(model.predict(data.samples[0])));
}
