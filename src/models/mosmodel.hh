/**
 * @file
 * Mosmodel (Section VII-C): the paper's proposed runtime model.
 *
 * A third-degree polynomial in the input vector X = (H, M, C) — 20
 * monomial features — fitted with Lasso regression, which both curbs
 * overfitting (the one-in-ten rule: 54 samples comfortably support the
 * <= 5 coefficients Lasso retains) and performs input selection,
 * picking whichever of H, M, C predicts the workload best.
 */

#ifndef MOSAIC_MODELS_MOSMODEL_HH
#define MOSAIC_MODELS_MOSMODEL_HH

#include "models/runtime_model.hh"
#include "stats/lasso.hh"
#include "stats/poly_features.hh"

namespace mosaic::models
{

/** Mosmodel configuration. */
struct MosmodelConfig
{
    unsigned degree = 3;
    stats::LassoConfig lasso;

    /**
     * Which of the paper's three metrics feed the polynomial. The
     * default is the full vector X = (H, M, C); subsets support the
     * input-ablation study.
     */
    std::vector<char> inputs = {'H', 'M', 'C'};

    /**
     * Select the Lasso strength per workload by internal K-fold cross
     * validation over lambdaGrid (the standard LassoCV procedure; the
     * paper does not pin a regularization constant): one warm-started
     * Lasso path per fold. When false, lasso.lambdaRatio is used
     * as-is.
     */
    bool autoLambda = true;

    /** Candidate lambda/lambda_max ratios for autoLambda. */
    std::vector<double> lambdaGrid = {3e-4, 1e-3, 3e-3, 1e-2, 3e-2};

    /** Folds for the internal lambda selection. */
    std::size_t lambdaFolds = 5;

    /** Shuffle seed for the internal folds (deterministic). */
    std::uint64_t lambdaSeed = 1234;
};

class Mosmodel : public RuntimeModel
{
  public:
    explicit Mosmodel(const MosmodelConfig &config = MosmodelConfig());

    std::string name() const override;
    void fit(const SampleSet &data) override;
    double predict(const Sample &point) const override;
    std::string describe() const override;
    bool fitted() const override { return fitted_; }

    /** Number of nonzero monomial coefficients after Lasso. */
    std::size_t numActiveCoefficients() const;

    /** Total feature count (20 for degree 3 in 3 inputs). */
    std::size_t
    numFeatures() const
    {
        return features_.numFeatures();
    }

    const stats::LassoResult &lassoResult() const { return result_; }

    /** The regularization ratio the fit ended up using. */
    double chosenLambdaRatio() const { return chosenLambdaRatio_; }

    /**
     * Cross-validation score of the chosen ratio: its worst held-out
     * relative error across the folds. NaN when the ratio was
     * configured rather than selected.
     */
    double cvScore() const { return cvScore_; }

    /**
     * Polynomial degree the accepted fit actually used. Equals the
     * configured degree unless the fit degraded (non-finite values or
     * an uncertified Lasso solve forced a lower-degree fallback).
     */
    unsigned fittedDegree() const { return fittedDegree_; }

    /** True when fit() fell back below the configured degree. */
    bool
    degraded() const
    {
        return fitted_ && fittedDegree_ < config_.degree;
    }

    /** Samples fit() dropped for holding non-finite counter values. */
    std::size_t droppedSamples() const { return droppedSamples_; }

  private:
    /** Counter magnitudes differ wildly; scale into O(1) units. */
    static constexpr double hScale = 1e-6;
    static constexpr double mScale = 1e-6;
    static constexpr double cScale = 1e-9;

    stats::Vector inputsOf(const Sample &point) const;

    /**
     * Pick the Lasso strength by internal K-fold cross validation;
     * sets cvScore_ to the chosen ratio's score.
     */
    double selectLambda(const stats::Matrix &design,
                        const stats::Vector &target);

    MosmodelConfig config_;
    stats::PolynomialFeatures features_;
    stats::LassoResult result_;
    double chosenLambdaRatio_ = 0.0;
    double cvScore_ = 0.0;
    unsigned fittedDegree_ = 0;
    std::size_t droppedSamples_ = 0;
    bool fitted_ = false;
};

ModelPtr makeMosmodel();

/**
 * Mosmodel extended for OS-level paging ("mosmodel-s"): the swap
 * cycles S a bounded frame pool charges are a direct serial stall in
 * the simulated runtime, so the model fits Mosmodel against the
 * swap-free residual (R - S) and predicts R = mosmodel(H, M, C) + S.
 * On an unbounded (S == 0) dataset it degenerates to plain Mosmodel —
 * identical fit, identical predictions.
 */
ModelPtr makeMosmodelSwap();

/**
 * The paper's full reporting lineup: pham, alam, gandhi, basu, yaniv,
 * poly1, poly2, poly3, mosmodel (the Figure 5/6 legend order).
 */
std::vector<ModelPtr> makeAllModels();

/** The "new models" subset of Figure 2b: poly1/2/3 + mosmodel. */
std::vector<ModelPtr> makeNewModels();

} // namespace mosaic::models

#endif // MOSAIC_MODELS_MOSMODEL_HH
