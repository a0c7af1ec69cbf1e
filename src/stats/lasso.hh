/**
 * @file
 * Lasso (L1-regularized least squares) along a regularization path,
 * with a certificate of optimality for every solution.
 *
 * The paper fits Mosmodel's 20-coefficient polynomial with Lasso
 * regression, both to curb overfitting and to zero out irrelevant
 * inputs ("Lasso regression ... leaves only 5 nonzero coefficients or
 * less", Section VI-C). This implementation standardizes features
 * internally, solves the standardized problem
 *
 *   min_b (1/2n) ||y_c - X_s b||^2 + lambda ||b||_1,
 *
 * and reports coefficients in the raw feature space. A path solves a
 * descending list of lambdas, each warm-started from the previous
 * solution by a few coordinate-descent sweeps on the Gram matrix
 * (Friedman, Hastie & Tibshirani, 2010), then finished exactly by an
 * active-set (feature-sign) search that solves each support by QR of
 * its columns (Lee, Battle, Raina & Ng, 2007). A solution ships only
 * with its KKT certificate checked from the residual.
 */

#ifndef MOSAIC_STATS_LASSO_HH
#define MOSAIC_STATS_LASSO_HH

#include <cstddef>
#include <vector>

#include "stats/matrix.hh"
#include "support/error.hh"

namespace mosaic::stats
{

/** Configuration for a single-lambda Lasso fit. */
struct LassoConfig
{
    /**
     * Regularization strength as a fraction of lambda_max (the smallest
     * lambda that zeroes every coefficient). 0 reduces Lasso to OLS.
     */
    double lambdaRatio = 1e-3;
};

/**
 * Largest KKT certificate (worst violation / lambda) a solution may
 * carry; a solve that cannot get below it is a Numeric error.
 */
inline constexpr double kLassoCertifiedKkt = 1e-6;

/** Result of a Lasso fit at one lambda. */
struct LassoResult
{
    /** Coefficients in raw feature space (no intercept inside). */
    Vector coefficients;

    /** Intercept in raw space. */
    double intercept = 0.0;

    /** Coordinate-descent sweeps plus active-set steps spent. */
    std::size_t iterations = 0;

    /** Number of exactly-zero coefficients after fitting. */
    std::size_t numZeroCoefficients = 0;

    /**
     * KKT certificate: the worst violation of the Lasso optimality
     * conditions over all features, divided by lambda, computed from
     * the residual of the returned solution. A zero coefficient
     * violates by how far its gradient exceeds lambda, a nonzero one
     * by how far its gradient misses lambda * sign. At lambda = 0
     * (least squares) the worst gradient is divided by lambda_max
     * instead. Never above kLassoCertifiedKkt.
     */
    double kktRatio = 0.0;

    /** Predict the target for one raw feature row (without intercept
     *  column). */
    double predict(const Vector &features) const;
};

/**
 * Fit Lasso on raw features @p x (no intercept column) against @p y at
 * each lambda / lambda_max ratio in @p ratios, which must be
 * non-increasing; result i belongs to ratios[i]. Each solution is
 * warm-started from the one before it.
 *
 * Returns a Numeric error when the design matrix or target holds
 * non-finite values (NaN/Inf poison every inner product), when a
 * fitted coefficient comes out non-finite, or when a solution cannot
 * be certified to kLassoCertifiedKkt (counted as lasso/uncertified).
 *
 * Features are standardized internally and the intercept is handled by
 * centering, so callers pass raw counter values directly.
 */
Result<std::vector<LassoResult>>
fitLassoPath(const Matrix &x, const Vector &y,
             const std::vector<double> &ratios);

/** fitLassoPath() with the single ratio config.lambdaRatio. */
Result<LassoResult> fitLassoChecked(const Matrix &x, const Vector &y,
                                    const LassoConfig &config =
                                        LassoConfig());

/** Throwing wrapper around fitLassoChecked(). */
LassoResult fitLasso(const Matrix &x, const Vector &y,
                     const LassoConfig &config = LassoConfig());

} // namespace mosaic::stats

#endif // MOSAIC_STATS_LASSO_HH
