/**
 * @file
 * Tests for the Lasso path solver, including an independent oracle
 * that enumerates every sign pattern of small designs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <vector>

#include "stats/lasso.hh"
#include "support/fault_injector.hh"
#include "support/random.hh"

using namespace mosaic;
using stats::LassoConfig;
using stats::Matrix;
using stats::Vector;

namespace
{

/** y = 2 + 3*x0 - 1.5*x2 with x1 pure noise. */
void
makeSparseProblem(std::size_t n, Matrix &x, Vector &y)
{
    Rng rng(77);
    x = Matrix(n, 3);
    y.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        double x0 = rng.nextDouble() * 10;
        double x1 = rng.nextDouble() * 10;
        double x2 = rng.nextDouble() * 10;
        x(i, 0) = x0;
        x(i, 1) = x1;
        x(i, 2) = x2;
        y[i] = 2.0 + 3.0 * x0 - 1.5 * x2;
    }
}

} // namespace

TEST(Lasso, RecoversSparseModel)
{
    Matrix x;
    Vector y;
    makeSparseProblem(60, x, y);
    auto result = stats::fitLasso(x, y);
    EXPECT_NEAR(result.coefficients[0], 3.0, 0.05);
    EXPECT_NEAR(result.coefficients[2], -1.5, 0.05);
    EXPECT_NEAR(result.coefficients[1], 0.0, 0.05);
    EXPECT_NEAR(result.intercept, 2.0, 0.5);
}

TEST(Lasso, PredictionMatchesGenerator)
{
    Matrix x;
    Vector y;
    makeSparseProblem(60, x, y);
    auto result = stats::fitLasso(x, y);
    for (std::size_t i = 0; i < x.rows(); ++i) {
        double predicted = result.predict(x.row(i));
        EXPECT_NEAR(predicted, y[i], std::fabs(y[i]) * 0.02 + 0.5);
    }
}

TEST(Lasso, StrongPenaltyZeroesEverything)
{
    Matrix x;
    Vector y;
    makeSparseProblem(60, x, y);
    LassoConfig config;
    config.lambdaRatio = 1.0; // lambda = lambda_max
    auto result = stats::fitLasso(x, y, config);
    EXPECT_EQ(result.numZeroCoefficients, 3u);
    // Prediction degenerates to the mean of y.
    double mean = 0;
    for (double v : y)
        mean += v;
    mean /= static_cast<double>(y.size());
    EXPECT_NEAR(result.predict({1, 1, 1}), mean, 1e-6);
}

TEST(Lasso, PenaltyMonotonicallyIncreasesSparsity)
{
    Matrix x;
    Vector y;
    makeSparseProblem(80, x, y);
    std::size_t previous = 0;
    for (double ratio : {1e-4, 1e-2, 0.3, 1.0}) {
        LassoConfig config;
        config.lambdaRatio = ratio;
        auto result = stats::fitLasso(x, y, config);
        EXPECT_GE(result.numZeroCoefficients, previous);
        previous = result.numZeroCoefficients;
    }
}

TEST(Lasso, HandlesConstantColumns)
{
    Rng rng(5);
    Matrix x(30, 2);
    Vector y(30);
    for (std::size_t i = 0; i < 30; ++i) {
        x(i, 0) = 4.2; // constant
        x(i, 1) = rng.nextDouble();
        y[i] = 10.0 * x(i, 1) + 1.0;
    }
    auto result = stats::fitLasso(x, y);
    EXPECT_NEAR(result.coefficients[1], 10.0, 0.1);
    EXPECT_DOUBLE_EQ(result.coefficients[0], 0.0);
}

TEST(Lasso, ScaleInvarianceAcrossFeatureMagnitudes)
{
    // One feature in units of 1e9 (like walk cycles), one in 1e2.
    Rng rng(9);
    Matrix x(50, 2);
    Vector y(50);
    for (std::size_t i = 0; i < 50; ++i) {
        double big = rng.nextDouble() * 1e9;
        double small = rng.nextDouble() * 1e2;
        x(i, 0) = big;
        x(i, 1) = small;
        y[i] = 3e-6 * big + 2.0 * small + 5.0;
    }
    auto result = stats::fitLasso(x, y);
    for (std::size_t i = 0; i < 50; ++i)
        EXPECT_NEAR(result.predict(x.row(i)), y[i],
                    std::fabs(y[i]) * 0.02 + 1.0);
}

TEST(Lasso, ConvergesWithinIterationBudget)
{
    Matrix x;
    Vector y;
    makeSparseProblem(60, x, y);
    auto result = stats::fitLasso(x, y);
    EXPECT_LT(result.iterations, 100000u);
}

TEST(Lasso, RejectsBadInput)
{
    Matrix x(4, 2);
    Vector y(3);
    EXPECT_THROW(stats::fitLasso(x, y), std::logic_error);
}

TEST(Lasso, ReportsConvergenceOnEasyProblem)
{
    Matrix x;
    Vector y;
    makeSparseProblem(60, x, y);
    auto result = stats::fitLassoChecked(x, y);
    ASSERT_TRUE(result.ok());
    EXPECT_LE(result.value().kktRatio, 1e-9);
}

TEST(Lasso, NanInDesignMatrixIsNumericError)
{
    Matrix x;
    Vector y;
    makeSparseProblem(30, x, y);
    x(7, 1) = std::numeric_limits<double>::quiet_NaN();
    auto result = stats::fitLassoChecked(x, y);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Numeric);
    // The error pinpoints the bad cell for the postmortem.
    EXPECT_NE(result.error().message().find("row 7"), std::string::npos);
    EXPECT_THROW(stats::fitLasso(x, y), std::runtime_error);
}

TEST(Lasso, InfInTargetIsNumericError)
{
    Matrix x;
    Vector y;
    makeSparseProblem(30, x, y);
    y[3] = std::numeric_limits<double>::infinity();
    auto result = stats::fitLassoChecked(x, y);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().category(), ErrorCategory::Numeric);
}

TEST(Lasso, InjectedNanFaultIsCaught)
{
    Matrix x;
    Vector y;
    makeSparseProblem(30, x, y);

    faults().reset();
    faults().arm(FaultSite::LassoNan, 1);
    auto poisoned = stats::fitLassoChecked(x, y);
    faults().reset();

    ASSERT_FALSE(poisoned.ok());
    EXPECT_EQ(poisoned.error().category(), ErrorCategory::Numeric);

    // The caller's matrix is not mutated by the injector.
    auto clean = stats::fitLassoChecked(x, y);
    EXPECT_TRUE(clean.ok());
}

TEST(Lasso, PathRejectsIncreasingRatios)
{
    Matrix x;
    Vector y;
    makeSparseProblem(30, x, y);
    EXPECT_THROW((void)stats::fitLassoPath(x, y, {1e-3, 1e-2}),
                 std::logic_error);
}

TEST(Lasso, PathMatchesSingleSolves)
{
    Matrix x;
    Vector y;
    makeSparseProblem(60, x, y);
    const std::vector<double> ratios = {0.5, 0.1, 1e-2, 1e-3, 0.0};
    auto path = stats::fitLassoPath(x, y, ratios);
    ASSERT_TRUE(path.ok()) << path.error().str();
    ASSERT_EQ(path.value().size(), ratios.size());
    for (std::size_t k = 0; k < ratios.size(); ++k) {
        LassoConfig config;
        config.lambdaRatio = ratios[k];
        auto single = stats::fitLasso(x, y, config);
        const auto &warm = path.value()[k];
        EXPECT_LE(warm.kktRatio, 1e-9);
        for (std::size_t i = 0; i < x.rows(); ++i)
            EXPECT_NEAR(warm.predict(x.row(i)), single.predict(x.row(i)),
                        1e-9 * (std::fabs(y[i]) + 1.0));
    }
}

namespace
{

/**
 * Independent Lasso oracle for designs with a handful of columns. It
 * standardizes the columns and centers the target itself, then
 * enumerates every sign pattern theta in {-1, 0, +1}^p. Each pattern's
 * support S of independent columns gets its stationarity system
 * X_S^T X_S b = X_S^T y - n lambda theta_S solved through a
 * modified Gram-Schmidt QR of X_S; the pattern is an optimum when b
 * carries the pattern's signs and no column off S has a gradient
 * above lambda.
 */
class LassoOracle
{
  public:
    LassoOracle(const Matrix &x, const Vector &y)
        : n_(x.rows()), p_(x.cols()), columns_(p_, Vector(n_)), yc_(y)
    {
        double y_mean = 0.0;
        for (double v : y)
            y_mean += v / static_cast<double>(n_);
        for (double &v : yc_)
            v -= y_mean;
        for (std::size_t j = 0; j < p_; ++j) {
            double mean = 0.0, var = 0.0;
            for (std::size_t i = 0; i < n_; ++i)
                mean += x(i, j) / static_cast<double>(n_);
            for (std::size_t i = 0; i < n_; ++i)
                var += (x(i, j) - mean) * (x(i, j) - mean) /
                       static_cast<double>(n_);
            stdDevs_.push_back(std::sqrt(var));
            for (std::size_t i = 0; i < n_; ++i)
                columns_[j][i] = (x(i, j) - mean) / stdDevs_[j];
            lambdaMax_ = std::max(lambdaMax_,
                                  std::fabs(gradient(yc_, j)));
        }
    }

    /** Optimal objective and centered fitted values at a ratio. */
    struct Optimum
    {
        double objective = std::numeric_limits<double>::infinity();
        Vector fitted;
    };

    Optimum
    solve(double ratio) const
    {
        const double lambda = ratio * lambdaMax_;
        Optimum best;
        std::vector<int> theta(p_, -1);
        for (;;) {
            tryPattern(theta, lambda, best);
            std::size_t j = 0;
            while (j < p_ && theta[j] == 1)
                theta[j++] = -1;
            if (j == p_)
                break;
            ++theta[j];
        }
        return best;
    }

    /** The objective of a raw-space fit, in the oracle's scaling. */
    double
    objectiveOf(const stats::LassoResult &fit, const Matrix &x,
                const Vector &y, double ratio, Vector &fitted) const
    {
        double y_mean = 0.0;
        for (double v : y)
            y_mean += v / static_cast<double>(n_);
        fitted.assign(n_, 0.0);
        for (std::size_t i = 0; i < n_; ++i)
            fitted[i] = fit.predict(x.row(i)) - y_mean;
        double l1 = 0.0;
        for (std::size_t j = 0; j < p_; ++j)
            l1 += std::fabs(fit.coefficients[j] * stdDevs_[j]);
        return objective(fitted, l1, ratio * lambdaMax_);
    }

  private:
    double
    gradient(const Vector &r, std::size_t j) const
    {
        double acc = 0.0;
        for (std::size_t i = 0; i < n_; ++i)
            acc += columns_[j][i] * r[i];
        return acc / static_cast<double>(n_);
    }

    double
    objective(const Vector &fitted, double l1, double lambda) const
    {
        double rss = 0.0;
        for (std::size_t i = 0; i < n_; ++i)
            rss += (yc_[i] - fitted[i]) * (yc_[i] - fitted[i]);
        return rss / (2.0 * static_cast<double>(n_)) + lambda * l1;
    }

    void
    tryPattern(const std::vector<int> &theta, double lambda,
               Optimum &best) const
    {
        std::vector<std::size_t> support;
        for (std::size_t j = 0; j < p_; ++j)
            if (theta[j] != 0)
                support.push_back(j);
        const std::size_t k = support.size();

        // Modified Gram-Schmidt: X_S = Q R.
        std::vector<Vector> q;
        Matrix r(k, k);
        for (std::size_t c = 0; c < k; ++c) {
            Vector v = columns_[support[c]];
            for (std::size_t m = 0; m < c; ++m) {
                double proj = 0.0;
                for (std::size_t i = 0; i < n_; ++i)
                    proj += q[m][i] * v[i];
                r(m, c) = proj;
                for (std::size_t i = 0; i < n_; ++i)
                    v[i] -= proj * q[m][i];
            }
            double norm = 0.0;
            for (double value : v)
                norm += value * value;
            norm = std::sqrt(norm);
            if (norm <= 1e-8 * std::sqrt(static_cast<double>(n_)))
                return; // dependent support: an independent one is optimal
            r(c, c) = norm;
            for (double &value : v)
                value /= norm;
            q.push_back(std::move(v));
        }

        // R^T z = theta_S, then R b = Q^T y - n lambda z.
        Vector z(k), b(k);
        for (std::size_t c = 0; c < k; ++c) {
            double acc = theta[support[c]];
            for (std::size_t m = 0; m < c; ++m)
                acc -= r(m, c) * z[m];
            z[c] = acc / r(c, c);
        }
        for (std::size_t c = k; c-- > 0;) {
            double acc = -static_cast<double>(n_) * lambda * z[c];
            for (std::size_t i = 0; i < n_; ++i)
                acc += q[c][i] * yc_[i];
            for (std::size_t m = c + 1; m < k; ++m)
                acc -= r(c, m) * b[m];
            b[c] = acc / r(c, c);
        }

        Vector fitted(n_, 0.0);
        double l1 = 0.0;
        for (std::size_t c = 0; c < k; ++c) {
            if (b[c] * theta[support[c]] <= 0.0)
                return; // signs disagree with the pattern
            l1 += std::fabs(b[c]);
            for (std::size_t i = 0; i < n_; ++i)
                fitted[i] += b[c] * columns_[support[c]][i];
        }
        Vector residual(n_);
        for (std::size_t i = 0; i < n_; ++i)
            residual[i] = yc_[i] - fitted[i];
        for (std::size_t j = 0; j < p_; ++j) {
            if (theta[j] == 0 &&
                std::fabs(gradient(residual, j)) > lambda * (1 + 1e-9))
                return; // KKT fails off the support
        }
        const double value = objective(fitted, l1, lambda);
        if (value < best.objective) {
            best.objective = value;
            best.fitted = std::move(fitted);
        }
    }

    std::size_t n_;
    std::size_t p_;
    std::vector<Vector> columns_;
    Vector stdDevs_;
    Vector yc_;
    double lambdaMax_ = 0.0;
};

/** The kinds of seeded random design the oracle test covers. */
enum class DesignKind
{
    Plain,     ///< independent columns
    Duplicate, ///< column 3 repeats column 1
    Collinear, ///< column 5 = column 0 + 2 * column 2
};

void
makeOracleDesign(DesignKind kind, std::uint64_t seed, Matrix &x, Vector &y)
{
    Rng rng(seed);
    const std::size_t n = 24;
    const std::size_t p = kind == DesignKind::Plain ? 5 : 6;
    x = Matrix(n, p);
    y.assign(n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < p; ++j)
            x(i, j) = rng.nextDouble() * 4.0 - 1.0;
        if (kind == DesignKind::Duplicate)
            x(i, 3) = x(i, 1);
        if (kind == DesignKind::Collinear)
            x(i, 5) = x(i, 0) + 2.0 * x(i, 2);
        y[i] = 5.0 + 3.0 * x(i, 0) - 2.0 * x(i, 1) + 0.7 * x(i, 2) +
               0.5 * (rng.nextDouble() - 0.5);
    }
}

} // namespace

TEST(Lasso, MatchesEnumerationOracle)
{
    const std::vector<double> ratios = {0.9, 0.5, 0.2, 0.1,  0.05,
                                        0.02, 1e-2, 3e-3, 1e-3};
    for (DesignKind kind : {DesignKind::Plain, DesignKind::Duplicate,
                            DesignKind::Collinear}) {
        for (std::uint64_t seed : {3u, 17u, 42u}) {
            SCOPED_TRACE("design " + std::to_string(static_cast<int>(kind)) +
                         " seed " + std::to_string(seed));
            Matrix x;
            Vector y;
            makeOracleDesign(kind, seed, x, y);
            LassoOracle oracle(x, y);
            auto path = stats::fitLassoPath(x, y, ratios);
            ASSERT_TRUE(path.ok()) << path.error().str();
            for (std::size_t k = 0; k < ratios.size(); ++k) {
                SCOPED_TRACE("ratio " + std::to_string(ratios[k]));
                const auto optimum = oracle.solve(ratios[k]);
                ASSERT_FALSE(optimum.fitted.empty());
                LassoConfig config;
                config.lambdaRatio = ratios[k];
                const auto single = stats::fitLasso(x, y, config);
                const stats::LassoResult *fits[] = {&path.value()[k],
                                                    &single};
                for (const auto *fit : fits) {
                    EXPECT_LE(fit->kktRatio, 1e-9);
                    Vector fitted;
                    const double value =
                        oracle.objectiveOf(*fit, x, y, ratios[k], fitted);
                    EXPECT_NEAR(value, optimum.objective,
                                1e-12 * optimum.objective);
                    double scale = 0.0, diff = 0.0;
                    for (std::size_t i = 0; i < fitted.size(); ++i) {
                        scale = std::max(scale,
                                         std::fabs(optimum.fitted[i]));
                        diff = std::max(diff, std::fabs(fitted[i] -
                                                        optimum.fitted[i]));
                    }
                    EXPECT_LE(diff, 1e-9 * scale);
                }
            }
        }
    }
}
