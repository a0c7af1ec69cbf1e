#include "stats/lasso.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>

#include "stats/scaler.hh"
#include "support/fault_injector.hh"
#include "support/logging.hh"
#include "support/metrics.hh"

namespace mosaic::stats
{

namespace
{

/** Coordinate-descent sweeps that warm-start each lambda. */
constexpr std::size_t kWarmSweeps = 8;

/**
 * A column whose QR diagonal is below this fraction of its norm lies
 * in the span of the columns before it. Exactly dependent columns
 * leave 1e-16 to 1e-13; no design of the committed dataset goes below
 * 6e-6. A near-dependent column above the cut is solved as
 * independent, and its certificate decides whether that was exact.
 */
constexpr double kDependentColumn = 1e-11;

/**
 * A zero coefficient enters only when its gradient exceeds lambda by
 * this fraction, so roundoff cannot swap two exactly dependent
 * columns back and forth forever.
 */
constexpr double kEnterSlack = 1e-9;

/** Soft-thresholding operator, the proximal map of the L1 penalty. */
double
softThreshold(double value, double threshold)
{
    if (value > threshold)
        return value - threshold;
    if (value < -threshold)
        return value + threshold;
    return 0.0;
}

double
signOf(double value)
{
    return value > 0.0 ? 1.0 : -1.0;
}

/** The standardized problem one path solves. */
struct Problem
{
    std::size_t n = 0;
    std::size_t p = 0;
    std::vector<Vector> columns; ///< standardized features, by column
    Vector yc;                   ///< centered target
    Matrix gram;                 ///< column inner products / n
    std::vector<bool> alive;     ///< false for constant (zero) columns
    double lambdaMax = 0.0;      ///< max_j |x_j . yc| / n
};

Problem
makeProblem(const Matrix &xs, const Vector &yc)
{
    Problem pb;
    pb.n = xs.rows();
    pb.p = xs.cols();
    pb.yc = yc;
    const double inv_n = 1.0 / static_cast<double>(pb.n);
    pb.columns.reserve(pb.p);
    for (std::size_t j = 0; j < pb.p; ++j)
        pb.columns.push_back(xs.col(j));
    pb.gram = Matrix(pb.p, pb.p);
    pb.alive.assign(pb.p, false);
    for (std::size_t j = 0; j < pb.p; ++j) {
        for (std::size_t k = 0; k <= j; ++k) {
            double value = dot(pb.columns[j], pb.columns[k]) * inv_n;
            pb.gram(j, k) = value;
            pb.gram(k, j) = value;
        }
        pb.alive[j] = pb.gram(j, j) > 0.0;
        pb.lambdaMax = std::max(
            pb.lambdaMax, std::fabs(dot(pb.columns[j], yc)) * inv_n);
    }
    return pb;
}

/** yc - X_s beta, summed over the nonzero coefficients. */
Vector
residualOf(const Problem &pb, const Vector &beta)
{
    Vector r = pb.yc;
    for (std::size_t j = 0; j < pb.p; ++j) {
        if (beta[j] == 0.0)
            continue;
        const Vector &column = pb.columns[j];
        for (std::size_t i = 0; i < pb.n; ++i)
            r[i] -= beta[j] * column[i];
    }
    return r;
}

/** (1/2n) ||r||^2 + lambda ||beta||_1. */
double
objectiveOf(const Vector &r, double l1, double lambda)
{
    return 0.5 * dot(r, r) / static_cast<double>(r.size()) + lambda * l1;
}

/**
 * Warm start: cyclic coordinate descent with covariance updates.
 * @p grad holds X_s^T (yc - X_s beta) / n on entry and is kept
 * current through the Gram matrix, so a sweep costs O(p) per moved
 * coefficient instead of O(n).
 */
void
coordinateSweeps(const Problem &pb, double lambda, Vector &beta,
                 Vector &grad)
{
    for (std::size_t sweep = 0; sweep < kWarmSweeps; ++sweep) {
        for (std::size_t j = 0; j < pb.p; ++j) {
            if (!pb.alive[j])
                continue;
            const double gjj = pb.gram(j, j);
            const double fresh =
                softThreshold(grad[j] + gjj * beta[j], lambda) / gjj;
            const double delta = fresh - beta[j];
            if (delta == 0.0)
                continue;
            beta[j] = fresh;
            for (std::size_t k = 0; k < pb.p; ++k)
                grad[k] -= delta * pb.gram(j, k);
        }
    }
}

/**
 * Householder QR of the active columns in order, stopped at the first
 * column that lies in the span of the ones before it.
 */
class ActiveQr
{
  public:
    ActiveQr(const Problem &pb, const std::vector<std::size_t> &active)
        : n_(pb.n), dependent_(active.size())
    {
        for (std::size_t c = 0; c < active.size(); ++c) {
            Vector column = pb.columns[active[c]];
            const double norm = std::sqrt(dot(column, column));
            for (std::size_t h = 0; h < c; ++h)
                reflect(h, column);
            double below = 0.0;
            for (std::size_t i = c; i < n_; ++i)
                below += column[i] * column[i];
            below = std::sqrt(below);
            r_.push_back(column);
            if (c >= n_ || below <= kDependentColumn * norm) {
                dependent_ = c;
                return;
            }
            const double alpha = column[c] > 0.0 ? -below : below;
            Vector v(n_, 0.0);
            v[c] = column[c] - alpha;
            for (std::size_t i = c + 1; i < n_; ++i)
                v[i] = column[i];
            vnorm2_.push_back(dot(v, v));
            v_.push_back(std::move(v));
            r_.back()[c] = alpha;
        }
        qty_ = pb.yc;
        for (std::size_t h = 0; h < v_.size(); ++h)
            reflect(h, qty_);
    }

    /** Position of the first dependent column; size() when none. */
    std::size_t dependent() const { return dependent_; }

    /**
     * w with x_dependent = sum_i w_i x_active[i] over the columns
     * before the dependent one: X_A (-w, 1) = 0 is a null direction.
     */
    Vector
    spanCoefficients() const
    {
        const std::size_t c = dependent_;
        return backSubstitute(r_[c], c);
    }

    /**
     * The support system X_A^T X_A b = X_A^T yc - n lambda theta,
     * as R^T z = theta, then R b = Q^T yc - n lambda z: the
     * conditioning of X_A, not of its Gram matrix.
     */
    Vector
    solveSupport(const Vector &theta, double lambda) const
    {
        const std::size_t k = v_.size();
        Vector z(k, 0.0);
        for (std::size_t i = 0; i < k; ++i) {
            double acc = theta[i];
            for (std::size_t m = 0; m < i; ++m)
                acc -= r_[i][m] * z[m];
            z[i] = acc / r_[i][i];
        }
        const double scale = static_cast<double>(n_) * lambda;
        Vector rhs(k);
        for (std::size_t i = 0; i < k; ++i)
            rhs[i] = qty_[i] - scale * z[i];
        return backSubstitute(rhs, k);
    }

  private:
    /** Apply reflection @p h to @p vec in place. */
    void
    reflect(std::size_t h, Vector &vec) const
    {
        const Vector &v = v_[h];
        double proj = 0.0;
        for (std::size_t i = h; i < n_; ++i)
            proj += v[i] * vec[i];
        proj = 2.0 * proj / vnorm2_[h];
        for (std::size_t i = h; i < n_; ++i)
            vec[i] -= proj * v[i];
    }

    /** Solve R[0:k, 0:k] b = rhs[0:k]. */
    Vector
    backSubstitute(const Vector &rhs, std::size_t k) const
    {
        Vector b(k, 0.0);
        for (std::size_t i = k; i-- > 0;) {
            double acc = rhs[i];
            for (std::size_t m = i + 1; m < k; ++m)
                acc -= r_[m][i] * b[m];
            b[i] = acc / r_[i][i];
        }
        return b;
    }

    std::size_t n_;
    std::size_t dependent_;
    std::vector<Vector> r_; ///< reduced columns; R is their upper part
    std::vector<Vector> v_; ///< Householder vectors
    Vector vnorm2_;
    Vector qty_; ///< Q^T yc
};

/**
 * Exact finish of one lambda: feature-sign search (Lee et al., 2007)
 * from the warm start in the coefficients it is given. The active set
 * is kept of full column rank: when its QR finds a dependent column, a
 * move along the null direction keeps the fitted values fixed, does
 * not raise the L1 norm and stops where a coefficient reaches zero,
 * dropping it (or, for an entering column, swapping it in for it).
 */
class FeatureSign
{
  public:
    FeatureSign(const Problem &pb, double lambda, Vector &beta)
        : pb_(pb), lambda_(lambda), beta_(beta), theta_(pb.p, 0.0),
          blocked_(pb.p, false)
    {
        for (std::size_t j = 0; j < pb_.p; ++j) {
            if (beta_[j] != 0.0)
                active_.push_back(j);
        }
        dropZeros();
    }

    /**
     * Step until the active set is optimal and no zero coefficient's
     * gradient exceeds lambda, or a step stalls on roundoff, or a
     * guard on the step count trips; the certificate judges the
     * result either way.
     * @return active-set steps spent (QR solves and null-space moves)
     */
    std::size_t
    run()
    {
        const std::size_t max_steps = 16 * (pb_.p + 4);
        std::size_t steps = 0;
        while (steps < max_steps) {
            ++steps;
            ActiveQr qr(pb_, active_);
            if (qr.dependent() < active_.size()) {
                nullSpaceMove(qr);
                continue;
            }
            Vector signs(active_.size());
            for (std::size_t i = 0; i < active_.size(); ++i)
                signs[i] = theta_[active_[i]];
            const Vector target = qr.solveSupport(signs, lambda_);
            bool consistent = true;
            for (std::size_t i = 0; i < active_.size(); ++i)
                consistent = consistent && target[i] * signs[i] > 0.0;
            if (!consistent) {
                if (!lineSearch(target))
                    break;
                continue;
            }
            for (std::size_t i = 0; i < active_.size(); ++i)
                beta_[active_[i]] = target[i];
            if (!enterWorst())
                break;
        }
        return steps;
    }

  private:
    /** Drop zeroed coefficients from the active set; refresh signs. */
    void
    dropZeros()
    {
        std::size_t kept = 0;
        for (std::size_t j : active_) {
            theta_[j] = beta_[j] == 0.0 ? 0.0 : signOf(beta_[j]);
            if (beta_[j] != 0.0)
                active_[kept++] = j;
        }
        active_.resize(kept);
        // A column blocked from entering may fit once the set changed.
        blocked_.assign(pb_.p, false);
    }

    /** Resolve the first dependent active column @p qr found. */
    void
    nullSpaceMove(const ActiveQr &qr)
    {
        // Null direction d: -w on the columns before the dependent
        // one, 1 on it; X_A d = 0.
        const std::size_t c = qr.dependent();
        Vector d = qr.spanCoefficients();
        for (double &value : d)
            value = -value;
        d.push_back(1.0);
        double l1_slope = 0.0; // theta . d
        for (std::size_t i = 0; i <= c; ++i)
            l1_slope += theta_[active_[i]] * d[i];
        const std::size_t dep = active_[c];
        double s = l1_slope > 0.0 ? -1.0 : 1.0;
        if (beta_[dep] == 0.0) {
            // An entering column must grow along its sign; that lowers
            // the L1 norm only when theta . d opposes it.
            s = theta_[dep];
            if (s * l1_slope >= 0.0) {
                active_.erase(active_.begin() + c);
                theta_[dep] = 0.0;
                blocked_[dep] = true;
                return;
            }
        }
        // s * (theta . d) <= 0 leaves a coefficient moving toward
        // zero; stop at the first to reach it.
        std::size_t stop = c + 1;
        double step = std::numeric_limits<double>::infinity();
        for (std::size_t i = 0; i <= c; ++i) {
            const double move = s * d[i];
            const double b = beta_[active_[i]];
            if (b != 0.0 && move * b < 0.0 && std::fabs(b / move) < step) {
                step = std::fabs(b / move);
                stop = i;
            }
        }
        mosaic_assert(stop <= c, "null-space move reaches no zero");
        for (std::size_t i = 0; i <= c; ++i)
            beta_[active_[i]] += step * s * d[i];
        beta_[active_[stop]] = 0.0;
        dropZeros();
    }

    /**
     * Discrete line search toward a support solution whose signs
     * disagree with the active ones: evaluate the objective at
     * @p target and wherever a coefficient changes sign on the way,
     * and move to the lowest.
     * @return false when no point improves on the current one
     */
    bool
    lineSearch(const Vector &target)
    {
        const std::size_t k = active_.size();
        Vector from(k);
        for (std::size_t i = 0; i < k; ++i)
            from[i] = beta_[active_[i]];
        const Vector r0 = residualOf(pb_, beta_);
        Vector dr(pb_.n, 0.0);
        for (std::size_t i = 0; i < k; ++i) {
            const double delta = target[i] - from[i];
            const Vector &column = pb_.columns[active_[i]];
            for (std::size_t row = 0; row < pb_.n; ++row)
                dr[row] -= delta * column[row];
        }
        auto objective_at = [&](double t) {
            Vector r = r0;
            for (std::size_t row = 0; row < pb_.n; ++row)
                r[row] += t * dr[row];
            double l1 = 0.0;
            for (std::size_t i = 0; i < k; ++i)
                l1 += std::fabs(from[i] + t * (target[i] - from[i]));
            return objectiveOf(r, l1, lambda_);
        };
        double best_t = 1.0;
        double best = objective_at(1.0);
        std::size_t crossing = k;
        for (std::size_t i = 0; i < k; ++i) {
            if (from[i] == 0.0 || target[i] * from[i] > 0.0)
                continue;
            const double t = from[i] / (from[i] - target[i]);
            if (!(t > 0.0 && t < 1.0))
                continue;
            const double value = objective_at(t);
            if (value < best) {
                best = value;
                best_t = t;
                crossing = i;
            }
        }
        if (!(best < objective_at(0.0)))
            return false;
        for (std::size_t i = 0; i < k; ++i)
            beta_[active_[i]] = from[i] + best_t * (target[i] - from[i]);
        if (crossing < k)
            beta_[active_[crossing]] = 0.0;
        dropZeros();
        return true;
    }

    /**
     * The active set is optimal for its signs: enter the zero
     * coefficient whose gradient most exceeds lambda.
     * @return false when none does
     */
    bool
    enterWorst()
    {
        const Vector r = residualOf(pb_, beta_);
        const double inv_n = 1.0 / static_cast<double>(pb_.n);
        double worst = lambda_ * (1.0 + kEnterSlack);
        std::size_t entering = pb_.p;
        double sign = 0.0;
        for (std::size_t j = 0; j < pb_.p; ++j) {
            if (!pb_.alive[j] || beta_[j] != 0.0 || blocked_[j])
                continue;
            const double g = dot(pb_.columns[j], r) * inv_n;
            if (std::fabs(g) > worst) {
                worst = std::fabs(g);
                entering = j;
                sign = signOf(g);
            }
        }
        if (entering == pb_.p)
            return false;
        active_.push_back(entering);
        theta_[entering] = sign;
        return true;
    }

    const Problem &pb_;
    const double lambda_;
    Vector &beta_;
    std::vector<std::size_t> active_; ///< nonzero, then one entering
    Vector theta_;                    ///< signs of the active set
    std::vector<bool> blocked_;       ///< could not enter; see dropZeros
};

/**
 * The KKT certificate of @p beta: worst violation / @p scale, from the
 * residual. Leaves the gradient X_s^T r / n in @p grad.
 */
double
kktRatio(const Problem &pb, double lambda, double scale,
         const Vector &beta, Vector &grad)
{
    const Vector r = residualOf(pb, beta);
    const double inv_n = 1.0 / static_cast<double>(pb.n);
    double worst = 0.0;
    for (std::size_t j = 0; j < pb.p; ++j) {
        grad[j] = pb.alive[j] ? dot(pb.columns[j], r) * inv_n : 0.0;
        const double violation =
            beta[j] != 0.0
                ? std::fabs(grad[j] - lambda * signOf(beta[j]))
                : std::max(0.0, std::fabs(grad[j]) - lambda);
        worst = std::max(worst, violation);
    }
    return scale > 0.0 ? worst / scale : worst;
}

/**
 * Map standardized coefficients back to raw feature space:
 * y = y_mean + sum_j beta_j * (x_j - mean_j) / std_j.
 */
Result<LassoResult>
toRaw(const StandardScaler &scaler, double y_mean, const Vector &beta)
{
    LassoResult result;
    result.coefficients.assign(beta.size(), 0.0);
    result.intercept = y_mean;
    for (std::size_t j = 0; j < beta.size(); ++j) {
        const double raw = beta[j] / scaler.stdDevs()[j];
        result.coefficients[j] = raw;
        result.intercept -= raw * scaler.means()[j];
        if (beta[j] == 0.0)
            ++result.numZeroCoefficients;
        if (!std::isfinite(raw)) {
            return numericError(
                "Lasso fit produced a non-finite coefficient at index " +
                std::to_string(j));
        }
    }
    if (!std::isfinite(result.intercept))
        return numericError("Lasso fit produced a non-finite intercept");
    return result;
}

} // namespace

double
LassoResult::predict(const Vector &features) const
{
    mosaic_assert(features.size() == coefficients.size(),
                  "feature count mismatch");
    double acc = intercept;
    for (std::size_t i = 0; i < features.size(); ++i)
        acc += coefficients[i] * features[i];
    return acc;
}

Result<std::vector<LassoResult>>
fitLassoPath(const Matrix &x_in, const Vector &y,
             const std::vector<double> &ratios)
{
    const std::size_t n = x_in.rows();
    const std::size_t p = x_in.cols();
    mosaic_assert(y.size() == n, "target length mismatch");
    mosaic_assert(n >= 2, "need at least two samples");
    mosaic_assert(!ratios.empty(), "empty lambda path");
    for (std::size_t i = 0; i < ratios.size(); ++i) {
        mosaic_assert(ratios[i] >= 0.0, "negative lambda ratio");
        mosaic_assert(i == 0 || ratios[i] <= ratios[i - 1],
                      "lambda ratios must be non-increasing");
    }

    ScopedTimer timer(metrics(), "fit/lasso");

    Matrix x = x_in;
    if (faults().shouldFail(FaultSite::LassoNan) && n > 0 && p > 0)
        x(0, 0) = std::numeric_limits<double>::quiet_NaN();

    // NaN/Inf poison every inner product below; reject them up front
    // with a pinpointed error instead of fitting garbage.
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < p; ++j) {
            if (!std::isfinite(x(i, j))) {
                return numericError(
                    "non-finite value in design matrix at row " +
                    std::to_string(i) + ", col " + std::to_string(j));
            }
        }
        if (!std::isfinite(y[i])) {
            return numericError("non-finite target value at row " +
                                std::to_string(i));
        }
    }

    // Standardize features; center the target.
    StandardScaler scaler;
    const Matrix xs = scaler.fitTransform(x);
    double y_mean = 0.0;
    for (double v : y)
        y_mean += v;
    y_mean /= static_cast<double>(n);
    Vector yc(n);
    for (std::size_t i = 0; i < n; ++i)
        yc[i] = y[i] - y_mean;
    const Problem pb = makeProblem(xs, yc);

    std::vector<LassoResult> path;
    path.reserve(ratios.size());
    Vector beta(p, 0.0);
    Vector grad(p, 0.0);
    for (std::size_t j = 0; j < p; ++j)
        grad[j] = dot(pb.columns[j], yc) / static_cast<double>(n);

    for (double ratio : ratios) {
        metrics().add("lasso/fits");
        const double lambda = ratio * pb.lambdaMax;
        std::size_t iterations = 1;
        if (lambda == 0.0) {
            // No penalty: least squares, solved exactly by QR. Exactly
            // dependent columns get zero coefficients.
            beta = solveLeastSquares(xs, yc);
        } else {
            coordinateSweeps(pb, lambda, beta, grad);
            iterations = kWarmSweeps + FeatureSign(pb, lambda, beta).run();
        }
        metrics().add("lasso/iterations", iterations);

        const double kkt = kktRatio(pb, lambda,
                                    lambda > 0.0 ? lambda : pb.lambdaMax,
                                    beta, grad);
        metrics().raise("fit/worst_kkt_ratio", kkt);
        if (!(kkt <= kLassoCertifiedKkt)) {
            metrics().add("lasso/uncertified");
            char message[128];
            std::snprintf(message, sizeof message,
                          "Lasso solution at lambda ratio %g is not "
                          "certified: KKT violation %.3g * lambda",
                          ratio, kkt);
            return numericError(message);
        }

        auto result = toRaw(scaler, y_mean, beta);
        if (!result.ok())
            return result.error();
        result.value().iterations = iterations;
        result.value().kktRatio = kkt;
        path.push_back(std::move(result.value()));
    }
    return path;
}

Result<LassoResult>
fitLassoChecked(const Matrix &x, const Vector &y,
                const LassoConfig &config)
{
    auto path = fitLassoPath(x, y, {config.lambdaRatio});
    if (!path.ok())
        return path.error();
    return std::move(path.value().front());
}

LassoResult
fitLasso(const Matrix &x, const Vector &y, const LassoConfig &config)
{
    return fitLassoChecked(x, y, config).okOrThrow();
}

} // namespace mosaic::stats
