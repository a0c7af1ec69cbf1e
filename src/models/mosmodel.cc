#include "models/mosmodel.hh"

#include <algorithm>
#include <cmath>
#include <functional>
#include <limits>

#include "models/fixed_models.hh"
#include "models/regression_models.hh"
#include "stats/kfold.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/str.hh"

namespace mosaic::models
{

namespace
{

/** @p grid sorted largest first: the order a Lasso path walks. */
std::vector<double>
descendingGrid(std::vector<double> grid)
{
    std::sort(grid.begin(), grid.end(), std::greater<double>());
    return grid;
}

} // namespace

Mosmodel::Mosmodel(const MosmodelConfig &config)
    : config_(config), features_(config.inputs.size(), config.degree)
{
    mosaic_assert(!config_.inputs.empty(), "need at least one input");
}

std::string
Mosmodel::name() const
{
    if (config_.inputs.size() == 3)
        return "mosmodel";
    std::string suffix(config_.inputs.begin(), config_.inputs.end());
    return "mosmodel[" + suffix + "]";
}

stats::Vector
Mosmodel::inputsOf(const Sample &point) const
{
    stats::Vector row;
    row.reserve(config_.inputs.size());
    for (char input : config_.inputs) {
        switch (input) {
          case 'H':
            row.push_back(point.h * hScale);
            break;
          case 'M':
            row.push_back(point.m * mScale);
            break;
          case 'C':
            row.push_back(point.c * cScale);
            break;
          default:
            mosaic_fatal("bad Mosmodel input '", input, "'");
        }
    }
    return row;
}

void
Mosmodel::fit(const SampleSet &data)
{
    const auto &samples = data.samples;
    mosaic_assert(samples.size() >= 10,
                  "Mosmodel needs a layout campaign, got ",
                  samples.size(), " samples");

    // Drop samples holding non-finite counters up front: one poisoned
    // row would otherwise spoil the whole design matrix.
    const std::size_t num_inputs = config_.inputs.size();
    std::vector<stats::Vector> rows;
    stats::Vector target;
    rows.reserve(samples.size());
    target.reserve(samples.size());
    droppedSamples_ = 0;
    for (const auto &sample : samples) {
        auto row = inputsOf(sample);
        bool finite = std::isfinite(sample.r);
        for (double v : row)
            finite = finite && std::isfinite(v);
        if (!finite) {
            ++droppedSamples_;
            continue;
        }
        rows.push_back(std::move(row));
        target.push_back(sample.r);
    }
    if (droppedSamples_ > 0) {
        mosaic_warn("Mosmodel: dropped ", droppedSamples_,
                    " sample(s) with non-finite counters (", rows.size(),
                    " kept)");
    }
    mosaic_assert(rows.size() >= 2,
                  "Mosmodel has no finite samples left to fit");

    stats::Matrix inputs(rows.size(), num_inputs);
    for (std::size_t i = 0; i < rows.size(); ++i)
        for (std::size_t j = 0; j < num_inputs; ++j)
            inputs(i, j) = rows[i][j];

    // Try the configured degree first; degrade toward the linear fit
    // when the numerics fail (non-finite values, an uncertified Lasso
    // solve) instead of publishing silent garbage.
    ScopedTimer fit_timer(metrics(), "fit/mosmodel");
    metrics().add("fit/mosmodel_fits");
    std::string first_failure;
    for (unsigned degree = config_.degree; degree >= 1; --degree) {
        stats::PolynomialFeatures features(num_inputs, degree);

        // Expand to monomials; drop the constant column (the Lasso
        // fitter carries an explicit intercept).
        stats::Matrix expanded = features.expandMatrix(inputs);
        stats::Matrix design(expanded.rows(), expanded.cols() - 1);
        for (std::size_t r = 0; r < expanded.rows(); ++r)
            for (std::size_t c = 1; c < expanded.cols(); ++c)
                design(r, c - 1) = expanded(r, c);

        double ratio = config_.lasso.lambdaRatio;
        cvScore_ = std::numeric_limits<double>::quiet_NaN();
        if (config_.autoLambda && !config_.lambdaGrid.empty() &&
            rows.size() >= 2 * config_.lambdaFolds) {
            try {
                ScopedTimer sweep_timer(metrics(), "fit/lambda_select");
                metrics().add("fit/lambda_sweeps",
                              config_.lambdaGrid.size());
                ratio = selectLambda(design, target);
            } catch (const std::exception &e) {
                mosaic_warn("Mosmodel: lambda selection failed (",
                            e.what(), "); using configured ratio");
            }
        }

        // The final fit walks the grid down to the chosen ratio, each
        // solve warm-starting the next.
        std::vector<double> path = {ratio};
        if (!std::isnan(cvScore_)) {
            path = descendingGrid(config_.lambdaGrid);
            path.erase(std::upper_bound(path.begin(), path.end(), ratio,
                                        std::greater<double>()),
                       path.end());
        }
        auto result = stats::fitLassoPath(design, target, path);
        if (!result.ok()) {
            if (first_failure.empty())
                first_failure = result.error().str();
            if (degree > 1) {
                mosaic_warn("Mosmodel: degree-", degree, " fit failed (",
                            result.error().str(),
                            "); falling back to degree ", degree - 1);
                continue;
            }
            throw std::runtime_error(
                "Mosmodel fit failed at every degree: " +
                result.error().str() +
                (first_failure == result.error().str()
                     ? std::string()
                     : " (first failure: " + first_failure + ")"));
        }
        if (degree < config_.degree) {
            metrics().add("fit/degree_fallbacks",
                          config_.degree - degree);
            mosaic_warn("Mosmodel: degraded from degree ",
                        config_.degree, " to degree ", degree);
        }
        metrics().set("fit/last_lambda_ratio", ratio);
        metrics().set("fit/last_degree", static_cast<double>(degree));
        chosenLambdaRatio_ = ratio;
        result_ = std::move(result.value().back());
        features_ = std::move(features);
        fittedDegree_ = degree;
        fitted_ = true;
        return;
    }
}

double
Mosmodel::selectLambda(const stats::Matrix &design,
                       const stats::Vector &target)
{
    auto splits = stats::makeKFoldSplits(design.rows(),
                                         config_.lambdaFolds,
                                         config_.lambdaSeed);
    const std::vector<double> path = descendingGrid(config_.lambdaGrid);

    // Maximal held-out relative error of each path ratio across the
    // folds, from one Lasso path per fold.
    std::vector<double> path_scores(path.size(), 0.0);
    for (const auto &split : splits) {
        stats::Matrix train_x(split.trainIndices.size(), design.cols());
        stats::Vector train_y(split.trainIndices.size());
        for (std::size_t i = 0; i < split.trainIndices.size(); ++i) {
            std::size_t index = split.trainIndices[i];
            for (std::size_t c = 0; c < design.cols(); ++c)
                train_x(i, c) = design(index, c);
            train_y[i] = target[index];
        }
        auto fits =
            stats::fitLassoPath(train_x, train_y, path).okOrThrow();
        for (std::size_t k = 0; k < path.size(); ++k) {
            for (std::size_t index : split.testIndices) {
                double predicted = fits[k].predict(design.row(index));
                path_scores[k] =
                    std::max(path_scores[k],
                             std::fabs(target[index] - predicted) /
                                 std::fabs(target[index]));
            }
        }
    }

    std::vector<double> scores;
    scores.reserve(config_.lambdaGrid.size());
    double best_score = 1e300;
    for (double ratio : config_.lambdaGrid) {
        auto at = std::find(path.begin(), path.end(), ratio);
        scores.push_back(path_scores[at - path.begin()]);
        best_score = std::min(best_score, scores.back());
    }
    // Near-ties go to the smaller (more flexible) lambda, which fits
    // the full sample set better at no generalization cost.
    for (std::size_t i = 0; i < config_.lambdaGrid.size(); ++i) {
        if (scores[i] <= best_score * 1.2) {
            cvScore_ = scores[i];
            return config_.lambdaGrid[i];
        }
    }
    cvScore_ = scores.front();
    return config_.lambdaGrid.front();
}

double
Mosmodel::predict(const Sample &point) const
{
    mosaic_assert(fitted_, "predict before fit");
    stats::Vector expanded = features_.expand(inputsOf(point));
    stats::Vector features(expanded.begin() + 1, expanded.end());
    return result_.predict(features);
}

std::size_t
Mosmodel::numActiveCoefficients() const
{
    mosaic_assert(fitted_, "query before fit");
    std::size_t active = 0;
    for (double coefficient : result_.coefficients) {
        if (coefficient != 0.0)
            ++active;
    }
    return active;
}

std::string
Mosmodel::describe() const
{
    if (!fitted_)
        return name() + " (unfitted)";
    std::vector<std::string> names;
    for (char input : config_.inputs)
        names.emplace_back(1, input);
    std::string out = "R = " + formatDouble(result_.intercept, 1);
    for (std::size_t i = 0; i < result_.coefficients.size(); ++i) {
        if (result_.coefficients[i] == 0.0)
            continue;
        out += " + " + formatDouble(result_.coefficients[i], 4) + "*" +
               features_.featureName(i + 1, names);
    }
    return out;
}

ModelPtr
makeMosmodel()
{
    return std::make_unique<Mosmodel>();
}

namespace
{

/** See makeMosmodelSwap(): Mosmodel over (R - S), plus S at predict
 *  time. S is charged serially in the simulator, so the additive
 *  decomposition is exact, not an approximation. */
class MosmodelSwap : public RuntimeModel
{
  public:
    MosmodelSwap() : inner_(std::make_unique<Mosmodel>()) {}

    std::string name() const override { return "mosmodel-s"; }

    void
    fit(const SampleSet &data) override
    {
        SampleSet residual = data;
        auto strip = [](Sample &sample) {
            sample.r = std::max(0.0, sample.r - sample.s);
        };
        for (auto &sample : residual.samples)
            strip(sample);
        strip(residual.all4k);
        strip(residual.all2m);
        strip(residual.all1g);
        inner_->fit(residual);
    }

    double
    predict(const Sample &point) const override
    {
        return inner_->predict(point) + point.s;
    }

    std::string
    describe() const override
    {
        return inner_->describe() + " + S";
    }

    bool fitted() const override { return inner_->fitted(); }

  private:
    std::unique_ptr<Mosmodel> inner_;
};

} // namespace

ModelPtr
makeMosmodelSwap()
{
    return std::make_unique<MosmodelSwap>();
}

std::vector<ModelPtr>
makeAllModels()
{
    std::vector<ModelPtr> models = makeFixedModels();
    models.push_back(makePoly1());
    models.push_back(makePoly2());
    models.push_back(makePoly3());
    models.push_back(makeMosmodel());
    return models;
}

std::vector<ModelPtr>
makeNewModels()
{
    std::vector<ModelPtr> models;
    models.push_back(makePoly1());
    models.push_back(makePoly2());
    models.push_back(makePoly3());
    models.push_back(makeMosmodel());
    return models;
}

} // namespace mosaic::models
