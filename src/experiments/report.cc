#include "experiments/report.hh"

#include <algorithm>

#include "models/fixed_models.hh"
#include "models/mosmodel.hh"
#include "models/regression_models.hh"
#include "stats/metrics.hh"
#include "support/logging.hh"

namespace mosaic::exp
{

std::vector<std::string>
paperModelOrder()
{
    return {"pham",  "alam",  "gandhi", "basu",    "yaniv",
            "poly1", "poly2", "poly3",  "mosmodel"};
}

models::ModelPtr
makeModelByName(const std::string &name)
{
    if (name == "pham")
        return std::make_unique<models::PhamModel>();
    if (name == "alam")
        return std::make_unique<models::AlamModel>();
    if (name == "gandhi")
        return std::make_unique<models::GandhiModel>();
    if (name == "basu")
        return std::make_unique<models::BasuModel>();
    if (name == "yaniv")
        return std::make_unique<models::YanivModel>();
    if (name == "poly1")
        return models::makePoly1();
    if (name == "poly2")
        return models::makePoly2();
    if (name == "poly3")
        return models::makePoly3();
    if (name == "mosmodel")
        return models::makeMosmodel();
    if (name == "mosmodel-s")
        return models::makeMosmodelSwap();
    mosaic_fatal("unknown model name: ", name);
}

std::vector<GridRow>
computeErrorGrid(const Dataset &dataset, ErrorKind kind)
{
    std::vector<GridRow> rows;
    for (const auto &platform : dataset.platforms()) {
        for (const auto &workload : dataset.workloads()) {
            if (!dataset.has(platform, workload))
                continue;
            GridRow row;
            row.platform = platform;
            row.workload = workload;

            models::SampleSet data =
                dataset.sampleSetResult(platform, workload).okOrThrow();
            row.tlbSensitive = data.tlbSensitive();
            if (row.tlbSensitive) {
                for (const auto &name : paperModelOrder()) {
                    auto model = makeModelByName(name);
                    auto errors = models::evaluateModel(*model, data);
                    row.errors[name] = kind == ErrorKind::Max
                                           ? errors.maxError
                                           : errors.geoMeanError;
                }
            }
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

std::map<std::string, double>
computeOverallMaxErrors(const Dataset &dataset)
{
    std::map<std::string, double> overall;
    for (const auto &name : paperModelOrder())
        overall[name] = 0.0;
    for (const auto &row : computeErrorGrid(dataset, ErrorKind::Max)) {
        if (!row.tlbSensitive)
            continue;
        for (const auto &[name, error] : row.errors)
            overall[name] = std::max(overall[name], error);
    }
    return overall;
}

std::vector<CurvePoint>
computeCurve(const Dataset &dataset, const std::string &platform,
             const std::string &workload,
             const std::vector<std::string> &model_names)
{
    models::SampleSet data =
        dataset.sampleSetResult(platform, workload).okOrThrow();

    std::vector<models::ModelPtr> fitted;
    for (const auto &name : model_names) {
        auto model = makeModelByName(name);
        model->fit(data);
        fitted.push_back(std::move(model));
    }

    std::vector<CurvePoint> curve;
    for (const auto &sample : data.samples) {
        CurvePoint point;
        point.layout = sample.layoutName;
        point.c = sample.c;
        point.m = sample.m;
        point.h = sample.h;
        point.measured = sample.r;
        for (const auto &model : fitted)
            point.predicted[model->name()] = model->predict(sample);
        curve.push_back(std::move(point));
    }
    std::sort(curve.begin(), curve.end(),
              [](const CurvePoint &a, const CurvePoint &b) {
                  return a.c < b.c;
              });
    return curve;
}

std::map<std::string, double>
computeCrossValidation(const Dataset &dataset, std::size_t k)
{
    const std::vector<std::string> new_models = {"poly1", "poly2", "poly3",
                                                 "mosmodel"};
    std::map<std::string, double> overall;
    for (const auto &name : new_models)
        overall[name] = 0.0;

    for (const auto &platform : dataset.platforms()) {
        for (const auto &workload : dataset.workloads()) {
            if (!dataset.has(platform, workload))
                continue;
            models::SampleSet data =
                dataset.sampleSetResult(platform, workload).okOrThrow();
            if (!data.tlbSensitive())
                continue;
            for (const auto &name : new_models) {
                double err = models::crossValidateMaxError(
                    [&] { return makeModelByName(name); }, data, k);
                overall[name] = std::max(overall[name], err);
            }
        }
    }
    return overall;
}

std::vector<R2Row>
computeR2Grid(const Dataset &dataset)
{
    std::vector<R2Row> rows;
    for (const auto &platform : dataset.platforms()) {
        for (const auto &workload : dataset.workloads()) {
            if (!dataset.has(platform, workload))
                continue;
            models::SampleSet data =
                dataset.sampleSetResult(platform, workload).okOrThrow();
            if (!data.tlbSensitive())
                continue;
            R2Row row;
            row.platform = platform;
            row.workload = workload;
            row.r2c = models::singleInputR2(data, 'C');
            row.r2m = models::singleInputR2(data, 'M');
            row.r2h = models::singleInputR2(data, 'H');
            rows.push_back(row);
        }
    }
    return rows;
}

std::vector<CaseStudyRow>
computeCaseStudy1g(const Dataset &dataset,
                   const std::vector<std::string> &model_names)
{
    std::vector<CaseStudyRow> rows;
    for (const auto &platform : dataset.platforms()) {
        for (const auto &workload : dataset.workloads()) {
            if (!dataset.has(platform, workload))
                continue;
            models::SampleSet data =
                dataset.sampleSetResult(platform, workload).okOrThrow();
            if (!data.tlbSensitive())
                continue;

            CaseStudyRow row;
            row.platform = platform;
            row.workload = workload;
            row.measured1g = data.all1g.r;
            for (const auto &name : model_names) {
                auto model = makeModelByName(name);
                model->fit(data); // Train on the 4KB/2MB mosaics only.
                double predicted = model->predict(data.all1g);
                row.errors[name] = stats::absoluteRelativeError(
                    row.measured1g, predicted);
            }
            rows.push_back(std::move(row));
        }
    }
    return rows;
}

} // namespace mosaic::exp
