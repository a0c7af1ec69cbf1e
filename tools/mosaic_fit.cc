/**
 * @file
 * mosaic_fit: fit runtime models against a dataset CSV and report
 * errors — the analysis half of the methodology, scriptable.
 *
 * Examples:
 *   mosaic_fit --dataset mosaic_dataset.csv
 *   mosaic_fit --dataset mosaic_dataset.csv --workload spec06/mcf \
 *              --platform SandyBridge --models yaniv,mosmodel --describe
 */

#include <cmath>
#include <cstdio>

#include "experiments/campaign.hh"
#include "experiments/report.hh"
#include "models/evaluation.hh"
#include "models/mosmodel.hh"
#include "support/str.hh"
#include "tools/cli_common.hh"

namespace
{

constexpr const char *usageText =
    "usage: mosaic_fit [--dataset FILE] [--workload LABEL]\n"
    "                  [--platform NAME] [--models a,b,...]\n"
    "                  [--describe] [--metrics-out FILE]\n"
    "defaults: dataset = mosaic_dataset.csv, all pairs, all 9 models\n"
    "--describe prints each fitted equation; a Mosmodel's line ends\n"
    "with its Lasso selection: lambda ratio, CV score, KKT certificate.\n"
    "--metrics-out writes a JSON run manifest (Lasso solve counters,\n"
    "fit timings, fallback-ladder depth, worst KKT certificate) after\n"
    "the run.\n";

/**
 * For a Mosmodel, the Lasso selection behind its equation: the lambda
 * ratio, the ratio's cross-validation score (worst held-out error)
 * and the fit's KKT certificate. Empty for other models.
 */
std::string
lassoSelection(const mosaic::models::RuntimeModel &model)
{
    const auto *mosmodel =
        dynamic_cast<const mosaic::models::Mosmodel *>(&model);
    if (!mosmodel || !mosmodel->fitted())
        return "";
    char buf[160];
    std::snprintf(buf, sizeof buf, "  [lambda %g, cv %s, kkt %.1e]",
                  mosmodel->chosenLambdaRatio(),
                  std::isnan(mosmodel->cvScore())
                      ? "-"
                      : mosaic::formatPercent(mosmodel->cvScore(), 2)
                            .c_str(),
                  mosmodel->lassoResult().kktRatio);
    return buf;
}

int
fitMain(int argc, char **argv)
{
    using namespace mosaic;
    auto args = cli::parseArgs("mosaic_fit", argc, argv,
                               {"help", "dataset", "platform", "workload",
                                "models", "describe", "metrics-out"});
    if (args.has("help"))
        cli::usage(usageText);

    ScopedTimer total_timer(metrics(), "fit/total");
    auto dataset =
        exp::Dataset::load(args.get("dataset", exp::defaultDatasetPath()));

    std::vector<std::string> models = exp::paperModelOrder();
    if (args.has("models")) {
        models.clear();
        for (const auto &name : splitString(args.get("models"), ','))
            if (!trimString(name).empty())
                models.push_back(trimString(name));
    }

    TextTable table;
    std::vector<std::string> header = {"platform", "workload"};
    header.insert(header.end(), models.begin(), models.end());
    table.setHeader(header);

    for (const auto &platform : dataset.platforms()) {
        if (args.has("platform") && platform != args.get("platform"))
            continue;
        for (const auto &workload : dataset.workloads()) {
            if (args.has("workload") && workload != args.get("workload"))
                continue;
            if (!dataset.has(platform, workload))
                continue;
            auto set = dataset.sampleSet(platform, workload);
            if (!set.tlbSensitive())
                continue;
            std::vector<std::string> cells = {platform, workload};
            for (const auto &name : models) {
                auto model = exp::makeModelByName(name);
                auto errors = models::evaluateModel(*model, set);
                cells.push_back(formatPercent(errors.maxError));
                if (args.has("describe")) {
                    std::printf("%s %s %s: %s%s\n", platform.c_str(),
                                workload.c_str(), name.c_str(),
                                model->describe().c_str(),
                                lassoSelection(*model).c_str());
                }
            }
            table.addRow(cells);
        }
    }
    total_timer.stop();

    RunManifest manifest("mosaic_fit");
    manifest.setConfig("dataset",
                       args.get("dataset", exp::defaultDatasetPath()));
    manifest.setConfig("models", models);
    if (args.has("platform"))
        manifest.setConfig("platform", args.get("platform"));
    if (args.has("workload"))
        manifest.setConfig("workload", args.get("workload"));
    manifest.setConfig("pairs_fitted",
                       static_cast<std::uint64_t>(table.numRows()));
    cli::writeManifestIfRequested(args, manifest);

    std::printf("%s", table.render().c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return mosaic::cli::runGuarded("mosaic_fit",
                                   [&] { return fitMain(argc, argv); });
}
