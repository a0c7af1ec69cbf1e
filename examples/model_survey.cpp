/**
 * @file
 * Example: the Section III model survey, executable.
 *
 * Fits all five preexisting linear models plus the new regression
 * models on one workload and prints each model's fitted equation next
 * to its errors — the quickest way to see *why* two-point models go
 * wrong: their coefficients are hostage to exactly one or two
 * measured layouts.
 *
 * Build & run:  ./build/examples/model_survey
 */

#include <cstdio>

#include "cpu/platform.hh"
#include "experiments/campaign.hh"
#include "models/evaluation.hh"
#include "models/mosmodel.hh"
#include "support/str.hh"

int
main()
{
    using namespace mosaic;

    const std::string label = "gups/8GB";
    cpu::PlatformSpec platform = cpu::broadwell();
    std::printf("surveying runtime models for %s on %s\n\n",
                label.c_str(), platform.name.c_str());

    exp::CampaignConfig config;
    config.verbose = false;
    config.workloads = {label};
    config.platforms = {platform};
    exp::Dataset dataset = exp::CampaignRunner(config).runReport().dataset;
    auto data = dataset.sampleSet(platform.name, label);

    std::printf("anchor points the fixed models are built from:\n");
    std::printf("  4KB: R=%.0f H=%.0f M=%.0f C=%.0f\n", data.all4k.r,
                data.all4k.h, data.all4k.m, data.all4k.c);
    std::printf("  2MB: R=%.0f H=%.0f M=%.0f C=%.0f\n\n", data.all2m.r,
                data.all2m.h, data.all2m.m, data.all2m.c);
    if (data.all4k.c > data.all4k.r) {
        std::printf("note: C4K > R4K on this two-walker machine — the "
                    "Basu model's beta = R - C goes negative "
                    "(Section VI-D).\n\n");
    }

    TextTable table;
    table.setHeader({"model", "fitted form", "max err", "geomean"});
    for (auto &model : models::makeAllModels()) {
        auto errors = models::evaluateModel(*model, data);
        std::string form = model->describe();
        if (form.size() > 58)
            form = form.substr(0, 55) + "...";
        table.addRow({errors.model, form,
                      formatPercent(errors.maxError),
                      formatPercent(errors.geoMeanError, 2)});
    }
    std::printf("%s\n", table.render().c_str());

    models::Mosmodel mosmodel;
    mosmodel.fit(data);
    std::printf("mosmodel active terms (%zu of %zu after Lasso):\n  "
                "%s\n",
                mosmodel.numActiveCoefficients(), mosmodel.numFeatures(),
                mosmodel.describe().c_str());
    return 0;
}
