/**
 * @file
 * Example: evaluating a "new" virtual-memory design with Mosmodel —
 * the Section VII-D workflow, end to end.
 *
 * A computer architect wants to estimate the benefit of a design that
 * (nearly) eliminates address-translation overhead — direct segments,
 * say, or here its measurable stand-in: 1GB pages. The workflow:
 *
 *  1. Measure the workload on the real machine under many 4KB/2MB
 *     Mosalloc mosaics (no 1GB pages involved).
 *  2. Fit Mosmodel to those samples.
 *  3. "Partially simulate" the new design to get its (H, M, C) — here
 *     the 1GB run's virtual-memory counters play that role.
 *  4. Predict the runtime, and since 1GB pages exist in hardware,
 *     compare the prediction against the measured truth.
 *
 * Build & run:  ./build/examples/design_eval_1gb
 */

#include <cstdio>

#include "cpu/platform.hh"
#include "experiments/campaign.hh"
#include "experiments/report.hh"
#include "models/mosmodel.hh"
#include "support/str.hh"

int
main()
{
    using namespace mosaic;

    const std::string label = "spec06/mcf";
    cpu::PlatformSpec platform = cpu::sandyBridge();
    std::printf("design under evaluation: translation-free backing "
                "(1GB pages as the stand-in)\n");
    std::printf("workload %s, platform %s\n\n", label.c_str(),
                platform.name.c_str());

    // Steps 1 and 3: the measurement campaign (54 mosaics + the 1GB
    // ground-truth run).
    exp::CampaignConfig config;
    config.verbose = false;
    config.workloads = {label};
    config.platforms = {platform};
    exp::Dataset dataset = exp::CampaignRunner(config).runReport().dataset;
    auto data = dataset.sampleSet(platform.name, label);

    // Step 2: fit the models on the 4KB/2MB samples only.
    models::Mosmodel mosmodel;
    mosmodel.fit(data);
    auto yaniv = exp::makeModelByName("yaniv");
    yaniv->fit(data);

    // Step 4: predict from the design's virtual-memory metrics.
    const models::Sample &design = data.all1g;
    double mos_prediction = mosmodel.predict(design);
    double yaniv_prediction = yaniv->predict(design);

    std::printf("design's partial-simulation outputs: H=%.0f M=%.0f "
                "C=%.0f\n\n",
                design.h, design.m, design.c);
    TextTable table;
    table.setHeader({"quantity", "cycles", "error"});
    table.addRow({"measured runtime (ground truth)",
                  formatDouble(design.r / 1e6, 2) + "M", "-"});
    table.addRow({"mosmodel prediction",
                  formatDouble(mos_prediction / 1e6, 2) + "M",
                  formatPercent(std::abs(mos_prediction - design.r) /
                                design.r)});
    table.addRow({"yaniv (two-point linear) prediction",
                  formatDouble(yaniv_prediction / 1e6, 2) + "M",
                  formatPercent(std::abs(yaniv_prediction - design.r) /
                                design.r)});
    std::printf("%s\n", table.render().c_str());

    double claimed = (data.all4k.r - mos_prediction) / data.all4k.r;
    double actual = (data.all4k.r - design.r) / data.all4k.r;
    std::printf("speedup the architect would report: %s (true: %s)\n",
                formatPercent(claimed).c_str(),
                formatPercent(actual).c_str());
    return 0;
}
