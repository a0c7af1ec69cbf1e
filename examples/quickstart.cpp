/**
 * @file
 * Quickstart: the whole pipeline on one workload and one platform.
 *
 *  1. Pick a workload (gups/8GB) and a platform (SandyBridge).
 *  2. Generate its memory trace once (layout-independent).
 *  3. Run the paper's 54-layout Mosalloc campaign plus the uniform
 *     references, collecting (R, H, M, C) samples.
 *  4. Fit the preexisting linear models and Mosmodel.
 *  5. Report each model's maximal prediction error (Equation 1).
 *
 * Build & run:  ./build/examples/quickstart
 */

#include <cstdio>
#include <memory>

#include "cpu/platform.hh"
#include "experiments/campaign.hh"
#include "experiments/dataset.hh"
#include "models/evaluation.hh"
#include "models/mosmodel.hh"
#include "support/str.hh"
#include "workloads/gups.hh"

int
main()
{
    using namespace mosaic;

    // 1. Workload and platform.
    workloads::GupsWorkload workload(workloads::gupsSmall());
    cpu::PlatformSpec platform = cpu::sandyBridge();
    std::printf("workload: %s  (heap pool %s)\n",
                workload.info().label().c_str(),
                formatBytes(workload.heapPoolSize()).c_str());
    std::printf("platform: %s (%s)\n\n", platform.name.c_str(),
                platform.processor.c_str());

    // 2-3. Run the campaign for this single pair.
    exp::CampaignConfig config;
    config.verbose = false;
    config.workloads = {workload.info().label()};
    config.platforms = {platform};
    config.workloadFactory = [](const std::string &) {
        return std::make_unique<workloads::GupsWorkload>(
            workloads::gupsSmall());
    };
    exp::Dataset dataset = exp::CampaignRunner(config).runReport().dataset;

    models::SampleSet data =
        dataset.sampleSet(platform.name, workload.info().label());
    std::printf("collected %zu mosaic samples;"
                " R4K=%.0f R2M=%.0f R1G=%.0f cycles\n",
                data.samples.size(), data.all4k.r, data.all2m.r,
                data.all1g.r);
    std::printf("TLB sensitive: %s (1GB pages speed it up by %s)\n\n",
                data.tlbSensitive() ? "yes" : "no",
                formatPercent((data.all4k.r - data.all1g.r) /
                              data.all4k.r)
                    .c_str());

    // 4-5. Fit and evaluate every model.
    TextTable table;
    table.setHeader({"model", "max error", "geomean error"});
    for (auto &model : models::makeAllModels()) {
        auto errors = models::evaluateModel(*model, data);
        table.addRow({errors.model, formatPercent(errors.maxError),
                      formatPercent(errors.geoMeanError, 2)});
    }
    std::printf("%s\n", table.render().c_str());

    // Peek inside Mosmodel: which inputs did Lasso keep?
    models::Mosmodel mosmodel;
    mosmodel.fit(data);
    std::printf("mosmodel keeps %zu of %zu coefficients: %s\n",
                mosmodel.numActiveCoefficients(), mosmodel.numFeatures(),
                mosmodel.describe().c_str());
    return 0;
}
