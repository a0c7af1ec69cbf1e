/**
 * @file
 * mosaic_export: write gnuplot-ready data and scripts for the paper's
 * figures from a campaign dataset CSV.
 *
 * Examples:
 *   mosaic_export --outdir plots
 *   mosaic_export --dataset mosaic_dataset.csv --outdir plots \
 *                 --curves spec06/mcf:SandyBridge
 */

#include <cstdio>
#include <sys/stat.h>

#include "experiments/campaign.hh"
#include "experiments/plot_export.hh"
#include "support/str.hh"
#include "tools/cli_common.hh"

namespace
{

constexpr const char *usageText =
    "usage: mosaic_export [--dataset FILE] [--outdir DIR]\n"
    "                     [--curves wl:platform,wl:platform,...]\n"
    "                     [--metrics-out FILE]\n"
    "defaults: dataset = mosaic_dataset.csv, outdir = plots,\n"
    "          curves = the paper's Figure 3/7/8/10/11 pairs\n";

int
exportMain(int argc, char **argv)
{
    using namespace mosaic;
    auto args = cli::parseArgs(
        "mosaic_export", argc, argv,
        {"help", "dataset", "outdir", "curves", "metrics-out"});
    if (args.has("help"))
        cli::usage(usageText);

    ScopedTimer total_timer(metrics(), "export/total");
    auto dataset = exp::Dataset::load(
        args.get("dataset", exp::defaultDatasetPath()));
    std::string outdir = args.get("outdir", "plots");
    mkdir(outdir.c_str(), 0755);

    std::vector<std::pair<std::string, std::string>> curves = {
        {"spec06/mcf", "SandyBridge"},          // Figure 3
        {"gapbs/sssp-twitter", "SandyBridge"},  // Figure 7
        {"spec06/omnetpp", "SandyBridge"},      // Figure 8
        {"gups/16GB", "SandyBridge"},           // Figure 10
        {"gapbs/pr-twitter", "SandyBridge"},    // Figure 11
    };
    if (args.has("curves")) {
        curves.clear();
        for (const auto &item : splitString(args.get("curves"), ',')) {
            auto parts = splitString(trimString(item), ':');
            if (parts.size() == 2)
                curves.emplace_back(parts[0], parts[1]);
        }
    }

    std::size_t files = 0;
    for (const auto &[workload, platform] : curves) {
        if (!dataset.has(platform, workload)) {
            std::fprintf(stderr, "skipping %s on %s: not in dataset\n",
                         workload.c_str(), platform.c_str());
            continue;
        }
        std::string stem = outdir + "/curve_" + platform + "_";
        for (char c : workload)
            stem.push_back(c == '/' ? '_' : c);
        auto written = exp::exportCurve(
            dataset, platform, workload,
            {"yaniv", "poly1", "mosmodel"}, stem);
        files += written.size();
    }

    files += exp::exportOverallErrors(dataset, outdir + "/fig2_errors")
                 .size();
    files += exp::exportErrorGrid(dataset, exp::ErrorKind::Max,
                                  outdir + "/fig5_max")
                 .size();
    files += exp::exportErrorGrid(dataset, exp::ErrorKind::GeoMean,
                                  outdir + "/fig6_geomean")
                 .size();

    total_timer.stop();

    RunManifest manifest("mosaic_export");
    manifest.setConfig("dataset",
                       args.get("dataset", exp::defaultDatasetPath()));
    manifest.setConfig("outdir", outdir);
    std::vector<std::string> curve_names;
    for (const auto &[workload, platform] : curves)
        curve_names.push_back(workload + ":" + platform);
    manifest.setConfig("curves", curve_names);
    manifest.setConfig("files_written",
                       static_cast<std::uint64_t>(files));
    cli::writeManifestIfRequested(args, manifest);

    std::printf("wrote %zu files under %s/ (render with: gnuplot "
                "%s/*.gp)\n",
                files, outdir.c_str(), outdir.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return mosaic::cli::runGuarded(
        "mosaic_export", [&] { return exportMain(argc, argv); });
}
