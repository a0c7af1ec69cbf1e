/**
 * @file
 * mosaic_paper: every table, figure and ablation of the paper's
 * evaluation, printed from the campaign dataset, with the paper's
 * claims checked against the printed values.
 *
 * Usage: mosaic_paper
 *
 * It takes no option. It reads the dataset at $MOSAIC_DATASET (default
 * mosaic_dataset.csv) and writes no file. Each artifact prints its
 * tables and records the values its claims read. A claim pairs the
 * paper's statement with a predicate on those values and a recorded
 * verdict: reproduced, or the number of its entry in EXPERIMENTS.md
 * "Known deviations". After the artifacts come one line per claim and
 * a summary line. The exit code is 1, with the claim and its values
 * named on stderr, when any claim's outcome differs from its recorded
 * verdict, and 1 when the dataset is unreadable or lacks a pair an
 * artifact needs.
 *
 * The platforms are simulated and the footprints scaled (DESIGN.md),
 * so absolute numbers differ from the paper's; the claims are about
 * which models fail, by how much, and why.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "cpu/platform.hh"
#include "cpu/system.hh"
#include "experiments/campaign.hh"
#include "experiments/report.hh"
#include "layouts/heuristics.hh"
#include "models/evaluation.hh"
#include "models/mosmodel.hh"
#include "models/regression_models.hh"
#include "stats/metrics.hh"
#include "support/str.hh"
#include "tools/cli_common.hh"
#include "trace/miss_profile.hh"
#include "workloads/graph500.hh"
#include "workloads/gups.hh"
#include "workloads/registry.hh"

namespace
{

using namespace mosaic;

/**
 * The values an artifact printed, by name. A predicate reads them
 * through operator[], which records each name it reads, so that the
 * claim's line shows what the claim was judged on.
 */
class Values
{
  public:
    void
    set(const std::string &name, double value)
    {
        values_[name] = value;
    }

    double
    operator[](const std::string &name)
    {
        auto it = values_.find(name);
        mosaic_assert(it != values_.end(), "no printed value ", name);
        if (std::find(read_.begin(), read_.end(), name) == read_.end())
            read_.push_back(name);
        return it->second;
    }

    /** "name=value, ..." for every name read since the last call. */
    std::string
    takeRead()
    {
        std::string text;
        for (const auto &name : read_) {
            char value[32];
            std::snprintf(value, sizeof value, "%.4g", values_.at(name));
            text += (text.empty() ? "" : ", ") + name + "=" + value;
        }
        read_.clear();
        return text;
    }

  private:
    std::map<std::string, double> values_;
    std::vector<std::string> read_;
};

/** One of the paper's claims about an artifact. */
struct Claim
{
    const char *id;
    const char *statement;
    bool (*holds)(Values &);

    /** 0 if reproduced; else its EXPERIMENTS.md "Known deviations"
     *  entry. */
    int deviation;
};

/** One paper artifact: what prints it, and the claims it carries. */
struct Artifact
{
    const char *title;
    void (*print)(const exp::Dataset &, Values &);
    std::vector<Claim> claims;
};

struct Pair
{
    const char *platform;
    const char *workload;
};

// The pairs that single artifacts plot; the dataset must hold each.
constexpr Pair kMcf{"SandyBridge", "spec06/mcf"};
constexpr Pair kSssp{"SandyBridge", "gapbs/sssp-twitter"};
constexpr Pair kOmnetpp{"SandyBridge", "spec06/omnetpp"};
constexpr Pair kGups16{"SandyBridge", "gups/16GB"};
constexpr Pair kPrTwitter{"SandyBridge", "gapbs/pr-twitter"};
constexpr Pair kXalancbmk{"Broadwell", "spec17/xalancbmk_s"};
constexpr Pair kBfsRoad{"Broadwell", "gapbs/bfs-road"};
constexpr Pair kNeeded[] = {kMcf,       kSssp,      kOmnetpp, kGups16,
                            kPrTwitter, kXalancbmk, kBfsRoad};

models::SampleSet
sampleSet(const exp::Dataset &data, Pair pair)
{
    return data.sampleSet(pair.platform, pair.workload);
}

void
printTable(const TextTable &table)
{
    std::printf("%s\n", table.render().c_str());
}

/** Calls @p fn(set) for every TLB-sensitive pair of the dataset. */
template <typename Fn>
void
forEachSensitivePair(const exp::Dataset &data, Fn &&fn)
{
    for (const auto &platform : data.platforms()) {
        for (const auto &workload : data.workloads()) {
            if (!data.has(platform, workload))
                continue;
            auto set = data.sampleSet(platform, workload);
            if (set.tlbSensitive())
                fn(platform, workload, set);
        }
    }
}

/** The worst error of a freshly built @p name model on @p set. */
double
maxError(const std::string &name, const models::SampleSet &set)
{
    return models::evaluateModel(*exp::makeModelByName(name), set)
        .maxError;
}

/**
 * Every paper campaign layout of @p workload simulated on @p platform,
 * a platform variant that no dataset holds, as a sample set (grow-0
 * and grow-8 are its 4KB and 2MB references).
 */
models::SampleSet
simulateLayouts(const workloads::Workload &workload,
                const cpu::PlatformSpec &platform,
                const trace::MemoryTrace &trace)
{
    trace::MissProfile profile(trace, workload.primaryPoolBase(),
                               workload.primaryPoolSize());
    models::SampleSet set;
    for (const auto &named : layouts::paperCampaignLayouts(
             workload.primaryPoolSize(), profile)) {
        auto result = cpu::simulateRun(
            platform, workload.makeAllocConfig(named.layout), trace);
        models::Sample sample;
        sample.layoutName = named.name;
        sample.r = static_cast<double>(result.runtimeCycles);
        sample.h = static_cast<double>(result.tlbHitsL2);
        sample.m = static_cast<double>(result.tlbMisses);
        sample.c = static_cast<double>(result.walkCycles);
        set.samples.push_back(sample);
        if (named.name == "grow-0")
            set.all4k = sample;
        if (named.name == "grow-8")
            set.all2m = sample;
    }
    set.all1g = set.all2m;
    return set;
}

// ---- Tables 3-5 ------------------------------------------------------

void
printConfiguration(const exp::Dataset &, Values &)
{
    using namespace cpu;
    TextTable t3;
    t3.setHeader({"generation", "processor", "GHz", "cores", "nominal L3",
                  "modelled L3", "DRAM lat", "nominal memory"});
    for (const auto &spec : paperPlatforms()) {
        t3.addRow({spec.name, spec.processor, formatDouble(spec.ghz, 1),
                   std::to_string(spec.coresPerSocket) + "C x " +
                       std::to_string(spec.sockets),
                   formatBytes(spec.nominalL3),
                   formatBytes(spec.hierarchy.l3.capacity),
                   std::to_string(spec.hierarchy.latencies.dram) + " cyc",
                   formatBytes(spec.nominalMainMemory)});
    }
    std::printf("Table 3 (modelled L3 is 1/16 of nominal — the "
                "footprint scale):\n");
    printTable(t3);

    TextTable t4;
    t4.setHeader({"generation", "year", "L1 4KB", "L1 2MB", "L1 1GB",
                  "L2 entries", "L2 2MB", "L2 1GB", "walkers"});
    for (const auto &spec : allPlatforms()) {
        const auto &mmu = spec.mmu;
        t4.addRow({spec.name, std::to_string(spec.year),
                   std::to_string(mmu.l1Tlb.entries4k),
                   std::to_string(mmu.l1Tlb.entries2m),
                   std::to_string(mmu.l1Tlb.entries1g),
                   std::to_string(mmu.l2Tlb.entries),
                   mmu.l2Tlb.shares2m ? "shared" : "no",
                   std::to_string(mmu.l2Tlb.entries1g),
                   std::to_string(mmu.numWalkers)});
    }
    std::printf("Table 4:\n");
    printTable(t4);

    TextTable t5;
    t5.setHeader({"suite", "benchmarks (paper labels)"});
    std::map<std::string, std::string> suites;
    for (const auto &label : workloads::workloadLabels()) {
        auto slash = label.find('/');
        auto &names = suites[label.substr(0, slash)];
        names += (names.empty() ? "" : ", ") + label.substr(slash + 1);
    }
    for (const auto &[suite, names] : suites)
        t5.addRow({suite, names});
    std::printf("Table 5 (%zu TLB-sensitive benchmarks):\n",
                workloads::workloadLabels().size());
    printTable(t5);
}

// ---- Figure 2 ----------------------------------------------------------

void
printFigure2(const exp::Dataset &data, Values &values)
{
    auto overall = exp::computeOverallMaxErrors(data);
    auto print = [&](const char *header,
                     std::initializer_list<const char *> names) {
        TextTable table;
        table.setHeader({header, "maximal error"});
        for (const char *name : names) {
            table.addRow({name, formatPercent(overall.at(name))});
            values.set(name, overall.at(name));
        }
        printTable(table);
    };
    print("(a) old model", {"pham", "basu", "gandhi", "alam", "yaniv"});
    print("(b) new model", {"poly1", "poly2", "poly3", "mosmodel"});
}

// ---- Figures 3, 8 and 10: runtime-vs-walk-cycles curves ----------------

/** A model's columns in a curve table: its prediction, then (when
 *  errorHeader is set) its error. */
struct CurveColumn
{
    const char *model;
    const char *header;
    const char *errorHeader = nullptr;
};

/**
 * Every @p stride-th point of @p pair's curve, sorted by walk cycles,
 * with cycle columns in millions at @p digits decimals: the prediction
 * columns first, then the error columns.
 */
void
printCurve(const exp::Dataset &data, Pair pair,
           const std::vector<CurveColumn> &columns, std::size_t stride,
           int digits)
{
    std::vector<std::string> header = {"layout", "walk cycles",
                                       "measured R"};
    std::vector<std::string> models;
    for (const auto &column : columns) {
        header.push_back(column.header);
        models.push_back(column.model);
    }
    for (const auto &column : columns)
        if (column.errorHeader)
            header.push_back(column.errorHeader);
    TextTable table;
    table.setHeader(header);

    auto mega = [digits](double cycles) {
        return formatDouble(cycles / 1e6, digits);
    };
    auto curve =
        exp::computeCurve(data, pair.platform, pair.workload, models);
    for (std::size_t i = 0; i < curve.size(); i += stride) {
        const auto &point = curve[i];
        std::vector<std::string> cells = {point.layout, mega(point.c),
                                          mega(point.measured)};
        for (const auto &column : columns)
            cells.push_back(mega(point.predicted.at(column.model)));
        for (const auto &column : columns) {
            if (column.errorHeader)
                cells.push_back(formatPercent(
                    std::fabs(point.measured -
                              point.predicted.at(column.model)) /
                    point.measured));
        }
        table.addRow(cells);
    }
    printTable(table);
}

void
printFigure3(const exp::Dataset &data, Values &values)
{
    printCurve(data, kMcf,
               {{"yaniv", "linear model", "lin err"},
                {"mosmodel", "mosmodel", "mos err"}},
               1, 2);
    std::printf("(cycle columns in millions)\n\n");
    auto set = sampleSet(data, kMcf);
    double linear = maxError("yaniv", set), mos = maxError("mosmodel", set);
    std::printf("max linear-model error: %s   max mosmodel error: %s\n",
                formatPercent(linear).c_str(), formatPercent(mos).c_str());
    values.set("yaniv", linear);
    values.set("mosmodel", mos);
}

void
printFigure8(const exp::Dataset &data, Values &values)
{
    printCurve(data, kOmnetpp, {{"poly1", "poly1", "error"}}, 5, 2);
    std::printf("(every 5th layout shown; cycles in millions)\n\n");
    models::PolyModel poly1(1);
    auto errors = models::evaluateModel(poly1, sampleSet(data, kOmnetpp));
    double on_mcf = maxError("poly1", sampleSet(data, kMcf));
    std::printf("fitted model: %s\n", poly1.describe().c_str());
    std::printf("max error %s, geomean %s\n",
                formatPercent(errors.maxError).c_str(),
                formatPercent(errors.geoMeanError, 2).c_str());
    std::printf("poly1 max error on spec06/mcf (Figure 3): %s\n",
                formatPercent(on_mcf).c_str());
    values.set("poly1.omnetpp", errors.maxError);
    values.set("poly1.mcf", on_mcf);
}

void
printFigure10(const exp::Dataset &data, Values &values)
{
    printCurve(data, kGups16, {{"poly1", "poly1"}, {"poly2", "poly2"}}, 4,
               1);
    std::printf("(every 4th layout; cycles in millions)\n\n");
    auto set = sampleSet(data, kGups16);
    double poly1 = maxError("poly1", set), poly2 = maxError("poly2", set);
    std::printf("poly1 max error: %s    poly2 max error: %s\n",
                formatPercent(poly1).c_str(), formatPercent(poly2).c_str());
    values.set("poly1", poly1);
    values.set("poly2", poly2);
}

// ---- Figures 5 and 6: per-benchmark error grids ------------------------

/**
 * One table per platform of every model's @p kind error on every pair.
 * Returns Mosmodel's worst error per platform.
 */
std::map<std::string, double>
printErrorGrid(const exp::Dataset &data, exp::ErrorKind kind,
               int precision)
{
    std::map<std::string, double> mosmodel_worst;
    auto rows = exp::computeErrorGrid(data, kind);
    auto order = exp::paperModelOrder();
    for (const auto &platform : data.platforms()) {
        std::printf("--- %s ---\n", platform.c_str());
        TextTable table;
        std::vector<std::string> header = {"benchmark"};
        header.insert(header.end(), order.begin(), order.end());
        table.setHeader(header);
        double &worst = mosmodel_worst[platform];
        for (const auto &row : rows) {
            if (row.platform != platform)
                continue;
            std::vector<std::string> cells = {row.workload};
            if (row.tlbSensitive) {
                for (const auto &name : order)
                    cells.push_back(
                        formatPercent(row.errors.at(name), precision));
                worst = std::max(worst, row.errors.at("mosmodel"));
            } else {
                cells.push_back("(not TLB-sensitive; dropped)");
            }
            table.addRow(cells);
        }
        printTable(table);
    }
    return mosmodel_worst;
}

void
printFigure5(const exp::Dataset &data, Values &values)
{
    auto worst = printErrorGrid(data, exp::ErrorKind::Max, 1);
    values.set("mosmodel.SandyBridge", worst.at("SandyBridge"));
}

void
printFigure6(const exp::Dataset &data, Values &values)
{
    double worst = 0.0;
    for (const auto &[platform, error] :
         printErrorGrid(data, exp::ErrorKind::GeoMean, 2))
        worst = std::max(worst, error);
    values.set("mosmodel", worst);
}

// ---- Figure 7 ----------------------------------------------------------

void
printFigure7(const exp::Dataset &data, Values &values)
{
    auto curve =
        exp::computeCurve(data, kSssp.platform, kSssp.workload, {"basu"});
    TextTable table;
    table.setHeader({"layout", "TLB misses M", "measured R",
                     "basu model", "signed error"});
    double worst_under = 0.0; // optimistic = prediction below measured
    for (const auto &point : curve) {
        double predicted = point.predicted.at("basu");
        double signed_err = (predicted - point.measured) / point.measured;
        worst_under = std::min(worst_under, signed_err);
        table.addRow({point.layout, formatDouble(point.m / 1e3, 1),
                      formatDouble(point.measured / 1e6, 2),
                      formatDouble(predicted / 1e6, 2),
                      formatPercent(signed_err)});
    }
    printTable(table);
    std::printf("(M in thousands, R in millions of cycles)\n\n");
    std::printf("most optimistic Basu prediction (this workload): %s "
                "below the measured runtime\n\n",
                formatPercent(-worst_under).c_str());

    // The paper's point is the phenomenon: a model its authors believed
    // conservative is optimistic near the zero-overhead operating
    // point. Which pair shows it most depends on the substrate.
    double grid_worst = 0.0;
    std::string worst_pair;
    forEachSensitivePair(data, [&](const std::string &platform,
                                   const std::string &workload,
                                   const models::SampleSet &set) {
        auto basu = exp::makeModelByName("basu");
        basu->fit(set);
        for (const auto &sample : set.samples) {
            double signed_err = (basu->predict(sample) - sample.r) / sample.r;
            if (signed_err < grid_worst) {
                grid_worst = signed_err;
                worst_pair = workload + " on " + platform + " (" +
                             sample.layoutName + ")";
            }
        }
    });
    std::printf("most optimistic Basu prediction anywhere: %s below "
                "measured, for %s\n",
                formatPercent(-grid_worst).c_str(), worst_pair.c_str());
    values.set("optimism.sssp", -worst_under);
    values.set("optimism.grid", -grid_worst);
}

// ---- Figure 9 and Table 7: xalancbmk on Broadwell ----------------------

/** xalancbmk's Broadwell counters under all-4KB and all-2MB pages. */
struct XalancbmkEndpoints
{
    const cpu::RunResult &all4k;
    const cpu::RunResult &all2m;
};

XalancbmkEndpoints
xalancbmkEndpoints(const exp::Dataset &data)
{
    return {data.findRun(kXalancbmk.platform, kXalancbmk.workload,
                         exp::layoutAll4k)
                .result,
            data.findRun(kXalancbmk.platform, kXalancbmk.workload,
                         exp::layoutAll2m)
                .result};
}

void
printFigure9(const exp::Dataset &data, Values &values)
{
    models::PolyModel poly1(1);
    poly1.fit(sampleSet(data, kXalancbmk));
    std::printf("fitted: %s\n", poly1.describe().c_str());
    std::printf("slope alpha (runtime cycles per walk cycle): %.3f\n\n",
                poly1.linearSlope());
    values.set("alpha", poly1.linearSlope());

    // The pollution mechanism: program and walker L3 loads at the two
    // endpoints (Table 7 has the full counter set).
    auto [r4k, r2m] = xalancbmkEndpoints(data);
    TextTable table;
    table.setHeader({"counter", "4KB pages", "2MB pages"});
    table.addRow({"program L3 loads", std::to_string(r4k.progL3Loads),
                  std::to_string(r2m.progL3Loads)});
    table.addRow({"walker L3 loads", std::to_string(r4k.walkL3Loads),
                  std::to_string(r2m.walkL3Loads)});
    printTable(table);

    // The alpha > 1 regime needs the working set to be cache-resident
    // while exceeding TLB reach. Scaling the L3 to 1/16 (DESIGN.md)
    // puts it below the 6MB TLB reach, which inverts that regime, so
    // the fit is repeated on a Broadwell with the nominal 60MiB L3.
    std::printf("re-running on Broadwell with the nominal 60MiB L3:\n");
    auto workload = workloads::makeWorkload(kXalancbmk.workload);
    cpu::PlatformSpec full = cpu::broadwell();
    full.hierarchy.l3.capacity = full.nominalL3;
    full.hierarchy.l3.ways = 15; // 60MiB/64B/15 = 2^16 sets
    models::PolyModel full_poly(1);
    full_poly.fit(
        simulateLayouts(*workload, full, workload->generateTrace()));
    std::printf("  fitted: %s\n", full_poly.describe().c_str());
    std::printf("  slope alpha with nominal L3: %.3f (see EXPERIMENTS.md)\n",
                full_poly.linearSlope());
    values.set("alpha.nominal_l3", full_poly.linearSlope());
}

void
printTable7(const exp::Dataset &data, Values &values)
{
    auto [r4k, r2m] = xalancbmkEndpoints(data);
    auto fmt = [](std::uint64_t value) {
        return formatDouble(static_cast<double>(value) / 1e6, 3);
    };
    TextTable table;
    table.setHeader({"counter (millions)", "program 4KB", "program 2MB",
                     "walker 4KB", "walker 2MB"});
    table.addRow({"runtime cycles", fmt(r4k.runtimeCycles),
                  fmt(r2m.runtimeCycles), "-", "-"});
    table.addRow({"walk cycles", fmt(r4k.walkCycles), fmt(r2m.walkCycles),
                  "-", "-"});
    table.addRow({"TLB misses", fmt(r4k.tlbMisses), fmt(r2m.tlbMisses),
                  "-", "-"});
    table.addRow({"L1d loads", fmt(r4k.progL1dLoads),
                  fmt(r2m.progL1dLoads), fmt(r4k.walkL1dLoads),
                  fmt(r2m.walkL1dLoads)});
    table.addRow({"L2 loads", fmt(r4k.progL2Loads), fmt(r2m.progL2Loads),
                  fmt(r4k.walkL2Loads), fmt(r2m.walkL2Loads)});
    table.addRow({"L3 loads", fmt(r4k.progL3Loads), fmt(r2m.progL3Loads),
                  fmt(r4k.walkL3Loads), fmt(r2m.walkL3Loads)});
    printTable(table);
    values.set("tlb_misses.4k", static_cast<double>(r4k.tlbMisses));
    values.set("tlb_misses.2m", static_cast<double>(r2m.tlbMisses));
    values.set("walker_l3.4k", static_cast<double>(r4k.walkL3Loads));
    values.set("walker_l3.2m", static_cast<double>(r2m.walkL3Loads));
    values.set("program_l3.4k", static_cast<double>(r4k.progL3Loads));
    values.set("program_l3.2m", static_cast<double>(r2m.progL3Loads));
}

// ---- Figure 11 and the Section VII-D case study ------------------------

void
printCaseStudy(const exp::Dataset &data, Values &values)
{
    auto rows = exp::computeCaseStudy1g(data, {"yaniv", "poly1",
                                               "mosmodel"});
    double worst_mos = 0.0, worst_yaniv = 0.0;
    for (const auto &platform : data.platforms()) {
        std::printf("--- %s ---\n", platform.c_str());
        TextTable table;
        table.setHeader({"workload", "yaniv", "poly1", "mosmodel"});
        for (const auto &row : rows) {
            if (row.platform != platform)
                continue;
            table.addRow({row.workload,
                          formatPercent(row.errors.at("yaniv")),
                          formatPercent(row.errors.at("poly1")),
                          formatPercent(row.errors.at("mosmodel"))});
            worst_mos = std::max(worst_mos, row.errors.at("mosmodel"));
            worst_yaniv = std::max(worst_yaniv, row.errors.at("yaniv"));
        }
        printTable(table);
    }
    std::printf("worst 1GB-prediction error:  yaniv %s   mosmodel %s\n\n",
                formatPercent(worst_yaniv).c_str(),
                formatPercent(worst_mos).c_str());

    // Figure 11: the pr-twitter rows.
    std::printf("Figure 11 (%s):\n", kPrTwitter.workload);
    TextTable table;
    table.setHeader({"platform", "workload", "measured R(1GB)",
                     "yaniv err", "mosmodel err"});
    for (const auto &row : rows) {
        if (row.workload != kPrTwitter.workload)
            continue;
        table.addRow({row.platform, row.workload,
                      formatDouble(row.measured1g / 1e6, 2) + "M",
                      formatPercent(row.errors.at("yaniv")),
                      formatPercent(row.errors.at("mosmodel"))});
        if (row.platform == kPrTwitter.platform) {
            values.set("yaniv", row.errors.at("yaniv"));
            values.set("mosmodel", row.errors.at("mosmodel"));
        }
    }
    printTable(table);
}

// ---- Table 6 -----------------------------------------------------------

void
printTable6(const exp::Dataset &data, Values &values)
{
    auto cv = exp::computeCrossValidation(data, 6);
    auto fit = exp::computeOverallMaxErrors(data);
    TextTable table;
    table.setHeader({"model", "cross-validation max error",
                     "fit-on-all max error (Fig. 2b)"});
    for (const std::string name : {"poly1", "poly2", "poly3", "mosmodel"}) {
        table.addRow({name, formatPercent(cv.at(name)),
                      formatPercent(fit.at(name))});
        values.set("cv." + name, cv.at(name));
        values.set("fit." + name, fit.at(name));
    }
    printTable(table);
}

// ---- Table 8 -----------------------------------------------------------

void
printTable8(const exp::Dataset &data, Values &values)
{
    auto rows = exp::computeR2Grid(data);
    double sum_c = 0, sum_m = 0, sum_h = 0;
    for (const auto &platform : data.platforms()) {
        std::printf("--- %s ---\n", platform.c_str());
        TextTable table;
        table.setHeader({"workload", "C", "M", "H"});
        for (const auto &row : rows) {
            if (row.platform != platform)
                continue;
            table.addRow({row.workload, formatDouble(row.r2c, 2),
                          formatDouble(row.r2m, 2),
                          formatDouble(row.r2h, 2)});
            sum_c += row.r2c;
            sum_m += row.r2m;
            sum_h += row.r2h;
        }
        printTable(table);
    }
    auto n = static_cast<double>(rows.size());
    values.set("mean_r2.C", sum_c / n);
    values.set("mean_r2.M", sum_m / n);
    values.set("mean_r2.H", sum_h / n);
    std::printf("mean R^2:  C %.2f   M %.2f   H %.2f\n", sum_c / n,
                sum_m / n, sum_h / n);
}

// ---- Workload selection (Section VI-A) ---------------------------------

void
printSensitivity(const exp::Dataset &data, Values &values)
{
    TextTable table;
    std::vector<std::string> header = {"workload"};
    auto platforms = data.platforms();
    header.insert(header.end(), platforms.begin(), platforms.end());
    table.setHeader(header);

    int trend_hits = 0, trend_total = 0;
    for (const auto &workload : data.workloads()) {
        std::vector<std::string> cells = {workload};
        double broadwell = -1.0, sandybridge = -1.0;
        for (const auto &platform : platforms) {
            if (!data.has(platform, workload)) {
                cells.push_back("-");
                continue;
            }
            auto set = data.sampleSet(platform, workload);
            double sensitivity = (set.all4k.r - set.all1g.r) / set.all4k.r;
            cells.push_back(formatPercent(sensitivity) +
                            (set.tlbSensitive() ? "" : " (drop)"));
            if (platform == "Broadwell")
                broadwell = sensitivity;
            if (platform == "SandyBridge")
                sandybridge = sensitivity;
            if (platform == kBfsRoad.platform &&
                workload == kBfsRoad.workload)
                values.set("bfs_road.Broadwell", sensitivity);
        }
        if (broadwell >= 0 && sandybridge >= 0) {
            ++trend_total;
            trend_hits += sandybridge > broadwell;
        }
        table.addRow(cells);
    }
    printTable(table);
    std::printf("TLB-growth trend (SandyBridge more sensitive than "
                "Broadwell): %d of %d workloads\n",
                trend_hits, trend_total);
    values.set("trend.hits", trend_hits);
    values.set("trend.workloads", trend_total);
}

// ---- Ablations ---------------------------------------------------------

void
printDegreeAblation(const exp::Dataset &data, Values &values)
{
    TextTable table;
    table.setHeader({"degree", "fit-on-all max error",
                     "cross-validation max error"});
    for (unsigned degree = 1; degree <= 5; ++degree) {
        double fit_worst = 0.0, cv_worst = 0.0;
        forEachSensitivePair(data, [&](const std::string &,
                                       const std::string &,
                                       const models::SampleSet &set) {
            models::PolyModel model(degree);
            fit_worst = std::max(fit_worst,
                                 models::evaluateModel(model, set).maxError);
            cv_worst = std::max(
                cv_worst, models::crossValidateMaxError(
                              [degree] {
                                  return std::make_unique<models::PolyModel>(
                                      degree);
                              },
                              set));
        });
        table.addRow({std::to_string(degree), formatPercent(fit_worst),
                      formatPercent(cv_worst)});
        values.set("cv.degree" + std::to_string(degree), cv_worst);
    }
    printTable(table);
}

void
printInputsAblation(const exp::Dataset &data, Values &values)
{
    const std::vector<std::vector<char>> variants = {
        {'C'}, {'M'}, {'H'}, {'M', 'C'}, {'H', 'M', 'C'}};
    std::vector<double> overall(variants.size(), 0.0);
    std::vector<int> wins(variants.size(), 0);
    forEachSensitivePair(data, [&](const std::string &,
                                   const std::string &,
                                   const models::SampleSet &set) {
        std::size_t best = 0;
        std::vector<double> errors;
        for (std::size_t v = 0; v < variants.size(); ++v) {
            models::MosmodelConfig config;
            config.inputs = variants[v];
            models::Mosmodel model(config);
            errors.push_back(models::evaluateModel(model, set).maxError);
            overall[v] = std::max(overall[v], errors[v]);
            if (errors[v] < errors[best])
                best = v;
        }
        ++wins[best];
    });

    TextTable table;
    table.setHeader({"inputs", "overall max error", "pairs where best"});
    for (std::size_t v = 0; v < variants.size(); ++v) {
        std::string name(variants[v].begin(), variants[v].end());
        table.addRow({name, formatPercent(overall[v]),
                      std::to_string(wins[v])});
        values.set(name, overall[v]);
    }
    printTable(table);
}

void
printLassoAblation(const exp::Dataset &data, Values &values)
{
    TextTable table;
    table.setHeader({"lambda/lambda_max", "CV max error", "fit max error",
                     "mean active coeffs"});
    auto row = [&](const std::string &label,
                   const models::MosmodelConfig &config) {
        double cv_worst = 0.0, fit_worst = 0.0, active_sum = 0.0;
        int pairs = 0;
        forEachSensitivePair(data, [&](const std::string &,
                                       const std::string &,
                                       const models::SampleSet &set) {
            models::Mosmodel model(config);
            fit_worst = std::max(fit_worst,
                                 models::evaluateModel(model, set).maxError);
            active_sum +=
                static_cast<double>(model.numActiveCoefficients());
            ++pairs;
            cv_worst = std::max(
                cv_worst,
                models::crossValidateMaxError(
                    [&] { return std::make_unique<models::Mosmodel>(config); },
                    set));
        });
        table.addRow({label, formatPercent(cv_worst),
                      formatPercent(fit_worst),
                      formatDouble(active_sum / pairs, 1)});
        return cv_worst;
    };
    for (double ratio : {0.0, 1e-5, 1e-3, 1e-2, 0.1, 0.5}) {
        models::MosmodelConfig config;
        config.autoLambda = false; // study fixed strengths
        config.lasso.lambdaRatio = ratio;
        values.set("cv." + formatDouble(ratio, 5),
                   row(formatDouble(ratio, 5), config));
    }
    // The default: the ratio chosen per workload by internal CV.
    values.set("cv.auto", row("auto (default)", {}));
    printTable(table);
}

void
printHeuristicsAblation(const exp::Dataset &data, Values &values)
{
    struct Family
    {
        const char *name;
        const char *prefix;
    };
    const Family families[] = {{"growing window", "grow-"},
                               {"random window", "rand-"},
                               {"sliding window", "slide-"}};
    TextTable table;
    table.setHeader({"heuristic", "samples/pair", "mean C spread",
                     "train-on-family max error"});
    for (const auto &family : families) {
        double spread_sum = 0.0, worst = 0.0;
        int pairs = 0;
        std::size_t samples_per_pair = 0;
        forEachSensitivePair(data, [&](const std::string &,
                                       const std::string &,
                                       const models::SampleSet &full) {
            models::SampleSet subset;
            subset.all4k = full.all4k;
            subset.all2m = full.all2m;
            subset.all1g = full.all1g;
            double min_c = 1e300, max_c = 0.0;
            for (const auto &sample : full.samples) {
                if (sample.layoutName.rfind(family.prefix, 0) == 0) {
                    subset.samples.push_back(sample);
                    min_c = std::min(min_c, sample.c);
                    max_c = std::max(max_c, sample.c);
                }
            }
            samples_per_pair = subset.samples.size();
            spread_sum += (max_c - min_c) / std::max(full.all4k.c, 1.0);

            // Anchor every family with the uniform endpoints, so each
            // can at least interpolate.
            subset.samples.push_back(full.all4k);
            subset.samples.push_back(full.all2m);
            models::Mosmodel model;
            model.fit(subset);
            stats::Vector measured, predicted;
            for (const auto &sample : full.samples) {
                measured.push_back(sample.r);
                predicted.push_back(model.predict(sample));
            }
            worst = std::max(worst,
                             stats::maxAbsRelError(measured, predicted));
            ++pairs;
        });
        table.addRow({family.name, std::to_string(samples_per_pair),
                      formatDouble(spread_sum / pairs, 3),
                      formatPercent(worst)});
        values.set(std::string("error.") + family.prefix, worst);
        values.set(std::string("spread.") + family.prefix,
                   spread_sum / pairs);
    }
    printTable(table);
}

void
printWalkersAblation(const exp::Dataset &, Values &values)
{
    workloads::GupsParams params = workloads::gupsSmall();
    params.updates = 120000;
    workloads::GupsWorkload workload(params);
    auto trace = workload.generateTrace();
    auto alloc_config = workload.baselineAllocConfig(); // all 4KB

    TextTable table;
    table.setHeader({"walkers", "runtime R", "walk cycles C", "C / R",
                     "queue cycles", "Basu beta = R - C"});
    for (unsigned walkers : {1u, 2u}) {
        cpu::PlatformSpec spec = cpu::broadwell();
        spec.mmu.numWalkers = walkers;
        auto result = cpu::simulateRun(spec, alloc_config, trace);
        auto r = static_cast<double>(result.runtimeCycles);
        auto c = static_cast<double>(result.walkCycles);
        auto queue = static_cast<double>(result.walkerQueueCycles);
        auto mega = [](double cycles) {
            return formatDouble(cycles / 1e6, 2) + "M";
        };
        table.addRow({std::to_string(walkers), mega(r), mega(c),
                      formatDouble(c / r, 3), mega(queue), mega(r - c)});
        std::string suffix = "." + std::to_string(walkers);
        values.set("R" + suffix, r);
        values.set("C/R" + suffix, c / r);
        values.set("queue" + suffix, queue);
    }
    printTable(table);
}

/** Fraction of runtime saved versus the 4KB baseline. */
double
gain(const cpu::RunResult &base, const cpu::RunResult &result)
{
    return (static_cast<double>(base.runtimeCycles) -
            static_cast<double>(result.runtimeCycles)) /
           static_cast<double>(base.runtimeCycles);
}

/** An interception-ablation table: the 4KB baseline, then each
 *  hugepage backing with its gain over it. */
void
printBackings(
    const std::vector<std::pair<std::string, cpu::RunResult>> &runs)
{
    TextTable table;
    table.setHeader({"backing", "runtime [Mcyc]", "TLB misses", "vs 4KB"});
    const cpu::RunResult &base = runs.front().second;
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &[name, result] = runs[i];
        table.addRow({name, formatDouble(result.runtimeCycles / 1e6, 2),
                      std::to_string(result.tlbMisses),
                      i == 0 ? "-" : formatPercent(gain(base, result))});
    }
    printTable(table);
}

/**
 * Mosalloc's full interception against a libhugetlbfs-style
 * morecore-only hook (Sections V-A and V-C), on two victims:
 *  - graph500 allocates with direct mmap, which libhugetlbfs never
 *    sees, so its "all 2MB" configuration changes nothing;
 *  - malloc churn: under multi-arena glibc some requests escape
 *    morecore to mmap-backed arenas and get 4KB pages.
 */
void
printInterceptionAblation(const exp::Dataset &, Values &values)
{
    cpu::PlatformSpec platform = cpu::sandyBridge();

    workloads::Graph500Params g500;
    g500.numVertices = 1u << 19;
    g500.refBudget = 250000;
    workloads::Graph500Workload graph(g500);
    auto graph_trace = graph.generateTrace();
    Bytes anon_size = graph.anonPoolSize();
    auto g_base = cpu::simulateRun(platform, graph.baselineAllocConfig(),
                                   graph_trace);
    auto g_mos = cpu::simulateRun(
        platform,
        graph.makeAllocConfig(alloc::MosaicLayout::uniform(
            anon_size, alloc::PageSize::Page2M)),
        graph_trace);
    auto g_lib = cpu::simulateRun(
        platform,
        alloc::libhugetlbfsStyleConfig(graph.heapPoolSize(),
                                       alloc::PageSize::Page2M, anon_size),
        graph_trace);
    std::printf("graph500/2GB (allocates with mmap):\n");
    printBackings({{"4KB baseline", g_base},
                   {"mosalloc all-2MB", g_mos},
                   {"libhugetlbfs-style 2MB", g_lib}});

    // Thousands of sizeable mallocs, as an omnetpp-style message pool
    // makes: under multi-arena glibc a slice of them lands in
    // mmap-backed arenas that the morecore hook never sees.
    const Bytes churn_heap = 256_MiB;
    auto churn = [](const alloc::MosallocConfig &config,
                    std::uint64_t *escaped) {
        alloc::Mosalloc allocator(config);
        Rng rng(42);
        trace::MemoryTrace trace;
        std::vector<VirtAddr> blocks;
        const Bytes block = 96_KiB;
        for (int i = 0; i < 1500; ++i) {
            VirtAddr p = allocator.malloc(block);
            if (p != 0)
                blocks.push_back(p);
        }
        for (int i = 0; i < 220000; ++i) {
            VirtAddr base = blocks[rng.nextBounded(blocks.size())];
            trace.add(base + 8 * rng.nextBounded(block / 8), 3, false);
        }
        if (escaped)
            *escaped = allocator.stats().directMmapAllocs;
        return cpu::simulateRun(cpu::sandyBridge(), config, trace);
    };
    alloc::MosallocConfig base_cfg;
    base_cfg.heapLayout = alloc::MosaicLayout(churn_heap);
    base_cfg.anonLayout = alloc::MosaicLayout(256_MiB);
    alloc::MosallocConfig mos_cfg = base_cfg;
    mos_cfg.heapLayout =
        alloc::MosaicLayout::uniform(churn_heap, alloc::PageSize::Page2M);
    std::uint64_t escaped = 0;
    auto c_base = churn(base_cfg, nullptr);
    auto c_mos = churn(mos_cfg, nullptr);
    auto c_lib = churn(alloc::libhugetlbfsStyleConfig(
                           churn_heap, alloc::PageSize::Page2M, 256_MiB),
                       &escaped);
    std::printf("malloc churn (1500 x 96 KiB message blocks):\n");
    printBackings({{"4KB baseline", c_base},
                   {"mosalloc all-2MB", c_mos},
                   {"libhugetlbfs-style 2MB (" + std::to_string(escaped) +
                        " arena escapes)",
                    c_lib}});

    values.set("graph500_gain.mosalloc", gain(g_base, g_mos));
    values.set("graph500_gain.libhugetlbfs", gain(g_base, g_lib));
    values.set("churn.arena_escapes", static_cast<double>(escaped));
    values.set("churn_tlb_misses.mosalloc",
               static_cast<double>(c_mos.tlbMisses));
    values.set("churn_tlb_misses.libhugetlbfs",
               static_cast<double>(c_lib.tlbMisses));
}

/**
 * The paper's models abstract everything outside the virtual-memory
 * subsystem into fitted coefficients (Section IV), so a model fitted
 * on a machine without an L2 stream prefetcher says little about one
 * with it.
 */
void
printPrefetcherAblation(const exp::Dataset &, Values &values)
{
    workloads::Graph500Params params;
    params.numVertices = 1u << 19;
    params.refBudget = 300000;
    workloads::Graph500Workload workload(params);
    auto trace = workload.generateTrace();

    cpu::PlatformSpec base = cpu::sandyBridge();
    cpu::PlatformSpec prefetching = base;
    prefetching.hierarchy.prefetcher.enabled = true;
    auto plain_set = simulateLayouts(workload, base, trace);
    auto pf_set = simulateLayouts(workload, prefetching, trace);

    models::Mosmodel on_plain, on_pf;
    double plain = models::evaluateModel(on_plain, plain_set).maxError;
    double native_pf = models::evaluateModel(on_pf, pf_set).maxError;
    stats::Vector measured, predicted;
    for (const auto &sample : pf_set.samples) {
        measured.push_back(sample.r);
        predicted.push_back(on_plain.predict(sample));
    }
    double cross = stats::maxAbsRelError(measured, predicted);

    TextTable table;
    table.setHeader({"scenario", "R(4KB) [Mcyc]", "max model error"});
    table.addRow({"fit & predict, no prefetcher",
                  formatDouble(plain_set.all4k.r / 1e6, 2),
                  formatPercent(plain)});
    table.addRow({"fit & predict, with prefetcher",
                  formatDouble(pf_set.all4k.r / 1e6, 2),
                  formatPercent(native_pf)});
    table.addRow({"fit w/o, predict with (cross-machine)",
                  formatDouble(pf_set.all4k.r / 1e6, 2),
                  formatPercent(cross)});
    printTable(table);
    values.set("native.plain", plain);
    values.set("native.prefetching", native_pf);
    values.set("cross_machine", cross);
}

// ---- The artifacts and their claims ------------------------------------

const Artifact kArtifacts[] = {
    {"Tables 3-5 — platforms, TLB configurations and benchmarks",
     printConfiguration,
     {}},
    {"Figure 2 — maximal error of old and new models",
     printFigure2,
     {{"fig2.old-models-fail",
       "each preexisting linear model's worst error is >= 15% (paper: "
       "25-192%)",
       [](Values &v) {
           return std::min({v["pham"], v["basu"], v["gandhi"], v["alam"],
                            v["yaniv"]}) >= 0.15;
       },
       0},
      {"fig2.yaniv-best-old",
       "Yaniv is the best preexisting model",
       [](Values &v) {
           return v["yaniv"] < std::min({v["pham"], v["basu"], v["gandhi"],
                                         v["alam"]});
       },
       0},
      {"fig2.degree-order",
       "worst errors order as poly1 >= poly2 >= poly3 >= Mosmodel",
       [](Values &v) {
           return v["poly1"] >= v["poly2"] && v["poly2"] >= v["poly3"] &&
                  v["poly3"] >= v["mosmodel"];
       },
       0},
      {"fig2.mosmodel-below-3pct",
       "Mosmodel's worst error is below 3% (paper: 2.9%)",
       [](Values &v) { return v["mosmodel"] < 0.03; },
       0}}},
    {"Figure 3 — spec06/mcf on SandyBridge: runtime vs walk cycles",
     printFigure3,
     {{"fig3.mosmodel-within-2pct",
       "Mosmodel tracks mcf's curve within 2%",
       [](Values &v) { return v["mosmodel"] < 0.02; },
       0},
      {"fig3.linear-fails",
       "the linear model misses mcf's curve where Mosmodel does not: "
       "Mosmodel's worst error is below Yaniv's",
       [](Values &v) { return v["mosmodel"] < v["yaniv"]; },
       0}}},
    {"Figure 5 — per-benchmark maximal absolute prediction errors",
     printFigure5,
     {{"fig5.mosmodel-below-2pct",
       "Mosmodel's worst error is below 2% on every SandyBridge "
       "benchmark",
       [](Values &v) { return v["mosmodel.SandyBridge"] < 0.02; },
       0}}},
    {"Figure 6 — per-benchmark geomean absolute prediction errors",
     printFigure6,
     {{"fig6.mosmodel-geomean-below-1pct",
       "Mosmodel's geomean error is below 1% on every pair (paper: "
       "typically below 0.5%)",
       [](Values &v) { return v["mosmodel"] < 0.01; },
       0}}},
    {"Figure 7 — Basu model vs measured runtimes, gapbs/sssp-twitter on "
     "SandyBridge",
     printFigure7,
     {{"fig7.basu-optimistic",
       "Basu, believed pessimistic, predicts >= 42% below a measured "
       "runtime somewhere",
       [](Values &v) { return v["optimism.grid"] >= 0.42; },
       0},
      {"fig7.basu-optimistic-sssp",
       "Basu predicts >= 42% below a measured runtime of SandyBridge "
       "gapbs/sssp-twitter",
       [](Values &v) { return v["optimism.sssp"] >= 0.42; },
       2}}},
    {"Figure 8 — linear regression describes spec06/omnetpp well",
     printFigure8,
     {{"fig8.omnetpp-linear",
       "a linear regression describes omnetpp better than mcf: poly1's "
       "worst error on omnetpp is below its worst on mcf",
       [](Values &v) { return v["poly1.omnetpp"] < v["poly1.mcf"]; },
       7}}},
    {"Figure 9 — spec17/xalancbmk_s on Broadwell: linear slope > 1",
     printFigure9,
     {{"fig9.alpha-above-1",
       "on Broadwell xalancbmk a walk cycle costs more than a runtime "
       "cycle: alpha > 1",
       [](Values &v) { return v["alpha"] > 1.0; },
       1},
      {"fig9.alpha-above-1-nominal-l3",
       "alpha > 1 also with the nominal 60MiB L3",
       [](Values &v) { return v["alpha.nominal_l3"] > 1.0; },
       1}}},
    {"Table 7 — spec17/xalancbmk_s counters, 4KB vs 2MB (Broadwell)",
     printTable7,
     {{"table7.2mb-no-tlb-misses",
       "2MB pages eliminate xalancbmk's TLB misses: fewer than 1% of "
       "the 4KB count",
       [](Values &v) {
           return v["tlb_misses.2m"] < 0.01 * v["tlb_misses.4k"];
       },
       0},
      {"table7.walker-l3-traffic",
       "walker L3 loads are higher under 4KB pages",
       [](Values &v) { return v["walker_l3.4k"] > v["walker_l3.2m"]; },
       0},
      {"table7.program-l3-pollution",
       "program L3 loads are higher under 4KB pages (walker pollution)",
       [](Values &v) { return v["program_l3.4k"] > v["program_l3.2m"]; },
       0}}},
    {"Figure 10 — gups/16GB on SandyBridge: linear vs poly2",
     printFigure10,
     {{"fig10.poly2-beats-linear",
       "gups/16GB needs a parabola: poly2's worst error is below "
       "poly1's",
       [](Values &v) { return v["poly2"] < v["poly1"]; },
       0},
      {"fig10.poly2-within-2pct",
       "poly2 tracks gups/16GB within 2%",
       [](Values &v) { return v["poly2"] < 0.02; },
       8}}},
    {"Section VII-D case study and Figure 11 — predicting the all-1GB "
     "layout",
     printCaseStudy,
     {{"fig11.mosmodel-within-1pct",
       "Mosmodel predicts SandyBridge pr-twitter's 1GB run within 1%",
       [](Values &v) { return v["mosmodel"] < 0.01; },
       0},
      {"fig11.yaniv-misses",
       "Yaniv misses SandyBridge pr-twitter's 1GB run by >= 10%",
       [](Values &v) { return v["yaniv"] >= 0.10; },
       3}}},
    {"Table 6 — maximal cross-validation errors",
     printTable6,
     {{"table6.mosmodel-lowest-cv",
       "Mosmodel has the lowest cross-validation maximum",
       [](Values &v) {
           return v["cv.mosmodel"] <
                  std::min({v["cv.poly1"], v["cv.poly2"], v["cv.poly3"]});
       },
       0},
      {"table6.cv-exceeds-fit",
       "cross-validation errors are worse than fit-on-all for every new "
       "model",
       [](Values &v) {
           return v["cv.poly1"] >= v["fit.poly1"] &&
                  v["cv.poly2"] >= v["fit.poly2"] &&
                  v["cv.poly3"] >= v["fit.poly3"] &&
                  v["cv.mosmodel"] >= v["fit.mosmodel"];
       },
       6}}},
    {"Table 8 — single-input R^2 of C, M, H",
     printTable8,
     {{"table8.h-weakest",
       "C and M explain runtime better than H: mean R^2 of each is "
       "above H's",
       [](Values &v) {
           return v["mean_r2.C"] > v["mean_r2.H"] &&
                  v["mean_r2.M"] > v["mean_r2.H"];
       },
       0}}},
    {"Workload selection — TLB sensitivity per workload and platform",
     printSensitivity,
     {{"sensitivity.tlb-growth",
       "bigger TLBs shrink sensitivity: SandyBridge is more sensitive "
       "than Broadwell on most workloads",
       [](Values &v) { return v["trend.hits"] > v["trend.workloads"] / 2; },
       0},
      {"sensitivity.bfs-road-broadwell",
       "gapbs/bfs-road drops below the 5% bar on Broadwell",
       [](Values &v) { return v["bfs_road.Broadwell"] < 0.05; },
       4}}},
    {"Ablation — polynomial degree sweep (poly1..poly5)",
     printDegreeAblation,
     {{"degree.cv-lowest-at-3",
       "the cross-validation maximum is lowest at degree 3, the paper's "
       "pick",
       [](Values &v) {
           return v["cv.degree3"] <=
                  std::min({v["cv.degree1"], v["cv.degree2"],
                            v["cv.degree4"], v["cv.degree5"]});
       },
       9}}},
    {"Ablation — Mosmodel input subsets",
     printInputsAblation,
     {{"inputs.hmc-best",
       "the full (H, M, C) model has the lowest worst-case error",
       [](Values &v) {
           return v["HMC"] < std::min({v["C"], v["M"], v["H"], v["MC"]});
       },
       0},
      {"inputs.c-best-single",
       "C is the strongest single input",
       [](Values &v) { return v["C"] < std::min(v["M"], v["H"]); },
       0},
      {"inputs.h-weakest-single",
       "H is the weakest single input",
       [](Values &v) { return v["H"] > std::max(v["C"], v["M"]); },
       10}}},
    {"Ablation — Lasso regularization strength",
     printLassoAblation,
     {{"lasso.auto-lowest-cv",
       "the per-workload lambda (the default) has the lowest "
       "cross-validation maximum",
       [](Values &v) {
           return v["cv.auto"] <
                  std::min({v["cv.0.00000"], v["cv.0.00001"],
                            v["cv.0.00100"], v["cv.0.01000"],
                            v["cv.0.10000"], v["cv.0.50000"]});
       },
       0},
      {"lasso.zero-overfits",
       "lambda = 0 overfits: its cross-validation maximum is the "
       "highest",
       [](Values &v) {
           return v["cv.0.00000"] >
                  std::max({v["cv.0.00001"], v["cv.0.00100"],
                            v["cv.0.01000"], v["cv.0.10000"],
                            v["cv.0.50000"], v["cv.auto"]});
       },
       0}}},
    {"Ablation — layout-heuristic sample diversity",
     printHeuristicsAblation,
     {{"heuristics.sliding-best",
       "sliding-window samples generalize best",
       [](Values &v) {
           return v["error.slide-"] <
                  std::min(v["error.grow-"], v["error.rand-"]);
       },
       0},
      {"heuristics.random-least-diverse",
       "random windows have the least walk-cycle diversity",
       [](Values &v) {
           return v["spread.rand-"] <
                  std::min(v["spread.grow-"], v["spread.slide-"]);
       },
       0}}},
    {"Ablation — 1 vs 2 hardware page walkers (gups)",
     printWalkersAblation,
     {{"walkers.c-exceeds-r",
       "with two walkers C exceeds R (a negative Basu beta), which one "
       "walker cannot do",
       [](Values &v) { return v["C/R.1"] <= 1.0 && v["C/R.2"] > 1.0; },
       0},
      {"walkers.runtime-improves",
       "two walkers cut runtime and queueing",
       [](Values &v) {
           return v["R.2"] < v["R.1"] && v["queue.2"] < v["queue.1"];
       },
       0}}},
    {"Ablation — full interception (Mosalloc) vs morecore-only "
     "(libhugetlbfs)",
     printInterceptionAblation,
     {{"interception.mmap-unhooked",
       "a morecore-only hook gains ~0% (under 1%) on mmap-based graph500, "
       "where Mosalloc gains",
       [](Values &v) {
           return v["graph500_gain.libhugetlbfs"] < 0.01 &&
                  v["graph500_gain.mosalloc"] >
                      v["graph500_gain.libhugetlbfs"];
       },
       0},
      {"interception.arena-escapes",
       "it leaks malloc churn to 4KB arena pages: arena escapes, and "
       "more TLB misses than Mosalloc",
       [](Values &v) {
           return v["churn.arena_escapes"] > 0 &&
                  v["churn_tlb_misses.libhugetlbfs"] >
                      v["churn_tlb_misses.mosalloc"];
       },
       0}}},
    {"Ablation — models across machines: L2 stream prefetcher on/off",
     printPrefetcherAblation,
     {{"prefetcher.cross-machine-worse",
       "runtime models are processor-specific: the cross-machine error "
       "exceeds both native fits",
       [](Values &v) {
           return v["cross_machine"] >
                  std::max(v["native.plain"], v["native.prefetching"]);
       },
       0}}},
};

/**
 * The dataset must hold every pair an artifact plots, and every pair
 * it holds must have its reference layouts; else the first pair that
 * fails is named in one line.
 */
void
requireCoverage(const exp::Dataset &data)
{
    for (const Pair &pair : kNeeded)
        data.sampleSetResult(pair.platform, pair.workload).okOrThrow();
    for (const auto &platform : data.platforms())
        for (const auto &workload : data.workloads())
            if (data.has(platform, workload))
                data.sampleSetResult(platform, workload).okOrThrow();
}

int
paperMain(int argc, char **argv)
{
    cli::parseArgs("mosaic_paper", argc, argv, {});
    const auto data = exp::Dataset::load(exp::defaultDatasetPath());
    requireCoverage(data);

    struct Outcome
    {
        const Claim *claim;
        bool holds;
        std::string values;
    };
    std::vector<Outcome> outcomes;
    for (const auto &artifact : kArtifacts) {
        std::printf("=== %s ===\n\n", artifact.title);
        Values values;
        artifact.print(data, values);
        std::printf("\n");
        for (const auto &claim : artifact.claims) {
            bool holds = claim.holds(values);
            outcomes.push_back({&claim, holds, values.takeRead()});
        }
    }

    std::printf("=== Claims (deviations: EXPERIMENTS.md \"Known "
                "deviations\") ===\n\n");
    int reproduced = 0, deviations = 0, differing = 0;
    for (const auto &[claim, holds, values] : outcomes) {
        std::string recorded =
            claim->deviation == 0
                ? "reproduced"
                : "deviation " + std::to_string(claim->deviation);
        const char *outcome = holds ? "reproduced" : "NOT REPRODUCED";
        std::printf("%-14s  %-34s %s [%s]%s%s\n", outcome, claim->id,
                    claim->statement, values.c_str(),
                    claim->deviation ? "; recorded " : "",
                    claim->deviation ? recorded.c_str() : "");
        if (holds != (claim->deviation == 0)) {
            ++differing;
            std::fprintf(stderr,
                         "mosaic_paper: claim %s is %s, recorded %s [%s]\n",
                         claim->id, outcome, recorded.c_str(),
                         values.c_str());
        } else {
            ++(holds ? reproduced : deviations);
        }
    }
    std::printf("\n%zu claims: %d reproduced, %d not reproduced as "
                "recorded, %d differ from their recorded verdict\n",
                outcomes.size(), reproduced, deviations, differing);
    return differing == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    return mosaic::cli::runGuarded(
        "mosaic_paper", [&] { return paperMain(argc, argv); });
}
