/**
 * @file
 * The campaign workloads. `campaign` is the untraced end-to-end run:
 * CampaignRunner::runReport exactly as mosaic_campaign calls it, then a
 * Mosmodel fit per pair. `cells` is the traced run: the same cells
 * and fits through the layers' public functions with a span around
 * each call, as many worker threads wide as the campaign scheduler.
 */

#include <atomic>
#include <cstdio>
#include <optional>
#include <thread>

#include "bench.hh"
#include "cpu/system.hh"
#include "experiments/dataset.hh"
#include "layouts/heuristics.hh"
#include "mosalloc/mosalloc.hh"
#include "sampling/extrapolate.hh"
#include "sampling/sample_plan.hh"
#include "support/fault_injector.hh"
#include "support/metrics.hh"
#include "trace/interval_signature.hh"
#include "trace/miss_profile.hh"
#include "workloads/registry.hh"

namespace perfbench
{

using namespace mosaic;

namespace
{

/** Whether @p dataset holds the uniform reference runs sampleSet()
 *  requires for the pair (a failed cell can remove one). */
bool
fittable(const exp::Dataset &dataset, const std::string &platform,
         const std::string &workload)
{
    bool has4k = false;
    bool has2m = false;
    for (const auto &record : dataset.runs(platform, workload)) {
        has4k |= record.layout == exp::layoutAll4k;
        has2m |= record.layout == exp::layoutAll2m;
    }
    return has4k && has2m;
}

/** One workload's layout-independent inputs, shared by its cells. */
struct Prepared
{
    std::unique_ptr<workloads::Workload> workload;
    trace::MemoryTrace trace;
    std::vector<layouts::NamedLayout> layouts;
    std::optional<sampling::SamplePlan> plan;
    std::uint64_t warmupRecords = 0;
    std::string error;
};

struct CellResult
{
    std::optional<cpu::RunResult> result;
    double estErr = 0.0;
    std::string error;
};

/** Columns of the per-cell rows: the cell index (the id of its spans),
 *  its key, the RunResult fields the dataset CSV carries under their
 *  RunResult names, then replay accounting. */
const char *kCellsHeader =
    "index,platform,workload,layout,runtimeCycles,tlbHitsL2,tlbMisses,"
    "walkCycles,instructions,memoryRefs,l1TlbHits,walkerQueueCycles,"
    "progL1dLoads,progL2Loads,progL3Loads,progDramLoads,walkL1dLoads,"
    "walkL2Loads,walkL3Loads,walkDramLoads,traceRecords,"
    "recordsReplayed,warmupRecords,est_err\n";

std::string
cellRow(std::size_t index, const std::string &platform,
        const std::string &workload, const std::string &layout,
        const cpu::RunResult &r, const Prepared &p, double est_err)
{
    const std::uint64_t fields[] = {
        r.runtimeCycles,  r.tlbHitsL2,         r.tlbMisses,
        r.walkCycles,     r.instructions,      r.memoryRefs,
        r.l1TlbHits,      r.walkerQueueCycles, r.progL1dLoads,
        r.progL2Loads,    r.progL3Loads,       r.progDramLoads,
        r.walkL1dLoads,   r.walkL2Loads,       r.walkL3Loads,
        r.walkDramLoads,  p.trace.size(),
        p.plan ? p.plan->recordsReplayed : p.trace.size(),
        p.warmupRecords};
    std::string row = std::to_string(index) + "," + platform + "," +
                      workload + "," + layout;
    for (std::uint64_t field : fields)
        row += "," + std::to_string(field);
    char buf[32];
    std::snprintf(buf, sizeof buf, ",%.6f\n", est_err);
    return row + buf;
}

void
prepareWorkload(Prepared &p, const std::string &label,
                const exp::CampaignConfig &config, Tracer &tracer,
                unsigned lane, std::uint64_t id)
{
    p.workload = workloads::makeWorkload(label);
    {
        Tracer::Span span(tracer, lane, "workloads.generate_trace", id);
        p.trace = p.workload->generateTrace();
        span.setWork(p.trace.size());
    }
    {
        Tracer::Span span(tracer, lane, "layouts.build", id);
        trace::MissProfile profile(p.trace, p.workload->primaryPoolBase(),
                                   p.workload->primaryPoolSize());
        p.layouts = layouts::paperCampaignLayouts(
            p.workload->primaryPoolSize(), profile, config.seed);
        if (config.include1g) {
            p.layouts.push_back(layouts::uniformLayout(
                p.workload->primaryPoolSize(), alloc::PageSize::Page1G));
        }
    }
    if (!config.sampling.enabled())
        return;
    std::vector<trace::IntervalSignature> signatures;
    {
        Tracer::Span span(tracer, lane, "trace.signatures", id);
        signatures = trace::extractIntervalSignatures(
            p.trace, config.sampling.intervalRecords);
    }
    Tracer::Span span(tracer, lane, "sampling.plan", id);
    p.plan = sampling::buildSamplePlanFromSignatures(
        signatures, p.trace.size(), config.sampling);
    for (const auto &segment : p.plan->segments)
        p.warmupRecords += segment.measureBegin - segment.warmupBegin;
}

void
simulateCell(const Prepared &p, const cpu::PlatformSpec &platform,
             const layouts::NamedLayout &named, const vm::OsConfig &os,
             const SimContext &context, Tracer &tracer, unsigned lane,
             std::uint64_t id, CellResult &out)
{
    std::optional<alloc::Mosalloc> allocator;
    std::optional<cpu::System> system;
    {
        Tracer::Span span(tracer, lane, "cpu.machine_build", id);
        allocator.emplace(p.workload->makeAllocConfig(named.layout));
        system.emplace(platform, *allocator, os, context);
    }
    if (!p.plan) {
        Tracer::Span span(tracer, lane, "cpu.replay", id, p.trace.size());
        out.result = system->run(p.trace);
        return;
    }
    std::vector<cpu::RunResult> deltas;
    {
        Tracer::Span span(tracer, lane, "sampling.replay", id,
                          p.plan->recordsReplayed);
        deltas = system->runSampled(p.trace, p.plan->segments);
    }
    Tracer::Span span(tracer, lane, "sampling.extrapolate", id);
    sampling::SampledEstimate estimate =
        sampling::extrapolate(*p.plan, deltas, p.trace);
    out.result = estimate.estimate;
    out.estErr = estimate.estErr;
}

/** Run @p body(lane) on lanes 1..jobs and join them all. */
template <typename Body>
void
runLanes(unsigned jobs, Body body)
{
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < jobs; ++i)
        pool.emplace_back(body, i + 1);
    for (auto &thread : pool)
        thread.join();
}

} // namespace

FitSummary
fitPairs(const exp::Dataset &dataset, std::string &predictions,
         Tracer *tracer, std::string *fits,
         std::map<PairKey, std::unique_ptr<models::Mosmodel>> *keep)
{
    FitSummary summary;
    char buf[512];
    std::uint64_t ordinal = 0;
    for (const auto &platform : dataset.platforms()) {
        for (const auto &workload : dataset.workloads()) {
            if (!dataset.has(platform, workload))
                continue;
            ++summary.attempted;
            const std::uint64_t pair = ordinal++;
            if (!fittable(dataset, platform, workload)) {
                ++summary.failed;
                std::fprintf(stderr, "fit %s/%s: missing references\n",
                             platform.c_str(), workload.c_str());
                continue;
            }
            models::SampleSet set = dataset.sampleSet(platform, workload);
            auto model = std::make_unique<models::Mosmodel>();
            const std::uint64_t fits_before =
                metrics().counter("lasso/fits");
            const std::uint64_t iterations_before =
                metrics().counter("lasso/iterations");
            try {
                std::optional<Tracer::Span> span;
                if (tracer)
                    span.emplace(*tracer, 0, "models.fit", pair);
                model->fit(set);
            } catch (const std::exception &e) {
                ++summary.failed;
                std::fprintf(stderr, "fit %s/%s: %s\n", platform.c_str(),
                             workload.c_str(), e.what());
                continue;
            }
            if (fits) {
                std::snprintf(
                    buf, sizeof buf, "%s,%s,%llu,%llu\n",
                    platform.c_str(), workload.c_str(),
                    static_cast<unsigned long long>(
                        metrics().counter("lasso/fits") - fits_before),
                    static_cast<unsigned long long>(
                        metrics().counter("lasso/iterations") -
                        iterations_before));
                *fits += buf;
            }
            for (const auto &record : dataset.runs(platform, workload)) {
                std::snprintf(buf, sizeof buf, "%s,%s,%s,%.17g\n",
                              platform.c_str(), workload.c_str(),
                              record.layout.c_str(),
                              model->predict(exp::toSample(record)));
                predictions += buf;
            }
            if (keep)
                (*keep)[{platform, workload}] = std::move(model);
        }
    }
    return summary;
}

double
timePredictions(
    const exp::Dataset &dataset,
    const std::map<PairKey, std::unique_ptr<models::Mosmodel>> &fitted,
    Tracer &tracer)
{
    // Batched: one call is tens of nanoseconds, below what a span per
    // call could resolve.
    std::vector<std::pair<const models::Mosmodel *, models::Sample>> points;
    for (const auto &[key, model] : fitted) {
        for (const auto &record : dataset.runs(key.first, key.second))
            points.push_back({model.get(), exp::toSample(record)});
    }
    constexpr std::uint64_t kRounds = 20;
    double checksum = 0.0;
    Tracer::Span span(tracer, 0, "models.predict", 0,
                      kRounds * points.size());
    for (std::uint64_t round = 0; round < kRounds; ++round) {
        for (const auto &[model, point] : points)
            checksum += model->predict(point);
    }
    return checksum;
}

CellRun
driveCells(const std::vector<GridRow> &grid,
           const exp::CampaignConfig &config, Tracer &tracer)
{
    CellRun run;
    const auto start = Clock::now();
    std::vector<Prepared> prepared(grid.size());
    std::atomic<std::size_t> next_workload{0};
    {
        Tracer::Span span(tracer, 0, "experiments.prepare", 0);
        runLanes(config.jobs, [&](unsigned lane) {
            for (std::size_t w; (w = next_workload++) < grid.size();) {
                try {
                    prepareWorkload(prepared[w], grid[w].first, config,
                                    tracer, lane, w);
                } catch (const std::exception &e) {
                    prepared[w].error = e.what();
                }
            }
        });
    }
    run.prepareSeconds = secondsSince(start);

    // The campaign's canonical cell order: workloads, then platforms,
    // then layouts in builder order.
    struct Cell
    {
        std::size_t workload;
        const cpu::PlatformSpec *platform;
        const layouts::NamedLayout *layout;
    };
    std::vector<Cell> cells;
    for (std::size_t w = 0; w < grid.size(); ++w) {
        if (!prepared[w].error.empty()) {
            std::fprintf(stderr, "prepare %s failed: %s\n",
                         grid[w].first.c_str(), prepared[w].error.c_str());
            ++run.prepareFailures;
            continue;
        }
        for (const auto &platform : grid[w].second) {
            for (const auto &named : prepared[w].layouts)
                cells.push_back({w, &platform, &named});
        }
    }

    std::vector<CellResult> results(cells.size());
    std::vector<MetricsRegistry> shards(config.jobs);
    std::atomic<std::size_t> next_cell{0};
    const auto cell_start = Clock::now();
    {
        Tracer::Span span(tracer, 0, "experiments.cells", 0);
        runLanes(config.jobs, [&](unsigned lane) {
            SimContext context(shards[lane - 1], faults(), config.seed,
                               lane - 1);
            for (std::size_t c; (c = next_cell++) < cells.size();) {
                const Cell &cell = cells[c];
                Tracer::Span span(tracer, lane, "experiments.cell", c);
                try {
                    simulateCell(prepared[cell.workload], *cell.platform,
                                 *cell.layout, config.os, context, tracer,
                                 lane, c, results[c]);
                } catch (const std::exception &e) {
                    results[c].error = e.what();
                }
            }
        });
    }
    run.cellSeconds = secondsSince(cell_start);

    run.cells = cells.size();
    run.rows = kCellsHeader;
    for (std::size_t c = 0; c < cells.size(); ++c) {
        const Cell &cell = cells[c];
        const std::string &label = grid[cell.workload].first;
        if (!results[c].result) {
            ++run.cellFailures;
            std::fprintf(stderr, "cell %s/%s/%s failed: %s\n",
                         cell.platform->name.c_str(), label.c_str(),
                         cell.layout->name.c_str(),
                         results[c].error.c_str());
            continue;
        }
        run.rows += cellRow(c, cell.platform->name, label,
                            cell.layout->name, *results[c].result,
                            prepared[cell.workload], results[c].estErr);
        run.dataset.add({cell.platform->name, label, cell.layout->name,
                         *results[c].result, results[c].estErr});
    }
    return run;
}

int
runCampaign(const Args &args)
{
    exp::CampaignRunner runner(campaignConfig(args));
    const auto start = Clock::now();
    exp::CampaignReport report = runner.runReport();
    const double wall = secondsSince(start);
    const double setup = metrics().phase("campaign/trace").seconds +
                         metrics().phase("campaign/sample_plan").seconds;
    for (const auto &failure : report.failures) {
        std::fprintf(stderr, "cell %s/%s/%s failed: %s\n",
                     failure.platform.c_str(), failure.workload.c_str(),
                     failure.layout.c_str(), failure.error.str().c_str());
    }
    writeFile(args.get("csv"), report.dataset.toCsv());

    std::string predictions;
    const auto fit_start = Clock::now();
    FitSummary fits =
        fitPairs(report.dataset, predictions, nullptr, nullptr);
    const double fit_wall = secondsSince(fit_start);
    writeFile(args.get("predictions"), predictions);

    std::printf("{\"wall_s\": %s, \"setup_s\": %s, \"fit_s\": %s, "
                "\"cells\": %zu, \"cell_failures\": %zu, "
                "\"fits\": %zu, \"fit_failures\": %zu, \"jobs\": %u}\n",
                num(wall).c_str(), num(setup).c_str(),
                num(fit_wall).c_str(),
                report.cellsCompleted + report.failures.size(),
                report.failures.size(), fits.attempted, fits.failed,
                runner.effectiveJobs());
    return 0;
}

int
runCells(const Args &args)
{
    const auto config = campaignConfig(args);
    std::vector<GridRow> grid;
    for (const auto &label : config.workloads)
        grid.push_back({label, config.platforms});

    // Lane 0 is the main thread, lanes 1..jobs the workers.
    Tracer tracer(config.jobs + 1);
    const auto start = Clock::now();
    CellRun run = driveCells(grid, config, tracer);
    writeFile(args.get("cells"), run.rows);

    // Fit on the cells' own rows, held in the order the campaign's
    // dataset holds them, so the fits see the same samples.
    std::string predictions;
    std::string fit_rows = "platform,workload,lasso_fits,lasso_iterations\n";
    std::map<PairKey, std::unique_ptr<models::Mosmodel>> fitted;
    const auto fit_start = Clock::now();
    FitSummary fits =
        fitPairs(run.dataset, predictions, &tracer, &fit_rows, &fitted);
    const double fit_wall = secondsSince(fit_start);
    const double wall = secondsSince(start);
    // After the wall clock stops: the untraced campaign has no such
    // loop, so it stays out of trace_overhead_pct.
    const double checksum = timePredictions(run.dataset, fitted, tracer);
    writeFile(args.get("fits"), fit_rows);
    writeFile(args.get("predictions"), predictions);
    tracer.write(args.get("spans"));

    std::printf("{\"wall_s\": %s, \"prepare_s\": %s, "
                "\"cell_phase_s\": %s, \"fit_s\": %s, \"cells\": %zu, "
                "\"cell_failures\": %zu, \"prepare_failures\": %zu, "
                "\"fits\": %zu, \"fit_failures\": %zu, \"jobs\": %u, "
                "\"checksum\": %s}\n",
                num(wall).c_str(), num(run.prepareSeconds).c_str(),
                num(run.cellSeconds).c_str(), num(fit_wall).c_str(),
                run.cells, run.cellFailures, run.prepareFailures,
                fits.attempted, fits.failed, config.jobs,
                num(checksum).c_str());
    return 0;
}

} // namespace perfbench
