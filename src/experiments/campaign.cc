#include "experiments/campaign.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <fstream>
#include <map>
#include <mutex>
#include <optional>
#include <set>
#include <thread>

#include "cpu/system.hh"
#include "sampling/sampled_run.hh"
#include "support/io_util.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/retry.hh"
#include "trace/miss_profile.hh"
#include "trace/trace_store.hh"

namespace mosaic::exp
{

std::string
traceCacheStem(const std::string &label)
{
    std::string out = label;
    for (char &c : out) {
        if (!std::isalnum(static_cast<unsigned char>(c)) && c != '-' &&
            c != '_') {
            c = '_';
        }
    }
    // Sanitizing alone collides distinct labels ("spec06/mcf" and
    // "spec06_mcf" both map to "spec06_mcf"), which would let one
    // workload silently replay another's cached trace. A short hash of
    // the raw label keeps the stem unique per label.
    char hash[16];
    std::snprintf(hash, sizeof hash, "-%08x",
                  crc32(label.data(), label.size()));
    return out + hash;
}

namespace
{

/**
 * Produce the workload's trace, preferring the columnar store cache
 * (trace::TraceStore) when configured. Cache damage is recoverable by
 * construction: a store that exists but cannot be loaded — corrupt
 * columns, a torn commit, a zero-byte file, or an unreadable file even
 * after the transient-retry schedule — is quarantined (renamed
 * "*.corrupt") and the trace regenerated; a failed re-save costs only
 * the cache. Observability and fault sites go through @p context, so
 * concurrent workers publish into their own shards.
 */
Result<trace::MemoryTrace>
obtainTrace(const workloads::Workload &workload,
            const CampaignConfig &config, std::size_t &retries,
            const SimContext &context)
{
    MetricsRegistry &registry = context.metrics();
    ScopedTimer timer(registry, "campaign/trace");
    const std::string label = workload.info().label();
    std::string cache_path;
    if (!config.traceCacheDir.empty()) {
        if (auto made = ensureDirectory(config.traceCacheDir);
            !made.ok()) {
            // No usable cache dir: fall through to in-memory traces
            // instead of burning a retry schedule per pair.
            mosaic_warn("trace cache disabled: ", made.error().str());
        } else {
            cache_path = config.traceCacheDir + "/" +
                         traceCacheStem(label) +
                         trace::traceStoreExtension;
        }
    }
    if (!cache_path.empty()) {
        std::ifstream probe(cache_path);
        const bool exists = probe.good();
        probe.close();
        if (exists) {
            std::size_t attempt_retries = 0;
            auto loaded = retryWithBackoff(
                config.retry,
                [&] {
                    return trace::loadStoredTrace(cache_path, context);
                },
                &attempt_retries);
            retries += attempt_retries;
            if (loaded.ok()) {
                registry.add("trace_store/hits");
                return loaded;
            }
            // The file is there but cannot be trusted (zero bytes, CRC
            // mismatch, torn commit, persistent I/O failure): move it
            // aside so the evidence survives for inspection, and
            // regenerate into the now-free slot.
            registry.add("trace_store/quarantined");
            registry.add("trace_store/regens");
            std::string quarantined =
                trace::quarantineStoreFile(cache_path);
            mosaic_warn("trace store for ", label, " unusable (",
                        loaded.error().str(), "); ",
                        quarantined.empty()
                            ? std::string("removed; regenerating")
                            : "quarantined to " + quarantined +
                                  "; regenerating");
        } else {
            registry.add("trace_store/misses");
        }
    }

    trace::MemoryTrace generated;
    try {
        ScopedTimer generate(registry, "campaign/trace/generate");
        generated = workload.generateTrace();
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Internal,
                     std::string("trace generation failed: ") + e.what())
            .withContext("workload " + label);
    }

    if (!cache_path.empty()) {
        std::size_t attempt_retries = 0;
        auto saved = retryWithBackoff(
            config.retry,
            [&] {
                return trace::TraceStore::save(generated, cache_path,
                                               context);
            },
            &attempt_retries);
        retries += attempt_retries;
        if (!saved.ok()) {
            // The cache is an optimization; losing it is not a cell
            // failure.
            registry.add("trace_store/save_failures");
            mosaic_warn("cannot cache trace for ", label, ": ",
                        saved.error().str());
        }
    }
    return generated;
}

/** The 54-layout exploration plus the optional all-1GB reference.
 *  Layouts depend only on (trace, pool, seed) — never the platform —
 *  so one set serves every platform of a workload. */
Result<std::vector<layouts::NamedLayout>>
buildCampaignLayouts(const workloads::Workload &workload,
                     const trace::MemoryTrace &trace,
                     const CampaignConfig &config)
{
    try {
        trace::MissProfile profile(trace, workload.primaryPoolBase(),
                                   workload.primaryPoolSize());
        auto layouts = layouts::paperCampaignLayouts(
            workload.primaryPoolSize(), profile, config.seed);
        if (config.include1g) {
            layouts.push_back(layouts::uniformLayout(
                workload.primaryPoolSize(), alloc::PageSize::Page1G));
        }
        return layouts;
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Internal,
                     std::string("layout construction failed: ") +
                         e.what());
    }
}

/** Construct a workload via the configured factory (tests, serve) or
 *  the benchmark registry (default). An unknown label, including a
 *  factory that throws or returns null, is a Config error. */
Result<std::unique_ptr<workloads::Workload>>
makeConfiguredWorkload(const CampaignConfig &config,
                       const std::string &label)
{
    if (!config.workloadFactory)
        return workloads::findWorkload(label);
    std::unique_ptr<workloads::Workload> workload;
    try {
        workload = config.workloadFactory(label);
    } catch (const std::exception &e) {
        return configError(e.what());
    }
    if (!workload)
        return configError("unknown workload '" + label + "'");
    return workload;
}

/** The interference partner of a multi-tenant campaign, prepared once:
 *  its trace and its fixed all-4KB baseline layout are shared by every
 *  cell (the exploration variable is the primary tenant's layout). */
struct CoTenant
{
    std::unique_ptr<workloads::Workload> workload;
    std::shared_ptr<const trace::MemoryTrace> trace;
    alloc::MosallocConfig config;
};

Result<CoTenant>
prepareCoTenant(const CampaignConfig &config, std::size_t &retries,
                const SimContext &context)
{
    CoTenant co;
    auto made = makeConfiguredWorkload(config, config.coWorkload);
    if (!made.ok())
        return made.error().withContext("co-workload " + config.coWorkload);
    co.workload = std::move(made.value());
    auto trace_result =
        obtainTrace(*co.workload, config, retries, context);
    if (!trace_result.ok()) {
        return trace_result.error().withContext("co-workload " +
                                                config.coWorkload);
    }
    co.trace = std::make_shared<const trace::MemoryTrace>(
        std::move(trace_result).okOrThrow());
    try {
        auto baseline = layouts::uniformLayout(
            co.workload->primaryPoolSize(), alloc::PageSize::Page4K);
        co.config = co.workload->makeAllocConfig(baseline.layout);
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Config,
                     std::string("co-workload baseline layout "
                                 "failed: ") +
                         e.what())
            .withContext("co-workload " + config.coWorkload);
    }
    return co;
}

/**
 * Simulate one cell's replay: single-tenant on the sequential engine
 * (with OS-level paging when configured), or — when a co-tenant is
 * present — the primary layout interleaved against the co-workload's
 * baseline over one shared bounded pool. The recorded result is always
 * the primary tenant's readout.
 */
cpu::RunResult
simulateCellResult(const cpu::PlatformSpec &platform,
                   const workloads::Workload &workload,
                   const layouts::NamedLayout &named,
                   const trace::MemoryTrace &trace,
                   const CampaignConfig &config, const CoTenant *co,
                   const sampling::SamplePlan *plan, double *est_err,
                   const SimContext &context)
{
    if (plan) {
        // Sampled cell: partial replay of the plan's segments,
        // extrapolated back to full-run counters. The plan is shared
        // across all cells of the workload; sampling is pre-validated
        // to be single-tenant, so `co` is never set here.
        auto estimate = sampling::simulateSampled(
            platform, workload.makeAllocConfig(named.layout), trace,
            *plan, config.os, context);
        if (est_err)
            *est_err = estimate.estErr;
        return estimate.estimate;
    }
    if (!co) {
        return cpu::simulateRun(platform,
                                workload.makeAllocConfig(named.layout),
                                trace, config.os, context);
    }
    const std::array<alloc::MosallocConfig, 2> configs = {
        workload.makeAllocConfig(named.layout), co->config};
    const std::array<const trace::MemoryTrace *, 2> traces = {
        &trace, co->trace.get()};
    return cpu::simulateRunTenants(platform, configs, traces, config.os,
                                   context)[0];
}

/** Build the workload's sampling plan (layout/platform-independent;
 *  one per workload). Construction failures are structured Internal
 *  errors that fail the pair, matching the layout builder. */
Result<sampling::SamplePlan>
buildWorkloadSamplePlan(const trace::MemoryTrace &trace,
                        const CampaignConfig &config,
                        const SimContext &context)
{
    try {
        ScopedTimer timer(context.metrics(), "campaign/sample_plan");
        auto plan = sampling::buildSamplePlan(trace, config.sampling);
        context.metrics().add("campaign/sample_plans");
        context.metrics().add("campaign/sample_plan_records_replayed",
                              plan.recordsReplayed);
        context.metrics().add("campaign/sample_plan_records_total",
                              plan.traceRecords);
        return plan;
    } catch (const std::exception &e) {
        return Error(ErrorCategory::Internal,
                     std::string("sample plan construction failed: ") +
                         e.what());
    }
}

using PairKey = std::pair<std::string, std::string>;

/** One pair of the campaign grid. */
struct GridPair
{
    const cpu::PlatformSpec *platform;
    std::string label;
};

/**
 * The grid in canonical order: label-major, a pair named twice visited
 * once. The walk fixes the order cells are listed and rows are
 * assembled in.
 */
std::vector<GridPair>
walkGrid(const CampaignConfig &config)
{
    std::vector<GridPair> grid;
    std::set<PairKey> seen;
    for (const auto &label : config.workloads) {
        for (const auto &platform : config.platforms) {
            if (seen.insert({platform.name, label}).second)
                grid.push_back({&platform, label});
        }
    }
    return grid;
}

/**
 * Whether a cached dataset has the CSV format @p config writes. A
 * cache in another format holds rows measured under different
 * semantics (OS layer, or full vs sampled replay); splicing them in
 * would mix incommensurable counters, so a mismatch warns and the
 * caller does @p fallback instead.
 */
bool
cacheFormatMatches(const Dataset &cached, const CampaignConfig &config,
                   const std::string &path, const char *fallback)
{
    if (cached.swapColumn() == config.os.paged() &&
        cached.estErrColumn() == config.sampling.enabled())
        return true;
    mosaic_warn("campaign cache ", path,
                " has a different CSV format (swap column ",
                cached.swapColumn() ? "present" : "absent",
                ", est_err column ",
                cached.estErrColumn() ? "present" : "absent", "); ",
                fallback);
    return false;
}

template <typename Body>
void
runPool(unsigned n, Body &&body)
{
    std::vector<std::thread> pool;
    for (unsigned i = 0; i < n; ++i)
        pool.emplace_back(body, i);
    for (auto &thread : pool)
        thread.join();
}

/**
 * One CampaignRunner run: the state its stages hand each other.
 * CampaignRunner::runImpl() calls the stages in order — validate,
 * index the resume cache, schedule the grid, execute cells (preparing
 * each workload on demand), assemble and save — and returns the
 * report.
 */
struct CampaignRun
{
    /**
     * One workload's shared inputs (trace + layouts are platform-
     * independent). The first worker to take one of its cells prepares
     * them under `once`; the commit of its last cell drops the trace
     * and plan. The layouts stay: assembly names the rows by them.
     */
    struct WorkloadState
    {
        std::string label;
        std::once_flag once;
        std::unique_ptr<workloads::Workload> workload;
        std::shared_ptr<const trace::MemoryTrace> trace;
        std::vector<layouts::NamedLayout> layouts;

        /** Sampled campaigns: the workload's replay plan, shared by
         *  every cell (layout- and platform-independent). */
        std::shared_ptr<const sampling::SamplePlan> plan;

        std::size_t retries = 0;
        std::optional<Error> error;

        /** Uncommitted cells over all the workload's pairs, and
         *  whether it is prepared and not yet dropped; both under the
         *  progress mutex. */
        std::size_t cellsRemaining = 0;
        bool live = false;
    };

    struct PairTask
    {
        std::size_t state;
        const cpu::PlatformSpec *platform;
        const std::set<std::string> *done = nullptr;

        /** Uncommitted cells; decremented under the progress mutex. */
        std::size_t cellsRemaining = 0;
    };

    /** One layout position of a pair. Once it ran, at most one of
     *  record/failure is set, written under the progress mutex:
     *  neither when the cache already covers the layout or the
     *  workload could not be prepared. */
    struct Cell
    {
        std::size_t pair;
        std::size_t layout;
        std::optional<RunRecord> record;
        std::optional<CellFailure> failure;
    };

    const CampaignConfig &config;
    const SimContext &context;
    const std::string *cachePath;
    const unsigned jobs;
    const std::size_t cellsPerPair;
    const bool sampled = config.sampling.enabled();
    CampaignReport report;

    // Resumed cells, two ways: the raw cache (row order preserved, for
    // pairs kept wholesale) and its first row per cell (checkpoint
    // snapshots, and the rows spliced back into canonical layout
    // positions of partially-done pairs), plus each pair's covered
    // layouts.
    std::optional<Dataset> resumeData;
    Dataset resumedBase;
    std::map<PairKey, std::set<std::string>> covered;

    std::vector<PairKey> coveredPairs;
    std::deque<WorkloadState> states; ///< a once_flag never moves
    std::vector<PairTask> pairs;
    std::optional<CoTenant> coTenant;
    std::vector<MetricsRegistry> cellShards;

    // Execution: the canonical cell list, and the progress accounting
    // the workers share under progressMutex.
    std::vector<Cell> cells;
    std::mutex progressMutex;
    StopWatch watch;
    std::size_t cellsDone = 0;
    std::size_t pairsDone = 0;
    std::size_t sinceCheckpoint = 0;
    std::size_t workloadsLive = 0;
    std::size_t workloadsLiveMax = 0;

    CampaignRun(const CampaignRunner &runner, const SimContext &ctx,
                const std::string *cache_path)
        : config(runner.config()), context(ctx), cachePath(cache_path),
          jobs(runner.effectiveJobs()),
          cellsPerPair(runner.expectedCellsPerPair())
    {
        for (Dataset *dataset : {&report.dataset, &resumedBase}) {
            dataset->setSwapColumn(config.os.paged());
            dataset->setEstErrColumn(sampled);
        }
    }

    /** Stage 1: a configuration no runner can honor is one structured
     *  Config failure. */
    bool
    validate()
    {
        auto valid = config.validate();
        if (!valid.ok())
            report.failures.push_back(
                {"*", config.coWorkload, "*", valid.error()});
        return valid.ok();
    }

    /**
     * Stage 2: fold the (possibly partial, possibly damaged) resume
     * cache and remember which cells it already covers. The cache may
     * hold duplicate rows (a checkpoint that fired mid-pair on a run
     * that later appended the same pair again); the per-pair done set
     * keeps only the first occurrence of each layout.
     */
    void
    indexResumeCache()
    {
        if (!cachePath || !std::ifstream(*cachePath).good())
            return;
        ScopedTimer resume_timer(context.metrics(), "campaign/resume");
        std::size_t load_retries = 0;
        auto cached = retryWithBackoff(
            config.retry, [&] { return Dataset::loadResult(*cachePath); },
            &load_retries);
        report.retriesPerformed += load_retries;
        if (!cached.ok()) {
            mosaic_warn("campaign cache ", *cachePath, " unusable (",
                        cached.error().str(), "); starting fresh");
            return;
        }
        if (!cacheFormatMatches(cached.value(), config, *cachePath,
                                "starting fresh"))
            return;
        resumeData = std::move(cached.value());
        for (const auto &platform : config.platforms) {
            for (const auto &label : config.workloads) {
                if (!resumeData->has(platform.name, label))
                    continue;
                auto &done = covered[{platform.name, label}];
                for (const auto &record :
                     resumeData->runs(platform.name, label)) {
                    if (!done.insert(record.layout).second)
                        continue;
                    resumedBase.add(record);
                    ++report.cellsResumed;
                }
            }
        }
        context.metrics().add("campaign/cells_resumed",
                              report.cellsResumed);
        if (config.verbose && report.cellsResumed > 0) {
            mosaic_inform("campaign: resuming, ", report.cellsResumed,
                          " cell(s) already in ", *cachePath);
        }
    }

    /**
     * Stage 3: one shared state per distinct workload, pairs in grid
     * order, and every layout position of every pair the cache does
     * not fully cover as a cell. Which positions the cache covers is
     * known only once the workload's layouts are built, so a covered
     * one is skipped when its cell runs. The pair/cell orders fixed
     * here define the canonical result order, independent of how
     * workers interleave; the grid walk is label-major, so a
     * workload's cells are contiguous and it lives only while they
     * run.
     */
    void
    scheduleGrid()
    {
        std::map<std::string, std::size_t> state_index;
        for (const GridPair &grid_pair : walkGrid(config)) {
            const PairKey key{grid_pair.platform->name, grid_pair.label};
            auto it = covered.find(key);
            const std::set<std::string> *done =
                it == covered.end() ? nullptr : &it->second;
            // A fully covered pair keeps its cached rows without even
            // a trace.
            if (done && done->size() >= cellsPerPair) {
                coveredPairs.push_back(key);
                continue;
            }
            auto [state_it, inserted] =
                state_index.try_emplace(grid_pair.label, states.size());
            if (inserted)
                states.emplace_back().label = grid_pair.label;
            states[state_it->second].cellsRemaining += cellsPerPair;
            for (std::size_t li = 0; li < cellsPerPair; ++li)
                cells.push_back({pairs.size(), li, {}, {}});
            pairs.push_back(
                {state_it->second, grid_pair.platform, done, cellsPerPair});
        }
    }

    /**
     * Stage 4: simulate every cell over the worker pool, then merge
     * the worker shards. The interference partner comes first: its
     * trace and baseline layout are inputs to *every* cell, so a
     * co-workload that cannot be built fails the campaign as a whole
     * (one structured Config/Io failure), not cell by cell. Each
     * worker owns its machine and metrics shard; a workload's trace
     * and layouts are shared immutable once prepared.
     */
    bool
    executeCells()
    {
        if (!config.coWorkload.empty()) {
            std::size_t co_retries = 0;
            auto prepared = prepareCoTenant(config, co_retries, context);
            report.retriesPerformed += co_retries;
            if (!prepared.ok()) {
                report.failures.push_back(
                    {"*", config.coWorkload, "*", prepared.error()});
                return false;
            }
            coTenant = std::move(prepared).okOrThrow();
        }
        watch.restart();
        cellShards = std::vector<MetricsRegistry>(std::min<unsigned>(
            jobs, std::max<std::size_t>(cells.size(), 1)));
        std::atomic<std::size_t> next{0};
        runPool(cellShards.size(), [&](unsigned worker) {
            MetricsRegistry &shard = cellShards[worker];
            SimContext worker_context(shard, context.faults(), config.seed,
                                      worker);
            for (std::size_t i = next++; i < cells.size(); i = next++)
                commitCell(i, runCell(cells[i], worker_context), shard);
        });
        mergeShards();
        return true;
    }

    /**
     * Prepare a workload's factory, trace, layouts and sample plan,
     * publishing into the preparing worker's shard. Runs once per
     * workload, on the first worker to take one of its cells; the
     * others wait for it.
     */
    void
    prepareWorkload(WorkloadState &state, const SimContext &ctx)
    {
        {
            std::lock_guard<std::mutex> lock(progressMutex);
            state.live = true;
            workloadsLiveMax = std::max(workloadsLiveMax, ++workloadsLive);
        }
        auto made = makeConfiguredWorkload(config, state.label);
        if (!made.ok()) {
            state.error = made.error();
            return;
        }
        state.workload = std::move(made.value());
        auto trace_result =
            obtainTrace(*state.workload, config, state.retries, ctx);
        if (!trace_result.ok()) {
            state.error = trace_result.error();
            return;
        }
        auto layouts_result = buildCampaignLayouts(
            *state.workload, trace_result.value(), config);
        if (!layouts_result.ok()) {
            state.error = layouts_result.error();
            return;
        }
        state.layouts = std::move(layouts_result).okOrThrow();
        state.trace = std::make_shared<trace::MemoryTrace>(
            std::move(trace_result).okOrThrow());
        if (sampled) {
            auto plan_result =
                buildWorkloadSamplePlan(*state.trace, config, ctx);
            if (!plan_result.ok()) {
                state.error = plan_result.error();
                return;
            }
            state.plan = std::make_shared<const sampling::SamplePlan>(
                std::move(plan_result).okOrThrow());
        }
    }

    Cell
    runCell(Cell cell, const SimContext &worker_context)
    {
        const PairTask &pair = pairs[cell.pair];
        WorkloadState &state = states[pair.state];
        MetricsRegistry &shard = worker_context.metrics();
        // A failure is named by its layout at assembly, which knows
        // the names even of a workload this cell never prepared.
        auto fail = [&](Error error) {
            shard.add("campaign/cells_failed");
            cell.failure = CellFailure{pair.platform->name, state.label,
                                       "*", std::move(error)};
            return std::move(cell);
        };
        auto timed_out = [&](const std::string &why) {
            shard.add("campaign/cells_timed_out");
            return fail(timeoutError(why));
        };

        // Once the caller's own deadline has passed, no further cell
        // prepares a workload or builds a machine.
        auto deadline_passed = [&] {
            return context.hasDeadline() &&
                   std::chrono::steady_clock::now() >= context.deadline();
        };
        if (deadline_passed())
            return timed_out("deadline passed before the cell started");
        std::call_once(state.once,
                       [&] { prepareWorkload(state, worker_context); });
        // A workload that could not be prepared is one pair-level
        // failure, reported at assembly; a covered layout keeps its
        // cached row.
        if (state.error)
            return cell;
        const auto &named = state.layouts[cell.layout];
        if (pair.done && pair.done->count(named.name))
            return cell;
        if (deadline_passed())
            return timed_out("deadline passed while the workload was "
                             "prepared");

        // The cell's deadline is the earlier of the caller's and the
        // watchdog budget. The replay loops check it per chunk, so an
        // expired deadline surfaces as TimeoutError.
        auto deadline = context.deadline();
        if (config.cellTimeoutSeconds > 0.0) {
            deadline = std::min(
                deadline, std::chrono::steady_clock::now() +
                              std::chrono::duration_cast<
                                  std::chrono::steady_clock::duration>(
                                  std::chrono::duration<double>(
                                      config.cellTimeoutSeconds)));
        }

        ScopedTimer cell_timer(shard, "campaign/cell");
        try {
            RunRecord record;
            record.platform = pair.platform->name;
            record.workload = state.label;
            record.layout = named.name;
            record.result = simulateCellResult(
                *pair.platform, *state.workload, named, *state.trace,
                config, coTenant ? &*coTenant : nullptr, state.plan.get(),
                &record.estErr, worker_context.withDeadline(deadline));
            cell.record = std::move(record);
            return cell;
        } catch (const ResourceError &e) {
            // The frame budget cannot hold the cell's pages: an
            // isolated, structured Resource failure — the pool
            // exhaustion analog of a timeout.
            return fail(Error(ErrorCategory::Resource, e.what()));
        } catch (const TimeoutError &e) {
            // The watchdog fired: a hung cell is an isolated Timeout
            // failure, not a wedged worker.
            return timed_out(e.what());
        } catch (const std::exception &e) {
            // One bad cell must not take down the pair: record it and
            // keep simulating the remaining layouts.
            return fail(Error(ErrorCategory::Internal, e.what()));
        }
    }

    /** Commit one cell under the progress mutex: slot write, workload
     *  lifetime, pair accounting, heartbeat composition, checkpoint
     *  cadence. */
    void
    commitCell(std::size_t index, Cell done, MetricsRegistry &shard)
    {
        std::string heartbeat;
        {
            std::lock_guard<std::mutex> lock(progressMutex);
            cells[index] = std::move(done);
            ++cellsDone;
            PairTask &pair = pairs[cells[index].pair];
            WorkloadState &state = states[pair.state];
            if (--state.cellsRemaining == 0 && state.live) {
                // No cell of the workload is left to read them.
                state.trace.reset();
                state.plan.reset();
                state.live = false;
                --workloadsLive;
            }
            if (--pair.cellsRemaining == 0) {
                ++pairsDone;
                if (config.verbose) {
                    // Heartbeat: progress plus throughput and ETA, so
                    // a long grid is never a silent black box.
                    const double elapsed = watch.elapsedSeconds();
                    const double rate =
                        elapsed > 0.0 ? cellsDone / elapsed : 0.0;
                    const double eta =
                        rate > 0.0 ? (cells.size() - cellsDone) / rate
                                   : 0.0;
                    char pace[96];
                    std::snprintf(pace, sizeof pace,
                                  "%.2f cells/sec, ETA %.0fs", rate, eta);
                    heartbeat = detail::concat(
                        "campaign: ", pairsDone, "/", pairs.size(),
                        " pairs done (", pair.platform->name, " ",
                        state.label, ") — ", pace);
                }
                if (checkpointDue())
                    checkpoint(shard);
            }
        }
        // Every worker-side progress line goes through the
        // mutex-protected logging layer, composed as one complete
        // line, so parallel workers never interleave mid-line.
        if (!heartbeat.empty())
            mosaic_inform(heartbeat);
    }

    /** Whether the pair just resolved completes a checkpoint
     *  interval. */
    bool
    checkpointDue()
    {
        if (!cachePath || config.checkpointEvery == 0 ||
            ++sinceCheckpoint < config.checkpointEvery ||
            pairsDone >= pairs.size())
            return false;
        sinceCheckpoint = 0;
        return true;
    }

    /**
     * Flush the completed cells to the cache path, publishing into
     * @p registry (the calling worker's shard). Called under the
     * progress mutex. Checkpoint loss is survivable (the final save
     * still happens): warn and continue. The snapshot walks the cells
     * in canonical order, so even a mid-run checkpoint CSV is
     * deterministic given the same set of completed cells.
     */
    void
    checkpoint(MetricsRegistry &registry)
    {
        ScopedTimer checkpoint_timer(registry, "campaign/checkpoint");
        Dataset snapshot = resumedBase;
        for (const auto &cell : cells) {
            if (cell.record)
                snapshot.add(*cell.record);
        }
        std::size_t save_retries = 0;
        auto saved = retryWithBackoff(
            config.retry, [&] { return snapshot.saveResult(*cachePath); },
            &save_retries);
        report.retriesPerformed += save_retries;
        if (saved.ok()) {
            ++report.checkpointsWritten;
            registry.add("campaign/checkpoints");
        } else {
            mosaic_warn("campaign checkpoint to ", *cachePath,
                        " failed: ", saved.error().str());
        }
    }

    /** Merge the worker shards into the caller's registry on the
     *  calling thread, in worker order, so the manifest is
     *  deterministic for any jobs count. */
    void
    mergeShards()
    {
        MetricsRegistry &registry = context.metrics();
        for (unsigned worker = 0; worker < cellShards.size(); ++worker) {
            registry.mergeFrom(cellShards[worker]);
            // Per-worker phase breakdown for the run manifest: how much
            // cell time each worker absorbed (seconds + cell count).
            registry.addPhaseStats(
                "campaign/worker/" + std::to_string(worker),
                cellShards[worker].phase("campaign/cell"));
        }
        registry.set("campaign/jobs",
                     static_cast<double>(cellShards.size()));
        registry.set("campaign/sampled", sampled ? 1.0 : 0.0);
        // The most workloads holding a trace at once: at most jobs,
        // however long the grid.
        registry.set("campaign/workloads_live_max",
                     static_cast<double>(workloadsLiveMax));
        std::size_t trace_retries = 0;
        for (const auto &state : states)
            trace_retries += state.retries;
        report.retriesPerformed += trace_retries;
        if (trace_retries > 0)
            registry.add("campaign/retries", trace_retries);
    }

    /**
     * Stage 5: assemble the dataset pair by pair, each pair's rows in
     * canonical layout order with resumed cells spliced back into
     * their positions — so a resumed run's CSV is byte-identical to an
     * uninterrupted one — then save it. The emitted set guards against
     * duplicate keys (a cache with repeated rows, a grid naming a pair
     * twice).
     */
    void
    assembleAndSave()
    {
        std::size_t added = 0;
        std::set<std::array<std::string, 3>> emitted;
        auto emit = [&](const RunRecord &record, bool fresh) {
            if (emitted
                    .insert({record.platform, record.workload,
                             record.layout})
                    .second) {
                report.dataset.add(record);
                added += fresh ? 1 : 0;
            }
        };
        auto emitCached = [&](const std::string &platform,
                              const std::string &label) {
            if (resumeData && resumeData->has(platform, label)) {
                for (const auto &record : resumeData->runs(platform, label))
                    emit(record, false);
            }
        };

        // Pairs the cache fully covered, in cached row order
        // (canonical whenever this engine wrote the cache).
        for (const auto &[platform, label] : coveredPairs)
            emitCached(platform, label);

        // Scheduled pairs, in grid order. cells was built pair-major
        // with ascending layout indices, so a single cursor walks it in
        // lock-step with this loop.
        std::size_t cursor = 0;
        for (const auto &pair : pairs) {
            const WorkloadState &state = states[pair.state];
            const std::string &platform = pair.platform->name;
            if (state.error) {
                // Prep failed: keep whatever the cache held for the
                // pair and report one pair-level failure.
                emitCached(platform, state.label);
                report.failures.push_back(
                    {platform, state.label, "*", *state.error});
                cursor += cellsPerPair;
                continue;
            }
            if (state.layouts.empty()) {
                // The caller's deadline stopped every cell before the
                // workload was prepared, so no layout has a name: the
                // cached rows stay, and each cell fails as "*".
                emitCached(platform, state.label);
                for (std::size_t li = 0; li < cellsPerPair; ++li)
                    report.failures.push_back(
                        std::move(*cells[cursor++].failure));
                continue;
            }
            for (const auto &named : state.layouts) {
                Cell &cell = cells[cursor++];
                if (pair.done && pair.done->count(named.name)) {
                    emit(resumedBase.findRun(platform, state.label,
                                             named.name),
                         false);
                } else if (cell.record) {
                    emit(*cell.record, true);
                } else if (cell.failure) {
                    cell.failure->layout = named.name;
                    report.failures.push_back(std::move(*cell.failure));
                }
            }
        }
        report.cellsCompleted += added;
        context.metrics().add("campaign/cells_completed", added);
        if (!report.failures.empty())
            context.metrics().add("campaign/failures",
                                  report.failures.size());
        if (cachePath)
            save();
    }

    void
    save()
    {
        ScopedTimer save_timer(context.metrics(), "campaign/save");
        std::size_t save_retries = 0;
        auto saved = retryWithBackoff(
            config.retry,
            [&] { return report.dataset.saveResult(*cachePath); },
            &save_retries);
        report.retriesPerformed += save_retries;
        if (!saved.ok()) {
            report.failures.push_back(
                {"*", "*", "save",
                 saved.error().withContext("final dataset save to " +
                                           *cachePath)});
        } else if (config.verbose) {
            mosaic_inform("campaign: saved ", report.dataset.totalRuns(),
                          " runs to ", *cachePath);
        }
    }
};

} // namespace

Result<void>
CampaignConfig::validate() const
{
    if (coWorkload.empty())
        return Result<void>();
    // Sampled replay is single-tenant: the interleaved tenant engine
    // replays whole traces, and a partial interleave would change the
    // contention the primary tenant sees.
    if (sampling.enabled()) {
        return configError("sampled replay is incompatible with "
                           "co-workload interference");
    }
    // The interleave needs a bounded shared pool.
    if (!os.paged()) {
        return configError("co-workload interference requires a "
                           "bounded frame pool (--mem-frames > 0)");
    }
    return Result<void>();
}

std::string
CampaignReport::summary() const
{
    std::string out =
        "campaign: " + std::to_string(cellsCompleted) +
        " cell(s) completed, " + std::to_string(cellsResumed) +
        " resumed from cache, " + std::to_string(retriesPerformed) +
        " transient retries, " + std::to_string(checkpointsWritten) +
        " checkpoints\n";
    if (failures.empty()) {
        out += "campaign: no failed cells\n";
        return out;
    }
    out += "campaign: " + std::to_string(failures.size()) +
           " cell(s) FAILED:\n";
    for (const auto &failure : failures) {
        out += "  " + failure.platform + "/" + failure.workload + "/" +
               failure.layout + ": " + failure.error.str() + "\n";
    }
    return out;
}

CampaignRunner::CampaignRunner(CampaignConfig config,
                               const SimContext &context)
    : config_(std::move(config)), context_(context)
{
    if (config_.workloads.empty())
        config_.workloads = workloads::workloadLabels();
    if (config_.platforms.empty())
        config_.platforms = cpu::paperPlatforms();
}

unsigned
CampaignRunner::effectiveJobs() const
{
    if (config_.jobs > 0)
        return config_.jobs;
    unsigned hw = std::thread::hardware_concurrency();
    return hw > 0 ? hw : 2;
}

CampaignReport
CampaignRunner::runImpl(const std::string *cache_path)
{
    CampaignRun run(*this, context_, cache_path);
    if (!run.validate())
        return std::move(run.report);
    run.indexResumeCache();
    run.scheduleGrid();
    if (!run.executeCells())
        return std::move(run.report);
    run.assembleAndSave();
    return std::move(run.report);
}

CampaignReport
CampaignRunner::runReport()
{
    return runImpl(nullptr);
}

CampaignReport
CampaignRunner::runReport(const std::string &cache_path)
{
    return runImpl(&cache_path);
}

Dataset
CampaignRunner::loadOrRun(const std::string &cache_path)
{
    std::ifstream probe(cache_path);
    if (probe.good()) {
        probe.close();
        auto cached = Dataset::loadResult(cache_path);
        if (!cached.ok()) {
            mosaic_warn("campaign cache ", cache_path, " unusable (",
                        cached.error().str(), "); re-running");
        } else if (cacheFormatMatches(cached.value(), config_,
                                      cache_path, "re-running")) {
            // Count distinct layouts, not raw rows: a cache holding
            // duplicate rows but missing layouts must read as
            // incomplete, or the missing cells would never be
            // simulated (as the resume index dedups them too).
            bool complete = true;
            for (const GridPair &pair : walkGrid(config_)) {
                std::set<std::string> distinct;
                if (cached.value().has(pair.platform->name, pair.label)) {
                    for (const auto &record : cached.value().runs(
                             pair.platform->name, pair.label))
                        distinct.insert(record.layout);
                }
                if (distinct.size() < expectedCellsPerPair()) {
                    complete = false;
                    break;
                }
            }
            if (complete) {
                if (config_.verbose) {
                    mosaic_inform("campaign: loaded ",
                                  cached.value().totalRuns(),
                                  " cached runs from ", cache_path);
                }
                return std::move(cached.value());
            }
            mosaic_warn("campaign cache ", cache_path,
                        " is incomplete; resuming the missing cells");
        }
    }

    CampaignReport report = runReport(cache_path);
    if (!report.allOk())
        mosaic_warn(report.summary());
    return std::move(report.dataset);
}

std::string
defaultDatasetPath()
{
    if (const char *env = std::getenv("MOSAIC_DATASET"))
        return env;
    return "mosaic_dataset.csv";
}

} // namespace mosaic::exp
