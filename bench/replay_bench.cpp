/**
 * @file
 * Replay micro-benchmark: how fast does the simulator chew through a
 * trace?
 *
 * Every campaign cell is bottlenecked by the same inner loop (trace
 * record -> TLB -> page walk -> cache hierarchy), so this harness
 * times exactly that loop on a deterministic synthetic trace, per
 * platform and per layout, and emits a machine-readable
 * BENCH_replay.json so the records/sec trajectory is tracked across
 * PRs. Simulated *semantics* are pinned separately by the
 * golden-counter tests; this binary only measures throughput.
 *
 * Usage:
 *   replay_bench [--records N] [--reps R] [--footprint-mb M]
 *                [--jobs N] [--paged-frames N]
 *                [--sample-clusters K] [--sample-interval N]
 *                [--sample-warmup N]
 *                [--out BENCH_replay.json] [--baseline OLD.json]
 *                [--baseline-source LABEL] [--quick]
 *                [--metrics-out FILE]
 *
 * --jobs runs the (platform, layout) grid cells concurrently, one
 * simulator per worker over the shared immutable trace, each timing
 * its replays through a private metrics shard (merged into the global
 * registry afterwards). Per-cell throughput numbers measure the same
 * single-thread inner loop for any jobs value; the sweep wall time
 * shows the parallel-replay scaling.
 *
 * --paged-frames sizes the paged stage's bounded FIFO frame pool
 * (default: half the footprint's 4K pages; 0 disables the stage).
 * The stage replays each platform's all4k cell through the
 * demand-paging path and emits a separate "paged" JSON block, so the
 * OS layer's throughput is tracked without perturbing the unbounded
 * aggregate the hot-path gate reads.
 *
 * --sample-clusters sizes the sampled stage (0 disables it): each
 * platform's all4k cell is replayed through the interval-sampling
 * pipeline (plan -> representative segments -> extrapolation) and the
 * stage emits a separate "sampled" JSON block with the effective
 * throughput (full-trace records per sampled-replay second), the
 * replay fraction, the reported error bound, and the speedup over the
 * sequential full replay of the same cell. --sample-interval and
 * --sample-warmup set the plan's interval length and warmup prefix in
 * records. Like the paged stage, this rides outside the unbounded
 * sweep, so the hot-path aggregate gate is unperturbed.
 *
 * --baseline embeds the aggregate numbers of a previous run (e.g. the
 * pre-optimization build) into the output, plus the speedup ratio.
 * --metrics-out additionally dumps the shared metrics registry (the
 * same replay phases and counters the campaign reports through) as a
 * JSON run manifest.
 */

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#include "cpu/platform.hh"
#include "cpu/system.hh"
#include "mosalloc/mosalloc.hh"
#include "sampling/sampled_run.hh"
#include "support/fault_injector.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "support/sim_context.hh"
#include "trace/synth.hh"

namespace
{

using namespace mosaic;

struct BenchRun
{
    std::string platform;
    std::string layout;
    double wallSeconds = 0.0;
    double recordsPerSec = 0.0;
    cpu::RunResult result;
};

/**
 * Calibrated host clock rate in Hz for the host_cycles_per_record
 * metric, or 0 when unknown.
 *
 * On x86-64 the TSC is measured against steady_clock over a ~50 ms
 * window; every CPU this project targets has an invariant TSC
 * (constant rate regardless of turbo or power state), so one window
 * calibrates the whole run and the derived cycles/record are in
 * *nominal* (base-clock) cycles — the unit the <100 cycles/record
 * kernel budget is written in. MOSAIC_HOST_GHZ overrides the
 * calibration (and is the only source on non-x86 hosts, where the
 * field is otherwise emitted as 0 and regression gates skip it).
 */
double
calibrateHostHz()
{
    if (const char *ghz = std::getenv("MOSAIC_HOST_GHZ")) {
        double value = std::atof(ghz);
        if (value > 0.0)
            return value * 1e9;
    }
#if defined(__x86_64__) || defined(_M_X64)
    using clock = std::chrono::steady_clock;
    auto t0 = clock::now();
    std::uint64_t c0 = __rdtsc();
    while (std::chrono::duration<double>(clock::now() - t0).count() <
           0.05) {
        // Busy-wait: sleeping would let the window include scheduler
        // wakeup latency on loaded CI runners.
    }
    auto t1 = clock::now();
    std::uint64_t c1 = __rdtsc();
    double seconds = std::chrono::duration<double>(t1 - t0).count();
    if (seconds <= 0.0 || c1 <= c0)
        return 0.0;
    return static_cast<double>(c1 - c0) / seconds;
#else
    return 0.0;
#endif
}

/** Pull "key": number out of a previously written bench JSON. */
bool
extractNumber(const std::string &text, const std::string &object,
              const std::string &key, double &out)
{
    std::size_t obj = text.find("\"" + object + "\"");
    if (obj == std::string::npos)
        return false;
    std::size_t pos = text.find("\"" + key + "\"", obj);
    if (pos == std::string::npos)
        return false;
    pos = text.find(':', pos);
    if (pos == std::string::npos)
        return false;
    return std::sscanf(text.c_str() + pos + 1, "%lf", &out) == 1;
}

std::string
getOpt(int argc, char **argv, const char *name, const char *fallback)
{
    for (int i = 1; i + 1 < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return argv[i + 1];
    }
    return fallback;
}

bool
hasFlag(int argc, char **argv, const char *name)
{
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], name) == 0)
            return true;
    }
    return false;
}

} // namespace

int
main(int argc, char **argv)
{
    const bool quick = hasFlag(argc, argv, "--quick");
    const std::uint64_t records = std::stoull(
        getOpt(argc, argv, "--records", quick ? "200000" : "2000000"));
    const int reps =
        std::stoi(getOpt(argc, argv, "--reps", quick ? "2" : "3"));
    const Bytes footprint_mb =
        std::stoull(getOpt(argc, argv, "--footprint-mb", "64"));
    const std::string out_path =
        getOpt(argc, argv, "--out", "BENCH_replay.json");
    const std::string baseline_path = getOpt(argc, argv, "--baseline", "");
    const std::string baseline_source =
        getOpt(argc, argv, "--baseline-source", "previous run");
    const unsigned jobs = static_cast<unsigned>(
        std::stoul(getOpt(argc, argv, "--jobs", "1")));

    const Bytes footprint = footprint_mb * 1_MiB;
    const Bytes pool = alignUp(footprint + 4_MiB, 1_GiB);

    // The traced region: one heap allocation; the trace is a pure
    // function of (base, footprint, seed) and thus identical for every
    // platform and layout below.
    struct NamedMosaic
    {
        const char *name;
        alloc::MosaicLayout layout;
    };
    std::vector<NamedMosaic> mosaics;
    mosaics.push_back(
        {"all4k", alloc::MosaicLayout(pool)});
    mosaics.push_back(
        {"all2m", alloc::MosaicLayout::uniform(pool, alloc::PageSize::Page2M)});
    mosaics.push_back(
        {"all1g", alloc::MosaicLayout::uniform(pool, alloc::PageSize::Page1G)});
    mosaics.push_back(
        {"win2m", alloc::MosaicLayout::withWindow(
                      pool, 0, std::min<Bytes>(24_MiB, footprint),
                      alloc::PageSize::Page2M)});

    // The grid cells are independent: build them all first, then run
    // them over the worker pool. Each cell owns its allocator, trace
    // and System; each worker times through its own metrics shard, so
    // the "replay/run" phase deltas never mix across workers.
    struct BenchCell
    {
        const cpu::PlatformSpec *platform;
        const NamedMosaic *mosaic;
        alloc::MosallocConfig allocConfig;
        VirtAddr base = 0;
        trace::MemoryTrace trace;
    };
    std::vector<BenchCell> cells;
    const auto platforms = cpu::paperPlatforms();
    for (const auto &platform : platforms) {
        for (const auto &mosaic : mosaics) {
            BenchCell cell;
            cell.platform = &platform;
            cell.mosaic = &mosaic;
            cell.allocConfig.heapLayout = mosaic.layout;
            cell.allocConfig.anonLayout = alloc::MosaicLayout(16_MiB);
            alloc::Mosalloc allocator(cell.allocConfig);
            cell.base = allocator.malloc(footprint);

            trace::SynthTraceParams synth;
            synth.records = records;
            synth.base = cell.base;
            synth.footprint = footprint;
            cell.trace = trace::makeSynthTrace(synth);
            cells.push_back(std::move(cell));
        }
    }

    auto runPool = [](unsigned n, auto &&body) {
        std::vector<std::thread> pool;
        for (unsigned i = 0; i < n; ++i)
            pool.emplace_back(body, i);
        for (auto &thread : pool)
            thread.join();
    };

    const unsigned workers = std::max(
        1u, std::min<unsigned>(
                jobs, static_cast<unsigned>(cells.size())));
    std::vector<BenchRun> runs(cells.size());
    std::vector<MetricsRegistry> shards(workers);
    std::atomic<std::size_t> next_cell{0};
    auto sweep_start = std::chrono::steady_clock::now();
    runPool(workers, [&](unsigned worker) {
        MetricsRegistry &shard = shards[worker];
        SimContext context(shard, faults(), 0, worker);
        while (true) {
            std::size_t index = next_cell.fetch_add(1);
            if (index >= cells.size())
                return;
            const BenchCell &cell = cells[index];
            // Rebuild the allocation deterministically: same
            // config, same malloc, same base the trace targets.
            alloc::Mosalloc allocator(cell.allocConfig);
            VirtAddr base = allocator.malloc(footprint);
            mosaic_assert(base == cell.base,
                          "allocator no longer deterministic");

            BenchRun run;
            run.platform = cell.platform->name;
            run.layout = cell.mosaic->name;
            run.wallSeconds = 1e300;
            for (int rep = 0; rep < reps; ++rep) {
                // Fresh machine per rep: cold TLBs and caches, so
                // every rep replays the identical work. Wall time
                // comes from this worker's shard — System::run
                // publishes each replay into the "replay/run"
                // phase — so the bench and --metrics-out report
                // from one source instead of ad-hoc counters.
                cpu::System system(*cell.platform, allocator,
                                   context);
                PhaseStats before = shard.phase("replay/run");
                run.result = system.run(cell.trace);
                PhaseStats after = shard.phase("replay/run");
                run.wallSeconds = std::min(
                    run.wallSeconds, after.seconds - before.seconds);
            }
            run.recordsPerSec =
                static_cast<double>(records) / run.wallSeconds;
            runs[index] = std::move(run);
        }
    });
    double sweep_wall =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      sweep_start)
            .count();
    for (unsigned worker = 0; worker < workers; ++worker)
        mosaic::metrics().mergeFrom(shards[worker]);
    mosaic::metrics().set("bench/jobs", static_cast<double>(workers));

    double total_wall = 0.0;
    double total_records = 0.0;
    for (const auto &run : runs) {
        std::printf("%-12s %-6s %8.3fs  %12.0f records/sec\n",
                    run.platform.c_str(), run.layout.c_str(),
                    run.wallSeconds, run.recordsPerSec);
        total_wall += run.wallSeconds;
        total_records += static_cast<double>(records);
    }

    double aggregate_rps = total_records / total_wall;
    const double host_hz = calibrateHostHz();
    const double aggregate_cycles =
        host_hz > 0.0 ? host_hz / aggregate_rps : 0.0;
    std::printf("aggregate: %.3fs replay time, %.0f records/sec "
                "(%u job(s), sweep wall %.3fs)\n",
                total_wall, aggregate_rps, workers, sweep_wall);
    if (host_hz > 0.0) {
        std::printf("host: %.1f cycles/record at %.3f GHz (TSC)\n",
                    aggregate_cycles, host_hz / 1e9);
    }

    // ---- Paged stage: the demand-paging replay path (bounded FIFO
    // frame pool) over each platform's all4k cell. A separate stage
    // and JSON block by design: the unbounded sweep above runs the
    // untouched hot loop (its aggregate gate is what guards "paging
    // costs nothing when off"), while this block tracks the paged
    // path's own throughput trajectory. Frames default to half the
    // footprint's 4K pages so the pool thrashes enough to exercise
    // the fault/evict/writeback machinery every rep. ----
    struct PagedRun
    {
        std::string platform;
        std::uint64_t frames = 0;
        double wallSeconds = 0.0;
        double recordsPerSec = 0.0;
        cpu::RunResult result;
    };
    std::vector<PagedRun> paged_runs;
    double paged_wall = 0.0, paged_records = 0.0;
    const std::uint64_t paged_frames = std::stoull(getOpt(
        argc, argv, "--paged-frames",
        std::to_string(footprint / 4096 / 2).c_str()));
    if (paged_frames > 0) {
        vm::OsConfig os;
        os.memFrames = paged_frames;
        os.policy = vm::ReplacementPolicyKind::Fifo;
        for (const auto &cell : cells) {
            if (std::strcmp(cell.mosaic->name, "all4k") != 0)
                continue;
            PagedRun run;
            run.platform = cell.platform->name;
            run.frames = paged_frames;
            run.wallSeconds = 1e300;
            for (int rep = 0; rep < reps; ++rep) {
                auto t0 = std::chrono::steady_clock::now();
                run.result = cpu::simulateRun(
                    *cell.platform, cell.allocConfig, cell.trace, os);
                double seconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     t0)
                                     .count();
                run.wallSeconds = std::min(run.wallSeconds, seconds);
            }
            run.recordsPerSec =
                static_cast<double>(records) / run.wallSeconds;
            std::printf("%-12s paged(%llu frames) %6.3fs  "
                        "%12.0f records/sec  (S=%llu, faults=%llu)\n",
                        run.platform.c_str(),
                        static_cast<unsigned long long>(run.frames),
                        run.wallSeconds, run.recordsPerSec,
                        static_cast<unsigned long long>(
                            run.result.swapCycles),
                        static_cast<unsigned long long>(
                            run.result.majorFaults));
            paged_wall += run.wallSeconds;
            paged_records += static_cast<double>(records);
            paged_runs.push_back(std::move(run));
        }
        if (!paged_runs.empty()) {
            std::printf("paged aggregate: %.3fs replay time, "
                        "%.0f records/sec\n",
                        paged_wall, paged_records / paged_wall);
        }
    }

    // ---- Sampled stage: the interval-sampling pipeline over each
    // platform's all4k cell. Like the paged stage, a separate block
    // outside the unbounded sweep: what it tracks is the *effective*
    // throughput of partial replay — full-trace records covered per
    // second of sampled replay — plus the plan's reported error bound
    // and the measured speedup over the full sequential replay of the
    // same cell. ----
    struct SampledBenchRun
    {
        std::string platform;
        double wallSeconds = 0.0;
        double effectiveRecordsPerSec = 0.0;
        double estErr = 0.0;
        double speedupVsFull = 0.0;
        std::uint64_t recordsReplayed = 0;
    };
    std::vector<SampledBenchRun> sampled_runs;
    double sampled_wall = 0.0, sampled_trace_records = 0.0;
    double sampled_replay_fraction = 0.0;
    sampling::SamplingConfig sample_config;
    sample_config.mode = sampling::SampleMode::Interval;
    sample_config.clusters = static_cast<std::uint32_t>(std::stoul(
        getOpt(argc, argv, "--sample-clusters", "8")));
    sample_config.intervalRecords = std::stoull(
        getOpt(argc, argv, "--sample-interval", "16384"));
    sample_config.warmupRecords = std::stoull(
        getOpt(argc, argv, "--sample-warmup", "4096"));
    if (sample_config.clusters > 0) {
        // The plan reads only the trace (layout- and platform-
        // independent), and every cell traces the same synthetic
        // stream: one plan serves the whole stage.
        const sampling::SamplePlan plan =
            sampling::buildSamplePlan(cells[0].trace, sample_config);
        for (const auto &cell : cells) {
            if (std::strcmp(cell.mosaic->name, "all4k") != 0)
                continue;
            SampledBenchRun run;
            run.platform = cell.platform->name;
            run.wallSeconds = 1e300;
            sampling::SampledEstimate estimate;
            for (int rep = 0; rep < reps; ++rep) {
                auto t0 = std::chrono::steady_clock::now();
                estimate = sampling::simulateSampled(
                    *cell.platform, cell.allocConfig, cell.trace,
                    plan);
                double seconds = std::chrono::duration<double>(
                                     std::chrono::steady_clock::now() -
                                     t0)
                                     .count();
                run.wallSeconds = std::min(run.wallSeconds, seconds);
            }
            run.effectiveRecordsPerSec =
                static_cast<double>(records) / run.wallSeconds;
            run.estErr = estimate.estErr;
            run.recordsReplayed = estimate.recordsReplayed;
            // The sequential sweep above timed this exact cell's full
            // replay; the ratio is the sampled stage's headline.
            for (const auto &full : runs) {
                if (full.platform == run.platform &&
                    full.layout == "all4k") {
                    run.speedupVsFull =
                        full.wallSeconds / run.wallSeconds;
                    break;
                }
            }
            std::printf("%-12s sampled(%llu/%llu records) %6.3fs  "
                        "%12.0f eff records/sec  (%.2fx vs full, "
                        "est_err=%.4f)\n",
                        run.platform.c_str(),
                        static_cast<unsigned long long>(
                            run.recordsReplayed),
                        static_cast<unsigned long long>(records),
                        run.wallSeconds, run.effectiveRecordsPerSec,
                        run.speedupVsFull, run.estErr);
            sampled_wall += run.wallSeconds;
            sampled_trace_records += static_cast<double>(records);
            sampled_runs.push_back(std::move(run));
        }
        sampled_replay_fraction = plan.replayFraction();
        if (!sampled_runs.empty()) {
            std::printf("sampled aggregate: %.3fs replay time, %.0f "
                        "eff records/sec (replay fraction %.3f)\n",
                        sampled_wall,
                        sampled_trace_records / sampled_wall,
                        sampled_replay_fraction);
        }
    }

    double base_rps = 0.0, base_wall = 0.0;
    bool have_baseline = false;
    if (!baseline_path.empty()) {
        std::ifstream in(baseline_path);
        std::stringstream buffer;
        buffer << in.rdbuf();
        std::string text = buffer.str();
        have_baseline =
            extractNumber(text, "aggregate", "records_per_sec",
                          base_rps) &&
            extractNumber(text, "aggregate", "wall_seconds", base_wall);
        if (!have_baseline) {
            std::fprintf(stderr,
                         "warn: no aggregate numbers found in %s\n",
                         baseline_path.c_str());
        }
    }

    std::ostringstream json;
    json << "{\n";
    json << "  \"schema\": \"mosaic-replay-bench/5\",\n";
    json << "  \"records\": " << records << ",\n";
    json << "  \"reps\": " << reps << ",\n";
    json << "  \"jobs\": " << workers << ",\n";
    json << "  \"footprint_bytes\": " << footprint << ",\n";
    json << "  \"runs\": [\n";
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const auto &run = runs[i];
        const auto &r = run.result;
        json << "    {\"platform\": \"" << run.platform
             << "\", \"layout\": \"" << run.layout << "\",\n";
        char line[256];
        std::snprintf(line, sizeof line,
                      "     \"wall_seconds\": %.6f, "
                      "\"records_per_sec\": %.1f, "
                      "\"host_cycles_per_record\": %.1f,\n",
                      run.wallSeconds, run.recordsPerSec,
                      host_hz > 0.0 ? host_hz / run.recordsPerSec
                                    : 0.0);
        json << line;
        json << "     \"counters\": {\"r\": " << r.runtimeCycles
             << ", \"h\": " << r.tlbHitsL2 << ", \"m\": " << r.tlbMisses
             << ", \"c\": " << r.walkCycles
             << ", \"l1_tlb_hits\": " << r.l1TlbHits
             << ", \"walker_queue\": " << r.walkerQueueCycles << "},\n";
        json << "     \"cache_loads\": {\"prog_l1\": " << r.progL1dLoads
             << ", \"prog_l2\": " << r.progL2Loads
             << ", \"prog_l3\": " << r.progL3Loads
             << ", \"prog_dram\": " << r.progDramLoads
             << ", \"walk_l1\": " << r.walkL1dLoads
             << ", \"walk_l2\": " << r.walkL2Loads
             << ", \"walk_l3\": " << r.walkL3Loads
             << ", \"walk_dram\": " << r.walkDramLoads << "}}"
             << (i + 1 < runs.size() ? "," : "") << "\n";
    }
    json << "  ],\n";
    if (!paged_runs.empty()) {
        json << "  \"paged_runs\": [\n";
        for (std::size_t i = 0; i < paged_runs.size(); ++i) {
            const auto &run = paged_runs[i];
            const auto &r = run.result;
            char line[256];
            std::snprintf(line, sizeof line,
                          "    {\"platform\": \"%s\", "
                          "\"layout\": \"all4k\", \"frames\": %llu, "
                          "\"wall_seconds\": %.6f, "
                          "\"records_per_sec\": %.1f,\n",
                          run.platform.c_str(),
                          static_cast<unsigned long long>(run.frames),
                          run.wallSeconds, run.recordsPerSec);
            json << line;
            json << "     \"counters\": {\"r\": " << r.runtimeCycles
                 << ", \"h\": " << r.tlbHitsL2
                 << ", \"m\": " << r.tlbMisses
                 << ", \"c\": " << r.walkCycles
                 << ", \"s\": " << r.swapCycles
                 << ", \"major_faults\": " << r.majorFaults
                 << ", \"evictions\": " << r.evictions
                 << ", \"writebacks\": " << r.writebacks << "}}"
                 << (i + 1 < paged_runs.size() ? "," : "") << "\n";
        }
        json << "  ],\n";
        char pagedagg[192];
        std::snprintf(pagedagg, sizeof pagedagg,
                      "  \"paged\": {\"frames\": %llu, "
                      "\"wall_seconds\": %.6f, "
                      "\"records_per_sec\": %.1f},\n",
                      static_cast<unsigned long long>(paged_frames),
                      paged_wall, paged_records / paged_wall);
        json << pagedagg;
    }
    if (!sampled_runs.empty()) {
        json << "  \"sampled_runs\": [\n";
        for (std::size_t i = 0; i < sampled_runs.size(); ++i) {
            const auto &run = sampled_runs[i];
            char line[320];
            std::snprintf(line, sizeof line,
                          "    {\"platform\": \"%s\", "
                          "\"layout\": \"all4k\", "
                          "\"wall_seconds\": %.6f, "
                          "\"effective_records_per_sec\": %.1f, "
                          "\"records_replayed\": %llu, "
                          "\"est_err\": %.6f, "
                          "\"speedup_vs_full\": %.3f}%s\n",
                          run.platform.c_str(), run.wallSeconds,
                          run.effectiveRecordsPerSec,
                          static_cast<unsigned long long>(
                              run.recordsReplayed),
                          run.estErr, run.speedupVsFull,
                          i + 1 < sampled_runs.size() ? "," : "");
            json << line;
        }
        json << "  ],\n";
        char sampledagg[320];
        std::snprintf(
            sampledagg, sizeof sampledagg,
            "  \"sampled\": {\"interval_records\": %llu, "
            "\"clusters\": %u, \"warmup_records\": %llu, "
            "\"replay_fraction\": %.4f, "
            "\"wall_seconds\": %.6f, "
            "\"effective_records_per_sec\": %.1f},\n",
            static_cast<unsigned long long>(
                sample_config.intervalRecords),
            sample_config.clusters,
            static_cast<unsigned long long>(
                sample_config.warmupRecords),
            sampled_replay_fraction, sampled_wall,
            sampled_trace_records / sampled_wall);
        json << sampledagg;
    }
    // host_cycles_per_record is in nominal TSC cycles (see
    // calibrateHostHz); 0 means "rate unknown" and regression gates
    // skip the cycle checks rather than compare garbage.
    char agg[384];
    std::snprintf(agg, sizeof agg,
                  "  \"aggregate\": {\"wall_seconds\": %.6f, "
                  "\"records_per_sec\": %.1f, "
                  "\"sweep_wall_seconds\": %.6f, "
                  "\"host_cycles_per_record\": %.1f, "
                  "\"host_tsc_ghz\": %.3f}",
                  total_wall, aggregate_rps, sweep_wall,
                  aggregate_cycles, host_hz / 1e9);
    json << agg;
    if (have_baseline) {
        char base[512];
        std::snprintf(base, sizeof base,
                      ",\n  \"baseline\": {\"wall_seconds\": %.6f, "
                      "\"records_per_sec\": %.1f, \"source\": \"%s\"},\n"
                      "  \"speedup_vs_baseline\": %.3f",
                      base_wall, base_rps, baseline_source.c_str(),
                      base_rps > 0 ? aggregate_rps / base_rps : 0.0);
        json << base;
        if (base_rps > 0) {
            std::printf("speedup vs baseline (%s): %.3fx\n",
                        baseline_source.c_str(), aggregate_rps / base_rps);
        }
    }
    json << "\n}\n";

    std::ofstream out(out_path);
    out << json.str();
    out.close();
    std::printf("wrote %s\n", out_path.c_str());

    const std::string metrics_out =
        getOpt(argc, argv, "--metrics-out", "");
    if (!metrics_out.empty()) {
        mosaic::RunManifest manifest("replay_bench");
        manifest.setConfig("records", records);
        manifest.setConfig("reps", static_cast<std::uint64_t>(reps));
        manifest.setConfig("jobs", static_cast<std::uint64_t>(workers));
        manifest.setConfig("footprint_bytes", footprint);
        manifest.setConfig("out", out_path);
        auto written = manifest.write(metrics_out, mosaic::metrics());
        if (!written.ok()) {
            std::fprintf(stderr,
                         "warn: cannot write metrics manifest %s: %s\n",
                         metrics_out.c_str(),
                         written.error().str().c_str());
        } else {
            std::printf("wrote %s\n", metrics_out.c_str());
        }
    }
    return 0;
}
