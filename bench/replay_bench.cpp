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
 *                [--paged-frames N] [--out BENCH_replay.json]
 *                [--quick] [--metrics-out FILE]
 *
 * The (platform, layout) cells replay one after another on one
 * thread, so every per-cell number measures the single-thread inner
 * loop. Parallel replay, sampled replay and whole campaigns are
 * measured end to end by perfbench (perfbench/run.py).
 *
 * --paged-frames sizes the paged stage's bounded FIFO frame pool
 * (default: half the footprint's 4K pages; 0 disables the stage).
 * The stage replays each platform's all4k cell through the
 * demand-paging path and emits a separate "paged" JSON block, so the
 * OS layer's throughput is tracked without perturbing the unbounded
 * aggregate the hot-path gate reads.
 *
 * --metrics-out additionally dumps the shared metrics registry (the
 * same replay phases and counters the campaign reports through) as a
 * JSON run manifest.
 *
 * Exit status: 0 on success, 1 when the JSON cannot be written, 2 on
 * an unknown option or a malformed value.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#if defined(__x86_64__) || defined(_M_X64)
#include <x86intrin.h>
#endif

#include "cpu/platform.hh"
#include "cpu/system.hh"
#include "mosalloc/mosalloc.hh"
#include "support/io_util.hh"
#include "support/logging.hh"
#include "support/metrics.hh"
#include "tools/cli_common.hh"
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

int
benchMain(int argc, char **argv)
{
    constexpr const char *tool = "replay_bench";
    const auto args =
        cli::parseArgs(tool, argc, argv,
                       {"records", "reps", "footprint-mb", "paged-frames",
                        "out", "quick", "metrics-out"});
    const bool quick = args.has("quick");
    const std::uint64_t records = cli::unwrapOrDie(
        tool, cli::unsignedOption(args, "records",
                                  quick ? 200000 : 2000000, 1));
    const std::uint64_t reps = cli::unwrapOrDie(
        tool, cli::unsignedOption(args, "reps", quick ? 2 : 3, 1));
    const Bytes footprint_mb = cli::unwrapOrDie(
        tool, cli::unsignedOption(args, "footprint-mb", 64, 1, 1 << 20));
    const std::string out_path = args.get("out", "BENCH_replay.json");

    const Bytes footprint = footprint_mb * 1_MiB;
    const Bytes pool = alignUp(footprint + 4_MiB, 1_GiB);
    const std::uint64_t paged_frames = cli::unwrapOrDie(
        tool, cli::unsignedOption(args, "paged-frames",
                                  footprint / 4096 / 2));

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

    // Build every grid cell first: each owns its allocator config and
    // trace, which the sweep and then the paged stage replay.
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

    std::vector<BenchRun> runs;
    for (const BenchCell &cell : cells) {
        // Rebuild the allocation deterministically: same config, same
        // malloc, same base the trace targets.
        alloc::Mosalloc allocator(cell.allocConfig);
        VirtAddr base = allocator.malloc(footprint);
        mosaic_assert(base == cell.base, "allocator no longer deterministic");

        BenchRun run;
        run.platform = cell.platform->name;
        run.layout = cell.mosaic->name;
        run.wallSeconds = 1e300;
        for (std::uint64_t rep = 0; rep < reps; ++rep) {
            // Fresh machine per rep: cold TLBs and caches, so every rep
            // replays the identical work. Wall time comes from the
            // metrics registry — System::run publishes each replay into
            // the "replay/run" phase — so the bench and --metrics-out
            // report from one source instead of ad-hoc counters.
            cpu::System system(*cell.platform, allocator);
            PhaseStats before = metrics().phase("replay/run");
            run.result = system.run(cell.trace);
            PhaseStats after = metrics().phase("replay/run");
            run.wallSeconds =
                std::min(run.wallSeconds, after.seconds - before.seconds);
        }
        run.recordsPerSec = static_cast<double>(records) / run.wallSeconds;
        runs.push_back(std::move(run));
    }

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
    std::printf("aggregate: %.3fs replay time, %.0f records/sec\n",
                total_wall, aggregate_rps);
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
            for (std::uint64_t rep = 0; rep < reps; ++rep) {
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

    std::ostringstream json;
    json << "{\n";
    json << "  \"schema\": \"mosaic-replay-bench/6\",\n";
    json << "  \"records\": " << records << ",\n";
    json << "  \"reps\": " << reps << ",\n";
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
    // host_cycles_per_record is in nominal TSC cycles (see
    // calibrateHostHz); 0 means "rate unknown" and regression gates
    // skip the cycle checks rather than compare garbage.
    char agg[256];
    std::snprintf(agg, sizeof agg,
                  "  \"aggregate\": {\"wall_seconds\": %.6f, "
                  "\"records_per_sec\": %.1f, "
                  "\"host_cycles_per_record\": %.1f, "
                  "\"host_tsc_ghz\": %.3f}\n}\n",
                  total_wall, aggregate_rps, aggregate_cycles,
                  host_hz / 1e9);
    json << agg;

    // A lost result must fail here, not later at the gate that reads
    // it.
    auto written = writeFileAtomic(out_path, json.str());
    if (!written.ok()) {
        std::fprintf(stderr, "%s: %s\n", tool,
                     written.error().str().c_str());
        return 1;
    }
    std::printf("wrote %s\n", out_path.c_str());

    RunManifest manifest(tool);
    manifest.setConfig("records", records);
    manifest.setConfig("reps", reps);
    manifest.setConfig("footprint_bytes", footprint);
    manifest.setConfig("out", out_path);
    cli::writeManifestIfRequested(args, manifest);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return mosaic::cli::runGuarded("replay_bench",
                                   [&] { return benchMain(argc, argv); });
}
