/**
 * @file
 * mosaic_campaign: run a (subset of the) measurement campaign from the
 * command line and write the dataset CSV.
 *
 * The campaign is fault-tolerant: failed cells are reported in a
 * summary instead of aborting the run, completed pairs are
 * checkpointed to the output CSV with atomic writes, and --resume
 * skips cells a previous (interrupted) run already covered.
 *
 * Cells are simulated by a parallel work-queue scheduler (--jobs N);
 * the CSV produced is byte-identical for any worker count.
 *
 * Examples:
 *   mosaic_campaign --out my_dataset.csv
 *   mosaic_campaign --workloads spec06/mcf,gups/8GB \
 *                   --platforms SandyBridge --jobs 4 --out mcf.csv
 *   mosaic_campaign --out big.csv --resume --trace-cache traces/
 *
 * Exit codes: 0 all cells completed, 2 usage error, 3 campaign
 * finished but some cells failed (the summary lists them).
 */

#include <cstdio>

#include "experiments/campaign.hh"
#include "support/io_util.hh"
#include "support/str.hh"
#include "tools/cli_common.hh"

namespace
{

constexpr const char *usageText =
    "usage: mosaic_campaign [--workloads a,b,...] [--platforms x,y]\n"
    "                       [--jobs N] [--no-1gb] [--out FILE]\n"
    "                       [--resume] [--trace-cache DIR]\n"
    "                       [--checkpoint-every N] [--max-retries N]\n"
    "                       [--shard I/N] [--cell-timeout SECONDS]\n"
    "                       [--mem-frames N] [--replacement POLICY]\n"
    "                       [--swap-cost CYCLES]\n"
    "                       [--writeback-cost CYCLES]\n"
    "                       [--co-workload LABEL]\n"
    "                       [--sample-mode off|interval]\n"
    "                       [--sample-interval N] [--sample-clusters K]\n"
    "                       [--sample-warmup N]\n"
    "                       [--metrics-out FILE]\n"
    "defaults: all 19 workloads, the paper's 3 platforms, jobs =\n"
    "          hardware concurrency, out = mosaic_dataset.csv,\n"
    "          checkpoint every pair\n"
    "--jobs picks the worker-thread count; the dataset CSV is\n"
    "byte-identical for any value (--threads is a deprecated alias).\n"
    "--resume keeps cells already present in --out instead of\n"
    "recomputing them; without it the output is rebuilt from scratch.\n"
    "--shard I/N runs only the cells the deterministic round-robin\n"
    "partition assigns to shard I (0-based) of N; the output CSV\n"
    "carries an embedded manifest so `mosaic_merge` can validate and\n"
    "splice the N shard CSVs into the byte-identical canonical\n"
    "dataset.\n"
    "--cell-timeout gives each cell a watchdog budget in seconds; a\n"
    "cell that exceeds it fails with a timeout error instead of\n"
    "hanging its worker (0 = off, the default).\n"
    "--mem-frames bounds physical memory to N 4KB frames per cell and\n"
    "simulates demand paging (0 = unbounded, the default — the CSV is\n"
    "then byte-identical to a classic run); bounded runs extend every\n"
    "row with the S (swap cycles) column. --replacement picks the\n"
    "eviction policy (fifo, lru, clock; default fifo); --swap-cost\n"
    "and --writeback-cost set the major-fault and dirty-writeback\n"
    "charge in cycles. --co-workload replays every cell against the\n"
    "named workload (all-4KB baseline) over one shared frame pool and\n"
    "records the primary tenant's counters under interference;\n"
    "requires --mem-frames > 0 and cannot be combined with --shard.\n"
    "--sample-mode interval replays only one representative interval\n"
    "per behavior cluster of each trace (plus a warmup prefix) and\n"
    "records cluster-weighted extrapolated counters, extending every\n"
    "row with the est_err column (the reported error bound).\n"
    "--sample-interval sets the interval length in trace records\n"
    "(default 16384), --sample-clusters the cluster count K (default\n"
    "8), --sample-warmup the per-segment warmup prefix in records\n"
    "(default 4096). The sampled CSV is byte-identical for any\n"
    "--jobs/--shard combination; --sample-mode off (the default)\n"
    "is byte-identical to a classic full-replay run.\n"
    "Incompatible with --co-workload.\n"
    "--metrics-out writes a JSON run manifest (config, per-phase\n"
    "timings, trace-cache/retry counters, failures) after the run.\n";

int
campaignMain(int argc, char **argv)
{
    using namespace mosaic;
    auto args = cli::parseArgs(
        "mosaic_campaign", argc, argv,
        {"help", "workloads", "platforms", "jobs", "threads", "no-1gb",
         "out", "resume", "trace-cache", "checkpoint-every",
         "max-retries", "shard", "cell-timeout", "mem-frames",
         "replacement", "swap-cost", "writeback-cost", "co-workload",
         "sample-mode", "sample-interval", "sample-clusters",
         "sample-warmup", "metrics-out"});
    if (args.has("help"))
        cli::usage(usageText);

    exp::CampaignConfig config;
    if (args.has("workloads")) {
        for (const auto &label :
             splitString(args.get("workloads"), ',')) {
            if (!trimString(label).empty())
                config.workloads.push_back(trimString(label));
        }
    }
    if (args.has("platforms")) {
        config.platforms.clear();
        for (const auto &name :
             splitString(args.get("platforms"), ',')) {
            if (!trimString(name).empty())
                config.platforms.push_back(
                    cpu::platformByName(trimString(name)));
        }
    }
    if (args.has("jobs"))
        config.jobs = static_cast<unsigned>(cli::unwrapOrDie(
            "mosaic_campaign",
            cli::parseUnsignedValue("jobs", args.get("jobs"), 1,
                                    4096)));
    else if (args.has("threads")) // deprecated alias, kept for scripts
        config.jobs = static_cast<unsigned>(cli::unwrapOrDie(
            "mosaic_campaign",
            cli::parseUnsignedValue("threads", args.get("threads"), 1,
                                    4096)));
    if (args.has("no-1gb"))
        config.include1g = false;
    if (args.has("trace-cache"))
        config.traceCacheDir = args.get("trace-cache");
    if (args.has("checkpoint-every"))
        config.checkpointEvery = cli::unwrapOrDie(
            "mosaic_campaign",
            cli::unsignedOption(args, "checkpoint-every", 0));
    if (args.has("max-retries"))
        config.retry.maxAttempts =
            1 + static_cast<unsigned>(cli::unwrapOrDie(
                    "mosaic_campaign",
                    cli::parseUnsignedValue(
                        "max-retries", args.get("max-retries"), 0,
                        100)));
    if (args.has("shard")) {
        const std::string spec = args.get("shard");
        auto slash = spec.find('/');
        std::uint64_t index = 0, count = 0;
        if (slash == std::string::npos ||
            !parseUnsignedFull(spec.substr(0, slash), index) ||
            !parseUnsignedFull(spec.substr(slash + 1), count) ||
            count == 0 || index >= count) {
            std::fprintf(stderr,
                         "mosaic_campaign: bad --shard '%s' (want "
                         "I/N with 0 <= I < N)\n",
                         spec.c_str());
            return 2;
        }
        config.shardIndex = static_cast<unsigned>(index);
        config.shardCount = static_cast<unsigned>(count);
    }
    if (args.has("cell-timeout"))
        config.cellTimeoutSeconds = cli::unwrapOrDie(
            "mosaic_campaign",
            cli::parseDoubleValue("cell-timeout",
                                  args.get("cell-timeout"), 0.0,
                                  86400.0));
    if (args.has("mem-frames"))
        config.os.memFrames = cli::unwrapOrDie(
            "mosaic_campaign",
            cli::parseUnsignedValue("mem-frames",
                                    args.get("mem-frames"), 0,
                                    1ull << 28));
    if (args.has("replacement"))
        config.os.policy = cli::unwrapOrDie(
            "mosaic_campaign",
            vm::parseReplacementPolicy(args.get("replacement")));
    if (args.has("swap-cost"))
        config.os.majorFaultCycles = cli::unwrapOrDie(
            "mosaic_campaign",
            cli::parseUnsignedValue("swap-cost", args.get("swap-cost"),
                                    0, 1ull << 32));
    if (args.has("writeback-cost"))
        config.os.writebackCycles = cli::unwrapOrDie(
            "mosaic_campaign",
            cli::parseUnsignedValue("writeback-cost",
                                    args.get("writeback-cost"), 0,
                                    1ull << 32));
    if (args.has("co-workload"))
        config.coWorkload = args.get("co-workload");
    if (args.has("sample-mode")) {
        auto mode = sampling::sampleModeFromName(
            trimString(args.get("sample-mode")));
        if (!mode) {
            std::fprintf(stderr,
                         "mosaic_campaign: bad --sample-mode '%s' "
                         "(want off or interval)\n",
                         args.get("sample-mode").c_str());
            return 2;
        }
        config.sampling.mode = *mode;
    }
    if (args.has("sample-interval")) {
        config.sampling.intervalRecords = cli::unwrapOrDie(
            "mosaic_campaign",
            cli::parseUnsignedValue("sample-interval",
                                    args.get("sample-interval"), 1,
                                    1ull << 32));
    }
    if (args.has("sample-clusters")) {
        config.sampling.clusters = static_cast<std::uint32_t>(
            cli::unwrapOrDie(
                "mosaic_campaign",
                cli::parseUnsignedValue("sample-clusters",
                                        args.get("sample-clusters"), 1,
                                        1ull << 20)));
    }
    if (args.has("sample-warmup")) {
        config.sampling.warmupRecords = cli::unwrapOrDie(
            "mosaic_campaign",
            cli::parseUnsignedValue("sample-warmup",
                                    args.get("sample-warmup"), 0,
                                    1ull << 32));
    }
    if (config.sampling.enabled() && !config.coWorkload.empty()) {
        std::fprintf(stderr,
                     "mosaic_campaign: --sample-mode interval cannot "
                     "be combined with --co-workload\n");
        return 2;
    }
    if (!config.coWorkload.empty() && !config.os.paged()) {
        std::fprintf(stderr,
                     "mosaic_campaign: --co-workload requires "
                     "--mem-frames > 0\n");
        return 2;
    }
    if (!config.coWorkload.empty() && config.shardCount > 1) {
        std::fprintf(stderr,
                     "mosaic_campaign: --co-workload cannot be "
                     "combined with --shard\n");
        return 2;
    }

    std::string out = args.get("out", exp::defaultDatasetPath());
    exp::CampaignRunner runner(config);
    if (!args.has("resume")) {
        // A fresh run must not resume from a stale file of the same
        // name.
        removeFileIfExists(out);
    }
    ScopedTimer total_timer(metrics(), "campaign/total");
    exp::CampaignReport report = runner.runReport(out);
    total_timer.stop();

    RunManifest manifest("mosaic_campaign");
    const auto &effective = runner.config();
    std::vector<std::string> platform_names;
    for (const auto &platform : effective.platforms)
        platform_names.push_back(platform.name);
    manifest.setConfig("out", out);
    manifest.setConfig("workloads", effective.workloads);
    manifest.setConfig("platforms", platform_names);
    manifest.setConfig("jobs",
                       static_cast<std::uint64_t>(
                           runner.effectiveJobs()));
    manifest.setConfig("include_1gb", effective.include1g);
    manifest.setConfig("seed", effective.seed);
    manifest.setConfig("resume", args.has("resume"));
    manifest.setConfig("trace_cache_dir", effective.traceCacheDir);
    manifest.setConfig("checkpoint_every",
                       static_cast<std::uint64_t>(
                           effective.checkpointEvery));
    manifest.setConfig("shard_index",
                       static_cast<std::uint64_t>(
                           effective.shardIndex));
    manifest.setConfig("shard_count",
                       static_cast<std::uint64_t>(
                           effective.shardCount));
    manifest.setConfig("cell_timeout_seconds",
                       std::to_string(effective.cellTimeoutSeconds));
    manifest.setConfig("mem_frames",
                       static_cast<std::uint64_t>(
                           effective.os.memFrames));
    manifest.setConfig("replacement",
                       std::string(vm::replacementPolicyName(
                           effective.os.policy)));
    manifest.setConfig("swap_cost",
                       static_cast<std::uint64_t>(
                           effective.os.majorFaultCycles));
    manifest.setConfig("writeback_cost",
                       static_cast<std::uint64_t>(
                           effective.os.writebackCycles));
    manifest.setConfig("co_workload", effective.coWorkload);
    manifest.setConfig("sample_mode",
                       std::string(sampling::sampleModeName(
                           effective.sampling.mode)));
    manifest.setConfig("sample_interval",
                       static_cast<std::uint64_t>(
                           effective.sampling.intervalRecords));
    manifest.setConfig("sample_clusters",
                       static_cast<std::uint64_t>(
                           effective.sampling.clusters));
    manifest.setConfig("sample_warmup",
                       static_cast<std::uint64_t>(
                           effective.sampling.warmupRecords));
    manifest.setConfig("sample_tag", effective.sampling.tag());
    for (const auto &failure : report.failures) {
        manifest.addFailure(failure.platform + "/" + failure.workload +
                                "/" + failure.layout,
                            failure.error.str());
    }
    cli::writeManifestIfRequested(args, manifest);

    std::printf("wrote %zu runs (%zu platforms x %zu workloads) to %s\n",
                report.dataset.totalRuns(),
                report.dataset.platforms().size(),
                report.dataset.workloads().size(), out.c_str());
    std::printf("%s", report.summary().c_str());
    return report.allOk() ? 0 : 3;
}

} // namespace

int
main(int argc, char **argv)
{
    return mosaic::cli::runGuarded(
        "mosaic_campaign", [&] { return campaignMain(argc, argv); });
}
