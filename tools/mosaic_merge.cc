/**
 * @file
 * mosaic_merge: validate and splice sharded campaign CSVs
 * (mosaic_campaign --shard i/N) into the canonical dataset.
 *
 * Each shard CSV carries an embedded manifest (cell counts, a config
 * hash of the campaign grid, a CRC32 over its rows, and the canonical
 * per-pair layout order). The merge verifies every shard — same
 * campaign, disjoint complete cells, intact rows — and emits a CSV
 * byte-identical to what a single unsharded campaign process writes.
 *
 * Degraded mode (--allow-missing-shards) tolerates absent, unreadable,
 * or incomplete shards: the cells that can be recovered are merged and
 * every missing cell is reported explicitly, so one lost shard costs
 * its own cells, never the whole campaign.
 *
 * Examples:
 *   mosaic_merge --out merged.csv shard0.csv shard1.csv
 *   mosaic_merge --out partial.csv --allow-missing-shards shard0.csv
 *
 * Exit codes: 0 merged completely, 1 validation/read failure,
 * 2 usage error, 3 degraded merge wrote a partial dataset (some
 * cells missing).
 */

#include <cstdio>
#include <string>
#include <vector>

#include "experiments/shard.hh"
#include "support/io_util.hh"
#include "tools/cli_common.hh"

namespace
{

constexpr const char *usageText =
    "usage: mosaic_merge --out FILE [--allow-missing-shards]\n"
    "                    [--metrics-out FILE] shard.csv [shard.csv...]\n"
    "Validates each shard CSV's embedded manifest (cell count, config\n"
    "hash, row CRC, layout order) and splices the shards into the\n"
    "canonical dataset CSV — byte-identical to an unsharded campaign.\n"
    "--allow-missing-shards merges whatever shards are valid and\n"
    "reports every missing cell instead of failing (exit 3 when any\n"
    "cell is missing).\n";

int
mergeMain(int argc, char **argv)
{
    using namespace mosaic;
    auto args = cli::parseArgs(
        "mosaic_merge", argc, argv,
        {"help", "out", "allow-missing-shards", "metrics-out"});
    const bool allow_missing = args.has("allow-missing-shards");
    // parseArgs greedily attaches the next bare word to any "--flag";
    // for this boolean flag that word is really the first shard path,
    // so hand it back to the positional list.
    if (std::string v = args.get("allow-missing-shards", "true");
        v != "true")
        args.positional.insert(args.positional.begin(), v);
    if (args.has("help") || !args.has("out") || args.positional.empty())
        cli::usage(usageText);
    const std::string out = args.get("out");

    std::vector<exp::ShardFile> shards;
    std::size_t shards_skipped = 0;
    for (const std::string &path : args.positional) {
        auto shard = exp::readShardFile(path);
        if (shard.ok()) {
            shards.push_back(std::move(shard).okOrThrow());
            continue;
        }
        if (!allow_missing) {
            std::fprintf(stderr, "mosaic_merge: %s\n",
                         shard.error().str().c_str());
            return 1;
        }
        // Degraded: one bad shard costs its own cells only.
        ++shards_skipped;
        metrics().add("merge/shards_skipped");
        std::fprintf(stderr,
                     "mosaic_merge: skipping shard %s (%s)\n",
                     path.c_str(), shard.error().str().c_str());
    }
    if (shards.empty()) {
        std::fprintf(stderr,
                     "mosaic_merge: no usable shard CSVs given\n");
        return 1;
    }

    auto merged = exp::mergeShards(shards, allow_missing);
    if (!merged.ok()) {
        std::fprintf(stderr, "mosaic_merge: %s\n",
                     merged.error().str().c_str());
        return 1;
    }
    const exp::MergeOutcome &outcome = merged.value();

    if (auto written = writeFileAtomic(out, outcome.csv);
        !written.ok()) {
        std::fprintf(stderr, "mosaic_merge: %s\n",
                     written.error().str().c_str());
        return 1;
    }

    metrics().add("merge/rows_merged", outcome.rowsMerged);
    metrics().add("merge/cells_missing", outcome.missing.size());

    RunManifest manifest("mosaic_merge");
    manifest.setConfig("out", out);
    manifest.setConfig("shards", args.positional);
    manifest.setConfig("allow_missing_shards", allow_missing);
    for (const auto &cell : outcome.missing) {
        manifest.addFailure(cell.platform + "/" + cell.workload + "/" +
                                cell.layout,
                            "cell missing from every merged shard");
    }
    cli::writeManifestIfRequested(args, manifest);

    std::printf("merged %zu row(s) from %zu shard(s) into %s\n",
                outcome.rowsMerged, shards.size(), out.c_str());
    if (!outcome.missing.empty()) {
        std::printf("missing %zu cell(s)", outcome.missing.size());
        if (shards_skipped > 0)
            std::printf(" (%zu shard(s) skipped)", shards_skipped);
        std::printf(":\n");
        for (const auto &cell : outcome.missing) {
            std::printf("  %s/%s/%s\n", cell.platform.c_str(),
                        cell.workload.c_str(), cell.layout.c_str());
        }
        return 3;
    }
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    return mosaic::cli::runGuarded(
        "mosaic_merge", [&] { return mergeMain(argc, argv); });
}
