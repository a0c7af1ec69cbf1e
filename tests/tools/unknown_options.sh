#!/bin/sh
# Every command-line tool refuses an option it does not read, a word
# that is no option's value, an unknown platform name or workload
# label, a campaign configuration no runner can honor, and a campaign
# --out or export --outdir it could not write: it exits 2 and prints
# one line naming the problem, before doing any work.
#
# usage: unknown_options.sh TOOL_DIR BENCH_DIR
set -u
tools=$1
bench=$2
failed=0

# expect_error TEXT TOOL ARG...: TOOL (from TOOL_DIR, else BENCH_DIR)
# ARG... must exit 2 with exactly one stderr line, and that line must
# end with TEXT.
expect_error() {
    text=$1
    shift
    bin=$tools/$1
    [ -x "$bin" ] || bin=$bench/$1
    shift
    err=$("$bin" "$@" 2>&1 >/dev/null)
    code=$?
    lines=$(printf '%s\n' "$err" | wc -l)
    case "$err" in
    *"$text") named=1 ;;
    *) named=0 ;;
    esac
    if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$named" -ne 1 ]; then
        echo "FAIL: $* -> exit $code, stderr: $err"
        failed=1
    fi
}

# expect_rejected OPTION TOOL ARG...: the unknown OPTION is named.
expect_rejected() {
    option=$1
    shift
    expect_error "unknown option $option" "$@"
}

expect_rejected --jbos mosaic_campaign --workloads gups/8GB \
    --platforms SandyBridge --jbos 4 --sample-mdoe interval
expect_rejected --trace-cahce mosaic_campaign --workloads none/none \
    --resume --trace-cahce tc
expect_rejected --jbos mosaic_run --workload gups/8GB \
    --platform SandyBridge --jbos 2
expect_rejected --dataest mosaic_fit --dataest x.csv
expect_rejected --outdri mosaic_export --outdri plots
# mosaic_paper takes no option: it prints every artifact.
expect_rejected --artifact mosaic_paper --artifact fig3
# A missing dataset makes the daemon exit even if the option slipped
# through, instead of serving forever.
expect_rejected --portt mosaic_serve --dataset missing.csv --portt 0
# A misspelled or deleted bench option (the sampled stage's among
# them) or a non-numeric value must not run a default bench.
expect_rejected --recrods replay_bench --quick --recrods 5
expect_rejected --sample-clusters replay_bench --quick \
    --sample-clusters 8
expect_error 'expected an unsigned integer, got "abc"' replay_bench \
    --records abc

expect_error "unknown platform 'Cray-1'" mosaic_campaign \
    --workloads gups/8GB --platforms SandyBridge,Cray-1
expect_error "unknown platform 'Cray-1'" mosaic_run \
    --workload gups/8GB --platform Cray-1
expect_error "config error: unknown workload 'nope/none'" \
    mosaic_campaign --workloads nope/none
expect_error "config error: unknown workload 'nope/none'" mosaic_run \
    --workload nope/none --platform SandyBridge
# A --curves item is a known workload:platform pair, never dropped.
expect_error "--curves: expected workload:platform, got 'spec06/mcf'" \
    mosaic_export --curves spec06/mcf
expect_error "unknown platform 'Sandybridge'" mosaic_export \
    --curves spec06/mcf:Sandybridge
expect_error "incompatible with co-workload interference" \
    mosaic_campaign --workloads gups/8GB --co-workload gups/16GB \
    --mem-frames 4096 --sample-mode interval
expect_error "requires a bounded frame pool (--mem-frames > 0)" \
    mosaic_campaign --workloads gups/8GB --co-workload gups/16GB
# Campaigns have no sharding and no jobs alias, and a stray word is
# refused: a forgotten --platforms must not run every platform.
expect_rejected --shard mosaic_campaign --workloads gups/8GB \
    --co-workload gups/16GB --mem-frames 4096 --shard 0/2
expect_rejected --threads mosaic_campaign --workloads gups/8GB \
    --threads 2
expect_error "unexpected argument 'SandyBridge'" mosaic_campaign \
    --workloads gups/8GB SandyBridge --no-1gb --jobs 4
# The dataset path is probed before the first cell, not after the last.
expect_error \
    "cannot write --out /no-such-dir/x.csv: No such file or directory" \
    mosaic_campaign --workloads gups/8GB,gups/16GB --jobs 2 \
    --out /no-such-dir/x.csv
expect_error \
    "cannot write --outdir /no-such-dir/plots: No such file or directory" \
    mosaic_export --outdir /no-such-dir/plots

exit $failed
