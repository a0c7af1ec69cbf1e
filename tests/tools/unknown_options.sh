#!/bin/sh
# Every command-line tool refuses an option it does not read: it exits
# 2 and prints one line naming the option, before doing any work.
#
# usage: unknown_options.sh TOOL_DIR
set -u
tools=$1
failed=0

# expect_rejected OPTION TOOL ARG...: TOOL ARG... must exit 2 with
# exactly one stderr line, and that line must name OPTION.
expect_rejected() {
    option=$1
    shift
    err=$("$tools/$@" 2>&1 >/dev/null)
    code=$?
    lines=$(printf '%s\n' "$err" | wc -l)
    case "$err" in
    *"unknown option $option") named=1 ;;
    *) named=0 ;;
    esac
    if [ "$code" -ne 2 ] || [ "$lines" -ne 1 ] || [ "$named" -ne 1 ]; then
        echo "FAIL: $* -> exit $code, stderr: $err"
        failed=1
    fi
}

expect_rejected --jbos mosaic_campaign --workloads gups/8GB \
    --platforms SandyBridge --jbos 4 --sample-mdoe interval
expect_rejected --trace-cahce mosaic_campaign --workloads none/none \
    --resume --trace-cahce tc
expect_rejected --jbos mosaic_run --workload gups/8GB \
    --platform SandyBridge --jbos 2
expect_rejected --dataest mosaic_fit --dataest x.csv
expect_rejected --outt mosaic_merge --outt x.csv shard.csv
expect_rejected --outdri mosaic_export --outdri plots
# A missing dataset makes the daemon exit even if the option slipped
# through, instead of serving forever.
expect_rejected --portt mosaic_serve --dataset missing.csv --portt 0
expect_rejected --client serve_loadgen --port 1 --client 8

exit $failed
