#!/bin/sh
# mosaic_fit and mosaic_export report a dataset in which a pair lacks
# one of its uniform reference layouts as a config error: exit 1 and
# one stderr line naming the pair, not an assertion panic.
#
# usage: missing_reference.sh TOOL DATASET_CSV
set -u
bin=$1
csv=$2
tmp=$(mktemp -d "${TMPDIR:-/tmp}/missing_reference.XXXXXX") || exit 1
trap 'rm -rf "$tmp"' EXIT

# SandyBridge/spec06/mcf without its all-4KB run (layout grow-0).
grep -v '^SandyBridge,spec06/mcf,grow-0,' "$csv" >"$tmp/no_4k.csv"
if cmp -s "$csv" "$tmp/no_4k.csv"; then
    echo "FAIL: no row removed"
    exit 1
fi

# Run from the temporary directory: mosaic_export's default --outdir is
# relative to it.
err=$(cd "$tmp" && timeout 60 "$bin" --dataset "$tmp/no_4k.csv" 2>&1 \
    >/dev/null)
code=$?
lines=$(printf '%s\n' "$err" | wc -l)
case "$err" in
*": config error: missing uniform reference layouts for SandyBridge/spec06/mcf")
    named=1 ;;
*) named=0 ;;
esac
if [ "$code" -ne 1 ] || [ "$lines" -ne 1 ] || [ "$named" -ne 1 ]; then
    echo "FAIL: $(basename "$bin") -> exit $code, stderr: $err"
    exit 1
fi
