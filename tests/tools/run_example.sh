#!/bin/sh
# An example program runs to completion (exit 0) and leaves its
# working directory as it found it.
#
# usage: run_example.sh EXAMPLE
set -u
bin=$1
tmp=$(mktemp -d "${TMPDIR:-/tmp}/example.XXXXXX") || exit 1
trap 'rm -rf "$tmp"' EXIT

(cd "$tmp" && "$bin" >/dev/null)
code=$?
made=$(ls -A "$tmp")
if [ "$code" -ne 0 ] || [ -n "$made" ]; then
    echo "FAIL: $(basename "$bin") -> exit $code, files made: $made"
    exit 1
fi
