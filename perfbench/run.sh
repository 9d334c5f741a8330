#!/usr/bin/env bash
# Builds perfbench from the sources in this checkout and runs it with
# the given arguments. Run it from the repository root:
#
#   bash perfbench/run.sh --workload open-warm --seed 1 --seconds 20 --trace 0
#
# Everything the build and the run write stays under .bench_build (or
# $CARGO_TARGET_DIR when set): the Go build cache, the binary and the
# traced runs' spans.
set -euo pipefail

root=$(pwd)
if [ ! -f "$root/go.mod" ] || [ ! -f "$root/perfbench/go.mod" ]; then
	echo "perfbench: run from the repository root (go.mod and perfbench/go.mod not found)" >&2
	exit 2
fi
out=${CARGO_TARGET_DIR:-.bench_build}
case "$out" in
/*) ;;
*) out="$root/$out" ;;
esac
mkdir -p "$out/tmp"

export GOCACHE="$out/gocache"
export GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOPATH="$out/gopath"
export GOTOOLCHAIN=local
export XDG_CONFIG_HOME="$out/config"

(cd "$root/perfbench" && go build -o "$out/perfbench" .)
exec "$out/perfbench" -trace-dir "$out/traces" "$@"
