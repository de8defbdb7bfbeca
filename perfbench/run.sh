#!/usr/bin/env bash
# Builds rrqd and the benchmark program from the checkout this script sits
# in, then runs one workload. Run it from the repository root:
#
#   bash perfbench/run.sh --workload serve-zipf-3d --seed 1 --seconds 12 --trace 0
#
# Build outputs, the Go build cache and every file a run writes stay under
# .bench_build/ in the checkout. The last line of standard output is the
# run's JSON result; build chatter goes to standard error.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -d "$root/cmd/rrqd" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the repository root (needs go.mod, cmd/rrqd and perfbench/)" >&2
	exit 2
fi

out="$root/.bench_build"
mkdir -p "$out/home" "$out/tmp"
export GOCACHE="$out/gocache" GOMODCACHE="$out/gomod" GOTMPDIR="$out/tmp"
export GOTOOLCHAIN=local GOFLAGS=-buildvcs=false GOPROXY=off
export HOME="$out/home" XDG_CONFIG_HOME="$out/home" TMPDIR="$out/tmp"

go build -o "$out/rrqd" ./cmd/rrqd >&2
(cd perfbench && go build -o "$out/perfbench" .) >&2

exec "$out/perfbench" -rrqd "$out/rrqd" -work "$out/run" "$@"
