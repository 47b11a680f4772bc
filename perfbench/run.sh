#!/usr/bin/env bash
# Builds perfbench from the gompi checkout it is started in and runs it with
# the given arguments. Run it from the checkout's root:
#
#   bash perfbench/run.sh --workload p2p-sm --seed 1 --seconds 10 --trace 0
#
# Everything it builds or writes stays under .bench_build/ in the checkout.
set -euo pipefail

root=$(pwd)
if [[ ! -f "$root/go.mod" || ! -f "$root/perfbench/go.mod" ]]; then
	echo "perfbench: run from the root of a gompi checkout" >&2
	exit 2
fi
mkdir -p "$root/.bench_build"
export GOCACHE="$root/.bench_build/gocache"
export GOPATH="$root/.bench_build/gopath"
export GOPROXY=off
export GOTOOLCHAIN=local
export GOFLAGS=-buildvcs=false

bin="$root/.bench_build/perfbench-bin"
(cd "$root/perfbench" && go build -o "$bin" .)
PERFBENCH_COMMIT=$(git -C "$root" rev-parse HEAD 2>/dev/null || echo unknown) exec "$bin" "$@"
