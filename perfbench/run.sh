#!/usr/bin/env bash
# Builds ecfbench and the benchmark from the checkout in the current
# directory, then runs the benchmark with the given arguments, e.g.
#
#   bash perfbench/run.sh --workload web --seed 1 --seconds 38 --trace 0
#   bash perfbench/run.sh record --workloads web,catalog-cold --runs 10 --out rec.json
#
# Everything the build and the runs write stays under .bench_build/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/bin" "$build/tmp" "$build/config"
export GOCACHE="$build/gocache" GOPATH="$build/gopath" GOTMPDIR="$build/tmp" TMPDIR="$build/tmp"
export XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOSUMDB=off

go build -o "$build/bin/ecfbench" ./cmd/ecfbench >&2
(cd perfbench && go build -o "$build/bin/perfbench" .) >&2

if [ "${1:-}" = record ]; then
	shift
	exec "$build/bin/perfbench" record -bin "$build/bin" "$@"
fi
exec "$build/bin/perfbench" -bin "$build/bin" -work "$build/runs" "$@"
