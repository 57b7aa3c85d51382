#!/usr/bin/env bash
# bench/run.sh — build and run sunmap's end-to-end benchmark.
#
#   bench/run.sh                      every workload, seed 1, untraced then
#                                     traced; prints each metric by name and
#                                     unit and writes bench/out/*.json
#   bench/run.sh -workload <name> -seed <n> -seconds <s> -trace <0|1>
#                                     one run (double-dash flags work too)
#   bench/run.sh -update              regenerate bench/expected/digests.json
#
# Run it from the repository root. The Go build cache, module cache and
# binary live under $CARGO_TARGET_DIR (default .bench_build), so a run
# writes nothing outside the checkout.
set -euo pipefail

root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
build="${CARGO_TARGET_DIR:-.bench_build}"
case "$build" in /*) ;; *) build="$root/$build" ;; esac
mkdir -p "$build"
export GOCACHE="$build/go-cache" GOMODCACHE="$build/go-mod" GOPATH="$build/go-path" \
	XDG_CONFIG_HOME="$build/config" GOTOOLCHAIN=local GOFLAGS= GOWORK=off
go build -C "$root/bench" -o "$build/sunmap-bench" .

cd "$root"
if [ $# -gt 0 ]; then
	exec "$build/sunmap-bench" "$@"
fi
for trace in 0 1; do
	for w in select-cold serve-warm search-jobs fault-sim; do
		"$build/sunmap-bench" -workload "$w" -seed 1 -trace "$trace"
	done
done
