#!/usr/bin/env bash
# scripts/bench_compare.sh — compare this checkout's end-to-end benchmark
# against a parent revision's, with bench/run.sh's -compare rule.
#
# Usage:
#   scripts/bench_compare.sh <parent-rev> [workload...]
#
# The parent is checked out in a temporary git worktree under
# .bench_build/, removed on exit. Each workload (default: all four) runs
# 10 seed-paired runs per side, seeds 1..10, untraced, alternating which
# side goes first. Then this checkout's bench/run.sh -compare prints the
# table, and the script exits with its status: 1 on any regression. A
# full run takes about 30 minutes on 2 cores.
set -euo pipefail

if [ $# -lt 1 ]; then
	echo "usage: scripts/bench_compare.sh <parent-rev> [workload...]" >&2
	exit 2
fi
root="$(cd "$(dirname "${BASH_SOURCE[0]}")/.." && pwd)"
rev="$(git -C "$root" rev-parse --verify "$1^{commit}")"
shift
workloads=("$@")
[ ${#workloads[@]} -gt 0 ] || workloads=(select-cold serve-warm search-jobs fault-sim)

mkdir -p "$root/.bench_build"
work="$(mktemp -d "$root/.bench_build/compare.XXXXXX")"
cleanup() {
	git -C "$root" worktree remove --force "$work/parent" 2>/dev/null || true
	git -C "$root" worktree prune
	rm -rf "$work"
}
trap cleanup EXIT
git -C "$root" worktree add --detach "$work/parent" "$rev" >/dev/null

# side <name> <seed> <workload>: one untraced run of one side.
side() {
	if [ "$1" = parent ]; then
		CARGO_TARGET_DIR="$work/parent-build" "$work/parent/bench/run.sh" \
			-workload "$3" -seed "$2" -trace 0 -out "$work/out-parent"
	else
		"$root/bench/run.sh" -workload "$3" -seed "$2" -trace 0 -out "$work/out-change"
	fi
}

for w in "${workloads[@]}"; do
	for seed in $(seq 1 10); do
		if [ $((seed % 2)) -eq 1 ]; then order="parent change"; else order="change parent"; fi
		for s in $order; do
			echo "== $w seed $seed: $s" >&2
			side "$s" "$seed" "$w" >/dev/null
		done
	done
done

"$root/bench/run.sh" -compare "$work/out-parent" "$work/out-change"
