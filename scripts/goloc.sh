#!/usr/bin/env bash
# goloc.sh — count non-test Go lines, the size figure each change records.
#
# Usage:
#   scripts/goloc.sh         # the working tree (tracked and untracked files)
#   scripts/goloc.sh <rev>   # also <rev>'s count and the working tree's delta
#
# Counted: every *.go file except *_test.go, anything under bench/ (its own
# module) and anything under a testdata/ directory. A last line without a
# trailing newline still counts as a line.
set -euo pipefail
cd "$(dirname "$0")/.."

spec=('*.go' ':!*_test.go' ':!bench/**' ':!**/testdata/**')

# sum adds up git grep's per-file "path:count" lines.
sum() { awk -F: '{ s += $NF } END { print s + 0 }'; }

tree=$(git grep --untracked -c '' -- "${spec[@]}" | sum)
echo "working tree: $tree"
if [ $# -ge 1 ]; then
	rev=$(git rev-parse --short "$1^{commit}")
	base=$(git grep -c '' "$rev" -- "${spec[@]}" | sum)
	echo "$rev: $base"
	printf 'delta: %+d\n' "$((tree - base))"
fi
