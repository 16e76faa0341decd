#!/usr/bin/env bash
# Rust lines per crate and for the workspace: the number ROADMAP aim 2
# says to track. Counts every line of every tracked-or-not *.rs file
# under the source roots (comments and blanks included — the same count
# `wc -l` gives, so any two commits compare without a tool). Fails when
# the total exceeds the committed ci/loc-ceiling.txt: growing the
# workspace means bumping that one number in the same diff.
set -euo pipefail
cd "$(dirname "$0")/.."

count() { find "$@" -name '*.rs' -print0 2>/dev/null | xargs -0 cat 2>/dev/null | wc -l; }

total=0
for dir in crates/* shims/* src tests examples; do
    [ -d "$dir" ] || continue
    n=$(count "$dir")
    printf '%8d  %s\n' "$n" "$dir"
    total=$((total + n))
done
printf '%8d  total\n' "$total"

ceiling=$(cat ci/loc-ceiling.txt)
if [ "$total" -gt "$ceiling" ]; then
    echo "FAIL: $total Rust lines exceed ci/loc-ceiling.txt ($ceiling)" >&2
    exit 1
fi
