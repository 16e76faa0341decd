#!/usr/bin/env bash
# An A/B of the pinned benchmark (benchmark/): the working tree against REV.
#
#   ci/ab.sh REV [PAIRS] [SECONDS]
#
# Builds benchmark/ twice in one git worktree, target/ab/tree, into one
# CARGO_TARGET_DIR, target/ab/target: first at REV, then at a snapshot of the
# working tree (tracked and untracked files, less what .gitignore lists).
# Path and target directory are the same for both, so identical sources give
# identical binaries. Then it runs PAIRS (default 10) alternating pairs of the
# two binaries on every workload the working tree's BENCHMARK.json lists, each
# run with the same --seed (the one benchmark/expected.json pins), --seconds
# (default BENCHMARK.json's run_seconds) and --trace 0. Which side runs first
# alternates from pair to pair, so a drifting host weighs on both. Absolute
# baselines drift between sessions; a same-session A/B does not need one.
#
# For each workload and end-to-end metric it prints the base's median and
# q1-q3, the change's median, change / base, and the pairs in which the
# change was ahead. It exits 1 when a run fails or prints an incorrect
# result, or when the change's median throughput_per_s or peak_rss_mb is
# worse than the base's by more than the bound REV's BENCHMARK.json gives
# that metric. setup_s is printed, not gated: its spread between runs of one
# build is wider than its bound. A workload or metric that REV's
# BENCHMARK.json does not declare is run on the change alone and printed as
# new, not gated. Needs git, cargo and jq.
set -euo pipefail
root="$(cd "$(dirname "$0")/.." && pwd)"
cd "$root"

usage() { echo "usage: ci/ab.sh REV [PAIRS] [SECONDS]" >&2; exit 2; }
[ $# -ge 1 ] && [ $# -le 3 ] || usage
sha="$(git rev-parse --verify --quiet "$1^{commit}")" || { echo "ab: no commit $1" >&2; exit 2; }
pairs="${2:-10}"
[[ $pairs =~ ^[1-9][0-9]*$ ]] || usage
seconds="${3:-$(jq -r .run_seconds BENCHMARK.json)}"
seed=0xCEDA2026 # the seed benchmark/expected.json pins
gated='["throughput_per_s", "peak_rss_mb"]'

ab="$root/target/ab"
mkdir -p "$ab"
# Each binary compiles its own revision's BENCHMARK.json in, so the base's
# workloads, metrics and bounds are the ones in REV.
git show "$sha:BENCHMARK.json" > "$ab/base.json" ||
    { echo "ab: $1 has no BENCHMARK.json" >&2; exit 2; }

# The working tree as a git tree object, through a scratch index so that the
# repository's own index is left as it is.
cp "$(git rev-parse --git-path index)" "$ab/index"
GIT_INDEX_FILE="$ab/index" git add -A
change_tree="$(GIT_INDEX_FILE="$ab/index" git write-tree)"

# One detached worktree, reused from run to run: read-tree rewrites only the
# files that differ, so unchanged files keep their mtimes and cargo rebuilds
# only what the two sides change.
wt="$ab/tree"
git worktree prune
[ -e "$wt/.git" ] || git worktree add --quiet --detach "$wt" "$sha"
build() { # build SIDE TREE: benchmark/ of TREE, its binary copied to target/ab/SIDE
    git -C "$wt" read-tree -u --reset "$2"
    CARGO_TARGET_DIR="$ab/target" cargo build --release --offline --quiet \
        --manifest-path "$wt/benchmark/Cargo.toml"
    cp "$ab/target/release/threadstudy-benchmark" "$ab/$1"
}
build base "$sha^{tree}"
build change "$change_tree"

runs="$ab/runs.jsonl"
: > "$runs"
failed=0
for workload in $(jq -r '.workloads[].name' BENCHMARK.json); do
    both="base change"
    jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' "$ab/base.json" >/dev/null ||
        both=change
    for ((pair = 0; pair < pairs; pair++)); do
        order="$both"
        [ "$both" = change ] || [ $((pair % 2)) -eq 0 ] || order="change base"
        for side in $order; do
            if out="$("$ab/$side" --workload "$workload" --seed "$seed" \
                --seconds "$seconds" --trace 0)" &&
                result="$(tail -n 1 <<<"$out")" &&
                [ "$(jq -r .correct <<<"$result" 2>/dev/null)" = true ]; then
                jq -c --arg w "$workload" --arg s "$side" \
                    '{workload: $w, side: $s, metrics: .metrics}' <<<"$result" >> "$runs"
            else
                echo "FAIL $side $workload pair $((pair + 1)): the run failed or is incorrect" >&2
                failed=1
            fi
        done
    done
done
[ "$failed" -eq 0 ] || exit 1

echo "A/B: base $(git rev-parse --short "$sha") vs the working tree, $pairs alternating pairs" \
    "of --seconds $seconds, seed $seed"
printf '%-8s %-17s %12s %23s %13s %11s %6s  %s\n' \
    workload metric "base median" "base q1-q3" "change median" change/base ahead verdict
jq -rs --slurpfile new BENCHMARK.json --slurpfile old "$ab/base.json" --argjson gated "$gated" '
    def q($p): sort as $a | ((($a | length) - 1) * $p) as $at | ($at | floor) as $lo
        | $a[$lo] + ($a[$at | ceil] - $a[$lo]) * ($at - $lo);
    . as $runs
    | $new[0].workloads[].name as $w
    | $new[0].end_to_end[] as $m
    | [$old[0].end_to_end[] | select(.name == $m.name)][0] as $om
    | [$runs[] | select(.workload == $w and .side == "base") | .metrics[$m.name].value
       | numbers] as $x
    | [$runs[] | select(.workload == $w and .side == "change") | .metrics[$m.name].value] as $y
    | ($y | q(0.5)) as $ym
    | if $om == null or ($x | length) == 0 then
        [$w, $m.name, "-", "-", "-", $ym, "-", "-", "new, not gated"]
      else
        ($x | q(0.5)) as $xm
        | (if $m.better == "higher" then 1 else -1 end) as $sign
        | ([range(0; $x | length) | select(($y[.] - $x[.]) * $sign > 0)] | length) as $ahead
        | (($xm - $ym) * $sign / $xm) as $worse
        | [$w, $m.name, $xm, ($x | q(0.25)), ($x | q(0.75)), $ym, $ym / $xm,
           "\($ahead)/\($x | length)",
           if any($gated[]; . == $m.name) | not then "not gated"
           elif $worse > $om.bound then "FAIL: \($worse * 100 | floor)% worse, bound \($om.bound * 100)%"
           else "ok" end]
      end
    | @tsv' "$runs" |
    awk -F '\t' '
        function num(v) { return v == "-" ? v : (v >= 1000 ? sprintf("%.0f", v) : sprintf("%.4g", v)) }
        {
            printf "%-8s %-17s %12s %23s %13s %11s %6s  %s\n", $1, $2, num($3),
                ($4 == "-" ? "-" : num($4) "-" num($5)), num($6),
                ($7 == "-" ? "-" : sprintf("x%.3f", $7)), $8, $9
            if ($9 ~ /^FAIL/) failed = 1
        }
        END { exit failed }'
