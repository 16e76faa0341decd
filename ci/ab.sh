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
# Each pair also runs both binaries once with --trace 1 (on the first workload
# both revisions declare, for 0.5 s: the per-layer figures come from the
# ledger's microworlds and probes, not from the timed passes), in
# target/ab/spans so the span files stay out of the tree.
#
# For each workload and end-to-end metric, and for each layer twin below,
# it prints the base's median and q1-q3, the change's median, change / base,
# and the pairs in which the change was ahead. It exits 1 when a run fails
# or prints an incorrect result, when the change's median throughput_per_s
# or peak_rss_mb is worse than the base's by more than the bound REV's
# BENCHMARK.json gives that metric, or when a twin is worse by more than the
# factor below, "worse" following that metric's `better`. A twin's change /
# base is the median over pairs of the change's figure over the base's in
# the same pair, not a ratio of the two medians. setup_s is printed, not
# gated: its spread between runs of one build is wider than its bound. A
# workload or metric that REV's BENCHMARK.json does not declare is run on the
# change alone and printed as new, not gated. Needs git, cargo and jq.
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
# The layer twins: the unit costs of the kernel's two ways through (a switch
# and a call that stays on the CPU), the timed CV, the wheel, fork/join, a
# world's build and drop, and the text path's writers and readers.
twins='["pcr.rendezvous.handoff_ns", "pcr.sched.monitor_pair_ns", "pcr.sched.notify_wait_ns",
    "pcr.wheel.arm_fire_ns", "pcr.rendezvous.fork_join_us", "pcr.rendezvous.world_build_ms",
    "trace.export.jsonl_write_ns", "trace.export.chrome_ns", "trace.export.jsonl_parse_ns",
    "trace.json.parse_mb_per_s"]'
# A twin fails when the median of its pairs' change / base is worse than this
# factor. Each figure is the fastest of five timings of a microworld within
# one run, and on a shared host a whole run lands in a fast or a slow state:
# in 112 runs of one build on a 2-vCPU host, about one in three was fast
# (monitor_pair_ns 24-33 against 42-60, notify_wait_ns 140-190 against
# 250-355), with address-space randomisation off as well. A pair whose runs
# land in different states reads x1.5-x2.2. A ratio of two medians moves when
# one side's majority flips; a median over pairs needs three of five pairs to
# split the same way round (in 80 runs taken as 8 sets of 5 pairs, the worst
# ratio of medians was x1.42 and the worst median pair x1.20). That still
# happens: with the factor at x1.4, a spin added only to ThreadCtx::fork_with
# read monitor_pair_ns x1.65 and notify_wait_ns x1.70. So five pairs cannot
# resolve a regression smaller than the states' own ratio: mapping and
# unmapping a stack per thread read world_build_ms x1.56 and x1.73, and fails
# on fork_join_us (x14) instead.
factor=2

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

# The workload the --trace 1 runs ask for: any gives the same per-layer list.
probe="$(jq -r --slurpfile old "$ab/base.json" \
    'first(.workloads[].name | select(. as $w | any($old[0].workloads[]; .name == $w)))' \
    BENCHMARK.json)"
mkdir -p "$ab/spans"

runs="$ab/runs.jsonl"
: > "$runs"
failed=0
for workload in $(jq -r '.workloads[].name' BENCHMARK.json) layers; do
    both="base change"
    # `layers` stands for the --trace 1 runs, in the table and in runs.jsonl.
    args=(--workload "$workload" --seconds "$seconds" --trace 0)
    if [ "$workload" = layers ]; then
        args=(--workload "$probe" --seconds 0.5 --trace 1)
    elif ! jq -e --arg w "$workload" 'any(.workloads[]; .name == $w)' "$ab/base.json" >/dev/null; then
        both=change
    fi
    for ((pair = 0; pair < pairs; pair++)); do
        order="$both"
        [ "$both" = change ] || [ $((pair % 2)) -eq 0 ] || order="change base"
        for side in $order; do
            if out="$(cd "$ab/spans" && "$ab/$side" --seed "$seed" "${args[@]}")" &&
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
    "of --seconds $seconds, seed $seed; layers: one --trace 1 run of $probe per side and pair"
printf '%-8s %-30s %12s %23s %13s %11s %6s  %s\n' \
    workload metric "base median" "base q1-q3" "change median" change/base ahead verdict
jq -rs --slurpfile new BENCHMARK.json --slurpfile old "$ab/base.json" --argjson gated "$gated" \
    --argjson twins "$twins" --argjson factor "$factor" '
    def q($p): sort as $a | ((($a | length) - 1) * $p) as $at | ($at | floor) as $lo
        | $a[$lo] + ($a[$at | ceil] - $a[$lo]) * ($at - $lo);
    . as $runs
    | ($new[0].workloads[].name as $w | $new[0].end_to_end[] | [$w, .]),
      ($twins[] as $t | $new[0].per_layer[] | select(.name == $t) | ["layers", .])
    | .[0] as $w | .[1] as $m
    | [($old[0].end_to_end + $old[0].per_layer)[] | select(.name == $m.name)][0] as $om
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
        | (if $w == "layers" then [range(0; $x | length) | $y[.] / $x[.]] | q(0.5)
           else $ym / $xm end) as $ratio
        | (if $sign > 0 then 1 / $ratio else $ratio end) as $times
        | [$w, $m.name, $xm, ($x | q(0.25)), ($x | q(0.75)), $ym, $ratio,
           "\($ahead)/\($x | length)",
           if $w == "layers" then
             if $times > $factor then "FAIL: x\($times * 1000 | floor / 1000) worse, factor x\($factor)"
             else "ok" end
           elif any($gated[]; . == $m.name) | not then "not gated"
           elif $worse > $om.bound then "FAIL: \($worse * 100 | floor)% worse, bound \($om.bound * 100)%"
           else "ok" end]
      end
    | @tsv' "$runs" |
    awk -F '\t' '
        function num(v) { return v == "-" ? v : (v >= 1000 ? sprintf("%.0f", v) : sprintf("%.4g", v)) }
        {
            printf "%-8s %-30s %12s %23s %13s %11s %6s  %s\n", $1, $2, num($3),
                ($4 == "-" ? "-" : num($4) "-" num($5)), num($6),
                ($7 == "-" ? "-" : sprintf("x%.3f", $7)), $8, $9
            if ($9 ~ /^FAIL/) failed = 1
        }
        END { exit failed }'
