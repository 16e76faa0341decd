#!/usr/bin/env bash
# The benchmark's entry point for people and for CI.
#
#   benchmark/run.sh              one full set: every workload, untraced then traced
#   benchmark/run.sh --smoke      unit tests, then every workload at 1/20 size
#   benchmark/run.sh --selfcheck  two full sets back to back, the second held
#                                 against the first by the bounds of BENCHMARK.json
#
# SEED=<n> picks the seed (default: the one expected.json pins). Results land
# in benchmark/out/. Exits non-zero if any run is incorrect, prints a metric
# BENCHMARK.json does not declare (or the reverse), cannot pin, or regresses.
set -euo pipefail
cd "$(dirname "$0")/.."

# Share the root workspace's build cache unless the caller chose another.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-target}"
MANIFEST=benchmark/Cargo.toml
SEED="${SEED:-0xCEDA2026}"
WORKLOADS="matrix serve fuzz offline"
RUN_SECONDS="$(sed -n 's/.*"run_seconds": *\([0-9]*\).*/\1/p' BENCHMARK.json)"

cargo build --release --offline --manifest-path "$MANIFEST"
BIN="$CARGO_TARGET_DIR/release/threadstudy-benchmark"

# run_set <dir> <seconds> [extra flag]: every workload, both ways, saved.
run_set() {
    local dir="benchmark/out/$1" seconds="$2" extra="${3:-}"
    mkdir -p "$dir"
    for workload in $WORKLOADS; do
        for trace in 0 1; do
            "$BIN" --workload "$workload" --seed "$SEED" --seconds "$seconds" \
                --trace "$trace" $extra | tee "$dir/$workload.trace$trace.txt" | sed '$d'
        done
    done
}

case "${1:-}" in
    "")
        run_set full "$RUN_SECONDS"
        ;;
    --smoke)
        cargo test --release --offline --manifest-path "$MANIFEST"
        run_set smoke 0.2 --smoke
        ;;
    --selfcheck)
        # The slow test: the 30 s volumes behind BENCH_threadstudy.json.
        cargo test --release --offline --manifest-path "$MANIFEST" -- --ignored
        run_set set1 "$RUN_SECONDS"
        run_set set2 "$RUN_SECONDS"
        "$BIN" --compare benchmark/out/set1 benchmark/out/set2
        ;;
    *)
        sed -n '2,11p' "$0"
        exit 2
        ;;
esac
