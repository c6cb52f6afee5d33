#!/usr/bin/env bash
# Builds flbench (offline, release) and runs it. Run from anywhere.
#
#   run.sh                      every workload, untraced: end-to-end metrics
#   run.sh --trace              every workload, traced: per-layer metrics and
#                               benchmark/out/trace_<workload>.json
#   run.sh --repeat-check       two untraced sets, written to
#                               benchmark/results/seed_run_{a,b}.json and held
#                               against the bounds; non-zero when they disagree
#   run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#                               one workload; the last stdout line is the
#                               result as JSON
#
# --seed and --seconds also apply to the first three forms. Exits non-zero
# when any operation failed. README.md has the glossary.
set -euo pipefail

cd "$(dirname "${BASH_SOURCE[0]}")/.."
target="${CARGO_TARGET_DIR:-target/benchmark}"
# Build output goes to stderr: stdout carries only results.
cargo build --release --offline --manifest-path benchmark/Cargo.toml \
    --target-dir "$target" >&2
bin="$target/release/flbench"
rustc_version="$(rustc -V 2>/dev/null || echo unknown)"

mode=set
passthrough=()
for arg in "$@"; do
    case "$arg" in
        --workload) mode=single ;;
        --repeat-check) mode=repeat; continue ;;
    esac
    passthrough+=("$arg")
done

case "$mode" in
    single)
        exec "$bin" ${passthrough[@]+"${passthrough[@]}"} --rustc "$rustc_version"
        ;;
    set)
        exec "$bin" --set benchmark/out/set.json ${passthrough[@]+"${passthrough[@]}"} --rustc "$rustc_version"
        ;;
    repeat)
        for run in a b; do
            "$bin" --set "benchmark/results/seed_run_$run.json" --trace 0 \
                ${passthrough[@]+"${passthrough[@]}"} --rustc "$rustc_version"
        done
        exec "$bin" --compare benchmark/results/seed_run_a.json benchmark/results/seed_run_b.json
        ;;
esac
