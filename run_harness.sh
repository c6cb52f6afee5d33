#!/bin/bash
# Final harness sequence: every table and figure, laptop-scaled.
#
# One rule (DESIGN §3): every file under `results/` is a deterministic
# function of the source tree. The full tier regenerates all of them and
# ends with `git diff --exit-code -- results` plus an empty
# `git status --porcelain results`; wall-clock numbers are flbench's
# (`bash benchmark/run.sh`) and whatever else is host noise goes under
# `target/`.
#
# `bash run_harness.sh --quick` keeps every other gate (build, `paper`
# and the modeled gates among its views, both tier-1 test runs —
# flcheck's zero findings and its two ratchets among them — the
# no-`unsafe` gate, the benchmark-package build, the clippy lints, fmt)
# but trims sweep cardinality — fewer key sizes, datasets, models,
# epochs, parties, clients — for a fast full-pipeline smoke run. Trimmed
# sweeps print different tables, so the quick tier writes under
# `target/harness-quick/` and leaves `results/` alone.
set -o pipefail
cd "$(dirname "$0")"

QUICK=0
R=results
TIER=
if [ "$1" = "--quick" ]; then
  QUICK=1
  R=target/harness-quick
  TIER=--quick
  echo "=== quick tier: every gate but the results/ diff, trimmed sweeps, output under $R ==="
fi
mkdir -p $R

# Build gate: the whole workspace must compile with warnings as errors
# before `paper` runs. `--workspace` matters: the root manifest is a
# package too, so a bare `cargo build` would compile only it and leave
# `paper` stale (or absent on a clean checkout).
echo "=== build: RUSTFLAGS=-D warnings ==="
if ! RUSTFLAGS="-D warnings" cargo build --workspace --release 2>&1 | tail -20; then
  echo "HARNESS_FAILED: release build with -D warnings"
  exit 1
fi

# Every table and figure of the paper: `paper` trains each cell they read
# once and writes each view to `$R/<view>.txt` (the names are `VIEWS` in
# crates/bench/src/bin/paper.rs); `--quick` trims its sweeps. Three views
# are modeled gates (calibrate_cost, bench_aggregate, bench_rounds; DESIGN
# §3): once every view is written, `paper` exits non-zero naming each
# gate that failed.
echo "=== paper: every table and figure $TIER ==="
if ! ./target/release/paper $TIER $R; then
  echo "HARNESS_FAILED: paper"
  exit 1
fi
echo

# Thread-count invariance gate: the tier-1 test suite — every crate of the
# workspace, not just the root package — must pass both pinned to one
# worker and at the host's full width (the pool reads RAYON_NUM_THREADS at
# first use).
echo "=== tier-1 tests: RAYON_NUM_THREADS=1 ==="
if ! RAYON_NUM_THREADS=1 cargo test -q --release --workspace 2>&1 | tail -40; then
  echo "HARNESS_FAILED: tests under RAYON_NUM_THREADS=1"
  exit 1
fi
echo "=== tier-1 tests: unbounded pool ==="
if ! cargo test -q --release --workspace 2>&1 | tail -40; then
  echo "HARNESS_FAILED: tests under unbounded pool"
  exit 1
fi

# No-`unsafe` gate, made visible: flcheck no longer polices closures
# crossing the host thread pool — the shim's `Fn + Sync` bounds do, and
# they hold only while nothing forges `Send`/`Sync` with `unsafe`. The
# test ran inside the tier-1 runs above; run it by name so its verdict
# shows in the summary of both tiers.
echo "=== no unsafe: security_invariants::no_unsafe_code_anywhere_the_pool_can_reach ==="
if ! cargo test -q --release --test security_invariants \
    no_unsafe_code_anywhere_the_pool_can_reach 2>&1 | tail -4; then
  echo "HARNESS_FAILED: an unsafe token or a crate root without forbid(unsafe_code)"
  exit 1
fi

# Benchmark-compatibility gate: `benchmark/` is its own cargo workspace
# built against this product through `benchmark/.src/api.rs`. Build it
# and run its unit tests here, so a product change that breaks that file
# fails in the harness rather than when the benchmark is next run.
# `Cargo.lock` is git-ignored, so on a fresh checkout there is none for
# `--locked` to hold: generate it first (it stays untracked), then assert
# what "the benchmark's crate graph is frozen" means — the lock names
# flbench and exactly the ten product packages it links.
echo "=== benchmark package: build + unit tests against this product ==="
if [ ! -f benchmark/Cargo.lock ] && \
    ! cargo generate-lockfile --offline --manifest-path benchmark/Cargo.toml; then
  echo "HARNESS_FAILED: benchmark package lock file cannot be generated offline"
  exit 1
fi
if ! cargo test --locked --offline --manifest-path benchmark/Cargo.toml \
    --target-dir target/benchmark 2>&1 | tail -15; then
  echo "HARNESS_FAILED: benchmark package no longer builds/passes against the product"
  exit 1
fi
bench_graph=$(sed -n 's/^name = "\(.*\)"$/\1/p' benchmark/Cargo.lock | LC_ALL=C sort | xargs)
bench_frozen="codec fl flbench flbooster-core gpu-sim he mpint parking_lot rand rand_chacha rayon"
echo "  lock names: $bench_graph"
if [ "$bench_graph" != "$bench_frozen" ]; then
  echo "HARNESS_FAILED: benchmark crate graph changed (want: $bench_frozen)"
  exit 1
fi

# Three gates, all clippy's, not flcheck's. Panic freedom: the root
# manifest's `[workspace.lints.clippy]` table denies unwrap/expect, the
# panic! family and indexing in the library crates that opt in with
# `[lints] workspace = true`. Width: the same table and `crates/bench`'s
# `[lints.clippy]` deny `cast_possible_truncation`. Determinism, banned
# calls and locks: both tables deny what `crates/clippy.toml` disallows
# (hash collections, clocks, width reads, pool drives outside the drive
# homes DESIGN §11 lists, the unchecked ciphertext ops, std's
# guard-holding locks), in the libraries and the experiment binary
# alike. An `#[expect(clippy::…)]` that no longer fires fails it too, and
# `-D warnings` makes clippy's default lints errors in every crate. The
# second step reaches test code, where `crates/clippy.toml` lets a
# `#[test]` fn or `#[cfg(test)]` module unwrap, index and panic; he, mpint
# and the rayon shim are not yet clean there.
echo "=== clippy: panic freedom, width, determinism, banned calls and default lints ==="
if ! cargo clippy --offline --workspace --lib --bins -- -D warnings 2>&1 | tail -20; then
  echo "HARNESS_FAILED: cargo clippy lints"
  exit 1
fi
echo "=== clippy: every target but he, mpint and rayon ==="
if ! cargo clippy --offline --workspace --all-targets --exclude he --exclude mpint \
    --exclude rayon -- -D warnings 2>&1 | tail -20; then
  echo "HARNESS_FAILED: cargo clippy lints on test targets"
  exit 1
fi

echo "=== cargo fmt --check ==="
if ! cargo fmt --check; then
  echo "HARNESS_FAILED: cargo fmt --check"
  exit 1
fi

# The rule, enforced (full tier only — the quick tier wrote elsewhere):
# everything above regenerated results/ from the tree, so nothing in it
# may differ from what is committed and nothing untracked may appear.
if [ "$QUICK" -eq 0 ]; then
  echo "=== results/: byte-identical to the committed directory, nothing untracked ==="
  if ! git diff --exit-code -- results || [ -n "$(git status --porcelain results)" ]; then
    git status --porcelain results
    echo "HARNESS_FAILED: results/ is not what the committed tree regenerates"
    exit 1
  fi
fi
echo "HARNESS_ALL_DONE"
