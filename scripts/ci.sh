#!/bin/sh
# Single-entry CI gate: release build, tier-1 tests (the root package),
# the full workspace suite (goldens, property tests, the §III-D elastic and
# charm-kv serving claims, and crates/bench/tests/pool.rs: the process pool
# under fig17, fig04 and ft_campaign, one worker against two, byte for
# byte), lint (clippy with warnings as errors over the whole workspace and
# all targets, then the greps in scripts/lint.sh), the trace and
# record/replay smokes, and the repository benchmark at smoke sizes.
# Exits non-zero on the first failure.
set -eu
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release -q

echo "==> cargo test (tier-1: the root package)"
cargo test -q

echo "==> cargo test --workspace (every crate: goldens, property tests)"
cargo test -q --workspace

echo "==> lint (clippy -D warnings, whole workspace, all targets)"
sh scripts/lint.sh

echo "==> trace smoke"
sh scripts/trace_smoke.sh

echo "==> replay smoke"
sh scripts/replay_smoke.sh

echo "==> benchmark smoke"
sh scripts/benchmark_smoke.sh

echo "CI OK"
