#!/bin/sh
# Single-entry CI gate: release build, tier-1 tests (the root package),
# the full workspace suite (which includes crates/bench/tests/pool.rs: the
# process pool under fig17, fig04 and ft_campaign, one worker against two,
# byte for byte), clippy (warnings are errors; whole workspace, all targets
# — root package, examples and tests included) and the greps that keep the
# library thread-free and the pool `unsafe`-free, the five
# end-to-end smokes (tracing, record/replay, the elastic controller,
# streaming observability at scale, and the charm-kv serving workload — the
# last three also validate the committed BENCH_elastic.json /
# BENCH_scale.json / BENCH_service.json), and the repository benchmark at
# smoke sizes.
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

echo "==> elastic smoke"
sh scripts/elastic_smoke.sh

echo "==> scale smoke"
sh scripts/scale_smoke.sh

echo "==> service smoke"
sh scripts/service_smoke.sh

echo "==> benchmark smoke"
sh scripts/benchmark_smoke.sh

echo "CI OK"
