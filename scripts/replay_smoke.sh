#!/bin/sh
# Record/replay smoke test: run the race-hunt binary (which self-checks
# that the seeded order-sensitivity bug is flagged with a two-message
# witness, that the commutative control stays clean, and that its baseline
# log saves and reloads through the validating reader byte for byte) and
# the what-if binary (which self-checks every cross-machine makespan
# prediction against an actual run, 10% tolerance).
set -eu
cd "$(dirname "$0")/.."

cargo run --release -q -p charm-bench --bin race_hunt
cargo run --release -q -p charm-bench --bin whatif

echo "replay smoke test passed"
