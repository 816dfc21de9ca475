#!/usr/bin/env bash
# One command for the whole benchmark: build the release binaries, then run.
#
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
#       one workload in this process; the result line is the last line of stdout
#   benchmark/run.sh [--seed N] [--trace] [--smoke]
#       every workload, each in its own process (--trace adds the traced runs)
#   benchmark/run.sh --check-repeat
#       two full sets of runs, compared against the bounds in BENCHMARK.json
#
# Everything is built from source inside the checkout and nothing outside it
# is written; cargo's messages go to stderr.
set -euo pipefail
cd "$(dirname "${BASH_SOURCE[0]}")/.."

# One target directory for both workspaces, absolute because cargo is run
# against two manifests.
target="${CARGO_TARGET_DIR:-benchmark/target}"
case "$target" in /*) ;; *) target="$PWD/$target" ;; esac
export CARGO_TARGET_DIR="$target"

cargo build --release --offline --manifest-path benchmark/Cargo.toml >&2
bench="$target/release/charm-benchmark"

# The figure binaries are the repository's own executables.
bins=()
for fig in $("$bench" --list-figs); do bins+=(--bin "$fig"); done
cargo build --release --offline -p charm-bench "${bins[@]}" >&2

exec "$bench" --root "$PWD" --bin-dir "$target/release" "$@"
