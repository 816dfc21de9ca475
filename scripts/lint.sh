#!/bin/sh
# Lint gate for the whole workspace — every crate, the root package, its
# integration tests and the examples: warnings are errors.
set -eu
cd "$(dirname "$0")/.."
cargo clippy -q --workspace --all-targets -- -D warnings
echo "clippy clean: workspace, all targets"
