#!/bin/sh
# Benchmark smoke test: run each workload of the repository benchmark
# (BENCHMARK.json, benchmark/run.sh) at --smoke sizes (a few seconds each)
# and read the result line — the last line of stdout. CI fails unless every
# workload reports `"correct": true` with `"failed": 0`: same-seed digests,
# analytic task counts, observation-changes-nothing checks and the figure
# CSVs' byte equality with results/ all ride on that line.
set -eu
cd "$(dirname "$0")/.."

for workload in storm apps observe figs; do
    line=$(bash benchmark/run.sh --workload "$workload" --smoke | tail -n 1)
    case "$line" in
    '{"correct": true, '*'"failed": 0, '*)
        echo "benchmark smoke: $workload ok"
        ;;
    *)
        echo "benchmark smoke: $workload FAILED: $(printf '%s' "$line" | cut -c1-160)" >&2
        exit 1
        ;;
    esac
done
