#!/bin/sh
# Engine-throughput smoke test: run the benchmark matrix in --smoke mode
# (tiny configs, ~1 s; each workload still self-checks its same-seed
# determinism digest), run it again with two worker threads (every workload
# must produce a final-state digest identical to the sequential engine's —
# engine_bench asserts this internally and fails if no workload took the
# parallel path), then validate the committed BENCH_engine.json — CI fails
# if the benchmark record is missing or malformed, so the perf trajectory
# can never silently rot.
set -eu
cd "$(dirname "$0")/.."

cargo run --release -q -p charm-bench --bin engine_bench -- --smoke
cargo run --release -q -p charm-bench --bin engine_bench -- --smoke --threads 2

python3 - <<'PYEOF'
import json

with open("BENCH_engine.json") as f:
    doc = json.load(f)

required_top = ["bench", "mode", "workloads", "host_cores", "parallel_scaling"]
for k in required_top:
    assert k in doc, f"BENCH_engine.json missing top-level key {k!r}"
assert doc["bench"] == "engine", f"unexpected bench id {doc['bench']!r}"
assert doc["host_cores"] >= 1, "host_cores must be recorded"

expected = {"ping_pipe", "tram_flood", "stencil2d", "leanmd", "pdes"}
names = {w["name"] for w in doc["workloads"]}
assert names == expected, f"workload set mismatch: {sorted(names)}"

for w in doc["workloads"]:
    for k in (
        "events", "messages", "wall_s", "events_per_sec", "msgs_per_sec",
        "baseline_events_per_sec", "speedup_vs_baseline", "final_state_digest",
    ):
        assert k in w, f"workload {w.get('name')!r} missing {k!r}"
    assert w["events"] > 0, f"{w['name']}: no events recorded"
    assert w["wall_s"] > 0, f"{w['name']}: zero wall time"
    assert w["events_per_sec"] > 0, f"{w['name']}: zero throughput"

# The hot-path work must not rot away. Validate the *whole matrix*: the
# geometric mean of speedup-vs-baseline across all five workloads, not a
# single flattering workload. The committed record shows >= 1.35x; the
# floor sits lower because future re-measurements happen on 1-core CI
# hosts where steal-time noise can shave ~10-20% off any single run.
import math
speedups = {w["name"]: w["speedup_vs_baseline"] for w in doc["workloads"]}
geomean = math.exp(sum(math.log(s) for s in speedups.values()) / len(speedups))
assert geomean >= 1.25, (
    f"five-workload geomean speedup regressed below the 1.25x floor: "
    f"{geomean:.2f}x ({', '.join(f'{n} {s:.2f}x' for n, s in sorted(speedups.items()))})"
)
pp = next(w for w in doc["workloads"] if w["name"] == "ping_pipe")

# Multi-worker scaling entries: all five workloads, right thread matrix,
# sane numbers, and the parallel engine actually engaged at every threads>1
# point (a silent sequential fallback would fake perfect scaling).
scaling = {s["name"]: s for s in doc["parallel_scaling"]}
assert set(scaling) == expected, (
    f"parallel_scaling workload set mismatch: {sorted(scaling)}"
)
for name, s in scaling.items():
    threads = [p["threads"] for p in s["points"]]
    assert threads == [1, 2, 4, 8], f"{name}: thread matrix {threads} != [1, 2, 4, 8]"
    for p in s["points"]:
        assert p["events_per_sec"] > 0, f"{name}@{p['threads']}: zero throughput"
        assert p["speedup_vs_seq"] > 0, f"{name}@{p['threads']}: bad speedup"
        assert p["went_parallel"] == (p["threads"] > 1), (
            f"{name}@{p['threads']}: went_parallel={p['went_parallel']} — "
            "engine selection does not match the thread count"
        )
        assert p["barriers_per_kevent"] >= 0, f"{name}@{p['threads']}: bad wait cadence"
    base = s["points"][0]
    assert abs(base["speedup_vs_seq"] - 1.0) < 1e-9, f"{name}: seq point not 1.0x"

# The adaptive-lookahead work itself: leanmd — the fine-grained workload
# the lockstep engine lost worst on (0.11x at 2T before per-pair horizons)
# — must stay at least break-even-ish at 2 workers, and the sparse-traffic
# workloads must actually elide barriers (cross α-cell edges without a
# blocking wait) and almost never park: at most 5 blocking waits per
# thousand events at 2 workers (recorded ~0 since PR 10; the lockstep core
# pays tens to hundreds). Floors sit below the committed record (leanmd >=
# 0.5x asserted vs ~0.6-0.9x measured) for 1-core CI steal-time headroom.
lean2 = next(p for p in scaling["leanmd"]["points"] if p["threads"] == 2)
assert lean2["speedup_vs_seq"] >= 0.5, (
    f"leanmd@2T regressed to {lean2['speedup_vs_seq']:.2f}x (< 0.5x floor): "
    "the adaptive engine is losing to sequential on fine-grained traffic again"
)
for name in ("leanmd", "pdes", "stencil2d"):
    for p in scaling[name]["points"]:
        if p["threads"] > 1:
            assert p["barriers_elided"] > 0, (
                f"{name}@{p['threads']}: zero barriers elided — the adaptive "
                "scheme degenerated into lockstep"
            )
        if p["threads"] == 2:
            assert p["barriers_per_kevent"] <= 5, (
                f"{name}@2: {p['barriers_per_kevent']} blocking waits per "
                "thousand events — the adaptive engine is parking like lockstep"
            )

print(f"BENCH_engine.json ok: {len(doc['workloads'])} workloads, "
      f"geomean {geomean:.2f}x vs pre-opt baseline "
      f"(ping_pipe {pp['speedup_vs_baseline']:.2f}x), "
      f"{len(scaling)} parallel-scaling matrices on {doc['host_cores']} core(s)")
PYEOF

echo "bench smoke test passed"
