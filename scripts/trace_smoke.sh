#!/bin/sh
# Tracing smoke test: run the projections-lite demo driver (which already
# self-checks busy-time agreement, streamed-vs-in-memory byte equality,
# and the exact critical path of its recording — it telescopes, stays
# within the makespan plus one entry, and has more than one segment —
# exiting non-zero on mismatch), then
# validate that the exported Chrome trace is well-formed JSON with the
# expected event phases and one track per PE plus the RTS track, and that
# the *streamed* Chrome/CSV files — written incrementally by file sinks
# during the run — are themselves well-formed and mutually consistent.
set -eu
cd "$(dirname "$0")/.."

cargo run --release -q -p charm-bench --bin projections_lite

python3 - <<'EOF'
import json

with open("results/trace_leanmd.json") as f:
    trace = json.load(f)

events = trace["traceEvents"]
assert trace.get("displayTimeUnit") == "ms", "Perfetto display unit missing"
assert events, "trace has no events"

phases = {e["ph"] for e in events}
assert "X" in phases, "no complete (entry-method) spans"
assert "M" in phases, "no thread_name metadata"
assert "i" in phases, "no instant (RTS) events"
assert "C" in phases, "no counter (busy) events"

names = {e["args"]["name"] for e in events if e["ph"] == "M"}
assert "RTS" in names, "RTS track missing"
pe_tracks = {n for n in names if n.startswith("PE ")}
assert len(pe_tracks) >= 2, "expected one named track per PE"

for e in events:
    assert isinstance(e["pid"], int) and isinstance(e["tid"], int)
    if e["ph"] == "X":
        assert float(e["dur"]) >= 0.0

print(f"trace smoke ok: {len(events)} events, {len(pe_tracks)} PE tracks + RTS")
EOF

python3 - <<'EOF'
import json

# The streamed Chrome trace is written record by record during the run;
# it must still parse as one well-formed JSON document with the same
# phases and metadata tracks as the in-memory export.
with open("results/trace_leanmd_stream.json") as f:
    trace = json.load(f)
events = trace["traceEvents"]
assert trace.get("displayTimeUnit") == "ms", "Perfetto display unit missing"
assert events, "streamed trace has no events"
phases = {e["ph"] for e in events}
for ph in ("X", "M", "i", "C"):
    assert ph in phases, f"streamed trace missing phase {ph}"
meta = sum(1 for e in events if e["ph"] == "M")

# The streamed CSV: a header plus one row per non-metadata record, the
# same population the Chrome stream carries.
with open("results/trace_leanmd_stream.csv") as f:
    lines = f.read().splitlines()
assert lines[0] == "t_ns,track,kind,name,dur_ns,bytes,a,b", "CSV header changed"
rows = len(lines) - 1
assert rows > 0, "streamed CSV has no rows"
assert rows == len(events) - meta, \
    f"CSV rows {rows} != Chrome events {len(events)} - {meta} metadata"

print(f"stream smoke ok: {rows} records streamed to Chrome JSON + CSV")
EOF

echo "trace smoke test passed"
