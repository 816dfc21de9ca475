#!/bin/sh
# Lint gate for the whole workspace — every crate, the root package, its
# integration tests and the examples: warnings are errors. Then the greps
# that keep each shared runtime mechanism single (DESIGN §4.3) where
# privacy cannot: a second site fails with the offending lines.
set -eu
cd "$(dirname "$0")/.."
cargo clippy -q --workspace --all-targets -- -D warnings
echo "clippy clean: workspace, all targets"

src=crates/core/src
once() {
    hits=$(grep -rnF "$1" "$src" || true)
    n=$(printf '%s' "$hits" | grep -c . || true)
    if [ "$n" -ne 1 ]; then
        echo "lint: '$1' must occur exactly once under $src, found $n:"
        printf '%s\n' "$hits"
        exit 1
    fi
}
once 'slab.insert(Envelope'      # mint an envelope: Runtime::mint
once '1.min(self.live_pes - 1)' # price a tree hop: Runtime::tree_hop
once 'loc_cache.clear()'        # flush location caches: Runtime::flush_loc_caches
once 'Hash::hash(ix,'           # hash an index: ArrayStore::probe (DESIGN §4.3)
once 'at = (at + 1) & mask'     # probe an open-addressed table: HandleIndex::probe (DESIGN §4.3)
once '(i >> BITS, i & ((1 << BITS) - 1))' # chunk an index: ChunkVec, under the slab and the recorder's tables (DESIGN §4.4)
once 'bytes_moved += (m.image + ENVELOPE_BYTES)' # charge a chare move: Runtime::account_move (DESIGN §7)
once 'net.delay(m.from, m.to'  # price a chare move: MoveCost::add (DESIGN §7)
once 'Ev::NodeFail { pe:'       # schedule a node failure: Runtime::schedule_failure
# Each runtime service owns its state (DESIGN §4.3): `Runtime` holds at
# most 40 fields, so service state cannot drift back onto it one by one.
fields=$(awk '/^pub struct Runtime \{/ { on = 1; next } on && /^\}/ { exit }
    on && /^    (pub(\(crate\))? )?[a-z_0-9]+: / { sub(/:.*/, ""); sub(/.* /, ""); print }' "$src/runtime.rs")
nfields=$(printf '%s\n' "$fields" | grep -c .)
if [ "$nfields" -gt 40 ]; then
    echo "lint: pub struct Runtime has $nfields fields, more than 40 (give service state to its service's struct):"
    printf '%s\n' "$fields"
    exit 1
fi
# A chare moves in process in one place (Runtime::move_chare), a move is
# priced in one place (MoveCost::add), and the services that move chares
# never charge a move themselves (DESIGN §7).
moved=$(grep -rnF '.move_element(' "$src" | grep -v "^$src/array.rs:" || true)
if [ "$(printf '%s' "$moved" | grep -c . || true)" -ne 1 ]; then
    echo "lint: '.move_element(' must be called exactly once outside array.rs (Runtime::move_chare):"
    printf '%s\n' "$moved"
    exit 1
fi
priced=$(grep -nF 'bytes_moved' "$src/ft.rs" "$src/malleable.rs" || true)
if [ -n "$priced" ]; then
    echo "lint: 'bytes_moved' in ft.rs or malleable.rs (move chares with move_chare, price them with MoveCost::add):"
    printf '%s\n' "$priced"
    exit 1
fi
stray=$(grep -rnF 'pack_element(' "$src" | grep -v -e "^$src/array.rs:" -e "^$src/placement.rs:" || true)
if [ -n "$stray" ]; then
    echo "lint: 'pack_element(' outside array.rs and placement.rs (an LB or evacuation move is AnyArray::move_element; MigrateMe packs in Runtime::start_migration):"
    printf '%s\n' "$stray"
    exit 1
fi
# An LB or evacuation move is in process (AnyArray::move_element, DESIGN
# §4.3): in placement.rs only the arrival of a MigrateMe unpacks a chare.
unpacked=$(awk '/^ *(pub(\([a-z]+\))? )?fn [a-z_]+/ { f = $0; sub(/^.*fn /, "", f); sub(/[^a-z_].*$/, "", f) }
    /unpack_insert\(/ && f != "on_migrate_arrive" { print FILENAME ":" FNR ": " $0 }' "$src/placement.rs")
if [ -n "$unpacked" ]; then
    echo "lint: 'unpack_insert(' in placement.rs outside on_migrate_arrive (move in process with AnyArray::move_element):"
    printf '%s\n' "$unpacked"
    exit 1
fi
# A recording has one in-memory form, its `.rlog` v2 chunks (DESIGN §4.4):
# no library crate keeps an array of decoded execs or sends beside them.
decoded=$(grep -rnE 'ChunkVec<(ExecRec|SendRec)>' crates/*/src || true)
if [ -n "$decoded" ]; then
    echo "lint: decoded replay records in a ChunkVec (a log is its encoded chunks; read it with ExecLog::iter):"
    printf '%s\n' "$decoded"
    exit 1
fi
boxed=$(grep -rnF 'Box<Envelope>' "$src" || true)
if [ -n "$boxed" ]; then
    echo "lint: 'Box<Envelope>' under $src (envelopes live in the runtime's slab):"
    printf '%s\n' "$boxed"
    exit 1
fi
# A user payload is built in one place, UserMsg::new (DESIGN §4.4): small
# messages ride in the envelope, and only it draws a box from the pool.
userbox=$( (grep -rnF 'Payload::User(Box' "$src"; grep -rnF 'alloc_box(' "$src" | grep -v "^$src/arena.rs:") || true)
if [ -n "$userbox" ]; then
    echo "lint: user payload built outside UserMsg::new (wrap the message with UserMsg::new):"
    printf '%s\n' "$userbox"
    exit 1
fi
# The engine addresses elements by handle: an index is hashed once, when a
# message is minted. Host lookups, placement.rs and ft.rs stay by index.
byix=$(grep -nE 'locate\(&|element_pe\(&|add_load\(&' \
    "$src/runtime.rs" "$src/routing.rs" "$src/collectives.rs" | grep -vF '(&self' || true)
if [ -n "$byix" ]; then
    echo "lint: by-index store call on the message path (intern once, then go by ElemId):"
    printf '%s\n' "$byix"
    exit 1
fi
# The critical path lives in charm-replay, extracted from a recording; the
# engine carries no critical-path state (DESIGN §4.3).
cp=$(grep -rnE 'CpNode|cp_stamp|cur_cp|cp_carry|with_critical_path|fn critical_path' "$src" || true)
if [ -n "$cp" ]; then
    echo "lint: critical-path state under $src (use charm_replay::critical_path on a recording):"
    printf '%s\n' "$cp"
    exit 1
fi
echo "Runtime fields: $nfields (at most 40)"
echo "mechanisms single: mint, tree_hop, flush_loc_caches, the node failure (schedule_failure), the in-process move (move_element; only MigrateMe unpacks), its one charge and its one price, the index probe, the handle index, chunk indexing, the user payload; a recording only as its chunks; no boxed envelope; message path by handle; critical path only in charm-replay"

# Modeled data is a length (charm_pup::SyntheticBlob, DESIGN §4.2): the
# mini-apps and AMPI build no zero buffer outside their tests.
zeros=$(for f in crates/apps/src/*.rs crates/ampi/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } /vec!\[0u8;/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$zeros" ]; then
    echo "lint: 'vec![0u8;' in non-test code (send or hold modeled bytes as a SyntheticBlob):"
    printf '%s\n' "$zeros"
    exit 1
fi
echo "modeled bytes never materialised: no zero buffers in apps or AMPI"

# TRAM buffers hold routed items in wire form (charm_tram::TramBatch,
# DESIGN §4.4): no typed tuple vector outside comments and the crate's tests.
typed=$(for f in crates/tram/src/*.rs; do
    awk '/^#\[cfg\(test\)\]/ { exit } /^ *\/\// { next }
         /Vec<RoutedItemTuple|Vec<\(u64, Ix/ { print FILENAME ":" FNR ": " $0 }' "$f"
done)
if [ -n "$typed" ]; then
    echo "lint: typed item vector in crates/tram/src (buffer routed items as a TramBatch):"
    printf '%s\n' "$typed"
    exit 1
fi
echo "TRAM buffers in wire form: no typed item vectors"

# Dead code is deleted, not kept alive on purpose: no `allow(dead_code)`
# anywhere in the crates' sources or the root package's, test modules
# included, so every `pub(crate)` item stays checked by the compiler.
# Test-support modules under `tests/` are exempt.
dead=$(grep -rn 'allow([^)]*dead_code' crates/*/src src || true)
if [ -n "$dead" ]; then
    echo "lint: allow(dead_code) in library or root sources (delete the unused item):"
    printf '%s\n' "$dead"
    exit 1
fi
echo "no dead code kept alive: no allow(dead_code) in crates/*/src or src"

# ROADMAP item 4: the library has no threads and keeps none — the second
# core is spent one level up, on whole processes (charm_bench::pool), which
# itself stays free of `unsafe`.
threads=$(grep -rnE 'std::thread|std::sync::Mutex|Condvar|std::sync::atomic' \
    crates/core/src crates/machine/src crates/pup/src crates/lb/src crates/tram/src \
    crates/sort/src crates/ampi/src crates/apps/src crates/replay/src || true)
if [ -n "$threads" ]; then
    echo "lint: threads or shared-memory synchronization in the library (use charm_bench::pool):"
    printf '%s\n' "$threads"
    exit 1
fi
if grep -n 'unsafe' crates/bench/src/pool.rs; then
    echo "lint: 'unsafe' in crates/bench/src/pool.rs"
    exit 1
fi
echo "library thread-free; pool unsafe-free"
