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
once 'loc_cache.iter_mut()'     # flush location caches: Runtime::flush_loc_caches
once 'Hash::hash(ix,'           # hash an index: ArrayStore::probe (DESIGN §4.3)
once '(i >> BITS, i & ((1 << BITS) - 1))' # chunk an index: ChunkVec, under the slab and the log (DESIGN §4.4)
stray=$(grep -rnF 'pack_element(' "$src" | grep -v -e "^$src/array.rs:" -e "^$src/placement.rs:" || true)
if [ -n "$stray" ]; then
    echo "lint: 'pack_element(' outside array.rs and placement.rs (use Runtime::relocate):"
    printf '%s\n' "$stray"
    exit 1
fi
boxed=$(grep -rnF 'Box<Envelope>' "$src" || true)
if [ -n "$boxed" ]; then
    echo "lint: 'Box<Envelope>' under $src (envelopes live in the runtime's slab):"
    printf '%s\n' "$boxed"
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
echo "mechanisms single: mint, tree_hop, flush_loc_caches, relocate, the index probe, chunk indexing; no boxed envelope; message path by handle; critical path only in charm-replay"

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
