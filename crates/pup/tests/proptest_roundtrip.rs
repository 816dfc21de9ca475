//! Property-based tests: PUP pack/unpack is a lossless round trip for
//! arbitrary nested data, and sizing always agrees with packing.

use charm_pup::{from_bytes, packed_size, roundtrip, to_bytes, Pup, Puper};
use proptest::collection::{btree_map, vec};
use proptest::prelude::*;
use std::collections::BTreeMap;

#[derive(Default, Debug, PartialEq, Clone)]
struct Record {
    id: u64,
    tag: i32,
    label: String,
    samples: Vec<f64>,
    children: Vec<Record>,
    meta: BTreeMap<u32, String>,
    maybe: Option<(u8, String)>,
}

impl Pup for Record {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.id);
        p.p(&mut self.tag);
        p.p(&mut self.label);
        p.p(&mut self.samples);
        p.p(&mut self.children);
        p.p(&mut self.meta);
        p.p(&mut self.maybe);
    }
}

fn record_strategy(depth: u32) -> BoxedStrategy<Record> {
    let leaf = (
        any::<u64>(),
        any::<i32>(),
        ".{0,12}",
        vec(any::<f64>(), 0..8),
        btree_map(any::<u32>(), ".{0,6}", 0..4),
        proptest::option::of((any::<u8>(), ".{0,5}")),
    )
        .prop_map(|(id, tag, label, samples, meta, maybe)| Record {
            id,
            tag,
            label,
            samples,
            children: vec![],
            meta,
            maybe,
        });
    if depth == 0 {
        leaf.boxed()
    } else {
        (leaf, vec(record_strategy(depth - 1), 0..3))
            .prop_map(|(mut r, children)| {
                r.children = children;
                r
            })
            .boxed()
    }
}

/// Arbitrary data, a run of `n` modeled bytes, more arbitrary data. The run
/// goes through `Puper::zeros` (`closed_form`) or through `Puper::bytes` on
/// a real zero buffer — the two must be indistinguishable in every mode.
struct Framed {
    before: Vec<u8>,
    n: u64,
    after: Vec<u8>,
    closed_form: bool,
}

impl Pup for Framed {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.before);
        if self.closed_form {
            p.zeros(self.n);
        } else {
            p.bytes(&mut vec![0u8; self.n as usize]);
        }
        p.p(&mut self.after);
    }
}

/// Unpack `stream` into a `Framed` expecting a run of `n`; returns the
/// fields and the final stream position, or the panic message.
fn unpack_framed(
    stream: &[u8],
    n: u64,
    closed_form: bool,
) -> Result<(Vec<u8>, Vec<u8>, usize), String> {
    std::panic::catch_unwind(|| {
        let mut f = Framed {
            before: vec![],
            n,
            after: vec![],
            closed_form,
        };
        let mut p = Puper::unpacker(stream);
        f.pup(&mut p);
        (f.before, f.after, p.size())
    })
    .map_err(|e| e.downcast_ref::<String>().cloned().unwrap_or_default())
}

const RUN_LENGTHS: [u64; 7] = [0, 1, 7, 8, 4095, 4096, 4097];

proptest! {
    // `zeros(n)` ≡ `bytes(&mut vec![0; n])`: same size, same packed bytes,
    // same digest, same unpack position and contents, same underflow panic.
    #[test]
    fn zeros_equals_bytes_of_zeros_in_every_mode(
        before in vec(any::<u8>(), 0..40),
        after in vec(any::<u8>(), 0..40),
        pick in 0usize..10,
        random_n in 0u64..=(1 << 20),
        cut in any::<u64>(),
    ) {
        let n = RUN_LENGTHS.get(pick).copied().unwrap_or(random_n);
        let mk = |closed_form| Framed {
            before: before.clone(),
            n,
            after: after.clone(),
            closed_form,
        };
        let (mut z, mut b) = (mk(true), mk(false));

        prop_assert_eq!(packed_size(&mut z), packed_size(&mut b));
        let stream = to_bytes(&mut z);
        prop_assert!(stream == to_bytes(&mut b), "packed bytes differ for n={n}");
        prop_assert_eq!(stream.len(), packed_size(&mut z));
        prop_assert_eq!(charm_pup::digest_of(&mut z), charm_pup::digest_of(&mut b));
        prop_assert_eq!(charm_pup::digest_of(&mut z), charm_pup::fnv1a(&stream));

        let want = Ok((before.clone(), after.clone(), stream.len()));
        prop_assert_eq!(unpack_framed(&stream, n, true), want.clone());
        prop_assert_eq!(unpack_framed(&stream, n, false), want);

        // Truncate inside the run (or, for n = 0, inside what follows it).
        let run_start = 8 + before.len();
        let keep = run_start + (cut % (n + 1)) as usize;
        if keep < stream.len() {
            let (ez, eb) = (
                unpack_framed(&stream[..keep], n, true),
                unpack_framed(&stream[..keep], n, false),
            );
            prop_assert!(matches!(&ez, Err(m) if m.contains("PUP stream underflow")), "{ez:?}");
            prop_assert_eq!(ez, eb);
        }
    }

    #[test]
    fn record_roundtrips(mut r in record_strategy(2)) {
        let orig = r.clone();
        let back = roundtrip(&mut r);
        // NaN-free comparison: the strategy may generate NaN floats, so
        // compare bit patterns via packed bytes instead of PartialEq.
        prop_assert_eq!(to_bytes(&mut r), to_bytes(&mut { back }));
        prop_assert_eq!(to_bytes(&mut r), to_bytes(&mut { orig }));
    }

    #[test]
    fn sizing_equals_packing(mut r in record_strategy(2)) {
        prop_assert_eq!(packed_size(&mut r), to_bytes(&mut r).len());
    }

    #[test]
    fn vec_u64_roundtrip(mut v in vec(any::<u64>(), 0..200)) {
        prop_assert_eq!(roundtrip(&mut v), v);
    }

    #[test]
    fn strings_roundtrip(mut s in ".{0,64}") {
        prop_assert_eq!(roundtrip(&mut s), s);
    }

    #[test]
    fn unpack_never_reads_past_exact_stream(mut v in vec(any::<i32>(), 0..50)) {
        let bytes = to_bytes(&mut v);
        let back: Vec<i32> = from_bytes(&bytes);
        prop_assert_eq!(back, v);
    }

    // The streaming digest mode (record/replay's StateDigest) must agree
    // with hashing the packed byte stream, for the same arbitrary nested
    // data the round-trip properties use.
    #[test]
    fn digest_matches_packed_fnv1a(mut r in record_strategy(2)) {
        let bytes = to_bytes(&mut r);
        prop_assert_eq!(charm_pup::digest_of(&mut r), charm_pup::fnv1a(&bytes));
    }

    // pup → unpup → digest is the exact replay-verification path: a round
    // trip must never change a state digest.
    #[test]
    fn digest_survives_roundtrip(mut r in record_strategy(2)) {
        let d = charm_pup::digest_of(&mut r);
        let mut back = roundtrip(&mut r);
        prop_assert_eq!(charm_pup::digest_of(&mut back), d);
    }
}
