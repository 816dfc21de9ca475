//! TRAM items cost what they pack to. A source stages each item in its
//! `TramBuf` in wire form — destination PE, index and item as the bytes a
//! batch message carries — so the live heap per staged item is about its
//! packed size, not the size of a typed `(u64, Ix, M)` tuple.
//!
//! The counting allocator (`support/counting.rs`) wraps `System`. This file
//! is its own test binary so the `#[global_allocator]` cannot leak into any
//! other test, and it holds a single `#[test]` because the counters are
//! process-wide.

#[path = "support/counting.rs"]
mod counting;

use charm_rs::pup::{Pup, Puper};
use charm_rs::tram::{Tram, TramBuf, TramConfig};
use charm_rs::{Chare, Ctx, Ix, MachineConfig, Runtime, SimTime};
use counting::{Counting, LIVE};
use std::sync::atomic::Ordering;

#[global_allocator]
static COUNTER: Counting = Counting;

const PES: usize = 8;
const ITEMS_PER_SOURCE: u64 = 64 * 200;

#[derive(Default)]
struct Sink {
    received: u64,
}

impl Pup for Sink {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.received);
    }
}

#[derive(Default, Clone)]
struct Item(u64);

impl Pup for Item {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.0);
    }
}

impl Chare for Sink {
    type Msg = Item;
    fn on_message(&mut self, _m: Item, _ctx: &mut Ctx<'_>) {
        self.received += 1;
    }
}

/// Sprays its items through a `TramBuf` with the default local threshold,
/// so every 64 items become one batch message to the local agent.
#[derive(Default)]
struct Source {
    tram: Tram<Sink>,
    buf: TramBuf<Sink>,
}

impl Pup for Source {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.tram);
        p.p(&mut self.buf);
    }
}

impl Chare for Source {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        let tram = self.tram;
        for k in 0..ITEMS_PER_SOURCE {
            let h = k.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ ctx.my_pe() as u64;
            let dst_pe = (h >> 17) % PES as u64;
            tram.send_via(
                ctx,
                &mut self.buf,
                dst_pe as usize,
                Ix::i1(dst_pe as i64),
                Item(k),
            );
        }
        tram.flush_via(ctx, &mut self.buf);
    }
}

/// Live heap per item once every source has staged its items and handed
/// them to its agent, and before any agent has routed one.
fn staged_bytes_per_item() -> f64 {
    let mut rt = Runtime::builder(MachineConfig::homogeneous(PES))
        .seed(3)
        .build();
    let sinks = rt.create_array::<Sink>("sinks");
    for pe in 0..PES {
        rt.insert(sinks, Ix::i1(pe as i64), Sink::default(), Some(pe));
    }
    let tram = Tram::attach(&mut rt, "tram", sinks, TramConfig::default());
    let sources = rt.create_array::<Source>("sources");
    for pe in 0..PES {
        let src = Source {
            tram,
            buf: TramBuf::default(),
        };
        rt.insert(sources, Ix::i1(pe as i64), src, Some(pe));
    }
    for pe in 0..PES {
        rt.send(sources, Ix::i1(pe as i64), 0u8);
    }
    let before = LIVE.load(Ordering::Relaxed);
    // Step virtual time until the last source has run: each hands its
    // batches to its agent, which runs only well after the last source.
    let mut ns = 0;
    let mut s = rt.run_until(SimTime::ZERO);
    while s.entries < PES as u64 {
        ns += 100;
        s = rt.run_until(SimTime::from_nanos(ns));
    }
    let after = LIVE.load(Ordering::Relaxed);
    assert_eq!(s.entries, PES as u64, "an agent ran before the last source");
    let staged = after.saturating_sub(before);
    let per_item = staged as f64 / (PES as u64 * ITEMS_PER_SOURCE) as f64;
    // The flood still completes.
    rt.run();
    let received: u64 = (0..PES)
        .filter_map(|pe| rt.inspect(sinks, &Ix::i1(pe as i64), |s: &Sink| s.received))
        .sum();
    assert_eq!(received, PES as u64 * ITEMS_PER_SOURCE);
    per_item
}

#[test]
fn staged_tram_items_cost_their_wire_size() {
    // Warm the arena's pools, so the measured run starts like the first.
    staged_bytes_per_item();
    let per_item = staged_bytes_per_item();
    // Each item packs to 25 bytes (8-byte PE, 9-byte `Ix::I1`, 8-byte
    // item). Held as 48-byte `(u64, Ix, Item)` tuples in 64-item batches,
    // the staged heap was 49.56 B per item; in wire form, with a 4-byte end
    // offset per item, it is 30.56 B (0.62x). The rest is each batch's
    // message: envelope and payload box.
    let typed = 49.56;
    assert!(
        per_item <= 0.75 * typed,
        "{per_item:.1} B of live heap per staged item; typed tuples took {typed} B"
    );
}
