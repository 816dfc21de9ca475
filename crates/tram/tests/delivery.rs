//! TRAM correctness and performance-shape tests: exact-once delivery,
//! aggregation economics (Fig. 15b's crossover), and determinism.

use charm_core::{
    Callback, Chare, Ctx, Ix, RedOp, RedValue, RunSummary, Runtime, SimTime, SysEvent,
};
use charm_pup::{Pup, Puper};
use charm_tram::{Tram, TramBuf, TramConfig};

const SINKS_PER_PE: u64 = 4;
const PROBE: u64 = u64::MAX;

/// A sink that counts and checksums received items; on the PROBE value it
/// instead contributes its totals to the verifier reduction.
#[derive(Default)]
struct Sink {
    received: u64,
    checksum: u64,
}

impl Pup for Sink {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.received);
        p.p(&mut self.checksum);
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
    fn on_message(&mut self, Item(v): Item, ctx: &mut Ctx<'_>) {
        if v == PROBE {
            let me = charm_core::ArrayProxy::<Sink>::from_id(ctx.my_id().array);
            ctx.contribute(
                me,
                999,
                RedValue::VecI64(vec![
                    self.received as i64,
                    (self.checksum % 1_000_000_007) as i64,
                ]),
                RedOp::Sum,
                Callback::ToChare {
                    array: charm_core::ArrayId(3),
                    ix: Ix::i1(0),
                },
            );
            return;
        }
        self.received += 1;
        self.checksum = self.checksum.wrapping_add(v.wrapping_mul(0x9E3779B9));
    }
}

/// A source chare that sprays items through TRAM (or directly).
#[derive(Default)]
struct Source {
    tram: Option<Tram<Sink>>,
    buf: TramBuf<Sink>,
    num_pes: u64,
    items: u64,
}

impl Pup for Source {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.tram);
        p.p(&mut self.buf);
        p.p(&mut self.num_pes);
        p.p(&mut self.items);
    }
}

#[derive(Default, Clone)]
struct Spray;
impl Pup for Spray {
    fn pup(&mut self, _p: &mut Puper) {}
}

impl Chare for Source {
    type Msg = Spray;
    fn on_message(&mut self, _m: Spray, ctx: &mut Ctx<'_>) {
        let sinks = charm_core::ArrayProxy::<Sink>::from_id(charm_core::ArrayId(0));
        for k in 0..self.items {
            let h = k
                .wrapping_mul(0x9E3779B97F4A7C15)
                .wrapping_add((ctx.my_pe() as u64) << 32);
            let dst_pe = (h >> 17) % self.num_pes;
            let sink_ix = (dst_pe * SINKS_PER_PE + (h % SINKS_PER_PE)) as i64;
            match self.tram {
                Some(t) => t.send_via(ctx, &mut self.buf, dst_pe as usize, Ix::i1(sink_ix), Item(k)),
                None => ctx.send(sinks, Ix::i1(sink_ix), Item(k)),
            }
        }
        if let Some(t) = self.tram {
            t.flush_via(ctx, &mut self.buf);
        }
    }
}

/// Receives the verification reduction and journals it.
#[derive(Default)]
struct Verifier;
impl Pup for Verifier {
    fn pup(&mut self, _p: &mut Puper) {}
}
impl Chare for Verifier {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, _ctx: &mut Ctx<'_>) {}
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { value, .. } = ev {
            let v = value.as_vec_i64();
            ctx.log_metric("received", v[0] as f64);
            ctx.log_metric("checksum", v[1] as f64);
        }
    }
}

/// Broadcasts the probe to all sinks (arrays: 0=sinks, 1=sources,
/// 2=tram agents if present, 3=verifier, 4=probe).
#[derive(Default)]
struct Probe;
impl Pup for Probe {
    fn pup(&mut self, _p: &mut Puper) {}
}
impl Chare for Probe {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        let sinks = charm_core::ArrayProxy::<Sink>::from_id(charm_core::ArrayId(0));
        ctx.broadcast(sinks, Item(PROBE));
    }
}

struct Outcome {
    time_s: f64,
    messages: u64,
    received: u64,
    checksum: i64,
}

/// Set up the flood on `rt` (arrays: 0=sinks, 1=sources, 2=tram agents or
/// a placeholder) and run the spray phase to completion.
fn spray(rt: &mut Runtime, items_per_pe: u64, tram_cfg: Option<TramConfig>) -> RunSummary {
    let num_pes = rt.num_pes();
    let sinks = rt.create_array::<Sink>("sinks");
    let sources = rt.create_array::<Source>("sources");
    for pe in 0..num_pes {
        for s in 0..SINKS_PER_PE {
            rt.insert(
                sinks,
                Ix::i1((pe as u64 * SINKS_PER_PE + s) as i64),
                Sink::default(),
                Some(pe),
            );
        }
    }
    let tram = tram_cfg.map(|cfg| Tram::attach(rt, "tram", sinks, cfg));
    // With no TRAM attached, array ids shift; create a placeholder so the
    // verifier/probe ids are stable at 3 and 4.
    if tram.is_none() {
        let _placeholder = rt.create_array::<Probe>("placeholder");
    }
    for pe in 0..num_pes {
        rt.insert(
            sources,
            Ix::i1(pe as i64),
            Source {
                tram,
                buf: TramBuf::with_threshold(64),
                num_pes: num_pes as u64,
                items: items_per_pe,
            },
            Some(pe),
        );
    }
    for pe in 0..num_pes {
        rt.send(sources, Ix::i1(pe as i64), Spray);
    }
    if let Some(t) = &tram {
        t.flush_all_from_host(rt);
    }
    rt.run()
}

fn run_verified(num_pes: usize, items_per_pe: u64, tram_cfg: Option<TramConfig>) -> Outcome {
    let mut rt = Runtime::homogeneous(num_pes);
    let s1 = spray(&mut rt, items_per_pe, tram_cfg);
    let spray_time = s1.end_time.as_secs_f64();

    // Phase 2: verification sweep (its cost is not part of `time_s`).
    let verif = rt.create_array::<Verifier>("verifier");
    assert_eq!(verif.id().0, 3, "verifier array id must be 3");
    rt.insert(verif, Ix::i1(0), Verifier, Some(0));
    let probe = rt.create_array::<Probe>("probe");
    rt.insert(probe, Ix::i1(0), Probe, Some(0));
    rt.send(probe, Ix::i1(0), 0u8);
    rt.run();

    Outcome {
        time_s: spray_time,
        messages: s1.messages,
        received: rt.metric("received").last().expect("verified").1 as u64,
        checksum: rt.metric("checksum").last().expect("verified").1 as i64,
    }
}

#[test]
fn tram_delivers_every_item_exactly_once() {
    let n_pes = 16;
    let items = 200;
    let direct = run_verified(n_pes, items, None);
    let trammed = run_verified(
        n_pes,
        items,
        Some(TramConfig {
            ndims: 2,
            flush_threshold: 32,
            flush_interval: Some(SimTime::from_micros(200)),
        }),
    );
    let expected = n_pes as u64 * items;
    assert_eq!(direct.received, expected);
    assert_eq!(trammed.received, expected, "TRAM must not lose or dup items");
    assert_eq!(
        direct.checksum, trammed.checksum,
        "same payloads must arrive either way"
    );
}

#[test]
fn three_dim_grid_also_delivers_all() {
    let n_pes = 27;
    let items = 150;
    let trammed = run_verified(
        n_pes,
        items,
        Some(TramConfig {
            ndims: 3,
            flush_threshold: 16,
            flush_interval: Some(SimTime::from_micros(100)),
        }),
    );
    assert_eq!(trammed.received, n_pes as u64 * items);
}

#[test]
fn tram_wins_at_high_volume() {
    let n_pes = 16;
    let items = 2000;
    let direct = run_verified(n_pes, items, None);
    let trammed = run_verified(
        n_pes,
        items,
        Some(TramConfig {
            ndims: 2,
            flush_threshold: 64,
            flush_interval: Some(SimTime::from_micros(25)),
        }),
    );
    assert!(
        trammed.time_s < direct.time_s,
        "TRAM should win at high volume: direct={:.6}s tram={:.6}s (msgs {} vs {})",
        direct.time_s,
        trammed.time_s,
        direct.messages,
        trammed.messages
    );
}

#[test]
fn direct_sends_win_at_low_volume() {
    let n_pes = 16;
    let items = 4; // far below the threshold: items wait for the timer
    let direct = run_verified(n_pes, items, None);
    let trammed = run_verified(
        n_pes,
        items,
        Some(TramConfig {
            ndims: 2,
            flush_threshold: 1024,
            flush_interval: Some(SimTime::from_millis(2)),
        }),
    );
    assert!(
        direct.time_s < trammed.time_s,
        "aggregation must cost latency at low volume: direct={:.6}s tram={:.6}s",
        direct.time_s,
        trammed.time_s
    );
}

#[test]
fn tram_runs_are_deterministic() {
    let cfg = || TramConfig {
        ndims: 2,
        flush_threshold: 16,
        flush_interval: Some(SimTime::from_micros(100)),
    };
    let a = run_verified(9, 100, Some(cfg()));
    let b = run_verified(9, 100, Some(cfg()));
    assert_eq!(a.time_s, b.time_s);
    assert_eq!(a.messages, b.messages);
    assert_eq!(a.checksum, b.checksum);
}

/// Submits one item to PE `num_pes`, one past the last, through
/// `Tram::send_via` or `Tram::send`.
#[derive(Default)]
struct Stray {
    tram: Tram<Sink>,
    buf: TramBuf<Sink>,
    via: bool,
}

impl Pup for Stray {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.tram);
        p.p(&mut self.buf);
        p.p(&mut self.via);
    }
}

impl Chare for Stray {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        let dst_pe = ctx.num_pes();
        if self.via {
            self.tram.send_via(ctx, &mut self.buf, dst_pe, Ix::i1(0), Item(1));
            self.tram.flush_via(ctx, &mut self.buf);
        } else {
            self.tram.send(ctx, dst_pe, Ix::i1(0), Item(1));
        }
    }
}

fn submit_out_of_range(via: bool) {
    let mut rt = Runtime::homogeneous(8);
    let sinks = rt.create_array::<Sink>("sinks");
    rt.insert(sinks, Ix::i1(0), Sink::default(), Some(0));
    let tram = Tram::attach(&mut rt, "tram", sinks, TramConfig::default());
    let strays = rt.create_array::<Stray>("strays");
    let stray = Stray {
        tram,
        buf: TramBuf::default(),
        via,
    };
    rt.insert(strays, Ix::i1(0), stray, Some(3));
    rt.send(strays, Ix::i1(0), 0u8);
    rt.run();
}

#[test]
#[should_panic(expected = "TRAM destination PE 8 is outside the 8-PE grid")]
fn send_via_rejects_a_destination_outside_the_grid() {
    submit_out_of_range(true);
}

#[test]
#[should_panic(expected = "TRAM destination PE 8 is outside the 8-PE grid")]
fn send_rejects_a_destination_outside_the_grid() {
    submit_out_of_range(false);
}
