//! Layer probes: each times calls into one layer's public functions, from
//! outside, and records `<module>.<what>` into the ledger. They run in the
//! traced run of the workload whose end-to-end numbers the layer should
//! move (README.md has the table).

use crate::harness::{fold_digest, mix, ratio, sample_secs, span, time_samples, timed, Ledger};
use crate::metrics::LB_STRATEGIES;
use crate::stats::floor;
use charm_core::lbframework::synthetic_stats;
use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, LbTrigger, MachineConfig, RedOp, RedValue, Runtime,
    SysEvent,
};
use charm_machine::{presets, EventQueue, NetworkModel, PrioQueue, SimTime};
use charm_pup::{Pup, Puper};
use std::hint::black_box;
use std::path::Path;
use std::time::Duration;

/// How long one probe samples for, and the fewest samples it takes.
#[derive(Clone, Copy)]
pub struct ProbeBudget {
    pub each: Duration,
    pub min: usize,
    /// Divides probe problem sizes in `--smoke`.
    pub shrink: usize,
}

impl ProbeBudget {
    fn per_op_ns(&self, ops_per_call: usize, f: impl FnMut()) -> f64 {
        floor(&time_samples(self.each, self.min, f)) * 1e9 / ops_per_call as f64
    }
}

// ---------------------------------------------------------------------------
// machine

/// Pending events every queue probe holds, as the issue fixes it.
const PENDING: usize = 4096;
/// Queue operations per timed sample.
const QUEUE_OPS: usize = 1 << 16;

/// `machine.events.*` and `machine.prioqueue.*`: the calendar queue and
/// the PE priority queue timed directly, 4 096 events pending.
pub fn machine_queues(l: &mut Ledger, b: ProbeBudget) {
    // Distinct timestamps: the singleton-bucket path.
    let mut q: EventQueue<u64> = EventQueue::new();
    let mut now = 0u64;
    for i in 0..PENDING as u64 {
        q.push(SimTime::from_nanos(i * 7 + 1), i);
    }
    let ns = b.per_op_ns(QUEUE_OPS, || {
        for _ in 0..QUEUE_OPS {
            let (t, v) = q.pop().expect("queue holds PENDING events");
            now = t.as_nanos();
            q.push(SimTime::from_nanos(now + PENDING as u64 * 7 + (v & 3)), v);
        }
    });
    l.set("machine.events.push_pop_ns", ns);
    black_box(now);

    // Four timestamps in flight: every push lands in a shared bucket.
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..PENDING as u64 {
        q.push(SimTime::from_nanos(1 + i % 4), i);
    }
    let ns = b.per_op_ns(QUEUE_OPS, || {
        for _ in 0..QUEUE_OPS {
            let (t, v) = q.pop().expect("queue holds PENDING events");
            q.push(SimTime::from_nanos(t.as_nanos() + 4), v);
        }
    });
    l.set("machine.events.tie_push_pop_ns", ns);

    // Whole buckets at once: 64 timestamps × 64 events.
    let mut q: EventQueue<u64> = EventQueue::new();
    for i in 0..PENDING as u64 {
        q.push(SimTime::from_nanos(1 + i % 64), i);
    }
    let mut batch = Vec::new();
    let ns = b.per_op_ns(QUEUE_OPS, || {
        let mut moved = 0;
        while moved < QUEUE_OPS {
            let t = q.peek_time().expect("queue holds PENDING events");
            batch.clear();
            q.pop_batch_at_into(t, &mut batch);
            moved += batch.len();
            for &v in &batch {
                q.push(SimTime::from_nanos(t.as_nanos() + 64), v);
            }
        }
    });
    l.set("machine.events.batch_pop_ns", ns);

    // PE scheduler queue: eight priority lanes.
    let mut q: PrioQueue<u64> = PrioQueue::new();
    for i in 0..PENDING as u64 {
        q.push((i % 8) as i64, i);
    }
    let ns = b.per_op_ns(QUEUE_OPS, || {
        for _ in 0..QUEUE_OPS {
            let v = q.pop().expect("queue holds PENDING events");
            q.push(((v + 3) % 8) as i64, v);
        }
    });
    l.set("machine.prioqueue.push_pop_ns", ns);
}

/// `machine.network.*_delay_ns`: one `NetworkModel::delay` call on the
/// torus (BG/Q) and the cloud (Ethernet) presets, 256 PEs.
pub fn machine_network(l: &mut Ledger, b: ProbeBudget, seed: u64) {
    for (name, machine) in [("torus", presets::bgq(256)), ("cloud", presets::cloud(256))] {
        let mut net = NetworkModel::new(machine.network, mix(seed, 40));
        let mut acc = 0u64;
        let mut token = 0u64;
        let ns = b.per_op_ns(QUEUE_OPS, || {
            for _ in 0..QUEUE_OPS {
                token = token.wrapping_add(0x9E37_79B9_7F4A_7C15);
                let src = (token >> 20) as usize % 256;
                let dst = (token >> 40) as usize % 256;
                acc = acc.wrapping_add(
                    net.delay(src, dst, 64 + (token & 1023) as usize, token)
                        .as_nanos(),
                );
            }
        });
        black_box(acc);
        l.set(format!("machine.network.{name}_delay_ns"), ns);
    }
}

/// Cost of one allocate/free pair of an envelope-sized block, used only to
/// turn `core.alloc.calls_per_event` into the computed
/// `core.ledger.alloc_est_ns`.
pub fn alloc_pair_ns(b: ProbeBudget) -> f64 {
    b.per_op_ns(QUEUE_OPS, || {
        for i in 0..QUEUE_OPS {
            black_box(Box::new([i as u64; 12]));
        }
    })
}

// ---------------------------------------------------------------------------
// pup

#[derive(Default, Clone)]
struct Particle {
    pos: [f64; 3],
    vel: [f64; 3],
    id: u64,
}

impl Pup for Particle {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_array(p, &mut self.pos);
        charm_pup::pup_array(p, &mut self.vel);
        p.p(&mut self.id);
    }
}

fn particles(n: usize, seed: u64) -> Vec<Particle> {
    (0..n as u64)
        .map(|i| {
            let r = |k| (mix(seed, i * 8 + k) >> 11) as f64 / (1u64 << 53) as f64;
            Particle {
                pos: [r(0), r(1), r(2)],
                vel: [r(3), r(4), r(5)],
                id: i,
            }
        })
        .collect()
}

/// `pup.*_ns_per_byte`: the four traversals over a 1 K-particle cell.
pub fn pup(l: &mut Ledger, b: ProbeBudget, seed: u64) {
    let mut cell = particles(1000, mix(seed, 50));
    let bytes = charm_pup::to_bytes(&mut cell);
    let n = bytes.len();
    l.check(n == charm_pup::packed_size(&mut cell), || {
        "pup: sizer and packer disagree".into()
    });
    let back: Vec<Particle> = charm_pup::from_bytes(&bytes);
    l.check(
        back.len() == cell.len()
            && charm_pup::digest_of(&mut back.clone()) == charm_pup::digest_of(&mut cell),
        || "pup: unpack(pack(cell)) does not digest like cell".into(),
    );
    let reps = 64;
    let per_byte = |f: &mut dyn FnMut()| b.per_op_ns(reps * n, || (0..reps).for_each(|_| f()));
    l.set(
        "pup.size_ns_per_byte",
        per_byte(&mut || {
            black_box(charm_pup::packed_size(black_box(&mut cell)));
        }),
    );
    l.set(
        "pup.pack_ns_per_byte",
        per_byte(&mut || {
            black_box(charm_pup::to_bytes(black_box(&mut cell)));
        }),
    );
    l.set(
        "pup.unpack_ns_per_byte",
        per_byte(&mut || {
            black_box(charm_pup::from_bytes::<Vec<Particle>>(black_box(&bytes)));
        }),
    );
    l.set(
        "pup.digest_ns_per_byte",
        per_byte(&mut || {
            black_box(charm_pup::digest_of(black_box(&mut cell)));
        }),
    );
}

// ---------------------------------------------------------------------------
// lb

/// `lb.<strategy>.{assign_ns,post_imbalance}`: `Strategy::assign` on
/// 4 096 objects × 256 PEs with seeded loads.
pub fn lb(l: &mut Ledger, b: ProbeBudget, seed: u64) {
    let objs = 4096 / b.shrink;
    let pes = 256 / b.shrink;
    let loads: Vec<f64> = (0..objs as u64)
        .map(|i| (mix(seed, 60 + i) % 1000) as f64 / 100.0 + 0.1)
        .collect();
    let stats = synthetic_stats(pes, &loads);
    for name in LB_STRATEGIES {
        let mut s = charm_apps::strategy_by_name(name).expect("a strategy charm-apps knows");
        let mut last = Vec::new();
        let secs = time_samples(b.each, b.min, || {
            last = black_box(s.assign(black_box(&stats)))
        });
        l.set(format!("lb.{name}.assign_ns"), floor(&secs) * 1e9);
        l.check(
            last.len() == stats.objs.len() && last.iter().flatten().all(|&pe| pe < pes),
            || format!("lb.{name}: assignment is not one valid PE per object"),
        );
        l.set(
            format!("lb.{name}.post_imbalance"),
            charm_lb::post_imbalance(&stats, &last),
        );
    }
}

// ---------------------------------------------------------------------------
// sort

/// `sort.histsort_ns_per_key`: host time of one HistSort over 16 PEs.
pub fn sort(l: &mut Ledger, b: ProbeBudget, seed: u64) {
    let (pes, per_pe) = (16, 4096 / b.shrink);
    let mut sorted_ok = true;
    let secs = sample_secs(b.each, b.min, || {
        let keys = charm_sort::skewed_keys(pes, per_pe, mix(seed, 70));
        let mut rt = Runtime::homogeneous(pes);
        let (out, secs) = timed(|| charm_sort::hist_sort(&mut rt, keys.clone(), 0.05));
        sorted_ok &= charm_sort::verify_sorted(&keys, &out.buckets).is_ok();
        secs
    });
    l.check(sorted_ok, || {
        "sort: hist_sort output is not the sorted input".into()
    });
    l.set(
        "sort.histsort_ns_per_key",
        floor(&secs) * 1e9 / (pes * per_pe) as f64,
    );
}

// ---------------------------------------------------------------------------
// core: collectives

#[derive(Default)]
struct Reducer {
    rounds_left: u64,
    sum: f64,
}

impl Pup for Reducer {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.rounds_left, self.sum);
    }
}

impl Reducer {
    fn contribute(&mut self, ctx: &mut Ctx<'_>) {
        let arr = ArrayProxy::<Reducer>::from_id(ctx.my_id().array);
        ctx.contribute(
            arr,
            0,
            RedValue::F64(1.0),
            RedOp::Sum,
            Callback::BroadcastTo { array: arr.id() },
        );
    }
}

impl Chare for Reducer {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        self.contribute(ctx);
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { value, .. } = ev {
            self.sum += value.as_f64();
            if self.rounds_left > 0 {
                self.rounds_left -= 1;
                self.contribute(ctx);
            }
        }
    }
}

/// `core.collectives.reduction_ns_per_contrib`: rounds of sum-reduce then
/// broadcast over 256 chares on 16 PEs; host time per contribution.
pub fn collectives(l: &mut Ledger, b: ProbeBudget, seed: u64) {
    let (chares, rounds) = (256i64, (200 / b.shrink) as u64);
    let mut sums_ok = true;
    let secs = sample_secs(b.each, b.min, || {
        let mut rt = Runtime::builder(MachineConfig::homogeneous(16))
            .seed(mix(seed, 80))
            .build();
        let arr = rt.create_array::<Reducer>("reducers");
        for i in 0..chares {
            rt.insert(
                arr,
                Ix::i1(i),
                Reducer {
                    rounds_left: rounds - 1,
                    sum: 0.0,
                },
                Some(i as usize % 16),
            );
        }
        rt.broadcast(arr, 0u8);
        let secs = timed(|| rt.run()).1;
        sums_ok &= rt.inspect(arr, &Ix::i1(0), |r: &Reducer| r.sum)
            == Some((chares as u64 * rounds) as f64);
        secs
    });
    l.check(sums_ok, || {
        "collectives: reduced sums are not chares × rounds".into()
    });
    l.set(
        "core.collectives.reduction_ns_per_contrib",
        floor(&secs) * 1e9 / (chares as u64 * rounds) as f64,
    );
}

// ---------------------------------------------------------------------------
// core: lbframework

#[derive(Default)]
struct Syncer {
    rounds_left: u64,
    flops: f64,
}

impl Pup for Syncer {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.rounds_left, self.flops);
    }
}

impl Syncer {
    fn step(&mut self, ctx: &mut Ctx<'_>) {
        if self.rounds_left > 0 {
            self.rounds_left -= 1;
            ctx.work(self.flops);
            ctx.at_sync();
        }
    }
}

impl Chare for Syncer {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        self.step(ctx);
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if matches!(ev, SysEvent::ResumeFromSync) {
            self.step(ctx);
        }
    }
}

/// `core.lbframework.round_host_ns`: host time of one AtSync round —
/// statistics, `GreedyLb`, migrations, resume — over 256 skewed objects on
/// 16 PEs.
pub fn lbframework(l: &mut Ledger, b: ProbeBudget, seed: u64) {
    let (chares, rounds) = (256i64, (40 / b.shrink).max(2) as u64);
    let mut rounds_ok = true;
    let secs = sample_secs(b.each, b.min, || {
        let mut rt = Runtime::builder(MachineConfig::homogeneous(16))
            .seed(mix(seed, 90))
            .strategy(Box::new(charm_lb::GreedyLb))
            .lb_trigger(LbTrigger::AtSync)
            .build();
        let arr = rt.create_array::<Syncer>("syncers");
        rt.set_at_sync(arr, true);
        for i in 0..chares {
            let flops = 1e4 * (1 + mix(seed, 91 + i as u64) % 64) as f64;
            // Blocked placement: the skew lands on few PEs, so rounds migrate.
            rt.insert(
                arr,
                Ix::i1(i),
                Syncer {
                    rounds_left: rounds,
                    flops,
                },
                Some(i as usize * 16 / chares as usize),
            );
        }
        rt.broadcast(arr, 0u8);
        let secs = timed(|| rt.run()).1;
        rounds_ok &= rt.lb_rounds().len() as u64 == rounds;
        secs
    });
    l.check(rounds_ok, || {
        "lbframework: AtSync rounds run != rounds requested".into()
    });
    l.set(
        "core.lbframework.round_host_ns",
        floor(&secs) * 1e9 / rounds as f64,
    );
}

// ---------------------------------------------------------------------------
// core: ft

#[derive(Default)]
struct Cell {
    atoms: Vec<Particle>,
}

impl Pup for Cell {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.atoms);
    }
}

impl Chare for Cell {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, _ctx: &mut Ctx<'_>) {}
}

fn cells_runtime(cells: i64, seed: u64, populate: bool) -> Runtime {
    let mut rt = Runtime::builder(MachineConfig::homogeneous(8))
        .seed(seed)
        .build();
    let arr = rt.create_array::<Cell>("cells");
    if populate {
        for i in 0..cells {
            rt.insert(
                arr,
                Ix::i1(i),
                Cell {
                    atoms: particles(1000, mix(seed, i as u64)),
                },
                None,
            );
        }
    }
    rt
}

/// `core.ft.*`: a disk checkpoint of 64 cells × 1 K particles written and
/// restored through the public `Runtime` calls; the restored runtime must
/// digest like the original.
pub fn ft(l: &mut Ledger, b: ProbeBudget, seed: u64, scratch: &Path) {
    let cells = (64 / b.shrink).max(2) as i64;
    let path = scratch.join("probe.ckpt");
    let mut rt = cells_runtime(cells, mix(seed, 100), true);
    let want = fold_digest(&rt.state_digest());
    let mut bytes = 0usize;
    let mut io_ok = true;
    let write = time_samples(b.each, b.min, || {
        match span("checkpoint_to_disk", || rt.checkpoint_to_disk(&path)) {
            Ok(info) => bytes = info.bytes,
            Err(_) => io_ok = false,
        }
    });
    let mut got = 0u64;
    let read = sample_secs(b.each, b.min, || {
        let mut fresh = cells_runtime(cells, mix(seed, 100), false);
        let (restored, secs) =
            timed(|| span("restore_from_disk", || fresh.restore_from_disk(&path)));
        io_ok &= restored.is_ok();
        got = fold_digest(&fresh.state_digest());
        secs
    });
    let _ = std::fs::remove_file(&path);
    l.check(io_ok && bytes > 0, || {
        "ft: disk checkpoint or restore failed".into()
    });
    l.check(got == want, || {
        format!("ft: restored state digests {got:#x}, original {want:#x}")
    });
    l.set("core.ft.ckpt_bytes", bytes as f64);
    l.set(
        "core.ft.ckpt_disk_ns_per_byte",
        ratio(floor(&write) * 1e9, bytes as f64),
    );
    l.set(
        "core.ft.restore_disk_ns_per_byte",
        ratio(floor(&read) * 1e9, bytes as f64),
    );
}
