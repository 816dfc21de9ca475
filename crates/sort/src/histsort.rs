//! HistSort: histogram sort on the charm-rs runtime (ref. [27]).
//!
//! One `Sorter` chare per PE holds its local keys. A singleton `SortMain`
//! refines P−1 splitters by repeated *histogramming*: it broadcasts probe
//! keys, every sorter counts local keys below each probe (binary search on
//! its presorted keys), a vector reduction sums the counts, and each
//! unresolved splitter's interval is bisected toward its target rank. Once
//! all splitters hit their tolerance, sorters exchange keys in one fully
//! asynchronous all-to-all and merge what they receive.

use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, RedOp, RedValue, Runtime, SimTime, SysEvent,
};
use charm_pup::{Pup, Puper};

/// Result of a [`hist_sort`] invocation.
#[derive(Debug)]
pub struct HistSortResult {
    /// Sorted keys, one bucket per PE, globally ordered across buckets.
    pub buckets: Vec<Vec<u64>>,
    /// Virtual time the sort took.
    pub time: SimTime,
}

/// Flop-cost constants (per key comparison-ish unit).
const SORT_FLOPS: f64 = 6.0;
const SCAN_FLOPS: f64 = 8.0;
const MERGE_FLOPS: f64 = 4.0;

// ---------------------------------------------------------------------------

#[derive(Default)]
struct Sorter {
    keys: Vec<u64>,
    incoming: Vec<Vec<u64>>,
    expected_total: u64,
    splitters: Vec<u64>,
    presorted: bool,
    main_ix: i64,
}

impl Pup for Sorter {
    fn pup(&mut self, p: &mut Puper) {
        p.p(&mut self.keys);
        p.p(&mut self.incoming);
        p.p(&mut self.expected_total);
        p.p(&mut self.splitters);
        p.p(&mut self.presorted);
        p.p(&mut self.main_ix);
    }
}

enum SorterMsg {
    /// Count keys below each probe; contribute the histogram.
    Histogram { round: u32, probes: Vec<u64> },
    /// Final splitters: partition and ship keys; expect `expected[you]`.
    Exchange {
        splitters: Vec<u64>,
        expected: Vec<u64>,
    },
    /// Keys destined for this bucket.
    Keys(Vec<u64>),
}

impl Pup for SorterMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            SorterMsg::Histogram { .. } => 0,
            SorterMsg::Exchange { .. } => 1,
            SorterMsg::Keys(_) => 2,
        };
        p.p(&mut t);
        if p.is_unpacking() {
            *self = match t {
                0 => SorterMsg::Histogram {
                    round: 0,
                    probes: Vec::new(),
                },
                1 => SorterMsg::Exchange {
                    splitters: Vec::new(),
                    expected: Vec::new(),
                },
                2 => SorterMsg::Keys(Vec::new()),
                x => panic!("bad SorterMsg tag {x}"),
            };
        }
        match self {
            SorterMsg::Histogram { round, probes } => {
                p.p(round);
                p.p(probes);
            }
            SorterMsg::Exchange {
                splitters,
                expected,
            } => {
                p.p(splitters);
                p.p(expected);
            }
            SorterMsg::Keys(k) => p.p(k),
        }
    }
}

impl Default for SorterMsg {
    fn default() -> Self {
        SorterMsg::Keys(Vec::new())
    }
}

impl Clone for SorterMsg {
    fn clone(&self) -> Self {
        match self {
            SorterMsg::Histogram { round, probes } => SorterMsg::Histogram {
                round: *round,
                probes: probes.clone(),
            },
            SorterMsg::Exchange {
                splitters,
                expected,
            } => SorterMsg::Exchange {
                splitters: splitters.clone(),
                expected: expected.clone(),
            },
            SorterMsg::Keys(k) => SorterMsg::Keys(k.clone()),
        }
    }
}

impl Sorter {
    fn main_cb(&self, ctx: &Ctx<'_>) -> Callback {
        Callback::ToChare {
            array: charm_core::ArrayId(ctx.my_id().array.0 + 1),
            ix: Ix::i1(self.main_ix),
        }
    }

    fn maybe_finish(&mut self, ctx: &mut Ctx<'_>) {
        let have: u64 = self.keys.len() as u64 + self.incoming.iter().map(|v| v.len() as u64).sum::<u64>();
        if self.expected_total != u64::MAX && have >= self.expected_total {
            // Merge the received runs with the kept keys.
            let mut total: Vec<u64> = std::mem::take(&mut self.keys);
            for run in self.incoming.drain(..) {
                total.extend(run);
            }
            ctx.work(total.len() as f64 * MERGE_FLOPS * (self.splitters.len().max(2) as f64).log2());
            total.sort_unstable();
            self.keys = total;
            let me = ArrayProxy::<Sorter>::from_id(ctx.my_id().array);
            ctx.contribute(
                me,
                u32::MAX,
                RedValue::I64(1),
                RedOp::Sum,
                self.main_cb(ctx),
            );
        }
    }
}

impl Chare for Sorter {
    type Msg = SorterMsg;

    fn on_message(&mut self, msg: SorterMsg, ctx: &mut Ctx<'_>) {
        match msg {
            SorterMsg::Histogram { round, probes } => {
                if !self.presorted {
                    // One-time local sort (part of the real algorithm).
                    let n = self.keys.len() as f64;
                    ctx.work(n * SORT_FLOPS * n.max(2.0).log2());
                    self.keys.sort_unstable();
                    self.presorted = true;
                }
                ctx.work(probes.len() as f64 * SCAN_FLOPS * (self.keys.len().max(2) as f64).log2());
                let counts: Vec<i64> = probes
                    .iter()
                    .map(|&probe| self.keys.partition_point(|&k| k < probe) as i64)
                    .collect();
                let me = ArrayProxy::<Sorter>::from_id(ctx.my_id().array);
                ctx.contribute(me, round, RedValue::VecI64(counts), RedOp::Sum, self.main_cb(ctx));
            }
            SorterMsg::Exchange {
                splitters,
                expected,
            } => {
                self.splitters = splitters;
                let my_bucket = match ctx.my_index() {
                    Ix::I1(i) => i as usize,
                    other => panic!("sorter index {other}"),
                };
                self.expected_total = expected[my_bucket];
                // Partition the presorted keys by splitter and ship.
                ctx.work(self.keys.len() as f64 * SCAN_FLOPS);
                let me = ArrayProxy::<Sorter>::from_id(ctx.my_id().array);
                let keys = std::mem::take(&mut self.keys);
                let nb = self.splitters.len() + 1;
                let mut parts: Vec<Vec<u64>> = vec![Vec::new(); nb];
                let mut b = 0usize;
                for k in keys {
                    while b < self.splitters.len() && k >= self.splitters[b] {
                        b += 1;
                    }
                    // keys are presorted, so b only moves forward
                    parts[b].push(k);
                }
                for (bucket, part) in parts.into_iter().enumerate() {
                    if bucket == my_bucket {
                        self.keys = part;
                    } else if !part.is_empty() {
                        ctx.send(me, Ix::i1(bucket as i64), SorterMsg::Keys(part));
                    }
                }
                self.maybe_finish(ctx);
            }
            SorterMsg::Keys(k) => {
                self.incoming.push(k);
                self.maybe_finish(ctx);
            }
        }
    }

    fn on_event(&mut self, _ev: SysEvent, _ctx: &mut Ctx<'_>) {}
}

// ---------------------------------------------------------------------------

#[derive(Default)]
struct SortMain {
    num_buckets: u64,
    total_keys: u64,
    tolerance: f64,
    /// Per-splitter search interval (lo, hi) in key space and resolved value.
    lo: Vec<u64>,
    hi: Vec<u64>,
    resolved: Vec<Option<u64>>,
    /// Probe → splitter mapping of the in-flight round.
    probe_for: Vec<u64>,
    round: u32,
    rounds_done: u64,
}

impl Pup for SortMain {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.num_buckets,
            self.total_keys,
            self.tolerance,
            self.lo,
            self.hi,
            self.resolved,
            self.probe_for,
            self.round,
            self.rounds_done
        );
    }
}

impl SortMain {
    fn sorters(&self, ctx: &Ctx<'_>) -> ArrayProxy<Sorter> {
        ArrayProxy::from_id(charm_core::ArrayId(ctx.my_id().array.0 - 1))
    }

    fn target_rank(&self, splitter: usize) -> u64 {
        ((splitter as u64 + 1) * self.total_keys) / self.num_buckets
    }

    fn send_round(&mut self, ctx: &mut Ctx<'_>) {
        let mut probes = Vec::new();
        self.probe_for.clear();
        for s in 0..self.resolved.len() {
            if self.resolved[s].is_none() {
                let mid = self.lo[s] + (self.hi[s] - self.lo[s]) / 2;
                probes.push(mid);
                self.probe_for.push(s as u64);
            }
        }
        if probes.is_empty() {
            self.finish_probing(ctx);
            return;
        }
        self.round += 1;
        self.rounds_done += 1;
        ctx.broadcast(
            self.sorters(ctx),
            SorterMsg::Histogram {
                round: self.round,
                probes,
            },
        );
    }

    fn finish_probing(&mut self, ctx: &mut Ctx<'_>) {
        // Independently bisected splitters can land fractionally out of
        // order within the tolerance; sort to restore monotonicity.
        let mut splitters: Vec<u64> =
            self.resolved.iter().map(|r| r.expect("resolved")).collect();
        splitters.sort_unstable();
        for (r, s) in self.resolved.iter_mut().zip(&splitters) {
            *r = Some(*s);
        }
        // Expected bucket sizes come from the splitters' achieved ranks; we
        // recompute them exactly with one final histogram round tagged 0.
        ctx.broadcast(
            self.sorters(ctx),
            SorterMsg::Histogram {
                round: 0,
                probes: splitters,
            },
        );
    }

    fn on_histogram(&mut self, tag: u32, counts: &[i64], ctx: &mut Ctx<'_>) {
        if tag == 0 {
            // Final exact ranks of the chosen splitters → bucket sizes.
            let splitters: Vec<u64> = self.resolved.iter().map(|r| r.expect("resolved")).collect();
            let mut expected = Vec::with_capacity(self.num_buckets as usize);
            let mut prev = 0i64;
            for &c in counts {
                expected.push((c - prev) as u64);
                prev = c;
            }
            expected.push(self.total_keys - prev as u64);
            ctx.log_metric("histsort_rounds", self.rounds_done as f64);
            ctx.broadcast(
                self.sorters(ctx),
                SorterMsg::Exchange {
                    splitters,
                    expected,
                },
            );
            return;
        }
        // Bisection update for each probed splitter.
        let tol = (self.tolerance * self.total_keys as f64 / self.num_buckets as f64).max(1.0) as u64;
        for (k, &s) in self.probe_for.clone().iter().enumerate() {
            let s = s as usize;
            let count = counts[k] as u64;
            let probe = self.lo[s] + (self.hi[s] - self.lo[s]) / 2;
            let target = self.target_rank(s);
            if count.abs_diff(target) <= tol || self.hi[s] - self.lo[s] <= 1 {
                self.resolved[s] = Some(probe);
            } else if count < target {
                self.lo[s] = probe;
            } else {
                self.hi[s] = probe;
            }
        }
        self.send_round(ctx);
    }
}

enum MainMsg {
    Start {
        num_buckets: u64,
        total_keys: u64,
        tolerance: f64,
    },
}

impl Pup for MainMsg {
    fn pup(&mut self, p: &mut Puper) {
        let MainMsg::Start {
            num_buckets,
            total_keys,
            tolerance,
        } = self;
        p.p(num_buckets);
        p.p(total_keys);
        p.p(tolerance);
    }
}

impl Default for MainMsg {
    fn default() -> Self {
        MainMsg::Start {
            num_buckets: 0,
            total_keys: 0,
            tolerance: 0.0,
        }
    }
}

impl Chare for SortMain {
    type Msg = MainMsg;

    fn on_message(&mut self, msg: MainMsg, ctx: &mut Ctx<'_>) {
        let MainMsg::Start {
            num_buckets,
            total_keys,
            tolerance,
        } = msg;
        self.num_buckets = num_buckets;
        self.total_keys = total_keys;
        self.tolerance = tolerance;
        let n = num_buckets as usize - 1;
        self.lo = vec![0; n];
        self.hi = vec![u64::MAX; n];
        self.resolved = vec![None; n];
        if n == 0 {
            // Single bucket: nothing to split; trigger the exchange with no
            // splitters so the lone sorter just sorts locally.
            ctx.broadcast(
                self.sorters(ctx),
                SorterMsg::Exchange {
                    splitters: Vec::new(),
                    expected: vec![total_keys],
                },
            );
            return;
        }
        self.send_round(ctx);
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { tag, value } = ev {
            if tag == u32::MAX {
                // All sorters merged: done.
                ctx.log_metric("histsort_done", 1.0);
                ctx.exit();
            } else {
                self.on_histogram(tag, value.as_vec_i64(), ctx);
            }
        }
    }
}

// ---------------------------------------------------------------------------

/// Run HistSort on `rt` over `keys` (one input vector per PE; the bucket
/// count equals the PE count). Returns sorted buckets plus timing.
///
/// Reusable from interop contexts: uses uniquely named arrays, clears the
/// exit flag afterwards, and leaves other arrays untouched.
pub fn hist_sort(rt: &mut Runtime, keys: Vec<Vec<u64>>, tolerance: f64) -> HistSortResult {
    let p = rt.num_pes();
    assert_eq!(keys.len(), p, "one key vector per PE");
    let stamp = rt.now().as_nanos();
    let sorters: ArrayProxy<Sorter> =
        rt.create_array(&format!("histsort_sorters_{stamp}_{p}"));
    let main: ArrayProxy<SortMain> = rt.create_array(&format!("histsort_main_{stamp}_{p}"));
    assert_eq!(main.id().0, sorters.id().0 + 1, "main follows sorters");

    let total: u64 = keys.iter().map(|k| k.len() as u64).sum();
    for (pe, k) in keys.into_iter().enumerate() {
        rt.insert(
            sorters,
            Ix::i1(pe as i64),
            Sorter {
                keys: k,
                expected_total: u64::MAX,
                main_ix: 0,
                ..Sorter::default()
            },
            Some(pe),
        );
    }
    rt.insert(main, Ix::i1(0), SortMain::default(), Some(0));

    let t0 = rt.now();
    rt.send(
        main,
        Ix::i1(0),
        MainMsg::Start {
            num_buckets: p as u64,
            total_keys: total,
            tolerance,
        },
    );
    rt.run();
    rt.clear_exit();
    let time = rt.now() - t0;

    let mut buckets = Vec::with_capacity(p);
    for pe in 0..p {
        let b = rt
            .inspect(sorters, &Ix::i1(pe as i64), |s: &Sorter| s.keys.clone())
            .expect("sorter exists");
        buckets.push(b);
    }
    HistSortResult { buckets, time }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{skewed_keys, verify_sorted};

    /// Largest bucket / ideal bucket size (load balance of the output).
    fn bucket_imbalance(buckets: &[Vec<u64>]) -> f64 {
        let total: usize = buckets.iter().map(Vec::len).sum();
        let ideal = (total as f64 / buckets.len() as f64).max(1.0);
        buckets
            .iter()
            .map(|b| b.len() as f64 / ideal)
            .fold(0.0, f64::max)
    }

    #[test]
    fn sorts_uniform_keys() {
        let mut rt = Runtime::homogeneous(8);
        let keys: Vec<Vec<u64>> = (0..8)
            .map(|pe| {
                (0..500u64)
                    .map(|i| (i * 2654435761).wrapping_mul(pe + 1))
                    .collect()
            })
            .collect();
        let orig = keys.clone();
        let r = hist_sort(&mut rt, keys, 0.05);
        verify_sorted(&orig, &r.buckets).expect("valid sort");
        let rounds = rt
            .metric("histsort_rounds")
            .last()
            .expect("rounds logged")
            .1;
        assert!(rounds > 0.0);
        let imbalance = bucket_imbalance(&r.buckets);
        assert!(imbalance < 1.2, "buckets near-equal: {imbalance}");
    }

    #[test]
    fn sorts_skewed_keys() {
        let mut rt = Runtime::homogeneous(16);
        let keys = skewed_keys(16, 300, 99);
        let orig = keys.clone();
        let r = hist_sort(&mut rt, keys, 0.05);
        verify_sorted(&orig, &r.buckets).expect("valid sort");
        let imbalance = bucket_imbalance(&r.buckets);
        assert!(imbalance < 1.25, "skewed input still balances: {imbalance}");
    }

    #[test]
    fn single_pe_degenerate_case() {
        let mut rt = Runtime::homogeneous(1);
        let keys = vec![vec![5, 3, 9, 1]];
        let r = hist_sort(&mut rt, keys, 0.1);
        assert_eq!(r.buckets[0], vec![1, 3, 5, 9]);
    }

    #[test]
    fn empty_input() {
        let mut rt = Runtime::homogeneous(4);
        let keys = vec![Vec::new(), Vec::new(), Vec::new(), Vec::new()];
        let r = hist_sort(&mut rt, keys, 0.1);
        assert!(r.buckets.iter().all(|b| b.is_empty()));
    }

    #[test]
    fn duplicate_heavy_input() {
        let mut rt = Runtime::homogeneous(4);
        let keys: Vec<Vec<u64>> = (0..4).map(|_| vec![42u64; 250]).collect();
        let orig = keys.clone();
        let r = hist_sort(&mut rt, keys, 0.05);
        verify_sorted(&orig, &r.buckets).expect("valid sort of duplicates");
        let total: usize = r.buckets.iter().map(|b| b.len()).sum();
        assert_eq!(total, 1000);
    }

    #[test]
    fn can_run_twice_on_one_runtime() {
        let mut rt = Runtime::homogeneous(4);
        let k1 = skewed_keys(4, 100, 1);
        let o1 = k1.clone();
        let r1 = hist_sort(&mut rt, k1, 0.1);
        verify_sorted(&o1, &r1.buckets).unwrap();
        let k2 = skewed_keys(4, 100, 2);
        let o2 = k2.clone();
        let r2 = hist_sort(&mut rt, k2, 0.1);
        verify_sorted(&o2, &r2.buckets).unwrap();
        assert!(rt.now() > r1.time, "virtual clock advanced across calls");
    }
}
