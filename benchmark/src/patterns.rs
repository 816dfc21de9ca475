//! Task-Bench dependence patterns as zero-work chares.
//!
//! A pattern is a grid of `width` points × `steps` timesteps; point
//! `(t, i)` may run once every input from step `t - 1` has arrived and
//! then sends one message to each point of step `t + 1` that depends on
//! it. No point declares work, so simulated time is all network and
//! scheduling, and host time is all runtime: event queue, routing, PE
//! scheduler, arena. A *task* here is one entry-method execution (one
//! delivered message), as in `overhead_bench`; a Task-Bench point with `k`
//! inputs costs `k` tasks.

use crate::harness::{alloc_calls, fold_digest, span, Rep};
use charm_core::{ArrayProxy, Chare, Ctx, Ix, MachineConfig, Runtime, RuntimeBuilder};
use charm_pup::{Pup, Puper};
use std::time::Instant;

pub const PES: usize = 8;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Pattern {
    /// Each point depends on itself only: `width` independent chains.
    Trivial,
    /// `i - 1`, `i`, `i + 1` (not periodic).
    Stencil1d,
    /// Butterfly: `i` and `i XOR 2^((t-1) mod log2 width)`.
    Fft,
    /// Parent `i / 2`; children `2i`, `2i + 1`.
    Tree,
    /// Every point of the previous step.
    AllToAll,
}

impl Pattern {
    pub const ALL: [Pattern; 5] = [
        Pattern::Trivial,
        Pattern::Stencil1d,
        Pattern::Fft,
        Pattern::Tree,
        Pattern::AllToAll,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Pattern::Trivial => "trivial",
            Pattern::Stencil1d => "stencil_1d",
            Pattern::Fft => "fft",
            Pattern::Tree => "tree",
            Pattern::AllToAll => "all_to_all",
        }
    }

    fn code(self) -> u8 {
        self as u8
    }

    fn from_code(c: u8) -> Pattern {
        Pattern::ALL[c as usize % Pattern::ALL.len()]
    }

    /// Inputs point `(t, i)` waits for. Step 0 waits for the one injected
    /// message.
    fn need(self, t: u64, i: i64, width: i64) -> u32 {
        if t == 0 {
            return 1;
        }
        match self {
            Pattern::Trivial | Pattern::Tree => 1,
            Pattern::Stencil1d => 1 + u32::from(i > 0) + u32::from(i + 1 < width),
            Pattern::Fft => 2,
            Pattern::AllToAll => width as u32,
        }
    }

    /// Points of step `t + 1` that depend on `(t, i)`.
    fn for_each_out(self, t: u64, i: i64, width: i64, mut f: impl FnMut(i64)) {
        match self {
            Pattern::Trivial => f(i),
            Pattern::Stencil1d => {
                if i > 0 {
                    f(i - 1);
                }
                f(i);
                if i + 1 < width {
                    f(i + 1);
                }
            }
            Pattern::Fft => {
                let stages = width.trailing_zeros().max(1) as u64;
                f(i);
                f(i ^ (1 << (t % stages)));
            }
            Pattern::Tree => {
                for c in [2 * i, 2 * i + 1] {
                    if c < width {
                        f(c);
                    }
                }
            }
            Pattern::AllToAll => (0..width).for_each(f),
        }
    }

    /// Tasks (deliveries) a `width × steps` graph executes.
    pub fn expected_tasks(self, width: i64, steps: u64) -> u64 {
        (0..steps)
            .map(|t| {
                (0..width)
                    .map(|i| u64::from(self.need(t, i, width)))
                    .sum::<u64>()
            })
            .sum()
    }
}

/// One point column of the graph: chare `i` runs `(0, i)`, `(1, i)`, ….
#[derive(Default)]
pub struct Point {
    pattern: u8,
    width: i64,
    steps: u64,
    step: u64,
    /// Inputs received for the current step and the next (a neighbour can
    /// run at most one step ahead), indexed by step parity.
    got: [u32; 2],
    fired: u64,
}

impl Pup for Point {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.pattern, self.width, self.steps, self.step, self.fired);
        charm_pup::pup_array(p, &mut self.got);
    }
}

impl Chare for Point {
    /// The parity of the step the message is an input of.
    type Msg = u8;

    fn on_message(&mut self, parity: u8, ctx: &mut Ctx<'_>) {
        self.got[(parity & 1) as usize] += 1;
        let pattern = Pattern::from_code(self.pattern);
        let me = match ctx.my_index() {
            Ix::I1(i) => i,
            other => panic!("storm points are 1-D, got {other:?}"),
        };
        let arr = ArrayProxy::<Point>::from_id(ctx.my_id().array);
        while self.step < self.steps {
            let p = (self.step & 1) as usize;
            let need = pattern.need(self.step, me, self.width);
            if self.got[p] < need {
                break;
            }
            self.got[p] -= need;
            self.fired += 1; // the task itself: zero work
            let t = self.step;
            self.step += 1;
            if self.step < self.steps {
                let next = (self.step & 1) as u8;
                pattern.for_each_out(t, me, self.width, |j| ctx.send(arr, Ix::i1(j), next));
            }
        }
    }
}

/// A pattern instance and the builder toggles an arm applies to it.
#[derive(Clone, Copy)]
pub struct Graph {
    pub pattern: Pattern,
    pub width: i64,
    pub steps: u64,
    pub seed: u64,
}

impl Graph {
    pub fn expected_tasks(&self) -> u64 {
        self.pattern.expected_tasks(self.width, self.steps)
    }

    /// Build, populate, inject, run and digest once. `toggles` applies the
    /// arm's `RuntimeBuilder` settings; `after` runs on the finished
    /// runtime (sink statistics, replay log) and may add to the `Rep`.
    pub fn run(
        &self,
        toggles: impl FnOnce(RuntimeBuilder) -> RuntimeBuilder,
        after: impl FnOnce(&mut Runtime, &mut Rep),
    ) -> Rep {
        let t0 = Instant::now();
        let mut rep = Rep::default();
        let mut rt = span("RuntimeBuilder::build", || {
            toggles(Runtime::builder(MachineConfig::homogeneous(PES)).seed(self.seed)).build()
        });
        let arr = span("create_array+insert", || {
            let arr = rt.create_array::<Point>("points");
            for i in 0..self.width {
                let point = Point {
                    pattern: self.pattern.code(),
                    width: self.width,
                    steps: self.steps,
                    ..Point::default()
                };
                // Block placement, as Task Bench maps points to ranks.
                let pe = (i * PES as i64 / self.width) as usize;
                rt.insert(arr, Ix::i1(i), point, Some(pe));
            }
            arr
        });
        let t_ins = t0.elapsed().as_secs_f64();
        span("send", || {
            for i in 0..self.width {
                rt.send(arr, Ix::i1(i), 0u8);
            }
        });
        rep.setup_s = t0.elapsed().as_secs_f64();
        rep.extra.insert("insert_s", t_ins);
        rep.extra.insert("inject_s", rep.setup_s - t_ins);

        let allocs = alloc_calls();
        let t1 = Instant::now();
        let summary = span("Runtime::run", || rt.run());
        rep.run_s = t1.elapsed().as_secs_f64();
        rep.alloc_calls = alloc_calls() - allocs;
        rep.absorb(&summary);

        let t2 = Instant::now();
        rep.digest = span("state_digest", || fold_digest(&rt.state_digest()));
        rep.extra.insert("digest_s", t2.elapsed().as_secs_f64());
        after(&mut rt, &mut rep);
        rep.total_s = t0.elapsed().as_secs_f64();
        rep
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every pattern runs to the end and executes exactly the tasks its
    /// dependence relation implies — which also proves `need` and
    /// `for_each_out` describe the same edges.
    #[test]
    fn every_pattern_completes_with_the_expected_task_count() {
        for pattern in Pattern::ALL {
            for (width, steps) in [(8i64, 5u64), (16, 9), (32, 3)] {
                let g = Graph {
                    pattern,
                    width,
                    steps,
                    seed: 1,
                };
                let rep = g.run(|b| b, |_, _| ());
                assert_eq!(
                    rep.tasks,
                    g.expected_tasks(),
                    "{} {width}x{steps}",
                    pattern.name()
                );
                assert!(rep.events >= rep.tasks);
            }
        }
    }

    #[test]
    fn points_finish_every_step() {
        let g = Graph {
            pattern: Pattern::Stencil1d,
            width: 16,
            steps: 7,
            seed: 3,
        };
        let mut fired = 0;
        g.run(
            |b| b,
            |rt, _| {
                let id = rt.array_id("points").unwrap();
                let arr = ArrayProxy::<Point>::from_id(id);
                for ix in rt.array_indices(id) {
                    fired += rt
                        .inspect(arr, &ix, |p: &Point| {
                            assert_eq!(p.step, 7);
                            assert_eq!(p.got, [0, 0]);
                            p.fired
                        })
                        .unwrap();
                }
            },
        );
        assert_eq!(fired, 16 * 7);
    }

    #[test]
    fn same_seed_same_digest_and_toggles_keep_results() {
        let g = Graph {
            pattern: Pattern::Fft,
            width: 16,
            steps: 6,
            seed: 9,
        };
        let a = g.run(|b| b, |_, _| ());
        let b = g.run(|b| b.location_cache(false), |_, _| ());
        assert_eq!(a.digest, b.digest);
        assert_eq!(a.tasks, b.tasks);
    }

    #[test]
    fn expected_tasks_by_hand() {
        assert_eq!(Pattern::Trivial.expected_tasks(4, 3), 12);
        // step 0: 4; steps 1-2: (2+3+3+2) each
        assert_eq!(Pattern::Stencil1d.expected_tasks(4, 3), 4 + 2 * 10);
        assert_eq!(Pattern::AllToAll.expected_tasks(4, 3), 4 + 2 * 16);
        assert_eq!(Pattern::Fft.expected_tasks(4, 3), 4 + 2 * 8);
        assert_eq!(Pattern::Tree.expected_tasks(4, 3), 12);
    }
}
