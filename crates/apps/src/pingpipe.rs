//! Pipelined ping — the introspective-control-system demo (§III-E, Fig. 6).
//!
//! A fixed-size transfer between two PEs is split into `pipeline_messages`
//! chunks. Few chunks → the whole payload rides one serialized transfer;
//! many chunks → per-message overheads dominate. The optimum is interior,
//! and the runtime's control system finds it from step-time feedback alone:
//! the application merely registers the control point and reports its step
//! times.

use crate::util::SyntheticBlob;
use charm_core::{ArrayProxy, Chare, Ctx, Ix, MachineConfig, Runtime, SysEvent};
use charm_pup::{Pup, Puper};

/// Name of the registered control point (as in the paper's ping benchmark).
pub(crate) const PIPELINE_CP: &str = "pipeline_messages";

/// Configuration for a pipelined-ping run.
pub struct PingConfig {
    /// Machine (the endpoints use PE 0 and the last PE).
    pub machine: MachineConfig,
    /// Total bytes transferred per step.
    pub payload: u64,
    /// Steps to run (each step = one full transfer + ack).
    pub steps: u64,
    /// Initial pipeline depth and its admissible range.
    pub initial: i64,
    /// Smallest depth the tuner may pick.
    pub min: i64,
    /// Largest depth the tuner may pick.
    pub max: i64,
    /// Whether the introspective tuner is active (false = hold `initial`).
    pub tune: bool,
}

impl Default for PingConfig {
    fn default() -> Self {
        PingConfig {
            machine: MachineConfig::homogeneous(2),
            payload: 256 * 1024,
            steps: 60,
            initial: 1,
            min: 1,
            max: 64,
            tune: true,
        }
    }
}

#[derive(Default)]
enum PingMsg {
    #[default]
    Start,
    Chunk {
        /// Chunks in this step's transfer.
        of: u32,
        /// Payload share of this chunk (drives the wire size).
        blob: SyntheticBlob,
    },
    Ack,
}

impl Pup for PingMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            PingMsg::Start => 0,
            PingMsg::Chunk { .. } => 1,
            PingMsg::Ack => 2,
        };
        p.p(&mut t);
        if p.is_unpacking() {
            *self = match t {
                0 => PingMsg::Start,
                1 => PingMsg::Chunk {
                    of: 0,
                    blob: SyntheticBlob::default(),
                },
                2 => PingMsg::Ack,
                x => panic!("bad PingMsg {x}"),
            };
        }
        if let PingMsg::Chunk { of, blob } = self {
            p.p(of);
            p.p(blob);
        }
    }
}


#[derive(Default)]
struct Pinger {
    is_sender: bool,
    peer: i64,
    payload: u64,
    steps: u64,
    step: u64,
    step_start: f64,
    chunks_seen: u32,
    tune: bool,
    fixed_k: i64,
}

impl Pup for Pinger {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.is_sender, self.peer, self.payload, self.steps, self.step,
            self.step_start, self.chunks_seen, self.tune, self.fixed_k
        );
    }
}

impl Pinger {
    fn begin_step(&mut self, ctx: &mut Ctx<'_>) {
        let me = ArrayProxy::<Pinger>::from_id(ctx.my_id().array);
        let k = if self.tune {
            ctx.control(PIPELINE_CP, self.fixed_k)
        } else {
            self.fixed_k
        }
        .clamp(1, 4096) as u64;
        self.step_start = ctx.now().as_secs_f64();
        ctx.log_metric("pipeline_k", k as f64);
        let per = self.payload / k;
        for _ in 0..k {
            ctx.send(
                me,
                Ix::i1(self.peer),
                PingMsg::Chunk {
                    of: k as u32,
                    blob: SyntheticBlob::new(per),
                },
            );
        }
    }
}

impl Chare for Pinger {
    type Msg = PingMsg;

    fn on_message(&mut self, msg: PingMsg, ctx: &mut Ctx<'_>) {
        let me = ArrayProxy::<Pinger>::from_id(ctx.my_id().array);
        match msg {
            PingMsg::Start => {
                assert!(self.is_sender);
                self.begin_step(ctx);
            }
            PingMsg::Chunk { of, .. } => {
                self.chunks_seen += 1;
                if self.chunks_seen >= of {
                    self.chunks_seen = 0;
                    ctx.send(me, Ix::i1(self.peer), PingMsg::Ack);
                }
            }
            PingMsg::Ack => {
                let dt = ctx.now().as_secs_f64() - self.step_start;
                ctx.log_metric("ping_step", dt);
                if self.tune {
                    ctx.report_objective(dt);
                }
                self.step += 1;
                if self.step < self.steps {
                    self.begin_step(ctx);
                } else {
                    ctx.exit();
                }
            }
        }
    }

    fn on_event(&mut self, _ev: SysEvent, _ctx: &mut Ctx<'_>) {}
}

/// Result of a ping run: per-step times and the pipeline depth trajectory.
#[derive(Debug)]
pub struct PingRun {
    /// Step durations, seconds.
    pub step_times: Vec<f64>,
    /// Pipeline depth used in each step.
    pub pipeline: Vec<f64>,
}

impl PingRun {
    /// Mean of the last `n` step times (converged performance).
    pub fn tail_mean(&self, n: usize) -> f64 {
        let k = self.step_times.len().saturating_sub(n);
        let tail = &self.step_times[k..];
        tail.iter().sum::<f64>() / tail.len().max(1) as f64
    }

    /// The depth the tuner settled on (last step's value).
    pub fn final_depth(&self) -> i64 {
        *self.pipeline.last().unwrap_or(&0.0) as i64
    }
}

/// Run the pipelined ping benchmark.
pub fn run(config: PingConfig) -> PingRun {
    let mut rt = Runtime::builder(config.machine).build();
    if config.tune {
        rt.control_registry()
            .register(PIPELINE_CP, config.min, config.max, config.initial);
    }
    let arr: ArrayProxy<Pinger> = rt.create_array("pingers");
    let last_pe = rt.num_pes() - 1;
    rt.insert(
        arr,
        Ix::i1(0),
        Pinger {
            is_sender: true,
            peer: 1,
            payload: config.payload,
            steps: config.steps,
            tune: config.tune,
            fixed_k: config.initial,
            ..Pinger::default()
        },
        Some(0),
    );
    rt.insert(
        arr,
        Ix::i1(1),
        Pinger {
            is_sender: false,
            peer: 0,
            payload: config.payload,
            tune: false,
            fixed_k: config.initial,
            ..Pinger::default()
        },
        Some(last_pe),
    );
    rt.send(arr, Ix::i1(0), PingMsg::Start);
    rt.run();
    PingRun {
        step_times: rt.metric("ping_step").iter().map(|&(_, v)| v).collect(),
        pipeline: rt.metric("pipeline_k").iter().map(|&(_, v)| v).collect(),
    }
}

/// Sweep fixed pipeline depths (no tuner) — ground truth for the tuner test
/// and for the Fig. 6 ablation.
pub fn sweep(payload: u64, depths: &[i64]) -> Vec<(i64, f64)> {
    depths
        .iter()
        .map(|&k| {
            let r = run(PingConfig {
                payload,
                steps: 6,
                initial: k,
                tune: false,
                ..PingConfig::default()
            });
            (k, r.tail_mean(4))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pipeline_depth_has_interior_optimum() {
        let s = sweep(256 * 1024, &[1, 2, 4, 8, 16, 32, 64, 128, 512]);
        let best = s
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        assert!(best.0 > 1 && best.0 < 512, "optimum must be interior: {s:?}");
        let t1 = s[0].1;
        let t_max = s.last().unwrap().1;
        assert!(t1 > best.1 * 1.2, "k=1 too slow: {s:?}");
        assert!(t_max > best.1 * 1.2, "k=512 too slow: {s:?}");
    }

    #[test]
    fn tuner_converges_near_the_optimum() {
        let truth = sweep(256 * 1024, &[1, 2, 4, 8, 16, 24, 32, 48, 64]);
        let best = truth
            .iter()
            .min_by(|a, b| a.1.total_cmp(&b.1))
            .expect("non-empty");
        let tuned = run(PingConfig {
            steps: 80,
            ..PingConfig::default()
        });
        // Fig. 6: "able to find the optimal value and stabilize".
        let converged = tuned.tail_mean(10);
        assert!(
            converged < best.1 * 1.3,
            "tuned={converged:.6}s best fixed={:.6}s (k={}) final_depth={}",
            best.1,
            best.0,
            tuned.final_depth()
        );
        assert!(tuned.final_depth() > 1, "must move off the k=1 start");
    }

    #[test]
    fn untuned_run_holds_depth() {
        let r = run(PingConfig {
            steps: 10,
            initial: 7,
            tune: false,
            ..PingConfig::default()
        });
        assert!(r.pipeline.iter().all(|&k| k == 7.0));
        assert_eq!(r.step_times.len(), 10);
    }
}
