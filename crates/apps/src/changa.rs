//! ChaNGa-like phase-structured cosmology step (§IV-C, Fig. 13).
//!
//! ChaNGa's time step decomposes into Domain Decomposition (a global
//! particle sort/exchange), Tree Build (local construction plus boundary
//! merging), and Gravity (the dominant, clustered force computation), with
//! Load Balancing rounds in between. Fig. 13 reports the per-phase time
//! breakdown at scale. This mini-app reproduces that phase structure over
//! tree pieces, with per-phase work/communication models calibrated to the
//! same proportions (gravity ≫ DD > TB ≫ LB at moderate scale, with the
//! collectives-heavy phases growing relatively at large P).

use crate::util::gaussian_density;
use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, MachineConfig, RedOp, RedValue, Runtime, Strategy,
    SysEvent,
};
use charm_pup::{Pup, Puper};

const FLOPS_GRAVITY_PER_PARTICLE: f64 = 900.0;
const FLOPS_DD_PER_PARTICLE: f64 = 40.0;
const FLOPS_TB_PER_PARTICLE: f64 = 60.0;
const BYTES_PER_PARTICLE: u64 = 36;

/// Phases of one ChaNGa step, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Phase {
    /// Domain decomposition: particle exchange toward spatial owners.
    DD,
    /// Tree build: local construction + boundary merge with neighbors.
    TB,
    /// Gravity: the dominant force computation.
    Gravity,
}

impl Phase {
    const ALL: [Phase; 3] = [Phase::DD, Phase::TB, Phase::Gravity];

    fn tag_base(self) -> u32 {
        match self {
            Phase::DD => 0,
            Phase::TB => 1,
            Phase::Gravity => 2,
        }
    }
}

/// ChaNGa configuration.
pub struct ChangaConfig {
    /// Machine.
    pub machine: MachineConfig,
    /// Tree pieces (≥ PEs; over-decomposed).
    pub pieces: usize,
    /// Mean particles per piece.
    pub particles_per_piece: usize,
    /// Clustering strength.
    pub clustering: f64,
    /// Steps.
    pub steps: u64,
    /// AtSync LB every k steps (0 = never).
    pub lb_every: u64,
    /// Strategy.
    pub strategy: Option<Box<dyn Strategy>>,
    /// Seed.
    pub seed: u64,
}

impl Default for ChangaConfig {
    fn default() -> Self {
        ChangaConfig {
            machine: MachineConfig::homogeneous(8),
            pieces: 64,
            particles_per_piece: 300,
            clustering: 6.0,
            steps: 6,
            lb_every: 0,
            strategy: None,
            seed: 42,
        }
    }
}

/// Per-step phase timings (seconds).
#[derive(Debug, Clone, Default)]
pub struct PhaseBreakdown {
    /// Mean domain-decomposition phase time, seconds.
    pub dd: f64,
    /// Mean tree-build phase time, seconds.
    pub tb: f64,
    /// Mean gravity phase time, seconds.
    pub gravity: f64,
    /// Mean per-step load-balancing cost, seconds.
    pub lb: f64,
    /// Mean total step time, seconds.
    pub total: f64,
}

enum PieceMsg {
    RunPhase { step: u64, phase: u8 },
    Particles { bytes: u64 },
}

impl Pup for PieceMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            PieceMsg::RunPhase { .. } => 0,
            PieceMsg::Particles { .. } => 1,
        };
        p.p(&mut t);
        if p.is_unpacking() {
            *self = match t {
                0 => PieceMsg::RunPhase { step: 0, phase: 0 },
                _ => PieceMsg::Particles { bytes: 0 },
            };
        }
        match self {
            PieceMsg::RunPhase { step, phase } => {
                p.p(step);
                p.p(phase);
            }
            PieceMsg::Particles { bytes } => p.p(bytes),
        }
    }
}

impl Default for PieceMsg {
    fn default() -> Self {
        PieceMsg::Particles { bytes: 0 }
    }
}

impl Clone for PieceMsg {
    fn clone(&self) -> Self {
        match self {
            PieceMsg::RunPhase { step, phase } => PieceMsg::RunPhase {
                step: *step,
                phase: *phase,
            },
            PieceMsg::Particles { bytes } => PieceMsg::Particles { bytes: *bytes },
        }
    }
}

#[derive(Default)]
struct Piece {
    idx: u64,
    pieces_total: u64,
    n: u32,
    mean_n: u64,
    clustering: f64,
    lb_every: u64,
    driver: ArrayProxy<Driver>,
    pieces: ArrayProxy<Piece>,
    waiting_resume: bool,
    resume_step: u64,
}

impl Pup for Piece {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.idx, self.pieces_total, self.n, self.mean_n, self.clustering,
            self.lb_every, self.driver, self.pieces, self.waiting_resume,
            self.resume_step
        );
    }
}

impl Piece {
    fn refresh_population(&mut self, step: u64) {
        let f = self.idx as f64 / self.pieces_total as f64;
        let pos = [f.fract(), (f * 7.13).fract(), (f * 3.77).fract()];
        let t = step as f64 * 0.01;
        let dens = gaussian_density(
            pos,
            [(0.4 + t).fract(), 0.5, 0.5],
            0.15,
            1.0,
            self.clustering - 1.0,
        );
        self.n = (self.mean_n as f64 * dens / 1.5).round().max(1.0) as u32;
    }

    fn done(&mut self, step: u64, phase: Phase, ctx: &mut Ctx<'_>) {
        ctx.contribute(
            self.pieces,
            step as u32 * 4 + phase.tag_base() + 1,
            RedValue::I64(self.n as i64),
            RedOp::Sum,
            Callback::ToChare {
                array: self.driver.id(),
                ix: Ix::i1(0),
            },
        );
    }
}

impl Chare for Piece {
    type Msg = PieceMsg;

    fn on_message(&mut self, msg: PieceMsg, ctx: &mut Ctx<'_>) {
        match msg {
            PieceMsg::RunPhase { step, phase } => {
                let ph = Phase::ALL[phase as usize];
                match ph {
                    Phase::DD => {
                        self.refresh_population(step);
                        // Exchange a slice of particles with two "owner"
                        // pieces (the sorted redistribution's comm pattern).
                        ctx.work(self.n as f64 * FLOPS_DD_PER_PARTICLE);
                        let moved = self.n as u64 / 8;
                        for k in 1..=2u64 {
                            let dst = (self.idx + k * 7919) % self.pieces_total;
                            ctx.send(
                                self.pieces,
                                Ix::i1(dst as i64),
                                PieceMsg::Particles {
                                    bytes: moved * BYTES_PER_PARTICLE,
                                },
                            );
                        }
                        self.done(step, ph, ctx);
                    }
                    Phase::TB => {
                        ctx.work(self.n as f64 * FLOPS_TB_PER_PARTICLE);
                        self.done(step, ph, ctx);
                    }
                    Phase::Gravity => {
                        // O(n log N): the log factor is in the *global*
                        // particle count, constant across a strong-scaling
                        // sweep — folded into FLOPS_GRAVITY_PER_PARTICLE.
                        let n = self.n as f64;
                        ctx.work(n * FLOPS_GRAVITY_PER_PARTICLE * 2.5);
                        let lb_step =
                            self.lb_every > 0 && (step + 1) % self.lb_every == 0;
                        if lb_step {
                            self.waiting_resume = true;
                            self.resume_step = step;
                            ctx.at_sync();
                        } else {
                            self.done(step, ph, ctx);
                        }
                    }
                }
            }
            PieceMsg::Particles { .. } => {
                // Payload accounted by the message size; population model
                // is deterministic, so nothing to update here.
            }
        }
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if matches!(ev, SysEvent::ResumeFromSync) && self.waiting_resume {
            self.waiting_resume = false;
            self.done(self.resume_step, Phase::Gravity, ctx);
        }
    }

    fn load_hint(&self) -> f64 {
        (self.n as f64).max(1.0)
    }
}

#[derive(Default)]
struct Driver {
    step: u64,
    steps: u64,
    phase: u8,
    phase_started: f64,
    pieces: ArrayProxy<Piece>,
}

impl Pup for Driver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.steps, self.phase, self.phase_started, self.pieces);
    }
}

impl Driver {
    fn launch_phase(&mut self, ctx: &mut Ctx<'_>) {
        self.phase_started = ctx.now().as_secs_f64();
        ctx.broadcast(
            self.pieces,
            PieceMsg::RunPhase {
                step: self.step,
                phase: self.phase,
            },
        );
    }
}

impl Chare for Driver {
    type Msg = u8;

    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        self.launch_phase(ctx);
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { .. } = ev {
            let ph = Phase::ALL[self.phase as usize];
            let dt = ctx.now().as_secs_f64() - self.phase_started;
            let name = match ph {
                Phase::DD => "changa_dd",
                Phase::TB => "changa_tb",
                Phase::Gravity => "changa_gravity",
            };
            ctx.log_metric(name, dt);
            self.phase += 1;
            if (self.phase as usize) < Phase::ALL.len() {
                self.launch_phase(ctx);
                return;
            }
            self.phase = 0;
            self.step += 1;
            ctx.log_metric("changa_step", ctx.now().as_secs_f64());
            if self.step < self.steps {
                self.launch_phase(ctx);
            } else {
                ctx.exit();
            }
        }
    }
}

/// Run the mini-app; returns mean per-step phase breakdown.
pub fn run(mut config: ChangaConfig) -> PhaseBreakdown {
    let mut b = Runtime::builder(std::mem::replace(
        &mut config.machine,
        MachineConfig::homogeneous(1),
    ))
    .seed(config.seed);
    if let Some(s) = config.strategy.take() {
        b = b.strategy(s);
    }
    let mut rt = b.build();
    let pieces: ArrayProxy<Piece> = rt.create_array("changa_pieces");
    let driver: ArrayProxy<Driver> = rt.create_array("changa_driver");
    rt.set_at_sync(pieces, config.lb_every > 0);

    let pes = rt.num_pes();
    for i in 0..config.pieces {
        let mut piece = Piece {
            idx: i as u64,
            pieces_total: config.pieces as u64,
            mean_n: config.particles_per_piece as u64,
            clustering: config.clustering,
            lb_every: config.lb_every,
            driver,
            pieces,
            ..Piece::default()
        };
        piece.refresh_population(0);
        rt.insert(pieces, Ix::i1(i as i64), piece, Some(i * pes / config.pieces));
    }
    rt.insert(
        driver,
        Ix::i1(0),
        Driver {
            steps: config.steps,
            pieces,
            ..Driver::default()
        },
        Some(0),
    );
    rt.send(driver, Ix::i1(0), 0u8);
    rt.run();

    let mean = |name: &str| {
        let v = rt.metric(name);
        if v.is_empty() {
            0.0
        } else {
            v.iter().map(|&(_, x)| x).sum::<f64>() / v.len() as f64
        }
    };
    let lb: f64 = rt.lb_rounds().iter().map(|r| r.cost_s).sum::<f64>()
        / rt.metric("changa_step").len().max(1) as f64;
    let steps = rt.metric("changa_step");
    let total = if steps.len() >= 2 {
        (steps[steps.len() - 1].0 - steps[0].0) / (steps.len() - 1) as f64
    } else {
        steps.first().map(|&(t, _)| t).unwrap_or(0.0)
    };
    PhaseBreakdown {
        dd: mean("changa_dd"),
        tb: mean("changa_tb"),
        gravity: mean("changa_gravity"),
        lb,
        total,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gravity_dominates_the_breakdown() {
        let b = run(ChangaConfig::default());
        assert!(b.gravity > b.dd, "gravity {:.5} > dd {:.5}", b.gravity, b.dd);
        assert!(b.gravity > b.tb, "gravity {:.5} > tb {:.5}", b.gravity, b.tb);
        assert!(b.total > 0.0);
    }

    #[test]
    fn phases_sum_close_to_total() {
        let b = run(ChangaConfig::default());
        let sum = b.dd + b.tb + b.gravity + b.lb;
        assert!(
            sum <= b.total * 1.15 && sum >= b.total * 0.6,
            "sum={sum:.5} total={:.5}",
            b.total
        );
    }

    #[test]
    fn lb_cost_appears_when_enabled() {
        let b = run(ChangaConfig {
            lb_every: 2,
            strategy: Some(Box::new(charm_lb::GreedyLb)),
            ..ChangaConfig::default()
        });
        assert!(b.lb > 0.0, "LB rounds must be accounted");
    }

    #[test]
    fn deterministic() {
        let a = run(ChangaConfig::default());
        let b = run(ChangaConfig::default());
        assert_eq!(a.total, b.total);
        assert_eq!(a.gravity, b.gravity);
    }
}
