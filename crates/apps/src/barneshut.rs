//! Barnes-Hut — N-body gravity with tree pieces (§IV-C, Fig. 12).
//!
//! The 3-D space is oct-decomposed into `TreePieces` (bit-vector indices at
//! a fixed depth). Each step a piece builds its local tree, requests remote
//! node data from its spatial partners — *requests carry high priority*,
//! because "the remote requests might take longer than the local
//! computation" — and computes forces when all replies arrive. Particle
//! clustering (a Gaussian blob) makes piece loads wildly uneven; OrbLB
//! restores balance while preserving spatial locality.

use crate::util::{gaussian_density, SyntheticBlob};
use crate::AppRun;
use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, MachineConfig, RedOp, RedValue, Runtime,
    Strategy, SysEvent,
};
use charm_pup::{Pup, Puper};

const FLOPS_NEAR_PER_PAIR: f64 = 24.0;
const FLOPS_FAR_PER_NODE: f64 = 60.0;
const FLOPS_TREE_BUILD: f64 = 30.0;
const BYTES_PER_PARTICLE: u64 = 48;
/// Priority for remote-data requests/replies: far ahead of bulk compute.
const PRIO_REQUEST: i64 = -10;
const PRIO_REPLY: i64 = -5;
/// Bulk force computation runs below everything else so communication
/// keeps flowing (the whole point of prioritization, §IV-C).
const PRIO_COMPUTE: i64 = 10;

/// Barnes-Hut configuration.
pub struct BarnesHutConfig {
    /// Machine.
    pub machine: MachineConfig,
    /// Oct-tree decomposition depth: pieces = 8^depth.
    pub depth: u8,
    /// Mean particles per piece.
    pub particles_per_piece: usize,
    /// Clustering strength (peak/floor density).
    pub clustering: f64,
    /// Steps.
    pub steps: u64,
    /// AtSync every k steps (0 = never).
    pub lb_every: u64,
    /// Strategy (OrbLB is the paper's choice).
    pub strategy: Option<Box<dyn Strategy>>,
    /// Use prioritized request messages?
    pub prioritize_requests: bool,
    /// Seed.
    pub seed: u64,
}

impl Default for BarnesHutConfig {
    fn default() -> Self {
        BarnesHutConfig {
            machine: MachineConfig::homogeneous(8),
            depth: 2,
            particles_per_piece: 200,
            clustering: 8.0,
            steps: 8,
            lb_every: 0,
            strategy: None,
            prioritize_requests: true,
            seed: 42,
        }
    }
}

use crate::util::oct_bits as bits_of;

fn piece_ix(c: [u32; 3], d: u8) -> Ix {
    Ix::Bits {
        bits: bits_of(c, d),
        len: 3 * d,
    }
}

/// Particle count from the clustered density.
fn particles_at(mean: usize, clustering: f64, c: [u32; 3], d: u8) -> u32 {
    let side = (1u32 << d) as f64;
    let pos = [
        (c[0] as f64 + 0.5) / side,
        (c[1] as f64 + 0.5) / side,
        (c[2] as f64 + 0.5) / side,
    ];
    let dens = gaussian_density(pos, [0.35, 0.45, 0.55], 0.15, 1.0, clustering - 1.0);
    (mean as f64 * dens / 1.5).round().max(1.0) as u32
}

enum PieceMsg {
    Step(u64),
    /// Request for node data (from `from`, for `step`).
    Request { step: u64, from_bits: u64 },
    /// Reply carrying node data.
    Reply { step: u64, payload: SyntheticBlob },
    /// Self-message: all node data present, run the force kernel.
    ComputeNow,
}

impl Pup for PieceMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            PieceMsg::Step(_) => 0,
            PieceMsg::Request { .. } => 1,
            PieceMsg::Reply { .. } => 2,
            PieceMsg::ComputeNow => 3,
        };
        p.p(&mut t);
        if p.is_unpacking() {
            *self = match t {
                0 => PieceMsg::Step(0),
                1 => PieceMsg::Request {
                    step: 0,
                    from_bits: 0,
                },
                2 => PieceMsg::Reply {
                    step: 0,
                    payload: SyntheticBlob::default(),
                },
                3 => PieceMsg::ComputeNow,
                x => panic!("bad PieceMsg {x}"),
            };
        }
        match self {
            PieceMsg::Step(s) => p.p(s),
            PieceMsg::Request { step, from_bits } => {
                p.p(step);
                p.p(from_bits);
            }
            PieceMsg::Reply { step, payload } => {
                p.p(step);
                p.p(payload);
            }
            PieceMsg::ComputeNow => {}
        }
    }
}

impl Default for PieceMsg {
    fn default() -> Self {
        PieceMsg::Step(0)
    }
}

impl Clone for PieceMsg {
    fn clone(&self) -> Self {
        match self {
            PieceMsg::Step(s) => PieceMsg::Step(*s),
            PieceMsg::Request { step, from_bits } => PieceMsg::Request {
                step: *step,
                from_bits: *from_bits,
            },
            PieceMsg::Reply { step, payload } => PieceMsg::Reply {
                step: *step,
                payload: payload.clone(),
            },
            PieceMsg::ComputeNow => PieceMsg::ComputeNow,
        }
    }
}

#[derive(Default)]
struct TreePiece {
    c: [u32; 3],
    depth: u8,
    n: u32,
    mean_n: u64,
    clustering: f64,
    step: u64,
    replies_seen: u32,
    early_replies: u32,
    partner_particles: u64,
    prioritize: bool,
    lb_every: u64,
    data: SyntheticBlob,
    pieces: ArrayProxy<TreePiece>,
    driver: ArrayProxy<Driver>,
    waiting_resume: bool,
}

impl Pup for TreePiece {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.c, self.depth, self.n, self.mean_n, self.clustering,
            self.step, self.replies_seen, self.early_replies,
            self.partner_particles, self.prioritize, self.lb_every,
            self.data, self.pieces, self.driver, self.waiting_resume
        );
    }
}

impl TreePiece {
    /// Spatial partners: face/edge/corner neighbors (clamped at the domain
    /// boundary) plus a deterministic sample of far pieces (the multipole
    /// interactions that cross the tree).
    fn partners(&self) -> Vec<Ix> {
        let side = 1i64 << self.depth;
        let mut out = Vec::new();
        for dx in -1i64..=1 {
            for dy in -1i64..=1 {
                for dz in -1i64..=1 {
                    if dx == 0 && dy == 0 && dz == 0 {
                        continue;
                    }
                    let x = self.c[0] as i64 + dx;
                    let y = self.c[1] as i64 + dy;
                    let z = self.c[2] as i64 + dz;
                    if x < 0 || y < 0 || z < 0 || x >= side || y >= side || z >= side {
                        continue;
                    }
                    out.push(piece_ix([x as u32, y as u32, z as u32], self.depth));
                }
            }
        }
        // Far partners: a few deterministic distant pieces.
        let total = 1u64 << (3 * self.depth);
        let me = bits_of(self.c, self.depth);
        let far = (total.ilog2() as u64).max(1);
        for k in 1..=far {
            let other = (me ^ (total / 2).max(1) ^ (k * 2654435761)) % total;
            if other != me {
                let ix = Ix::Bits {
                    bits: other,
                    len: 3 * self.depth,
                };
                if !out.contains(&ix) {
                    out.push(ix);
                }
            }
        }
        out
    }

    fn start_step(&mut self, ctx: &mut Ctx<'_>) {
        self.n = particles_at(
            self.mean_n as usize,
            self.clustering,
            self.c,
            self.depth,
        );
        self.data.set_len(self.n as u64 * BYTES_PER_PARTICLE);
        // Local tree build.
        let n = self.n as f64;
        ctx.work(n * FLOPS_TREE_BUILD * n.max(2.0).log2());
        // Request node data from partners (prioritized).
        self.partner_particles = 0;
        let prio = if self.prioritize { PRIO_REQUEST } else { 0 };
        let me = bits_of(self.c, self.depth);
        for ix in self.partners() {
            ctx.send_prio(
                self.pieces,
                ix,
                PieceMsg::Request {
                    step: self.step,
                    from_bits: me,
                },
                prio,
            );
        }
    }

    fn maybe_compute(&mut self, ctx: &mut Ctx<'_>) {
        let expected = self.partners().len() as u32;
        if self.replies_seen < expected {
            return;
        }
        self.replies_seen = 0;
        // Don't compute inside the (high-priority) reply entry: schedule
        // the bulk kernel at low priority so requests from other pieces
        // keep being served first.
        let prio = if self.prioritize { PRIO_COMPUTE } else { 0 };
        let me = bits_of(self.c, self.depth);
        ctx.send_prio(
            self.pieces,
            Ix::Bits {
                bits: me,
                len: 3 * self.depth,
            },
            PieceMsg::ComputeNow,
            prio,
        );
    }

    fn compute_forces(&mut self, ctx: &mut Ctx<'_>) {
        // Force computation: O(n log N) like the real algorithm — per local
        // particle, near interactions proportional to the local *physical*
        // density (n relative to the decomposition's mean piece population,
        // which is invariant under refinement depth) plus multipole
        // evaluations. Total work is therefore independent of the
        // decomposition; only balance and overlap change with it.
        let n = self.n as f64;
        let density_ratio = n / self.mean_n.max(1) as f64;
        ctx.work(
            n * density_ratio * FLOPS_NEAR_PER_PAIR * 32.0
                + n * FLOPS_FAR_PER_NODE * 24.0,
        );
        let lb_step = self.lb_every > 0 && (self.step + 1).is_multiple_of(self.lb_every);
        self.step += 1;
        if lb_step {
            self.waiting_resume = true;
            ctx.at_sync();
        } else {
            self.contribute_done(ctx);
        }
    }

    fn contribute_done(&mut self, ctx: &mut Ctx<'_>) {
        ctx.contribute(
            self.pieces,
            self.step as u32,
            RedValue::I64(self.n as i64),
            RedOp::Sum,
            Callback::ToChare {
                array: self.driver.id(),
                ix: Ix::i1(0),
            },
        );
    }
}

impl Chare for TreePiece {
    type Msg = PieceMsg;

    fn on_message(&mut self, msg: PieceMsg, ctx: &mut Ctx<'_>) {
        match msg {
            PieceMsg::Step(s) => {
                debug_assert_eq!(s, self.step);
                self.replies_seen += std::mem::take(&mut self.early_replies);
                self.start_step(ctx);
                self.maybe_compute(ctx);
            }
            PieceMsg::Request { step, from_bits } => {
                // Serve node data regardless of our own step position.
                let prio = if self.prioritize { PRIO_REPLY } else { 0 };
                ctx.send_prio(
                    self.pieces,
                    Ix::Bits {
                        bits: from_bits,
                        len: 3 * self.depth,
                    },
                    PieceMsg::Reply {
                        step,
                        payload: SyntheticBlob::new(self.n as u64 * BYTES_PER_PARTICLE / 4),
                    },
                    prio,
                );
            }
            PieceMsg::Reply { step, payload } => {
                self.partner_particles += payload.len() / (BYTES_PER_PARTICLE / 4);
                if step == self.step {
                    self.replies_seen += 1;
                    self.maybe_compute(ctx);
                } else {
                    debug_assert_eq!(step, self.step + 1);
                    self.early_replies += 1;
                }
            }
            PieceMsg::ComputeNow => self.compute_forces(ctx),
        }
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if matches!(ev, SysEvent::ResumeFromSync) && self.waiting_resume {
            self.waiting_resume = false;
            self.contribute_done(ctx);
        }
    }

    fn load_hint(&self) -> f64 {
        (self.n as f64).powi(2).max(1.0)
    }
}

#[derive(Default)]
struct Driver {
    step: u64,
    steps: u64,
    pieces: ArrayProxy<TreePiece>,
}

impl Pup for Driver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.steps, self.pieces);
    }
}

impl Chare for Driver {
    type Msg = u8;
    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        ctx.broadcast(self.pieces, PieceMsg::Step(0));
    }
    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        if let SysEvent::Reduction { .. } = ev {
            self.step += 1;
            ctx.log_metric("bh_step", ctx.now().as_secs_f64());
            if self.step < self.steps {
                ctx.broadcast(self.pieces, PieceMsg::Step(self.step));
            } else {
                ctx.exit();
            }
        }
    }
}

/// Run Barnes-Hut.
pub fn run(mut config: BarnesHutConfig) -> AppRun {
    let mut b = Runtime::builder(std::mem::replace(
        &mut config.machine,
        MachineConfig::homogeneous(1),
    ))
    .seed(config.seed);
    if let Some(s) = config.strategy.take() {
        b = b.strategy(s);
    }
    let mut rt = b.build();
    let pieces: ArrayProxy<TreePiece> = rt.create_array("bh_pieces");
    let driver: ArrayProxy<Driver> = rt.create_array("bh_driver");
    rt.set_at_sync(pieces, config.lb_every > 0);

    let d = config.depth;
    let side = 1u32 << d;
    let total = (side as usize).pow(3);
    let pes = rt.num_pes();
    let mut linear = 0usize;
    for x in 0..side {
        for y in 0..side {
            for z in 0..side {
                let c = [x, y, z];
                let n = particles_at(config.particles_per_piece, config.clustering, c, d);
                let pe = linear * pes / total;
                linear += 1;
                rt.insert(
                    pieces,
                    piece_ix(c, d),
                    TreePiece {
                        c,
                        depth: d,
                        n,
                        mean_n: config.particles_per_piece as u64,
                        clustering: config.clustering,
                        prioritize: config.prioritize_requests,
                        lb_every: config.lb_every,
                        data: SyntheticBlob::new(n as u64 * BYTES_PER_PARTICLE),
                        pieces,
                        driver,
                        ..TreePiece::default()
                    },
                    Some(pe),
                );
            }
        }
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
    let summary = rt.run();
    crate::collect_app_run(&rt, &summary, "bh_step")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::util::oct_coords as coords_of;

    #[test]
    fn coords_bits_roundtrip() {
        for d in 1..=3u8 {
            let side = 1u32 << d;
            for x in 0..side {
                for y in 0..side {
                    for z in 0..side {
                        let b = bits_of([x, y, z], d);
                        assert_eq!(coords_of(b, d), [x, y, z]);
                    }
                }
            }
        }
    }

    #[test]
    fn completes_all_steps() {
        let r = run(BarnesHutConfig::default());
        assert_eq!(r.step_times.len(), 8);
    }

    #[test]
    fn overdecomposition_beats_one_piece_per_pe() {
        // Fig. 12: 500m vs 500m_NO — over-decomposition gives the balancer
        // units to move; with one piece per PE the hotspot piece IS the
        // granularity limit. Both configurations run with ORB LB, as in the
        // paper's 500m series.
        let mk = |depth: u8, ppp: usize| {
            run(BarnesHutConfig {
                depth,
                particles_per_piece: ppp,
                clustering: 10.0,
                lb_every: 3,
                steps: 10,
                strategy: Some(Box::new(charm_lb::OrbLb)),
                ..BarnesHutConfig::default()
            })
        };
        // Depths that resolve the clustering blob (sigma 0.15 vs piece
        // side 0.25/0.125): 64 pieces (8/PE) vs 512 pieces (64/PE).
        let no = mk(2, 800);
        let over = mk(3, 100);
        let tail = |r: &AppRun| {
            let d = r.step_durations();
            d[d.len() - 3..].iter().sum::<f64>() / 3.0
        };
        assert!(
            tail(&over) < tail(&no) * 0.8,
            "over-decomposition must win: over={:.5}s no={:.5}s",
            tail(&over),
            tail(&no)
        );
    }

    #[test]
    fn orb_lb_improves_clustered_runs() {
        let mk = |lb: bool| BarnesHutConfig {
            depth: 2,
            particles_per_piece: 150,
            clustering: 10.0,
            steps: 10,
            lb_every: if lb { 3 } else { 0 },
            strategy: lb.then(|| Box::new(charm_lb::OrbLb) as Box<dyn Strategy>),
            ..BarnesHutConfig::default()
        };
        let nolb = run(mk(false));
        let lb = run(mk(true));
        assert!(lb.lb_rounds >= 1);
        let tail = |r: &AppRun| {
            let v = r.step_durations();
            v[v.len() - 3..].iter().sum::<f64>() / 3.0
        };
        assert!(
            tail(&lb) < tail(&nolb),
            "ORB should help: lb={:.5}s nolb={:.5}s",
            tail(&lb),
            tail(&nolb)
        );
    }

    #[test]
    fn prioritized_requests_speed_up_steps() {
        let with = run(BarnesHutConfig {
            prioritize_requests: true,
            depth: 2,
            particles_per_piece: 300,
            ..BarnesHutConfig::default()
        });
        let without = run(BarnesHutConfig {
            prioritize_requests: false,
            depth: 2,
            particles_per_piece: 300,
            ..BarnesHutConfig::default()
        });
        assert!(
            with.avg_step_s() <= without.avg_step_s() * 1.001,
            "priority must not hurt, should help: with={:.6}s without={:.6}s",
            with.avg_step_s(),
            without.avg_step_s()
        );
    }

    #[test]
    fn deterministic() {
        let a = run(BarnesHutConfig::default());
        let b = run(BarnesHutConfig::default());
        assert_eq!(a.step_times, b.step_times);
    }
}
