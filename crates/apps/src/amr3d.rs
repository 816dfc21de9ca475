//! AMR3D — tree-based structured adaptive mesh refinement (§IV-A, Fig. 8).
//!
//! A 3-D advection solve on an oct-tree of fixed-size blocks, leaning on
//! exactly the features §IV-A lists:
//!
//! * **bit-vector indices** — a block's chare index is its oct-tree path;
//!   parents, children and same-depth neighbors are simple local index
//!   arithmetic, so *no process holds the tree* (`O(blocks/P)` memory, not
//!   the `O(blocks)` replication of Enzo/Chombo/Flash),
//! * **dynamic insertion/deletion** — refinement inserts child blocks into
//!   the chare array at run time,
//! * **quiescence detection** — mesh restructuring needs only O(1) global
//!   collectives: one QD wave after the refinement-decision ripple, one
//!   after the restructure itself, instead of `O(tree depth)` collectives,
//! * **distributed load balancing** — refinement clusters around the
//!   advected feature; children stay on their parent's PE (data locality),
//!   so the cluster's PEs overload until DistributedLB diffuses them.
//!
//! Restructuring protocol (paper's algorithm, adapted):
//! 1. `Decide`: every leaf evaluates the refinement criterion; refiners
//!    notify face neighbors; a *coarser* neighbor of a refiner is forced to
//!    refine as well (2:1 face balance) and the notice ripples. QD detects
//!    when decisions are stable.
//! 2. `Share`: every block sends its decision to its face neighbors; once a
//!    block holds all its neighbors' decisions it can compute — purely
//!    locally — the post-regrid neighbor lists for itself or its children,
//!    then applies (inserts children / destroys itself). QD detects
//!    completion; stepping resumes.
//!
//! Simplification vs. the full mini-app (documented in DESIGN.md):
//! refinement is monotone (no coarsening); the advected feature leaves
//! refined blocks in its wake, as in the early phase of a real AMR run.

use crate::util::{oct_bits, oct_coords, SyntheticBlob};
use crate::AppRun;
use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, MachineConfig, RedOp, RedValue, Runtime,
    SimTime, Strategy, SysEvent,
};
use charm_pup::{Pup, Puper};

const FLOPS_PER_CELL: f64 = 40.0;
const GHOST_BYTES_PER_FACE_CELL: u64 = 8;

/// Faces in axis/direction order: −x, +x, −y, +y, −z, +z.
const FACES: [(usize, i64); 6] = [(0, -1), (0, 1), (1, -1), (1, 1), (2, -1), (2, 1)];

/// AMR3D configuration.
pub struct AmrConfig {
    /// Machine.
    pub machine: MachineConfig,
    /// Initial uniform refinement depth (blocks = 8^depth).
    pub min_depth: u8,
    /// Maximum refinement depth (paper: dynamic range 2–9).
    pub max_depth: u8,
    /// Cells per block side (fixed-size blocks).
    pub block_side: u32,
    /// Steps to run.
    pub steps: u64,
    /// Restructure the mesh every k steps.
    pub regrid_every: u64,
    /// Feature front position at step 0 (fraction of the domain).
    pub front_start: f64,
    /// Front speed, domain fractions per step (0.0 = stationary feature —
    /// a persistent hotspot; with monotone refinement a *moving* front
    /// eventually refines everything and the imbalance evens out).
    pub front_speed: f64,
    /// AtSync LB right after each regrid?
    pub lb_after_regrid: bool,
    /// Strategy (DistributedLB in the paper).
    pub strategy: Option<Box<dyn Strategy>>,
    /// Take an in-memory checkpoint at this step.
    pub ckpt_at: Option<u64>,
    /// PE failures to inject, as `(time, pe)` pairs.
    pub failures: Vec<(SimTime, usize)>,
    /// Seed.
    pub seed: u64,
}

impl Default for AmrConfig {
    fn default() -> Self {
        AmrConfig {
            machine: MachineConfig::homogeneous(8),
            min_depth: 2,
            max_depth: 4,
            block_side: 8,
            steps: 8,
            regrid_every: 3,
            front_start: 0.0,
            front_speed: 0.125,
            lb_after_regrid: false,
            strategy: None,
            ckpt_at: None,
            failures: Vec::new(),
            seed: 42,
        }
    }
}

/// Region of a block in finest-lattice units.
fn region(ix: &Ix, max_depth: u8) -> ([u64; 3], u64) {
    let Ix::Bits { bits, len } = ix else {
        panic!("AMR block index must be Bits, got {ix}");
    };
    let d = len / 3;
    let c = oct_coords(*bits, d);
    let scale = 1u64 << (max_depth - d);
    ([c[0] as u64 * scale, c[1] as u64 * scale, c[2] as u64 * scale], scale)
}

fn depth_of(ix: &Ix) -> u8 {
    match ix {
        Ix::Bits { len, .. } => len / 3,
        other => panic!("not a block index: {other}"),
    }
}

/// Is `b` face-adjacent to `a` across `a`'s face `f`, with tangential
/// overlap? (Non-periodic domain.)
fn adjacent_across(a: &Ix, f: usize, b: &Ix, max_depth: u8) -> bool {
    let (alo, asz) = region(a, max_depth);
    let (blo, bsz) = region(b, max_depth);
    let (axis, dir) = FACES[f];
    let plane_ok = if dir > 0 {
        alo[axis] + asz == blo[axis]
    } else {
        blo[axis] + bsz == alo[axis]
    };
    if !plane_ok {
        return false;
    }
    for t in 0..3 {
        if t == axis {
            continue;
        }
        let lo = alo[t].max(blo[t]);
        let hi = (alo[t] + asz).min(blo[t] + bsz);
        if lo >= hi {
            return false;
        }
    }
    true
}

/// The advected feature: a planar front at fraction `front_frac` of the
/// domain; blocks whose x-range is near it want depth `max_depth`.
fn desired_depth(ix: &Ix, front_frac: f64, min_depth: u8, max_depth: u8) -> u8 {
    let (lo, sz) = region(ix, max_depth);
    let domain = 1u64 << max_depth;
    let front = front_frac * domain as f64;
    let center = lo[0] as f64 + sz as f64 / 2.0;
    let dist = (center - front).abs() / domain as f64;
    if dist < 0.10 {
        max_depth
    } else if dist < 0.22 {
        ((min_depth + max_depth) / 2).max(min_depth)
    } else {
        min_depth
    }
}

// ---------------------------------------------------------------------------

#[derive(Default)]
enum BlockMsg {
    /// Run advection step `s`.
    Step(u64),
    /// Ghost-face data for step `s`.
    Ghost { step: u64 },
    /// Begin the decision phase for regrid round `r` at step `s`.
    Decide { step: u64 },
    /// A face neighbor (at depth `from_depth`) will refine.
    RefineNotice { from_depth: u8 },
    /// Begin the share/apply phase.
    #[default]
    Share,
    /// A face neighbor's final decision.
    Decision { from: Ix, will_refine: bool },
}

impl Pup for BlockMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            BlockMsg::Step(_) => 0,
            BlockMsg::Ghost { .. } => 1,
            BlockMsg::Decide { .. } => 2,
            BlockMsg::RefineNotice { .. } => 3,
            BlockMsg::Share => 4,
            BlockMsg::Decision { .. } => 5,
        };
        p.p(&mut t);
        if p.is_unpacking() {
            *self = match t {
                0 => BlockMsg::Step(0),
                1 => BlockMsg::Ghost { step: 0 },
                2 => BlockMsg::Decide { step: 0 },
                3 => BlockMsg::RefineNotice { from_depth: 0 },
                4 => BlockMsg::Share,
                5 => BlockMsg::Decision {
                    from: Ix::ROOT,
                    will_refine: false,
                },
                x => panic!("bad BlockMsg {x}"),
            };
        }
        match self {
            BlockMsg::Step(s) | BlockMsg::Ghost { step: s } | BlockMsg::Decide { step: s } => {
                p.p(s)
            }
            BlockMsg::RefineNotice { from_depth } => p.p(from_depth),
            BlockMsg::Share => {}
            BlockMsg::Decision { from, will_refine } => {
                p.p(from);
                p.p(will_refine);
            }
        }
    }
}


impl Clone for BlockMsg {
    fn clone(&self) -> Self {
        match self {
            BlockMsg::Step(s) => BlockMsg::Step(*s),
            BlockMsg::Ghost { step } => BlockMsg::Ghost { step: *step },
            BlockMsg::Decide { step } => BlockMsg::Decide { step: *step },
            BlockMsg::RefineNotice { from_depth } => BlockMsg::RefineNotice {
                from_depth: *from_depth,
            },
            BlockMsg::Share => BlockMsg::Share,
            BlockMsg::Decision { from, will_refine } => BlockMsg::Decision {
                from: *from,
                will_refine: *will_refine,
            },
        }
    }
}

#[derive(Default)]
struct Block {
    /// Our own index (kept in state for local index math).
    me: Ix,
    max_depth: u8,
    min_depth: u8,
    block_side: u32,
    front_start: f64,
    front_speed: f64,
    step: u64,
    /// Face-neighbor lists, one per FACES entry.
    neighbors: Vec<Vec<Ix>>,
    ghosts_seen: u32,
    early_ghosts: u32,
    data: SyntheticBlob,
    // --- regrid state ---
    will_refine: bool,
    decide_step: u64,
    decisions_seen: u32,
    refined_neighbors: Vec<Ix>,
    arrays: (ArrayProxy<Block>, ArrayProxy<Driver>),
    lb_pending: bool,
}

impl Pup for Block {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.me, self.max_depth, self.min_depth, self.block_side,
            self.front_start, self.front_speed, self.step, self.neighbors, self.ghosts_seen,
            self.early_ghosts, self.data, self.will_refine, self.decide_step,
            self.decisions_seen, self.refined_neighbors, self.arrays.0,
            self.arrays.1, self.lb_pending
        );
    }
}

impl Block {
    fn blocks(&self) -> ArrayProxy<Block> {
        self.arrays.0
    }
    fn driver_cb(&self) -> Callback {
        Callback::ToChare {
            array: self.arrays.1.id(),
            ix: Ix::i1(0),
        }
    }

    fn expected_ghosts(&self) -> u32 {
        self.neighbors.iter().map(|v| v.len() as u32).sum()
    }

    fn all_neighbors(&self) -> Vec<Ix> {
        let mut v: Vec<Ix> = self.neighbors.iter().flatten().copied().collect();
        v.sort_unstable();
        v.dedup();
        v
    }

    fn start_step(&mut self, ctx: &mut Ctx<'_>) {
        let face_bytes = self.block_side as u64 * self.block_side as u64 * GHOST_BYTES_PER_FACE_CELL;
        let blocks = self.blocks();
        for (f, list) in self.neighbors.iter().enumerate() {
            let _ = f;
            for nb in list {
                ctx.send(blocks, *nb, BlockMsg::Ghost { step: self.step });
            }
        }
        let _ = face_bytes; // ghost size is carried by the message model
        self.maybe_compute(ctx);
    }

    fn maybe_compute(&mut self, ctx: &mut Ctx<'_>) {
        if self.ghosts_seen < self.expected_ghosts() {
            return;
        }
        self.ghosts_seen = 0;
        let s = self.block_side as f64;
        ctx.work(s * s * s * FLOPS_PER_CELL);
        self.step += 1;
        ctx.contribute(
            self.blocks(),
            self.step as u32,
            RedValue::I64(1),
            RedOp::Sum,
            self.driver_cb(),
        );
    }

    // --- regrid: decision phase -------------------------------------------

    fn my_depth(&self) -> u8 {
        depth_of(&self.me)
    }

    fn decide(&mut self, step: u64, ctx: &mut Ctx<'_>) {
        self.decide_step = step;
        self.decisions_seen = 0;
        self.refined_neighbors.clear();
        let front = self.front_start + self.front_speed * step as f64;
        let want = desired_depth(&self.me, front, self.min_depth, self.max_depth);
        if want > self.my_depth() && self.my_depth() < self.max_depth {
            self.announce_refine(ctx);
        }
    }

    fn announce_refine(&mut self, ctx: &mut Ctx<'_>) {
        if self.will_refine {
            return;
        }
        self.will_refine = true;
        let d = self.my_depth();
        let blocks = self.blocks();
        for nb in self.all_neighbors() {
            ctx.send(blocks, nb, BlockMsg::RefineNotice { from_depth: d });
        }
    }

    fn on_refine_notice(&mut self, from_depth: u8, ctx: &mut Ctx<'_>) {
        // 2:1: a coarser neighbor of a refiner must refine too.
        if self.my_depth() < from_depth && self.my_depth() < self.max_depth {
            self.announce_refine(ctx);
        }
    }

    // --- regrid: share/apply phase ------------------------------------------

    fn share(&mut self, ctx: &mut Ctx<'_>) {
        let blocks = self.blocks();
        let me = self.me;
        let wr = self.will_refine;
        for nb in self.all_neighbors() {
            ctx.send(
                blocks,
                nb,
                BlockMsg::Decision {
                    from: me,
                    will_refine: wr,
                },
            );
        }
        self.maybe_apply(ctx);
    }

    fn on_decision(&mut self, from: Ix, will_refine: bool, ctx: &mut Ctx<'_>) {
        self.decisions_seen += 1;
        if will_refine {
            self.refined_neighbors.push(from);
        }
        self.maybe_apply(ctx);
    }

    /// Post-regrid entry list for one current neighbor entry, as seen from
    /// a region (`who`) across face `f`.
    fn resolve_entry(&self, who: &Ix, f: usize, entry: &Ix) -> Vec<Ix> {
        if !self.refined_neighbors.contains(entry) {
            return vec![*entry];
        }
        // The entry refines: its children adjacent to `who` across f.
        let mut out = Vec::new();
        for c in 0..8u64 {
            let child = entry.tree_child(c, 3);
            if adjacent_across(who, f, &child, self.max_depth) {
                out.push(child);
            }
        }
        out
    }

    fn maybe_apply(&mut self, ctx: &mut Ctx<'_>) {
        let expected = self.all_neighbors().len() as u32;
        if self.decisions_seen < expected {
            return;
        }
        self.decisions_seen = u32::MAX / 2; // guard against double apply
        let blocks = self.blocks();

        if !self.will_refine {
            // Stay: rewrite neighbor lists under neighbors' refinements.
            let me = self.me;
            for f in 0..6 {
                let old = std::mem::take(&mut self.neighbors[f]);
                let mut new = Vec::with_capacity(old.len());
                for e in &old {
                    new.extend(self.resolve_entry(&me, f, e));
                }
                new.sort_unstable();
                new.dedup();
                self.neighbors[f] = new;
            }
            return;
        }

        // Refine: create 8 children with locally computed neighbor lists.
        let cell_bytes = self.data.len() / 8;
        for c in 0..8u64 {
            let child = self.me.tree_child(c, 3);
            let mut lists: Vec<Vec<Ix>> = vec![Vec::new(); 6];
            for (f, &(axis, dir)) in FACES.iter().enumerate() {
                // Sibling on the internal side?
                let bit = 1u64 << axis;
                let inward = (c & bit != 0) as i64; // 1 = high half on axis
                let internal = (dir < 0 && inward == 1) || (dir > 0 && inward == 0);
                if internal {
                    lists[f].push(self.me.tree_child(c ^ bit, 3));
                    continue;
                }
                // External: parent's neighbors on f, refined per decisions,
                // filtered to this child's quadrant.
                for e in &self.neighbors[f] {
                    for r in self.resolve_entry(&child, f, e) {
                        if adjacent_across(&child, f, &r, self.max_depth) {
                            lists[f].push(r);
                        }
                    }
                }
                lists[f].sort_unstable();
                lists[f].dedup();
            }
            ctx.insert(
                blocks,
                child,
                Block {
                    me: child,
                    max_depth: self.max_depth,
                    min_depth: self.min_depth,
                    block_side: self.block_side,
                    front_start: self.front_start,
                    front_speed: self.front_speed,
                    step: self.step,
                    neighbors: lists,
                    data: SyntheticBlob::new(cell_bytes),
                    arrays: self.arrays,
                    ..Block::default()
                },
                Some(ctx.my_pe()), // children inherit the parent's PE
            );
        }
        ctx.destroy_me();
    }
}

impl Chare for Block {
    type Msg = BlockMsg;

    fn on_message(&mut self, msg: BlockMsg, ctx: &mut Ctx<'_>) {
        match msg {
            BlockMsg::Step(s) => {
                debug_assert_eq!(s, self.step);
                self.ghosts_seen += std::mem::take(&mut self.early_ghosts);
                self.start_step(ctx);
            }
            BlockMsg::Ghost { step } => {
                if step == self.step {
                    self.ghosts_seen += 1;
                    self.maybe_compute(ctx);
                } else {
                    debug_assert_eq!(step, self.step + 1, "ghost from the far future");
                    self.early_ghosts += 1;
                }
            }
            BlockMsg::Decide { step } => {
                self.will_refine = false;
                self.decide(step, ctx);
            }
            BlockMsg::RefineNotice { from_depth } => self.on_refine_notice(from_depth, ctx),
            BlockMsg::Share => {
                self.decisions_seen = 0;
                self.share(ctx);
            }
            BlockMsg::Decision { from, will_refine } => {
                self.on_decision(from, will_refine, ctx)
            }
        }
    }

    fn on_event(&mut self, _ev: SysEvent, _ctx: &mut Ctx<'_>) {}
}

// ---------------------------------------------------------------------------

#[derive(Default, Clone, Copy, PartialEq, Debug)]
enum DriverPhase {
    #[default]
    Stepping,
    Deciding,
    Sharing,
    Balancing,
}
charm_pup::impl_pup_unit_enum!(DriverPhase {
    Stepping,
    Deciding,
    Sharing,
    Balancing
});

#[derive(Default)]
struct Driver {
    step: u64,
    steps: u64,
    regrid_every: u64,
    lb_after_regrid: bool,
    ckpt_at: i64,
    phase: DriverPhase,
    blocks: ArrayProxy<Block>,
}

impl Pup for Driver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.step, self.steps, self.regrid_every, self.lb_after_regrid,
            self.ckpt_at, self.phase, self.blocks
        );
    }
}

impl Driver {
    fn next_step(&mut self, ctx: &mut Ctx<'_>) {
        self.phase = DriverPhase::Stepping;
        ctx.broadcast(self.blocks, BlockMsg::Step(self.step));
    }
}

impl Chare for Driver {
    type Msg = u8;

    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        self.next_step(ctx);
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        match ev {
            SysEvent::Reduction { value, .. } => {
                self.step += 1;
                ctx.log_metric("amr_step", ctx.now().as_secs_f64());
                ctx.log_metric("amr_blocks", value.as_i64() as f64);
                if self.ckpt_at >= 0 && self.step as i64 == self.ckpt_at {
                    ctx.start_mem_checkpoint(ctx.cb_self());
                    return;
                }
                self.after_step(ctx);
            }
            SysEvent::CheckpointDone => self.after_step(ctx),
            SysEvent::QuiescenceDetected => match self.phase {
                DriverPhase::Deciding => {
                    self.phase = DriverPhase::Sharing;
                    ctx.broadcast(self.blocks, BlockMsg::Share);
                    ctx.request_quiescence(ctx.cb_self());
                }
                DriverPhase::Sharing => {
                    ctx.log_metric("amr_regrid_done", ctx.now().as_secs_f64());
                    if self.lb_after_regrid {
                        // The paper pairs restructuring with a distributed
                        // LB round to diffuse the freshly inserted blocks.
                        ctx.request_lb();
                    }
                    self.next_step(ctx);
                }
                other => panic!("unexpected QD in phase {other:?}"),
            },
            SysEvent::Restarted { .. } => {
                self.phase = DriverPhase::Stepping;
                ctx.broadcast(self.blocks, BlockMsg::Step(self.step));
            }
            _ => {}
        }
    }
}

impl Driver {
    fn after_step(&mut self, ctx: &mut Ctx<'_>) {
        if self.step >= self.steps {
            ctx.exit();
            return;
        }
        if self.regrid_every > 0 && self.step.is_multiple_of(self.regrid_every) {
            self.phase = DriverPhase::Deciding;
            ctx.broadcast(self.blocks, BlockMsg::Decide { step: self.step });
            ctx.request_quiescence(ctx.cb_self());
        } else {
            self.next_step(ctx);
        }
    }
}

// ---------------------------------------------------------------------------

/// Run AMR3D; returns (AppRun, final block count, runtime).
pub fn run_with_runtime(mut config: AmrConfig) -> (AppRun, usize, Runtime) {
    let mut b = Runtime::builder(std::mem::replace(
        &mut config.machine,
        MachineConfig::homogeneous(1),
    ))
    .seed(config.seed);
    let has_strategy = config.strategy.is_some();
    if let Some(s) = config.strategy.take() {
        b = b.strategy(s);
    }
    let mut rt = b.build();
    for (t, pe) in &config.failures {
        rt.schedule_failure(*t, *pe);
    }
    let blocks: ArrayProxy<Block> = rt.create_array("amr_blocks");
    let driver: ArrayProxy<Driver> = rt.create_array("amr_driver");

    let d0 = config.min_depth;
    let side = 1u32 << d0;
    let pes = rt.num_pes();
    let total = (side as usize).pow(3);
    let mut linear = 0usize;
    for x in 0..side {
        for y in 0..side {
            for z in 0..side {
                let me = Ix::Bits {
                    bits: oct_bits([x, y, z], d0),
                    len: 3 * d0,
                };
                // Initial face neighbors: same-depth lattice (non-periodic).
                let mut lists: Vec<Vec<Ix>> = vec![Vec::new(); 6];
                for (f, &(axis, dir)) in FACES.iter().enumerate() {
                    let mut c = [x as i64, y as i64, z as i64];
                    c[axis] += dir;
                    if c[axis] < 0 || c[axis] >= side as i64 {
                        continue;
                    }
                    lists[f].push(Ix::Bits {
                        bits: oct_bits([c[0] as u32, c[1] as u32, c[2] as u32], d0),
                        len: 3 * d0,
                    });
                }
                let pe = linear * pes / total;
                linear += 1;
                rt.insert(
                    blocks,
                    me,
                    Block {
                        me,
                        max_depth: config.max_depth,
                        min_depth: config.min_depth,
                        block_side: config.block_side,
                        front_start: config.front_start,
                        front_speed: config.front_speed,
                        neighbors: lists,
                        data: SyntheticBlob::new(
                            (config.block_side as u64).pow(3) * 8,
                        ),
                        arrays: (blocks, driver),
                        ..Block::default()
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
            regrid_every: config.regrid_every,
            lb_after_regrid: config.lb_after_regrid && has_strategy,
            ckpt_at: config.ckpt_at.map(|v| v as i64).unwrap_or(-1),
            blocks,
            ..Driver::default()
        },
        Some(0),
    );

    // RTS-triggered LB after regrids is modeled by periodic RTS LB.
    if config.lb_after_regrid && has_strategy {
        rt.set_at_sync(blocks, true);
    }

    rt.send(driver, Ix::i1(0), 0u8);
    let summary = rt.run();
    let run = crate::collect_app_run(&rt, &summary, "amr_step");
    let nblocks = rt.array_len(blocks.id());
    (run, nblocks, rt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_adjacency() {
        // Two depth-1 blocks side by side on x.
        let a = Ix::Bits {
            bits: oct_bits([0, 0, 0], 1),
            len: 3,
        };
        let b = Ix::Bits {
            bits: oct_bits([1, 0, 0], 1),
            len: 3,
        };
        assert!(adjacent_across(&a, 1, &b, 4)); // +x
        assert!(adjacent_across(&b, 0, &a, 4)); // -x
        assert!(!adjacent_across(&a, 0, &b, 4));
        assert!(!adjacent_across(&a, 3, &b, 4));
    }

    #[test]
    fn fine_coarse_adjacency() {
        // A depth-2 child against a depth-1 block.
        let coarse = Ix::Bits {
            bits: oct_bits([1, 0, 0], 1),
            len: 3,
        };
        let fine = Ix::Bits {
            bits: oct_bits([1, 0, 0], 2),
            len: 6,
        }; // x in [4,6) at maxd=3... depends on depth scale
        let _ = fine;
        // child (1,0,0) at depth 2 occupies x ∈ [2,4) of 8; coarse (1,0,0)
        // at depth 1 occupies x ∈ [4,8): they touch at x=4 with overlap in
        // y,z ∈ [0,2) vs [0,4) → adjacent across +x of the fine block.
        let fine = Ix::Bits {
            bits: oct_bits([1, 0, 0], 2),
            len: 6,
        };
        assert!(adjacent_across(&fine, 1, &coarse, 3));
        assert!(adjacent_across(&coarse, 0, &fine, 3));
    }

    #[test]
    fn runs_and_grows_the_mesh() {
        let (run, nblocks, rt) = run_with_runtime(AmrConfig::default());
        assert_eq!(run.step_times.len(), 8);
        let initial = 8usize.pow(2);
        assert!(
            nblocks > initial,
            "refinement must have inserted blocks: {nblocks} vs {initial}"
        );
        // Regrids happened and were journaled.
        assert!(!rt.metric("amr_regrid_done").is_empty());
        // Block-count metric is non-decreasing (monotone refinement).
        let counts: Vec<f64> = rt.metric("amr_blocks").iter().map(|&(_, v)| v).collect();
        assert!(counts.windows(2).all(|w| w[1] >= w[0]), "{counts:?}");
    }

    #[test]
    fn two_to_one_balance_is_maintained() {
        // After the run, any two face-adjacent blocks differ by ≤1 depth.
        let (_r, _n, rt) = run_with_runtime(AmrConfig {
            steps: 7,
            regrid_every: 2,
            ..AmrConfig::default()
        });
        let blocks_id = rt.array_id("amr_blocks").unwrap();
        let all = rt.array_indices(blocks_id);
        for a in &all {
            for b in &all {
                if a == b {
                    continue;
                }
                for f in 0..6 {
                    if adjacent_across(a, f, b, 4) {
                        let (da, db) = (depth_of(a), depth_of(b));
                        assert!(
                            da.abs_diff(db) <= 1,
                            "2:1 violated: {a}({da}) vs {b}({db})"
                        );
                    }
                }
            }
        }
    }

    #[test]
    fn leaves_tile_the_domain_exactly() {
        // No overlaps, no holes: Σ volumes = domain volume and regions are
        // pairwise disjoint.
        let (_r, _n, rt) = run_with_runtime(AmrConfig::default());
        let blocks_id = rt.array_id("amr_blocks").unwrap();
        let all = rt.array_indices(blocks_id);
        let maxd = 4u8;
        let domain = 1u64 << maxd;
        let mut vol = 0u64;
        for ix in &all {
            let (_lo, sz) = region(ix, maxd);
            vol += sz * sz * sz;
        }
        assert_eq!(vol, domain.pow(3), "leaves must tile the domain");
    }

    #[test]
    fn distributed_lb_reduces_step_time_after_refinement() {
        let mk = |lb: bool| AmrConfig {
            machine: MachineConfig::homogeneous(8),
            steps: 10,
            regrid_every: 2,
            max_depth: 4,
            front_start: 0.3,
            front_speed: 0.0, // stationary hotspot: persistent imbalance
            lb_after_regrid: lb,
            strategy: lb.then(|| {
                Box::new(charm_lb::DistributedLb::default()) as Box<dyn Strategy>
            }),
            ..AmrConfig::default()
        };
        let nolb = run_with_runtime(mk(false)).0;
        let lb = run_with_runtime(mk(true)).0;
        let tail = |r: &AppRun| {
            let d = r.step_durations();
            d[d.len() - 3..].iter().sum::<f64>() / 3.0
        };
        assert!(
            tail(&lb) < tail(&nolb),
            "children pile on parents' PEs; LB must diffuse: lb={:.5}s nolb={:.5}s",
            tail(&lb),
            tail(&nolb)
        );
    }

    #[test]
    fn checkpoint_during_amr_records_metrics() {
        let (_run, _n, rt) = run_with_runtime(AmrConfig {
            ckpt_at: Some(2),
            ..AmrConfig::default()
        });
        assert_eq!(rt.metric("ckpt_time_s").len(), 1);
    }

    #[test]
    fn deterministic() {
        let a = run_with_runtime(AmrConfig::default()).0;
        let b = run_with_runtime(AmrConfig::default()).0;
        assert_eq!(a.step_times, b.step_times);
    }
}
