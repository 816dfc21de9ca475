//! LeanMD — molecular dynamics mini-app (§IV-B; Figs 5, 9, 10, 11, 17).
//!
//! The 3-D simulation space is decomposed into a dense 3-D chare array of
//! `Cells` holding atoms, and a sparse 6-D chare array of pairwise
//! `Computes`, one per adjacent cell pair, which perform the cut-off
//! Lennard-Jones force calculations — the structure of NAMD's non-bonded
//! computation. Per step:
//!
//! 1. every cell multicasts its atom coordinates to the computes it
//!    participates in,
//! 2. a compute with both inputs charges `n₁·n₂` pair-interaction flops and
//!    returns forces to its two cells,
//! 3. a cell with all its force messages integrates and contributes to the
//!    step reduction.
//!
//! Load imbalance comes from a (moving) Gaussian density blob: computes
//! near the blob carry quadratically more work. Over-decomposition +
//! measurement-based balancing (HybridLB at scale) is what makes it scale —
//! Fig. 9's "at least 40 %".

use crate::util::{gaussian_density, SyntheticBlob};
use crate::AppRun;
use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, Ix, MachineConfig, RedOp, RedValue, Runtime,
    SimTime, Strategy, SysEvent,
};
use charm_pup::{Pup, Puper};

/// Bytes of state per atom (position, velocity, force — 8 doubles).
const BYTES_PER_ATOM: u64 = 64;
/// Bytes sent per atom in a coordinate/force message (3 doubles + id).
const WIRE_BYTES_PER_ATOM: u64 = 32;
/// Flops per atom-pair interaction (the usual LJ kernel estimate).
const FLOPS_PER_PAIR: f64 = 26.0;
/// Flops per atom for integration.
const FLOPS_INTEGRATE: f64 = 60.0;

/// LeanMD configuration.
pub struct LeanMdConfig {
    /// The machine.
    pub machine: MachineConfig,
    /// Cells per dimension (cells total = this³).
    pub cells_per_dim: usize,
    /// Average atoms per cell.
    pub atoms_per_cell: usize,
    /// Peak-to-floor density ratio of the Gaussian blob (1.0 = uniform).
    pub density_peak: f64,
    /// Blob drift per step (fraction of the domain) — moving imbalance.
    pub drift_per_step: f64,
    /// Steps to simulate.
    pub steps: u64,
    /// Call AtSync every this many steps (0 = never).
    pub lb_every: u64,
    /// Take an in-memory checkpoint at this step (None = never).
    pub ckpt_at: Option<u64>,
    /// Automatic periodic in-memory checkpointing (None = off).
    pub auto_ckpt: Option<SimTime>,
    /// Node failures to inject: (virtual time, any PE on the node). Needs
    /// a checkpoint to recover from.
    pub failures: Vec<(SimTime, usize)>,
    /// Spot preemptions: (kill time, any PE on the node, warning lead).
    pub preemptions: Vec<(SimTime, usize, SimTime)>,
    /// Shrink/expand commands: (virtual time, new PE count).
    pub reconfigure: Vec<(SimTime, usize)>,
    /// Closed-loop elastic controller (None = static PE set).
    pub elastic: Option<charm_core::ElasticConfig>,
    /// LB strategy.
    pub strategy: Option<Box<dyn Strategy>>,
    /// Seed.
    pub seed: u64,
    /// Projections-lite tracing (None = off; see `charm_core::trace`).
    pub trace: Option<charm_core::TraceConfig>,
    /// Streaming trace sinks, installed right after the runtime is built —
    /// before any chare exists — so they observe the complete record
    /// stream. Requires `trace` to be set.
    pub trace_sinks: Vec<Box<dyn charm_core::TraceSink>>,
    /// Record a replay log (None = off; see `charm_core::replay`).
    pub record: Option<charm_core::ReplayConfig>,
    /// Schedule-perturbation seed for race hunting (None = off).
    pub perturb: Option<u64>,
    #[doc(hidden)] // no longer read: kept for `benchmark/`'s 2-thread pass
    pub threads: usize,
}

impl Default for LeanMdConfig {
    fn default() -> Self {
        LeanMdConfig {
            threads: 1,
            machine: MachineConfig::homogeneous(8),
            cells_per_dim: 4,
            atoms_per_cell: 60,
            density_peak: 4.0,
            drift_per_step: 0.0,
            steps: 10,
            lb_every: 0,
            ckpt_at: None,
            auto_ckpt: None,
            failures: Vec::new(),
            preemptions: Vec::new(),
            reconfigure: Vec::new(),
            elastic: None,
            strategy: None,
            seed: 42,
            trace: None,
            trace_sinks: Vec::new(),
            record: None,
            perturb: None,
        }
    }
}

/// Atom count of a cell at a given step (deterministic density model; atom
/// motion is the blob drifting through the periodic domain).
fn atoms_at(cfg_atoms: usize, peak: f64, drift: f64, dim: usize, c: [i32; 3], step: u64) -> u32 {
    let pos = [
        (c[0] as f64 + 0.5) / dim as f64,
        (c[1] as f64 + 0.5) / dim as f64,
        (c[2] as f64 + 0.5) / dim as f64,
    ];
    let t = step as f64 * drift;
    let center = [(0.3 + t).fract(), 0.4, 0.5];
    let floor = 1.0;
    let d = gaussian_density(pos, center, 0.18, floor, peak - 1.0);
    (cfg_atoms as f64 * d / 1.6).round().max(1.0) as u32
}

// ---------------------------------------------------------------------------

#[derive(Default)]
struct Cell {
    c: [i32; 3],
    dim: u64,
    atoms: u32,
    cfg_atoms: u64,
    density_peak: f64,
    drift: f64,
    step: u64,
    forces_seen: u8,
    early_forces: u8,
    data: SyntheticBlob,
    lb_every: u64,
    cells: ArrayProxy<Cell>,
    computes: ArrayProxy<Compute>,
    driver: ArrayProxy<Driver>,
    waiting_resume: bool,
    /// Restored from a checkpoint taken mid-step: adopt the driver's step
    /// from the next `Step` broadcast and drop transient protocol state.
    rolled_back: bool,
}

impl Pup for Cell {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.c, self.dim, self.atoms, self.cfg_atoms, self.density_peak,
            self.drift, self.step, self.forces_seen, self.early_forces,
            self.data, self.lb_every, self.cells, self.computes, self.driver,
            self.waiting_resume, self.rolled_back
        );
    }
}

/// Canonical compute index for the (a, b) cell pair.
fn compute_ix(a: [i32; 3], b: [i32; 3]) -> Ix {
    if a <= b {
        Ix::i6(a, b)
    } else {
        Ix::i6(b, a)
    }
}

fn wrap(v: i32, dim: i32) -> i32 {
    v.rem_euclid(dim)
}

/// Sorted distinct wrapped coordinates of `v - 1..=v + 1` along one axis
/// and how many there are (fewer than three when a tiny grid aliases).
fn axis_neighbors(v: i32, dim: i32) -> ([i32; 3], usize) {
    let mut a = [wrap(v - 1, dim), wrap(v, dim), wrap(v + 1, dim)];
    a.sort_unstable();
    let mut n = 1;
    for i in 1..3 {
        if a[i] != a[n - 1] {
            a[n] = a[i];
            n += 1;
        }
    }
    (a, n)
}

impl Cell {
    /// Distinct neighbor cells in lexicographic order: the product of the
    /// per-axis distinct coordinates, so nothing is allocated or sorted per
    /// message.
    fn neighbors(&self) -> impl Iterator<Item = [i32; 3]> {
        let d = self.dim as i32;
        let [(xs, nx), (ys, ny), (zs, nz)] = self.c.map(|v| axis_neighbors(v, d));
        (0..nx).flat_map(move |i| {
            (0..ny).flat_map(move |j| (0..nz).map(move |k| [xs[i], ys[j], zs[k]]))
        })
    }

    fn start_step(&mut self, ctx: &mut Ctx<'_>) {
        // Atoms "move": the density blob drifts; refresh our population.
        self.atoms = atoms_at(
            self.cfg_atoms as usize,
            self.density_peak,
            self.drift,
            self.dim as usize,
            self.c,
            self.step,
        );
        self.data.set_len(self.atoms as u64 * BYTES_PER_ATOM);
        for nb in self.neighbors() {
            ctx.send(
                self.computes,
                compute_ix(self.c, nb),
                ComputeMsg::Coords {
                    step: self.step,
                    atoms: self.atoms,
                    wire: SyntheticBlob::new(self.atoms as u64 * WIRE_BYTES_PER_ATOM),
                },
            );
        }
    }

    /// Force messages per step: one per distinct neighbor. An axis of
    /// `dim` cells has `min(dim, 3)` distinct coordinates around any cell,
    /// so the count is the same for every cell.
    fn expected_forces(&self) -> u8 {
        let per_axis = self.dim.min(3) as u8;
        per_axis.pow(3)
    }

    fn finish_step(&mut self, ctx: &mut Ctx<'_>) {
        ctx.work(self.atoms as f64 * FLOPS_INTEGRATE);
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
            self.cells,
            self.step as u32,
            RedValue::I64(self.atoms as i64),
            RedOp::Sum,
            Callback::ToChare {
                array: self.driver.id(),
                ix: Ix::i1(0),
            },
        );
    }

    fn maybe_finish(&mut self, ctx: &mut Ctx<'_>) {
        if self.forces_seen >= self.expected_forces() {
            self.forces_seen = 0;
            self.finish_step(ctx);
        }
    }
}

enum CellMsg {
    Step(u64),
    Forces { step: u64 },
}

impl Pup for CellMsg {
    fn pup(&mut self, p: &mut Puper) {
        let mut t: u8 = match self {
            CellMsg::Step(_) => 0,
            CellMsg::Forces { .. } => 1,
        };
        p.p(&mut t);
        let mut v = match self {
            CellMsg::Step(s) | CellMsg::Forces { step: s } => *s,
        };
        p.p(&mut v);
        if p.is_unpacking() {
            *self = match t {
                0 => CellMsg::Step(v),
                _ => CellMsg::Forces { step: v },
            };
        }
    }
}

impl Default for CellMsg {
    fn default() -> Self {
        CellMsg::Step(0)
    }
}

impl Clone for CellMsg {
    fn clone(&self) -> Self {
        match self {
            CellMsg::Step(s) => CellMsg::Step(*s),
            CellMsg::Forces { step } => CellMsg::Forces { step: *step },
        }
    }
}

impl Chare for Cell {
    type Msg = CellMsg;

    fn on_message(&mut self, msg: CellMsg, ctx: &mut Ctx<'_>) {
        match msg {
            CellMsg::Step(s) => {
                if self.rolled_back {
                    // A checkpoint can land mid-step, capturing cells at
                    // mixed phases; after a rollback the whole exchange
                    // re-runs from the driver's step.
                    self.rolled_back = false;
                    self.step = s;
                    self.forces_seen = 0;
                    self.early_forces = 0;
                    self.waiting_resume = false;
                }
                debug_assert_eq!(s, self.step);
                self.forces_seen += std::mem::take(&mut self.early_forces);
                self.start_step(ctx);
                self.maybe_finish(ctx);
            }
            CellMsg::Forces { step } => {
                if self.rolled_back {
                    // No compute can produce forces before our own re-sent
                    // coords, so anything arriving here is stale.
                    return;
                }
                if step == self.step {
                    self.forces_seen += 1;
                    self.maybe_finish(ctx);
                } else {
                    debug_assert_eq!(step, self.step + 1);
                    self.early_forces += 1;
                }
            }
        }
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        match ev {
            SysEvent::ResumeFromSync if self.waiting_resume => {
                self.waiting_resume = false;
                self.contribute_done(ctx);
            }
            SysEvent::Restarted { .. } => self.rolled_back = true,
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------

#[derive(Default)]
struct Compute {
    a: [i32; 3],
    b: [i32; 3],
    inputs_seen: u8,
    early_inputs: u8,
    atoms: [u32; 2],
    step: u64,
    lb_every: u64,
    cells: ArrayProxy<Cell>,
    waiting_resume: bool,
    /// See [`Cell::rolled_back`]: adopt the step of the first coords that
    /// arrive after a rollback.
    rolled_back: bool,
}

impl Pup for Compute {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.a, self.b, self.inputs_seen, self.early_inputs, self.atoms,
            self.step, self.lb_every, self.cells, self.waiting_resume,
            self.rolled_back
        );
    }
}

enum ComputeMsg {
    Coords {
        step: u64,
        atoms: u32,
        wire: SyntheticBlob,
    },
}

impl Pup for ComputeMsg {
    fn pup(&mut self, p: &mut Puper) {
        let ComputeMsg::Coords { step, atoms, wire } = self;
        p.p(step);
        p.p(atoms);
        p.p(wire);
    }
}

impl Default for ComputeMsg {
    fn default() -> Self {
        ComputeMsg::Coords {
            step: 0,
            atoms: 0,
            wire: SyntheticBlob::default(),
        }
    }
}

impl Compute {
    fn is_self_pair(&self) -> bool {
        self.a == self.b
    }

    fn expected_inputs(&self) -> u8 {
        if self.is_self_pair() {
            1
        } else {
            2
        }
    }
}

impl Chare for Compute {
    type Msg = ComputeMsg;

    fn on_message(&mut self, msg: ComputeMsg, ctx: &mut Ctx<'_>) {
        let ComputeMsg::Coords { step, atoms, .. } = msg;
        if self.rolled_back {
            // After a rollback every cell re-runs the driver's step; the
            // first re-sent coords tell us which step that is.
            self.rolled_back = false;
            self.step = step;
            self.inputs_seen = 0;
            self.early_inputs = 0;
            self.waiting_resume = false;
        }
        if step != self.step {
            debug_assert_eq!(step, self.step + 1, "coords from the far future");
            self.early_inputs += 1;
            self.atoms[1] = atoms;
            return;
        }
        self.atoms[self.inputs_seen.min(1) as usize] = atoms;
        self.inputs_seen += 1;
        if self.inputs_seen < self.expected_inputs() {
            return;
        }
        // Force kernel: n1·n2 pair interactions (half for the self pair).
        let (n1, n2) = (self.atoms[0] as f64, self.atoms[1].max(self.atoms[0]) as f64);
        let pairs = if self.is_self_pair() {
            n1 * (n1 - 1.0) / 2.0
        } else {
            n1 * n2
        };
        ctx.work(pairs * FLOPS_PER_PAIR);
        // Return forces to both cells.
        ctx.send(self.cells, Ix::I3(self.a), CellMsg::Forces { step: self.step });
        if !self.is_self_pair() {
            ctx.send(self.cells, Ix::I3(self.b), CellMsg::Forces { step: self.step });
        }
        self.inputs_seen = std::mem::take(&mut self.early_inputs);
        let lb_step = self.lb_every > 0 && (self.step + 1).is_multiple_of(self.lb_every);
        self.step += 1;
        if lb_step {
            self.waiting_resume = true;
            ctx.at_sync();
        }
    }

    fn on_event(&mut self, ev: SysEvent, _ctx: &mut Ctx<'_>) {
        match ev {
            SysEvent::ResumeFromSync => self.waiting_resume = false,
            SysEvent::Restarted { .. } => self.rolled_back = true,
            _ => {}
        }
    }

    fn load_hint(&self) -> f64 {
        (self.atoms[0] as f64 * self.atoms[1] as f64).max(1.0)
    }
}

// ---------------------------------------------------------------------------

#[derive(Default)]
struct Driver {
    step: u64,
    steps: u64,
    ckpt_at: i64,
    cells: ArrayProxy<Cell>,
}

impl Pup for Driver {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(p; self.step, self.steps, self.ckpt_at, self.cells);
    }
}

impl Chare for Driver {
    type Msg = u8;

    fn on_message(&mut self, _m: u8, ctx: &mut Ctx<'_>) {
        ctx.broadcast(self.cells, CellMsg::Step(0));
    }

    fn on_event(&mut self, ev: SysEvent, ctx: &mut Ctx<'_>) {
        match ev {
            SysEvent::Reduction { tag, value } => {
                debug_assert_eq!(tag as u64, self.step + 1);
                self.step += 1;
                ctx.log_metric("leanmd_step", ctx.now().as_secs_f64());
                ctx.log_metric("leanmd_atoms", value.as_i64() as f64);
                if self.ckpt_at >= 0 && self.step as i64 == self.ckpt_at {
                    ctx.start_mem_checkpoint(ctx.cb_self());
                } else if self.step < self.steps {
                    ctx.broadcast(self.cells, CellMsg::Step(self.step));
                } else {
                    ctx.exit();
                }
            }
            SysEvent::CheckpointDone => {
                if self.step < self.steps {
                    ctx.broadcast(self.cells, CellMsg::Step(self.step));
                } else {
                    ctx.exit();
                }
            }
            SysEvent::Restarted { .. } => {
                // Chare state (including our step counter) was rolled back
                // to the checkpoint; re-drive from there.
                ctx.broadcast(self.cells, CellMsg::Step(self.step));
            }
            _ => {}
        }
    }
}

// ---------------------------------------------------------------------------

/// Run LeanMD; returns per-step times (metric `leanmd_step`).
pub fn run(config: LeanMdConfig) -> AppRun {
    let (run, _rt) = run_with_runtime(config);
    run
}

/// Run LeanMD and also hand back the runtime for metric inspection
/// (checkpoint/restart figures read `ckpt_time_s` / `restart_time_s`).
pub fn run_with_runtime(mut config: LeanMdConfig) -> (AppRun, Runtime) {
    let mut b = Runtime::builder(std::mem::replace(
        &mut config.machine,
        MachineConfig::homogeneous(1),
    ))
    .seed(config.seed);
    if let Some(interval) = config.auto_ckpt {
        b = b.auto_checkpoint(interval);
    }
    if let Some(tc) = config.trace.take() {
        b = b.tracing(tc);
    }
    if let Some(rc) = config.record.take() {
        b = b.record(rc);
    }
    if let Some(seed) = config.perturb {
        b = b.perturb(seed);
    }
    if let Some(ec) = config.elastic.take() {
        b = b.elastic(ec);
    }
    let has_strategy = config.strategy.is_some();
    if let Some(s) = config.strategy.take() {
        b = b.strategy(s);
    }
    let mut rt = b.build();
    for s in config.trace_sinks.drain(..) {
        rt.add_trace_sink(s);
    }

    let cells: ArrayProxy<Cell> = rt.create_array("leanmd_cells");
    let computes: ArrayProxy<Compute> = rt.create_array("leanmd_computes");
    let driver: ArrayProxy<Driver> = rt.create_array("leanmd_driver");
    // Arrays are migratable whenever any balancer may run — AtSync rounds
    // (lb_every) or RTS-triggered rounds (reconfigure / thermal / cloud).
    let migratable = config.lb_every > 0 || has_strategy;
    rt.set_at_sync(cells, migratable);
    rt.set_at_sync(computes, migratable);

    let dim = config.cells_per_dim;
    let pes = rt.num_pes();
    // Block placement of cells; computes land on the home of their first
    // cell (a sensible static map the balancer can then improve).
    let cell_pe = |c: [i32; 3]| -> usize {
        let linear = (c[0] as usize * dim + c[1] as usize) * dim + c[2] as usize;
        linear * pes / (dim * dim * dim)
    };

    for x in 0..dim as i32 {
        for y in 0..dim as i32 {
            for z in 0..dim as i32 {
                let c = [x, y, z];
                let atoms = atoms_at(
                    config.atoms_per_cell,
                    config.density_peak,
                    config.drift_per_step,
                    dim,
                    c,
                    0,
                );
                rt.insert(
                    cells,
                    Ix::I3(c),
                    Cell {
                        c,
                        dim: dim as u64,
                        atoms,
                        cfg_atoms: config.atoms_per_cell as u64,
                        density_peak: config.density_peak,
                        drift: config.drift_per_step,
                        data: SyntheticBlob::new(atoms as u64 * BYTES_PER_ATOM),
                        lb_every: config.lb_every,
                        cells,
                        computes,
                        driver,
                        ..Cell::default()
                    },
                    Some(cell_pe(c)),
                );
            }
        }
    }
    // Create each canonical compute exactly once.
    for x in 0..dim as i32 {
        for y in 0..dim as i32 {
            for z in 0..dim as i32 {
                let a = [x, y, z];
                let d = dim as i32;
                for dx in -1..=1 {
                    for dy in -1..=1 {
                        for dz in -1..=1 {
                            let b = [wrap(x + dx, d), wrap(y + dy, d), wrap(z + dz, d)];
                            if a > b {
                                continue; // canonical owner is the smaller
                            }
                            let ix = compute_ix(a, b);
                            if rt.element_pe(computes.id(), &ix).is_some() {
                                continue; // wraparound alias already created
                            }
                            rt.insert(
                                computes,
                                ix,
                                Compute {
                                    a,
                                    b,
                                    lb_every: config.lb_every,
                                    cells,
                                    ..Compute::default()
                                },
                                Some(cell_pe(a)),
                            );
                        }
                    }
                }
            }
        }
    }

    rt.insert(
        driver,
        Ix::i1(0),
        Driver {
            steps: config.steps,
            ckpt_at: config.ckpt_at.map(|s| s as i64).unwrap_or(-1),
            cells,
            ..Driver::default()
        },
        Some(0),
    );

    for (t, pe) in &config.failures {
        rt.schedule_failure(*t, *pe);
    }
    for (t, pe, warning) in &config.preemptions {
        rt.schedule_preemption(*t, *pe, *warning);
    }
    for (t, to) in &config.reconfigure {
        rt.schedule_reconfigure(*t, *to);
    }

    rt.send(driver, Ix::i1(0), 0u8);
    let summary = rt.run();
    let run = crate::collect_app_run(&rt, &summary, "leanmd_step");
    (run, rt)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn neighbors_are_the_sorted_distinct_wrapped_stencil() {
        // Reference: all 27 wrapped offsets, sorted and deduplicated —
        // including the tiny grids where wraparound aliases neighbors.
        for dim in 1..=5i32 {
            for x in 0..dim {
                for y in 0..dim {
                    for z in 0..dim {
                        let cell = Cell { c: [x, y, z], dim: dim as u64, ..Cell::default() };
                        let w = |v: i32| wrap(v, dim);
                        let mut want = Vec::new();
                        for dx in -1..=1 {
                            for dy in -1..=1 {
                                for dz in -1..=1 {
                                    want.push([w(x + dx), w(y + dy), w(z + dz)]);
                                }
                            }
                        }
                        want.sort_unstable();
                        want.dedup();
                        assert_eq!(cell.neighbors().collect::<Vec<_>>(), want);
                        assert_eq!(cell.expected_forces() as usize, want.len());
                    }
                }
            }
        }
    }

    #[test]
    fn completes_and_conserves_density_model() {
        let (run, rt) = run_with_runtime(LeanMdConfig {
            steps: 6,
            ..LeanMdConfig::default()
        });
        assert_eq!(run.step_times.len(), 6);
        // Atom totals are deterministic per step (no drift → constant).
        let atoms: Vec<f64> = rt.metric("leanmd_atoms").iter().map(|&(_, v)| v).collect();
        assert!(atoms.windows(2).all(|w| w[0] == w[1]), "{atoms:?}");
    }

    #[test]
    fn lb_improves_skewed_runs() {
        let mk = |lb: bool| LeanMdConfig {
            machine: MachineConfig::homogeneous(8),
            cells_per_dim: 6,
            atoms_per_cell: 40,
            density_peak: 8.0,
            steps: 12,
            lb_every: if lb { 3 } else { 0 },
            strategy: lb.then(|| Box::new(charm_lb::GreedyLb) as Box<dyn Strategy>),
            ..LeanMdConfig::default()
        };
        let nolb = run(mk(false));
        let lb = run(mk(true));
        assert!(lb.lb_rounds >= 1);
        let tail = |r: &AppRun| {
            let d = r.step_durations();
            d[d.len() - 4..].iter().sum::<f64>() / 4.0
        };
        assert!(
            tail(&lb) < tail(&nolb) * 0.8,
            "LB={:.5}s NoLB={:.5}s",
            tail(&lb),
            tail(&nolb)
        );
    }

    #[test]
    fn checkpoint_and_failure_recovery() {
        // First, find out when the checkpoint lands so the injected
        // failure falls strictly after it.
        let (_probe, probe_rt) = run_with_runtime(LeanMdConfig {
            steps: 8,
            ckpt_at: Some(2),
            ..LeanMdConfig::default()
        });
        let ckpt_t = probe_rt.metric("ckpt_time_s")[0].0;
        let end_t = probe_rt.metric("leanmd_step").last().unwrap().0;
        let fail_t = SimTime::from_secs_f64((ckpt_t + end_t) / 2.0);
        let (run, rt) = run_with_runtime(LeanMdConfig {
            steps: 8,
            ckpt_at: Some(2),
            failures: vec![(fail_t, 5)],
            ..LeanMdConfig::default()
        });
        assert_eq!(rt.metric("ckpt_time_s").len(), 1);
        assert_eq!(rt.metric("restart_time_s").len(), 1);
        assert!(run.step_times.len() >= 8, "steps re-run after rollback");
        assert!(
            *run.step_times.last().unwrap() > 0.0,
            "run completed"
        );
    }

    #[test]
    fn auto_checkpoint_survives_repeated_failures() {
        // Probe to learn the run length, then enable periodic checkpoints
        // and pepper the run with two (non-buddy) node failures.
        let (_probe, probe_rt) = run_with_runtime(LeanMdConfig {
            steps: 8,
            ..LeanMdConfig::default()
        });
        let end_t = probe_rt.metric("leanmd_step").last().unwrap().0;
        let (run, rt) = run_with_runtime(LeanMdConfig {
            steps: 8,
            auto_ckpt: Some(SimTime::from_secs_f64(end_t / 6.0)),
            failures: vec![
                (SimTime::from_secs_f64(end_t * 0.45), 2),
                (SimTime::from_secs_f64(end_t * 0.75), 3),
            ],
            ..LeanMdConfig::default()
        });
        assert!(rt.unrecoverable().is_none(), "{:?}", rt.unrecoverable());
        assert!(rt.metric("ckpt_committed").len() >= 2, "periodic checkpoints ran");
        assert!(rt.metric("restart_time_s").len() >= 2, "both failures recovered");
        assert!(run.step_times.len() >= 8, "steps re-run after rollbacks");
    }

    #[test]
    fn shrink_then_expand_completes() {
        let (run, rt) = run_with_runtime(LeanMdConfig {
            machine: MachineConfig::homogeneous(16),
            steps: 16,
            strategy: Some(Box::new(charm_lb::GreedyLb)),
            reconfigure: vec![
                (SimTime::from_millis(20), 8),
                (SimTime::from_millis(60), 16),
            ],
            ..LeanMdConfig::default()
        });
        assert_eq!(rt.metric("reconfigure").len(), 2);
        assert_eq!(run.step_times.len(), 16);
        assert_eq!(rt.num_pes(), 16);
    }

    #[test]
    fn heterogeneous_cloud_lb_recovers_performance() {
        // Fig. 17: slow nodes hurt; heterogeneity-aware LB recovers.
        let mk = |slow: bool, lb: bool| {
            let mut machine = MachineConfig::homogeneous(8);
            if slow {
                machine.speed = machine.speed.clone().slow_block(0, 2, 0.5);
            }
            run(LeanMdConfig {
                machine,
                cells_per_dim: 6,
                steps: 10,
                lb_every: if lb { 2 } else { 0 },
                strategy: lb.then(|| Box::new(charm_lb::GreedyLb) as Box<dyn Strategy>),
                ..LeanMdConfig::default()
            })
        };
        let homo = mk(false, false);
        let hetero_nolb = mk(true, false);
        let hetero_lb = mk(true, true);
        let tail = |r: &AppRun| {
            let d = r.step_durations();
            d[d.len() - 3..].iter().sum::<f64>() / 3.0
        };
        assert!(tail(&hetero_nolb) > tail(&homo) * 1.3, "slow node must hurt");
        assert!(
            tail(&hetero_lb) < tail(&hetero_nolb) * 0.85,
            "speed-aware LB must recover: lb={:.5}s nolb={:.5}s homo={:.5}s",
            tail(&hetero_lb),
            tail(&hetero_nolb),
            tail(&homo)
        );
    }

    #[test]
    fn deterministic() {
        let a = run(LeanMdConfig::default());
        let b = run(LeanMdConfig::default());
        assert_eq!(a.step_times, b.step_times);
    }
}
