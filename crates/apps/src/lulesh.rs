//! LULESH on AMPI (§IV-D, Fig. 14).
//!
//! The Livermore shock-hydrodynamics proxy runs as MPI ranks over a 3-D
//! domain decomposition: each iteration exchanges boundary data with up to
//! six face neighbors, computes over its elements, and joins a global
//! Min-allreduce for the time-step. Here every rank is a *virtualized* AMPI
//! rank (`charm-ampi`), which buys the paper's results:
//!
//! * **v=8 cache blocking** — eight-way virtualization shrinks the per-rank
//!   working set (~283 MB/node → ~35 MB) under Hopper's 36 MB of L2+L3,
//!   a 2.4× speedup with the same source code,
//! * **automatic LB** — LULESH's mild region imbalance is absorbed by
//!   migrating ranks,
//! * **any core count** — the *virtual* rank count must be cubic; the PE
//!   count (3000, 6000, …) need not be.

use charm_ampi::{AmpiWorld, CacheModel, Mpi, RankProgram};
use charm_core::{MachineConfig, RedOp, RedValue, Runtime, Strategy};
use charm_pup::{Pup, Puper, SyntheticBlob};

/// Bytes of state per element (the paper: 27000 elements/PE ≈ 283 MB/node
/// on 24-core Hopper nodes → ~437 bytes/element).
pub(crate) const BYTES_PER_ELEMENT: f64 = 440.0;
/// Flops charged per element per iteration (several hydro kernels).
const FLOPS_PER_ELEMENT: f64 = 180.0;
/// Wire bytes per face element exchanged. Faces are modeled: a rank only
/// counts the ones it receives, so they travel as [`SyntheticBlob`]s.
const FACE_BYTES_PER_ELEMENT: u64 = 24;

/// LULESH configuration.
pub struct LuleshConfig {
    /// Machine (Hopper preset for Fig. 14).
    pub machine: MachineConfig,
    /// Virtual MPI ranks per side: ranks = side³ (must be cubic — the
    /// *virtual* count, not the PE count).
    pub ranks_per_side: usize,
    /// Elements per rank (paper default 27000 — weak scaling constant).
    pub elements_per_rank: usize,
    /// Iterations.
    pub iterations: u64,
    /// Migrate (AMPI_Migrate → AtSync) every k iterations (0 = never).
    pub migrate_every: u64,
    /// LB strategy for migrations.
    pub strategy: Option<Box<dyn Strategy>>,
    /// Apply the cache model (None = cache-oblivious baseline)?
    pub cache: Option<CacheModel>,
    /// Per-rank intrinsic load skew amplitude (LULESH's region imbalance).
    pub skew: f64,
    /// Seed.
    pub seed: u64,
}

impl LuleshConfig {
    /// Fig. 14's per-node cache model. Hopper nodes have 24 cores sharing
    /// ~36 MB of L2+L3; with one rank per core, 24 working sets contend for
    /// the cache, so each rank effectively owns a 1/24 share (~1.5 MB).
    /// 27000 elements/rank ≈ 11.9 MB ≫ 1.5 MB → thrash. Eight-way
    /// virtualization divides each rank's working set by 8 (≈1.5 MB),
    /// which fits its share — "effectively, each iteration's work is
    /// performed in eight portions, each with smaller working sets".
    pub fn hopper_cache(elements_per_rank: usize) -> CacheModel {
        CacheModel {
            cache_per_node: 36e6,
            ranks_per_node: 24.0,
            working_set_per_rank: elements_per_rank as f64 * BYTES_PER_ELEMENT,
            miss_penalty: 2.8,
        }
    }
}

impl Default for LuleshConfig {
    fn default() -> Self {
        LuleshConfig {
            machine: MachineConfig::homogeneous(8),
            ranks_per_side: 2,
            elements_per_rank: 27000,
            iterations: 8,
            migrate_every: 0,
            strategy: None,
            cache: None,
            skew: 0.15,
            seed: 42,
        }
    }
}

/// The per-rank LULESH program (message-driven state machine).
#[derive(Default)]
struct LuleshRank {
    side: u64,
    elements: u64,
    iterations: u64,
    iter: u64,
    migrate_every: u64,
    skew: f64,
    phase: u32,
    faces_expected: u32,
    faces_seen: u32,
    dt: f64,
    last_step_t: f64,
}

impl Pup for LuleshRank {
    fn pup(&mut self, p: &mut Puper) {
        charm_pup::pup_all!(
            p;
            self.side, self.elements, self.iterations, self.iter,
            self.migrate_every, self.skew, self.phase, self.faces_expected,
            self.faces_seen, self.dt, self.last_step_t
        );
    }
}

impl LuleshRank {
    fn coords(&self, rank: u64) -> [u64; 3] {
        let s = self.side;
        [rank % s, (rank / s) % s, rank / (s * s)]
    }

    fn rank_at(&self, c: [u64; 3]) -> u64 {
        c[0] + c[1] * self.side + c[2] * self.side * self.side
    }

    /// Non-periodic face neighbors.
    fn neighbors(&self, rank: u64) -> Vec<u64> {
        let c = self.coords(rank);
        let mut out = Vec::with_capacity(6);
        for axis in 0..3 {
            for d in [-1i64, 1] {
                let v = c[axis] as i64 + d;
                if v < 0 || v >= self.side as i64 {
                    continue;
                }
                let mut cc = c;
                cc[axis] = v as u64;
                out.push(self.rank_at(cc));
            }
        }
        out
    }

    /// Per-rank work factor: LULESH's material regions make some domains a
    /// bit heavier — "the load imbalance in LULESH is designed to be small".
    fn region_factor(&self, rank: u64) -> f64 {
        let h = rank
            .wrapping_mul(0x9E3779B97F4A7C15)
            .rotate_left(17)
            .wrapping_mul(0xBF58476D1CE4E5B9);
        1.0 + self.skew * ((h >> 40) as f64 / (1u64 << 24) as f64 - 0.5) * 2.0
    }
}

impl RankProgram for LuleshRank {
    fn step(&mut self, mpi: &mut Mpi<'_, '_>) {
        loop {
            match self.phase {
                // Send faces for this iteration.
                0 => {
                    if self.iter >= self.iterations {
                        mpi.finish();
                        if mpi.rank() == 0 {
                            mpi.exit_all();
                        }
                        return;
                    }
                    let nbs = self.neighbors(mpi.rank());
                    self.faces_expected = nbs.len() as u32;
                    self.faces_seen = 0;
                    let face_elems = (self.elements as f64).powf(2.0 / 3.0) as u64;
                    for nb in nbs {
                        let face = SyntheticBlob::new(face_elems * FACE_BYTES_PER_ELEMENT);
                        mpi.isend(nb, self.iter as i64, face);
                    }
                    self.phase = 1;
                }
                // Receive all faces.
                1 => {
                    let nbs = self.neighbors(mpi.rank());
                    for nb in nbs {
                        while mpi.try_recv(nb, self.iter as i64).is_some() {
                            self.faces_seen += 1;
                        }
                    }
                    if self.faces_seen < self.faces_expected {
                        return; // blocked on halos
                    }
                    self.phase = 2;
                }
                // Compute the hydro kernels and start the dt allreduce.
                2 => {
                    let factor = self.region_factor(mpi.rank());
                    mpi.work(self.elements as f64 * FLOPS_PER_ELEMENT * factor);
                    let local_dt = 1.0 / factor; // heavier region → smaller dt
                    mpi.allreduce(
                        self.iter as u32 + 1,
                        RedValue::F64(local_dt),
                        RedOp::Min,
                    );
                    self.phase = 3;
                }
                // Wait for the global minimum time step.
                3 => match mpi.try_collective(self.iter as u32 + 1) {
                    Some(v) => {
                        self.dt = v.as_f64();
                        if mpi.rank() == 0 {
                            let now = mpi.now_s();
                            mpi.log_metric("lulesh_iter", now);
                            mpi.log_metric("lulesh_iter_dt", now - self.last_step_t);
                            self.last_step_t = now;
                        }
                        self.iter += 1;
                        self.phase = 0;
                        if self.migrate_every > 0 && self.iter.is_multiple_of(self.migrate_every) {
                            mpi.migrate();
                            return; // resume after the AtSync round
                        }
                    }
                    None => return, // blocked on the collective
                },
                _ => return,
            }
        }
    }
}

/// Result of a LULESH run.
#[derive(Debug)]
pub struct LuleshRun {
    /// Per-iteration completion timestamps (seconds, rank 0).
    pub iter_times: Vec<f64>,
    /// Average steady-state iteration time.
    pub avg_iter_s: f64,
}

/// Run LULESH over AMPI.
pub fn run(mut config: LuleshConfig) -> LuleshRun {
    let mut b = Runtime::builder(std::mem::replace(
        &mut config.machine,
        MachineConfig::homogeneous(1),
    ))
    .seed(config.seed);
    if let Some(s) = config.strategy.take() {
        b = b.strategy(s);
    }
    let mut rt = b.build();
    let side = config.ranks_per_side;
    let ranks = side * side * side;
    let world = AmpiWorld::<LuleshRank>::create(
        &mut rt,
        "lulesh",
        ranks,
        config.cache.as_ref(),
        |_r| LuleshRank {
            side: side as u64,
            elements: config.elements_per_rank as u64,
            iterations: config.iterations,
            migrate_every: config.migrate_every,
            skew: config.skew,
            ..LuleshRank::default()
        },
    );
    world.kick(&mut rt);
    let summary = rt.run();
    let iter_times: Vec<f64> = rt.metric("lulesh_iter").iter().map(|&(_, v)| v).collect();
    let avg = if iter_times.len() >= 2 {
        (iter_times[iter_times.len() - 1] - iter_times[0]) / (iter_times.len() - 1) as f64
    } else {
        summary.end_time.as_secs_f64() / iter_times.len().max(1) as f64
    };
    LuleshRun {
        iter_times,
        avg_iter_s: avg,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn completes_iterations() {
        let r = run(LuleshConfig::default());
        assert_eq!(r.iter_times.len(), 8);
        assert!(r.avg_iter_s > 0.0);
    }

    #[test]
    fn virtualization_with_cache_model_speeds_up() {
        // Fig. 14's 2.4×: v=1 (8 ranks on 8 PEs, working set misses) vs
        // v=8 (64 ranks on 8 PEs, working set fits).
        let elements = 27000;
        let v1 = run(LuleshConfig {
            ranks_per_side: 2,
            elements_per_rank: elements,
            cache: Some(LuleshConfig::hopper_cache(elements)),
            ..LuleshConfig::default()
        });
        let v8 = run(LuleshConfig {
            ranks_per_side: 4,
            elements_per_rank: elements / 8,
            cache: Some(LuleshConfig::hopper_cache(elements / 8)),
            ..LuleshConfig::default()
        });
        let speedup = v1.avg_iter_s / v8.avg_iter_s;
        assert!(
            speedup > 1.8,
            "cache blocking should give roughly the paper's 2.4x: {speedup:.2}x (v1={:.5}s v8={:.5}s)",
            v1.avg_iter_s,
            v8.avg_iter_s
        );
    }

    #[test]
    fn migration_lb_absorbs_region_imbalance() {
        let base = |migrate: bool| LuleshConfig {
            ranks_per_side: 4,
            elements_per_rank: 3000,
            iterations: 12,
            skew: 0.6,
            migrate_every: if migrate { 3 } else { 0 },
            strategy: migrate.then(|| Box::new(charm_lb::GreedyLb) as Box<dyn Strategy>),
            ..LuleshConfig::default()
        };
        let nolb = run(base(false));
        let lb = run(base(true));
        let tail = |r: &LuleshRun| {
            let n = r.iter_times.len();
            (r.iter_times[n - 1] - r.iter_times[n - 4]) / 3.0
        };
        assert!(
            tail(&lb) < tail(&nolb),
            "rank migration should absorb skew: lb={:.6}s nolb={:.6}s",
            tail(&lb),
            tail(&nolb)
        );
    }

    #[test]
    fn non_cubic_pe_counts_work() {
        // The PE count need not be cubic — only the rank count is.
        for pes in [3usize, 5, 6, 7] {
            let r = run(LuleshConfig {
                machine: MachineConfig::homogeneous(pes),
                ranks_per_side: 2,
                elements_per_rank: 2000,
                iterations: 4,
                ..LuleshConfig::default()
            });
            assert_eq!(r.iter_times.len(), 4, "pes={pes}");
        }
    }

    #[test]
    fn deterministic() {
        let a = run(LuleshConfig::default());
        let b = run(LuleshConfig::default());
        assert_eq!(a.iter_times, b.iter_times);
    }
}
