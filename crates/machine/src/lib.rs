//! # charm-machine — a deterministic discrete-event machine simulator
//!
//! The hardware substrate the charm-rs runtime executes on. The paper's
//! evaluation ran on IBM BG/Q, Cray XE6/XK7/XT5, Hopper, Stampede and a
//! kvm cloud; none of those are available here, so this crate models them:
//!
//! * [`SimTime`] — integer-nanosecond virtual time,
//! * [`EventQueue`] — a total-ordered (time, sequence) event heap,
//! * [`NetworkModel`] — α + size·β (+ hops·γ) message cost with optional
//!   N-dimensional torus topologies and seeded jitter,
//! * [`thermal`] — a lumped-RC chip temperature model with a DVFS ladder,
//! * `SpeedModel` — static per-PE heterogeneity plus timed interference
//!   windows (cloud multi-tenancy),
//! * `DiskModel` — checkpoint I/O cost,
//! * [`presets`] — parameterizations approximating each machine the paper
//!   used.
//!
//! Everything is a *passive cost/state model*: the runtime in `charm-core`
//! drives the event loop and asks these models what things cost. All
//! stochastic elements draw from seeded RNGs, so entire runs replay
//! bit-identically.

pub(crate) mod dagsim;
mod disk;
mod events;
mod network;
pub mod presets;
pub mod rss;
mod speed;
pub mod thermal;
mod time;
pub(crate) mod topology;

pub use dagsim::{simulate_dag, DagEdge, DagNode};
pub use disk::DiskFault;
pub(crate) use disk::DiskModel;
pub use events::{EventQueue, PrioQueue};
pub use network::{NetworkModel, NetworkParams};
pub use rss::peak_rss_bytes;
pub use speed::InterferenceWindow;
pub(crate) use speed::SpeedModel;
pub use time::SimTime;
pub use topology::Torus;

use thermal::ThermalConfig;

/// Full description of a simulated machine.
///
/// Build one from a [`presets`] constructor and tweak fields, or assemble it
/// directly.
#[derive(Debug, Clone)]
pub struct MachineConfig {
    /// Human-readable name used in reports ("Vesta (IBM BG/Q)", …).
    pub name: String,
    /// Number of processing elements (cores, or hardware threads for BG/Q
    /// runs using multiple processes per core).
    pub num_pes: usize,
    /// Cores grouped onto one chip — the granularity of the thermal model
    /// and of DVFS decisions.
    pub cores_per_chip: usize,
    /// PEs sharing one physical node — the granularity of failures: when a
    /// node dies, every PE in its range dies with it.
    pub(crate) pes_per_node: usize,
    /// Reference compute throughput of one PE, in work-units per second.
    /// Entry methods declare their cost in work-units; a PE at speed 1.0
    /// executes `flops_per_sec` of them per virtual second.
    pub flops_per_sec: f64,
    /// The interconnect model.
    pub network: NetworkParams,
    /// Thermal/DVFS model (None = temperature is not simulated).
    pub thermal: Option<ThermalConfig>,
    /// Per-PE static speed plus dynamic interference.
    pub speed: SpeedModel,
    /// Disk used for file-based checkpoints.
    pub disk: DiskModel,
}

impl MachineConfig {
    /// A small homogeneous machine with an InfiniBand-like network —
    /// a reasonable default for tests and quickstarts.
    pub fn homogeneous(num_pes: usize) -> Self {
        MachineConfig {
            name: format!("generic-{num_pes}"),
            num_pes,
            cores_per_chip: 16,
            pes_per_node: 1,
            flops_per_sec: 1e9,
            network: NetworkParams::infiniband(),
            thermal: None,
            speed: SpeedModel::uniform(num_pes),
            disk: DiskModel::default(),
        }
    }

    /// Number of chips implied by `num_pes` / `cores_per_chip`.
    pub fn num_chips(&self) -> usize {
        self.num_pes.div_ceil(self.cores_per_chip)
    }

    /// Chip that hosts a PE.
    pub fn chip_of(&self, pe: usize) -> usize {
        pe / self.cores_per_chip
    }

    /// Change the node size, keeping everything else (builder-style).
    pub fn with_pes_per_node(mut self, pes_per_node: usize) -> Self {
        assert!(pes_per_node >= 1, "a node holds at least one PE");
        self.pes_per_node = pes_per_node;
        self
    }

    /// Node that hosts a PE.
    pub fn node_of(&self, pe: usize) -> usize {
        pe / self.pes_per_node.max(1)
    }

    /// The PE range of one node (the last node may be partial).
    pub fn node_pe_range(&self, node: usize) -> std::ops::Range<usize> {
        let ppn = self.pes_per_node.max(1);
        let start = node * ppn;
        start..((start + ppn).min(self.num_pes))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn homogeneous_machine_shape() {
        let m = MachineConfig::homogeneous(64);
        assert_eq!(m.num_pes, 64);
        assert_eq!(m.num_chips(), 4);
        assert_eq!(m.chip_of(0), 0);
        assert_eq!(m.chip_of(17), 1);
        assert_eq!(m.chip_of(63), 3);
    }

    #[test]
    fn node_geometry() {
        let m = MachineConfig::homogeneous(64).with_pes_per_node(16);
        assert_eq!(m.node_of(0), 0);
        assert_eq!(m.node_of(15), 0);
        assert_eq!(m.node_of(16), 1);
        assert_eq!(m.node_pe_range(1), 16..32);
        // Partial trailing node.
        let m = MachineConfig::homogeneous(20).with_pes_per_node(16);
        assert_eq!(m.node_pe_range(1), 16..20);
    }
}
