//! Machine presets approximating the supercomputers in the paper's
//! evaluation. Parameters are order-of-magnitude calibrations from public
//! specifications; EXPERIMENTS.md documents how each affects its figures.

use crate::thermal::ThermalConfig;
use crate::{DiskModel, MachineConfig, NetworkParams, SpeedModel};

fn torus_dims_for(num_pes: usize, ndims: usize) -> Vec<usize> {
    crate::Torus::balanced(num_pes, ndims).dims().to_vec()
}

/// Vesta / Mira (IBM Blue Gene/Q): 16 cores/chip, 1.6 GHz A2 cores, 5-D
/// torus. Used for the AMR3D and LeanMD figures (Figs. 8–10).
pub fn bgq(num_pes: usize) -> MachineConfig {
    MachineConfig {
        name: format!("Vesta (IBM BG/Q) x{num_pes}"),
        num_pes,
        cores_per_chip: 16,
        pes_per_node: 16,
        // modest per-core throughput; BG/Q cores are slow but plentiful
        flops_per_sec: 0.8e9,
        network: NetworkParams::bgq_torus(torus_dims_for(num_pes, 5)),
        thermal: None,
        speed: SpeedModel::uniform(num_pes),
        disk: DiskModel::default(),
    }
}

/// Blue Waters (Cray XE6, Gemini 3-D torus). Used for Barnes-Hut and
/// ChaNGa (Figs. 12–13).
pub fn xe6(num_pes: usize) -> MachineConfig {
    MachineConfig {
        name: format!("Blue Waters (Cray XE6) x{num_pes}"),
        num_pes,
        cores_per_chip: 16,
        pes_per_node: 32,
        flops_per_sec: 2.3e9,
        network: NetworkParams::gemini_torus(torus_dims_for(num_pes, 3)),
        thermal: None,
        speed: SpeedModel::uniform(num_pes),
        disk: DiskModel::default(),
    }
}

/// Titan (Cray XK7, CPU partition only, Gemini network). Fig. 11.
pub fn xk7(num_pes: usize) -> MachineConfig {
    MachineConfig {
        name: format!("Titan XK7 (CPU only) x{num_pes}"),
        num_pes,
        cores_per_chip: 16,
        pes_per_node: 16,
        flops_per_sec: 2.2e9,
        network: NetworkParams::gemini_torus(torus_dims_for(num_pes, 3)),
        thermal: None,
        speed: SpeedModel::uniform(num_pes),
        disk: DiskModel::default(),
    }
}

/// Jaguar (Cray XT5, SeaStar network — older, slower than Gemini). Fig. 11.
pub fn xt5(num_pes: usize) -> MachineConfig {
    MachineConfig {
        name: format!("Jaguar XT5 x{num_pes}"),
        num_pes,
        cores_per_chip: 12,
        pes_per_node: 12,
        flops_per_sec: 1.8e9,
        network: NetworkParams::seastar_torus(torus_dims_for(num_pes, 3)),
        thermal: None,
        speed: SpeedModel::uniform(num_pes),
        disk: DiskModel::default(),
    }
}

/// Hopper (Cray XE6 at NERSC): the LULESH/AMPI machine (Fig. 14).
/// 2×12-core AMD per node; L2+L3 ≈ 36 MB/node as the paper reports.
pub fn hopper(num_pes: usize) -> MachineConfig {
    MachineConfig {
        name: format!("Hopper (Cray XE6) x{num_pes}"),
        num_pes,
        cores_per_chip: 24,
        pes_per_node: 24,
        flops_per_sec: 2.1e9,
        network: NetworkParams::gemini_torus(torus_dims_for(num_pes, 3)),
        thermal: None,
        speed: SpeedModel::uniform(num_pes),
        disk: DiskModel::default(),
    }
}

/// Stampede (TACC): Sandy Bridge + InfiniBand. Figs. 5, 15.
pub fn stampede(num_pes: usize) -> MachineConfig {
    MachineConfig {
        name: format!("Stampede x{num_pes}"),
        num_pes,
        cores_per_chip: 16,
        pes_per_node: 16,
        flops_per_sec: 2.7e9,
        network: NetworkParams::infiniband(),
        thermal: None,
        speed: SpeedModel::uniform(num_pes),
        disk: DiskModel::default(),
    }
}

/// The paper's private cloud: Xeon X5650 nodes on 1-gig Ethernet under kvm
/// (§IV-F). `vms` virtual machines, one PE each by default.
pub fn cloud(num_pes: usize) -> MachineConfig {
    MachineConfig {
        name: format!("private cloud (kvm, 1GigE) x{num_pes}"),
        num_pes,
        cores_per_chip: 4,
        pes_per_node: 1,
        flops_per_sec: 2.0e9,
        network: NetworkParams::ethernet_1g(),
        thermal: None,
        speed: SpeedModel::uniform(num_pes),
        disk: DiskModel::default(),
    }
}

/// The thermal-testbed machine for the Fig. 4 reproduction: a small cluster
/// with per-chip DVFS and the CRAC at 74 °F.
pub fn thermal_testbed(num_pes: usize) -> MachineConfig {
    MachineConfig {
        name: format!("thermal testbed x{num_pes}"),
        num_pes,
        cores_per_chip: 4,
        pes_per_node: 4,
        flops_per_sec: 2.0e9,
        network: NetworkParams::infiniband(),
        thermal: Some(ThermalConfig::fig4()),
        speed: SpeedModel::uniform(num_pes),
        disk: DiskModel::default(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_have_consistent_pe_counts() {
        for m in [
            bgq(1024),
            xe6(512),
            xk7(256),
            xt5(256),
            hopper(216),
            stampede(128),
            cloud(32),
            thermal_testbed(16),
        ] {
            assert!(m.num_pes > 0);
            assert!(m.flops_per_sec > 0.0);
        }
    }

    #[test]
    fn gemini_beats_seastar() {
        // The XK7-vs-XT5 gap in Fig. 11 comes partly from the network.
        let a = xk7(64).network;
        let b = xt5(64).network;
        assert!(a.alpha < b.alpha);
        assert!(a.beta_sec_per_byte < b.beta_sec_per_byte);
    }

    /// One-way latency of an empty message and streaming bandwidth of a
    /// 1 MiB message between two PEs, as the network model prices them.
    fn latency_and_bandwidth(m: MachineConfig) -> (f64, f64) {
        let mut net = crate::NetworkModel::new(m.network, 1);
        let latency = net.delay(0, 1, 0, 0).as_secs_f64();
        let big = 1 << 20;
        let t_big = net.delay(0, 1, big, 0).as_secs_f64();
        (latency, big as f64 / (t_big - latency))
    }

    #[test]
    fn cloud_network_is_an_order_of_magnitude_worse() {
        // §IV-F: "the underlying network in most clouds performs an order
        // of magnitude worse compared to typical HPC interconnects".
        let mut cloud_cfg = cloud(2);
        cloud_cfg.network.jitter = 0.0;
        let (cloud_lat, cloud_bw) = latency_and_bandwidth(cloud_cfg);
        let (hpc_lat, hpc_bw) = latency_and_bandwidth(stampede(2));
        assert!(
            cloud_lat > hpc_lat * 10.0,
            "cloud latency {:.2}us vs HPC {:.2}us",
            cloud_lat * 1e6,
            hpc_lat * 1e6
        );
        assert!(
            hpc_bw > cloud_bw * 10.0,
            "HPC bw {:.1}MB/s vs cloud {:.1}MB/s",
            hpc_bw / 1e6,
            cloud_bw / 1e6
        );
    }

    #[test]
    fn infiniband_latency_and_bandwidth_are_sane() {
        let (lat, bw) = latency_and_bandwidth(stampede(2));
        // α = 1.5 µs plus injection overhead: a few microseconds one-way.
        assert!(lat > 1e-6 && lat < 10e-6, "latency {:.2}us", lat * 1e6);
        // The IB preset is 5 GB/s; within 2x.
        assert!(bw > 2.5e9 && bw < 10e9, "bandwidth {:.2} GB/s", bw / 1e9);
    }

    #[test]
    fn thermal_testbed_has_thermal_model() {
        let m = thermal_testbed(16);
        let t = m.thermal.as_ref().expect("thermal config present");
        assert!((t.threshold_c - 50.0).abs() < 1e-9);
        assert_eq!(m.num_chips(), 4);
    }

    #[test]
    fn torus_covers_pes() {
        let m = bgq(4096);
        let dims = m.network.torus_dims.clone().unwrap();
        let size: usize = dims.iter().product();
        assert!(size >= 4096);
    }
}
