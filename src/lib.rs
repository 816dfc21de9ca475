//! # charm-rs — migratable-objects parallel programming in Rust
//!
//! A from-scratch reproduction of *"Parallel Programming with Migratable
//! Objects: Charm++ in Practice"* (SC 2014): the chare programming model,
//! an adaptive runtime system with measurement-based load balancing,
//! fault tolerance, power awareness, malleability, introspective tuning,
//! TRAM message aggregation, AMPI-style virtualized MPI ranks — and every
//! mini-app the paper's evaluation uses, with benchmark binaries that
//! regenerate each of its figures.
//!
//! This facade crate re-exports the workspace members:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`pup`] | `charm-pup` | the PUP serialization framework |
//! | [`machine`] | `charm-machine` | deterministic machine simulator (network, thermal, interference, disk) |
//! | [`core`] | `charm-core` | chares, proxies, scheduler, LB framework, FT, malleability, control points |
//! | [`lb`] | `charm-lb` | Greedy/Refine/Hybrid/Distributed/Orb/Comm/Rotate balancers |
//! | [`tram`] | `charm-tram` | Topological Routing and Aggregation Module |
//! | [`ampi`] | `charm-ampi` | virtualized MPI ranks as migratable chares |
//! | [`sort`] | `charm-sort` | HistSort + MPI multiway-merge baseline |
//! | [`apps`] | `charm-apps` | LeanMD, AMR3D, Barnes-Hut, PDES, LULESH, Stencil2D, … |
//!
//! Start with `examples/quickstart.rs`, then see DESIGN.md for the system
//! inventory and EXPERIMENTS.md for the paper-vs-measured record.

pub use charm_ampi as ampi;
pub use charm_apps as apps;
pub use charm_core as core;
pub use charm_lb as lb;
pub use charm_machine as machine;
pub use charm_pup as pup;
pub use charm_sort as sort;
pub use charm_tram as tram;

// The most common names, flattened for examples and downstream users.
pub use charm_core::{
    ArrayProxy, Callback, Chare, Ctx, DvfsScheme, Ix, LbTrigger, MachineConfig, RedOp, RedValue,
    RunSummary, Runtime, SimTime, Strategy, SysEvent,
};
pub use charm_pup::{Pup, Puper};
