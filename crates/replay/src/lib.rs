//! # charm-replay — deterministic record/replay for charm-rs
//!
//! The correctness-tooling and performance-prediction layer of the paper's
//! §V (Projections / BigSim) story, built on the runtime's recording hooks
//! ([`charm_core::replay`]):
//!
//! * **Record** — [`RuntimeBuilder::record`](charm_core::RuntimeBuilder::record)
//!   captures the causal message log (per-message src/dst/entry/seq/payload
//!   digest) plus periodic PUP-based chare-state digests;
//!   [`save`]/[`load`] persist it as `.rlog` v2: the chunks the recorder
//!   encoded, each with its own CRC, written and read back as they are.
//! * **Replay & verify** — re-run the same program with the same seed and
//!   recorder, then [`verify`] the two logs digest-for-digest: every
//!   executed entry, every state-digest point, and the final chare states
//!   must match exactly (the scheduler is deterministic, so they do —
//!   including across injected failures and restarts).
//! * **Perturb & hunt** — re-run with seeded, causally-valid delivery
//!   delays ([`RuntimeBuilder::perturb`](charm_core::RuntimeBuilder::perturb)
//!   takes the seed); [`diff_runs`] flags order-sensitive chares
//!   by final-state digest and minimizes a witness: the first position in a
//!   chare's consumed-message sequence where the two runs disagree — i.e.
//!   the two messages whose delivery order swapped. [`hunt`] drives K
//!   perturbed runs until one flags.
//! * **What-if** — [`whatif`] reduces the log to a computation/communication
//!   DAG and replays it on a *different* [`MachineConfig`] via
//!   [`charm_machine::simulate_dag`], predicting makespan and per-PE
//!   utilization without re-running application logic (BigSim-lite).

pub use charm_core::replay::{
    DigestPoint, ExecLog, ExecRec, ReplayConfig, ReplayLog, SendRec, Sends, NO_CHARE,
};

pub mod demo;
mod critpath;
mod logfile;
mod races;
mod verify;
mod whatif;

pub use critpath::{critical_path, CritPath};
pub use logfile::{load, save, LogError};
pub use races::{diff_runs, hunt, HuntOutcome};
pub use verify::verify;
pub use whatif::whatif;
