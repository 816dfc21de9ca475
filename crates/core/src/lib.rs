//! # charm-core — a migratable-objects parallel runtime in Rust
//!
//! A from-scratch implementation of the programming model and runtime
//! described in *"Parallel Programming with Migratable Objects: Charm++ in
//! Practice"* (SC 2014):
//!
//! * **Over-decomposition** (§II-A): work lives in many more
//!   [`Chare`]s than PEs, organized into indexed [`ArrayProxy`] collections
//!   with 1-D…6-D, bit-vector, and named indices.
//! * **Asynchronous message-driven execution** (§II-B): entry methods run
//!   when a message arrives; each PE's scheduler picks the
//!   highest-priority queued message; senders never block.
//! * **Migratability** (§II-C): every chare is serializable via the PUP
//!   framework (`charm-pup`), so the runtime can move it for load balance,
//!   checkpoint it, recover it after a failure, evacuate it on shrink.
//!
//! On top of these the runtime provides the paper's §III feature set:
//! measurement-based load balancing with pluggable strategies
//! ([`lbframework`]), double in-memory and disk checkpoint/restart (`ft`),
//! temperature-aware DVFS control (`power`), malleable shrink/expand
//! (`malleable`, via [`Runtime::schedule_reconfigure`]), an introspective
//! control-point tuner (`ctrl`), host-program interoperation
//! (`interop`), and a Projections-lite tracing & metrics subsystem
//! (`trace`) with Chrome-trace export and per-entry-method profiles.
//!
//! Execution happens on the deterministic machine simulator from
//! `charm-machine`; see that crate and DESIGN.md for the
//! hardware-substitution rationale.
//!
//! ## A minimal program
//!
//! ```
//! use charm_core::{Chare, Ctx, Runtime, Ix};
//! use charm_pup::{Pup, Puper};
//!
//! #[derive(Default)]
//! struct Hello { greeted: u64 }
//!
//! impl Pup for Hello {
//!     fn pup(&mut self, p: &mut Puper) { p.p(&mut self.greeted); }
//! }
//!
//! impl Chare for Hello {
//!     type Msg = String;
//!     fn on_message(&mut self, msg: String, ctx: &mut Ctx<'_>) {
//!         self.greeted += 1;
//!         ctx.work(1e6); // one megaflop of pretend work
//!         ctx.log_metric("greetings", self.greeted as f64);
//!         if msg == "stop" { ctx.exit(); }
//!     }
//! }
//!
//! let mut rt = Runtime::homogeneous(4);
//! let arr = rt.create_array::<Hello>("hello");
//! for i in 0..8 { rt.insert(arr, Ix::i1(i), Hello::default(), None); }
//! rt.send(arr, Ix::i1(3), "hi".to_string());
//! rt.run(); // message-driven: runs until the queue drains
//! rt.send(arr, Ix::i1(3), "stop".to_string());
//! let summary = rt.run();
//! assert_eq!(rt.metric("greetings").len(), 2);
//! assert!(summary.end_time.as_secs_f64() > 0.0);
//! ```

pub(crate) mod arena;
mod array;
mod chare;
pub(crate) mod chunked;
mod collectives;
pub(crate) mod ctrl;
mod ctx;
pub(crate) mod elastic;
pub(crate) mod ft;
mod index;
pub(crate) mod interop;
pub mod lbframework;
mod malleable;
mod placement;
pub(crate) mod power;
pub mod replay;
mod routing;
mod runtime;
pub(crate) mod trace;
mod tracefmt;
pub(crate) mod tsink;

pub use array::{ArrayId, ArrayProxy, ObjId};
pub use chare::{Callback, Chare, RedOp, RedValue, SysEvent};
pub use ctx::Ctx;
pub use elastic::{ElasticConfig, HysteresisPolicy, RunOutcome};
pub use ft::{buddy_pe, write_atomic, RestoreError};
pub use index::Ix;
pub use interop::CharmLib;
pub use lbframework::{LbStats, LbTrigger, NullLb, ObjStat, Strategy};
pub use power::DvfsScheme;
pub use replay::{ReplayConfig, ReplayLog};
pub use routing::HomeMap;
pub use runtime::{RunSummary, Runtime, RuntimeBuilder, Unrecoverable};
pub(crate) use runtime::ENVELOPE_BYTES;
pub use trace::{LogHist, SinkStats, TraceConfig, TraceEventKind, TraceSink};
pub use tsink::{ChromeStreamSink, CountingSink, CsvStreamSink};

// Re-exported so applications depending on charm-core alone can name the
// machine substrate.
pub use charm_machine as machine;
pub use charm_machine::{MachineConfig, SimTime};
