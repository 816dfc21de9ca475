//! Interoperation with host (MPI-style) programs (§III-G).
//!
//! A charm-rs module can be invoked from an ordinary control-flow program
//! the way `CharmLibInit` exposes Charm++ modules to MPI codes: the host
//! retains control, calls into the runtime, the runtime drives its event
//! loop until the module signals completion (a chare calls `exit` or the
//! system quiesces), and control returns to the host with the results.

use crate::runtime::Runtime;

/// Handle the host program keeps while a charm module is loaded —
/// the `CharmLibInit`/`CharmLibExit` bracket.
pub struct CharmLib {
    rt: Runtime,
}

impl CharmLib {
    /// Initialize the library runtime (CharmLibInit).
    pub fn init(rt: Runtime) -> Self {
        CharmLib { rt }
    }

    /// Mutable access to the runtime between invocations (to create arrays,
    /// insert chares, send kick-off messages).
    pub fn runtime(&mut self) -> &mut Runtime {
        &mut self.rt
    }

    /// Tear down and recover the runtime (CharmLibExit).
    pub fn exit(self) -> Runtime {
        self.rt
    }
}

impl Runtime {
    /// Reset the exit flag so the runtime can be re-entered by a later
    /// library invocation.
    pub fn clear_exit(&mut self) {
        self.exit_requested = false;
    }
}
