//! The chare abstraction: migratable message-driven objects.

use crate::index::Ix;
use crate::Ctx;
use charm_pup::{Pup, Puper};

/// A migratable, message-driven object (paper §II-D).
///
/// A chare's entire behaviour is reacting to messages ([`Chare::on_message`])
/// and to runtime events ([`Chare::on_event`]); its entire state is what
/// [`Pup::pup`] traverses, which is what makes it migratable, checkpointable,
/// and recoverable. `Default` plays the role of Charm++'s migration
/// constructor: the runtime default-constructs and then unpacks.
///
/// `Send` (on the chare and its message type) lets a host program build a
/// runtime on one thread and run it on another; chare state is plain data
/// (it must be, to be `Pup`), so the bound is structural rather than
/// restrictive.
pub trait Chare: Pup + Default + Send + 'static {
    /// The message type this chare's entry method accepts.
    type Msg: Pup + Send + 'static;

    /// The asynchronous entry method: invoked by the scheduler when a
    /// message for this chare is picked from the PE's queue.
    fn on_message(&mut self, msg: Self::Msg, ctx: &mut Ctx<'_>);

    /// Runtime-originated events (reduction results, load-balancing resume,
    /// migration notification, restart after failure…). Default: ignore.
    fn on_event(&mut self, event: SysEvent, ctx: &mut Ctx<'_>) {
        let _ = (event, ctx);
    }

    /// Optional load hint used by model-based balancers before any
    /// measurement exists. Measured load always takes precedence.
    fn load_hint(&self) -> f64 {
        1.0
    }
}

/// Events delivered by the runtime itself rather than by another chare.
#[derive(Debug, Clone)]
pub enum SysEvent {
    /// A reduction this chare is the target of has completed.
    Reduction {
        /// The tag passed to `contribute`.
        tag: u32,
        /// The combined value.
        value: RedValue,
    },
    /// All chares reached `at_sync`, the balancer ran, migrations are done —
    /// continue (Charm++'s `ResumeFromSync`).
    ResumeFromSync,
    /// This chare has just been unpacked on a new PE after migration.
    Migrated {
        /// PE the chare departed from.
        from_pe: usize,
    },
    /// Quiescence was detected after this chare requested detection.
    QuiescenceDetected,
    /// A checkpoint this chare participated in has completed.
    CheckpointDone,
    /// The system rolled back to the last in-memory checkpoint after a
    /// failure; chare state has been restored. Re-drive the application.
    Restarted {
        /// PE that failed and was replaced.
        failed_pe: usize,
    },
    /// Delivered on a fresh insertion (dynamic array growth) so the new
    /// element can initialize its communication.
    Inserted,
}

impl SysEvent {
    /// Stable variant name — the entry-method label tracing uses to
    /// distinguish `on_event` invocations in profiles and timelines.
    pub(crate) fn kind_name(&self) -> &'static str {
        match self {
            SysEvent::Reduction { .. } => "Reduction",
            SysEvent::ResumeFromSync => "ResumeFromSync",
            SysEvent::Migrated { .. } => "Migrated",
            SysEvent::QuiescenceDetected => "QuiescenceDetected",
            SysEvent::CheckpointDone => "CheckpointDone",
            SysEvent::Restarted { .. } => "Restarted",
            SysEvent::Inserted => "Inserted",
        }
    }
}

/// Value carried through a reduction.
#[derive(Debug, Clone, PartialEq)]
pub enum RedValue {
    /// A single floating-point number.
    F64(f64),
    /// A single integer.
    I64(i64),
    /// An element-wise combined vector of floats.
    VecF64(Vec<f64>),
    /// An element-wise combined vector of integers.
    VecI64(Vec<i64>),
    /// Concatenated opaque bytes (only valid with [`RedOp::Concat`]).
    Bytes(Vec<u8>),
}

impl RedValue {
    /// Extract an `F64`, panicking with context otherwise.
    pub fn as_f64(&self) -> f64 {
        match self {
            RedValue::F64(v) => *v,
            other => panic!("reduction value is {other:?}, expected F64"),
        }
    }

    /// Extract an `I64`, panicking with context otherwise.
    pub fn as_i64(&self) -> i64 {
        match self {
            RedValue::I64(v) => *v,
            other => panic!("reduction value is {other:?}, expected I64"),
        }
    }

    /// Extract a `VecF64`, panicking with context otherwise.
    pub fn as_vec_f64(&self) -> &[f64] {
        match self {
            RedValue::VecF64(v) => v,
            other => panic!("reduction value is {other:?}, expected VecF64"),
        }
    }

    /// Extract a `VecI64`, panicking with context otherwise.
    pub fn as_vec_i64(&self) -> &[i64] {
        match self {
            RedValue::VecI64(v) => v,
            other => panic!("reduction value is {other:?}, expected VecI64"),
        }
    }

    /// Approximate wire size in bytes, for network cost accounting.
    pub(crate) fn wire_size(&self) -> usize {
        match self {
            RedValue::F64(_) | RedValue::I64(_) => 8,
            RedValue::VecF64(v) => 8 + v.len() * 8,
            RedValue::VecI64(v) => 8 + v.len() * 8,
            RedValue::Bytes(b) => 8 + b.len(),
        }
    }
}

/// The unpacking placeholder; the kind byte in the stream overwrites it.
impl Default for RedValue {
    fn default() -> Self {
        RedValue::F64(0.0)
    }
}

/// A kind byte, then the value: a result held across a migration or a
/// checkpoint comes back as the same kind.
impl Pup for RedValue {
    fn pup(&mut self, p: &mut Puper) {
        let mut kind: u8 = match self {
            RedValue::F64(_) => 0,
            RedValue::I64(_) => 1,
            RedValue::VecF64(_) => 2,
            RedValue::VecI64(_) => 3,
            RedValue::Bytes(_) => 4,
        };
        p.p(&mut kind);
        if p.is_unpacking() {
            *self = match kind {
                0 => RedValue::F64(0.0),
                1 => RedValue::I64(0),
                2 => RedValue::VecF64(Vec::new()),
                3 => RedValue::VecI64(Vec::new()),
                4 => RedValue::Bytes(Vec::new()),
                x => panic!("invalid RedValue kind {x}"),
            };
        }
        match self {
            RedValue::F64(v) => p.p(v),
            RedValue::I64(v) => p.p(v),
            RedValue::VecF64(v) => p.p(v),
            RedValue::VecI64(v) => p.p(v),
            RedValue::Bytes(b) => p.raw(b),
        }
    }
}

/// How two reduction contributions combine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RedOp {
    /// Element-wise sum.
    Sum,
    /// Element-wise minimum.
    Min,
    /// Element-wise maximum.
    Max,
    /// Byte concatenation (gather); contribution order is the runtime's
    /// deterministic combine order, not index order.
    Concat,
}

impl RedOp {
    /// Combine `b` into `a`.
    ///
    /// # Panics
    /// Panics when the two values' shapes are incompatible (mixing scalar
    /// and vector contributions in one reduction is a program error).
    pub(crate) fn combine(self, a: RedValue, b: &RedValue) -> RedValue {
        use RedValue::*;
        match (self, a, b) {
            (RedOp::Sum, F64(x), F64(y)) => F64(x + y),
            (RedOp::Min, F64(x), F64(y)) => F64(x.min(*y)),
            (RedOp::Max, F64(x), F64(y)) => F64(x.max(*y)),
            (RedOp::Sum, I64(x), I64(y)) => I64(x + y),
            (RedOp::Min, I64(x), I64(y)) => I64(x.min(*y)),
            (RedOp::Max, I64(x), I64(y)) => I64(x.max(*y)),
            (op, VecF64(mut x), VecF64(y)) => {
                assert_eq!(x.len(), y.len(), "vector reduction length mismatch");
                for (xi, yi) in x.iter_mut().zip(y) {
                    *xi = match op {
                        RedOp::Sum => *xi + yi,
                        RedOp::Min => xi.min(*yi),
                        RedOp::Max => xi.max(*yi),
                        RedOp::Concat => panic!("Concat is not element-wise"),
                    };
                }
                VecF64(x)
            }
            (op, VecI64(mut x), VecI64(y)) => {
                assert_eq!(x.len(), y.len(), "vector reduction length mismatch");
                for (xi, yi) in x.iter_mut().zip(y) {
                    *xi = match op {
                        RedOp::Sum => *xi + yi,
                        RedOp::Min => (*xi).min(*yi),
                        RedOp::Max => (*xi).max(*yi),
                        RedOp::Concat => panic!("Concat is not element-wise"),
                    };
                }
                VecI64(x)
            }
            (RedOp::Concat, Bytes(mut x), Bytes(y)) => {
                x.extend_from_slice(y);
                Bytes(x)
            }
            (op, a, b) => panic!("incompatible reduction: {op:?} over {a:?} and {b:?}"),
        }
    }
}

/// Where a reduction result (or other runtime notification) is delivered.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Callback {
    /// Deliver as a [`SysEvent`] to one chare.
    ToChare {
        /// Target array.
        array: crate::array::ArrayId,
        /// Target element.
        ix: Ix,
    },
    /// Deliver as a [`SysEvent`] to every element of an array.
    BroadcastTo {
        /// Target array.
        array: crate::array::ArrayId,
    },
    /// Discard the result.
    Ignore,
}

impl Pup for SysEvent {
    fn pup(&mut self, _p: &mut Puper) {
        // SysEvents are runtime-internal and never serialized; they are
        // regenerated after restarts rather than persisted.
        unreachable!("SysEvent is not serializable");
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_reductions() {
        use RedValue::*;
        assert_eq!(RedOp::Sum.combine(F64(1.5), &F64(2.0)), F64(3.5));
        assert_eq!(RedOp::Min.combine(F64(1.5), &F64(2.0)), F64(1.5));
        assert_eq!(RedOp::Max.combine(I64(1), &I64(2)), I64(2));
        assert_eq!(RedOp::Sum.combine(I64(-1), &I64(2)), I64(1));
    }

    #[test]
    fn vector_reductions() {
        use RedValue::*;
        let r = RedOp::Sum.combine(VecF64(vec![1.0, 2.0]), &VecF64(vec![10.0, 20.0]));
        assert_eq!(r, VecF64(vec![11.0, 22.0]));
        let r = RedOp::Min.combine(VecI64(vec![5, -3]), &VecI64(vec![2, 0]));
        assert_eq!(r, VecI64(vec![2, -3]));
    }

    #[test]
    fn concat_gathers_bytes() {
        use RedValue::*;
        let r = RedOp::Concat.combine(Bytes(vec![1, 2]), &Bytes(vec![3]));
        assert_eq!(r, Bytes(vec![1, 2, 3]));
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_vectors_panic() {
        RedOp::Sum.combine(RedValue::VecF64(vec![1.0]), &RedValue::VecF64(vec![1.0, 2.0]));
    }

    #[test]
    #[should_panic(expected = "incompatible")]
    fn mixed_shapes_panic() {
        RedOp::Sum.combine(RedValue::F64(1.0), &RedValue::I64(1));
    }

    #[test]
    fn wire_sizes() {
        assert_eq!(RedValue::F64(0.0).wire_size(), 8);
        assert_eq!(RedValue::VecF64(vec![0.0; 4]).wire_size(), 40);
        assert_eq!(RedValue::Bytes(vec![0; 3]).wire_size(), 11);
    }

    #[test]
    fn accessors() {
        assert_eq!(RedValue::F64(2.5).as_f64(), 2.5);
        assert_eq!(RedValue::I64(-2).as_i64(), -2);
        assert_eq!(RedValue::VecF64(vec![1.0]).as_vec_f64(), &[1.0]);
        assert_eq!(RedValue::VecI64(vec![3]).as_vec_i64(), &[3]);
    }
}
