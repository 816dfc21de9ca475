//! Message memory for the dispatch hot path: the user payload an envelope
//! carries, and the pool that serves the payloads too big to ride in it.
//!
//! A user message is a [`UserMsg`]: 24 bytes inside the envelope, a pointer
//! to a per-type table plus two words of data. A message of at most 16
//! bytes and alignment at most 8 — `u8`, a PDES `LpMsg`, a stencil
//! `BlockMsg`, a LeanMD `CellMsg` — lives in those two words, so the
//! envelope's slab slot (DESIGN §4.4) is the whole message and nothing is
//! allocated per send. A larger message (`TramMsg`, `KvMsg`,
//! `ComputeMsg`) is a `Box<T>` in the first word, allocated at the send and
//! freed at the execute through a thread-local pool of raw blocks keyed by
//! layout, so steady-state dispatch performs **zero** global-allocator
//! calls either way (verified by the counting-allocator test in
//! `tests/steady_state_alloc.rs`).
//!
//! The pool hands out and takes back memory with exactly the layout `Box`
//! itself would use, so pooled and plain boxes are fully interchangeable: a
//! pooled box dropped normally is freed correctly by the global allocator,
//! and a plain box consumed by [`take_box`] is recycled correctly into the
//! pool. That property is what lets any cold path that just drops a
//! payload (an aborted run, a discarded envelope) skip the pool without a
//! mode switch.
//!
//! Thread-local by design: each thread that runs a `Runtime` warms its own
//! pool, and no synchronization ever appears on the dispatch path.

use std::alloc::Layout;
use std::any::{Any, TypeId};
use std::cell::RefCell;
use std::marker::PhantomData;
use std::mem::{ManuallyDrop, MaybeUninit};
use std::ptr::NonNull;

/// Free blocks retained per layout class. Bounds worst-case retained memory
/// while comfortably covering the in-flight high-water mark of the bench
/// workloads (tens of thousands of payloads).
const PER_CLASS_MAX: usize = 1 << 15;

struct ClassPool {
    layout: Layout,
    free: Vec<NonNull<u8>>,
}

#[derive(Default)]
struct Pool {
    /// Layout classes, found by linear scan: real workloads use a handful
    /// of distinct (size, align) pairs (a few message types), so a scan
    /// beats hashing.
    classes: Vec<ClassPool>,
    /// Bytes handed out from the pool instead of the allocator.
    bytes_served: u64,
    /// Allocator calls avoided: pool hits on allocation plus frees absorbed
    /// into the pool.
    bypass: u64,
}

impl Pool {
    fn class(&mut self, layout: Layout) -> &mut ClassPool {
        if let Some(i) = self.classes.iter().position(|c| c.layout == layout) {
            return &mut self.classes[i];
        }
        self.classes.push(ClassPool {
            layout,
            free: Vec::new(),
        });
        self.classes.last_mut().expect("just pushed")
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        for c in &self.classes {
            for &p in &c.free {
                // SAFETY: every pointer in `free` was obtained from
                // `std::alloc::alloc` (directly or via a `Box` with this
                // exact layout) and is returned to the allocator once.
                unsafe { std::alloc::dealloc(p.as_ptr(), c.layout) };
            }
        }
    }
}

thread_local! {
    static POOL: RefCell<Pool> = RefCell::new(Pool::default());
}

/// Cumulative arena counters for the current thread.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct ArenaStats {
    /// Bytes served from the pool instead of the global allocator.
    pub(crate) bytes_served: u64,
    /// Global-allocator calls avoided (pool hits + absorbed frees).
    pub(crate) bypass: u64,
}

/// Snapshot this thread's cumulative arena counters.
pub(crate) fn stats() -> ArenaStats {
    POOL.with(|p| {
        let p = p.borrow();
        ArenaStats {
            bytes_served: p.bytes_served,
            bypass: p.bypass,
        }
    })
}

/// The data words of a [`UserMsg`]: the message itself, or its box.
type Words = MaybeUninit<[usize; 2]>;

/// What a [`UserMsg`] knows of the type it holds. One static table per
/// message type; the type check at the execute compares a constant.
struct MsgType {
    id: TypeId,
    /// Drops the message (or its box) held in the data words.
    drop: unsafe fn(*mut Words),
}

/// The table and the storage decision for `T`.
struct Described<T>(PhantomData<T>);

impl<T: Any + Send> Described<T> {
    /// Does `T` fit in the data words? Otherwise they hold a `Box<T>`.
    const INLINE: bool = std::mem::size_of::<T>() <= std::mem::size_of::<Words>()
        && std::mem::align_of::<T>() <= std::mem::align_of::<Words>();
    const TYPE: &'static MsgType = &MsgType {
        id: TypeId::of::<T>(),
        drop: drop_words::<T>,
    };
}

/// # Safety
/// `w` holds a live `T` (inline) or `Box<T>` (otherwise), dropped here once.
unsafe fn drop_words<T: Any + Send>(w: *mut Words) {
    // SAFETY: per the contract, `w` holds what `UserMsg::new::<T>` wrote.
    unsafe {
        if Described::<T>::INLINE {
            std::ptr::drop_in_place(w.cast::<T>());
        } else {
            std::ptr::drop_in_place(w.cast::<Box<T>>());
        }
    }
}

/// A user message of any `Send` type, type-erased — what `Box<dyn Any +
/// Send>` was, minus the heap block for messages of at most 16 bytes.
pub(crate) struct UserMsg {
    ty: &'static MsgType,
    data: Words,
    /// Send but not Sync, like the box it replaces.
    _send: PhantomData<Box<dyn Any + Send>>,
}

impl UserMsg {
    /// Wrap `val`: in place when it fits, else in a pooled box.
    pub(crate) fn new<T: Any + Send>(val: T) -> Self {
        let mut data = Words::uninit();
        // SAFETY: `data` is 16 bytes aligned to 8, room for `T` when
        // `INLINE` and for a `Box<T>` always; it is uninitialized, so
        // writing does not leak anything.
        unsafe {
            if Described::<T>::INLINE {
                data.as_mut_ptr().cast::<T>().write(val);
            } else {
                data.as_mut_ptr().cast::<Box<T>>().write(alloc_box(val));
            }
        }
        UserMsg {
            ty: Described::<T>::TYPE,
            data,
            _send: PhantomData,
        }
    }

    fn is<T: Any>(&self) -> bool {
        self.ty.id == TypeId::of::<T>()
    }

    /// The message by move, its box (if any) recycled into the pool; on a
    /// type mismatch, the payload back intact.
    pub(crate) fn take<T: Any + Send>(self) -> Result<T, Self> {
        if !self.is::<T>() {
            return Err(self);
        }
        let this = ManuallyDrop::new(self);
        let w = this.data.as_ptr();
        // SAFETY: the type check proves `data` holds what `new::<T>` wrote;
        // `ManuallyDrop` keeps it from being dropped after this read.
        unsafe {
            Ok(if Described::<T>::INLINE {
                w.cast::<T>().read()
            } else {
                take_box(w.cast::<Box<T>>().read())
            })
        }
    }

    /// The message in place, if it is a `T`.
    pub(crate) fn downcast_mut<T: Any + Send>(&mut self) -> Option<&mut T> {
        if !self.is::<T>() {
            return None;
        }
        let w = self.data.as_mut_ptr();
        // SAFETY: as in `take`; the borrow of `self` bounds the result.
        unsafe {
            Some(if Described::<T>::INLINE {
                &mut *w.cast::<T>()
            } else {
                &mut **w.cast::<Box<T>>()
            })
        }
    }
}

impl Drop for UserMsg {
    fn drop(&mut self) {
        // SAFETY: `data` holds the value `ty` describes, not yet dropped
        // (`take` forgets the payload it reads out).
        unsafe { (self.ty.drop)(&mut self.data) }
    }
}

/// `Box::new(val)`, but served from the thread-local pool when a block of
/// the right layout is free. The returned box is indistinguishable from a
/// plain one (identical layout), so it may be dropped normally anywhere.
fn alloc_box<T>(val: T) -> Box<T> {
    let layout = Layout::new::<T>();
    if layout.size() == 0 {
        return Box::new(val);
    }
    let recycled = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let c = p.class(layout);
        let hit = c.free.pop();
        if hit.is_some() {
            p.bytes_served += layout.size() as u64;
            p.bypass += 1;
        }
        hit
    });
    match recycled {
        Some(ptr) => {
            let ptr = ptr.as_ptr() as *mut T;
            // SAFETY: `ptr` is a live, exclusively-owned block of exactly
            // `Layout::new::<T>()`; writing moves `val` in without reading
            // the (uninitialized) destination.
            unsafe {
                std::ptr::write(ptr, val);
                Box::from_raw(ptr)
            }
        }
        None => Box::new(val),
    }
}

/// Consume a box, returning its value by move and recycling its allocation
/// into the thread-local pool (instead of calling the global allocator's
/// free). Works on any box whose block layout is `Layout::new::<T>()` —
/// i.e. every `Box<T>` regardless of where it was allocated.
fn take_box<T>(b: Box<T>) -> T {
    let layout = Layout::new::<T>();
    if layout.size() == 0 {
        return *b;
    }
    let ptr = Box::into_raw(b);
    // SAFETY: `ptr` came from `Box::into_raw`, so it is valid for reads of
    // `T` and uniquely owned; after `read` the value lives on the stack and
    // the block is plain memory we may recycle.
    let val = unsafe { std::ptr::read(ptr) };
    let keep = POOL.with(|p| {
        let mut p = p.borrow_mut();
        let c = p.class(layout);
        if c.free.len() < PER_CLASS_MAX {
            c.free.push(NonNull::new(ptr as *mut u8).expect("box pointer"));
            p.bypass += 1;
            true
        } else {
            false
        }
    });
    if !keep {
        // SAFETY: the block is unowned raw memory of `layout`, allocated by
        // the global allocator (every `Box<T>` block is).
        unsafe { std::alloc::dealloc(ptr as *mut u8, layout) };
    }
    val
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn roundtrip_recycles_blocks() {
        let before = stats();
        let b1 = alloc_box([7u64; 8]);
        let addr1 = &*b1 as *const _ as usize;
        let v = take_box(b1);
        assert_eq!(v[0], 7);
        // Next allocation of the same layout reuses the recycled block.
        let b2 = alloc_box([9u64; 8]);
        assert_eq!(&*b2 as *const _ as usize, addr1);
        assert_eq!(b2[3], 9);
        let after = stats();
        assert!(after.bypass >= before.bypass + 2, "absorbed free + pool hit");
        assert!(after.bytes_served >= before.bytes_served + 64);
        drop(b2); // pooled box dropped normally: freed by the global allocator
    }

    #[test]
    fn zero_sized_types_are_plain_boxes() {
        let b = alloc_box(());
        take_box(b);
    }

    #[test]
    fn plain_boxes_can_be_taken() {
        let b = Box::new(1234u32);
        assert_eq!(take_box(b), 1234);
    }

    #[test]
    fn distinct_layouts_get_distinct_classes() {
        let a = alloc_box(1u8);
        let b = alloc_box(1u64);
        let pa = &*a as *const u8 as usize;
        take_box(a);
        let c = alloc_box(2u64);
        // The u8 block must not satisfy the u64 request.
        assert_ne!(&*c as *const u64 as usize, pa);
        take_box(b);
        take_box(c);
    }

    #[repr(align(16))]
    struct Align16([u64; 2]);

    impl charm_pup::Pup for Align16 {
        fn pup(&mut self, p: &mut charm_pup::Puper) {
            p.p(&mut self.0);
        }
    }

    fn inline<T: Any + Send>() -> bool {
        Described::<T>::INLINE
    }

    #[test]
    fn sixteen_bytes_aligned_to_eight_ride_inline() {
        assert_eq!(std::mem::size_of::<Option<u64>>(), 16, "a 16-byte enum");
        assert!(inline::<()>() && inline::<u8>() && inline::<u64>() && inline::<Option<u64>>());
        assert!(!inline::<[u64; 3]>(), "24 bytes do not fit");
        assert!(!inline::<Align16>(), "16 bytes aligned to 16 do not fit");
        assert_eq!(std::mem::size_of::<UserMsg>(), 24);
    }

    thread_local! {
        static DROPS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
    }

    struct Counted<const N: usize>([u8; N]);

    impl<const N: usize> Drop for Counted<N> {
        fn drop(&mut self) {
            DROPS.with(|d| d.set(d.get() + 1));
        }
    }

    fn drops() -> usize {
        DROPS.with(|d| d.get())
    }

    fn dropped_once<const N: usize>() {
        let base = drops();
        // Consumed by `take`: the caller owns the one value.
        let v = UserMsg::new(Counted::<N>([3; N])).take::<Counted<N>>();
        let v = v.ok().expect("same type");
        assert_eq!((v.0[N - 1], drops()), (3, base));
        drop(v);
        assert_eq!(drops(), base + 1);
        // Dropped unconsumed, as `EnvSlab::discard` drops a payload.
        drop(UserMsg::new(Counted::<N>([0; N])));
        assert_eq!(drops(), base + 2);
        // A mismatched `take` hands the payload back intact.
        let Err(mut back) = UserMsg::new(Counted::<N>([5; N])).take::<u8>() else {
            panic!("u8 is not Counted");
        };
        assert_eq!(drops(), base + 2);
        assert_eq!(back.downcast_mut::<Counted<N>>().map(|c| c.0[0]), Some(5));
        drop(back);
        assert_eq!(drops(), base + 3);
    }

    #[test]
    fn payloads_drop_exactly_once_inline_or_boxed() {
        assert!(inline::<Counted<8>>() && !inline::<Counted<32>>());
        dropped_once::<8>();
        dropped_once::<32>();
    }

    #[test]
    fn downcast_digest_does_not_depend_on_storage() {
        let want = charm_pup::digest_of(&mut [7u64, 9]);
        let mut small = UserMsg::new([7u64, 9]);
        let mut big = UserMsg::new(Align16([7, 9]));
        assert!(small.downcast_mut::<Align16>().is_none());
        assert!(big.downcast_mut::<[u64; 2]>().is_none());
        let small = charm_pup::digest_of(small.downcast_mut::<[u64; 2]>().unwrap());
        let big = charm_pup::digest_of(big.downcast_mut::<Align16>().unwrap());
        assert_eq!((small, big), (want, want));
    }
}
