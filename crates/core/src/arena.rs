//! Arena allocation for the dispatch hot path: user-payload boxes only.
//!
//! A user message's payload is a `Box<C::Msg>`, allocated at the send and
//! freed at the execute. This module recycles those blocks through a
//! thread-local pool of raw blocks keyed by layout, so steady-state dispatch
//! performs **zero** global-allocator calls (verified by the
//! counting-allocator test in `tests/steady_state_alloc.rs`).
//!
//! Envelopes used to be pooled here too, one heap block each. They left
//! for the runtime's envelope slab (DESIGN §4.4): a message is one 80-byte
//! slot addressed by a 4-byte handle instead of a 160-byte block behind a
//! pointer, and a slab never hands per-message blocks back to `malloc`
//! mid-run. Shrunk but still boxed, envelopes past this pool's per-class
//! cap land in glibc's fastbins, and the next large free consolidates them
//! all at once — measured as a 30 ms stall.
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
use std::cell::RefCell;
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
pub struct ArenaStats {
    /// Bytes served from the pool instead of the global allocator.
    pub bytes_served: u64,
    /// Global-allocator calls avoided (pool hits + absorbed frees).
    pub bypass: u64,
}

/// Snapshot this thread's cumulative arena counters.
pub fn stats() -> ArenaStats {
    POOL.with(|p| {
        let p = p.borrow();
        ArenaStats {
            bytes_served: p.bytes_served,
            bypass: p.bypass,
        }
    })
}

/// `Box::new(val)`, but served from the thread-local pool when a block of
/// the right layout is free. The returned box is indistinguishable from a
/// plain one (identical layout), so it may be dropped normally anywhere.
pub(crate) fn alloc_box<T>(val: T) -> Box<T> {
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
pub(crate) fn take_box<T>(b: Box<T>) -> T {
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
}
