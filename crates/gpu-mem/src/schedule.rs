//! Scheduled-atomic instrumentation: the model checker's view of memory.
//!
//! Fault injection gates *logical* accesses through [`MemProbe`](crate::MemProbe) — one
//! probe event per warp read, per lane write, per lock CAS. That is the
//! right granularity for a soak, but a schedule-*exploring* checker needs
//! to interleave at the granularity the hardware does: every individual
//! atomic word access. Both are participants of one controller
//! (`gfsl::mc::controller`); this module provides the word-level layer
//! and the thread-local hook both use:
//!
//! * [`ScheduledAtomicU64`] — a `#[repr(transparent)]` wrapper over
//!   `AtomicU64` whose operations take the word's *logical* pool address.
//!   In normal builds every method is a zero-cost passthrough. With the
//!   `sched` cargo feature each load/store/CAS/fetch-op first consults a
//!   thread-local [`SchedHook`], turning the access into a numbered yield
//!   point that reports its [`AccessKind`] and address to a controller.
//! * [`SchedHook`] — the controller-side trait. A hook decides *when* the
//!   calling thread proceeds (typically by parking it in a turnstile until
//!   granted a turn) and records the access for trace hashing and
//!   partial-order reduction. A probe-granularity participant registers a
//!   hook that lets every word through and forwards only its wait hints.
//! * [`register`] / [`yield_point`] / [`wait_hint`] / [`hooked`] — the
//!   thread-local registry. Registration returns a guard so a panicking
//!   worker (an injected crash!) unregisters on unwind instead of leaving a
//!   dangling hook in a pooled thread.
//!
//! Addresses are logical [`WordAddr`] indexes, never host pointers: pointer
//! identity varies run-to-run under ASLR and would break the bit-identical
//! trace hashes the replay machinery depends on. Structures that do not
//! live in the word pool (e.g. the mvcc version fence, an `RwLock`)
//! participate by minting stable synthetic addresses in a reserved high
//! range.
//!
//! Why the hook is consulted through TLS rather than a field: the pool is
//! shared by every handle, but only *scheduled* threads should be gated —
//! the validation walk at quiescence and the test's own setup code must run
//! untouched. TLS gives exactly per-thread opt-in with no hot-path cost
//! when the feature is off (the check is not even compiled).

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use crate::layout::WordAddr;

/// True when this crate was built with the `sched` feature, i.e. when the
/// pool's word accesses are numbered yield points. Binaries that offer
/// model-check modes (e.g. `stress --modelcheck`) check this at startup so
/// a build without the feature fails fast with a rebuild hint instead of
/// panicking deep in episode-sanity guards.
pub const POOL_GATED: bool = cfg!(feature = "sched");

/// Synthetic address of the pool's bump allocator (`WordPool::next`).
///
/// The allocator counter is not itself a pool word, but concurrent `alloc`
/// calls are real lock-free interleavings worth exploring, so each CAS
/// attempt gates on this reserved address. The reserved range sits at the
/// very top of the 32-bit space, which no real pool can reach (capacity is
/// checked `< u32::MAX` and practical pools are orders of magnitude
/// smaller).
pub const SYNTH_ALLOC: WordAddr = 0xFFFF_FFFD;

/// Synthetic address of the mvcc version-clock fence (`RwLock<u64>`).
/// Writers take it shared to stamp their publish version; `pin_version`
/// takes it exclusive to mint a read ticket, draining in-flight writers so
/// the pinned version is operation-quiescent. Both sides gate every
/// acquisition attempt on this address so the model checker owns the
/// interleaving of stamp vs pin.
pub const SYNTH_MVCC_FENCE: WordAddr = 0xFFFF_FFFC;

/// What kind of memory access a yield point guards.
///
/// The partial-order-reduction rule keys on this: two accesses are
/// *independent* (their order cannot matter) iff they touch different
/// addresses or are both plain loads. Stores and read-modify-writes
/// conflict with everything else at the same address.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AccessKind {
    /// An atomic load.
    Load,
    /// An atomic store.
    Store,
    /// An atomic read-modify-write (CAS, fetch-add, swap, ...).
    Rmw,
}

impl AccessKind {
    /// True if two accesses of these kinds to the *same* address commute.
    #[inline]
    pub fn independent_with(self, other: AccessKind) -> bool {
        self == AccessKind::Load && other == AccessKind::Load
    }

    /// Stable event code for trace hashing.
    #[inline]
    pub fn code(self) -> u16 {
        match self {
            AccessKind::Load => 32,
            AccessKind::Store => 33,
            AccessKind::Rmw => 34,
        }
    }
}

/// Controller-side interface for scheduled threads.
///
/// `yield_point` blocks until the controller grants the calling thread the
/// right to perform the access it describes. `wait_hint` is advisory: the
/// calling thread is spinning on `addr` (a lock word held by a peer) and
/// scheduling it again before that word changes is pointless — exploration
/// strategies use this to avoid enumerating futile spin permutations, and
/// the liveness watchdog uses it to distinguish a livelocked schedule from
/// a genuinely stuck one.
pub trait SchedHook: Send + Sync {
    /// Block until this thread may perform the described access.
    fn yield_point(&self, kind: AccessKind, addr: WordAddr);
    /// Advise the controller this thread is spinning on `addr`.
    fn wait_hint(&self, addr: WordAddr);
}

thread_local! {
    static HOOK: RefCell<Option<Arc<dyn SchedHook>>> = const { RefCell::new(None) };
}

/// Unregisters the thread's hook on drop (including panic unwind).
///
/// Must not be mem::forgotten across thread reuse: a pooled thread with a
/// stale hook would gate unrelated work through a finished controller.
#[must_use = "dropping the guard immediately would unregister the hook"]
pub struct HookGuard {
    _private: (),
}

impl Drop for HookGuard {
    fn drop(&mut self) {
        HOOK.with(|h| *h.borrow_mut() = None);
    }
}

/// Register `hook` as the calling thread's scheduler for the lifetime of
/// the returned guard. Nested registration is a bug (the outer hook would
/// be silently dropped), so it panics.
pub fn register(hook: Arc<dyn SchedHook>) -> HookGuard {
    HOOK.with(|h| {
        let mut slot = h.borrow_mut();
        assert!(
            slot.is_none(),
            "schedule::register: thread already has a hook registered"
        );
        *slot = Some(hook);
    });
    HookGuard { _private: () }
}

/// True if the calling thread currently has a hook registered.
#[inline]
pub fn hooked() -> bool {
    HOOK.with(|h| h.borrow().is_some())
}

/// Report a yield point to the calling thread's hook, if any.
///
/// Always compiled (callers outside the pool — spin loops, the flat
/// engine's lock acquisitions — gate through this directly); without a
/// registered hook it is a branch on a TLS option.
#[inline]
pub fn yield_point(kind: AccessKind, addr: WordAddr) {
    if let Some(hook) = HOOK.with(|h| h.borrow().clone()) {
        hook.yield_point(kind, addr);
    }
}

/// Report a spin-wait on `addr` to the calling thread's hook, if any.
#[inline]
pub fn wait_hint(addr: WordAddr) {
    if let Some(hook) = HOOK.with(|h| h.borrow().clone()) {
        hook.wait_hint(addr);
    }
}

/// An `AtomicU64` whose operations are numbered yield points in `sched`
/// builds and zero-cost passthroughs otherwise.
///
/// Operations take the word's logical address explicitly: the wrapper holds
/// nothing but the `AtomicU64` (a pool of these costs what a pool of plain
/// atomics costs), so the word cannot carry its own address.
#[derive(Debug, Default)]
pub struct ScheduledAtomicU64 {
    inner: AtomicU64,
}

impl ScheduledAtomicU64 {
    /// A new word holding `v`.
    #[inline]
    pub const fn new(v: u64) -> ScheduledAtomicU64 {
        ScheduledAtomicU64 {
            inner: AtomicU64::new(v),
        }
    }

    #[cfg(feature = "sched")]
    #[inline]
    fn gate(kind: AccessKind, addr: WordAddr) {
        yield_point(kind, addr);
    }

    #[cfg(not(feature = "sched"))]
    #[inline(always)]
    fn gate(_kind: AccessKind, _addr: WordAddr) {}

    /// Atomic load of the word at logical address `addr`.
    #[inline]
    pub fn load(&self, addr: WordAddr, order: Ordering) -> u64 {
        Self::gate(AccessKind::Load, addr);
        self.inner.load(order)
    }

    /// Atomic store to the word at logical address `addr`.
    #[inline]
    pub fn store(&self, addr: WordAddr, value: u64, order: Ordering) {
        Self::gate(AccessKind::Store, addr);
        self.inner.store(value, order);
    }

    /// Atomic compare-exchange on the word at logical address `addr`.
    #[inline]
    pub fn compare_exchange(
        &self,
        addr: WordAddr,
        expected: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        Self::gate(AccessKind::Rmw, addr);
        self.inner.compare_exchange(expected, new, success, failure)
    }

    /// Atomic weak compare-exchange on the word at logical address `addr`.
    #[inline]
    pub fn compare_exchange_weak(
        &self,
        addr: WordAddr,
        expected: u64,
        new: u64,
        success: Ordering,
        failure: Ordering,
    ) -> Result<u64, u64> {
        Self::gate(AccessKind::Rmw, addr);
        self.inner
            .compare_exchange_weak(expected, new, success, failure)
    }

    /// Atomic fetch-add on the word at logical address `addr`.
    #[inline]
    pub fn fetch_add(&self, addr: WordAddr, value: u64, order: Ordering) -> u64 {
        Self::gate(AccessKind::Rmw, addr);
        self.inner.fetch_add(value, order)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    struct RecordingHook {
        events: Mutex<Vec<(AccessKind, WordAddr)>>,
        waits: Mutex<Vec<WordAddr>>,
    }

    impl SchedHook for RecordingHook {
        fn yield_point(&self, kind: AccessKind, addr: WordAddr) {
            self.events.lock().unwrap().push((kind, addr));
        }
        fn wait_hint(&self, addr: WordAddr) {
            self.waits.lock().unwrap().push(addr);
        }
    }

    #[test]
    fn unhooked_thread_is_passthrough() {
        assert!(!hooked());
        let w = ScheduledAtomicU64::new(5);
        assert_eq!(w.load(3, Ordering::Acquire), 5);
        w.store(3, 9, Ordering::Release);
        assert_eq!(
            w.compare_exchange(3, 9, 12, Ordering::AcqRel, Ordering::Acquire),
            Ok(9)
        );
        yield_point(AccessKind::Load, 0); // no hook: must not panic
        wait_hint(0);
    }

    #[test]
    fn guard_unregisters_on_drop_and_unwind() {
        let hook = Arc::new(RecordingHook {
            events: Mutex::new(Vec::new()),
            waits: Mutex::new(Vec::new()),
        });
        {
            let _g = register(hook.clone());
            assert!(hooked());
        }
        assert!(!hooked());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g = register(hook.clone());
            panic!("boom");
        }));
        assert!(res.is_err());
        assert!(!hooked(), "unwind must unregister the hook");
    }

    #[test]
    fn nested_registration_panics() {
        let hook = Arc::new(RecordingHook {
            events: Mutex::new(Vec::new()),
            waits: Mutex::new(Vec::new()),
        });
        let _g = register(hook.clone());
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _g2 = register(hook.clone());
        }));
        assert!(res.is_err());
    }

    #[cfg(feature = "sched")]
    #[test]
    fn sched_builds_report_kind_and_address() {
        let hook = Arc::new(RecordingHook {
            events: Mutex::new(Vec::new()),
            waits: Mutex::new(Vec::new()),
        });
        let _g = register(hook.clone());
        let w = ScheduledAtomicU64::new(1);
        w.load(10, Ordering::Acquire);
        w.store(11, 2, Ordering::Release);
        let _ = w.compare_exchange(12, 2, 3, Ordering::AcqRel, Ordering::Acquire);
        let _ = w.fetch_add(13, 1, Ordering::AcqRel);
        wait_hint(44);
        drop(_g);
        assert_eq!(
            *hook.events.lock().unwrap(),
            vec![
                (AccessKind::Load, 10),
                (AccessKind::Store, 11),
                (AccessKind::Rmw, 12),
                (AccessKind::Rmw, 13),
            ]
        );
        assert_eq!(*hook.waits.lock().unwrap(), vec![44]);
    }

    #[test]
    fn independence_rule() {
        assert!(AccessKind::Load.independent_with(AccessKind::Load));
        assert!(!AccessKind::Load.independent_with(AccessKind::Store));
        assert!(!AccessKind::Rmw.independent_with(AccessKind::Rmw));
        assert!(!AccessKind::Store.independent_with(AccessKind::Load));
    }
}
