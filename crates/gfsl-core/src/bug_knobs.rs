//! Test-only knobs that re-introduce fixed races — the model checker's
//! differential oracle.
//!
//! A schedule-exploring checker that only ever reports "no violation" is
//! indistinguishable from one that explores nothing. These knobs let the
//! model-check suite *prove its own teeth*: flip a knob to revert one of
//! the races found and fixed so far (two by PR 1's chaos soak, one while
//! sizing the index heal), to drop a step of the reclamation protocol
//! (the staging grace), to skip the check that makes the certified
//! bottom-lock upgrade safe, to publish an append split without lowering
//! the split chunk's max, to skip the zombie view's NEXT re-read or to
//! publish a new level head before writing it, run the
//! bounded-exhaustive search on a small configuration, and assert the
//! checker emits a counterexample (then flip it back and assert the pass).
//!
//! The knobs are process-global relaxed atomics read once per affected
//! operation (one relaxed load per split, two per append split, one per
//! physical remove / per verified reclamation batch / per bottom-lock
//! upgrade / per zombie chunk read / per level head allocated — noise even
//! on the hot path, and the hot paths are benchmarked with the knobs cold).
//! They are `#[doc(hidden)]`-style test plumbing kept always-compiled so
//! the release-build model-check binary can use them too; nothing outside
//! the model-check tests should ever set them, and tests that do must
//! serialize on [`knob_test_lock`] because the knobs are process-global.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard};

/// Revert the PR-1 *split raised-key placement* fix: always raise
/// `max(k, min-of-new-chunk)` at level 0, as the paper's pseudocode does,
/// even when that key's bottom chunk has already been unlocked. A
/// concurrent remove of the raised key can then run between the unlock and
/// the level-1 install, leaving a dangling index entry
/// (upper-subset-of-lower violation).
static REVERT_SPLIT_RAISED_KEY: AtomicBool = AtomicBool::new(false);

/// Revert the PR-1 *remove-shift torn-read* fix: shift the surviving
/// entries right-to-left instead of left-to-right, so each key in the
/// shifted range transiently disappears from the chunk between the write
/// that clobbers its slot and the write that restores it one slot left. A
/// concurrent lock-free `get` scheduled into that window misses a present
/// key (linearizability violation).
///
/// Reverting the shift alone is no longer observable: the PR-8 certified
/// read path brackets every `NotFound` with equal *unlocked* lock words,
/// and the shift only runs while the chunk is locked, so a certified
/// reader retries straight past the torn window. The knob therefore also
/// reverts the reader to the seed-era *uncertified* single team read —
/// the environment in which this race was live — restoring the full PR-1
/// failure mode for the oracle. (Which doubles as a model-checked
/// regression argument for certification itself: shift-revert minus the
/// reader-revert explores clean.)
/// Its reader stays a runtime oracle, not a `compile_fail` doctest: a
/// doctest sees only the public API, without the crate-private `Certified`.
static REVERT_REMOVE_SHIFT: AtomicBool = AtomicBool::new(false);

/// Replace the index heal's lock-covered key with the cheaper choice a
/// first draft made: when the walk was long at level `L >= 1`, raise the
/// level-`L` chunk's *own minimum* straight into level `L + 1`. That key
/// lives in some other bottom chunk whose lock the healing insert does not
/// hold, so a concurrent remove of it can pass level `L + 1` (nothing
/// there yet), lose the race to the heal's install, and finish below it —
/// leaving the new entry dangling (upper-subset-of-lower violation).
static HEAL_RAISES_UPPER_MIN: AtomicBool = AtomicBool::new(false);

/// Skip the reclaimer's *staging* (second) grace: a candidate that passes
/// the reachability scan goes straight to the free list. A reader that
/// pinned after the candidate's first grace began and copied a stale
/// pointer to it just before the scan is still parked on it when an insert
/// reuses the chunk, and walks on through the new incarnation's lanes.
static SKIP_STAGING_GRACE: AtomicBool = AtomicBool::new(false);

/// Break the bottom-lock upgrade: CAS the lock word from whatever it reads
/// *now* instead of from the word that certified the search's view, and keep
/// that view. A writer that held and released the chunk between the search
/// and the CAS goes unnoticed, and the update writes the chunk from a
/// snapshot that predates the writer's change — a lost update.
/// A runtime oracle, not a `compile_fail` doctest: `try_lock` legitimately
/// mints a `Held` from the current word, and a doctest sees only the public
/// API, without the crate-private `Held` and `Certified`.
static STALE_LOCK_UPGRADE: AtomicBool = AtomicBool::new(false);

/// Break the append split's publish: write the split chunk's NEXT lane with
/// its old max (`∞`, the level's last chunk) instead of lowering it to its
/// own largest key. The chunk still claims every key above it, so the
/// appended key sits in a chunk that the lateral order puts nowhere, and a
/// walk along the level stops short of it.
static APPEND_SPLIT_KEEPS_MAX: AtomicBool = AtomicBool::new(false);

/// Skip the zombie view's NEXT re-read: a zombie step follows the NEXT lane
/// as the team read loaded it, before the LOCK lane. That load can predate
/// a split of the chunk that a merge then drained, so the step skips the
/// split's new chunk and the keys it holds (the torn zombie view): a read
/// misses a present key, or an insert lands right of its chunk.
/// A runtime oracle, not a `compile_fail` doctest: a doctest sees only the
/// public API, without the crate-private `ChunkRead`, `Certified` and `Held`.
static TORN_ZOMBIE_NEXT: AtomicBool = AtomicBool::new(false);

/// Publish a new level head in the head array before writing its lanes: a
/// team that finds the level through the head in between reads whatever
/// the chunk held before — a fresh pool chunk reads as zeros, which is a
/// chunk whose `max` is `-∞` and whose next pointer is chunk 0, the bottom
/// level's head — and walks out of its level.
static EARLY_HEAD_PUBLISH: AtomicBool = AtomicBool::new(false);

/// Serializes tests that touch the process-global knobs.
static KNOB_TEST_LOCK: Mutex<()> = Mutex::new(());

/// True if the split raised-key fix is reverted.
#[inline]
pub fn revert_split_raised_key() -> bool {
    REVERT_SPLIT_RAISED_KEY.load(Ordering::Relaxed)
}

/// True if the remove-shift fix is reverted.
#[inline]
pub fn revert_remove_shift() -> bool {
    REVERT_REMOVE_SHIFT.load(Ordering::Relaxed)
}

/// True if the heal raises an upper chunk's own minimum.
#[inline]
pub fn heal_raises_upper_min() -> bool {
    HEAL_RAISES_UPPER_MIN.load(Ordering::Relaxed)
}

/// True if verified candidates skip the staging grace.
#[inline]
pub fn skip_staging_grace() -> bool {
    SKIP_STAGING_GRACE.load(Ordering::Relaxed)
}

/// True if the bottom-lock upgrade ignores the certifying word.
#[inline]
pub fn stale_lock_upgrade() -> bool {
    STALE_LOCK_UPGRADE.load(Ordering::Relaxed)
}

/// True if the append split publishes without lowering the old max.
#[inline]
pub fn append_split_keeps_max() -> bool {
    APPEND_SPLIT_KEEPS_MAX.load(Ordering::Relaxed)
}

/// True if a zombie view keeps the NEXT lane of its team read.
#[inline]
pub fn torn_zombie_next() -> bool {
    TORN_ZOMBIE_NEXT.load(Ordering::Relaxed)
}

/// True if a new level head is published before its lanes are written.
#[inline]
pub fn early_head_publish() -> bool {
    EARLY_HEAD_PUBLISH.load(Ordering::Relaxed)
}

/// Acquire the knob test lock, then set/clear the split knob. Restores on
/// drop (including panic, so one knob test's assertion failure cannot
/// poison the next test's baseline run).
pub struct KnobGuard {
    knob: &'static AtomicBool,
    _serial: MutexGuard<'static, ()>,
}

impl KnobGuard {
    fn set(knob: &'static AtomicBool) -> KnobGuard {
        let serial = KNOB_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner());
        knob.store(true, Ordering::Relaxed);
        KnobGuard {
            knob,
            _serial: serial,
        }
    }
}

impl Drop for KnobGuard {
    fn drop(&mut self) {
        self.knob.store(false, Ordering::Relaxed);
    }
}

/// Revert the split raised-key fix for the guard's lifetime.
pub fn revert_split_raised_key_guard() -> KnobGuard {
    KnobGuard::set(&REVERT_SPLIT_RAISED_KEY)
}

/// Revert the remove-shift fix for the guard's lifetime.
pub fn revert_remove_shift_guard() -> KnobGuard {
    KnobGuard::set(&REVERT_REMOVE_SHIFT)
}

/// Make the heal raise an upper chunk's own minimum for the guard's
/// lifetime.
pub fn heal_raises_upper_min_guard() -> KnobGuard {
    KnobGuard::set(&HEAL_RAISES_UPPER_MIN)
}

/// Free verified candidates without the staging grace for the guard's
/// lifetime.
pub fn skip_staging_grace_guard() -> KnobGuard {
    KnobGuard::set(&SKIP_STAGING_GRACE)
}

/// Upgrade to the bottom lock from the current word, keeping the stale
/// view, for the guard's lifetime.
pub fn stale_lock_upgrade_guard() -> KnobGuard {
    KnobGuard::set(&STALE_LOCK_UPGRADE)
}

/// Publish append splits without lowering the old chunk's max for the
/// guard's lifetime.
pub fn append_split_keeps_max_guard() -> KnobGuard {
    KnobGuard::set(&APPEND_SPLIT_KEEPS_MAX)
}

/// Let zombie steps follow the NEXT lane of the team read, without the
/// re-read, for the guard's lifetime.
pub fn torn_zombie_next_guard() -> KnobGuard {
    KnobGuard::set(&TORN_ZOMBIE_NEXT)
}

/// Publish new level heads before writing them for the guard's lifetime.
pub fn early_head_publish_guard() -> KnobGuard {
    KnobGuard::set(&EARLY_HEAD_PUBLISH)
}

/// Serialize a knob-adjacent test without setting any knob (for baseline
/// runs that must not race a knob-holding test in the same process).
pub fn knob_test_lock() -> MutexGuard<'static, ()> {
    KNOB_TEST_LOCK.lock().unwrap_or_else(|p| p.into_inner())
}
