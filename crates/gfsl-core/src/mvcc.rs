//! Multiversion reads: snapshots and scans that never block on writer locks.
//!
//! The serving tier's consistency story so far ends at *instants*: a cluster
//! snapshot write-holds every shard fence for the whole export walk, so one
//! long scan stalls every writer. This module adopts the core idea of
//! *Jiffy* (PAPERS.md): version the structure so read-only snapshots and
//! large scans run against a consistent **past** version while writes
//! proceed.
//!
//! ## Protocol
//!
//! A [`MvccEngine`] owns a **version clock** behind an `RwLock<u64>` fence:
//!
//! * Every update operation (`insert`/`upsert`/`remove`) holds the fence
//!   **shared** for its duration and stamps itself with the clock value `s`
//!   it observed at entry ([`crate::skiplist::GfslHandle`]'s
//!   `with_version_stamp`).
//! * `MvccEngine::pin` takes the fence **exclusive**, mints a
//!   [`ReadTicket`] for the current version `v`, and bumps the clock. The
//!   exclusive acquisition drains every in-flight writer, so all stamp-≤`v`
//!   operations have completed before the ticket exists: version `v` is an
//!   *operation-quiescent* structure state (no mid-split, mid-merge, or
//!   mid-shift states are part of it).
//! * Before a stamped writer's **first mutation of a chunk in its stamp
//!   epoch**, the chunk's pre-image (all `N` lanes, read under the
//!   just-acquired chunk lock, exactly like the containment snapshots) is
//!   pushed onto that chunk's **version chain**, tagged `s`. A per-chunk
//!   `copy_epoch` word makes the capture once-per-epoch.
//!
//! A reader holding `ReadTicket(v)` resolves a chunk to *the chain image
//! with the smallest tag `> v`* — the state the chunk had before the first
//! post-`v` mutation, i.e. its state at `v`. If no such image exists it
//! reads the live chunk raw and **re-checks the chain**: a stamp-`> v`
//! writer pushes its pre-image *before* mutating, so a torn raw read racing
//! such a writer is always caught by the re-check, and the image wins.
//! Writers with stamp ≤ `v` finished before the ticket was minted, so the
//! only remaining concurrent mutations are the unstamped single-word
//! zombie-unlink swings of the reclamation sweeps, which never move keys
//! (see "blind spots" in DESIGN.md §19). Versioned reads therefore never
//! wait on a chunk lock: lock *holders* have already pushed their
//! pre-image, so the chain (or an untorn raw read) always answers.
//!
//! Versioned walks run along the **bottom level only**, starting from the
//! version-resolved level-0 head (the head chain records the pre-CAS head
//! on every level-0 head swing). The upper index levels are not versioned —
//! a current-index descent may land *right* of a key's `v`-enclosing chunk
//! (keys migrate rightward), and a rightward lateral walk can never get
//! back to it, so there is no sound descent accelerator; `get_at` is a
//! deliberate O(bottom-chunks) walk and the intended consumers are scans,
//! snapshots, and checkers.
//!
//! ## Retirement
//!
//! Images drop at vacuum. A vacuum pass (run under the fence, so no ticket
//! can be minted mid-pass) removes, under each chain-shard mutex, every
//! image whose tag is at most the oldest pinned version. Resolution clones
//! the image it picks under that same mutex, and no active ticket resolves
//! to an image tagged at or below its own version, so no reader holds an
//! image a vacuum drops: images need no grace period, and the epoch
//! reclaimer guards chunks only.

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

use gfsl_gpu_mem::schedule::{self, AccessKind, SYNTH_MVCC_FENCE};
use gfsl_gpu_mem::MemProbe;
use parking_lot::{Mutex, RwLock};
use std::sync::{RwLockReadGuard, RwLockWriteGuard};

use crate::chunk::{is_user_key, ChunkRead, ChunkView, KEY_INF, NIL};
use crate::range::RangeEmit;
use crate::skiplist::{Gfsl, GfslHandle};

/// Chain-map shard count (power of two). Pushes and resolves are short
/// critical sections with no pool (schedule-gated) accesses inside, so a
/// handful of shards suffices to keep writers off each other.
const CHAIN_SHARDS: usize = 16;

/// Live-image count above which a stamped writer runs an opportunistic
/// vacuum in its op epilogue (the periodic reclaim pass is the main
/// cadence; this bounds retention when captures outpace it). The sweep
/// lives on the *write* path on purpose: images only accumulate through
/// writer captures, and readers pinning a version must never pay a
/// chain sweep — that would put the retention bill back on the scan
/// tail the whole subsystem exists to flatten.
const VACUUM_HIGH_WATER: u64 = 4096;

/// One copy-on-write pre-image of a chunk, tagged with the stamp of the
/// operation whose first mutation it precedes.
#[derive(Debug)]
struct VersionImage {
    tag: u64,
    lanes: Box<[u64]>,
}

/// Counters describing the multiversion subsystem (surfaced through
/// [`Gfsl::mvcc_stats`] and the serve metrics).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MvccStats {
    /// Current version-clock value (the stamp the next writer gets).
    pub clock: u64,
    /// Read tickets currently outstanding.
    pub active_tickets: u64,
    /// Oldest pinned version (`0` when no ticket is outstanding).
    pub oldest_pinned: u64,
    /// Version pre-images currently retained on chains.
    pub images: u64,
    /// Deepest single-chunk chain ever observed (the retention test
    /// `repinning_scans_keep_version_chains_bounded` bounds it).
    pub chain_hwm: u64,
    /// Bytes currently held by chain images.
    pub copy_bytes: u64,
    /// Pre-images captured since construction.
    pub captures: u64,
    /// Images dropped by vacuum passes since construction.
    pub vacuumed: u64,
    /// Entries on the level-0 head version chain.
    pub head_entries: u64,
    /// Read tickets minted since construction.
    pub pins: u64,
    /// Chunk resolutions served from a chain image (vs raw reads).
    pub image_resolves: u64,
}

/// A pinned read version: every versioned read through this ticket observes
/// the operation-quiescent structure state at [`Self::version`]. Dropping
/// the ticket releases the pin (images its version kept alive become
/// vacuumable).
pub struct ReadTicket<'a> {
    engine: &'a MvccEngine,
    version: u64,
}

impl ReadTicket<'_> {
    /// The pinned version.
    #[inline]
    pub fn version(&self) -> u64 {
        self.version
    }
}

impl Drop for ReadTicket<'_> {
    fn drop(&mut self) {
        self.engine.release(self.version);
    }
}

impl std::fmt::Debug for ReadTicket<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("ReadTicket").field(&self.version).finish()
    }
}

/// One shard of the version chains: chunk index to its retained pre-images.
type ChainShard = HashMap<u32, Vec<VersionImage>>;

/// The multiversion engine: version clock, per-chunk version chains, head
/// chain, ticket registry, and retirement bookkeeping. One per [`Gfsl`]
/// when [`crate::GfslParams::mvcc`] is on.
pub struct MvccEngine {
    /// The version clock. Writers hold it shared (stamping with the value
    /// read at entry); `pin` holds it exclusive to mint a ticket and bump
    /// the clock, draining all in-flight writers.
    fence: RwLock<u64>,
    /// Lock-free mirror of the clock for paths that must not touch the
    /// fence (conservative tags, stats).
    clock: AtomicU64,
    chains: Box<[Mutex<ChainShard>]>,
    /// Per-chunk latest capture tag: a writer captures only when its stamp
    /// exceeds this (first mutation in its stamp epoch). Written under the
    /// chunk lock, so per-chunk updates are serialized.
    copy_epoch: Box<[AtomicU64]>,
    /// Level-0 head chain: `(tag, pre-swing head)` pushed before every
    /// level-0 head CAS.
    head0: Mutex<Vec<(u64, u32)>>,
    /// version → outstanding ticket count.
    tickets: Mutex<BTreeMap<u64, u32>>,
    /// Mirror of `tickets.len() sum`: the writer fast path (skip all
    /// capture bookkeeping when nobody is reading).
    tickets_active: AtomicU64,
    /// Mirror of the oldest pinned version (`0` = none).
    oldest: AtomicU64,
    images_live: AtomicU64,
    /// One-at-a-time guard for the opportunistic writer-epilogue vacuum:
    /// when retention is pin-bound the high water can stay exceeded for a
    /// while, and without the guard every finishing writer would sweep
    /// the chains back to back.
    vacuuming: AtomicBool,
    copy_bytes: AtomicU64,
    chain_hwm: AtomicU64,
    captures: AtomicU64,
    vacuumed: AtomicU64,
    pins: AtomicU64,
    image_resolves: AtomicU64,
}

impl MvccEngine {
    pub(crate) fn new(pool_chunks: u32) -> MvccEngine {
        MvccEngine {
            // Clock starts at 1 so stamp 0 unambiguously means "unstamped".
            fence: RwLock::new(1),
            clock: AtomicU64::new(1),
            chains: (0..CHAIN_SHARDS)
                .map(|_| Mutex::new(HashMap::new()))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            copy_epoch: (0..pool_chunks)
                .map(|_| AtomicU64::new(0))
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            head0: Mutex::new(Vec::new()),
            tickets: Mutex::new(BTreeMap::new()),
            tickets_active: AtomicU64::new(0),
            oldest: AtomicU64::new(0),
            images_live: AtomicU64::new(0),
            vacuuming: AtomicBool::new(false),
            copy_bytes: AtomicU64::new(0),
            chain_hwm: AtomicU64::new(0),
            captures: AtomicU64::new(0),
            vacuumed: AtomicU64::new(0),
            pins: AtomicU64::new(0),
            image_resolves: AtomicU64::new(0),
        }
    }

    /// Current clock value without touching the fence.
    #[inline]
    pub(crate) fn clock_now(&self) -> u64 {
        self.clock.load(Ordering::SeqCst)
    }

    /// Any read tickets outstanding? The writer fast path: when this is
    /// false, all capture bookkeeping is skipped (and it can only become
    /// true via `pin`, which drains the writer first).
    #[inline]
    pub(crate) fn has_tickets(&self) -> bool {
        self.tickets_active.load(Ordering::SeqCst) > 0
    }

    /// Acquire the fence shared (writer side). Under a scheduler hook every
    /// attempt is a yield point on [`SYNTH_MVCC_FENCE`]: the turnstile only
    /// grants turns when all live threads are parked, so blocking inside
    /// the OS lock would wedge it.
    pub(crate) fn writer_fence(&self) -> RwLockReadGuard<'_, u64> {
        if !schedule::hooked() {
            return self.fence.read();
        }
        loop {
            schedule::yield_point(AccessKind::Load, SYNTH_MVCC_FENCE);
            if let Some(g) = self.fence.try_read() {
                return g;
            }
            schedule::wait_hint(SYNTH_MVCC_FENCE);
        }
    }

    fn fence_write(&self) -> RwLockWriteGuard<'_, u64> {
        if !schedule::hooked() {
            return self.fence.write();
        }
        loop {
            schedule::yield_point(AccessKind::Rmw, SYNTH_MVCC_FENCE);
            if let Some(g) = self.fence.try_write() {
                return g;
            }
            schedule::wait_hint(SYNTH_MVCC_FENCE);
        }
    }

    /// Mint a read ticket for the current version and bump the clock. The
    /// exclusive fence acquisition drains every in-flight stamped writer,
    /// so the pinned version is operation-quiescent.
    pub(crate) fn pin(&self) -> ReadTicket<'_> {
        let mut g = self.fence_write();
        let v = *g;
        *g += 1;
        self.clock.store(*g, Ordering::SeqCst);
        {
            let mut t = self.tickets.lock();
            *t.entry(v).or_insert(0) += 1;
            self.oldest
                .store(t.keys().next().copied().unwrap_or(0), Ordering::SeqCst);
        }
        self.tickets_active.fetch_add(1, Ordering::SeqCst);
        self.pins.fetch_add(1, Ordering::Relaxed);
        drop(g);
        ReadTicket {
            engine: self,
            version: v,
        }
    }

    fn release(&self, v: u64) {
        let mut t = self.tickets.lock();
        match t.get_mut(&v) {
            Some(c) if *c > 1 => *c -= 1,
            Some(_) => {
                t.remove(&v);
            }
            None => debug_assert!(false, "releasing unknown ticket version {v}"),
        }
        self.oldest
            .store(t.keys().next().copied().unwrap_or(0), Ordering::SeqCst);
        drop(t);
        self.tickets_active.fetch_sub(1, Ordering::SeqCst);
    }

    #[inline]
    fn shard_of(&self, ch: u32) -> &Mutex<HashMap<u32, Vec<VersionImage>>> {
        &self.chains[ch as usize & (CHAIN_SHARDS - 1)]
    }

    /// Latest capture/creation tag recorded for chunk `ch`: the cheap
    /// pre-filter for versioned reads. Capture bumps this *before* pushing
    /// the image, and pushes *before* the first mutation, so `epoch <= v`
    /// proves the chain holds no image tagged `> v` and the raw chunk
    /// words are the version-`v` truth — one atomic load instead of a
    /// chain-shard mutex round trip per chunk per scan.
    #[inline]
    pub(crate) fn chunk_epoch(&self, ch: u32) -> u64 {
        self.copy_epoch[ch as usize].load(Ordering::SeqCst)
    }

    /// Does the writer stamped `stamp` owe chunk `ch` a pre-image capture?
    /// (First mutation of the chunk in this stamp epoch, with readers
    /// outstanding.)
    #[inline]
    pub(crate) fn wants_capture(&self, ch: u32, stamp: u64) -> bool {
        self.has_tickets() && self.copy_epoch[ch as usize].load(Ordering::SeqCst) < stamp
    }

    /// Push `lanes` (read under the chunk lock, before any mutation) onto
    /// `ch`'s version chain, tagged `tag`. The `copy_epoch` max keeps the
    /// capture once-per-epoch; callers hold the chunk lock, so per-chunk
    /// captures are serialized and tags are unique within a chain.
    ///
    /// No pool (schedule-gated) access happens inside the chain mutex.
    pub(crate) fn capture(&self, ch: u32, tag: u64, lanes: Vec<u64>) {
        let prev = self.copy_epoch[ch as usize].fetch_max(tag, Ordering::SeqCst);
        if prev >= tag {
            return;
        }
        let bytes = lanes.len() as u64 * 8;
        let depth;
        {
            let mut shard = self.shard_of(ch).lock();
            let chain = shard.entry(ch).or_default();
            chain.push(VersionImage {
                tag,
                lanes: lanes.into_boxed_slice(),
            });
            depth = chain.len() as u64;
        }
        self.images_live.fetch_add(1, Ordering::SeqCst);
        self.copy_bytes.fetch_add(bytes, Ordering::Relaxed);
        self.captures.fetch_add(1, Ordering::Relaxed);
        self.chain_hwm.fetch_max(depth, Ordering::Relaxed);
    }

    /// Mark chunk `ch` as (re)created at `tag` without capturing: a fresh
    /// chunk has no pre-image worth retaining (it is unreachable in any
    /// pinned version's walk), and the max keeps this epoch's later lock
    /// acquisitions from capturing its half-built state.
    #[inline]
    pub(crate) fn mark_created(&self, ch: u32, tag: u64) {
        self.copy_epoch[ch as usize].fetch_max(tag, Ordering::SeqCst);
    }

    /// The image a reader at version `v` must use for chunk `ch`: the chain
    /// entry with the smallest tag `> v`, or `None` (read the chunk raw,
    /// then re-check).
    pub(crate) fn resolve_image(&self, ch: u32, v: u64) -> Option<Vec<u64>> {
        if self.images_live.load(Ordering::SeqCst) == 0 {
            return None;
        }
        let shard = self.shard_of(ch).lock();
        let chain = shard.get(&ch)?;
        let mut best: Option<&VersionImage> = None;
        for img in chain.iter() {
            if img.tag > v && best.is_none_or(|b| img.tag < b.tag) {
                best = Some(img);
            }
        }
        let out = best.map(|i| i.lanes.to_vec());
        drop(shard);
        if out.is_some() {
            self.image_resolves.fetch_add(1, Ordering::Relaxed);
        }
        out
    }

    /// Record the level-0 head about to be swung away from, tagged with the
    /// swinging operation's stamp (or a conservative `clock + 1` for the
    /// unstamped sweep paths — head swings are logical no-ops, so serving a
    /// conservatively-old head merely walks extra zombies). Must be called
    /// *before* the head CAS so a raw head read racing the swing is always
    /// caught by the reader's chain re-check.
    pub(crate) fn note_head0(&self, old_head: u32, stamp: u64) {
        if !self.has_tickets() {
            return;
        }
        let tag = if stamp != 0 {
            stamp
        } else {
            self.clock_now() + 1
        };
        let mut h = self.head0.lock();
        if h.last() != Some(&(tag, old_head)) {
            h.push((tag, old_head));
        }
    }

    /// The level-0 head at version `v`, if the head chain records one: the
    /// entry with the smallest tag `> v` (first-pushed wins on ties — for
    /// equal tags the earlier push is the older head, and an older head is
    /// always safe: it only prepends zombies whose frozen next chain leads
    /// to the same live chunks).
    pub(crate) fn resolve_head0(&self, v: u64) -> Option<u32> {
        let h = self.head0.lock();
        let mut best: Option<(u64, u32)> = None;
        for &(tag, head) in h.iter() {
            if tag > v && best.is_none_or(|(bt, _)| tag < bt) {
                best = Some((tag, head));
            }
        }
        best.map(|(_, head)| head)
    }

    /// Is any pre-image retained? While one is, updates keep the periodic
    /// reclamation pass (and with it the vacuum) running.
    pub(crate) fn has_images(&self) -> bool {
        self.images_live.load(Ordering::Relaxed) != 0
    }

    /// Is retention past the opportunistic-vacuum threshold?
    pub(crate) fn needs_vacuum(&self) -> bool {
        self.images_live.load(Ordering::SeqCst) > VACUUM_HIGH_WATER
    }

    /// Writer-epilogue retention bound: if the high water is exceeded and
    /// no other thread is already sweeping, run one vacuum pass. Same
    /// fence precondition as [`Self::vacuum_locked`] (shared suffices).
    /// Returns whether this call swept.
    pub(crate) fn try_vacuum(&self) -> bool {
        if !self.needs_vacuum() {
            return false;
        }
        if self.vacuuming.swap(true, Ordering::Acquire) {
            return false;
        }
        self.vacuum_locked();
        self.vacuuming.store(false, Ordering::Release);
        true
    }

    /// Drop every image no active ticket can still resolve (tag ≤ oldest
    /// pinned version, or all of them when no ticket is outstanding).
    ///
    /// **Caller must hold the fence** (shared suffices): with the fence
    /// held no new ticket can be minted mid-pass, so the oldest-version
    /// floor read at entry stays valid for the whole sweep. Each image is
    /// removed under its chain-shard mutex, the one `resolve_image` clones
    /// under, so no reader holds an image this drops.
    pub(crate) fn vacuum_locked(&self) {
        let min = self.oldest.load(Ordering::SeqCst);
        let droppable = |tag: u64| min == 0 || tag <= min;
        let (mut n, mut bytes) = (0u64, 0u64);
        for shard in self.chains.iter() {
            shard.lock().retain(|_, chain| {
                chain.retain(|img| {
                    let gone = droppable(img.tag);
                    if gone {
                        n += 1;
                        bytes += img.lanes.len() as u64 * 8;
                    }
                    !gone
                });
                !chain.is_empty()
            });
        }
        self.head0.lock().retain(|&(tag, _)| !droppable(tag));
        self.images_live.fetch_sub(n, Ordering::SeqCst);
        self.copy_bytes.fetch_sub(bytes, Ordering::Relaxed);
        self.vacuumed.fetch_add(n, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub(crate) fn stats(&self) -> MvccStats {
        MvccStats {
            clock: self.clock_now(),
            active_tickets: self.tickets_active.load(Ordering::SeqCst),
            oldest_pinned: self.oldest.load(Ordering::SeqCst),
            images: self.images_live.load(Ordering::SeqCst),
            chain_hwm: self.chain_hwm.load(Ordering::Relaxed),
            copy_bytes: self.copy_bytes.load(Ordering::Relaxed),
            captures: self.captures.load(Ordering::Relaxed),
            vacuumed: self.vacuumed.load(Ordering::Relaxed),
            head_entries: self.head0.lock().len() as u64,
            pins: self.pins.load(Ordering::Relaxed),
            image_resolves: self.image_resolves.load(Ordering::Relaxed),
        }
    }
}

impl std::fmt::Debug for MvccEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MvccEngine")
            .field("stats", &self.stats())
            .finish()
    }
}

impl Gfsl {
    /// Pin the current version for reading: every versioned read through
    /// the returned ticket ([`GfslHandle::get_at`], [`GfslHandle::range_at`],
    /// [`GfslHandle::pairs_at`], …) observes the operation-quiescent state
    /// at the ticket's version, wait-free with respect to writer locks.
    /// The fence is held exclusively only for the clock bump — microseconds
    /// — never for the reads themselves.
    ///
    /// `None` when [`crate::GfslParams::mvcc`] is off.
    ///
    /// Pinning never sweeps: the high-water vacuum runs in the stamped
    /// writers' op epilogues (and the periodic reclaim pass), so a pin is
    /// one exclusive fence acquisition regardless of retention state —
    /// the snapshot tail stays flat under write-heavy load.
    pub fn pin_version(&self) -> Option<ReadTicket<'_>> {
        let mvcc = self.mvcc.as_deref()?;
        Some(mvcc.pin())
    }

    /// Multiversion counters, when [`crate::GfslParams::mvcc`] is on.
    pub fn mvcc_stats(&self) -> Option<MvccStats> {
        self.mvcc.as_deref().map(|m| m.stats())
    }
}

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// The value of `k` at the ticket's pinned version, never blocking on
    /// writer locks. An O(bottom-chunks) walk from the version-resolved
    /// head — see the module docs for why no descent accelerator is sound.
    /// It takes no lock and never waits, so no abort can arise.
    pub fn get_at(&mut self, k: u32, ticket: &ReadTicket<'_>) -> Option<u32> {
        if !is_user_key(k) {
            return None;
        }
        let mut out = None;
        self.for_each_in_range_at(k, k, ticket, |_, v| out = Some(v));
        out
    }

    /// Visit every `(key, value)` with `lo <= key <= hi` at the ticket's
    /// pinned version, in ascending key order; returns the count. The walk
    /// is wait-free with respect to writer locks (chunks mutated since the
    /// pinned version resolve to their chain pre-images): it takes no lock
    /// and never waits, so no abort can arise.
    pub fn for_each_in_range_at(
        &mut self,
        lo: u32,
        hi: u32,
        ticket: &ReadTicket<'_>,
        mut f: impl FnMut(u32, u32),
    ) -> usize {
        debug_assert!(
            self.list()
                .mvcc
                .as_deref()
                .is_some_and(|m| std::ptr::eq(m, ticket.engine)),
            "ticket from a different list"
        );
        if lo > hi {
            return 0;
        }
        let lo = lo.max(1); // 0 is the -inf sentinel
        if !is_user_key(lo) && lo != 1 {
            return 0;
        }
        self.with_pin(|h| h.range_at_pinned(lo, hi, ticket, &mut f))
    }

    /// Collect `lo..=hi` at the pinned version into a vector; never aborts.
    pub fn range_at(&mut self, lo: u32, hi: u32, ticket: &ReadTicket<'_>) -> Vec<(u32, u32)> {
        let mut out = Vec::new();
        self.for_each_in_range_at(lo, hi, ticket, |k, v| out.push((k, v)));
        out
    }

    /// Number of keys in `lo..=hi` at the pinned version; never aborts.
    pub fn count_range_at(&mut self, lo: u32, hi: u32, ticket: &ReadTicket<'_>) -> usize {
        self.for_each_in_range_at(lo, hi, ticket, |_, _| {})
    }

    /// Every `(key, value)` pair at the pinned version, sorted — the
    /// snapshot-export walk (cluster snapshots and durable checkpoints ride
    /// this instead of write-holding shard fences); never aborts.
    pub fn pairs_at(&mut self, ticket: &ReadTicket<'_>) -> Vec<(u32, u32)> {
        self.range_at(1, KEY_INF - 1, ticket)
    }

    /// Read chunk `ch` as of version `v` into `view`: chain image if one
    /// tags `> v`, else a raw read double-checked against the chain (a
    /// stamp-`> v` writer pushes its pre-image before mutating, so a torn raw
    /// read is always caught here and the image wins).
    fn read_chunk_at(&mut self, ch: u32, v: u64, view: &mut ChunkView) -> ChunkRead {
        let list = self.list();
        let mvcc = list.mvcc.as_deref().expect("versioned read without mvcc");
        // `chunk_epoch <= v` proves no chain entry tags `> v`, so both
        // resolve round trips (mutex + chain walk + lane clone) are
        // skipped for every chunk not captured since the pin — the common
        // case on a large scan, and what keeps the scan tail flat while
        // writers hammer the chain shards with captures.
        let image = |view: &mut ChunkView| {
            let lanes = (mvcc.chunk_epoch(ch) > v).then(|| mvcc.resolve_image(ch, v)).flatten()?;
            Some(view.load_image(&list.team, &lanes))
        };
        if let Some(read) = image(view) {
            return read;
        }
        let raw = self.read_chunk_into(ch, None, view);
        // Re-check: a torn raw read means some stamp-`> v` writer started
        // mutating, which means its capture (epoch bump, then image push)
        // completed first — so the epoch test cannot miss it.
        image(view).unwrap_or(raw)
    }

    /// The level-0 head at version `v` (same double-check protocol as
    /// chunks; `note_head0` runs before the CAS).
    fn head0_at(&mut self, v: u64) -> u32 {
        let list = self.list();
        let mvcc = list.mvcc.as_deref().expect("versioned read without mvcc");
        if let Some(h) = mvcc.resolve_head0(v) {
            return h;
        }
        let raw = list.head_of(0);
        mvcc.resolve_head0(v).unwrap_or(raw)
    }

    /// The bottom-level walk at the ticket's version, emitting through the live
    /// walk's [`RangeEmit`] (its merge dedup is defensive here: a quiescent
    /// version should never show a key twice).
    fn range_at_pinned(
        &mut self,
        lo: u32,
        hi: u32,
        ticket: &ReadTicket<'_>,
        f: &mut dyn FnMut(u32, u32),
    ) -> usize {
        let team = self.list().team;
        let v = ticket.version();
        let mut cur = self.head0_at(v);
        let mut emit = RangeEmit::new(lo, hi, f);
        let mut view = ChunkView::BLANK;
        loop {
            // A zombie at `v` emits nothing, but its frozen next still
            // chains rightward through the version's list.
            if let ChunkRead::Zombie { next } = self.read_chunk_at(cur, v, &mut view) {
                cur = next;
                continue;
            }
            if emit.chunk(&team, &view, ticket) {
                break;
            }
            let next = view.next(&team);
            if next == NIL {
                break;
            }
            cur = next;
        }
        emit.finish()
    }
}

#[cfg(test)]
mod tests {
    use crate::params::GfslParams;
    use crate::skiplist::Gfsl;
    use gfsl_simt::TeamSize;

    fn mvcc_list() -> Gfsl {
        Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            mvcc: true,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn pin_version_requires_knob() {
        let plain = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        })
        .unwrap();
        assert!(plain.pin_version().is_none());
        assert!(plain.mvcc_stats().is_none());
        let list = mvcc_list();
        assert!(list.pin_version().is_some());
        assert_eq!(list.mvcc_stats().unwrap().pins, 1);
    }

    #[test]
    fn snapshot_ignores_later_writes() {
        let list = mvcc_list();
        let mut h = list.handle();
        for k in 1..=100u32 {
            h.insert(k * 2, k).unwrap();
        }
        let t = list.pin_version().unwrap();
        // Mutate heavily after the pin: inserts, overwrites, removes.
        for k in 1..=100u32 {
            h.remove(k * 2);
            h.insert(k * 2 + 1, 999).unwrap();
        }
        // The ticket still sees exactly the pre-pin state.
        for k in 1..=100u32 {
            assert_eq!(h.get_at(k * 2, &t), Some(k), "key {} at v", k * 2);
            assert_eq!(h.get_at(k * 2 + 1, &t), None);
        }
        let pairs = h.pairs_at(&t);
        assert_eq!(pairs.len(), 100);
        assert!(pairs.windows(2).all(|w| w[0].0 < w[1].0));
        // Live reads see the new state.
        assert_eq!(h.get(3), Some(999));
        assert_eq!(h.get(4), None);
    }

    #[test]
    fn two_tickets_pin_distinct_versions() {
        let list = mvcc_list();
        let mut h = list.handle();
        h.insert(10, 1).unwrap();
        let t1 = list.pin_version().unwrap();
        h.try_upsert(10, 2).unwrap();
        h.insert(20, 7).unwrap();
        let t2 = list.pin_version().unwrap();
        h.remove(10);
        h.remove(20);
        assert!(t1.version() < t2.version());
        assert_eq!(h.get_at(10, &t1), Some(1));
        assert_eq!(h.get_at(20, &t1), None);
        assert_eq!(h.get_at(10, &t2), Some(2));
        assert_eq!(h.get_at(20, &t2), Some(7));
        assert_eq!(h.get(10), None);
    }

    #[test]
    fn range_at_is_frozen_under_churn() {
        let list = mvcc_list();
        let mut h = list.handle();
        for k in 1..=500u32 {
            h.insert(k * 3, k).unwrap();
        }
        let t = list.pin_version().unwrap();
        let before = h.range_at(30, 600, &t);
        // Churn hard enough to split/merge/recycle chunks.
        for round in 0..4u32 {
            for k in 1..=500u32 {
                if k % 2 == round % 2 {
                    h.remove(k * 3);
                } else {
                    h.try_upsert(k * 3, k + round).unwrap();
                }
            }
            for k in 1..=500u32 {
                h.try_upsert(k * 3, k).unwrap();
            }
        }
        let after = h.range_at(30, 600, &t);
        assert_eq!(before, after, "pinned range drifted under churn");
        assert_eq!(h.count_range_at(1, u32::MAX - 1, &t), 500);
    }

    #[test]
    fn vacuum_reclaims_after_release() {
        let list = mvcc_list();
        let mut h = list.handle();
        for k in 1..=200u32 {
            h.insert(k, k).unwrap();
        }
        {
            let t = list.pin_version().unwrap();
            for k in 1..=200u32 {
                h.try_upsert(k, k + 1).unwrap();
            }
            let s = list.mvcc_stats().unwrap();
            assert!(s.images > 0, "captures happened under a live ticket");
            assert_eq!(h.get_at(1, &t), Some(1));
        }
        // Ticket dropped: one reclaim pass vacuums the chains.
        h.reclaim_pass().unwrap();
        let s = list.mvcc_stats().unwrap();
        assert_eq!(s.active_tickets, 0);
        assert_eq!(s.images, 0, "no ticket, no retained images: {s:?}");
        assert!(s.vacuumed > 0);
    }

    #[test]
    fn writers_skip_capture_with_no_tickets() {
        let list = mvcc_list();
        let mut h = list.handle();
        for k in 1..=300u32 {
            h.insert(k, k).unwrap();
            h.try_upsert(k, k + 1).unwrap();
        }
        let s = list.mvcc_stats().unwrap();
        assert_eq!(s.captures, 0, "no reader, no copies: {s:?}");
        assert_eq!(s.copy_bytes, 0);
    }

    #[test]
    fn snapshot_survives_concurrent_write_soak() {
        let list = mvcc_list();
        {
            let mut h = list.handle();
            for k in 1..=400u32 {
                h.insert(k * 2, k).unwrap();
            }
        }
        let t = list.pin_version().unwrap();
        let want: Vec<(u32, u32)> = (1..=400u32).map(|k| (k * 2, k)).collect();
        let stop_flag = std::sync::atomic::AtomicBool::new(false);
        std::thread::scope(|s| {
            let stop = &stop_flag;
            let lr = &list;
            for seed in 0..2u32 {
                s.spawn(move || {
                    let mut h = lr.handle();
                    let mut x = seed as u64 + 1;
                    while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = ((x >> 33) as u32 % 900) + 1;
                        if x & 1 == 0 {
                            let _ = h.insert(k, k);
                        } else {
                            h.remove(k);
                        }
                    }
                });
            }
            let tref = &t;
            s.spawn(move || {
                // Stops the writers however this reader ends, so a failed
                // assert fails the test instead of hanging the scope.
                struct StopOnDrop<'a>(&'a std::sync::atomic::AtomicBool);
                impl Drop for StopOnDrop<'_> {
                    fn drop(&mut self) {
                        self.0.store(true, std::sync::atomic::Ordering::Relaxed);
                    }
                }
                let _stopper = StopOnDrop(stop);
                let mut h = lr.handle();
                for _ in 0..30 {
                    let got = h.pairs_at(tref);
                    assert_eq!(got, want, "pinned snapshot drifted under soak");
                }
            });
        });
        list.assert_valid();
    }

    /// Retention stays bounded under a write soak: a scanner that re-pins
    /// for every scan keeps each retention window short, so the deepest
    /// per-chunk chain stays O(tens) however many writes run (256 is the
    /// bound). Every pin advances the clock, and the writers run a fixed
    /// op count, so their finishing at all is the not-starved check.
    #[test]
    fn repinning_scans_keep_version_chains_bounded() {
        use std::sync::atomic::{AtomicU32, Ordering};

        const SPAN: u32 = 4_000;
        const WRITERS: u32 = 2;
        const WRITES_EACH: u32 = 20_000;
        let list = Gfsl::prefilled(
            GfslParams {
                mvcc: true,
                ..Default::default()
            },
            (1..SPAN).filter(|k| k % 2 == 0),
        )
        .unwrap();
        // Pinned before the writers start, so they write under a pin
        // however the threads are scheduled.
        let mut ticket = list.pin_version().unwrap();
        let clock0 = list.mvcc_stats().unwrap().clock;
        let finished = AtomicU32::new(0);
        std::thread::scope(|s| {
            for w in 0..WRITERS {
                let (lr, finished) = (&list, &finished);
                s.spawn(move || {
                    let mut h = lr.handle();
                    let mut x = u64::from(w) + 1;
                    for _ in 0..WRITES_EACH {
                        x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                        let k = ((x >> 33) as u32 % SPAN) + 1;
                        if x & 1 == 0 {
                            let _ = h.try_insert(k, k);
                        } else {
                            let _ = h.try_remove(k);
                        }
                    }
                    finished.fetch_add(1, Ordering::Relaxed);
                });
            }
            let mut h = list.handle();
            loop {
                assert!(h.count_range_at(1, SPAN, &ticket) > 0);
                ticket = list.pin_version().unwrap();
                if finished.load(Ordering::Relaxed) == WRITERS {
                    break;
                }
            }
        });
        drop(ticket);
        let s = list.mvcc_stats().unwrap();
        assert!(s.captures > 0, "writers ran under a pin: {s:?}");
        assert!(s.chain_hwm <= 256, "version-chain high water unbounded: {s:?}");
        assert!(s.clock > clock0, "re-pins advanced the clock: {s:?}");
        assert_eq!(finished.into_inner(), WRITERS);
        list.assert_valid();
    }

    /// Pinned scans recorded through [`Recorder::finish_scan`] pass the
    /// per-key linearizability checker against a live writer history: each
    /// scan observation behaves exactly like a `get` spanning the scan's
    /// real-time window.
    #[test]
    fn pinned_scans_are_linearizable_reads() {
        use crate::history::{check_linearizable, HistoryClock, OpAction, Recorder};

        const KEYS: u32 = 60;
        let list = mvcc_list();
        let clock = HistoryClock::new();
        let done = std::sync::atomic::AtomicBool::new(false);
        let (writes, scans) = std::thread::scope(|s| {
            let lr = &list;
            let ck = &clock;
            let done = &done;
            let writer = s.spawn(move || {
                let mut r = Recorder::new(ck);
                let mut h = lr.handle();
                let mut x = 0x9E37_79B9u64;
                for _ in 0..4_000 {
                    x = x.wrapping_mul(6364136223846793005).wrapping_add(1);
                    let k = ((x >> 33) as u32 % KEYS) + 1;
                    let t = r.invoke();
                    if x & 1 == 0 {
                        let ok = h.insert(k, k * 10).unwrap();
                        r.finish(k, OpAction::Insert { value: k * 10, ok }, t);
                    } else {
                        let ok = h.remove(k).is_some();
                        r.finish(k, OpAction::Remove { ok }, t);
                    }
                }
                done.store(true, std::sync::atomic::Ordering::Relaxed);
                r.records
            });
            let scanner = s.spawn(move || {
                let mut r = Recorder::new(ck);
                let mut h = lr.handle();
                let mut n = 0u32;
                while !done.load(std::sync::atomic::Ordering::Relaxed) || n == 0 {
                    let t = r.invoke();
                    let ticket = lr.pin_version().unwrap();
                    let pairs = h.range_at(1, KEYS, &ticket);
                    drop(ticket);
                    let by_key: std::collections::HashMap<u32, u32> =
                        pairs.into_iter().collect();
                    r.finish_scan((1..=KEYS).map(|k| (k, by_key.get(&k).copied())), t);
                    n += 1;
                }
                (r.records, n)
            });
            (writer.join().unwrap(), scanner.join().unwrap())
        });
        let (scan_records, n_scans) = scans;
        assert!(n_scans >= 1);
        let mut records = writes;
        records.extend(scan_records);
        check_linearizable(&records, &std::collections::HashMap::new()).unwrap();
    }

    /// A zombie that was still linked at the pinned version, then unlinked
    /// and recycled, resolves to its terminal image: a zombie, whose lanes
    /// still hold the key the merge removed. The pinned walk steps over it.
    #[test]
    fn a_recycled_zombie_image_emits_nothing() {
        let list = mvcc_list();
        let team = list.team;
        let mut h = list.handle();
        for k in 1..=60u32 {
            h.insert(k * 10, k).unwrap();
        }
        // Level 0 is `head, a, z, …`: `z` has a successor to merge into.
        let a = h.read_chunk(list.head_of(0)).next(&team);
        let z = h.read_chunk(a).next(&team);
        assert_ne!(h.read_chunk(z).next(&team), crate::chunk::NIL);
        let keys_of = |h: &mut crate::skiplist::GfslHandle<'_, _>, ch: u32| -> Vec<u32> {
            let view = h.read_chunk(ch);
            (0..team.dsize())
                .map(|i| view.entry(i).key())
                .filter(|&k| crate::chunk::is_user_key(k))
                .collect()
        };
        // Remove `z`'s keys from the left until a removal merges it away.
        let mut removed = None;
        for k in keys_of(&mut h, z) {
            assert!(h.remove(k).is_some());
            if h.read_chunk(z).is_zombie(&team) {
                removed = Some(k);
                break;
            }
        }
        let gone = removed.expect("the removals merged z");
        assert_eq!(h.read_chunk(a).next(&team), z, "z is still linked");
        assert!(keys_of(&mut h, z).contains(&gone), "the zombie's lanes keep {gone}");
        let t = list.pin_version().unwrap();
        let want = h.pairs_at(&t);
        assert!(want.iter().all(|&(k, _)| k != gone));
        // Split `a` (it is full): the split captures `a` with its next still
        // on `z`, then unlinks and retires `z`.
        let a_keys = keys_of(&mut h, a);
        h.insert(a_keys[0] + 1, 0).unwrap();
        assert_ne!(h.read_chunk(a).next(&team), z, "z is unlinked");
        for _ in 0..8 {
            h.reclaim_pass().unwrap();
        }
        // Grow the tail until `z` is allocated again: the reinit captures
        // its terminal zombie state for the ticket.
        for k in 10_000..10_100 {
            if !h.read_chunk(z).is_zombie(&team) {
                break;
            }
            h.insert(k, k).unwrap();
        }
        assert!(!h.read_chunk(z).is_zombie(&team), "z was recycled");
        assert_eq!(h.pairs_at(&t), want);
        assert_eq!(h.range_at(gone, gone, &t), vec![]);
    }
}
