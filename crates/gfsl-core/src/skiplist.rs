//! The GFSL structure and per-thread operation handles.

use std::sync::atomic::{AtomicBool, AtomicU32, AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use gfsl_gpu_mem::{
    EpochReclaimer, MemProbe, NoProbe, PoolExhausted, ReclaimStats, SlotId, WordPool, WordSpan,
};
use gfsl_simt::Team;

use crate::chunk::{
    ops, Certified, ChunkRead, ChunkRef, ChunkView, Entry, Held, Release, KEY_NEG_INF, LOCK_UNLOCKED, NIL,
};
use crate::params::GfslParams;
use crate::search::LateralResult;
use gfsl_rng::SplitMix64;
use crate::stats::OpStats;

/// Errors surfaced by updating operations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Error {
    /// The preallocated device pool ran out of chunks.
    PoolExhausted(PoolExhausted),
    /// The key collides with a reserved sentinel (`0` is `-∞`,
    /// `u32::MAX` is `∞`).
    InvalidKey(u32),
    /// An operation run through a `try_*` entry point aborted instead of
    /// completing (see [`GfslHandle::try_insert`]); a plain entry point
    /// unwinds with the same [`OpAbort`] as its panic payload.
    Aborted(OpAbort),
    /// [`MAX_RECLAIM_HANDLES`] handles are already live on this structure
    /// (each holds a reclamation epoch slot); drop one and try again.
    TooManyHandles,
}

impl std::fmt::Display for Error {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Error::PoolExhausted(e) => write!(f, "{e}"),
            Error::InvalidKey(k) => write!(f, "key {k} is reserved (0 = -inf, u32::MAX = inf)"),
            Error::Aborted(a) => write!(f, "{a}"),
            Error::TooManyHandles => write!(
                f,
                "more than {MAX_RECLAIM_HANDLES} concurrently-live handles with reclamation enabled"
            ),
        }
    }
}

impl std::error::Error for Error {}

/// Why an operation aborted, and where. Returned inside [`Error::Aborted`]
/// by the `try_*` entry points; the payload a plain entry point unwinds
/// with when it gives up a wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OpAbort {
    /// What cut the operation short.
    pub reason: AbortReason,
    /// The chunk the abort centers on: the chunk being waited on for a
    /// clean abort, or the first quarantined chunk for a crash.
    pub chunk: u32,
}

impl std::fmt::Display for OpAbort {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "operation aborted ({:?}) at chunk {}", self.reason, self.chunk)
    }
}

/// The cause carried by an [`OpAbort`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// The operation itself panicked mid-protocol (e.g. a chaos-injected
    /// crash); its held chunks moved to the quarantine set. Unless the
    /// journal had already recorded the commit point, the op's outcome is
    /// *unknown* until repair runs.
    Crashed,
    /// The operation was about to wait on a quarantined chunk; it released
    /// everything it held (all individually consistent) and had **no
    /// effect** on the structure.
    Quarantined,
    /// One wait ran through [`CONTAINED_RETRY_BUDGET`] retries. Released
    /// like `Quarantined`: no effect on the structure.
    RetryBudget,
}

/// Cumulative recovery counters (see [`Gfsl::repair_stats`]). All counts
/// are totals since construction; `quarantine_depth` is the current value.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RepairStats {
    /// Operations that aborted (any [`AbortReason`]), through any entry
    /// point.
    pub aborts: u64,
    /// Operations that crashed (panicked) mid-protocol: every crashed
    /// `try_*` call, and every plain one that died holding a lock.
    pub crashed_ops: u64,
    /// Chunks ever moved into the quarantine set.
    pub chunks_quarantined: u64,
    /// Chunks currently quarantined.
    pub quarantine_depth: usize,
    /// Quarantined chunks repaired by rolling the interrupted op forward.
    pub repaired_forward: u64,
    /// Quarantined chunks repaired by rolling the interrupted op back:
    /// never-published split halves, retired.
    pub repaired_back: u64,
    /// Quarantined chunks whose image was already consistent (clean
    /// unlock, no rewrite needed).
    pub unpoisoned_clean: u64,
    /// Down-pointer repairs queued and applied by `repair_quarantine`.
    pub downptr_repairs: u64,
    /// Live chunks re-validated by the background scrubber.
    pub scrubbed_chunks: u64,
    /// Invariant violations the scrubber observed on settled chunks.
    pub scrub_violations: u64,
}

impl RepairStats {
    /// Quarantined chunks repaired by any route: rolled forward, rolled
    /// back, or released clean.
    pub fn repaired(&self) -> u64 {
        self.repaired_forward + self.repaired_back + self.unpoisoned_clean
    }
}

/// Atomic backing store for [`RepairStats`].
#[derive(Default)]
pub(crate) struct RecoveryCounters {
    pub(crate) aborts: AtomicU64,
    pub(crate) crashed_ops: AtomicU64,
    pub(crate) chunks_quarantined: AtomicU64,
    pub(crate) repaired_forward: AtomicU64,
    pub(crate) repaired_back: AtomicU64,
    pub(crate) unpoisoned_clean: AtomicU64,
    pub(crate) downptr_repairs: AtomicU64,
    pub(crate) scrubbed_chunks: AtomicU64,
    pub(crate) scrub_violations: AtomicU64,
}

/// A chunk parked in the quarantine set: still lock-held by a crashed op,
/// waiting for [`GfslHandle::repair_quarantine`] to roll it forward or back.
pub(crate) struct QuarantinedChunk {
    /// The chunk's lock, handed over by the crashed op.
    pub(crate) held: Held,
    /// The crashed op's journal stub at crash time, shared by every chunk
    /// it held.
    pub(crate) intent: Intent,
}

/// Journal stub describing the structural mutation an op is mid-way
/// through; consulted by repair to decide roll-forward vs roll-back.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub(crate) enum Intent {
    /// No structural mutation in flight.
    #[default]
    None,
    /// Splitting `split` at `level`; `new` is the freshly allocated half,
    /// `thresh` the max the old half keeps, `published` whether the
    /// one-word publish store has been issued.
    Split {
        split: u32,
        new: u32,
        thresh: u32,
        level: usize,
        published: bool,
    },
    /// Merging `dying` into `absorber` at `level` (removing `k`); `copied`
    /// is set once every surviving entry has been written into the
    /// absorber, after which the merge must roll forward.
    Merge {
        dying: u32,
        absorber: u32,
        k: u32,
        level: usize,
        copied: bool,
    },
}

/// Committed outcome recorded by the journal once an op's linearization
/// point has passed; a crash after this returns the real outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Commit {
    Inserted(bool),
    Removed(bool),
}

/// Per-op journal carried by the handle: the commit point, for `try_*` to
/// report. The op's [`Intent`] lives with the locks it describes
/// ([`HeldLocks::intent`]).
#[derive(Default)]
pub(crate) struct OpJournal {
    pub(crate) committed: Option<Commit>,
}

/// A GPU-friendly skiplist (GFSL).
///
/// The structure itself is `Sync`: share it by reference between worker
/// threads and give each thread its own [`GfslHandle`] (via
/// [`Gfsl::handle`]) to run operations, mirroring one GPU team per handle.
///
/// ```
/// use gfsl::{Gfsl, GfslParams};
///
/// let list = Gfsl::new(GfslParams::default()).unwrap();
/// let mut h = list.handle();
/// assert!(h.insert(10, 100).unwrap());
/// assert_eq!(h.get(10), Some(100));
/// assert!(h.remove(10));
/// assert!(!h.contains(10));
/// ```
pub struct Gfsl {
    pub(crate) pool: WordPool,
    pub(crate) params: GfslParams,
    pub(crate) team: Team,
    /// `head[i]` = pointer to the first chunk of level `i`, `NIL` until the
    /// level's first use ([`GfslHandle::head_or_grow`] CASes it from `NIL`
    /// once). Redirected (CAS) only when the first chunk becomes a zombie.
    pub(crate) head: Vec<AtomicU32>,
    /// Per-level utilized-chunk counters; `level_chunks[i] > 0` marks level
    /// `i` as in use (drives [`Gfsl::height`]).
    pub(crate) level_chunks: Vec<AtomicU32>,
    /// The highest level whose counter was ever raised above zero: raised
    /// before any counter increment, never lowered. Every level above it
    /// has never held a key (it has no head, or a never-retired one), so
    /// [`Gfsl::height`] and the head-array scan of a reclamation pass start
    /// here.
    levels_high_water: AtomicUsize,
    handle_seq: AtomicU32,
    /// Set when repair found a quarantined chunk torn mid-store: that chunk
    /// stays locked for good, so waiters must fail fast, not spin.
    poisoned: AtomicBool,
    /// Human-readable account of the first torn chunk.
    poison_note: Mutex<Option<String>>,
    /// Epoch-based reclaimer for unlinked zombie chunks (`None` when
    /// [`GfslParams::reclaim`] is off). See DESIGN.md for the safety
    /// argument.
    pub(crate) reclaim: Option<EpochReclaimer>,
    /// Updates by handles younger than [`RECLAIM_PERIOD`] that found
    /// reclamation work pending (only ever written while there is some):
    /// every `RECLAIM_PERIOD`th one runs a pass.
    reclaim_ticks: AtomicU32,
    /// A reclamation pass is in flight (passes are serialized).
    reclaim_busy: AtomicBool,
    /// Parent chunks the last verification walk read: a periodic pass
    /// verifies once at least half this many candidates are ready (see
    /// [`GfslHandle::maybe_reclaim`]). Only the pass in flight touches it.
    last_walk: AtomicU64,
    /// Quarantined chunks awaiting repair, left by ops that crashed through
    /// any entry point.
    pub(crate) quarantine: Mutex<Vec<QuarantinedChunk>>,
    /// Lock-free mirror of the quarantine set's size, so the hot path can
    /// skip the mutex when nothing is quarantined.
    pub(crate) quarantine_len: AtomicUsize,
    /// Cumulative recovery counters behind [`Gfsl::repair_stats`].
    pub(crate) recovery: RecoveryCounters,
    /// Background scrubber cursor: `(level, next chunk to visit)`.
    pub(crate) scrub_cursor: Mutex<(usize, u32)>,
    /// Multiversion engine (`None` when [`GfslParams::mvcc`] is off):
    /// version clock, per-chunk copy-on-write version chains, read-ticket
    /// registry. See `mvcc.rs` and DESIGN.md §19.
    pub(crate) mvcc: Option<Box<crate::mvcc::MvccEngine>>,
}

/// Maximum concurrently-live handles when reclamation is enabled (epoch
/// slots are recycled as handles drop, so this bounds *concurrent* handles,
/// not total).
pub const MAX_RECLAIM_HANDLES: usize = 1024;

/// While reclamation work is pending (chunks or tokens in grace, or a level
/// flagged for a head-edge sweep), a reclamation pass runs every this many
/// update operations — counted per handle once the handle is this old,
/// across all younger handles before (see [`GfslHandle::maybe_reclaim`]).
/// Every pass sweeps the flagged head edges, advances the epoch and moves
/// staged chunks to the free list; it drains and verifies the grace-passed
/// candidates only when they are a batch worth a walk of their parent level
/// (at least half as many as the last walk read). With nothing pending no
/// pass runs and the epoch stands still. Allocation also consumes the free
/// list directly, so the period bounds how long a retired chunk waits for
/// its grace (two to three periods when no pin lags); the batch rule adds
/// the wait for the batch to fill.
const RECLAIM_PERIOD: u32 = 16;

/// The "referenced" mark [`GfslHandle::verify_candidates`] sets in a
/// candidate's level byte (levels fit in five bits).
const REFERENCED: u8 = 0x80;

impl Gfsl {
    /// Create an empty skiplist: one unlocked sentinel chunk holding `-∞`,
    /// the bottom level's head (§4.1). A level above it gets its own head
    /// when an update first writes into it (DESIGN.md §4): the pool holds
    /// the levels in use, not `max_levels` sentinels.
    /// # Panics
    /// Panics if `params` fail [`GfslParams::validate`] (misconfiguration is
    /// a programming error, not a runtime condition).
    pub fn new(params: GfslParams) -> Result<Gfsl, Error> {
        if let Err(msg) = params.validate() {
            panic!("invalid GfslParams: {msg}");
        }
        let lanes = params.lanes() as u32;
        let capacity_words = params.pool_chunks as usize * lanes as usize;
        let pool = WordPool::new(capacity_words);
        let levels = params.max_levels();
        let head0 = pool.alloc(lanes, lanes).map_err(Error::PoolExhausted)? / lanes;

        let list = Gfsl {
            pool,
            team: Team::new(params.team_size),
            head: (0..levels).map(|l| AtomicU32::new(if l == 0 { head0 } else { NIL })).collect(),
            level_chunks: (0..levels).map(|_| AtomicU32::new(0)).collect(),
            levels_high_water: AtomicUsize::new(0),
            handle_seq: AtomicU32::new(0),
            poisoned: AtomicBool::new(false),
            poison_note: Mutex::new(None),
            reclaim: params
                .reclaim
                .then(|| EpochReclaimer::new(MAX_RECLAIM_HANDLES)),
            reclaim_ticks: AtomicU32::new(0),
            reclaim_busy: AtomicBool::new(false),
            last_walk: AtomicU64::new(0),
            quarantine: Mutex::new(Vec::new()),
            quarantine_len: AtomicUsize::new(0),
            recovery: RecoveryCounters::default(),
            scrub_cursor: Mutex::new((0, head0)),
            mvcc: params
                .mvcc
                .then(|| Box::new(crate::mvcc::MvccEngine::new(params.pool_chunks))),
            params,
        };
        ops::write_image(&list.team, &list.pool, &mut NoProbe, head0, Entry::new(KEY_NEG_INF, 0), LOCK_UNLOCKED);
        Ok(list)
    }

    /// Cumulative recovery counters: aborts, quarantined chunks, repairs by
    /// kind, scrubber progress. Cheap (atomic loads).
    pub fn repair_stats(&self) -> RepairStats {
        let r = &self.recovery;
        let o = Ordering::Relaxed;
        RepairStats {
            aborts: r.aborts.load(o),
            crashed_ops: r.crashed_ops.load(o),
            chunks_quarantined: r.chunks_quarantined.load(o),
            quarantine_depth: self.quarantine_depth(),
            repaired_forward: r.repaired_forward.load(o),
            repaired_back: r.repaired_back.load(o),
            unpoisoned_clean: r.unpoisoned_clean.load(o),
            downptr_repairs: r.downptr_repairs.load(o),
            scrubbed_chunks: r.scrubbed_chunks.load(o),
            scrub_violations: r.scrub_violations.load(o),
        }
    }

    /// Number of chunks currently quarantined (lock-free snapshot).
    pub fn quarantine_depth(&self) -> usize {
        self.quarantine_len.load(Ordering::Acquire)
    }

    /// Is `ch` in the quarantine set? Fast-pathed on the depth counter so
    /// it costs one atomic load while the set is empty.
    pub(crate) fn is_quarantined(&self, ch: u32) -> bool {
        if self.quarantine_depth() == 0 {
            return false;
        }
        self.quarantine
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .iter()
            .any(|q| q.held.chunk() == ch)
    }

    /// Reclamation counters (zombies retired/reclaimed, epochs advanced,
    /// free-list depth), or `None` when [`GfslParams::reclaim`] is off.
    pub fn reclaim_stats(&self) -> Option<ReclaimStats> {
        self.reclaim.as_ref().map(|r| r.stats())
    }

    /// The configuration this instance was built with.
    pub fn params(&self) -> &GfslParams {
        &self.params
    }

    /// The team geometry.
    pub fn team(&self) -> &Team {
        &self.team
    }

    /// Chunks the pool's bump pointer has handed out: every chunk ever
    /// allocated, the heads of the levels in use included.
    pub fn chunks_allocated(&self) -> u32 {
        self.pool.used() / self.params.lanes() as u32
    }

    /// Create an uninstrumented operation handle. Each worker thread gets
    /// its own handle; the handle embeds an independent RNG stream for the
    /// raise-key coin.
    ///
    /// # Panics
    /// As [`Gfsl::handle_with`].
    pub fn handle(&self) -> GfslHandle<'_, NoProbe> {
        self.handle_with(NoProbe)
    }

    /// Create a handle with a custom memory probe (the harness passes a
    /// `CountingProbe` sharing the run's L2 model).
    ///
    /// # Panics
    /// With reclamation on, when [`MAX_RECLAIM_HANDLES`] handles are
    /// already live. Code that mints handles on behalf of outside requests
    /// uses [`Gfsl::try_handle_with`] instead.
    pub fn handle_with<P: MemProbe>(&self, probe: P) -> GfslHandle<'_, P> {
        self.try_handle_with(probe).unwrap_or_else(|e| panic!("{e}"))
    }

    /// [`Gfsl::handle`], reporting a full handle table as
    /// [`Error::TooManyHandles`] instead of panicking.
    pub fn try_handle(&self) -> Result<GfslHandle<'_, NoProbe>, Error> {
        self.try_handle_with(NoProbe)
    }

    /// [`Gfsl::handle_with`], reporting a full handle table as
    /// [`Error::TooManyHandles`] instead of panicking.
    ///
    /// `#[inline]`: the handle is ~0.8 kB returned by value. Out of line it
    /// is built in a return slot and copied again by the caller, which the
    /// mint-per-op callers (`Cluster::try_*`) pay on every request.
    #[inline]
    pub fn try_handle_with<P: MemProbe>(&self, probe: P) -> Result<GfslHandle<'_, P>, Error> {
        let slot = match self.reclaim.as_ref() {
            Some(r) => Some(r.register().ok_or(Error::TooManyHandles)?),
            None => None,
        };
        let n = self.handle_seq.fetch_add(1, Ordering::Relaxed) as u64;
        Ok(GfslHandle {
            list: self,
            probe,
            rng: SplitMix64::new(self.params.seed ^ (n.wrapping_mul(0xA076_1D64_78BD_642F))),
            stats: OpStats::new(),
            held: HeldLocks::new(self),
            reclaim_slot: ReclaimGuard { list: self, slot },
            hint_live: false,
            hint0: None,
            hint_view_of: None,
            hint_view: ChunkView::BLANK,
            heal_levels: 0,
            heal_keys: [0; gfsl_simt::WARP_SIZE],
            skip_downptr_repair: false,
            reclaim_tick: 0,
            reclaim_cands: Vec::new(),
            batch_order: Vec::new(),
            journal: OpJournal::default(),
        })
    }

    /// Resolve a chunk index to its pool word base.
    #[inline]
    pub(crate) fn chunk(&self, index: u32) -> ChunkRef {
        debug_assert_ne!(index, NIL, "dereferencing NIL chunk pointer");
        ChunkRef {
            base: index * self.params.lanes() as u32,
        }
    }

    /// The words of chunk `index`, bounds-checked once, for a loop that
    /// stores to several of its lanes under the chunk's lock.
    #[inline]
    pub(crate) fn chunk_words(&self, index: u32) -> WordSpan<'_> {
        self.pool.span(self.chunk(index).base, self.params.lanes() as u32)
    }

    /// Highest level currently in use (0 when only the bottom level holds
    /// keys). Reads are unlocked: a stale-low answer merely starts searches
    /// lower (level 0 always holds every key), a stale-high answer starts at
    /// the head of a level that has emptied — both are benign. Every level
    /// it can name has a head: the high-water mark is raised only after the
    /// level's head was published, and read with `Acquire`. Scans down from
    /// that mark, so it costs the levels in use, not `max_levels`.
    pub fn height(&self) -> usize {
        (1..=self.levels_high_water())
            .rev()
            .find(|&i| self.level_chunks[i].load(Ordering::Relaxed) > 0)
            .unwrap_or(0)
    }

    /// The highest level ever in use: every level above it has never held
    /// a key (it has no head, or a head no operation has written since).
    /// `Acquire`, pairing with the raise: a reader that sees the mark at
    /// `l` also sees the heads of levels `0..=l`.
    #[inline]
    pub(crate) fn levels_high_water(&self) -> usize {
        self.levels_high_water.load(Ordering::Acquire)
    }

    /// Raise the high-water mark to `level` before its counter goes up; the
    /// caller has seen `level`'s head, so the `Release` makes it visible
    /// with the mark. A plain load first: the mark is almost always high
    /// enough already, and a read keeps the shared line out of every
    /// split's write set.
    fn raise_levels_high_water(&self, level: usize) {
        if self.levels_high_water.load(Ordering::Relaxed) < level {
            self.levels_high_water.fetch_max(level, Ordering::Release);
        }
    }

    /// Set `level`'s utilized-chunk counter (bulk loading).
    pub(crate) fn store_level_chunks(&self, level: usize, count: u32) {
        if count > 0 {
            self.raise_levels_high_water(level);
        }
        self.level_chunks[level].store(count, Ordering::Relaxed);
    }

    /// First-chunk pointer for a level, `NIL` when the level has no head
    /// yet: the levels with a head are always `0..=M` for some `M` that
    /// never shrinks, and no level above `M` has ever held a key.
    #[inline]
    pub(crate) fn head_of(&self, level: usize) -> u32 {
        self.head[level].load(Ordering::Acquire)
    }

    /// The heads of the levels that have one, bottom first.
    pub(crate) fn heads(&self) -> impl Iterator<Item = (usize, u32)> + '_ {
        (0..self.params.max_levels())
            .map(|l| (l, self.head_of(l)))
            .take_while(|&(_, h)| h != NIL)
    }

    pub(crate) fn inc_level_chunks(&self, level: usize) {
        self.raise_levels_high_water(level);
        self.level_chunks[level].fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn dec_level_chunks(&self, level: usize) {
        // Saturating decrement: counters are a heuristic height signal, and
        // racing "level emptied" stores may otherwise underflow.
        let _ = self.level_chunks[level].fetch_update(Ordering::Relaxed, Ordering::Relaxed, |v| {
            v.checked_sub(1)
        });
    }

    pub(crate) fn level_chunk_count(&self, level: usize) -> u32 {
        self.level_chunks[level].load(Ordering::Relaxed)
    }

    /// [`Gfsl::height`] by a scan of every level's counter, as the tests'
    /// reference for the high-water scan.
    #[cfg(test)]
    pub(crate) fn scanned_height(&self) -> usize {
        (1..self.params.max_levels())
            .rev()
            .find(|&i| self.level_chunk_count(i) > 0)
            .unwrap_or(0)
    }

    /// Record that a chunk of `level` was just marked zombie: the level's
    /// head edge may now hold a run no traversal unlinks, so the level is
    /// flagged (bit `level`) for the next reclamation pass to sweep.
    pub(crate) fn note_zombie(&self, level: usize) {
        if let Some(rec) = self.reclaim.as_ref() {
            rec.flag(1 << level);
        }
    }

    /// A chunk's next pointer (frozen, if the chunk is a zombie), read
    /// straight from the pool: reclamation bookkeeping is not algorithmic
    /// memory traffic, so it stays out of the probe stream.
    fn next_of(&self, chunk: u32) -> u32 {
        Entry(self.pool.read(self.chunk(chunk).entry_addr(self.team.next_lane()))).val()
    }

    /// Has repair found a chunk torn mid-store?
    ///
    /// A crash through any entry point quarantines its chunks for
    /// [`GfslHandle::repair_quarantine`]; only a chunk that then fails the
    /// chunk-local rules — torn between two stores, which only a bug can
    /// leave — poisons the structure. That chunk stays locked, and teams
    /// that subsequently wait on any lock panic with
    /// [`Gfsl::poison_report`] instead of spinning. Operations that wait on
    /// nothing may still complete — poisoning is detected at wait time, not
    /// checked up front.
    pub fn is_poisoned(&self) -> bool {
        self.poisoned.load(Ordering::Acquire)
    }

    /// The first poisoning event, if any (the torn chunk repair left
    /// locked).
    pub fn poison_report(&self) -> Option<String> {
        if !self.is_poisoned() {
            return None;
        }
        self.poison_note
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
    }

    /// Record that repair found chunk `torn` torn mid-store and left it
    /// locked. First report wins; the flag is sticky.
    pub(crate) fn poison(&self, torn: u32) {
        let mut note = self.poison_note.lock().unwrap_or_else(|p| p.into_inner());
        if note.is_none() {
            *note = Some(format!(
                "repair found chunk [{torn}] torn mid-store (a bug, not a crash \
                 between stores); it stays locked for good"
            ));
        }
        self.poisoned.store(true, Ordering::Release);
    }
}

/// The chunk locks a handle currently holds, and the structural mutation
/// they are mid-way through. Tracked so that a team dying mid-operation —
/// a panic unwinding through [`GfslHandle::contained`], or through a plain
/// entry point and out of the handle — leaves its chunks in the quarantine
/// set with its intent ([`Self::quarantine`]) for
/// [`GfslHandle::repair_quarantine`], instead of silently deadlocking every
/// team that later needs them. A plain op's crash reaches the quarantine
/// only when the handle drops: a handle whose plain op panicked must be
/// dropped, not reused.
pub(crate) struct HeldLocks<'a> {
    list: &'a Gfsl,
    chunks: Vec<u32>,
    /// The structural mutation the held chunks are mid-way through; what
    /// repair reads to roll a crashed op forward or back.
    pub(crate) intent: Intent,
    /// The in-flight update's mvcc publish stamp (`0` = unstamped). Set by
    /// `with_version_stamp` while the operation holds the version fence
    /// shared; lock acquisitions capture version pre-images tagged with it.
    pub(crate) stamp: u64,
}

impl<'a> HeldLocks<'a> {
    fn new(list: &'a Gfsl) -> HeldLocks<'a> {
        HeldLocks {
            list,
            chunks: Vec::new(),
            intent: Intent::None,
            stamp: 0,
        }
    }

    #[inline]
    pub(crate) fn acquired(&mut self, ch: u32) {
        // Mvcc capture-on-lock-acquire: the first time a stamped update
        // locks a chunk in its stamp epoch (with readers outstanding), the
        // chunk's pre-image goes onto its version chain *before any
        // mutation* — this is what lets a pinned reader resolve the chunk
        // without waiting for the lock. The lanes are read here (gated pool
        // reads, outside the chain mutex); unstamped lock holders (the
        // reclamation sweeps) skip capture — their mutations are
        // single-word zombie-unlink swings that never move keys.
        if let Some(mvcc) = self.list.mvcc.as_deref() {
            if self.stamp != 0 && mvcc.wants_capture(ch, self.stamp) {
                let lanes = self.list.params.lanes();
                let base = self.list.chunk(ch);
                let img: Vec<u64> = (0..lanes)
                    .map(|i| self.list.pool.read(base.entry_addr(i)))
                    .collect();
                mvcc.capture(ch, self.stamp, img);
            }
        }
        self.chunks.push(ch);
    }

    /// Forget a released lock. Repair releases locks it took over from the
    /// quarantine, which no ledger tracks.
    #[inline]
    fn released(&mut self, ch: u32) {
        if let Some(i) = self.chunks.iter().rposition(|&c| c == ch) {
            self.chunks.swap_remove(i);
        }
    }

    /// Hand every tracked lock over as its [`Held`] and forget it here: the
    /// locks of an operation that is dying, to the quarantine (a crash) or
    /// to its own quiet release (a clean abort). The one place outside
    /// `chunk.rs` that mints a `Held`.
    fn hand_over(&mut self) -> impl DoubleEndedIterator<Item = Held> + '_ {
        self.chunks.drain(..).map(Held::handover)
    }

    /// A crash's one reaction: move every held chunk — still lock-held,
    /// with the op's intent — into the quarantine set for repair, and
    /// forget them here. Returns the first quarantined chunk (for the
    /// [`OpAbort`] report), or `NIL` if the crash held nothing.
    pub(crate) fn quarantine(&mut self) -> u32 {
        let first = self.chunks.first().copied().unwrap_or(NIL);
        let intent = std::mem::take(&mut self.intent);
        self.stamp = 0;
        let rec = &self.list.recovery;
        rec.aborts.fetch_add(1, Ordering::Relaxed);
        rec.crashed_ops.fetch_add(1, Ordering::Relaxed);
        if !self.chunks.is_empty() {
            rec.chunks_quarantined.fetch_add(self.chunks.len() as u64, Ordering::Relaxed);
            let mut q = self.list.quarantine.lock().unwrap_or_else(|p| p.into_inner());
            q.extend(self.hand_over().map(|held| QuarantinedChunk { held, intent }));
            self.list.quarantine_len.store(q.len(), Ordering::Release);
        }
        first
    }
}

impl Drop for HeldLocks<'_> {
    fn drop(&mut self) {
        // Non-empty on drop means the op never released these locks: a
        // plain op's panic is unwinding out of the handle mid-protocol (or
        // the handle was leaked mid-op, which safe callers cannot do).
        if !self.chunks.is_empty() {
            self.quarantine();
        }
    }
}

impl std::fmt::Debug for Gfsl {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Gfsl")
            .field("team_size", &self.params.team_size)
            .field("height", &self.height())
            .field("chunks_allocated", &self.chunks_allocated())
            .finish()
    }
}

/// Lock retries after which a single acquisition is counted as a
/// starvation event in [`OpStats::lock_starvation_events`]. With the
/// exponential backoff capped at a 64-iteration spin plus a yield per
/// retry, 4096 retries is a long wall-clock window of being unserved.
pub const STARVATION_RETRIES: u32 = 1 << 12;

/// Certification retries spent spinning before each further retry yields.
/// A writer holds a chunk lock for a few stores, so a wait this long means
/// its holder is descheduled (more runnable threads than cores), and
/// spinning on would spend [`CONTAINED_RETRY_BUDGET`] without letting the
/// holder run.
const CERTIFY_SPINS: u32 = 64;

/// Retries one wait episode may spend — one lock acquisition's backoff, or
/// one certification loop — before the operation gives the wait up with
/// [`AbortReason::RetryBudget`]. The protocol's hold times are bounded (no
/// operation blocks while holding a chunk lock), so a wait this long means
/// the holder has stalled or is gone. It bounds every wait, whatever the
/// entry point: a `try_*` call returns the abort, a plain one unwinds with
/// it.
pub const CONTAINED_RETRY_BUDGET: u32 = 1 << 20;

/// Chunk-move budget for a lateral walk started from a validated traversal
/// hint. A validated hint only proves the enclosing chunk is at-or-right of
/// the cached one; clustered streams land within a step or two, while an
/// arbitrary jump could be the whole bottom level away. Past this many
/// moves the walk gives up and the lookup falls back to the O(log n)
/// descent, so a hint can never cost more than `HINT_WALK_BUDGET` extra
/// chunk reads.
pub(crate) const HINT_WALK_BUDGET: u32 = 8;

/// How far right of a hinted chunk's `max` a key may lie, in units of that
/// chunk's own key span (`max - min`, the local key density), for the hint
/// to be worth starting from: beyond it the walk is expected to cross more
/// chunks than the descent it replaces reads, so the lookup descends and
/// the hint moves with it. [`HINT_WALK_BUDGET`] still caps a walk the
/// estimate let through.
pub(crate) const HINT_NEAR_SPANS: u64 = 4;

/// Live chunks an update-path traversal may step across at the bottom
/// level before the insert that ran it concludes the index above is
/// missing an entry for this region and installs one (DESIGN.md §20). One
/// step is the healthy case: a split raises the inserted key, not the new
/// chunk's minimum, so a descent routinely lands one chunk left. Chosen by
/// chunk reads per op over the 2M-op soak of `tests/index_decay.rs`:
/// 5.89 at 1 (level 1 doubles), 5.72 at 2, 6.01 at 3.
pub(crate) const HEAL_STEPS_BOTTOM: u8 = 2;

/// The same threshold above the bottom level, where every extra key can
/// grow a level that costs each descent a chunk read: 5.85 reads per op at
/// 2, 5.72 at 3, 6.06 at 4 on the same soak.
pub(crate) const HEAL_STEPS_UPPER: u8 = 3;

/// A per-thread session on a [`Gfsl`]: the moral equivalent of one GPU team.
///
/// Holds the thread's memory probe, RNG stream, and operation statistics.
/// All skiplist operations ([`contains`](GfslHandle::contains),
/// [`get`](GfslHandle::get), [`insert`](GfslHandle::insert),
/// [`remove`](GfslHandle::remove)) live on the handle.
pub struct GfslHandle<'a, P: MemProbe> {
    pub(crate) list: &'a Gfsl,
    pub(crate) probe: P,
    pub(crate) rng: SplitMix64,
    pub(crate) stats: OpStats,
    pub(crate) held: HeldLocks<'a>,
    /// This handle's epoch slot; unregisters itself on drop.
    reclaim_slot: ReclaimGuard<'a>,
    /// Whether operations consult and record the bottom-level hint below:
    /// set by a key-sorted call ([`GfslHandle::execute_ordered`]) for its
    /// duration, where op *i+1*'s key is at-or-right of op *i*'s whichever
    /// kind op *i* was. Per-op calls leave it off: on an unordered stream
    /// the hint costs wasted reads per miss. Only `mc` holds it set across
    /// per-op calls, so its schedules reach hint validation on scripts in
    /// any key order; no other path leaves a hint live between calls.
    pub(crate) hint_live: bool,
    /// Bottom-level traversal hint: the last bottom chunk this handle's
    /// reads touched, with the lock word observed unlocked there. A later
    /// lookup revalidates the pair (word equality ⇒ the chunk is the same
    /// incarnation and unmutated since) and starts its lateral walk there,
    /// skipping the descent entirely.
    hint0: Option<Hint0>,
    /// The chunk [`hint_view`](Self::hint_view) is a snapshot of, with the
    /// word that certified it.
    hint_view_of: Option<(u32, Certified)>,
    /// Fat bottom-level hint: the last certified snapshot this handle's
    /// traversals produced. When the next lookup's [`hint0`](Self::hint0)
    /// names the same `(chunk, word)` pair, [`hint_start`](Self::hint_start)
    /// revalidates with a single lock-lane read instead of the full team
    /// read: the identical unlocked word proves no writer completed since
    /// the snapshot was certified, so the cached data lanes are still
    /// authentic. The one-word re-read extends a bracket forward; it cannot
    /// create one, which is why only a [`Certified`] view is stashed here.
    pub(crate) hint_view: ChunkView,
    /// Levels at which the last update-path traversal
    /// ([`Self::search_slow`]) found the index above missing an entry (bit
    /// `i` = level `i`): what `insert` reads to decide whether to heal
    /// (DESIGN.md §20). Read paths never touch it.
    pub(crate) heal_levels: u32,
    /// For each level above 0 marked in [`heal_levels`](Self::heal_levels):
    /// the key the traversal stepped down through there — that chunk's
    /// minimum, the one key of an upper chunk worth raising further.
    pub(crate) heal_keys: [u32; gfsl_simt::WARP_SIZE],
    /// Set for the one operation of a scripted
    /// [`McOp::RemoveUnrepaired`](crate::mc::McOp::RemoveUnrepaired):
    /// `update_down_ptrs` returns without repairing anything.
    pub(crate) skip_downptr_repair: bool,
    /// This handle's update count; see [`Self::maybe_reclaim`].
    reclaim_tick: u32,
    /// Reusable candidate batch of [`Self::reclaim_pass`], so a pass
    /// allocates nothing.
    reclaim_cands: Vec<(u32, u8)>,
    /// Reusable `(key << 32) | index` sort scratch for
    /// [`execute_batch_hinted`](Self::execute_batch_hinted), so steady-state
    /// batch dispatch allocates nothing.
    pub(crate) batch_order: Vec<u64>,
    /// Commit point of the op in flight; reset by [`Self::contained`].
    pub(crate) journal: OpJournal,
}

/// A cached bottom-level traversal hint (see [`GfslHandle`]). Beyond the
/// `(chunk, lock word)` pair, the hint carries the reclaimer epoch at
/// capture time: lock-word versions are monotonic across recycling (see
/// `take_chunk`), but the epoch tag additionally bounds how *old* a hint
/// may be — a hint that survived two reclaim epochs has had time for its
/// chunk to be retired, verified, recycled, and re-churned, so it is
/// dropped outright rather than trusted to a word comparison.
#[derive(Debug, Clone, Copy)]
struct Hint0 {
    chunk: u32,
    word: u64,
    epoch: u64,
}

/// Unregisters a handle's epoch slot when the handle drops. A separate
/// struct (like [`HeldLocks`]) so `GfslHandle::into_parts` can still move
/// fields out of the handle.
struct ReclaimGuard<'a> {
    list: &'a Gfsl,
    slot: Option<SlotId>,
}

impl Drop for ReclaimGuard<'_> {
    fn drop(&mut self) {
        if let (Some(rec), Some(slot)) = (self.list.reclaim.as_ref(), self.slot) {
            rec.unregister(slot);
        }
    }
}

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// The underlying structure.
    pub fn list(&self) -> &'a Gfsl {
        self.list
    }

    /// Statistics accumulated by this handle.
    pub fn stats(&self) -> OpStats {
        self.stats
    }

    /// Reset this handle's statistics.
    pub fn reset_stats(&mut self) {
        self.stats = OpStats::new();
    }

    /// Consume the handle, returning its probe and stats.
    pub fn into_parts(self) -> (P, OpStats) {
        (self.probe, self.stats)
    }

    /// Read a whole chunk in one lockstep team read, into `view`, and say
    /// what the view can support ([`ChunkView::reload`]; `before` is a lock
    /// word read before this call, to certify the view against). This is
    /// every traversal's chunk step: loops keep their view buffers across
    /// iterations and reload them here, so no snapshot is built and then
    /// moved.
    #[inline]
    pub(crate) fn read_chunk_into(&mut self, index: u32, before: Option<u64>, view: &mut ChunkView) -> ChunkRead {
        self.stats.chunk_reads += 1;
        view.reload(
            &self.list.team,
            &self.list.pool,
            &mut self.probe,
            self.list.chunk(index),
            before,
        )
    }

    /// [`Self::read_chunk_into`] a fresh view, for code that reads one chunk
    /// and is done.
    #[inline]
    pub(crate) fn read_chunk(&mut self, index: u32) -> ChunkView {
        let mut view = ChunkView::BLANK;
        self.read_chunk_into(index, None, &mut view);
        view
    }

    /// One read of `index`'s lock word, as a pre-bracket for a team read
    /// that follows (or to re-certify a cached view).
    #[inline]
    pub(crate) fn lock_word_of(&mut self, index: u32) -> u64 {
        let addr = ops::lock_addr(&self.list.team, self.list.chunk(index));
        self.probe.lane_read(addr);
        self.list.pool.read(addr)
    }

    /// The one certify loop: read `index` into `view` until the read is a
    /// zombie, is [`Certified`], or is a live view `settled` accepts as it
    /// is. Each retry is certified against the previous read's own LOCK
    /// lane; `before`, when the caller read the lock word first, does that
    /// for the first read, so a quiescent chunk certifies on one read.
    ///
    /// A single ascending-order team read can miss a key that a concurrent
    /// `executeRemove` shifts toward lower lanes across the read cursor,
    /// so an answer that asserts a key's *absence* from the view is taken
    /// only from a certified one. A retry after a read that had a word to
    /// compare against waits first ([`Self::certify_backoff`]): a writer
    /// held the chunk. One chunk's reads are one wait episode.
    pub(crate) fn read_certified(
        &mut self,
        index: u32,
        mut before: Option<u64>,
        view: &mut ChunkView,
        mut settled: impl FnMut(&ChunkView) -> bool,
    ) -> ChunkRead {
        let mut waits = 0;
        loop {
            let read = self.read_chunk_into(index, before, view);
            if !matches!(read, ChunkRead::Live { .. }) || settled(view) {
                return read;
            }
            if before.is_some() {
                self.certify_backoff(&mut waits, index);
            }
            before = Some(view.lock_word(&self.list.team));
        }
    }

    /// The parent-level walks' chunk step (down-pointer repair, reclaimer
    /// verification): [`Self::read_certified`] against
    /// [`Self::lock_word_of`], as the lateral walk reads each chunk. A
    /// chunk no writer overlapped is certified by one team read, and an
    /// overlapped one by the first read that repeats the previous read's
    /// own unlocked word.
    pub(crate) fn read_bracketed(&mut self, index: u32, view: &mut ChunkView) -> ChunkRead {
        let before = self.lock_word_of(index);
        self.read_certified(index, Some(before), view, |_| false)
    }

    /// The first non-zombie chunk at-or-right of `cur`, with its certified
    /// snapshot in `view` and the word that certified it: the zombie-stepping
    /// caller of [`Self::read_certified`], and the chunk step of the
    /// bottom-level scans (`min_entry`, range iteration).
    pub(crate) fn next_live_certified(&mut self, mut cur: u32, view: &mut ChunkView) -> (u32, Certified) {
        loop {
            match self.read_certified(cur, None, view, |_| false) {
                ChunkRead::Zombie { next } => cur = next,
                ChunkRead::Certified(cert) => return (cur, cert),
                ChunkRead::Live { .. } => unreachable!("no live view settles uncertified"),
            }
        }
    }

    /// Run `f` with this handle's epoch slot pinned (no-op when reclamation
    /// is off). A pin never nests ([`EpochReclaimer::pin`] asserts it): a
    /// composite operation (`pop_min`) runs its pinned primitives one after
    /// another, and `upsert` is one pass of the insert body. Every public
    /// operation that dereferences chunk pointers runs under a pin: the
    /// reclaimer cannot recycle a chunk retired after the pin was announced,
    /// which is what makes traversal-held pointers safe to follow.
    /// The unpin runs from a drop guard so a chaos-injected panic mid-`f`
    /// (a "crashed team") still quiesces the slot while unwinding: a dead
    /// team's stack holds no chunk references, and leaving its announcement
    /// behind would halt epoch advance — and with it all reclamation —
    /// forever.
    #[inline]
    pub(crate) fn with_pin<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        struct UnpinGuard<'r> {
            rec: &'r EpochReclaimer,
            slot: SlotId,
        }
        impl Drop for UnpinGuard<'_> {
            fn drop(&mut self) {
                self.rec.unpin(self.slot);
            }
        }
        let _guard = match (self.list.reclaim.as_ref(), self.reclaim_slot.slot) {
            (Some(rec), Some(s)) => {
                rec.pin(s);
                Some(UnpinGuard { rec, slot: s })
            }
            _ => None,
        };
        f(self)
    }

    /// Run one update operation stamped with the mvcc version clock: the
    /// fence is held **shared** for the whole call (so [`Gfsl::pin_version`]
    /// drains this op before minting a ticket) and `held.stamp` carries the
    /// observed clock value for the capture hook in [`HeldLocks::acquired`].
    /// A zero-cost passthrough when [`GfslParams::mvcc`] is off. No update
    /// nests inside another (the fence is not reentrant), and a debug build
    /// asserts it.
    ///
    /// On panic the shared guard releases during unwind; the stale
    /// `held.stamp` is reset where the abort is raised
    /// ([`Self::abort_wait`]) or caught ([`Self::contained`]).
    #[inline]
    pub(crate) fn with_version_stamp<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> R {
        let Some(mvcc) = self.list.mvcc.as_deref() else {
            return f(self);
        };
        debug_assert_eq!(self.held.stamp, 0, "nested version stamp");
        let fence = mvcc.writer_fence();
        self.held.stamp = *fence;
        let r = f(self);
        self.held.stamp = 0;
        // Opportunistic retention bound, paid by the path that created the
        // retention: if this op's captures pushed the live-image count past
        // the high water, sweep once before releasing the fence (still held
        // shared, as `vacuum_locked` requires). Readers never sweep.
        mvcc.try_vacuum();
        drop(fence);
        r
    }

    /// Run one operation inside the unwind boundary every `try_*` entry
    /// point runs in: resets the op journal, runs `f` under `catch_unwind`,
    /// and turns the panic of an aborted op into a typed [`OpAbort`]. The
    /// op itself runs exactly as through a plain entry point — every abort
    /// has already done its one reaction by the time it unwinds here:
    ///
    /// * an [`OpAbort`] payload is a clean abort, raised by
    ///   [`Self::note_wait`] after it released every held chunk;
    /// * any other panic is a *crash* (chaos injection, poison detection, or
    ///   a genuine bug mid-protocol), and [`HeldLocks::quarantine`] moves the
    ///   held chunks — with the op's intent — into the quarantine set for
    ///   [`Self::repair_quarantine`], as [`HeldLocks`]'s drop does for a
    ///   plain op whose panic unwinds out of the handle (which is why such
    ///   a handle must be dropped, not reused). Repair works from
    ///   that intent and each chunk's current image, so a crash between a
    ///   chunk's stores (any injected one: crash points precede their
    ///   stores) heals unpoisoned. A panic that tears a chunk mid-store (a
    ///   bug inside a shift or copy loop) leaves an image no intent
    ///   describes: repair poisons the structure and leaves that chunk
    ///   locked.
    ///
    /// The caller inspects `self.journal.committed` on `Err`: a recorded
    /// commit means the op's linearization point had already passed, so its
    /// outcome is real and must be reported (this is what keeps
    /// acknowledged writes from being lost across crashes).
    pub(crate) fn contained<R>(&mut self, f: impl FnOnce(&mut Self) -> R) -> Result<R, OpAbort> {
        self.journal = OpJournal::default();
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| f(self))).map_err(|payload| {
            match payload.downcast::<OpAbort>() {
                Ok(abort) => *abort,
                Err(_) => {
                    // The panic unwound through `with_version_stamp`: its
                    // fence guard released on the way out, but the stamp
                    // field stayed set; the quarantine resets it.
                    //
                    // A killing probe (chaos) deregistered this team from its
                    // scheduler mid-panic; we caught the kill, so tell the
                    // probe the team lives on — even when the crash is
                    // reported to the caller as a committed `Ok`. This must
                    // happen *before* any quarantine bookkeeping: if that
                    // bookkeeping ever performs a probed or schedule-gated
                    // access (the pool accesses are gated under the `sched`
                    // feature), a still-retired participant would park in
                    // the turnstile waiting for a turn no scheduler grants
                    // to the retired.
                    self.probe.crash_recovered();
                    OpAbort {
                        reason: AbortReason::Crashed,
                        chunk: self.held.quarantine(),
                    }
                }
            }
        })
    }

    /// Contained insert: [`insert`](Self::insert), with an abort returned
    /// as [`Error::Aborted`] instead of unwinding. The abort itself is the
    /// same through either entry point: a crash mid-protocol quarantines the
    /// op's chunks for repair, and a wait given up (quarantined chunk, or
    /// [`CONTAINED_RETRY_BUDGET`] spent) releases them untouched. If the
    /// operation had already passed its linearization point when it
    /// aborted, the recorded outcome is returned as `Ok` — an acknowledged
    /// insert is never silently lost.
    pub fn try_insert(&mut self, k: u32, v: u32) -> Result<bool, Error> {
        match self.contained(|h| h.insert(k, v)) {
            Ok(r) => r,
            Err(abort) => match self.journal.committed.take() {
                Some(Commit::Inserted(a)) => Ok(a),
                _ => Err(Error::Aborted(abort)),
            },
        }
    }

    /// Contained remove; see [`Self::try_insert`] for the abort contract.
    pub fn try_remove(&mut self, k: u32) -> Result<bool, Error> {
        match self.contained(|h| h.remove(k)) {
            Ok(r) => Ok(r),
            Err(abort) => match self.journal.committed.take() {
                Some(Commit::Removed(a)) => Ok(a),
                _ => Err(Error::Aborted(abort)),
            },
        }
    }

    /// Contained lookup; reads never mutate, so an abort simply means the
    /// read gave up (quarantined chunk in its path, or budget spent).
    pub fn try_get(&mut self, k: u32) -> Result<Option<u32>, Error> {
        self.contained(|h| h.get(k)).map_err(Error::Aborted)
    }

    /// Contained membership test; see [`Self::try_get`].
    pub fn try_contains(&mut self, k: u32) -> Result<bool, Error> {
        self.contained(|h| h.contains(k)).map_err(Error::Aborted)
    }

    /// Contained range count; see [`Self::try_get`].
    pub fn try_count_range(&mut self, lo: u32, hi: u32) -> Result<usize, Error> {
        self.contained(|h| h.count_range(lo, hi))
            .map_err(Error::Aborted)
    }

    /// Contained range collection; see [`Self::try_get`].
    pub fn try_range(&mut self, lo: u32, hi: u32) -> Result<Vec<(u32, u32)>, Error> {
        self.contained(|h| h.range(lo, hi)).map_err(Error::Aborted)
    }

    /// Contained minimum-entry scan; see [`Self::try_get`] (reads never
    /// mutate, so an abort simply means the scan gave up).
    pub fn try_min_entry(&mut self) -> Result<Option<(u32, u32)>, Error> {
        self.contained(|h| h.min_entry()).map_err(Error::Aborted)
    }

    /// Contained extract-min: the priority-queue pop built from
    /// [`min_entry`](Self::min_entry) + [`try_remove`](Self::try_remove).
    /// Composing at this level (rather than containing
    /// [`pop_min`](Self::pop_min) wholesale) keeps `try_remove`'s abort
    /// contract intact: a removal that crashed *after* its linearization
    /// point still reports `Ok`, so an acknowledged pop is never lost.
    pub fn try_pop_min(&mut self) -> Result<Option<(u32, u32)>, Error> {
        loop {
            let Some((k, v)) = self.try_min_entry()? else {
                return Ok(None);
            };
            if self.try_remove(k)? {
                return Ok(Some((k, v)));
            }
        }
    }

    /// Validate the bottom-level hint against `k` and return its chunk with
    /// the word that certifies its snapshot, leaving the snapshot in
    /// [`hint_view`](Self::hint_view), or `None` (clearing the hint) on miss.
    ///
    /// Validity argument: re-reading the hinted chunk and seeing the *same
    /// unlocked lock word* proves no writer completed (versions bump on
    /// every unlock, monotonically across recycling) or is active, so the
    /// fresh view's data is an authentic consistent snapshot of a live
    /// bottom-level chunk. Its entry 0 is then the chunk's minimum, and
    /// `min <= k` places `k`'s enclosing chunk at-or-right of the hint:
    /// keys only migrate rightward (splits and merges move keys to the
    /// right; a chunk's max never increases), so chunks left of the hint
    /// can never come to hold `k`. The cached word was read before the
    /// view's data lanes, so the read certifies the view against it, and a
    /// negative answer derived from it needs no re-read.
    pub(crate) fn hint_start(&mut self, k: u32) -> Option<(u32, Certified)> {
        if !self.hint_live {
            return None;
        }
        let Hint0 { chunk: c, word: w, epoch } = self.hint0?;
        // Reclamation guard: if the reclaimer advanced two or more epochs
        // since the hint was captured, the hinted chunk may have completed
        // a full retire→verify→recycle cycle in the meantime. Versions stay
        // monotonic across recycling, so the word compare below would still
        // reject a recycled incarnation — this epoch tag is defense in
        // depth against any future free-list path that loses that
        // monotonicity (and it keeps pathologically stale hints from ever
        // reaching the compare).
        if let Some(rec) = self.list.reclaim.as_ref() {
            if rec.epoch().wrapping_sub(epoch) >= 2 {
                self.stats.hint_misses += 1;
                // The snapshot is as old as the hint it certified; the same
                // defense-in-depth retires it.
                self.clear_hint();
                return None;
            }
        }
        let team = self.list.team;
        let stashed = self.hint_view_of.filter(|&(of, _)| of == c).map(|(_, cert)| cert);
        if stashed.is_some() {
            // Too far right to be worth walking to, judged on the snapshot's
            // lanes alone — stale or not, they are only a density estimate —
            // before any memory is touched: a sparse key-sorted batch then
            // pays nothing for a hint it cannot use.
            let (min, max) = (self.hint_view.entry(0).key(), self.hint_view.max(&team));
            if k > max && u64::from(k - max) > HINT_NEAR_SPANS * u64::from(max - min) {
                self.stats.hint_misses += 1;
                self.clear_hint();
                return None;
            }
        }
        // Fat-hint fast path: when the last certified snapshot is of this
        // very `(chunk, word)` pair, one lock-lane read re-certifies the
        // whole cached view — the full team read is only paid when the hint
        // moved to a chunk we have no snapshot of.
        if let Some(cert) = stashed.filter(|cert| cert.word() == w) {
            self.stats.skip_reads += 1;
            if self.lock_word_of(c) == w && self.hint_view.entry(0).key() <= k {
                self.stats.hint_hits += 1;
                return Some((c, cert));
            }
            // Either the chunk mutated since the snapshot (the word
            // changed, so a full re-read would fail the same compare) or
            // its authentic minimum sits right of `k`; both are exactly
            // the miss conditions of the full-read path below, so
            // declare the miss without paying the team read.
            self.stats.hint_misses += 1;
            self.clear_hint();
            return None;
        }
        // Not into `hint_view` itself: a miss here leaves the snapshot of
        // whatever other chunk it holds in place.
        let mut view = ChunkView::BLANK;
        match self.read_chunk_into(c, Some(w), &mut view) {
            ChunkRead::Certified(cert) if view.entry(0).key() <= k => {
                self.stats.hint_hits += 1;
                self.hint_view_of = Some((c, cert));
                self.hint_view = view;
                Some((c, cert))
            }
            _ => {
                self.stats.hint_misses += 1;
                self.hint0 = None;
                None
            }
        }
    }

    /// Stash a certified view as the fat bottom-level hint, so a later
    /// [`Self::hint_start`] for the same `(chunk, word)` can revalidate it
    /// with a single lock-lane read.
    #[inline]
    pub(crate) fn stash_hint_view(&mut self, chunk: u32, view: &ChunkView, cert: Certified) {
        if self.hint_live {
            self.hint_view_of = Some((chunk, cert));
            self.hint_view = *view;
        }
    }

    /// Demote the hint hit just recorded by [`Self::hint_start`] to a miss:
    /// the hint validated but its chunk was too far left to reach within
    /// the walk budget, so the lookup fell back to a full descent. Clearing
    /// it keeps the next operation from paying the budget again.
    pub(crate) fn hint_overrun(&mut self) {
        self.stats.hint_hits -= 1;
        self.stats.hint_misses += 1;
        self.clear_hint();
    }

    /// Forget the bottom-level hint and its snapshot.
    #[inline]
    pub(crate) fn clear_hint(&mut self) {
        self.hint0 = None;
        self.hint_view_of = None;
    }

    /// Record a bottom-level chunk as the traversal hint. `word` must be its
    /// lock word as observed *unlocked* in the view that certified the
    /// chunk (see [`Self::hint_start`]); callers pass `None` when no
    /// unlocked observation is available, leaving the previous hint alone.
    #[inline]
    pub(crate) fn note_hint(&mut self, chunk: u32, word: Option<u64>) {
        if self.hint_live {
            if let Some(w) = word {
                let epoch = self.list.reclaim.as_ref().map_or(0, |r| r.epoch());
                self.hint0 = Some(Hint0 { chunk, word: w, epoch });
            }
        }
    }

    /// In a key-sorted call, point the hint at the bottom chunk an update
    /// ended in — searched to and left alone, or written and released — by
    /// its lock word as it stands now, if unlocked. After a write the
    /// stashed snapshot predates it, so the next read validates with one
    /// full re-read of this chunk: one read and a short walk where it would
    /// otherwise descend from the head.
    pub(crate) fn note_hint_after_update(&mut self, chunk: u32) {
        if self.hint_live {
            let word = self.lock_word_of(chunk);
            let unlocked = crate::chunk::lock_state(word) == crate::chunk::LOCK_UNLOCKED;
            self.note_hint(chunk, unlocked.then_some(word));
        }
    }

    /// Spin until the chunk that *encloses* `k` is locked, walking right
    /// past zombies and smaller-max chunks (paper Algorithm 4.8).
    ///
    /// Returns the locked chunk's lock, with its snapshot as re-read under
    /// the lock in `view`. `start` must be at-or-left of the enclosing
    /// chunk, which the caller guarantees from traversal invariants (the
    /// max field only decreases).
    pub(crate) fn find_and_lock_enclosing(&mut self, start: u32, k: u32, view: &mut ChunkView) -> Held {
        let team = self.list.team;
        let mut ch = start;
        let mut spins = 0u32;
        loop {
            // Not enclosing `k` (`chunkNotEnclosing`): a zombie, or a live
            // chunk whose `max < k < ∞`, which is no level's last.
            if let ChunkRead::Zombie { next } = self.read_chunk_into(ch, None, view) {
                ch = next;
                continue;
            }
            if view.max(&team) < k {
                ch = view.next(&team);
                debug_assert_ne!(ch, NIL, "walked past the last chunk hunting for {k}");
                continue;
            }
            let Some(held) = self.take_lock(ch, view, &mut spins) else {
                continue;
            };
            // Re-read under the lock (a held chunk is no zombie); it may
            // have stopped enclosing `k` between the read and the CAS.
            self.read_chunk_into(ch, None, view);
            if view.max(&team) < k {
                self.unlock(held);
                ch = view.next(&team);
                continue;
            }
            return held;
        }
    }

    /// One attempt at `ch`'s lock, from `view`, a fresh read of it: a view
    /// showing the chunk locked, or a failed CAS, counts a lock retry and
    /// backs off (`None`).
    fn take_lock(&mut self, ch: u32, view: &ChunkView, spins: &mut u32) -> Option<Held> {
        let held = if view.is_locked(&self.list.team) { None } else { self.try_acquire(ch, None) };
        if held.is_none() {
            self.stats.lock_retries += 1;
            self.lock_backoff(spins, ch);
        }
        held
    }

    /// The acquire step: one CAS at `ch`'s lock — from `from`, the word
    /// that certified a view of it, or else from the word it reads now —
    /// and, when it wins, the lock counted and tracked as held
    /// ([`HeldLocks::acquired`]).
    pub(crate) fn try_acquire(&mut self, ch: u32, from: Option<Certified>) -> Option<Held> {
        let (team, pool) = (&self.list.team, &self.list.pool);
        let held = match from {
            Some(cert) if !crate::bug_knobs::stale_lock_upgrade() => {
                ops::try_lock_from(team, pool, &mut self.probe, ch, cert)
            }
            _ => ops::try_lock(team, pool, &mut self.probe, ch),
        }?;
        self.stats.locks_taken += 1;
        self.held.acquired(ch);
        Some(held)
    }

    /// Take an update's bottom lock on the chunk its [`Self::search_slow`]
    /// ended in, `res.enclosing`, whose last read is in `view`.
    ///
    /// When that view is certified (`res.certified`: its data lanes
    /// bracketed by two reads of that unlocked word), one CAS from exactly
    /// that word upgrades it: success proves no writer held the chunk since
    /// the view was read, so `view` is still the chunk's content and neither of
    /// [`Self::find_and_lock_enclosing`]'s two team reads is needed (DESIGN
    /// §12). Any other outcome falls back to that walk from the same chunk,
    /// a failed CAS counting as a lock retry. Returns the chunk's lock, its
    /// content in `view`.
    pub(crate) fn lock_certified(&mut self, res: &LateralResult, k: u32, view: &mut ChunkView) -> Held {
        if let Some(cert) = res.certified {
            if let Some(held) = self.try_acquire(res.enclosing, Some(cert)) {
                return held;
            }
            self.stats.lock_retries += 1;
        }
        self.find_and_lock_enclosing(res.enclosing, k, view)
    }

    /// Lock the first non-zombie chunk right of the held chunk `ch`,
    /// unlinking any zombies skipped by rewriting `ch`'s next pointer.
    /// Returns `None` when `ch` is the last chunk in its level;
    /// past that one check, the walk steps only through zombies, each by
    /// its [`ChunkRead::Zombie`] `next`, which always names a chunk.
    /// `level` is the level `ch` lives in, so unlinked zombies can be
    /// retired for reclamation.
    pub(crate) fn lock_next_chunk(&mut self, ch: &Held, level: usize) -> Option<Held> {
        let team = self.list.team;
        let first_next =
            ops::read_next_field(&team, &self.list.pool, &mut self.probe, self.list.chunk(ch.chunk())).val();
        if first_next == NIL {
            return None;
        }
        let mut cur = first_next;
        let mut spins = 0u32;
        let mut view = ChunkView::BLANK;
        loop {
            if let ChunkRead::Zombie { next } = self.read_chunk_into(cur, None, &mut view) {
                cur = next;
                continue;
            }
            let Some(held) = self.take_lock(cur, &view, &mut spins) else {
                continue;
            };
            if cur != first_next {
                // Unlink the zombies we skipped. `ch`'s next still reads
                // `first_next`: only its lock holder, this team, writes it.
                self.swing_past_zombies(ch, first_next, cur, level);
            }
            return Some(held);
        }
    }

    /// An operation's unlock of a held chunk ([`Release::Unlock`]).
    #[inline]
    pub(crate) fn unlock(&mut self, held: Held) {
        self.release(held, Release::Unlock);
    }

    /// Release a held chunk to `to` ([`ops::release`]) and forget it.
    #[inline]
    pub(crate) fn release(&mut self, held: Held, to: Release) {
        let ch = held.chunk();
        ops::release(&self.list.team, &self.list.pool, &mut self.probe, held, to);
        self.held.released(ch);
    }

    /// One retry of a certification loop, which waits for a chunk's lock
    /// word to settle unlocked: counts it, lets [`Self::note_wait`] decide
    /// whether to give up, and spins — or, past [`CERTIFY_SPINS`] retries,
    /// yields. `waits` is the loop's own counter.
    pub(crate) fn certify_backoff(&mut self, waits: &mut u32, ch: u32) {
        self.stats.certify_retries += 1;
        *waits += 1;
        self.note_wait(ch, *waits);
        // Tell the model checker (if one is driving this thread) that we are
        // spinning on this chunk's lock word: exploration deprioritizes and
        // never branches into a waiting thread, so bounded-exhaustive search
        // does not enumerate futile spin permutations.
        gfsl_gpu_mem::schedule::wait_hint(
            self.list.chunk(ch).entry_addr(self.list.team.lock_lane()),
        );
        if *waits < CERTIFY_SPINS {
            std::hint::spin_loop();
        } else {
            std::thread::yield_now();
        }
    }

    /// The one place a wait gives up, called at the `n`th retry of every
    /// wait episode (one lock acquisition's backoff, one certification
    /// loop) on chunk `ch`, whatever the entry point. Past
    /// [`CONTAINED_RETRY_BUDGET`] retries, or when `ch` is quarantined (its
    /// holder crashed), the op aborts cleanly ([`Self::abort_wait`]); on a
    /// poisoned structure it panics with the report (a crash: repair left
    /// a torn chunk locked for good). The quarantine and poison checks run
    /// at the first retries and every 16th after.
    #[inline]
    fn note_wait(&mut self, ch: u32, n: u32) {
        if n > CONTAINED_RETRY_BUDGET {
            self.abort_wait(AbortReason::RetryBudget, ch);
        }
        if n < 4 || n.is_multiple_of(16) {
            if self.list.is_quarantined(ch) {
                self.abort_wait(AbortReason::Quarantined, ch);
            }
            if let Some(report) = self.list.poison_report() {
                panic!("wait on chunk {ch} aborted: structure poisoned ({report})");
            }
        }
    }

    /// Give up a wait: release every held lock with a version bump, drop
    /// the op's intent, and unwind with the [`OpAbort`] as the payload —
    /// [`Self::contained`] returns it, a plain entry point lets it unwind
    /// on. Sound because every wait point in the protocol occurs while each
    /// held chunk is individually consistent (waits happen before a chunk's
    /// mutation starts or after it fully completes; the shift/copy loops
    /// themselves never wait), and the bump makes snapshot certification
    /// and hints observe the release like an unlock's.
    #[cold]
    fn abort_wait(&mut self, reason: AbortReason, chunk: u32) -> ! {
        let list = self.list;
        for held in self.held.hand_over().rev() {
            ops::release(&list.team, &list.pool, &mut self.probe, held, Release::Quiet { zombie: false });
        }
        self.held.intent = Intent::None;
        self.held.stamp = 0;
        self.list.recovery.aborts.fetch_add(1, Ordering::Relaxed);
        std::panic::panic_any(OpAbort { reason, chunk })
    }

    /// Bounded wait between lock attempts: exponential spin (capped at 64
    /// iterations) escalating into a scheduler yield, so a descheduled lock
    /// holder can run (essential on machines with fewer cores than worker
    /// threads; a GPU scheduler interleaves stalled warps for the same
    /// reason). `spins` is the acquisition's own counter; [`Self::note_wait`]
    /// decides when the wait gives up.
    fn lock_backoff(&mut self, spins: &mut u32, ch: u32) {
        *spins += 1;
        let n = *spins;
        self.note_wait(ch, n);
        // Spin-wait advisory for the model checker (see certify_backoff).
        gfsl_gpu_mem::schedule::wait_hint(
            self.list.chunk(ch).entry_addr(self.list.team.lock_lane()),
        );
        if n == STARVATION_RETRIES {
            self.stats.lock_starvation_events += 1;
        }
        if n < 7 {
            for _ in 0..(1u32 << n) {
                std::hint::spin_loop();
            }
        } else {
            self.stats.lock_backoff_yields += 1;
            std::thread::yield_now();
        }
    }

    /// Allocate a fresh chunk: all data entries EMPTY, `max = ∞`,
    /// `next = NIL`, **locked** (paper §4.1: "all chunks are allocated
    /// locked"). Recycled zombie chunks are consumed before the pool's bump
    /// pointer moves, which is what bounds the memory high-water mark under
    /// churn. The new chunk is tracked as held ([`HeldLocks::acquired`]).
    pub(crate) fn alloc_chunk(&mut self) -> Result<Held, Error> {
        let (idx, locked) = self.take_chunk()?;
        let held = ops::alloc(&self.list.team, &self.list.pool, &mut self.probe, idx, locked);
        self.held.acquired(idx);
        Ok(held)
    }

    /// Take a chunk for a new image: the free list's first, else the bump
    /// pointer's next. Returns it with the lock word it is to be written
    /// locked with: for a recycled chunk that word *continues the dead
    /// incarnation's version sequence* instead of restarting at zero — hint
    /// validation distinguishes incarnations purely by lock-word equality,
    /// which only works if a chunk's versions are monotonic across its
    /// lifetimes.
    pub(crate) fn take_chunk(&mut self) -> Result<(u32, u64), Error> {
        let list = self.list;
        let lanes = list.params.lanes() as u32;
        let recycled = list.reclaim.as_ref().and_then(|r| r.try_alloc());
        let idx = match recycled {
            Some(idx) => idx,
            None => list.pool.alloc(lanes, lanes).map_err(Error::PoolExhausted)? / lanes,
        };
        let ch = list.chunk(idx);
        let team = &list.team;
        // Mvcc: a long-lived ticket may still resolve this chunk's *old*
        // incarnation through an image's next pointer (ticket pins outlive
        // reclaimer grace). Before the lanes are overwritten, push the dead
        // incarnation's terminal zombie state onto the chain so those walks
        // keep seeing it; for a bump-fresh chunk there is no prior state
        // and the mark merely keeps this stamp epoch's later lock
        // acquisitions from capturing the half-built chunk.
        if let Some(mvcc) = list.mvcc.as_deref() {
            let tag = if self.held.stamp != 0 {
                self.held.stamp
            } else {
                mvcc.clock_now() + 1
            };
            if recycled.is_some() && mvcc.wants_capture(idx, tag) {
                let img: Vec<u64> = (0..team.lanes())
                    .map(|i| list.pool.read(ch.entry_addr(i)))
                    .collect();
                mvcc.capture(idx, tag, img);
            } else {
                mvcc.mark_created(idx, tag);
            }
        }
        if recycled.is_none() {
            return Ok((idx, crate::chunk::LOCK_LOCKED));
        }
        let old = list.pool.read(ch.entry_addr(team.lock_lane()));
        debug_assert_eq!(
            crate::chunk::lock_state(old),
            crate::chunk::LOCK_ZOMBIE,
            "recycled chunk {idx} was not a zombie"
        );
        Ok((idx, crate::chunk::lock_recycled(old)))
    }

    /// The head of `level`, allocated first if the level has none yet: the
    /// one place a level above 0 gets its `-∞` sentinel (DESIGN.md §4).
    /// Called only by an update about to write into `level`, whose level
    /// below has a head; readers treat a level without one as empty.
    ///
    /// The chunk is taken like any other but kept out of [`HeldLocks`]: its
    /// whole image — `-∞` pointing down at the head of `level - 1`, EMPTY
    /// lanes, `(∞, NIL)`, unlocked — is written before one CAS publishes it
    /// from `NIL`, so a crash before the CAS leaves an unreachable chunk
    /// and nothing to repair. A handle that loses the CAS to another one
    /// creating the same level returns the winner's head and hands its own
    /// chunk, which no other team ever saw, to the free list as a zombie
    /// (with reclamation off it stays allocated, as every zombie does then).
    pub(crate) fn head_or_grow(&mut self, level: usize) -> Result<u32, Error> {
        let list = self.list;
        let head = list.head_of(level);
        if head != NIL {
            return Ok(head);
        }
        let below = list.head_of(level - 1);
        debug_assert_ne!(below, NIL, "level {level} grown above a level with no head");
        let (idx, locked) = self.take_chunk()?;
        let publish = || list.head[level].compare_exchange(NIL, idx, Ordering::AcqRel, Ordering::Acquire);
        let early = crate::bug_knobs::early_head_publish().then(publish);
        let unlocked = crate::chunk::lock_released(locked);
        ops::write_image(&list.team, &list.pool, &mut self.probe, idx, Entry::new(KEY_NEG_INF, below), unlocked);
        self.probe.crash_point(gfsl_gpu_mem::probe::CrashPoint::HeadPublish);
        match early.unwrap_or_else(publish) {
            Ok(_) => Ok(idx),
            Err(head) => {
                if let Some(rec) = list.reclaim.as_ref() {
                    let lock = list.chunk(idx).entry_addr(list.team.lock_lane());
                    list.pool.write(lock, crate::chunk::lock_zombified(unlocked));
                    rec.recycle(idx);
                }
                Ok(head)
            }
        }
    }

    /// Hand an unlinked zombie run to the reclaimer: every chunk on the
    /// frozen next-chain from `from` (inclusive) to `until` (exclusive).
    /// The caller must be the run's unique unlinker (it holds the lock or
    /// won the CAS that made the run unreachable).
    pub(crate) fn retire_run(&mut self, from: u32, until: u32, level: usize) {
        let Some(rec) = self.list.reclaim.as_ref() else {
            return;
        };
        let lock_lane = self.list.team.lock_lane();
        let mut cur = from;
        while cur != until && cur != NIL {
            debug_assert_eq!(
                crate::chunk::lock_state(self.list.pool.read(self.list.chunk(cur).entry_addr(lock_lane))),
                crate::chunk::LOCK_ZOMBIE,
                "retiring non-zombie chunk {cur}"
            );
            rec.retire(cur, level as u8);
            cur = self.list.next_of(cur);
        }
    }

    /// Reclamation driver, called from the update entry points (never while
    /// holding chunk locks — the verification scan performs certified
    /// reads, which may wait on lock holders). With nothing in grace, no
    /// level flagged for a head-edge sweep and no version image retained it
    /// returns after a relaxed load of a word no update writes; otherwise
    /// every [`RECLAIM_PERIOD`]th update runs a pass.
    ///
    /// A handle that has lived a full period paces itself on its own update
    /// count, as every handle once did: no shared write even while work is
    /// pending, and a pass falls on the same update of a long-lived handle's
    /// stream whether or not the list was idle before. Younger handles —
    /// the cluster mints one per operation — pool their pending updates in
    /// the list's counter instead, so they add up to the same cadence
    /// though none of them would ever count to a period alone.
    ///
    /// Such a pass verifies in batches sized by the walk they cost: it
    /// drains the grace-passed candidates only once they number at least
    /// half the parent chunks the last verification walk read (the first
    /// walk goes at once), see [`Self::batch_is_due`]. So a walk of the
    /// whole parent level is paid for by many chunks, not by the one or two
    /// that came due in the last period.
    pub(crate) fn maybe_reclaim(&mut self) {
        let list = self.list;
        let Some(rec) = list.reclaim.as_ref() else {
            return;
        };
        self.reclaim_tick = self.reclaim_tick.wrapping_add(1);
        if !rec.has_work() && !list.mvcc.as_deref().is_some_and(|m| m.has_images()) {
            return;
        }
        let tick = if self.reclaim_tick >= RECLAIM_PERIOD {
            self.reclaim_tick
        } else {
            list.reclaim_ticks.fetch_add(1, Ordering::Relaxed) + 1
        };
        if tick.is_multiple_of(RECLAIM_PERIOD) {
            self.run_pass(true);
        }
    }

    /// Run one full reclamation pass now: sweep the flagged head edges,
    /// move verified chunks whose second grace period elapsed to the free
    /// list, then drain every grace-passed retired candidate and verify
    /// them, however few (the periodic pass an update runs waits for a
    /// batch instead). Returns the number of chunks that reached the free
    /// list: 0 when reclamation is disabled, and when another handle's pass
    /// is in flight (passes are serialized, so a chunk one pass holds as a
    /// candidate is never missing from what another consults).
    ///
    /// A verification walk that gives up a wait (a quarantined parent
    /// chunk, or the retry budget spent) puts its batch back in limbo and
    /// ends the pass; the caller's own operation goes on.
    ///
    /// Must not be called while holding chunk locks (see
    /// `maybe_reclaim`); public operations call it automatically,
    /// tests and maintenance loops may call it directly.
    pub fn reclaim_pass(&mut self) -> usize {
        self.run_pass(false)
    }

    /// [`Self::reclaim_pass`]; a `batched` pass drains and verifies only
    /// when [`Self::batch_is_due`].
    fn run_pass(&mut self, batched: bool) -> usize {
        let list = self.list;
        let mut freed = 0;
        if let Some(rec) = list.reclaim.as_ref() {
            struct Busy<'a>(&'a AtomicBool);
            impl Drop for Busy<'_> {
                fn drop(&mut self) {
                    self.0.store(false, Ordering::Release);
                }
            }
            if list.reclaim_busy.swap(true, Ordering::Acquire) {
                rec.note_pass_skipped();
                return 0;
            }
            // Released from a drop guard, like `with_pin`'s unpin: a pass
            // that dies mid-scan must not end reclamation for good.
            let _busy = Busy(&list.reclaim_busy);
            self.sweep_head_edge();
            // Two advances a pass, one ahead of each drain: whatever was
            // retired before this pass is a candidate in it when no pin
            // lags, and a staged chunk is free two passes on.
            rec.try_advance();
            freed = rec.harvest_verified();
            rec.try_advance();
            let scanned = if !batched || self.batch_is_due(rec) {
                self.verify_ready(rec)
            } else {
                0
            };
            rec.note_pass(scanned);
        }
        self.vacuum_versions();
        freed
    }

    /// Whether a periodic pass should verify now: the candidates whose
    /// grace has elapsed are at least half as many as the parent chunks the
    /// last walk read, so the walk costs at most two reads per candidate.
    /// Deferring only lengthens a candidate's grace. It must not run the
    /// pool dry, though: when fewer chunks are left to allocate (bump
    /// headroom plus the free list) than the batch being waited for, the
    /// pass verifies anyway. The headroom test alone comes first, so a
    /// roomy pool never takes the free list's lock.
    fn batch_is_due(&self, rec: &EpochReclaimer) -> bool {
        let list = self.list;
        let walk = list.last_walk.load(Ordering::Relaxed);
        let headroom = u64::from(list.params.pool_chunks - list.chunks_allocated());
        2 * rec.ready_candidates() >= walk
            || (2 * headroom < walk && 2 * (headroom + rec.free_len()) < walk)
    }

    /// Drain every grace-passed candidate and verify the batch; returns the
    /// parent chunks the walk read. A walk that gives up a wait (its
    /// [`OpAbort`], raised by [`Self::note_wait`] with nothing held) puts
    /// the whole batch back in limbo, where a later pass finds it once the
    /// quarantine is repaired; any other panic unwinds on.
    fn verify_ready(&mut self, rec: &EpochReclaimer) -> u64 {
        let mut cands = std::mem::take(&mut self.reclaim_cands);
        rec.drain_candidates(&mut cands);
        let mut scanned = 0;
        if !cands.is_empty() {
            // `abort_wait` clears the stamp of the update this pass runs in.
            let stamp = self.held.stamp;
            let walk = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                self.with_pin(|h| h.verify_candidates(&mut cands, &mut scanned))
            }));
            match walk {
                Ok(()) => self.list.last_walk.store(scanned, Ordering::Relaxed),
                Err(payload) if payload.is::<OpAbort>() => {
                    self.held.stamp = stamp;
                    for &(c, lvl) in &cands {
                        rec.requeue(c, lvl & !REFERENCED);
                    }
                }
                Err(payload) => std::panic::resume_unwind(payload),
            }
        }
        cands.clear();
        self.reclaim_cands = cands;
        scanned
    }

    /// Vacuum the mvcc version chains (no-op without the knob). The vacuum
    /// must run with the version fence held so no ticket can be minted
    /// mid-pass: a stamped caller (the periodic pass inside an update)
    /// already holds it shared via `with_version_stamp`; direct callers
    /// (tests, maintenance loops) acquire it here.
    fn vacuum_versions(&mut self) {
        let Some(mvcc) = self.list.mvcc.as_deref() else {
            return;
        };
        if self.held.stamp != 0 {
            mvcc.vacuum_locked();
        } else {
            let _fence = mvcc.writer_fence();
            mvcc.vacuum_locked();
        }
    }

    /// Unlink zombie runs parked at the head edge of the levels a merge
    /// flagged since the last sweep ([`Gfsl::note_zombie`]).
    ///
    /// Traversal unlinks are lazy: a run is swung past when a walk
    /// lateral-steps onto it with a known predecessor
    /// (`redirect_past_zombies`) or when `lock_next_chunk` skips it. A run
    /// sitting directly behind a level's first chunk is invisible to both —
    /// no traversal ever lateral-steps *from* a sentinel, and merges repair
    /// parent down pointers to land past the run. Monotone workloads
    /// (sliding windows, FIFO churn) retire chunks exclusively at that left
    /// edge, so without this sweep they would never be retired at all. A
    /// zombie only ever appears at a level's head edge through a merge on
    /// that level, so the flagged levels are all there is to visit — also
    /// on a level that has since emptied. A level whose sweep lost a race
    /// is flagged again for the next pass.
    fn sweep_head_edge(&mut self) {
        let mut dirty = self.list.reclaim.as_ref().map_or(0, |r| r.take_flags());
        while dirty != 0 {
            let level = dirty.trailing_zeros() as usize;
            dirty &= dirty - 1;
            if !self.sweep_level(level) {
                self.list.note_zombie(level);
            }
        }
    }

    /// One level of [`Self::sweep_head_edge`], by the traversal protocol:
    /// best-effort try-lock on the first live chunk, re-verify, single-word
    /// pointer swing, retire. `false` when a racer got in the way.
    fn sweep_level(&mut self, level: usize) -> bool {
        let team = self.list.team;
        if self.list.head_of(level) == NIL {
            return true; // no head, no zombie behind it
        }
        // A zombified first chunk: swing the head-array pointer itself (a
        // failed CAS means a racer swung it first; re-check).
        let mut view = ChunkView::BLANK;
        let head = loop {
            let head = self.list.head_of(level);
            let ChunkRead::Zombie { next } = self.read_chunk_into(head, None, &mut view) else {
                break head;
            };
            let nz = self.first_non_zombie(next, &mut view);
            self.update_head(level, head, nz);
        };
        // A zombie run right behind the first live chunk.
        let next = view.next(&team);
        if next == NIL {
            return true;
        }
        let ChunkRead::Zombie { next: znext } = self.read_chunk_into(next, None, &mut view) else {
            return true;
        };
        let nz = self.first_non_zombie(znext, &mut view);
        self.redirect_past_zombies(head, next, nz, level);
        // Still in place: the try-lock lost.
        self.list.next_of(head) != next
    }

    /// Decide each grace-passed candidate's fate: stage it for the free
    /// list if nothing can still lead a reader to it, otherwise requeue it
    /// for a later pass. Counts the parent-level chunks it reads in
    /// `scanned`, which stays meaningful if the walk unwinds.
    ///
    /// A reader can only *acquire* a pointer to an unlinked zombie from
    /// (a) a stale down-pointer still sitting in the live chain one level
    /// up (installed by a repairer that obtained the chunk before it was
    /// retired — any such repairer was pinned before the retire, so after
    /// the first grace period the scan sees the final set of installs, and
    /// no new ones can appear), (b) the frozen next pointer of another
    /// zombie that is itself still awaiting reclamation (a reader parked
    /// there steps through it), or (c) the head array (defensive — heads
    /// are CASed away before retirement). Candidates clean on all three
    /// are *staged*, not freed: a reader may have copied a stale pointer
    /// into a register just before its source was repaired, so the chunk
    /// waits out one more grace period (covering every pin live at scan
    /// time) before `alloc_chunk` may reuse it.
    ///
    /// The walk reads each parent chunk once, bracketed by its lock word
    /// read first: a chunk no writer overlapped is certified by that one
    /// read, and only an overlapped one is re-read until certified
    /// ([`Self::read_certified`]). The periodic pass sizes the batch by this walk, so
    /// it costs at most two parent reads per candidate.
    ///
    /// The batch is still fewer chunks than the references it is checked
    /// against, so it is the batch that is indexed: sorted by chunk, with
    /// the level byte's top bit as the [`REFERENCED`] mark a binary search
    /// sets.
    fn verify_candidates(&mut self, cands: &mut [(u32, u8)], scanned: &mut u64) {
        let list = self.list;
        let rec = list.reclaim.as_ref().unwrap();
        let team = list.team;
        cands.sort_unstable();
        fn mark(cands: &mut [(u32, u8)], chunk: u32) -> bool {
            match cands.binary_search_by_key(&chunk, |&(c, _)| c) {
                Ok(i) if cands[i].1 & REFERENCED == 0 => {
                    cands[i].1 |= REFERENCED;
                    true
                }
                _ => false,
            }
        }
        // (a) data entries (down-pointers) in the live chain of each
        // candidate's parent level (none in a parent level with no head).
        let mut parents = cands.iter().fold(0u64, |m, &(_, l)| m | 2 << l);
        parents &= (1 << list.params.max_levels()) - 1;
        let mut view = ChunkView::BLANK;
        while parents != 0 {
            let mut cur = list.head_of(parents.trailing_zeros() as usize);
            parents &= parents - 1;
            while cur != NIL {
                let read = self.read_bracketed(cur, &mut view);
                *scanned += 1;
                if let ChunkRead::Zombie { next } = read {
                    cur = next;
                    continue;
                }
                for (_, e) in view.live_entries(&team) {
                    mark(cands, e.val());
                }
                cur = view.next(&team);
            }
        }
        // (b) frozen next pointers of everything else still awaiting
        // reclamation (pending retirees and staged chunks; the batch itself
        // left limbo when it was drained). References between batch
        // members are handled by the run fixpoint below instead of
        // blocking verification outright.
        rec.for_each_pending(|z| {
            mark(cands, list.next_of(z));
        });
        // (c) the head array, up to the levels' high-water mark: a level
        // above it never held a key, so it has no head or the sentinel it
        // was grown with, never a candidate.
        for lvl in 0..=list.levels_high_water() {
            mark(cands, list.head_of(lvl));
        }
        // Whole-run staging fixpoint. A retired run Z1 → Z2 → … → Zk is
        // chained by its own frozen next pointers; treating those as live
        // references would drain one chunk per grace period and lose the
        // race against steady churn. Instead, stage the largest subset `S`
        // of the batch in which every member is unreferenced by live memory
        // AND by batch members outside `S`: a reader can only be inside an
        // externally-unreferenced run if it was pinned before this scan, so
        // the single staging grace shared by the whole run covers it, and
        // after that grace no pointer into the run exists anywhere.
        loop {
            let mut grew = false;
            for i in 0..cands.len() {
                let (c, lvl) = cands[i];
                if lvl & REFERENCED != 0 {
                    grew |= mark(cands, list.next_of(c));
                }
            }
            if !grew {
                break;
            }
        }
        for &(c, lvl) in cands.iter() {
            if lvl & REFERENCED != 0 {
                rec.requeue(c, lvl & !REFERENCED);
            } else if crate::bug_knobs::skip_staging_grace() {
                rec.recycle(c);
            } else {
                rec.stage_verified(c);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::KEY_INF;

    #[test]
    fn a_new_list_has_one_head_and_grows_the_others_on_first_use() {
        let list = Gfsl::new(GfslParams::default()).unwrap();
        assert_eq!(list.chunks_allocated(), 1, "the bottom level's head only");
        assert_eq!(list.height(), 0);
        assert!((1..list.params.max_levels()).all(|l| list.head_of(l) == NIL));
        let mut h = list.handle();
        // Bottom sentinel: -inf at entry 0, rest empty, max = inf, next NIL.
        let head0 = list.head_of(0);
        let v = h.read_chunk(head0);
        let team = list.team;
        assert_eq!(v.entry(0).key(), KEY_NEG_INF);
        assert!(v.entry(1).is_empty());
        assert_eq!(v.max(&team), KEY_INF);
        assert_eq!(v.next(&team), NIL);
        assert!(!v.is_zombie(&team));
        // A grown head is the same sentinel one level up, unlocked and
        // pointing down to the head below; asking again returns it.
        let head1 = h.head_or_grow(1).unwrap();
        assert_eq!((list.head_of(1), h.head_or_grow(1)), (head1, Ok(head1)));
        let v1 = h.read_chunk(head1);
        assert_eq!((v1.entry(0).key(), v1.entry(0).val()), (KEY_NEG_INF, head0));
        assert!(v1.entry(1).is_empty() && !v1.is_locked(&team));
        assert_eq!((v1.max(&team), v1.next(&team)), (KEY_INF, NIL));
        assert_eq!(list.chunks_allocated(), 2);
        assert!(h.held.chunks.is_empty(), "a head is never held");
        list.assert_valid();
    }

    /// Ascending inserts (`p_chunk = 1`): a level's head appears with the
    /// raise that first reaches the level, in the same insert that makes it
    /// the height, and no sooner; the heads stay a prefix that never
    /// shrinks, and the structure validates after every insert.
    #[test]
    fn ascending_inserts_grow_each_head_when_a_raise_first_reaches_it() {
        let list = list16();
        let mut h = list.handle();
        let mut grown = vec![0u32];
        for k in 1..=2_500u32 {
            let heads = list.heads().count();
            h.insert(k, k).unwrap();
            let now = list.heads().count();
            assert!(now == heads || now == heads + 1, "one level at a time, at key {k}");
            assert_eq!(now, list.height() + 1, "the levels in use have heads, at key {k}");
            if now > heads {
                let new = list.head_of(heads);
                assert_eq!(new + 1, list.chunks_allocated(), "after the splits below it, at key {k}");
                assert_eq!(h.read_chunk(new).entry(0).val(), list.head_of(heads - 1));
                grown.push(k);
            }
            assert!(list.validate().is_empty(), "at key {k}: {:?}", list.validate());
        }
        // Full chunks of 13 keys and the head's `-inf`: level 1 at the
        // first split, level 2 at the fourteenth.
        assert_eq!(grown, [0, 14, 196]);
    }

    #[test]
    fn handles_get_distinct_rng_streams() {
        let list = Gfsl::new(GfslParams::default()).unwrap();
        let mut a = list.handle();
        let mut b = list.handle();
        assert_ne!(a.rng.next_u64(), b.rng.next_u64());
    }

    #[test]
    fn full_handle_table_is_a_typed_error() {
        let list = Gfsl::new(GfslParams::default()).unwrap();
        let mut live: Vec<_> = (0..MAX_RECLAIM_HANDLES)
            .map(|_| list.try_handle().expect("a free slot"))
            .collect();
        // The 1,025th live handle.
        assert!(matches!(list.try_handle(), Err(Error::TooManyHandles)));
        live.pop();
        assert!(list.try_handle().is_ok(), "a dropped handle frees its slot");
    }

    #[test]
    fn alloc_chunk_is_locked_and_empty() {
        let list = Gfsl::new(GfslParams::default()).unwrap();
        let mut h = list.handle();
        let c = h.alloc_chunk().unwrap();
        let v = h.read_chunk(c.chunk());
        let team = list.team;
        assert!(v.is_locked(&team));
        assert_eq!(v.num_keys(&team), 0);
        assert_eq!(v.max(&team), KEY_INF);
        assert_eq!(v.next(&team), NIL);
    }

    #[test]
    fn pool_exhaustion_is_reported() {
        let params = GfslParams {
            pool_chunks: 2,
            ..Default::default()
        };
        let list = Gfsl::new(params).unwrap();
        let mut h = list.handle();
        assert!(h.alloc_chunk().is_ok());
        match h.alloc_chunk() {
            Err(Error::PoolExhausted(_)) => {}
            other => panic!("expected exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn level_counters_saturate_at_zero() {
        let list = Gfsl::new(GfslParams::default()).unwrap();
        list.dec_level_chunks(3);
        assert_eq!(list.level_chunk_count(3), 0);
        list.inc_level_chunks(3);
        assert_eq!(list.level_chunk_count(3), 1);
        assert_eq!(list.height(), 3);
        list.dec_level_chunks(3);
        assert_eq!(list.height(), 0);
    }

    fn list16() -> Gfsl {
        Gfsl::new(GfslParams {
            team_size: gfsl_simt::TeamSize::Sixteen,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn height_after_a_bulk_build_is_the_full_scan() {
        let list =
            Gfsl::from_sorted_pairs(list16().params, (1..=20_000u32).map(|k| (k, k))).unwrap();
        assert!(list.height() >= 3);
        assert_eq!(list.height(), list.scanned_height());
    }

    /// Grow the index one split at a time, then drain it: the height tracks
    /// the full scan through every level a split opens and every level the
    /// merges empty (`note_possible_level_empty`'s zero store).
    #[test]
    fn height_tracks_levels_opened_by_splits_and_emptied_by_merges() {
        let list = list16();
        let mut h = list.handle();
        let (mut opened, mut emptied) = (0, 0);
        let mut last = 0;
        for k in 1..=3_000u32 {
            h.insert(k, k).unwrap();
            assert_eq!(list.height(), list.scanned_height(), "after inserting {k}");
            opened += list.height().saturating_sub(last);
            last = list.height();
        }
        for k in 1..=3_000u32 {
            assert!(h.remove(k));
            assert_eq!(list.height(), list.scanned_height(), "after removing {k}");
            emptied += last.saturating_sub(list.height());
            last = list.height();
        }
        assert!(opened >= 3, "{opened} levels opened");
        assert_eq!(emptied, opened, "every opened level emptied again");
    }

    #[test]
    fn find_and_lock_enclosing_locks_sentinel_for_any_key() {
        let list = Gfsl::new(GfslParams::default()).unwrap();
        let mut h = list.handle();
        let head0 = list.head_of(0);
        let mut view = ChunkView::BLANK;
        let locked = h.find_and_lock_enclosing(head0, 500, &mut view);
        assert_eq!(locked.chunk(), head0, "sentinel has max = inf, encloses everything");
        let v = h.read_chunk(locked.chunk());
        assert!(v.is_locked(&list.team));
        h.unlock(locked);
    }

    #[test]
    fn a_certified_view_written_since_falls_back_to_the_locking_walk() {
        let list = Gfsl::new(GfslParams::default()).unwrap();
        let team = list.team;
        let mut h = list.handle();
        for k in [10, 20, 30, 40] {
            h.insert(k, k).unwrap();
        }
        // Quiescent: the search's view is certified and one CAS locks it,
        // with no chunk read.
        let mut view = ChunkView::BLANK;
        let (found, _) = h.search_slow(25, &mut view);
        assert!(found.certified.is_some(), "a quiescent chunk's view is certified");
        let (reads, retries) = (h.stats().chunk_reads, h.stats().lock_retries);
        let p = h.lock_certified(&found, 25, &mut view);
        assert_eq!((h.stats().chunk_reads, h.stats().lock_retries), (reads, retries));
        h.unlock(p);

        // A second handle writes the chunk between the search and the lock.
        let (found, _) = h.search_slow(25, &mut view);
        assert!(found.certified.is_some());
        list.handle().insert(15, 15).unwrap();
        let (reads, retries) = (h.stats().chunk_reads, h.stats().lock_retries);
        let p = h.lock_certified(&found, 25, &mut view);
        assert_eq!(h.stats().lock_retries, retries + 1, "the failed CAS is a retry");
        assert_eq!(h.stats().chunk_reads, reads + 2, "read, lock, re-read");
        assert!(view.is_locked(&team) && view.contains_key(&team, 15), "the view is the chunk's");
        h.unlock(p);

        // The other handle's key survived, and the insert the lock was
        // taken for goes in next to it (`lock-upgrade-2t` explores the race
        // inside one op).
        assert!(h.insert(25, 25).unwrap());
        assert_eq!(list.keys(), vec![10, 15, 20, 25, 30, 40]);
        list.assert_valid();
    }

    /// A lock nobody quarantined, as a stalled live writer holds it: an
    /// insert whose split must lock that chunk gives the wait up after
    /// [`CONTAINED_RETRY_BUDGET`] retries and releases the chunk it held.
    /// `try_insert` returns the abort; `insert` unwinds with the same one.
    #[test]
    fn a_wait_on_a_stalled_writer_aborts_at_the_budget() {
        crate::quiet_injected_panics();
        let list = list16();
        let team = list.team;
        let mut h = list.handle();
        for k in 1..=40u32 {
            h.insert(k * 10, k).unwrap();
        }
        // Fill the head chunk: inserting one more key there splits it,
        // which locks its next chunk.
        let head = list.head_of(0);
        let mut k = 1;
        while (h.read_chunk(head).num_keys(&team) as usize) < team.dsize() {
            h.insert(k, k).unwrap();
            k += 1;
        }
        let next = h.read_chunk(head).next(&team);
        let min = h.read_chunk(next).entry(0).key();
        let mut stalled = list.handle();
        let mut view = ChunkView::BLANK;
        let stall = stalled.find_and_lock_enclosing(next, min, &mut view);
        assert_eq!(stall.chunk(), next);
        let keys = list.keys();

        let expected = OpAbort {
            reason: AbortReason::RetryBudget,
            chunk: next,
        };
        assert_eq!(h.try_insert(k, k), Err(Error::Aborted(expected)));
        let unlocked = |c: u32| {
            let word = list.pool.read(list.chunk(c).entry_addr(team.lock_lane()));
            crate::chunk::lock_state(word) == LOCK_UNLOCKED
        };
        assert!(h.held.chunks.is_empty() && h.held.intent == Intent::None);
        assert!(unlocked(head), "the aborted insert released the chunk it held");
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| h.insert(k, k)))
            .expect_err("a plain insert unwinds with the abort");
        assert_eq!(payload.downcast_ref::<OpAbort>(), Some(&expected));
        assert!(h.held.chunks.is_empty() && unlocked(head));
        assert_eq!(list.keys(), keys, "neither abort had any effect");
        assert_eq!(list.repair_stats().aborts, 2);
        assert_eq!(list.quarantine_depth(), 0);

        stalled.unlock(stall);
        assert!(h.insert(k, k).unwrap());
        list.assert_valid();
    }

    #[test]
    fn lock_next_chunk_of_last_is_none() {
        let list = Gfsl::new(GfslParams::default()).unwrap();
        let mut h = list.handle();
        let head0 = list.head_of(0);
        let mut view = ChunkView::BLANK;
        let locked = h.find_and_lock_enclosing(head0, 5, &mut view);
        assert_eq!(h.lock_next_chunk(&locked, 0), None);
        h.unlock(locked);
    }
}
