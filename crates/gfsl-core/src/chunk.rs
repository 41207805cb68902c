//! Chunk layout: entry packing, lock states, and the team-wide chunk view.
//!
//! A chunk of size `N` (Fig. 3.1 of the paper) is `N` consecutive 64-bit
//! words:
//!
//! ```text
//!   index:   0 .. N-3            N-2               N-1
//!   entry:   DATA (key,value)    NEXT (max,next)   LOCK
//!   low 32:  key                 max key           lock state
//!   high 32: value / down-ptr    next chunk index  (unused)
//! ```
//!
//! Data entries are sorted ascending with `EMPTY` (∞) entries grouped at the
//! end. The first chunk of every level holds the `-∞` key in entry 0. The
//! last chunk of every level has `max = ∞` and `next = NIL`.

use gfsl_gpu_mem::probe::CrashPoint;
use gfsl_gpu_mem::{MemProbe, WordAddr, WordPool, WordSpan};
use gfsl_simt::{vector, Ballot, LaneId, Team, TeamSize, WarpRegs, WARP_SIZE};

/// The `-∞` key stored in the first chunk of every level. Distinct from all
/// user keys.
pub const KEY_NEG_INF: u32 = 0;

/// The `∞` key: marks EMPTY data entries and the max field of the last chunk
/// in a level. Distinct from all user keys.
pub const KEY_INF: u32 = u32::MAX;

/// Null chunk pointer (the next field of the last chunk in a level).
pub const NIL: u32 = u32::MAX;

/// Lock-word state (low bits): chunk is unlocked.
pub const LOCK_UNLOCKED: u64 = 0;
/// Lock-word state (low bits): chunk is locked by some team.
pub const LOCK_LOCKED: u64 = 1;
/// Lock-word state (low bits): chunk has been merged away. Terminal — a
/// zombie's contents never change again and the chunk is never unlocked or
/// reused.
pub const LOCK_ZOMBIE: u64 = 2;
/// Mask selecting the state bits of a lock word. The remaining 62 bits are
/// a *release version*: every unlock bumps it, so two equal reads of an
/// unlocked lock word bracketing a chunk read certify that no writer held
/// the chunk (hence no entry moved) anywhere between them. Lock-free
/// readers use this to certify torn-read-hazardous `NotFound` answers (see
/// `walk_lateral`); the shift loops alone cannot protect a key that moves
/// *toward* a concurrently scanning reader.
pub const LOCK_STATE_MASK: u64 = 0b11;
/// One release-version increment (the version lives above the state bits).
pub const LOCK_VERSION_UNIT: u64 = 0b100;

/// The state bits of a lock word.
#[inline]
pub const fn lock_state(word: u64) -> u64 {
    word & LOCK_STATE_MASK
}

/// The word a held lock `held` is released to: unlocked, with the release
/// version bumped.
#[inline]
pub(crate) const fn lock_released(held: u64) -> u64 {
    (held & !LOCK_STATE_MASK).wrapping_add(LOCK_VERSION_UNIT) | LOCK_UNLOCKED
}

/// The zombie marker a held lock `held` turns into: the release version is
/// kept.
#[inline]
pub(crate) const fn lock_zombified(held: u64) -> u64 {
    (held & !LOCK_STATE_MASK) | LOCK_ZOMBIE
}

/// A recycled chunk's first lock word, from its zombie word `zombie`:
/// locked, continuing the chunk's release-version sequence.
#[inline]
pub(crate) const fn lock_recycled(zombie: u64) -> u64 {
    (zombie & !LOCK_STATE_MASK).wrapping_add(LOCK_VERSION_UNIT) | LOCK_LOCKED
}

/// Is `k` usable as a user key? (`-∞` and `∞` are reserved.)
#[inline]
pub const fn is_user_key(k: u32) -> bool {
    k != KEY_NEG_INF && k != KEY_INF
}

/// A packed 8-byte chunk entry: key in the low 32 bits, value (or pointer)
/// in the high 32 bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Entry(pub u64);

impl Entry {
    /// An EMPTY (∞) data entry.
    pub const EMPTY: Entry = Entry::new(KEY_INF, 0);

    /// Pack a key/value pair.
    #[inline]
    pub const fn new(key: u32, val: u32) -> Entry {
        Entry(((val as u64) << 32) | key as u64)
    }

    /// The key half.
    #[inline]
    pub const fn key(self) -> u32 {
        self.0 as u32
    }

    /// The value half (a user value at level 0, a down-pointer above, the
    /// next-pointer in the NEXT entry).
    #[inline]
    pub const fn val(self) -> u32 {
        (self.0 >> 32) as u32
    }

    /// Is this an EMPTY data entry?
    #[inline]
    pub const fn is_empty(self) -> bool {
        self.key() == KEY_INF
    }
}

/// A chunk's address plus the team geometry needed to interpret it.
#[derive(Debug, Clone, Copy)]
pub struct ChunkRef {
    /// Base word address of the chunk in the pool.
    pub base: WordAddr,
}

impl ChunkRef {
    /// Word address of entry `i`.
    #[inline]
    pub fn entry_addr(self, i: usize) -> WordAddr {
        self.base + i as u32
    }
}

/// The team-wide registers holding one chunk read: lane `i` holds entry `i`.
///
/// This is the result of the single lockstep "read the whole chunk"
/// instruction: each lane's load is individually atomic, the combination is
/// a point-in-time-per-word snapshot only — exactly what the GPU provides
/// and what the algorithm is designed to tolerate.
///
/// A view is 256 bytes. Traversals keep one or two of them as buffers and
/// `reload` them in place, passing `&ChunkView` around;
/// nothing on a traversal moves one by value.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView {
    regs: WarpRegs,
}

/// A lock word that *certified* a view: observed before the view's data
/// lanes were read, and repeated, unlocked, by the view's own LOCK lane,
/// read after them. Every entry move happens under the chunk lock and every
/// release bumps the word's version, so no entry moved while such a view
/// was read. Only [`ChunkView::reload`] mints one, and it is the only word
/// the update path's bottom-lock upgrade CASes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Certified(u64);

impl Certified {
    /// The bracketing lock word.
    #[inline]
    pub(crate) fn word(self) -> u64 {
        self.0
    }
}

/// What one team read of a chunk can support: the value of
/// [`ChunkView::reload`]. A decision asserting that a key is absent from
/// the view (a lateral `NotFound`, a range emit, a minimum) needs
/// `Certified`; a zombie step needs `Zombie` and follows its `next`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum ChunkRead {
    /// The LOCK lane read ZOMBIE. `next` is the NEXT lane as read again
    /// after the mark was seen, and it always names a chunk: only a merge
    /// (or repair rolling a merge forward) zombifies a chunk, it does so
    /// while holding the chunk's successor as the absorber, and a level's
    /// last chunk is never merged away. A zombie's NEXT lane never changes
    /// from the mark on, and a pinned reader keeps the chunk from being
    /// recycled, so the re-read is the pointer every zombie step may
    /// follow. The first read of the lane can predate a split of the chunk
    /// that the merge then drained, and so skip the split's new chunk,
    /// which holds the moved keys (the torn zombie view).
    Zombie { next: u32 },
    /// A live view no pre-read word certified. `unlocked` is its LOCK lane
    /// when that shows the chunk unlocked.
    Live { unlocked: Option<u64> },
    /// A live view whose LOCK lane repeats, unlocked, the lock word the
    /// caller observed before the read.
    Certified(Certified),
}

impl ChunkView {
    /// A buffer no read has filled yet (reads as an unlocked chunk whose
    /// every key is `-∞`; only ever a `reload` target).
    pub const BLANK: ChunkView = ChunkView { regs: [0; WARP_SIZE] };

    /// Read all `N` entries of the chunk at `ch` in one lockstep team read.
    #[inline]
    pub fn read<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, ch: ChunkRef) -> Self {
        let mut view = ChunkView::BLANK;
        view.reload(team, pool, probe, ch, None);
        view
    }

    /// Overwrite this view with one lockstep team read of the chunk at
    /// `ch`, and say what the view can support. One probe event and one
    /// bounds check for the chunk, then one `Acquire` load per lane in
    /// ascending lane order, so the LOCK lane is read after every other
    /// lane: `before`, a lock word the caller read before this call, is
    /// compared with it to certify the view. A LOCK lane that reads ZOMBIE
    /// is followed by one more read of the NEXT lane (see
    /// [`ChunkRead::Zombie`]). This is the only code that compares a
    /// pre-read lock word with a view's LOCK lane.
    #[inline]
    pub(crate) fn reload<P: MemProbe>(
        &mut self,
        team: &Team,
        pool: &WordPool,
        probe: &mut P,
        ch: ChunkRef,
        before: Option<u64>,
    ) -> ChunkRead {
        match team.size() {
            TeamSize::Sixteen => self.reload_lanes::<16, P>(pool, probe, ch, before),
            TeamSize::ThirtyTwo => self.reload_lanes::<32, P>(pool, probe, ch, before),
        }
    }

    #[inline(always)]
    fn reload_lanes<const N: usize, P: MemProbe>(
        &mut self,
        pool: &WordPool,
        probe: &mut P,
        ch: ChunkRef,
        before: Option<u64>,
    ) -> ChunkRead {
        let addrs: [WordAddr; N] = std::array::from_fn(|lane| ch.entry_addr(lane));
        probe.warp_read(&addrs);
        let regs = self.regs.first_chunk_mut::<N>().expect("a team is at most a warp wide");
        pool.read_words(ch.base, regs);
        let lock = regs[N - 1];
        match lock_state(lock) {
            LOCK_ZOMBIE => {
                if !crate::bug_knobs::torn_zombie_next() {
                    let next = ch.entry_addr(N - 2);
                    probe.lane_read(next);
                    regs[N - 2] = pool.read(next);
                }
                ChunkRead::Zombie { next: Entry(regs[N - 2]).val() }
            }
            LOCK_UNLOCKED if before == Some(lock) => ChunkRead::Certified(Certified(lock)),
            LOCK_UNLOCKED => ChunkRead::Live { unlocked: Some(lock) },
            _ => ChunkRead::Live { unlocked: None },
        }
    }

    /// Overwrite this view with an mvcc version image, and say what it
    /// supports. An image is never torn: a live chunk's pre-image, read under
    /// its writer's lock, or a recycled chunk's terminal zombie state.
    #[inline]
    pub(crate) fn load_image(&mut self, team: &Team, lanes: &[u64]) -> ChunkRead {
        self.regs[..team.lanes()].copy_from_slice(lanes);
        if self.is_zombie(team) {
            ChunkRead::Zombie { next: self.next(team) }
        } else {
            ChunkRead::Live { unlocked: None }
        }
    }

    /// Entry held by lane `lane`.
    #[inline]
    pub fn entry(&self, lane: LaneId) -> Entry {
        Entry(self.regs[lane])
    }

    /// The chunk's max field (key half of the NEXT entry).
    #[inline]
    pub fn max(&self, team: &Team) -> u32 {
        self.entry(team.next_lane()).key()
    }

    /// The chunk's next pointer (value half of the NEXT entry), `NIL` for
    /// the last chunk in a level.
    #[inline]
    pub fn next(&self, team: &Team) -> u32 {
        self.entry(team.next_lane()).val()
    }

    /// Raw lock word.
    #[inline]
    pub fn lock_word(&self, team: &Team) -> u64 {
        self.regs[team.lock_lane()]
    }

    /// Was the chunk a zombie at read time?
    #[inline]
    pub fn is_zombie(&self, team: &Team) -> bool {
        lock_state(self.lock_word(team)) == LOCK_ZOMBIE
    }

    /// Was the chunk locked at read time?
    #[inline]
    pub fn is_locked(&self, team: &Team) -> bool {
        lock_state(self.lock_word(team)) == LOCK_LOCKED
    }

    /// Number of non-EMPTY data entries (cooperative `numKeysInChunk`).
    #[inline]
    pub fn num_keys(&self, team: &Team) -> u32 {
        self.keys_le(team, KEY_INF - 1).count()
    }

    /// Does the chunk's data array contain `k`? (cooperative
    /// `chunkContains`).
    #[inline]
    pub fn contains_key(&self, team: &Team, k: u32) -> bool {
        self.lane_of_key(team, k).is_some()
    }

    /// The *highest* data lane holding `k`, if any. Highest matters: during
    /// shifts a key may transiently appear twice and the rightmost copy is
    /// the authoritative one (paper §4.2.2).
    #[inline]
    pub fn lane_of_key(&self, team: &Team, k: u32) -> Option<LaneId> {
        self.keys_eq(team, k).highest()
    }

    /// Data entries as `(lane, entry)` pairs, non-EMPTY only.
    pub fn live_entries<'a>(&'a self, team: &'a Team) -> impl Iterator<Item = (LaneId, Entry)> + 'a {
        (0..team.dsize())
            .map(|lane| (lane, self.entry(lane)))
            .filter(|(_, e)| !e.is_empty())
    }

    /// DATA lanes whose key is `<= k`, as one ballot over the whole view
    /// (see [`gfsl_simt::vector`]); bit `i` is lane `i`'s vote.
    #[inline]
    pub fn keys_le(&self, team: &Team, k: u32) -> Ballot {
        vector::keys_le(team.size(), &self.regs, k)
    }

    /// DATA lanes whose key is `== k`.
    #[inline]
    pub fn keys_eq(&self, team: &Team, k: u32) -> Ballot {
        vector::keys_eq(team.size(), &self.regs, k)
    }

    /// DATA lanes holding a live user key (neither `-∞` nor EMPTY).
    #[inline]
    pub fn keys_live(&self, team: &Team) -> Ballot {
        vector::keys_live(team.size(), &self.regs)
    }

    /// DATA lanes holding a live user key in `[lo, hi]`.
    #[inline]
    pub fn keys_in_range(&self, team: &Team, lo: u32, hi: u32) -> Ballot {
        vector::keys_in_range(team.size(), &self.regs, lo, hi)
    }
}

/// A chunk lock this team holds: the chunk's index, and the one thing that
/// can release the lock. Winning the lock CAS mints one ([`ops::try_lock`],
/// [`ops::try_lock_from`]), as do allocation ([`ops::alloc`]: chunks are
/// allocated locked, §4.1) and the handover of a dying operation's locks
/// ([`Held::handover`]); only [`ops::release`] consumes one. Neither `Clone`
/// nor `Copy`, so no release needs to check the word it releases.
#[must_use = "a held chunk lock is released through `ops::release`"]
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Held(u32);

impl Held {
    /// The locked chunk's index.
    #[inline]
    pub(crate) fn chunk(&self) -> u32 {
        self.0
    }

    /// A lock that a dying operation's lock ledger hands over: to the
    /// quarantine when the operation crashed, for repair to release, or to
    /// the operation's own quiet release when it aborted cleanly.
    #[inline]
    pub(crate) fn handover(chunk: u32) -> Held {
        Held(chunk)
    }
}

/// What [`ops::release`] turns a held lock into.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Release {
    /// An operation's unlock, after its `LockRelease` crash point: unlocked,
    /// the release version bumped, so lock-free readers can certify that a
    /// chunk read overlapped no writer.
    Unlock,
    /// A merge's zombie mark, after its `MergeZombieMark` crash point. The
    /// version is kept: a recycled chunk continues it, and hint validation
    /// relies on a chunk's versions rising across its incarnations.
    Zombify,
    /// Repair's and a clean abort's release: the zombie mark when `zombie`,
    /// else the unlock, with no crash point — none may fire inside the
    /// repairer, or in an abort that is already giving the operation up.
    Quiet { zombie: bool },
}

/// Lock/write-side chunk operations. These are free functions over the pool
/// (rather than methods on a guard type) because the GPU algorithm threads
/// lock ownership through team control flow, not RAII — e.g. the bottom
/// chunk stays locked across an entire multi-level insert while other chunks
/// lock and unlock around it, and a merge converts a held lock into a
/// terminal zombie marker. What a team holds is a `Held` value passed
/// along that control flow.
pub mod ops {
    use super::*;

    /// The chunk at index `idx`.
    #[inline]
    fn chunk_ref(team: &Team, idx: u32) -> ChunkRef {
        ChunkRef { base: idx * team.lanes() as u32 }
    }

    /// Word address of a chunk's lock entry.
    #[inline]
    pub fn lock_addr(team: &Team, ch: ChunkRef) -> WordAddr {
        ch.entry_addr(team.lock_lane())
    }

    /// Word address of a chunk's NEXT entry.
    #[inline]
    pub fn next_addr(team: &Team, ch: ChunkRef) -> WordAddr {
        ch.entry_addr(team.next_lane())
    }

    /// One CAS attempt to lock chunk `idx`. The paper's `LockChunkWithCAS`.
    ///
    /// The preliminary plain read fetches the current release version so the
    /// CAS can preserve it; on a GPU this costs nothing extra because
    /// `atomicCAS` returns the old word anyway (a failed blind CAS hands the
    /// team the version to retry with).
    #[inline]
    pub(crate) fn try_lock<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, idx: u32) -> Option<Held> {
        let addr = lock_addr(team, chunk_ref(team, idx));
        probe.crash_point(CrashPoint::LockCas);
        probe.atomic(addr);
        let cur = pool.read(addr);
        if lock_state(cur) != LOCK_UNLOCKED {
            return None;
        }
        pool.cas(addr, cur, (cur & !LOCK_STATE_MASK) | LOCK_LOCKED).ok().map(|_| Held(idx))
    }

    /// One CAS from exactly `from`, the unlocked word that certified a view
    /// of chunk `idx`, to its locked form, with no read first. It succeeds
    /// only if no writer has held the chunk since the view was read: every
    /// release bumps the version, zombie marking changes the state bits,
    /// and a recycled chunk continues its old version sequence.
    #[inline]
    pub(crate) fn try_lock_from<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, idx: u32, from: Certified) -> Option<Held> {
        let addr = lock_addr(team, chunk_ref(team, idx));
        probe.crash_point(CrashPoint::LockCas);
        probe.atomic(addr);
        pool.cas(addr, from.0, from.0 | LOCK_LOCKED).ok().map(|_| Held(idx))
    }

    /// Release a held lock to the word `to` names. The one release: the
    /// lock word is read, the crash point (if `to` has one) fires before
    /// any store, and the new word is written.
    #[inline]
    pub(crate) fn release<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, held: Held, to: Release) {
        let addr = lock_addr(team, chunk_ref(team, held.0));
        let cur = pool.read(addr);
        let (point, zombie) = match to {
            Release::Unlock => (Some(CrashPoint::LockRelease), false),
            Release::Zombify => (Some(CrashPoint::MergeZombieMark), true),
            Release::Quiet { zombie } => (None, zombie),
        };
        if let Some(point) = point {
            probe.crash_point(point);
        }
        probe.lane_write(addr);
        pool.write(addr, if zombie { lock_zombified(cur) } else { lock_released(cur) });
    }

    /// Write chunk `idx`'s whole image in one team write, in lane order:
    /// `first` in entry 0, EMPTY in the other data lanes, `(∞, NIL)` in the
    /// NEXT lane and `lock` in the LOCK lane. A fresh chunk ([`alloc`]) and
    /// a level head (`first` the `-∞` entry pointing down, unlocked) are
    /// both this image.
    pub(crate) fn write_image<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, idx: u32, first: Entry, lock: u64) {
        let ch = chunk_ref(team, idx);
        let addrs: [WordAddr; WARP_SIZE] = std::array::from_fn(|lane| ch.entry_addr(lane));
        probe.warp_write(&addrs[..team.lanes()]);
        let words = pool.span(ch.base, team.lanes() as u32);
        words.write(0, first.0);
        for i in 1..team.dsize() {
            words.write(i, Entry::EMPTY.0);
        }
        words.write(team.next_lane(), Entry::new(KEY_INF, NIL).0);
        words.write(team.lock_lane(), lock);
    }

    /// Allocate chunk `idx`: write its fresh image locked with `locked`
    /// (paper §4.1: "all chunks are allocated locked") and hand out the
    /// lock.
    pub(crate) fn alloc<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, idx: u32, locked: u64) -> Held {
        write_image(team, pool, probe, idx, Entry::EMPTY, locked);
        Held(idx)
    }

    /// Atomically overwrite data entry `lane` of the chunk whose words are
    /// `words` (the paper's per-lane `AtomicWrite` used by the shift and
    /// copy loops, which take the chunk's [`WordSpan`] once and store
    /// through it lane by lane).
    #[inline]
    pub fn write_entry<P: MemProbe>(probe: &mut P, words: WordSpan<'_>, lane: LaneId, e: Entry) {
        probe.lane_write(words.addr(lane));
        words.write(lane, e.0);
    }

    /// Atomically set the NEXT entry: `(max, next)` in a single 64-bit store.
    /// Publishing a split and lowering a max are each one such store, which
    /// is what keeps lock-free readers consistent.
    #[inline]
    pub fn write_next_field<P: MemProbe>(
        team: &Team,
        pool: &WordPool,
        probe: &mut P,
        ch: ChunkRef,
        max: u32,
        next: u32,
    ) {
        let addr = next_addr(team, ch);
        probe.crash_point(CrashPoint::NextSwing);
        probe.lane_write(addr);
        pool.write(addr, Entry::new(max, next).0);
    }

    /// Read just the NEXT entry (single-lane read; used under lock where a
    /// full team read would be wasted).
    #[inline]
    pub fn read_next_field<P: MemProbe>(
        team: &Team,
        pool: &WordPool,
        probe: &mut P,
        ch: ChunkRef,
    ) -> Entry {
        let addr = next_addr(team, ch);
        probe.lane_read(addr);
        Entry(pool.read(addr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use gfsl_gpu_mem::NoProbe;
    use gfsl_simt::TeamSize;

    fn setup() -> (Team, WordPool) {
        (Team::new(TeamSize::Sixteen), WordPool::new(1024))
    }

    fn write_chunk(pool: &WordPool, base: u32, entries: &[(u32, u32)], max: u32, next: u32, lock: u64) {
        let team = Team::new(TeamSize::Sixteen);
        for i in 0..team.dsize() {
            let e = entries.get(i).map(|&(k, v)| Entry::new(k, v)).unwrap_or(Entry::EMPTY);
            pool.write(base + i as u32, e.0);
        }
        pool.write(base + team.next_lane() as u32, Entry::new(max, next).0);
        pool.write(base + team.lock_lane() as u32, lock);
    }

    #[test]
    fn entry_packing_roundtrip() {
        let e = Entry::new(0x1234_5678, 0x9ABC_DEF0);
        assert_eq!(e.key(), 0x1234_5678);
        assert_eq!(e.val(), 0x9ABC_DEF0);
        assert!(!e.is_empty());
        assert!(Entry::EMPTY.is_empty());
        assert_eq!(Entry::EMPTY.key(), KEY_INF);
    }

    #[test]
    fn user_key_range_excludes_sentinels() {
        assert!(!is_user_key(KEY_NEG_INF));
        assert!(!is_user_key(KEY_INF));
        assert!(is_user_key(1));
        assert!(is_user_key(u32::MAX - 1));
    }

    #[test]
    fn view_reads_fields() {
        let (team, pool) = setup();
        write_chunk(&pool, 0, &[(5, 50), (9, 90)], 9, 64, LOCK_UNLOCKED);
        let v = ChunkView::read(&team, &pool, &mut NoProbe, ChunkRef { base: 0 });
        assert_eq!(v.entry(0), Entry::new(5, 50));
        assert_eq!(v.entry(1), Entry::new(9, 90));
        assert!(v.entry(2).is_empty());
        assert_eq!(v.max(&team), 9);
        assert_eq!(v.next(&team), 64);
        assert!(!v.is_zombie(&team));
        assert!(!v.is_locked(&team));
        assert_eq!(v.num_keys(&team), 2);
    }

    /// One team read is exactly `lanes` word loads, at ascending addresses,
    /// the LOCK lane's last: a view can be certified against its own lock
    /// word only because every data lane was loaded before it, and the
    /// model checker interleaves other teams between exactly these loads.
    /// A zombie's read takes one load more, last, of its NEXT lane.
    #[test]
    fn a_team_read_loads_each_lane_once_in_order_lock_lane_last() {
        use gfsl_gpu_mem::schedule::{self, AccessKind, SchedHook};
        use std::sync::{Arc, Mutex};

        #[derive(Default)]
        struct Recorder(Mutex<Vec<(AccessKind, WordAddr)>>);
        impl SchedHook for Recorder {
            fn yield_point(&self, kind: AccessKind, addr: WordAddr) {
                self.0.lock().unwrap().push((kind, addr));
            }
            fn wait_hint(&self, _: WordAddr) {}
        }

        // The crate's tests build the pool with `sched` (dev-dependency), so
        // every word access below reports to the hook.
        for size in [TeamSize::Sixteen, TeamSize::ThirtyTwo] {
            let team = Team::new(size);
            let pool = WordPool::new(4 * team.lanes());
            let ch = ChunkRef { base: 2 * team.lanes() as u32 };
            let mut want: Vec<_> = (0..team.lanes())
                .map(|lane| (AccessKind::Load, ch.entry_addr(lane)))
                .collect();
            assert_eq!(want.last().unwrap().1, ops::lock_addr(&team, ch));
            for lock in [LOCK_UNLOCKED, LOCK_ZOMBIE] {
                pool.write(ops::lock_addr(&team, ch), lock);
                if lock == LOCK_ZOMBIE {
                    want.push((AccessKind::Load, ops::next_addr(&team, ch)));
                }
                let rec = Arc::new(Recorder::default());
                let mut view = ChunkView::BLANK;
                {
                    let _hooked = schedule::register(rec.clone());
                    view.reload(&team, &pool, &mut NoProbe, ch, None);
                }
                assert_eq!(*rec.0.lock().unwrap(), want, "{size}-lane team, lock word {lock}");
            }
        }
    }

    /// A chunk index past the pool (what following a NIL or recycled pointer
    /// amounts to) stops at the pool's bounds check.
    #[test]
    #[should_panic(expected = "index out of bounds: the pool holds 1024 words")]
    fn reading_a_chunk_past_the_pool_panics() {
        let (team, pool) = setup();
        let _ = ChunkView::read(&team, &pool, &mut NoProbe, ChunkRef { base: 1024 - 8 });
    }

    #[test]
    fn lane_of_key_prefers_highest_duplicate() {
        let (team, pool) = setup();
        // Simulate a mid-shift chunk: key 7 appears at lanes 2 and 3.
        write_chunk(&pool, 0, &[(3, 0), (5, 0), (7, 0), (7, 1)], 7, NIL, LOCK_LOCKED);
        let v = ChunkView::read(&team, &pool, &mut NoProbe, ChunkRef { base: 0 });
        assert_eq!(v.lane_of_key(&team, 7), Some(3));
        assert_eq!(v.entry(3).val(), 1, "rightmost copy wins");
        assert_eq!(v.lane_of_key(&team, 4), None);
    }

    #[test]
    fn a_read_says_what_its_view_supports() {
        let (team, pool) = setup();
        let ch = ChunkRef { base: 0 };
        let mut v = ChunkView::BLANK;
        let mut read = |before| v.reload(&team, &pool, &mut NoProbe, ch, before);
        write_chunk(&pool, 0, &[(5, 0)], 5, 64, LOCK_VERSION_UNIT);
        assert_eq!(read(None), ChunkRead::Live { unlocked: Some(LOCK_VERSION_UNIT) });
        assert_eq!(read(Some(LOCK_UNLOCKED)), ChunkRead::Live { unlocked: Some(LOCK_VERSION_UNIT) });
        assert_eq!(read(Some(LOCK_VERSION_UNIT)), ChunkRead::Certified(Certified(LOCK_VERSION_UNIT)));
        // A held chunk certifies nothing, not even against its own word.
        let held = LOCK_VERSION_UNIT | LOCK_LOCKED;
        write_chunk(&pool, 0, &[(5, 0)], 5, 64, held);
        assert_eq!(read(Some(held)), ChunkRead::Live { unlocked: None });
        write_chunk(&pool, 0, &[(5, 0)], 5, 64, LOCK_ZOMBIE);
        assert_eq!(read(Some(LOCK_ZOMBIE)), ChunkRead::Zombie { next: 64 });
    }

    #[test]
    fn lock_unlock_zombie_lifecycle() {
        let (team, pool) = setup();
        let ch = ChunkRef { base: 0 };
        write_chunk(&pool, 0, &[], KEY_INF, NIL, LOCK_UNLOCKED);
        let held = ops::try_lock(&team, &pool, &mut NoProbe, 0).expect("an unlocked chunk locks");
        assert!(ops::try_lock(&team, &pool, &mut NoProbe, 0).is_none(), "second lock fails");
        ops::release(&team, &pool, &mut NoProbe, held, Release::Unlock);
        let held = ops::try_lock(&team, &pool, &mut NoProbe, 0).expect("a released chunk locks");
        ops::release(&team, &pool, &mut NoProbe, held, Release::Zombify);
        assert!(ops::try_lock(&team, &pool, &mut NoProbe, 0).is_none(), "zombies cannot be locked");
        let v = ChunkView::read(&team, &pool, &mut NoProbe, ch);
        assert!(v.is_zombie(&team));
    }

    /// An operation's release fires its crash point once, before it writes
    /// anything; the quiet release of repair and of a clean abort fires
    /// none. Each release is one read and one write of the lock word, and
    /// writes the same word whether or not it is quiet.
    #[test]
    fn only_an_operation_release_fires_a_crash_point() {
        #[derive(Default)]
        struct Points(Vec<CrashPoint>);
        impl MemProbe for Points {
            fn warp_read(&mut self, _: &[WordAddr]) {}
            fn warp_write(&mut self, _: &[WordAddr]) {}
            fn lane_read(&mut self, _: WordAddr) {}
            fn lane_write(&mut self, _: WordAddr) {}
            fn atomic(&mut self, _: WordAddr) {}
            fn crash_point(&mut self, point: CrashPoint) {
                self.0.push(point);
            }
        }

        let (team, pool) = setup();
        let lock = ops::lock_addr(&team, ChunkRef { base: 0 });
        for (to, quiet, point) in [
            (Release::Unlock, Release::Quiet { zombie: false }, CrashPoint::LockRelease),
            (Release::Zombify, Release::Quiet { zombie: true }, CrashPoint::MergeZombieMark),
        ] {
            let mut words = Vec::new();
            for (release, fired) in [(to, vec![point]), (quiet, vec![])] {
                write_chunk(&pool, 0, &[], KEY_INF, NIL, LOCK_VERSION_UNIT);
                let held = ops::try_lock(&team, &pool, &mut NoProbe, 0).unwrap();
                let mut probe = Points::default();
                ops::release(&team, &pool, &mut probe, held, release);
                assert_eq!(probe.0, fired, "{release:?}");
                words.push(pool.read(lock));
            }
            assert_eq!(words[0], words[1], "{to:?} and its quiet form write one word");
        }
    }

    #[test]
    fn lock_upgrade_succeeds_only_from_the_current_word() {
        let (team, pool) = setup();
        let ch = ChunkRef { base: 0 };
        write_chunk(&pool, 0, &[], KEY_INF, NIL, LOCK_UNLOCKED);
        // The word a quiescent read certifies: the one an update upgrades.
        let certify = || {
            let before = pool.read(ops::lock_addr(&team, ch));
            let mut view = ChunkView::BLANK;
            match view.reload(&team, &pool, &mut NoProbe, ch, Some(before)) {
                ChunkRead::Certified(cert) => cert,
                read => panic!("a quiescent chunk certifies: {read:?}"),
            }
        };
        let seen = certify();
        // Another team's lock/unlock cycle bumps the version: the upgrade
        // from the old word fails, and one from the new word succeeds.
        let held = ops::try_lock(&team, &pool, &mut NoProbe, 0).unwrap();
        ops::release(&team, &pool, &mut NoProbe, held, Release::Unlock);
        assert!(ops::try_lock_from(&team, &pool, &mut NoProbe, 0, seen).is_none());
        let now = certify();
        let held = ops::try_lock_from(&team, &pool, &mut NoProbe, 0, now).expect("upgrades from the current word");
        assert!(ops::try_lock_from(&team, &pool, &mut NoProbe, 0, now).is_none(), "held");
        // A zombie keeps its version but not its state bits.
        ops::release(&team, &pool, &mut NoProbe, held, Release::Zombify);
        assert!(ops::try_lock_from(&team, &pool, &mut NoProbe, 0, now).is_none());
    }

    #[test]
    fn write_next_field_is_one_word() {
        let (team, pool) = setup();
        let ch = ChunkRef { base: 0 };
        ops::write_next_field(&team, &pool, &mut NoProbe, ch, 42, 128);
        let e = ops::read_next_field(&team, &pool, &mut NoProbe, ch);
        assert_eq!(e.key(), 42);
        assert_eq!(e.val(), 128);
    }

    #[test]
    fn live_entries_skips_empties() {
        let (team, pool) = setup();
        write_chunk(&pool, 0, &[(2, 20), (4, 40), (6, 60)], 6, NIL, LOCK_UNLOCKED);
        let v = ChunkView::read(&team, &pool, &mut NoProbe, ChunkRef { base: 0 });
        let live: Vec<_> = v.live_entries(&team).map(|(l, e)| (l, e.key())).collect();
        assert_eq!(live, vec![(0, 2), (1, 4), (2, 6)]);
    }
}
