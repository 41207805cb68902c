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
/// [`reload`](Self::reload) them in place, passing `&ChunkView` around;
/// nothing on a traversal moves one by value.
#[derive(Debug, Clone, Copy)]
pub struct ChunkView {
    regs: WarpRegs,
}

impl ChunkView {
    /// A buffer no read has filled yet (reads as an unlocked chunk whose
    /// every key is `-∞`; only ever a [`reload`](Self::reload) target).
    pub const BLANK: ChunkView = ChunkView { regs: [0; WARP_SIZE] };

    /// Read all `N` entries of the chunk at `ch` in one lockstep team read.
    #[inline]
    pub fn read<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, ch: ChunkRef) -> Self {
        let mut view = ChunkView::BLANK;
        view.reload(team, pool, probe, ch);
        view
    }

    /// Overwrite this view with one lockstep team read of the chunk at
    /// `ch`: one probe event and one bounds check for the chunk, then one
    /// `Acquire` load per lane in ascending lane order, so the LOCK lane is
    /// read after every other lane (what certifying a view against its own
    /// lock word rests on).
    ///
    /// A LOCK lane that reads ZOMBIE is followed by one more read of the
    /// NEXT lane. The first one may predate a split of the chunk that a
    /// later merge then drained, and so skip the split's new chunk, which
    /// holds the moved keys (the torn zombie view). A zombie's NEXT lane
    /// does not change from the mark on, and a pinned reader keeps the
    /// chunk from being recycled, so the second read is the one every
    /// zombie step may follow.
    #[inline]
    pub fn reload<P: MemProbe>(&mut self, team: &Team, pool: &WordPool, probe: &mut P, ch: ChunkRef) {
        match team.size() {
            TeamSize::Sixteen => self.reload_lanes::<16, P>(pool, probe, ch),
            TeamSize::ThirtyTwo => self.reload_lanes::<32, P>(pool, probe, ch),
        }
    }

    #[inline(always)]
    fn reload_lanes<const N: usize, P: MemProbe>(&mut self, pool: &WordPool, probe: &mut P, ch: ChunkRef) {
        let addrs: [WordAddr; N] = std::array::from_fn(|lane| ch.entry_addr(lane));
        probe.warp_read(&addrs);
        let regs = self.regs.first_chunk_mut::<N>().expect("a team is at most a warp wide");
        pool.read_words(ch.base, regs);
        if lock_state(regs[N - 1]) == LOCK_ZOMBIE {
            let next = ch.entry_addr(N - 2);
            probe.lane_read(next);
            regs[N - 2] = pool.read(next);
        }
    }

    /// Build a view from lanes already captured elsewhere (an mvcc version
    /// pre-image): versioned readers decode a chain image with the same
    /// ballot machinery a live chunk read uses.
    #[inline]
    pub(crate) fn from_lanes(team: &Team, lanes: &[u64]) -> Self {
        let mut view = ChunkView::BLANK;
        view.regs[..team.lanes()].copy_from_slice(lanes);
        view
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

    /// The lock word, if it shows the chunk unlocked at read time (the
    /// observation the hint and certification record).
    #[inline]
    pub fn unlocked_word(&self, team: &Team) -> Option<u64> {
        let word = self.lock_word(team);
        (lock_state(word) == LOCK_UNLOCKED).then_some(word)
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

    /// Is the chunk *not* enclosing `k`: a zombie, or `max < k`
    /// (cooperative `chunkNotEnclosing`).
    #[inline]
    pub fn not_enclosing(&self, team: &Team, k: u32) -> bool {
        self.is_zombie(team) || self.max(team) < k
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

/// Lock/write-side chunk operations. These are free functions over the pool
/// (rather than methods on a guard type) because the GPU algorithm threads
/// lock ownership through team control flow, not RAII — e.g. the bottom
/// chunk stays locked across an entire multi-level insert while other chunks
/// lock and unlock around it, and a merge converts a held lock into a
/// terminal zombie marker.
pub mod ops {
    use super::*;

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

    /// One CAS attempt to lock the chunk. The paper's `LockChunkWithCAS`.
    ///
    /// The preliminary plain read fetches the current release version so the
    /// CAS can preserve it; on a GPU this costs nothing extra because
    /// `atomicCAS` returns the old word anyway (a failed blind CAS hands the
    /// team the version to retry with).
    #[inline]
    pub fn try_lock<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, ch: ChunkRef) -> bool {
        let addr = lock_addr(team, ch);
        probe.crash_point(CrashPoint::LockCas);
        probe.atomic(addr);
        let cur = pool.read(addr);
        if lock_state(cur) != LOCK_UNLOCKED {
            return false;
        }
        pool.cas(addr, cur, (cur & !LOCK_STATE_MASK) | LOCK_LOCKED)
            .is_ok()
    }

    /// One CAS from exactly `word`, an unlocked lock word read earlier, to
    /// its locked form, with no read first. It succeeds only if no writer
    /// has held the chunk since `word` was read: every release bumps the
    /// version, zombie marking changes the state bits, and a recycled chunk
    /// continues its old version sequence.
    #[inline]
    pub fn try_lock_from<P: MemProbe>(
        team: &Team,
        pool: &WordPool,
        probe: &mut P,
        ch: ChunkRef,
        word: u64,
    ) -> bool {
        debug_assert_eq!(lock_state(word), LOCK_UNLOCKED, "upgrading from a held lock word");
        let addr = lock_addr(team, ch);
        probe.crash_point(CrashPoint::LockCas);
        probe.atomic(addr);
        pool.cas(addr, word, word | LOCK_LOCKED).is_ok()
    }

    /// Release a held lock, bumping the release version so lock-free readers
    /// can certify that a chunk read overlapped no writer.
    #[inline]
    pub fn unlock<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, ch: ChunkRef) {
        let addr = lock_addr(team, ch);
        let cur = pool.read(addr);
        debug_assert_eq!(lock_state(cur), LOCK_LOCKED, "unlocking a chunk we do not hold");
        probe.crash_point(CrashPoint::LockRelease);
        probe.lane_write(addr);
        pool.write(addr, lock_released(cur));
    }

    /// Convert a held lock into the terminal zombie marker. The release
    /// version is *preserved*: zombie contents never change again (so reads
    /// of a zombie need no certification), but the version must survive into
    /// any future incarnation of this chunk — reclamation recycles zombie
    /// chunks, and the traversal hint cache relies on per-chunk lock-word
    /// versions being monotonic across incarnations to reject hints that
    /// name a since-recycled chunk.
    #[inline]
    pub fn mark_zombie<P: MemProbe>(team: &Team, pool: &WordPool, probe: &mut P, ch: ChunkRef) {
        let addr = lock_addr(team, ch);
        let cur = pool.read(addr);
        debug_assert_eq!(lock_state(cur), LOCK_LOCKED, "only the lock holder may zombify");
        probe.crash_point(CrashPoint::MergeZombieMark);
        probe.lane_write(addr);
        pool.write(addr, lock_zombified(cur));
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
            let rec = Arc::new(Recorder::default());
            let mut view = ChunkView::BLANK;
            {
                let _hooked = schedule::register(rec.clone());
                view.reload(&team, &pool, &mut NoProbe, ch);
            }
            let want: Vec<_> = (0..team.lanes())
                .map(|lane| (AccessKind::Load, ch.entry_addr(lane)))
                .collect();
            assert_eq!(*rec.0.lock().unwrap(), want, "{size}-lane team");
            assert_eq!(want.last().unwrap().1, ops::lock_addr(&team, ch));
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
    fn not_enclosing_for_zombie_or_small_max() {
        let (team, pool) = setup();
        write_chunk(&pool, 0, &[(5, 0)], 5, 64, LOCK_UNLOCKED);
        let v = ChunkView::read(&team, &pool, &mut NoProbe, ChunkRef { base: 0 });
        assert!(!v.not_enclosing(&team, 5));
        assert!(!v.not_enclosing(&team, 3));
        assert!(v.not_enclosing(&team, 6));

        write_chunk(&pool, 64, &[(5, 0)], 5, NIL, LOCK_ZOMBIE);
        let z = ChunkView::read(&team, &pool, &mut NoProbe, ChunkRef { base: 64 });
        assert!(z.not_enclosing(&team, 3), "zombies never enclose");
        assert!(z.is_zombie(&team));
    }

    #[test]
    fn lock_unlock_zombie_lifecycle() {
        let (team, pool) = setup();
        let ch = ChunkRef { base: 0 };
        write_chunk(&pool, 0, &[], KEY_INF, NIL, LOCK_UNLOCKED);
        assert!(ops::try_lock(&team, &pool, &mut NoProbe, ch));
        assert!(!ops::try_lock(&team, &pool, &mut NoProbe, ch), "second lock fails");
        ops::unlock(&team, &pool, &mut NoProbe, ch);
        assert!(ops::try_lock(&team, &pool, &mut NoProbe, ch));
        ops::mark_zombie(&team, &pool, &mut NoProbe, ch);
        assert!(!ops::try_lock(&team, &pool, &mut NoProbe, ch), "zombies cannot be locked");
        let v = ChunkView::read(&team, &pool, &mut NoProbe, ch);
        assert!(v.is_zombie(&team));
    }

    #[test]
    fn lock_upgrade_succeeds_only_from_the_current_word() {
        let (team, pool) = setup();
        let ch = ChunkRef { base: 0 };
        write_chunk(&pool, 0, &[], KEY_INF, NIL, LOCK_UNLOCKED);
        let seen = ChunkView::read(&team, &pool, &mut NoProbe, ch).lock_word(&team);
        // Another team's lock/unlock cycle bumps the version: the upgrade
        // from the old word fails, and one from the new word succeeds.
        assert!(ops::try_lock(&team, &pool, &mut NoProbe, ch));
        ops::unlock(&team, &pool, &mut NoProbe, ch);
        assert!(!ops::try_lock_from(&team, &pool, &mut NoProbe, ch, seen));
        let now = ChunkView::read(&team, &pool, &mut NoProbe, ch).lock_word(&team);
        assert!(ops::try_lock_from(&team, &pool, &mut NoProbe, ch, now));
        assert!(!ops::try_lock_from(&team, &pool, &mut NoProbe, ch, now), "held");
        // A zombie keeps its version but not its state bits.
        ops::mark_zombie(&team, &pool, &mut NoProbe, ch);
        assert!(!ops::try_lock_from(&team, &pool, &mut NoProbe, ch, now));
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
