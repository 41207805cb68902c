//! Traversal: `Contains`/`get`, `searchDown`, `searchLateral`, and the
//! path-recording `searchSlow` used by updates (paper §4.2.1–4.2.2).
//!
//! The levels above 0 are walked by one loop, `descend`, and level 0 by one
//! more, `walk_lateral`. Each has a read mode, which writes nothing and so
//! keeps `Contains` lock-free, and an update mode, which lazily unlinks the
//! zombie runs it meets (§4.2.2's `findLateralWithZombieRedirect`) and marks
//! where the index needs healing.
//!
//! Every chunk they decide on comes from the one typed read
//! (`read_chunk_into`), whose `ChunkRead` says what the view can support. A
//! zombie step follows only `ChunkRead::Zombie`'s `next`, which always names
//! a chunk, and a `NotFound` is answered only from a `Certified` view, which
//! the one certify loop (`read_certified`) re-reads a chunk until it has.

use gfsl_gpu_mem::MemProbe;
use gfsl_simt::{Ballot, LaneId, Team};

use crate::chunk::{ops, is_user_key, Certified, ChunkRead, ChunkView, Entry, Held, NIL};
use crate::skiplist::{Gfsl, GfslHandle, HEAL_STEPS_BOTTOM, HEAL_STEPS_UPPER, HINT_WALK_BUDGET};

/// The per-level path an update's traversal records (`searchSlow`): at each
/// level it descended through, a chunk at-or-left of the key's enclosing
/// chunk there. Levels above the height it started from hold `NIL` and read
/// as their level head, so no update pays for the levels nobody uses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UpdatePath([u32; gfsl_simt::WARP_SIZE]);

impl UpdatePath {
    /// The chunk to start from at `level`: `NIL` when the descent did not
    /// pass through it and the level has no head yet, which a reader takes
    /// for an empty level and a climb grows.
    #[inline]
    pub(crate) fn at(&self, list: &Gfsl, level: usize) -> u32 {
        match self.0[level] {
            NIL => list.head_of(level),
            c => c,
        }
    }
}

/// Team decision for the next traversal step (result of the ballot in
/// `getTidForNextStep`, Algorithm 4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NextStep {
    /// The searched key is greater than the chunk's max: follow the next
    /// pointer.
    Lateral,
    /// Step down through the pointer held by this DATA lane (the highest
    /// lane whose key is `<= k`).
    Down(LaneId),
    /// Every key in the chunk is greater than `k`: back up to the previous
    /// chunk (`NONE` in the paper).
    Backtrack,
}

/// The cooperative `getTidForNextStep`: DATA lanes vote `key <= k`, the NEXT
/// lane votes `max < k`, the LOCK lane abstains; the highest voting lane
/// wins. EMPTY (∞) keys never vote because `k` is a user key `< ∞`; the
/// `-∞` key always votes.
///
/// The DATA-lane votes are evaluated as one branch-free mask over the
/// chunk's packed words ([`ChunkView::keys_le`]), then the NEXT lane's
/// `max < k` vote is OR-ed in at its lane position.
#[inline]
pub fn tid_for_next_step(team: &Team, k: u32, view: &ChunkView) -> NextStep {
    let data = view.keys_le(team, k).bits();
    let next = ((view.max(team) < k) as u32) << team.next_lane();
    match Ballot::from_bits(data | next).highest() {
        None => NextStep::Backtrack,
        Some(lane) if lane == team.next_lane() => NextStep::Lateral,
        Some(lane) => NextStep::Down(lane),
    }
}

/// Bottom-level (and per-level) lateral search decision: DATA lanes vote
/// `key == k`, the NEXT lane votes `max < k` (`isTidWithEqualKey`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LateralStep {
    /// Keep walking right.
    Continue,
    /// Found `k` at this DATA lane.
    Found(LaneId),
    /// Reached the enclosing chunk and `k` is not present.
    NotFound,
}

/// The cooperative `isTidWithEqualKey`: DATA lanes vote `key == k`, the
/// NEXT lane votes `max < k`; the highest voting lane wins. DATA votes are
/// one mask, as in [`tid_for_next_step`].
#[inline]
pub fn tid_with_equal_key(team: &Team, k: u32, view: &ChunkView) -> LateralStep {
    let data = view.keys_eq(team, k).bits();
    let next = ((view.max(team) < k) as u32) << team.next_lane();
    match Ballot::from_bits(data | next).highest() {
        None => LateralStep::NotFound,
        Some(lane) if lane == team.next_lane() => LateralStep::Continue,
        Some(lane) => LateralStep::Found(lane),
    }
}

/// Result of a lateral search: where it ended and what it found.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct LateralResult {
    /// The enclosing chunk reached (non-zombie).
    pub enclosing: u32,
    /// The DATA lane holding `k` and its value, if present.
    pub found: Option<(LaneId, u32)>,
    /// The enclosing chunk's lock word as the final view's own lock lane
    /// read it, when unlocked (on a `NotFound` always, since that answer is
    /// certified; on a `Found` when no writer held the chunk). What the
    /// traversal hint records: a `(chunk, word)` pair can later revalidate
    /// the chunk as unchanged-since-observed via version equality.
    pub unlocked: Option<u64>,
    /// The same word when it also certified the final view.
    pub certified: Option<Certified>,
}

impl LateralResult {
    /// A result whose final view `cert` certified.
    fn certified_by(enclosing: u32, found: Option<(LaneId, u32)>, cert: Certified) -> LateralResult {
        LateralResult { enclosing, found, unlocked: Some(cert.word()), certified: Some(cert) }
    }
}

/// How [`GfslHandle::walk_lateral`] treats the chunks it passes.
#[derive(Debug, Clone, Copy)]
pub(crate) enum Walk {
    /// Lock-free (`searchLateral`): zombies, which keep pointing at the chunk
    /// that absorbed their keys, are stepped through and nothing is written.
    /// Past `budget` chunk moves the walk gives up: a validated hint only
    /// places the enclosing chunk at-or-right of it, at an unknown distance.
    Read { budget: u32 },
    /// The update path (`findLateralWithZombieRedirect`): a zombie run met
    /// after a live chunk is lazily unlinked behind it, and the run's first
    /// live chunk is read again as a fresh arrival. [`HEAL_STEPS_BOTTOM`] or
    /// more live chunks stepped across mark level 0 for the index heal
    /// (DESIGN.md §20).
    Update,
}

impl<'a, P: MemProbe> GfslHandle<'a, P> {
    /// Is `k` in the set? Lock-free (paper §4.2.1).
    pub fn contains(&mut self, k: u32) -> bool {
        self.get(k).is_some()
    }

    /// Look up `k`'s value. Lock-free.
    ///
    /// Returns `None` for reserved keys (`0`, `u32::MAX`) as they can never
    /// be inserted.
    pub fn get(&mut self, k: u32) -> Option<u32> {
        self.stats.contains_ops += 1;
        if !is_user_key(k) {
            return None;
        }
        self.with_pin(|h| {
            let res = h.hinted_lateral(k);
            h.note_hint(res.enclosing, res.unlocked);
            res.found.map(|(_, v)| v)
        })
    }

    /// Bottom-level lateral search for `k`, starting from the traversal
    /// hint when it validates and lies within [`HINT_WALK_BUDGET`] chunks of
    /// the enclosing chunk, else from a full descent.
    ///
    /// The hot case — `k` lands in the hinted chunk itself — is answered
    /// from [`hint_start`](Self::hint_start)'s validated snapshot without
    /// another chunk read: the validation bracket doubles as the negative-
    /// answer certification, so both `Found` and `NotFound` are immediate.
    pub(crate) fn hinted_lateral(&mut self, k: u32) -> LateralResult {
        if let Some((c, cert)) = self.hint_start(k) {
            // `hint_start` left the validated snapshot in `self.hint_view`,
            // certified by `cert`.
            let team = self.list.team;
            match tid_with_equal_key(&team, k, &self.hint_view) {
                LateralStep::Found(lane) => {
                    let found = Some((lane, self.hint_view.entry(lane).val()));
                    return LateralResult::certified_by(c, found, cert);
                }
                LateralStep::NotFound => return LateralResult::certified_by(c, None, cert),
                LateralStep::Continue => {
                    let next = self.hint_view.next(&team);
                    debug_assert_ne!(next, NIL);
                    let mut view = ChunkView::BLANK;
                    let walk = Walk::Read { budget: HINT_WALK_BUDGET };
                    if let Some(res) = self.walk_lateral(k, next, walk, &mut view) {
                        return res;
                    }
                    // Validated but too far left to be worth walking from.
                    self.hint_overrun();
                }
            }
        }
        let bottom = self.search_down(k);
        self.search_lateral(k, bottom)
    }

    /// The smallest key currently in the set (with its value), or `None`
    /// when empty. Lock-free, like `contains`: walks the bottom level from
    /// the head until the first live key.
    ///
    /// This is the primitive skiplist-based priority queues are built on
    /// (the paper cites Shavit & Lotan's skiplist priority queue as a
    /// motivating application).
    pub fn min_entry(&mut self) -> Option<(u32, u32)> {
        let team = self.list.team;
        self.stats.contains_ops += 1;
        self.with_pin(|h| {
            let mut cur = h.list.head_of(0);
            let mut view = ChunkView::BLANK;
            loop {
                let (_, cert) = h.next_live_certified(cur, &mut view);
                if let Some(e) = lowest_live(&team, &view, cert) {
                    return Some((e.key(), e.val()));
                }
                let next = view.next(&team);
                if next == NIL {
                    return None;
                }
                cur = next;
            }
        })
    }

    /// Traverse the upper levels and return the level-0 chunk reached by the
    /// final down-step (Algorithm 4.2). Restarts from the top in the rare
    /// backtrack-with-no-previous case.
    pub(crate) fn search_down(&mut self, k: u32) -> u32 {
        self.descend(k, 0, None).expect("no structure is shorter than level 0")
    }

    /// `searchDown` stopping at level `target` instead of level 0
    /// (`searchDownToLevel`): a chunk in `target` at-or-left of `k`'s
    /// enclosing chunk, or `None` when the structure is shorter than
    /// `target`.
    pub(crate) fn search_down_to_level(&mut self, target: usize, k: u32) -> Option<u32> {
        self.descend(k, target, None)
    }

    /// The one descent loop behind `search_down`, `search_down_to_level`
    /// and `search_slow`: down to level `stop`, returning the chunk reached
    /// there, or `None` when — on entry or after a restart — the structure
    /// is shorter than `stop`.
    ///
    /// * `path = None` — read-only: zombies met at the top of a level are
    ///   stepped through without taking any lock, preserving `contains`'s
    ///   lock-freedom.
    /// * `path = Some` — update path: the chunk each level is left through
    ///   is recorded in the path (every level from the height down is
    ///   written before the descent leaves it; levels above it stay `NIL`)
    ///   and zombie runs are lazily unlinked via try-lock redirection.
    pub(crate) fn descend(
        &mut self,
        k: u32,
        stop: usize,
        mut path: Option<&mut UpdatePath>,
    ) -> Option<u32> {
        let team = self.list.team;
        // Two view buffers, swapped on every lateral step: `views[at]` is
        // the chunk being decided on, `views[at ^ 1]` the chunk stepped from
        // for as long as `prev` names it.
        let mut views = [ChunkView::BLANK; 2];
        let mut at = 0;
        // The height the last attempt started from.
        let mut written = 0;
        'restart: loop {
            // prev = the chunk we lateral-stepped from (its snapshot is in
            // the other buffer).
            let mut prev: Option<u32> = None;
            // Update path only: live chunks stepped across at this level.
            let mut steps = 0u8;
            let mut height = self.list.height();
            if let Some(p) = path.as_deref_mut() {
                // A restart from a lower height must not leave the earlier
                // attempt's choices above it: those levels read as heads.
                if written > height {
                    p.0[height + 1..=written].fill(NIL);
                }
                written = height;
                self.heal_levels = 0;
            }
            if height < stop {
                return None;
            }
            let mut cur = self.list.head_of(height);
            while height > stop {
                if let ChunkRead::Zombie { next } = self.read_chunk_into(cur, None, &mut views[at]) {
                    if path.is_none() {
                        // Read path: zombies keep pointing at the chunk that
                        // absorbed their keys; just step through, lock-free.
                        cur = next;
                        continue;
                    }
                    // Update path: lazily unlink the zombie run; the walk
                    // leaves the first live chunk's view in place of the
                    // zombie's.
                    let nz = self.first_non_zombie(next, &mut views[at]);
                    match prev {
                        Some(pptr) => self.redirect_past_zombies(pptr, cur, nz, height),
                        None => {
                            if self.list.head_of(height) == cur {
                                self.update_head(height, cur, nz);
                            }
                        }
                    }
                    cur = nz;
                }
                let view = &views[at];
                match tid_for_next_step(&team, k, view) {
                    NextStep::Lateral => {
                        if path.is_some() {
                            steps = steps.saturating_add(1);
                        }
                        prev = Some(cur);
                        cur = view.next(&team);
                        at ^= 1;
                    }
                    NextStep::Down(lane) => {
                        if let Some(p) = path.as_deref_mut() {
                            p.0[height] = cur;
                            // A long walk that ends in a chunk left through
                            // its minimum: the one upper-level key worth
                            // raising further (the level's tail excepted).
                            let first = (view.entry(0).key() == crate::chunk::KEY_NEG_INF) as usize;
                            if steps >= HEAL_STEPS_UPPER && lane == first && !is_tail(&team, view) {
                                self.heal_levels |= 1 << height;
                                self.heal_keys[height] = view.entry(lane).key();
                            }
                        }
                        steps = 0;
                        height -= 1;
                        prev = None;
                        cur = view.entry(lane).val();
                    }
                    NextStep::Backtrack => match prev.take() {
                        None => {
                            // The key we stepped down through was deleted
                            // concurrently; not enough context to back up.
                            self.stats.search_restarts += 1;
                            continue 'restart;
                        }
                        Some(pptr) => {
                            let pview = &views[at ^ 1];
                            if let Some(p) = path.as_deref_mut() {
                                p.0[height] = pptr;
                            }
                            steps = 0;
                            height -= 1;
                            cur = match down_step_lane(&team, k, pview) {
                                Some(lane) => pview.entry(lane).val(),
                                None => {
                                    self.stats.search_restarts += 1;
                                    continue 'restart;
                                }
                            };
                        }
                    },
                }
            }
            return Some(cur);
        }
    }

    /// Walk right along one level until `k`'s enclosing chunk, lock-free
    /// (Algorithm 4.4): [`Self::walk_lateral`] in read mode, unbudgeted.
    pub(crate) fn search_lateral(&mut self, k: u32, start: u32) -> LateralResult {
        let mut view = ChunkView::BLANK;
        self.walk_lateral(k, start, Walk::Read { budget: u32::MAX }, &mut view)
            .expect("an unbudgeted walk always reaches the enclosing chunk")
    }

    /// The update-path search (`searchSlow`, Algorithm 4.6): `descend` with
    /// a path, then [`Self::walk_lateral`] in update mode.
    ///
    /// `path.at(list, i)` = chunk in level `i` at-or-left of `k`'s enclosing
    /// chunk; levels the traversal never visited read as the level head.
    /// `view` is left holding the enclosing chunk's last read, which the
    /// result's `certified` word, when there is one, brackets: what
    /// [`Self::lock_certified`] upgrades to the update's bottom lock.
    pub(crate) fn search_slow(&mut self, k: u32, view: &mut ChunkView) -> (LateralResult, UpdatePath) {
        let mut path = UpdatePath([NIL; gfsl_simt::WARP_SIZE]);
        let bottom = self.descend(k, 0, Some(&mut path)).expect("no structure is shorter than level 0");
        let res = self.walk_lateral(k, bottom, Walk::Update, view).expect("an update walk has no budget");
        path.0[0] = res.enclosing;
        (res, path)
    }

    /// The one lateral walk, in either [`Walk`] mode: right from `start` to
    /// `k`'s enclosing chunk, reading each chunk into `view`, whose last read
    /// it leaves there. `None` only from a read walk past its budget.
    ///
    /// Each arrival reads the chunk's lock word, then the chunk through
    /// [`Self::read_certified`], so a quiescent chunk's view is certified on
    /// that one team read. A `NotFound` answer is only returned from a
    /// certified view: the team reads lanes in ascending order while
    /// `executeRemove` shifts entries toward lower lanes, so a single view
    /// can miss a key that hopped over the read cursor. A live view that
    /// answers `Found` or `Continue` is taken as read: an entry is one
    /// atomic word, and `Continue` follows a `(max, next)` pair written
    /// atomically; keys never migrate to an earlier chunk, so a passed
    /// chunk can never hide `k`. A certified final view becomes the fat
    /// hint.
    pub(crate) fn walk_lateral(
        &mut self,
        k: u32,
        start: u32,
        walk: Walk,
        view: &mut ChunkView,
    ) -> Option<LateralResult> {
        let team = self.list.team;
        let (update, budget) = match walk {
            Walk::Read { budget } => (false, budget),
            Walk::Update => (true, u32::MAX),
        };
        if update {
            self.heal_levels &= !1;
        }
        // Seed-era reader (model-check oracle): trust a single team read's
        // `NotFound`. With the reverted right-to-left shift this re-opens
        // the seed's torn-read race.
        let seed_reader = crate::bug_knobs::revert_remove_shift();
        let mut cur = start;
        // Update mode: the live chunk stepped from, which a redirect swings.
        let mut prev: Option<u32> = None;
        // Chunk moves: live chunks stepped across, and in read mode zombies
        // stepped through too (an update's zombie hops are not heal steps).
        let mut moves = 0u32;
        loop {
            let mut seen = LateralStep::NotFound; // on the live read `settled` accepts
            let settled = |v: &ChunkView| {
                seen = tid_with_equal_key(&team, k, v);
                seed_reader || seen != LateralStep::NotFound
            };
            let before = self.lock_word_of(cur);
            let (cert, unlocked, step) = match self.read_certified(cur, Some(before), view, settled) {
                ChunkRead::Zombie { next } if update => {
                    let nz = self.first_non_zombie(next, view);
                    if let Some(p) = prev {
                        self.redirect_past_zombies(p, cur, nz, 0);
                    }
                    cur = nz;
                    continue;
                }
                ChunkRead::Zombie { next } => {
                    cur = next;
                    moves += 1;
                    if moves > budget {
                        return None;
                    }
                    continue;
                }
                ChunkRead::Live { unlocked } => (None, unlocked, seen),
                ChunkRead::Certified(cert) => (Some(cert), Some(cert.word()), tid_with_equal_key(&team, k, view)),
            };
            // A long walk that settles on a chunk other than the tail marks
            // level 0 for the heal (DESIGN.md §20), from the read it
            // settled on.
            if update
                && moves >= u32::from(HEAL_STEPS_BOTTOM)
                && step != LateralStep::Continue
                && !is_tail(&team, view)
            {
                self.heal_levels |= 1;
            }
            let found = match step {
                LateralStep::Continue => {
                    moves += 1;
                    if moves > budget {
                        return None;
                    }
                    prev = Some(cur);
                    cur = view.next(&team);
                    continue;
                }
                LateralStep::Found(lane) => Some((lane, view.entry(lane).val())),
                LateralStep::NotFound if seed_reader => {
                    return Some(LateralResult { enclosing: cur, found: None, unlocked: None, certified: None });
                }
                LateralStep::NotFound => None,
            };
            let Some(cert) = cert else {
                // Only a `Found` settles uncertified: a key is one atomic word.
                return Some(LateralResult { enclosing: cur, found, unlocked, certified: None });
            };
            self.stash_hint_view(cur, view, cert);
            return Some(LateralResult::certified_by(cur, found, cert));
        }
    }

    /// Follow a zombie run from `next`, a zombie's [`ChunkRead::Zombie`]
    /// pointer, to its first non-zombie chunk, reloading `view` at every
    /// step: it is left holding that chunk's snapshot.
    pub(crate) fn first_non_zombie(&mut self, mut next: u32, view: &mut ChunkView) -> u32 {
        loop {
            match self.read_chunk_into(next, None, view) {
                ChunkRead::Zombie { next: after } => next = after,
                _ => return next,
            }
        }
    }

    /// Lazily rewrite `prev`'s next pointer to skip a zombie run: a
    /// best-effort try-lock, then [`Self::swing_past_zombies`] (paper
    /// §4.2.2: "the redirection is performed lazily by calling try-lock on
    /// the previous chunk; if the lock fails the team continues").
    pub(crate) fn redirect_past_zombies(&mut self, prev: u32, old_next: u32, new_next: u32, level: usize) {
        let Some(held) = self.try_acquire(prev, None) else {
            return;
        };
        self.swing_past_zombies(&held, old_next, new_next, level);
        self.unlock(held);
    }

    /// With `prev`'s lock held, swing its next pointer from `old_next` past
    /// a zombie run to `new_next` (unless it no longer reads `old_next`),
    /// keeping its max: under the lock `prev` cannot be zombified or split
    /// concurrently, so rewriting (max, next) in one word is safe. The
    /// lazy redirect and [`Self::lock_next_chunk`] both unlink this way.
    ///
    /// A successful swing is the moment the skipped zombies become
    /// unreachable from the live chain, and the lock on `prev` makes this
    /// team the *unique* unlinker of exactly this run — so this is where
    /// the run is retired to the epoch reclaimer.
    pub(crate) fn swing_past_zombies(&mut self, prev: &Held, old_next: u32, new_next: u32, level: usize) {
        let list = self.list;
        let prev = list.chunk(prev.chunk());
        let nf = ops::read_next_field(&list.team, &list.pool, &mut self.probe, prev);
        if nf.val() == old_next {
            ops::write_next_field(&list.team, &list.pool, &mut self.probe, prev, nf.key(), new_next);
            self.stats.zombie_unlinks += 1;
            self.retire_run(old_next, new_next, level);
        }
    }

    /// CAS the head-array pointer of `level` from a zombified first chunk to
    /// its replacement. CAS success makes this team the unique unlinker of
    /// the skipped run (see [`Self::retire_run`]).
    pub(crate) fn update_head(&mut self, level: usize, old: u32, new: u32) {
        use std::sync::atomic::Ordering;
        // Mvcc: record the pre-swing head *before* the CAS so a versioned
        // reader's raw head read racing the swing is always caught by its
        // chain re-check (a push for a CAS that then fails is harmless —
        // the recorded head is the current head). Level 0 only: versioned
        // walks never consult the upper index levels.
        if level == 0 {
            if let Some(mvcc) = self.list.mvcc.as_deref() {
                mvcc.note_head0(old, self.held.stamp);
            }
        }
        if self.list.head[level]
            .compare_exchange(old, new, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            self.stats.zombie_unlinks += 1;
            self.retire_run(old, new, level);
        }
    }
}

/// `min_entry`'s answer from a bottom-level view: it asserts that no smaller
/// key is there, which a torn read racing a remove can fake, so it takes
/// the word that certified the view. Data arrays are sorted, `-∞` only in
/// entry 0, so the lowest voting lane is the minimum.
#[inline]
fn lowest_live(team: &Team, view: &ChunkView, _certified: Certified) -> Option<Entry> {
    view.keys_live(team).lowest().map(|lane| view.entry(lane))
}

/// Is this the last chunk of its level (`max = ∞`)? The index heal leaves
/// tails alone: an append or sliding-window pattern gets its index from its
/// own splits, and healing there only adds index churn (DESIGN.md §20).
#[inline]
fn is_tail(team: &Team, view: &ChunkView) -> bool {
    view.max(team) == crate::chunk::KEY_INF
}

/// The down-step lane within a backtracked-to chunk: highest DATA lane with
/// `key <= k` (`getTidOfDownStep`). The previous chunk was lateral-stepped
/// from, so its max (hence every key) is `< k`; a candidate always exists
/// unless a racing merge emptied it, in which case the caller restarts.
#[inline]
pub(crate) fn down_step_lane(team: &Team, k: u32, view: &ChunkView) -> Option<LaneId> {
    view.keys_le(team, k).highest()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::{Entry, KEY_INF, KEY_NEG_INF, LOCK_UNLOCKED, LOCK_ZOMBIE};
    use crate::params::GfslParams;
    use crate::skiplist::Gfsl;
    use gfsl_simt::TeamSize;

    /// Hand-build a chunk inside a list's pool for decision-logic tests.
    /// Its allocation is released first, so the handle drops holding
    /// nothing and quarantines nothing.
    fn raw_chunk(list: &Gfsl, entries: &[(u32, u32)], max: u32, next: u32, lock: u64) -> u32 {
        let mut h = list.handle();
        let held = h.alloc_chunk().unwrap();
        let idx = held.chunk();
        h.unlock(held);
        let team = &list.team;
        let ch = list.chunk(idx);
        for (i, &(k, v)) in entries.iter().enumerate() {
            list.pool.write(ch.entry_addr(i), Entry::new(k, v).0);
        }
        list.pool
            .write(ch.entry_addr(team.next_lane()), Entry::new(max, next).0);
        list.pool.write(ch.entry_addr(team.lock_lane()), lock);
        idx
    }

    fn small_list() -> Gfsl {
        Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn next_step_down_on_largest_le_key() {
        let list = small_list();
        let idx = raw_chunk(&list, &[(KEY_NEG_INF, 0), (10, 1), (20, 2)], 20, NIL, LOCK_UNLOCKED);
        let mut h = list.handle();
        let v = h.read_chunk(idx);
        assert_eq!(tid_for_next_step(&list.team, 15, &v), NextStep::Down(1));
        assert_eq!(tid_for_next_step(&list.team, 10, &v), NextStep::Down(1));
        assert_eq!(tid_for_next_step(&list.team, 9, &v), NextStep::Down(0));
        assert_eq!(tid_for_next_step(&list.team, 20, &v), NextStep::Down(2));
    }

    #[test]
    fn next_step_lateral_when_k_beyond_max() {
        let list = small_list();
        let idx = raw_chunk(&list, &[(10, 1), (20, 2)], 20, 99, LOCK_UNLOCKED);
        let mut h = list.handle();
        let v = h.read_chunk(idx);
        assert_eq!(tid_for_next_step(&list.team, 21, &v), NextStep::Lateral);
        // k == max: NOT lateral (strict <), down through lane 1 instead.
        assert_eq!(tid_for_next_step(&list.team, 20, &v), NextStep::Down(1));
    }

    #[test]
    fn next_step_backtrack_when_all_keys_greater() {
        let list = small_list();
        let idx = raw_chunk(&list, &[(30, 1), (40, 2)], 40, NIL, LOCK_UNLOCKED);
        let mut h = list.handle();
        let v = h.read_chunk(idx);
        assert_eq!(tid_for_next_step(&list.team, 25, &v), NextStep::Backtrack);
    }

    #[test]
    fn equal_key_lateral_decisions() {
        let list = small_list();
        let idx = raw_chunk(&list, &[(10, 7), (20, 8)], 20, 42, LOCK_UNLOCKED);
        let mut h = list.handle();
        let v = h.read_chunk(idx);
        assert_eq!(tid_with_equal_key(&list.team, 10, &v), LateralStep::Found(0));
        assert_eq!(tid_with_equal_key(&list.team, 20, &v), LateralStep::Found(1));
        assert_eq!(tid_with_equal_key(&list.team, 15, &v), LateralStep::NotFound);
        assert_eq!(tid_with_equal_key(&list.team, 25, &v), LateralStep::Continue);
    }

    #[test]
    fn empty_entries_never_vote() {
        let list = small_list();
        // Chunk with one key, lots of EMPTY tails; k bigger than the key but
        // smaller than max must go Down via the key, not via an EMPTY lane.
        let idx = raw_chunk(&list, &[(10, 1)], KEY_INF, NIL, LOCK_UNLOCKED);
        let mut h = list.handle();
        let v = h.read_chunk(idx);
        assert_eq!(tid_for_next_step(&list.team, 1000, &v), NextStep::Down(0));
    }

    #[test]
    fn search_on_empty_list_finds_nothing() {
        let list = small_list();
        let mut h = list.handle();
        assert!(!h.contains(5));
        assert_eq!(h.get(5), None);
        assert_eq!(h.stats().contains_ops, 2);
    }

    #[test]
    fn reserved_keys_are_never_contained() {
        let list = small_list();
        let mut h = list.handle();
        assert!(!h.contains(KEY_NEG_INF));
        assert!(!h.contains(KEY_INF));
    }

    #[test]
    fn search_lateral_walks_chain_and_skips_zombies() {
        let list = small_list();
        // chain: A(10,20) -> Z(zombie) -> B(30,40)
        let b = raw_chunk(&list, &[(30, 3), (40, 4)], KEY_INF, NIL, LOCK_UNLOCKED);
        let z = raw_chunk(&list, &[(21, 9)], 25, b, LOCK_ZOMBIE);
        let a = raw_chunk(&list, &[(10, 1), (20, 2)], 20, z, LOCK_UNLOCKED);
        let mut h = list.handle();
        let r = h.search_lateral(40, a);
        assert_eq!(r.enclosing, b);
        assert_eq!(r.found, Some((1, 4)));
        let r = h.search_lateral(25, a);
        assert_eq!(r.enclosing, b, "zombie contents ignored");
        assert_eq!(r.found, None);
        let r = h.search_lateral(10, a);
        assert_eq!(r.found, Some((0, 1)));
        // Read mode writes nothing: A still points at Z, no lock was taken.
        let team = list.team;
        assert_eq!(h.read_chunk(a).next(&team), z);
        assert_eq!((h.stats().locks_taken, h.stats().zombie_unlinks), (0, 0));
        // Update mode on the same chain swings A past Z and retires it.
        let mut view = ChunkView::BLANK;
        let r = h.walk_lateral(40, a, Walk::Update, &mut view).unwrap();
        assert_eq!((r.enclosing, r.found), (b, Some((1, 4))));
        assert_eq!(h.read_chunk(a).next(&team), b);
        assert_eq!((h.stats().locks_taken, h.stats().zombie_unlinks), (1, 1));
        assert_eq!(list.reclaim.as_ref().unwrap().stats().retired, 1);
        let b_word = list.pool.read(ops::lock_addr(&team, list.chunk(b)));
        assert_eq!(r.certified.map(Certified::word), Some(b_word));
        assert_eq!((view.lock_word(&team), view.entry(1).key()), (b_word, 40), "B's view is left");
    }

    #[test]
    fn path_levels_above_the_descent_read_as_heads() {
        let list = small_list();
        let mut h = list.handle();
        let mut view = ChunkView::BLANK;
        let (res, path) = h.search_slow(123, &mut view);
        assert_eq!(res.found, None);
        assert_eq!(path.at(&list, 0), list.head_of(0));
        for lvl in 1..list.params.max_levels() {
            assert_eq!(path.0[lvl], NIL, "level {lvl} was never descended through");
            assert_eq!(path.at(&list, lvl), list.head_of(lvl));
        }
        // Taller: the levels the descent left are its choices, at-or-left
        // of the key's enclosing chunk; the ones above read as heads.
        for k in 1..=2_000u32 {
            h.insert(k, k).unwrap();
        }
        let height = list.height();
        assert!(height >= 2);
        let (_, path) = h.search_slow(1_500, &mut view);
        for lvl in 0..list.params.max_levels() {
            let c = path.at(&list, lvl);
            if lvl <= height {
                assert_ne!(path.0[lvl], NIL, "level {lvl}");
                assert_eq!(
                    h.search_lateral(1_500, c).enclosing,
                    h.search_lateral(1_500, list.head_of(lvl)).enclosing,
                    "level {lvl}"
                );
            } else {
                assert_eq!(c, list.head_of(lvl), "level {lvl}");
            }
        }
    }
}
