//! Traversal: `Contains`/`get`, `searchDown`, `searchLateral`, and the
//! path-recording `searchSlow` used by updates (paper §4.2.1–4.2.2).

use gfsl_gpu_mem::MemProbe;
use gfsl_simt::{Ballot, LaneId, Team};

use crate::chunk::{ops, is_user_key, ChunkView, NIL};
use crate::skiplist::{Gfsl, GfslHandle, HEAL_STEPS_BOTTOM, HEAL_STEPS_UPPER, HINT_WALK_BUDGET};

/// The per-level path an update's traversal records (`searchSlow`): at each
/// level it descended through, a chunk at-or-left of the key's enclosing
/// chunk there. Levels above the height it started from hold `NIL` and read
/// as their level head, so no update pays for the levels nobody uses.
#[derive(Debug, Clone, Copy)]
pub(crate) struct UpdatePath([u32; gfsl_simt::WARP_SIZE]);

impl UpdatePath {
    /// The chunk to start from at `level`.
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
    /// The enclosing chunk's lock word, when it was observed *unlocked* in
    /// the final view (always on certified `NotFound`; on `Found` only if
    /// no writer happened to hold the chunk). Feeds the traversal hint
    /// cache: a `(chunk, word)` pair can later revalidate the chunk as
    /// unchanged-since-observed via version equality.
    pub word: Option<u64>,
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
            h.note_hint(res.enclosing, res.word);
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
        if let Some(c) = self.hint_start(k) {
            // `hint_start` left the validated snapshot in `self.hint_view`.
            let team = self.list.team;
            // The validated word is unlocked by construction.
            let word = Some(self.hint_view.lock_word(&team));
            match tid_with_equal_key(&team, k, &self.hint_view) {
                LateralStep::Found(lane) => {
                    return LateralResult {
                        enclosing: c,
                        found: Some((lane, self.hint_view.entry(lane).val())),
                        word,
                    };
                }
                LateralStep::NotFound => {
                    return LateralResult {
                        enclosing: c,
                        found: None,
                        word,
                    };
                }
                LateralStep::Continue => {
                    let next = self.hint_view.next(&team);
                    debug_assert_ne!(next, NIL);
                    if let Some(res) = self.search_lateral_bounded(k, next, HINT_WALK_BUDGET) {
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
                // Certified: claiming a minimum asserts the absence of
                // smaller keys in the view, which a torn read racing a
                // remove can fake.
                h.next_live_certified(cur, &mut view)?;
                // First live key above -inf; data arrays are sorted with
                // empties at the end, and the -inf sentinel can only sit in
                // entry 0, so the lowest voting lane is the minimum.
                if let Some(lane) = view.keys_live(&team).lowest() {
                    let e = view.entry(lane);
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
                self.read_chunk_into(cur, &mut views[at]);
                if views[at].is_zombie(&team) {
                    if path.is_some() {
                        // Update path: lazily unlink the zombie run; the
                        // walk leaves the first live chunk's view in place
                        // of the zombie's.
                        let Some(nz) = self.first_non_zombie(&mut views[at]) else {
                            self.stats.search_restarts += 1;
                            continue 'restart;
                        };
                        match prev {
                            Some(pptr) => self.redirect_past_zombies(pptr, cur, nz, height),
                            None => {
                                if self.list.head_of(height) == cur {
                                    self.update_head(height, cur, nz);
                                }
                            }
                        }
                        cur = nz;
                    } else {
                        // Read path: zombies keep pointing at the chunk that
                        // absorbed their keys; just step through, lock-free.
                        let next = views[at].next(&team);
                        if next == NIL {
                            // Defensive: the last chunk is never zombified,
                            // so this indicates we raced something unusual.
                            self.stats.search_restarts += 1;
                            continue 'restart;
                        }
                        cur = next;
                        continue;
                    }
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

    /// Walk right along one level until `k`'s enclosing chunk, skipping
    /// zombies (Algorithm 4.4).
    ///
    /// A `NotFound` answer is only returned once *certified*: the chunk is
    /// re-read until two consecutive views carry the same unlocked lock
    /// word. The team reads lanes in ascending order while `executeRemove`
    /// shifts entries toward lower lanes, so a single view can miss a key
    /// that hopped over the read cursor — but every entry move happens under
    /// the chunk lock, and each release bumps the lock word's version, so
    /// equal unlocked lock words bracketing a view prove no entry moved
    /// while it was read. `Found` needs no certification (an entry is one
    /// atomic word), and `Continue` follows a `(max, next)` pair written
    /// atomically; keys never migrate to an earlier chunk, so a passed
    /// chunk can never hide `k`.
    pub(crate) fn search_lateral(&mut self, k: u32, start: u32) -> LateralResult {
        self.search_lateral_bounded(k, start, u32::MAX)
            .expect("unbounded lateral search always reaches the enclosing chunk")
    }

    /// [`Self::search_lateral`] with a chunk-move budget: returns `None`
    /// once the walk has stepped `budget` chunks without reaching `k`'s
    /// enclosing chunk.
    ///
    /// This is what makes the traversal hint cache safe to consult on
    /// arbitrary key streams: a validated hint only proves the enclosing
    /// chunk is *at-or-right* of the cached one, at an unknown distance. A
    /// clustered stream lands within a step or two; a stream that jumps far
    /// right would otherwise degrade the O(log n) descent into an O(n)
    /// bottom-level crawl. Capping the walk bounds the worst case at
    /// `budget` extra chunk reads before falling back to the descent.
    pub(crate) fn search_lateral_bounded(
        &mut self,
        k: u32,
        start: u32,
        budget: u32,
    ) -> Option<LateralResult> {
        let team = self.list.team;
        let mut cur = start;
        let mut moves = 0u32;
        // One buffer, reloaded at every chunk the walk reads.
        let mut view = ChunkView::BLANK;
        // Lock word observed before the current view's data lanes (i.e. from
        // the previous read of the *same* chunk). Reset on every move.
        let mut certify: Option<u64> = None;
        let mut waits = 0;
        loop {
            // Pre-bracket: observe the lock word before the team read. If
            // the view's own lock lane (read after every data lane) repeats
            // it unlocked, the view is *certified on first read* — a
            // `NotFound` answer returns without the confirming re-read the
            // certify loop below would otherwise pay, and a `Found` view is
            // eligible for the fat-hint stash. One extra word read per
            // chunk arrival buys back a whole team read on the (common)
            // quiescent-chunk case.
            if certify.is_none() {
                let addr = ops::lock_addr(&team, self.list.chunk(cur));
                self.probe.lane_read(addr);
                certify = Some(self.list.pool.read(addr));
            }
            self.read_chunk_into(cur, &mut view);
            if view.is_zombie(&team) {
                cur = view.next(&team);
                certify = None;
                debug_assert_ne!(cur, NIL);
                moves += 1;
                if moves > budget {
                    return None;
                }
                continue;
            }
            match tid_with_equal_key(&team, k, &view) {
                LateralStep::Continue => {
                    cur = view.next(&team);
                    certify = None;
                    moves += 1;
                    if moves > budget {
                        return None;
                    }
                }
                LateralStep::Found(lane) => {
                    let word = view.unlocked_word(&team);
                    if word.is_some() && certify == word {
                        // Pre-bracketed: certified despite needing no
                        // confirmation for the answer itself.
                        self.stash_hint_view(cur, &view);
                    }
                    return Some(LateralResult {
                        enclosing: cur,
                        found: Some((lane, view.entry(lane).val())),
                        word,
                    });
                }
                LateralStep::NotFound => {
                    if crate::bug_knobs::revert_remove_shift() {
                        // Seed-era reader: trust the single team read with
                        // no lock-word bracketing. Combined with the
                        // reverted right-to-left shift this re-opens the
                        // PR 1 torn-read race for the model-check oracle.
                        return Some(LateralResult {
                            enclosing: cur,
                            found: None,
                            word: None,
                        });
                    }
                    // The lock lane is read after every data lane of `view`.
                    let after = view.lock_word(&team);
                    if certify == Some(after)
                        && crate::chunk::lock_state(after) == crate::chunk::LOCK_UNLOCKED
                    {
                        // Bracketed by the previous read's lock lane and this
                        // view's own: certified, so eligible as the fat hint.
                        self.stash_hint_view(cur, &view);
                        return Some(LateralResult {
                            enclosing: cur,
                            found: None,
                            word: Some(after),
                        });
                    }
                    if certify.is_some() {
                        // A writer was active during the read: genuine retry.
                        self.certify_backoff(&mut waits, cur);
                    }
                    certify = Some(after);
                }
            }
        }
    }

    /// The update-path search (`searchSlow`, Algorithm 4.6): same traversal
    /// as `search_down` + bottom lateral, but records the per-level path and
    /// lazily unlinks zombies it meets after lateral steps.
    ///
    /// `path.at(list, i)` = chunk in level `i` at-or-left of `k`'s enclosing
    /// chunk; levels the traversal never visited read as the level head.
    /// `view` is left holding the enclosing chunk's last read, and the
    /// result's `word` is `Some` exactly when that view is *certified* (its
    /// data lanes bracketed by two reads of that same unlocked word): what
    /// [`Self::lock_certified`] upgrades to the update's bottom lock.
    pub(crate) fn search_slow(
        &mut self,
        k: u32,
        view: &mut ChunkView,
    ) -> (LateralResult, UpdatePath) {
        let mut path = UpdatePath([NIL; gfsl_simt::WARP_SIZE]);
        let bottom = self
            .descend(k, 0, Some(&mut path))
            .expect("no structure is shorter than level 0");
        let res = self.search_lateral_redirect(k, bottom, view);
        path.0[0] = res.enclosing;
        (res, path)
    }

    /// Like [`Self::search_lateral`] but lazily unlinks zombie runs it walks
    /// through (the bottom-level half of `findLateralWithZombieRedirect`),
    /// and walks in the caller's `view`, whose last read it leaves there.
    /// Unlike `search_lateral`'s, a `Found` result carries its `word` only
    /// when the view is certified.
    pub(crate) fn search_lateral_redirect(
        &mut self,
        k: u32,
        start: u32,
        view: &mut ChunkView,
    ) -> LateralResult {
        let team = self.list.team;
        let mut prev: Option<u32> = None;
        let mut cur = start;
        self.heal_levels &= !1;
        let mut steps = 0u8;
        // NotFound certification, exactly as in `search_lateral`.
        let mut certify: Option<u64> = None;
        let mut waits = 0;
        loop {
            // Pre-bracket, as in `search_lateral_bounded`: certify views on
            // first read so the common quiescent case (every fresh insert's
            // final `NotFound`) skips the confirming re-read.
            if certify.is_none() {
                let addr = ops::lock_addr(&team, self.list.chunk(cur));
                self.probe.lane_read(addr);
                certify = Some(self.list.pool.read(addr));
            }
            self.read_chunk_into(cur, view);
            if view.is_zombie(&team) {
                certify = None;
                let next = view.next(&team);
                match self.first_non_zombie(view) {
                    Some(nz) => {
                        if let Some(p) = prev {
                            self.redirect_past_zombies(p, cur, nz, 0);
                        }
                        cur = nz;
                        continue;
                    }
                    None => {
                        // Torn race; fall back to the plain walk which will
                        // simply keep stepping.
                        cur = next;
                        debug_assert_ne!(cur, NIL);
                        continue;
                    }
                }
            }
            let step = tid_with_equal_key(&team, k, view);
            if step != LateralStep::Continue && steps >= HEAL_STEPS_BOTTOM && !is_tail(&team, view) {
                self.heal_levels |= 1;
            }
            match step {
                LateralStep::Continue => {
                    steps = steps.saturating_add(1);
                    prev = Some(cur);
                    cur = view.next(&team);
                    certify = None;
                }
                LateralStep::Found(lane) => {
                    let word = view.unlocked_word(&team).filter(|&w| certify == Some(w));
                    if word.is_some() {
                        self.stash_hint_view(cur, view);
                    }
                    return LateralResult {
                        enclosing: cur,
                        found: Some((lane, view.entry(lane).val())),
                        word,
                    };
                }
                LateralStep::NotFound => {
                    if crate::bug_knobs::revert_remove_shift() {
                        // Seed-era uncertified reader; see
                        // `search_lateral_bounded`.
                        return LateralResult {
                            enclosing: cur,
                            found: None,
                            word: None,
                        };
                    }
                    let after = view.lock_word(&team);
                    if certify == Some(after)
                        && crate::chunk::lock_state(after) == crate::chunk::LOCK_UNLOCKED
                    {
                        self.stash_hint_view(cur, view);
                        return LateralResult {
                            enclosing: cur,
                            found: None,
                            word: Some(after),
                        };
                    }
                    if certify.is_some() {
                        self.certify_backoff(&mut waits, cur);
                    }
                    certify = Some(after);
                }
            }
        }
    }

    /// Follow next pointers from the zombie snapshot in `view` until a
    /// non-zombie chunk, reloading `view` at every step: on `Some(chunk)`
    /// it holds that chunk's snapshot. Returns `None` only on a torn race
    /// (caller restarts).
    pub(crate) fn first_non_zombie(&mut self, view: &mut ChunkView) -> Option<u32> {
        let team = self.list.team;
        let mut cur = view.next(&team);
        loop {
            if cur == NIL {
                return None;
            }
            self.read_chunk_into(cur, view);
            if !view.is_zombie(&team) {
                return Some(cur);
            }
            cur = view.next(&team);
        }
    }

    /// Lazily rewrite `prev`'s next pointer to skip a zombie run:
    /// best-effort try-lock, re-verify, single-word write (paper §4.2.2:
    /// "the redirection is performed lazily by calling try-lock on the
    /// previous chunk; if the lock fails the team continues").
    ///
    /// A successful swing is the moment the skipped zombies become
    /// unreachable from the live chain, and the re-verified lock on `prev`
    /// makes this team the *unique* unlinker of exactly this run — so this
    /// is where the run is retired to the epoch reclaimer.
    pub(crate) fn redirect_past_zombies(&mut self, prev: u32, old_next: u32, new_next: u32, level: usize) {
        let team = self.list.team;
        let pool = &self.list.pool;
        let pch = self.list.chunk(prev);
        if !ops::try_lock(&team, pool, &mut self.probe, pch) {
            return;
        }
        self.stats.locks_taken += 1;
        self.held.acquired(prev);
        // Under the lock, prev cannot be zombified or split concurrently.
        let nf = ops::read_next_field(&team, &self.list.pool, &mut self.probe, pch);
        if nf.val() == old_next {
            ops::write_next_field(
                &team,
                &self.list.pool,
                &mut self.probe,
                pch,
                nf.key(),
                new_next,
            );
            self.stats.zombie_unlinks += 1;
            self.retire_run(old_next, new_next, level);
        }
        self.unlock(prev);
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
    fn raw_chunk(list: &Gfsl, entries: &[(u32, u32)], max: u32, next: u32, lock: u64) -> u32 {
        let mut h = list.handle();
        let idx = h.alloc_chunk().unwrap();
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
