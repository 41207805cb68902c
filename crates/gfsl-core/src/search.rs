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

/// How many update fingers a handle keeps: one per end of a sliding
/// window, where one update stream inserts and another removes.
const FINGERS: usize = 2;

/// Where one of a handle's recent updates ended (DESIGN §17): the path its
/// search recorded, moved up by the walks it made above level 0, which an
/// update of any key from `key` up may start from while the global epoch
/// is still `epoch`.
#[derive(Debug, Clone, Copy)]
struct Finger {
    /// Every level of `path` is at-or-left of the enclosing chunk of every
    /// key at or above this one: the update's key, or a larger key it
    /// raised and whose chunk it recorded.
    key: u32,
    /// The max of the bottom chunk the update ended in, as its last read
    /// saw it: a key above it lies further right, where a descent is the
    /// shorter way.
    max: u32,
    /// The epoch the update's pin announced; 0, which no pin announces,
    /// for a finger never set.
    epoch: u64,
    path: UpdatePath,
}

impl Finger {
    /// A finger no key starts from: `max` is below every user key.
    const NONE: Finger = Finger { key: 0, max: 0, epoch: 0, path: UpdatePath([NIL; gfsl_simt::WARP_SIZE]) };
}

/// A handle's update fingers ([`GfslHandle::search_slow`]), and which of
/// them its update in flight writes.
pub(crate) struct Fingers {
    all: [Finger; FINGERS],
    /// The finger the last update-path search wrote, which that update's
    /// walks above level 0 move up ([`GfslHandle::note_finger_level`]).
    last: usize,
}

impl Fingers {
    fn new() -> Box<Fingers> {
        Box::new(Fingers { all: [Finger::NONE; FINGERS], last: 0 })
    }

    /// The finger an update of `k` starts from (`Ok`): one whose key is at
    /// most `k`, whose bottom chunk's max is at least `k` and whose pin's
    /// epoch the global epoch, `now()`, has not passed. Else the finger its
    /// own path replaces (`Err`): an expired one that covers `k`, or the
    /// one whose key is nearest `k`. `now` is read only when some finger
    /// covers `k`.
    fn finger_for(&self, k: u32, now: impl FnOnce() -> u64) -> Result<usize, usize> {
        let covers = |i: &usize| self.all[*i].key <= k && k <= self.all[*i].max;
        let Some(first) = (0..FINGERS).find(covers) else {
            return Err((0..FINGERS).min_by_key(|&i| self.all[i].key.abs_diff(k)).expect("a handle keeps fingers"));
        };
        let (now, any_epoch) = (now(), crate::bug_knobs::finger_ignores_epoch());
        (first..FINGERS)
            .find(|i| covers(i) && (now <= self.all[*i].epoch || any_epoch))
            .ok_or(first)
    }
}

/// [`GfslHandle::descend`]'s two view buffers, lent to each descent and
/// put back after it, and what an update-path descent leaves in them for
/// the update that ran it.
pub(crate) struct DescentViews {
    bufs: [ChunkView; 2],
    /// The token that certified the last update-path descent's view of
    /// the level-1 chunk it stepped down through, and the buffer holding
    /// that view; `None` when that read did not certify, when the descent
    /// left level 1 by a backtrack, when the last update started from a
    /// finger, and from the start of every later descent, which reuses
    /// the buffers.
    level1: Option<(Certified, usize)>,
}

impl DescentViews {
    /// Buffers no read has filled yet.
    fn new() -> Box<DescentViews> {
        Box::new(DescentViews { bufs: [ChunkView::BLANK; 2], level1: None })
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
/// The NEXT lane sits above every DATA lane, so its vote is taken first:
/// `max < k` is `Lateral` whatever the DATA lanes say, and only otherwise
/// are they voted, as one branch-free mask over the chunk's packed words
/// ([`ChunkView::keys_le`]), whose highest lane decides. Inlined into every
/// traversal loop, this is one compare on a lateral step and one vote on a
/// down step.
#[inline(always)]
pub fn tid_for_next_step(team: &Team, k: u32, view: &ChunkView) -> NextStep {
    if view.max(team) < k {
        return NextStep::Lateral;
    }
    match view.keys_le(team, k).highest() {
        None => NextStep::Backtrack,
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
/// NEXT lane votes `max < k`; the highest voting lane wins.
///
/// Unlike [`tid_for_next_step`] this keeps the one ballot: the DATA mask
/// ([`ChunkView::keys_eq`]) with the NEXT lane's vote OR-ed in at its lane.
/// Taking the NEXT lane first here, in the lateral walk, measured 4–6 %
/// slower on `engine-churn` over alternated runs: the release build then
/// compiles the walk's vote to packed compares instead of scalar ones.
#[inline(always)]
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
    /// A result whose final view `cert` certified, in `cert`'s chunk.
    fn certified_by(found: Option<(LaneId, u32)>, cert: Certified) -> LateralResult {
        LateralResult { enclosing: cert.chunk(), found, unlocked: Some(cert.word()), certified: Some(cert) }
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
    /// The body [`Self::try_contains`] runs contained.
    pub(crate) fn contains(&mut self, k: u32) -> bool {
        self.get(k).is_some()
    }

    /// The body [`Self::try_get`] runs contained.
    pub(crate) fn get(&mut self, k: u32) -> Option<u32> {
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
        if let Some(cert) = self.hint_start(k) {
            // `hint_start` left the validated snapshot in `self.hint_view`,
            // certified by `cert`.
            let team = self.list.team;
            match tid_with_equal_key(&team, k, &self.hint_view) {
                LateralStep::Found(lane) => {
                    let found = Some((lane, self.hint_view.entry(lane).val()));
                    return LateralResult::certified_by(found, cert);
                }
                LateralStep::NotFound => return LateralResult::certified_by(None, cert),
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

    /// The body [`Self::try_min_entry`] runs contained.
    pub(crate) fn min_entry(&mut self) -> Option<(u32, u32)> {
        let team = self.list.team;
        self.stats.contains_ops += 1;
        self.with_pin(|h| {
            let mut cur = h.list.head_of(0);
            let mut view = ChunkView::BLANK;
            loop {
                let cert = h.next_live_certified(cur, &mut view);
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
    pub(crate) fn descend(&mut self, k: u32, stop: usize, path: Option<&mut UpdatePath>) -> Option<u32> {
        let mut views = self.descend_views.take().unwrap_or_else(DescentViews::new);
        let reached = self.descend_with(k, stop, path, &mut views);
        self.descend_views = Some(views);
        reached
    }

    /// The certified level-1 view the last update-path descent stepped
    /// down to level 0 through, with the token that certified it. `None`
    /// when that read did not certify, the descent left level 1 by a
    /// backtrack or restart, or another descent ran since.
    pub(crate) fn descended_view(&self) -> Option<(Certified, &ChunkView)> {
        let views = self.descend_views.as_deref()?;
        views.level1.map(|(cert, at)| (cert, &views.bufs[at]))
    }

    /// [`Self::descend`]'s loop over the two view buffers it lends, swapped
    /// on every lateral step: `views.bufs[at]` is the chunk being decided
    /// on, `views.bufs[at ^ 1]` the chunk stepped from for as long as `prev`
    /// names it.
    ///
    /// An update-path descent reads each level-1 chunk against a pre-read
    /// lock word, so the view it steps down through to level 0 is
    /// certified when no writer overlapped it; it is kept as
    /// `views.level1` for [`Self::descended_view`].
    fn descend_with(
        &mut self,
        k: u32,
        stop: usize,
        mut path: Option<&mut UpdatePath>,
        views: &mut DescentViews,
    ) -> Option<u32> {
        let team = self.list.team;
        let mut at = 0;
        views.level1 = None;
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
                let before = (height == 1 && path.is_some()).then(|| self.lock_word_of(cur));
                let mut cert = None;
                match self.read_chunk_into(cur, before, &mut views.bufs[at]) {
                    ChunkRead::Zombie { next } if path.is_none() => {
                        // Read path: zombies keep pointing at the chunk that
                        // absorbed their keys; just step through, lock-free.
                        cur = next;
                        continue;
                    }
                    ChunkRead::Zombie { next } => {
                        // Update path: lazily unlink the zombie run; the
                        // walk leaves the first live chunk's view in place
                        // of the zombie's.
                        let nz = self.first_non_zombie(next, &mut views.bufs[at]);
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
                    ChunkRead::Certified(c) => cert = Some(c),
                    ChunkRead::Live(_) => {}
                }
                let view = &views.bufs[at];
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
                            if height == 1 {
                                views.level1 = cert.map(|c| (c, at));
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
                            let pview = &views.bufs[at ^ 1];
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
    /// a path, then [`Self::walk_lateral`] in update mode — or, when one of
    /// the handle's update fingers covers `k`, that walk from the bottom of
    /// the finger's path, whose levels above it are this search's too.
    /// Either way the search's path becomes a finger, except on a handle's
    /// first descent: a handle minted for one request keeps none.
    ///
    /// A finger is safe to start from because keys only move right, so a
    /// chunk at-or-left of its key's enclosing chunk is at-or-left of every
    /// larger key's, and because no chunk the pinned update that recorded
    /// it could reach is recycled before the global epoch has advanced
    /// twice past that pin's ([`gfsl_gpu_mem::EpochReclaimer::pin`]): an
    /// epoch still at the finger's when read after this update's own pin
    /// cannot advance twice before this update unpins (DESIGN §17).
    ///
    /// `path.at(list, i)` = chunk in level `i` at-or-left of `k`'s enclosing
    /// chunk; levels the traversal never visited read as the level head.
    /// `view` is left holding the enclosing chunk's last read, which the
    /// result's `certified` word, when there is one, brackets: what
    /// [`Self::lock_certified`] upgrades to the update's bottom lock.
    ///
    /// `#[inline(always)]`: out of line, its result pair is returned
    /// through memory and read back by the caller, which cost
    /// `engine-churn` 4 % on a build whose every update misses its finger.
    #[inline(always)]
    pub(crate) fn search_slow(&mut self, k: u32, view: &mut ChunkView) -> (LateralResult, UpdatePath) {
        let mut path = UpdatePath([NIL; gfsl_simt::WARP_SIZE]);
        let mut fingers = self.fingers.take().or_else(|| self.descend_views.is_some().then(Fingers::new));
        let reclaim = &self.list.reclaim;
        let pick = fingers.as_deref().map(|f| f.finger_for(k, || reclaim.epoch()));
        if let (Some(Ok(i)), Some(f)) = (pick, fingers.as_deref()) {
            self.stats.finger_hits += 1;
            // No descent: nothing above level 0 is marked for the heal, and
            // no level-1 view is in hand.
            self.heal_levels = 0;
            if let Some(views) = self.descend_views.as_deref_mut() {
                views.level1 = None;
            }
            path = f.all[i].path;
        } else {
            path.0[0] = self.descend(k, 0, Some(&mut path)).expect("no structure is shorter than level 0");
        }
        let res = self.walk_lateral(k, path.0[0], Walk::Update, view).expect("an update walk has no budget");
        path.0[0] = res.enclosing;
        if let (Some(f), Some(Ok(slot) | Err(slot))) = (fingers.as_deref_mut(), pick) {
            f.all[slot] = Finger { key: k, max: view.max(&self.list.team), epoch: self.pin_epoch, path };
            f.last = slot;
            self.fingers = fingers;
        }
        (res, path)
    }

    /// Record in the finger this update's search wrote that the update
    /// found `chunk` enclosing `key` at `level` above 0, so the finger's
    /// path follows the update's climb and level probe instead of keeping
    /// the levels its search started from: a later update from it then
    /// walks from here, not from wherever the finger's first descent left
    /// that level. The finger's key rises to `key` when `key` is larger,
    /// which keeps every level at-or-left of the enclosing chunk of every
    /// key it covers; the chunk was reached under the pin the finger is
    /// stamped with.
    pub(crate) fn note_finger_level(&mut self, level: usize, key: u32, chunk: u32) {
        if let Some(fingers) = self.fingers.as_deref_mut() {
            let f = &mut fingers.all[fingers.last];
            f.key = f.key.max(key);
            f.path.0[level] = chunk;
        }
    }

    /// Drop this handle's update fingers: its next updates descend from
    /// the top level, as a fresh handle's do.
    pub(crate) fn forget_fingers(&mut self) {
        if let Some(fingers) = self.fingers.as_deref_mut() {
            fingers.all = [Finger::NONE; FINGERS];
        }
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
            // A live view settles with its vote, unless a `NotFound`.
            let settled = |v: &ChunkView, unlocked| {
                let step = tid_with_equal_key(&team, k, v);
                (seed_reader || step != LateralStep::NotFound).then_some((unlocked, step))
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
                ChunkRead::Live((unlocked, step)) => (None, unlocked, step),
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
            self.stash_hint_view(view, cert);
            return Some(LateralResult::certified_by(found, cert));
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
        let Some(held) = ops::try_lock(&self.list.team, &self.list.pool, &mut self.probe, prev) else {
            return;
        };
        self.stats.locks_taken += 1;
        self.held.acquired(prev);
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
        assert_eq!(list.reclaim.stats().retired, 1);
        let b_word = list.pool.read(ops::lock_addr(&team, list.chunk(b)));
        assert_eq!(r.certified.map(Certified::word), Some(b_word));
        assert_eq!((view.lock_word(&team), view.entry(1).key()), (b_word, 40), "B's view is left");
    }

    /// `lock_next_chunk` over a zombie run: the walk locks the run's first
    /// live chunk, reading each chunk once and taking one CAS; the held
    /// chunk's next swings past the run, which is retired once, chunk by
    /// chunk.
    #[test]
    fn lock_next_chunk_locks_past_a_zombie_run_and_retires_it() {
        let list = small_list();
        let team = list.team;
        let b = raw_chunk(&list, &[(30, 3)], KEY_INF, NIL, LOCK_UNLOCKED);
        let z2 = raw_chunk(&list, &[(25, 9)], 25, b, LOCK_ZOMBIE);
        let z1 = raw_chunk(&list, &[(21, 9)], 21, z2, LOCK_ZOMBIE);
        let a = raw_chunk(&list, &[(10, 1)], 20, z1, LOCK_UNLOCKED);
        let mut h = list.handle();
        let mut view = ChunkView::BLANK;
        let held_a = h.find_and_lock_enclosing(a, 10, &mut view);
        let before = h.stats();
        let held_b = h.lock_next_chunk(&held_a, 0, &mut view).expect("a live chunk follows the run");
        let after = h.stats();
        assert_eq!(held_b.chunk(), b);
        assert_eq!(view.entry(0).key(), 30, "b's view is left");
        assert_eq!(
            (after.chunk_reads - before.chunk_reads, after.locks_taken - before.locks_taken, after.lock_retries),
            (3, 1, 0),
            "z1, z2 and b read once each, b locked by one CAS"
        );
        assert_eq!(after.zombie_unlinks - before.zombie_unlinks, 1);
        assert_eq!(list.reclaim.stats().retired, 2, "z1 and z2");
        h.unlock(held_b);
        h.unlock(held_a);
        assert_eq!(h.read_chunk(a).next(&team), b);
    }

    /// A list of `n` keys, built by a handle of its own.
    fn filled(n: u32) -> Gfsl {
        let list = small_list();
        let mut h = list.handle();
        for k in 1..=n {
            h.insert(2 * k, k).unwrap();
        }
        drop(h);
        list
    }

    /// A handle of `list` that has run a read, so its first update's path
    /// is already a finger.
    fn armed(list: &Gfsl) -> GfslHandle<'_, gfsl_gpu_mem::NoProbe> {
        let mut h = list.handle();
        h.contains(2);
        assert!(h.descend_views.is_some(), "a read descends");
        h
    }

    /// A handle's first descent keeps no finger, so a handle minted for one
    /// request builds none; the path of its next update is a finger.
    #[test]
    fn a_handles_first_descent_keeps_no_finger() {
        let list = filled(500);
        let mut h = list.handle();
        assert_eq!(h.insert(501, 1), Ok(true));
        assert!(h.fingers.is_none(), "one update builds no finger");
        assert_eq!(h.remove(502), Some(251));
        assert_eq!(h.stats().finger_hits, 0, "the remove descends");
        assert_eq!(h.insert(502, 2), Ok(true));
        assert_eq!(h.stats().finger_hits, 1, "from the remove's finger");
        // A read is a first descent too.
        let mut h = armed(&list);
        assert_eq!(h.remove(502), Some(2));
        assert_eq!(h.insert(502, 3), Ok(true));
        assert_eq!(h.stats().finger_hits, 1);
        list.assert_valid();
    }

    /// A finger covers the keys from its own up to its bottom chunk's max:
    /// a larger key in that chunk starts from it, a smaller one descends.
    /// 502 is in the chunk 501 goes into: the chunk enclosing 502, or the
    /// one whose max, 500, sends 501 on to 502's.
    #[test]
    fn a_key_below_a_fingers_key_descends() {
        let list = filled(500);
        let mut h = armed(&list);
        assert_eq!(h.insert(501, 1), Ok(true));
        assert_eq!(h.stats().finger_hits, 0, "a handle with no finger descends");
        assert_eq!(h.remove(502), Some(251));
        assert_eq!(h.stats().finger_hits, 1);
        // Below the finger's key, in its chunk: a descent, one read a level.
        let reads = h.stats().chunk_reads;
        assert_eq!(h.insert(499, 1), Ok(true));
        assert_eq!(h.stats().finger_hits, 1);
        assert!(h.stats().chunk_reads - reads > list.height() as u64, "a descent reads every level");
        // Above it again: the insert's own finger.
        assert_eq!(h.insert(500, 2), Ok(false));
        assert_eq!(h.stats().finger_hits, 2);
        list.assert_valid();
    }

    /// A reclaim pass advances the epoch between two updates: the second
    /// descends, though its key is just above the first's.
    #[test]
    fn a_reclaim_pass_between_two_updates_expires_the_finger() {
        let list = filled(500);
        let mut h = armed(&list);
        assert_eq!(h.insert(501, 1), Ok(true));
        assert_eq!(h.remove(502), Some(251));
        assert_eq!(h.stats().finger_hits, 1);
        let epoch = list.reclaim.epoch();
        h.reclaim_pass().unwrap();
        assert!(list.reclaim.epoch() > epoch);
        assert_eq!(h.insert(502, 1), Ok(true));
        assert_eq!(h.stats().finger_hits, 1, "the pass expired both fingers");
        assert_eq!(h.remove(502), Some(1));
        assert_eq!(h.stats().finger_hits, 2, "the insert's path is a finger again");
        list.assert_valid();
    }

    /// An insert-only ascending stream on one handle: the tail chunk's max
    /// covers every larger key and no pass advances the epoch, so every
    /// insert after the first two starts from its finger, and the finger's
    /// upper levels follow each raise's climb. The stream reads no more
    /// chunks per insert than the same inserts each descending from the
    /// top level (a finger whose upper levels stayed where its first
    /// descent left them walked each climb over every chunk raised since).
    #[test]
    fn an_ascending_insert_stream_reads_no_more_than_its_descents() {
        const N: u32 = 200_000;
        let reads_per_insert = |descend: bool| {
            let list = Gfsl::new(GfslParams::default()).unwrap();
            let mut h = armed(&list);
            h.reset_stats();
            for k in 1..=N {
                if descend {
                    h.forget_fingers();
                }
                assert_eq!(h.insert(k, k), Ok(true));
            }
            list.assert_valid();
            let s = h.stats();
            (s.chunk_reads as f64 / f64::from(N), s.finger_hits)
        };
        let (descents, hits) = reads_per_insert(true);
        assert_eq!(hits, 0);
        let (fingers, hits) = reads_per_insert(false);
        assert_eq!(hits, u64::from(N) - 1, "every insert after the first from its finger");
        assert!(fingers <= descents, "{fingers:.3} chunk reads per insert from fingers, {descents:.3} by descents");
    }

    /// The sliding window of `engine-churn` (one handle, every op a write,
    /// reclamation running): the inserts at the right end and the removes
    /// at the left each start from their own finger between passes.
    #[test]
    fn a_sliding_window_reads_under_two_and_a_half_chunks_per_op() {
        const WINDOW: u32 = 4_096;
        let list = Gfsl::new(GfslParams::default()).unwrap();
        let mut h = list.handle();
        for k in 1..=WINDOW {
            h.insert(k, k).unwrap();
        }
        h.reset_stats();
        for k in 1..=16_384 {
            assert_eq!(h.insert(WINDOW + k, WINDOW + k), Ok(true));
            assert_eq!(h.remove(k), Some(k));
        }
        let s = h.stats();
        let per_op = s.chunk_reads as f64 / s.total_ops() as f64;
        assert!(per_op <= 2.4, "{per_op:.3} chunk reads per op");
        assert!(s.finger_hits * 2 > s.total_ops(), "{} finger hits", s.finger_hits);
        list.assert_valid();
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
        // of the key's enclosing chunk; the ones above read as heads. A
        // fresh handle searches, so no finger stands in for the descent.
        for k in 1..=2_000u32 {
            h.insert(k, k).unwrap();
        }
        let height = list.height();
        assert!(height >= 2);
        let mut h = list.handle();
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
