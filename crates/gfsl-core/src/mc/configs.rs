//! Named model-check configurations.
//!
//! Each configuration is a small, fully scripted concurrent run chosen to
//! put one protocol path under systematic schedule exploration. They are
//! shared between the `gfsl` integration tests (tier-1 and the CI
//! `modelcheck` job) and `stress --modelcheck <name>`, so a counterexample
//! spec printed by either replays in both.
//!
//! Sizing discipline: exhaustive exploration cost grows roughly with
//! `(decision points)^(preemption bound)`, and every gated pool access is
//! a decision point, so configs stay at 2–3 threads and 1–3 ops per thread
//! over a single near-full chunk.

use gfsl_simt::TeamSize;

use super::{McConfig, McOp};
use crate::params::GfslParams;

/// Parameters every config shares: the 16-lane team (14 data entries —
/// smallest structure, shortest episodes), a tiny pool, and deterministic
/// raise coins via `p_chunk = 1`. (The episode's workers run with their
/// handles' hint live, so the *certified-snapshot hinted path* is what gets
/// explored — see `run_workers`.)
fn mc_params() -> GfslParams {
    GfslParams {
        team_size: TeamSize::Sixteen,
        p_chunk: 1.0,
        pool_chunks: 64,
        ..GfslParams::default()
    }
}

/// Keys `2, 4, …, 26`: together with the `-inf` sentinel entry these 13
/// keys exactly fill the 14-slot head chunk, so the *scripted* insert —
/// not the prefill — takes the split path.
fn full_chunk_prefill() -> Vec<(u32, u32)> {
    (1..=13u32).map(|i| (2 * i, 100 + i)).collect()
}

/// [`mc_params`] with the multiversion engine on: updates stamp through
/// the version fence and capture chunk pre-images, `SnapGet` ops pin and
/// resolve — the publish/pin/retire path is what gets explored.
fn mvcc_params() -> GfslParams {
    GfslParams {
        mvcc: true,
        ..mc_params()
    }
}

/// Keys `2, 4, …, 56` inserted in descending order. Each goes below every
/// key, so no split is an append split: each full head chunk splits at
/// `DSIZE/2` and keeps the key, which it raises. Four bottom chunks of
/// seven keys — head `2..=14`, then `16..=28`, `30..=42`, `44..=56` — each
/// indexed at level 1 by its minimum but the last: 2, 16, 30.
fn four_chunk_prefill() -> Vec<(u32, u32)> {
    (1..=28u32).rev().map(|i| (2 * i, 100 + i)).collect()
}

/// Keys `2, 4, …, 504` in descending order (half splits only, as in
/// [`four_chunk_prefill`]): 36 bottom chunks of seven keys; a level 1 of
/// five chunks of seven keys holding every bottom chunk's minimum but the
/// last's — `2..=86`, `100..=184`, `198..=282`, `296..=380`, `394..=478`
/// in steps of 14; and the level-2 keys 2, 100, 198, 296, the minimums of
/// all level-1 chunks but the last.
fn five_index_chunk_prefill() -> Vec<(u32, u32)> {
    (1..=252u32).rev().map(|i| (2 * i, 100 + i)).collect()
}

/// [`five_index_chunk_prefill`] with every key doubled (`4, 8, …, 1008`):
/// the same chunks, each now spanning 28 integers for its seven keys, so a
/// script can fill one to the brim and still find a key that splits it.
fn spaced_five_index_prefill() -> Vec<(u32, u32)> {
    (1..=252u32).rev().map(|i| (4 * i, 100 + i)).collect()
}

/// Keys `4, 8, …, 52`, then `1`, then `400`, then `2, 3, 5, 6, 7, 9`. The
/// insert of 1 splits the full head chunk in half and 400 the tail by an
/// append, which leaves the head chunk `-inf, 1 … 9, 12, 16, 20, 24` full
/// ahead of `28 … 52, 400`.
fn torn_zombie_prefill() -> Vec<(u32, u32)> {
    let keys = (1..=13u32).map(|i| 4 * i).chain([1, 400, 2, 3, 5, 6, 7, 9]);
    keys.map(|k| (k, 100 + k)).collect()
}

/// Keys `4, 8, …, 416` inserted in descending order (half splits only, as
/// in [`four_chunk_prefill`]): the bottom head chunk `-inf, 4 … 52` is
/// full, thirteen chunks of seven keys follow (`56 … 80` to `392 … 416`),
/// and level 1 is one full chunk, its head: `-inf` and the thirteen keys
/// `28, 56, …, 364`. Level 2 has no head.
fn full_level_one_prefill() -> Vec<(u32, u32)> {
    (1..=104u32).rev().map(|i| (4 * i, 100 + i)).collect()
}

/// A setup script that inserts `keys` (values 1).
fn inserts(keys: &[u32]) -> Vec<McOp> {
    keys.iter().map(|&k| McOp::Insert(k, 1)).collect()
}

/// The writer of the torn-zombie configs: the insert splits the full head
/// chunk X, moving `7 … 24` into a new chunk X′ (which takes 10), and the
/// removes drain X until it merges into X′ and is zombified.
fn split_then_merge_away() -> Vec<McOp> {
    vec![McOp::Insert(10, 1), McOp::Remove(1), McOp::Remove(2), McOp::Remove(3), McOp::Remove(4)]
}

/// A setup script that deletes `keys`: an episode can start from an index
/// that deletes have thinned.
fn removes(keys: &[u32]) -> Vec<McOp> {
    keys.iter().map(|&k| McOp::Remove(k)).collect()
}

/// Setup of `reclaim-2t`, on the spaced index.
fn reclaim_setup() -> Vec<McOp> {
    // Level 2 goes (height 1).
    let mut ops = removes(&[4, 200, 396, 592]);
    // Level 1's first chunk `-inf, 32, …, 172` drops to four entries and
    // merges into its neighbour. The team that merged it never repairs
    // the level-2 sentinel's `-inf` entry: it keeps pointing down at the
    // zombie, which the next update's descent unlinks and retires.
    ops.extend(removes(&[32, 60, 88]));
    ops.push(McOp::RemoveUnrepaired(116));
    // Three bottom chunks two or more steps right of the head lost their
    // index entry with that; each insert walks to its chunk along the
    // bottom and heals.
    ops.extend(inserts(&[121, 93, 65]));
    // The bottom chunks `312, …, 336` and `340, …, 364` fill and split:
    // their raised keys fill level 1's first chunk again.
    ops.extend(inserts(&[313, 314, 315, 317, 318, 319, 321, 322]));
    ops.extend(inserts(&[341, 342, 343, 345, 346, 347, 349, 350]));
    // The bottom chunk `284, …, 308` fills and splits: the key that raises
    // splits level 1's first chunk, which raises into level 2 — height 2,
    // and reads start at the sentinel with the stale entry.
    ops.extend(inserts(&[285, 286, 287, 289, 290, 291, 293, 294]));
    // Level 1's first chunk down to `-inf, 144, 172, 228`: one removal
    // from merging in its turn.
    ops.extend(removes(&[64, 92, 120]));
    // The bottom chunk `36, 40, …, 56` filled to its fourteen entries.
    ops.extend(inserts(&[37, 39, 41, 42, 43, 45, 46, 47]));
    // The zombie has been a candidate, was found referenced from level 2
    // and went back to limbo; the stalled pass leaves it one epoch advance
    // short of being a candidate again.
    ops.extend([McOp::ReclaimPass, McOp::StalledReclaimPass]);
    ops
}

/// All registered configurations.
pub fn all() -> Vec<McConfig> {
    vec![
        McConfig {
            name: "heal-2t",
            about: "index heal (insert raises its locked chunk's minimum with no \
                    split) vs. a remove of that minimum",
            params: mc_params(),
            prefill: four_chunk_prefill(),
            // The deletes take the whole index with them: height 0.
            setup: removes(&[2, 16, 30]),
            threads: vec![
                // Walks head -> 18.. -> 32.. (two live lateral steps, not
                // the tail): heals by raising 32, the chunk's minimum, into
                // the empty level 1 while holding the chunk's lock.
                vec![McOp::Insert(33, 1)],
                // Needs that same lock: either removes 32 before the heal
                // reads the chunk (34 is raised instead) or finds and
                // removes the new entry top-down.
                vec![McOp::Remove(32)],
            ],
            max_steps: 20_000,
        },
        McConfig {
            name: "heal-3t",
            about: "index heal vs. a remove of the raised minimum vs. lock-free \
                    reads through the new index entry",
            params: mc_params(),
            prefill: four_chunk_prefill(),
            setup: removes(&[2, 16, 30]),
            threads: vec![
                vec![McOp::Insert(33, 1)],
                vec![McOp::Remove(32)],
                // Both land in the healed chunk: through the level-1 entry
                // once it is published, along the bottom level before.
                vec![McOp::Get(32), McOp::Get(36)],
            ],
            max_steps: 30_000,
        },
        McConfig {
            name: "heal-upper-2t",
            about: "upper-level heal raises only a chunk minimum the held bottom \
                    lock protects (heal lock-coverage oracle)",
            params: mc_params(),
            prefill: five_index_chunk_prefill(),
            // Level 2 goes (height 1), and so does 324, the level-1 entry
            // after 310: the bottom chunk `326..=336` is now reached
            // through 310 without sharing its lock.
            setup: removes(&[2, 100, 198, 296, 324]),
            threads: vec![
                // Level 1 is walked head -> 114.. -> 212.. -> 310.. (three
                // steps, not the tail) and left through 310, that chunk's
                // minimum; 329 lives one bottom chunk right of 310's. The
                // heal must not raise 310 — the reverted draft does.
                vec![McOp::Insert(329, 1)],
                // Finds nothing above level 1 before the reverted heal
                // publishes 310 at level 2, and removes it below: the new
                // entry dangles.
                vec![McOp::Remove(310)],
            ],
            max_steps: 40_000,
        },
        McConfig {
            name: "reclaim-2t",
            about: "zombie reclamation (grace, reachability scan, staging grace, \
                    reuse) vs. a read that can park on the zombie",
            params: mc_params(),
            prefill: spaced_five_index_prefill(),
            setup: reclaim_setup(),
            threads: vec![
                vec![
                    // Merges level 1's first chunk away; with level 2 in
                    // use again the repair reaches its sentinel, and the
                    // last reference to the old zombie is gone.
                    McOp::Remove(144),
                    // Candidate, verified unreachable, staged; two more
                    // passes see it through the staging grace — unless the
                    // reader is parked: it pinned one epoch back.
                    McOp::ReclaimPass,
                    McOp::ReclaimPass,
                    McOp::ReclaimPass,
                    // Splits the full bottom chunk: the new half is the
                    // recycled zombie when there is one.
                    McOp::Insert(38, 2),
                ],
                // Steps down from the level-2 sentinel: onto the zombie, if
                // it reads the entry before the repair. 44 lives in the
                // chunk the insert splits.
                vec![McOp::Get(44)],
            ],
            max_steps: 60_000,
        },
        McConfig {
            name: "cert-read-2t",
            about: "certified-snapshot hinted reads racing a chunk split",
            params: mc_params(),
            prefill: full_chunk_prefill(),
            setup: vec![],
            threads: vec![
                // Splitter: insert below every prefilled key into the full
                // chunk — forces split + raise while the reader walks.
                vec![McOp::Insert(1, 1)],
                // Reader: certified reads on both halves of the split (14
                // is the first key moved to the new chunk, 26 the last).
                vec![McOp::Get(14), McOp::Get(26)],
            ],
            max_steps: 20_000,
        },
        McConfig {
            name: "cert-read-3t",
            about: "hinted reads racing a split and a removal",
            params: mc_params(),
            prefill: full_chunk_prefill(),
            setup: vec![],
            threads: vec![
                vec![McOp::Insert(1, 1)],
                vec![McOp::Remove(26)],
                vec![McOp::Get(14), McOp::Get(2)],
            ],
            max_steps: 30_000,
        },
        McConfig {
            name: "split-raise-2t",
            about: "split raised-key placement vs. concurrent remove (PR 1 seed race #1 oracle)",
            params: mc_params(),
            prefill: full_chunk_prefill(),
            setup: vec![],
            threads: vec![
                // Insert(1) lands in the old (still locked) half, so the
                // fixed code raises key 1 itself; the reverted bug raises
                // max(k, min_moved) = 14 — a key living in the *unlocked*
                // new chunk.
                vec![McOp::Insert(1, 1)],
                // Racing remove of that raised key: scheduled between the
                // new chunk's unlock and the level-1 install, it deletes 14
                // from level 0, finds no index entry to clean, and leaves
                // the subsequently installed level-1 entry dangling.
                vec![McOp::Remove(14)],
            ],
            max_steps: 20_000,
        },
        McConfig {
            name: "level-grow-2t",
            about: "two splits race to raise into the full head of the top \
                    level: the first splits it and grows a level, whose head is \
                    allocated and published then, vs. a remove whose upward \
                    probe reads the new level (early-publish oracle)",
            params: mc_params(),
            prefill: full_level_one_prefill(),
            // The bottom chunk `56 … 80` filled to its fourteen entries.
            setup: inserts(&[57, 58, 59, 61, 62, 63, 65]),
            threads: vec![
                // Splits the full bottom head and raises into level 1's
                // full head: splits it, or one of its halves takes the key.
                vec![McOp::Insert(1, 1)],
                // The same with the other full bottom chunk, then a remove
                // of 112, a level-1 key of a third chunk: the probe above
                // level 1 finds no head, or the new level's.
                vec![McOp::Insert(66, 2), McOp::Remove(112)],
            ],
            max_steps: 40_000,
        },
        McConfig {
            name: "split-append-2t",
            about: "append split (the full tail chunk moves nothing, the new \
                    chunk takes only the key) vs. reads and a remove of the \
                    old max (lowered-max oracle)",
            params: mc_params(),
            prefill: full_chunk_prefill(),
            setup: vec![],
            threads: vec![
                // 28 is above every key of the level's one full chunk: the
                // new chunk is published empty, locked, and takes 28; the
                // old chunk's max drops from ∞ to 26 in the publish.
                vec![McOp::Insert(28, 1)],
                // The old max, on either side of the publish; the appended
                // key, which a read may meet in the locked, still-empty new
                // chunk; then a remove of the old max, which needs the old
                // chunk's lock.
                vec![McOp::Get(26), McOp::Get(28), McOp::Remove(26)],
            ],
            max_steps: 20_000,
        },
        McConfig {
            name: "remove-shift-2t",
            about: "remove compaction shift vs. concurrent reads (PR 1 seed race #2 oracle)",
            params: mc_params(),
            // Four keys in one chunk; removing 20 shifts 30 and 40 left.
            prefill: vec![(10, 1), (20, 2), (30, 3), (40, 4)],
            setup: vec![],
            threads: vec![
                vec![McOp::Remove(20)],
                // The reverted right-to-left shift makes 30 transiently
                // vanish (slot overwritten by 40 before 30 moves left); a
                // lock-free read in that window returns Get(30) = None,
                // which no linearization of {remove 20 ∥ get 30, get 40}
                // permits.
                vec![McOp::Get(30), McOp::Get(40)],
            ],
            max_steps: 20_000,
        },
        McConfig {
            name: "lock-upgrade-2t",
            about: "two inserts into one bottom chunk: a certified view upgraded \
                    to the bottom lock by one CAS vs. a writer that held and \
                    released the chunk since (stale-upgrade oracle)",
            params: mc_params(),
            // One bottom chunk: `-inf, 10, 20, 30, 40`.
            prefill: vec![(10, 1), (20, 2), (30, 3), (40, 4)],
            setup: vec![],
            threads: vec![
                // Each insert shifts the keys above it from its own view. One
                // written from a view that predates the other's insert
                // overwrites a key — 25 if this one writes stale, 20 if the
                // other does — and each thread then reads the key its own
                // stale write would lose.
                vec![McOp::Insert(15, 1), McOp::Get(25)],
                vec![McOp::Insert(25, 2), McOp::Get(20)],
            ],
            max_steps: 20_000,
        },
        McConfig {
            name: "mvcc-snap-2t",
            about: "pinned snapshot reads racing a stamped split: version \
                    publish (fence-shared stamp + capture-on-lock) vs pin \
                    (fence-exclusive drain) vs ticket release",
            params: mvcc_params(),
            prefill: full_chunk_prefill(),
            setup: vec![],
            threads: vec![
                // Splitter: stamped insert into the full chunk — the split
                // locks (and therefore captures) both halves.
                vec![McOp::Insert(1, 1)],
                // Snapshot reader: each SnapGet pins a version (draining
                // the stamp fence), resolves through the version chain,
                // and releases the ticket. Key 14 moves to the new chunk
                // in a split, 26 stays rightmost — both sides covered.
                vec![McOp::SnapGet(14), McOp::SnapGet(26)],
            ],
            max_steps: 30_000,
        },
        McConfig {
            name: "mvcc-snap-3t",
            about: "pinned snapshot read racing a stamped split and a \
                    stamped removal (two writers contending on the fence)",
            params: mvcc_params(),
            prefill: full_chunk_prefill(),
            setup: vec![],
            threads: vec![
                vec![McOp::Insert(1, 1)],
                vec![McOp::Remove(26)],
                vec![McOp::SnapGet(26)],
            ],
            max_steps: 40_000,
        },
        McConfig {
            name: "zombie-tear-2t",
            about: "a read whose view of a chunk pairs a NEXT lane read before \
                    the chunk split with a LOCK lane read after a merge \
                    zombified it (torn zombie view)",
            params: mc_params(),
            prefill: torn_zombie_prefill(),
            setup: vec![],
            threads: vec![
                split_then_merge_away(),
                // 20 moves to X′; a zombie step past X by the NEXT lane of
                // the team read would skip X′ and end right of 20.
                vec![McOp::Get(20)],
            ],
            max_steps: 30_000,
        },
        McConfig {
            name: "zombie-tear-insert-2t",
            about: "torn zombie view on the update path: the lazy redirect \
                    and the insert's placement both follow the zombie's NEXT",
            params: mc_params(),
            prefill: torn_zombie_prefill(),
            setup: vec![],
            threads: vec![
                split_then_merge_away(),
                // 22 belongs in X′: placed in X′'s successor, it breaks
                // lateral order.
                vec![McOp::Insert(22, 7), McOp::Get(22)],
            ],
            max_steps: 30_000,
        },
    ]
}

/// Look up a configuration by its registry name.
pub fn by_name(name: &str) -> Option<McConfig> {
    all().into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::KEY_NEG_INF;
    use crate::skiplist::Gfsl;

    #[test]
    fn registry_names_unique_and_resolvable() {
        let cfgs = all();
        for c in &cfgs {
            assert!(by_name(c.name).is_some());
            assert!(!c.threads.is_empty());
            assert!(c.threads.iter().all(|ops| !ops.is_empty()));
        }
        let mut names: Vec<_> = cfgs.iter().map(|c| c.name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), cfgs.len(), "duplicate config name");
    }

    /// The structure a config's scripted ops start from.
    fn built(name: &str) -> Gfsl {
        by_name(name).unwrap().build()
    }

    #[test]
    fn heal_configs_start_from_the_shape_their_scripts_assume() {
        let list = built("heal-2t");
        assert_eq!(list.height(), 0, "the erosion took the whole index");
        assert_eq!(list.shape().levels[0].live_chunks, 4);
        let mut h = list.handle();
        assert_eq!(h.insert(33, 1), Ok(true));
        assert_eq!(h.stats().index_heals, 1);
        assert_eq!(list.level_keys(1), vec![32], "the locked chunk's minimum");

        let list = built("heal-upper-2t");
        assert_eq!(list.height(), 1);
        assert_eq!(list.shape().levels[1].live_chunks, 5);
        let mut h = list.handle();
        assert_eq!(h.insert(329, 1), Ok(true));
        assert_eq!((h.heal_levels, h.heal_keys[1]), (1 << 1, 310));
        assert_eq!(h.stats().index_heals, 0, "310 is another chunk's key");
        // One bottom chunk to the left the same walk ends under 310's lock.
        assert_eq!(h.insert(311, 1), Ok(true));
        assert_eq!(h.stats().index_heals, 1);
        assert_eq!(list.level_keys(2), vec![310]);
        list.assert_valid();
    }

    #[test]
    fn reclaim_config_starts_from_the_state_its_script_assumes() {
        let list = built("reclaim-2t");
        let team = list.team;
        let mut h = list.handle();
        assert_eq!(list.height(), 2);
        // The level-2 sentinel still points down at level 1's old first
        // chunk: a zombie, retired, sent back to limbo by every pass so far
        // and now one advance from being a candidate again.
        let zombie = h.read_chunk(list.head_of(2)).entry(0).val();
        assert_ne!(zombie, list.head_of(1));
        assert!(h.read_chunk(zombie).is_zombie(&team));
        let s = list.reclaim_stats().unwrap();
        assert_eq!((s.retired, s.limbo_len, s.staged_len, s.free_len), (1, 1, 0, 0));
        let before = s.epochs_advanced;
        assert_eq!(h.reclaim_pass(), 0);
        let s = list.reclaim_stats().unwrap();
        assert_eq!((s.epochs_advanced - before, s.limbo_len), (2, 1), "a candidate, and referenced");
        // The scripted remove merges level 1's first chunk, and the repair
        // that follows takes the reference away.
        assert_eq!(h.read_chunk(list.head_of(1)).num_keys(&team), 4);
        assert!(h.remove(144));
        for _ in 0..3 {
            h.reclaim_pass();
        }
        assert_eq!(h.read_chunk(list.head_of(2)).entry(0).val(), list.head_of(1));
        assert_eq!(list.reclaim_stats().unwrap().free_len, 2, "both zombies recycled");
        // The scripted insert splits the full bottom chunk into one of them.
        let splits = h.stats().splits;
        assert_eq!(h.insert(38, 2), Ok(true));
        assert_eq!(h.stats().splits, splits + 1);
        assert_eq!(list.reclaim_stats().unwrap().reused, 1);
        list.assert_valid();
    }

    #[test]
    fn torn_zombie_configs_start_from_a_full_head_chunk() {
        for name in ["zombie-tear-2t", "zombie-tear-insert-2t"] {
            let list = built(name);
            let team = list.team;
            let mut h = list.handle();
            let head = h.read_chunk(list.head_of(0));
            let keys: Vec<u32> = head.live_entries(&team).map(|(_, e)| e.key()).collect();
            assert_eq!(keys, [KEY_NEG_INF, 1, 2, 3, 4, 5, 6, 7, 8, 9, 12, 16, 20, 24], "{name}");
            let tail = h.read_chunk(head.next(&team));
            let keys: Vec<u32> = tail.live_entries(&team).map(|(_, e)| e.key()).collect();
            let want: Vec<u32> = (7..=13).map(|i| 4 * i).chain([400]).collect();
            assert_eq!((keys, tail.next(&team)), (want, crate::chunk::NIL), "{name}");
        }
    }

    /// Each scripted insert splits a full bottom chunk and raises into
    /// level 1's full head: the first splits it and grows level 2, which
    /// has no head before, and the second goes into one of its halves.
    #[test]
    fn level_grow_config_starts_one_raise_short_of_a_level() {
        let list = built("level-grow-2t");
        let team = list.team;
        let mut h = list.handle();
        assert_eq!((list.height(), list.heads().count()), (1, 2));
        let head1 = h.read_chunk(list.head_of(1));
        assert_eq!((head1.num_keys(&team), head1.next(&team)), (14, crate::chunk::NIL));
        assert!(list.level_keys(1).contains(&112));
        let splits = h.stats().splits;
        assert_eq!(h.insert(1, 1), Ok(true));
        assert_eq!((h.stats().splits - splits, list.heads().count()), (2, 3), "grows level 2");
        assert_eq!(h.insert(66, 2), Ok(true));
        assert_eq!((h.stats().splits - splits, list.heads().count()), (3, 3));
        assert_eq!(list.height(), 2);
        assert!(h.remove(112));
        list.assert_valid();
    }

    #[test]
    fn full_chunk_prefill_exactly_fills_sixteen_team_chunk() {
        // The head chunk holds the -inf sentinel in one of its dsize slots.
        assert_eq!(full_chunk_prefill().len(), mc_params().dsize() - 1);
    }
}
