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

/// Keys `2, 4, …, 56` inserted in ascending order leave four bottom chunks
/// — head `2..=12`, then `14..=26`, `28..=40`, `42..=56` — and the level-1
/// keys 28, 42, 56 the three splits raised.
fn four_chunk_prefill() -> Vec<(u32, u32)> {
    (1..=28u32).map(|i| (2 * i, 100 + i)).collect()
}

/// Keys `2, 4, …, 504` in ascending order: 36 bottom chunks of seven keys,
/// a level 1 of five chunks holding every bottom chunk's minimum but the
/// head's — `28..=98`, `112..=196`, `210..=294`, `308..=392`, `406..=504`
/// in steps of 14 — and the level-2 keys 210, 308, 406, 504 its four
/// splits raised.
fn five_index_chunk_prefill() -> Vec<(u32, u32)> {
    (1..=252u32).map(|i| (2 * i, 100 + i)).collect()
}

/// [`five_index_chunk_prefill`] with every key doubled (`4, 8, …, 1008`):
/// the same chunks, each now spanning 28 integers for its seven keys, so a
/// script can fill one to the brim and still find a key that splits it.
fn spaced_five_index_prefill() -> Vec<(u32, u32)> {
    (1..=252u32).map(|i| (4 * i, 100 + i)).collect()
}

/// A setup script that deletes `keys`: an episode can start from an index
/// that deletes have thinned.
fn removes(keys: &[u32]) -> Vec<McOp> {
    keys.iter().map(|&k| McOp::Remove(k)).collect()
}

/// Setup of `reclaim-2t`, on the spaced index.
fn reclaim_setup() -> Vec<McOp> {
    let inserts = |keys: &[u32]| keys.iter().map(|&k| McOp::Insert(k, 1)).collect::<Vec<_>>();
    // Level 2 goes (height 1).
    let mut ops = removes(&[420, 616, 812, 1008]);
    // Level 1's first chunk `-inf, 56, …, 196` drops to four entries and
    // merges into its neighbour. The team that merged it never repairs
    // the level-2 sentinel's `-inf` entry: it keeps pointing down at the
    // zombie, which the next update's descent unlinks and retires.
    ops.extend(removes(&[56, 84, 112]));
    ops.push(McOp::RemoveUnrepaired(140));
    // Four bottom chunks lost their index entry with that; each insert
    // walks to its chunk along the bottom and heals: level 1's first chunk
    // is full again.
    ops.extend(inserts(&[145, 117, 89, 61]));
    // The bottom chunk `364, …, 388` filled and split: the key that raises
    // splits level 1's first chunk, which raises into level 2 — height 2,
    // and reads start at the sentinel with the stale entry.
    ops.extend(inserts(&[365, 366, 367, 369, 370, 371, 373, 374]));
    // Level 1's first chunk down to `-inf, 144, 168, 196`: one removal
    // from merging in its turn.
    ops.extend(removes(&[60, 88, 116]));
    // The bottom chunk `28, 32, …, 52` filled to its fourteen entries.
    ops.extend(inserts(&[29, 30, 31, 33, 34, 35, 37]));
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
            setup: removes(&[28, 42, 56]),
            threads: vec![
                // Walks head -> 14.. -> 30.. (two live lateral steps, not
                // the tail): heals by raising 30, the chunk's minimum, into
                // the empty level 1 while holding the chunk's lock.
                vec![McOp::Insert(33, 1)],
                // Needs that same lock: either removes 30 before the heal
                // reads the chunk (32 is raised instead) or finds and
                // removes the new entry top-down.
                vec![McOp::Remove(30)],
            ],
            max_steps: 20_000,
        },
        McConfig {
            name: "heal-3t",
            about: "index heal vs. a remove of the raised minimum vs. lock-free \
                    reads through the new index entry",
            params: mc_params(),
            prefill: four_chunk_prefill(),
            setup: removes(&[28, 42, 56]),
            threads: vec![
                vec![McOp::Insert(33, 1)],
                vec![McOp::Remove(30)],
                // Both land in the healed chunk: through the level-1 entry
                // once it is published, along the bottom level before.
                vec![McOp::Get(30), McOp::Get(36)],
            ],
            max_steps: 30_000,
        },
        McConfig {
            name: "heal-upper-2t",
            about: "upper-level heal raises only a chunk minimum the held bottom \
                    lock protects (heal lock-coverage oracle)",
            params: mc_params(),
            prefill: five_index_chunk_prefill(),
            // Level 2 goes (height 1), and so does 336, the level-1 entry
            // after 322: the bottom chunk `338..=348` is now reached
            // through 322 without sharing its lock.
            setup: removes(&[210, 308, 406, 504, 336]),
            threads: vec![
                // Level 1 is walked head -> 112.. -> 224.. -> 322.. (three
                // steps, not the tail) and left through 322, that chunk's
                // minimum; 341 lives one bottom chunk right of 322's. The
                // heal must not raise 322 — the reverted draft does.
                vec![McOp::Insert(341, 1)],
                // Finds nothing above level 1 before the reverted heal
                // publishes 322 at level 2, and removes it below: the new
                // entry dangles.
                vec![McOp::Remove(322)],
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
    ]
}

/// Look up a configuration by its registry name.
pub fn by_name(name: &str) -> Option<McConfig> {
    all().into_iter().find(|c| c.name == name)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        assert_eq!(list.level_keys(1), vec![30], "the locked chunk's minimum");

        let list = built("heal-upper-2t");
        assert_eq!(list.height(), 1);
        assert_eq!(list.shape().levels[1].live_chunks, 5);
        let mut h = list.handle();
        assert_eq!(h.insert(341, 1), Ok(true));
        assert_eq!((h.heal_levels, h.heal_keys[1]), (1 << 1, 322));
        assert_eq!(h.stats().index_heals, 0, "322 is another chunk's key");
        // One bottom chunk to the left the same walk ends under 322's lock.
        assert_eq!(h.insert(323, 1), Ok(true));
        assert_eq!(h.stats().index_heals, 1);
        assert_eq!(list.level_keys(2), vec![322]);
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
    fn full_chunk_prefill_exactly_fills_sixteen_team_chunk() {
        // The head chunk holds the -inf sentinel in one of its dsize slots.
        assert_eq!(full_chunk_prefill().len(), mc_params().dsize() - 1);
    }
}
