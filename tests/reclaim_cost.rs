//! What zombie reclamation costs, and that it loses no chunk (DESIGN.md §12).
//!
//! A reclamation pass used to cost the same whether or not anything was
//! pending: the head of all 32 levels read, every down-pointer of the
//! parent level hashed into a fresh set to test a candidate or two, 1024
//! epoch slots walked twice. On the single-handle sliding window below that
//! was 164 chunk reads per chunk retired. A pass now visits the levels a
//! merge flagged and marks a sorted batch by binary search, and it walks
//! the parent level only for a batch at least half the size of the walk,
//! reading each parent chunk once.

use gfsl_repro::gfsl::mc::strategy::Replay;
use gfsl_repro::gfsl::{self, CrashPoint, Gfsl, GfslParams, TeamSize};

const WINDOW: u32 = 4096;
const PAIRS: u32 = 16_384;

/// One handle sliding a `WINDOW`-key window `PAIRS` steps up a bulk-built
/// structure; returns the handle's chunk reads.
fn slide(list: &Gfsl) -> u64 {
    let mut h = list.handle();
    for j in 0..PAIRS {
        let next = WINDOW + 1 + j;
        assert!(h.insert(next, j).unwrap());
        assert!(h.remove(next - WINDOW));
    }
    h.stats().chunk_reads
}

fn window_list(reclaim: bool) -> Gfsl {
    let params = GfslParams {
        reclaim,
        ..GfslParams::default()
    };
    Gfsl::from_sorted_pairs(params, (1..=WINDOW).map(|k| (k, k))).unwrap()
}

#[test]
fn a_pass_costs_what_it_reclaims() {
    let on = window_list(true);
    let reads_on = slide(&on);
    let reads_off = slide(&window_list(false));
    let s = on.reclaim_stats().expect("reclamation on");

    // The batches move the same chunks as the parent-level walks of the
    // passes before them did; these are this build's counts.
    assert_eq!(
        (
            s.retired,
            s.zombies_reclaimed,
            s.reused,
            on.chunks_allocated()
        ),
        (1234, 1232, 1176, 203),
        "{s:?}"
    );
    // Passes stop when the pipeline is empty (the first merge comes some
    // way into the run), and the epoch with them: two advances a pass.
    assert!(s.passes < u64::from(2 * PAIRS / 16), "{s:?}");
    assert_eq!(s.epochs_advanced, 2 * s.passes, "{s:?}");
    assert_eq!(
        s.passes_skipped, 0,
        "one handle never finds a pass in flight"
    );
    // A batch waits in limbo until it is half a walk: a few more chunks
    // in grace at once than when every pass verified what was ready.
    assert!((2..=12).contains(&s.backlog_high_water), "{s:?}");

    let per_retired = (reads_on - reads_off) as f64 / s.retired as f64;
    println!(
        "chunk reads {reads_on} with reclamation, {reads_off} without: {per_retired:.1} per \
         retired chunk; {} passes scanned {} parent chunks",
        s.passes, s.parent_chunks_scanned
    );
    assert!(
        per_retired <= 8.0,
        "{per_retired:.1} chunk reads per retired chunk"
    );
    // The walk is paid for by the batch: at most two parent chunks read per
    // chunk reclaimed.
    assert!(s.parent_chunks_scanned <= 2 * s.zombies_reclaimed, "{s:?}");
    // Each parent chunk is read once, its lock word bracketing the read (no
    // writer overlaps it here); what is left is the head-edge sweep, under
    // four chunk reads per chunk it retires.
    let beyond_walk = (reads_on - reads_off)
        .checked_sub(s.parent_chunks_scanned)
        .expect("the walk is part of what reclamation reads");
    assert!(
        beyond_walk <= 4 * s.retired,
        "{beyond_walk} reads beyond the walk: {s:?}"
    );
}

#[test]
fn an_idle_list_runs_no_pass_and_keeps_its_epoch() {
    // Splits only: nothing is ever retired.
    let list = Gfsl::new(GfslParams::default()).unwrap();
    let mut h = list.handle();
    for k in 1..=10_000u32 {
        assert!(h.insert(k, k).unwrap());
    }
    assert!(h.stats().splits > 100);
    let s = list.reclaim_stats().unwrap();
    assert_eq!(
        (s.passes, s.epochs_advanced, s.backlog_high_water),
        (0, 0, 0)
    );
}

/// Every chunk ever handed out is in exactly one place: linked into a
/// level (live, or a zombie not yet unlinked), on the free list, or in one
/// of the reclaimer's two grace queues.
fn assert_no_chunk_lost(list: &Gfsl, what: &str) {
    let (live, zombies) = list.linked_chunks();
    let s = list.reclaim_stats().expect("reclamation on");
    assert_eq!(
        u64::from(list.chunks_allocated()),
        live + zombies + s.free_len + s.limbo_len + s.staged_len,
        "{what}: {live} live and {zombies} zombie chunks linked, {s:?}"
    );
}

/// Passes until the pipeline stops moving.
fn drain(list: &Gfsl) {
    let mut h = list.handle();
    for _ in 0..8 {
        h.reclaim_pass();
    }
}

fn small(keys: u32) -> Gfsl {
    let params = GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 4096,
        ..GfslParams::default()
    };
    let list = Gfsl::new(params).unwrap();
    let mut h = list.handle();
    for k in 1..=keys {
        assert!(h.insert(k, k).unwrap());
    }
    drop(h);
    list
}

#[test]
fn no_chunk_is_lost_whatever_shape_the_levels_are_left_in() {
    // A window sliding up: every zombie is born at the head edge of its
    // level, as the first chunk or right behind it.
    let list = small(2_000);
    let mut h = list.handle();
    for k in 1..=1_500u32 {
        assert!(h.remove(k));
        assert!(h.insert(2_000 + k, k).unwrap());
    }
    drop(h);
    drain(&list);
    assert_no_chunk_lost(&list, "sliding window");
    assert_eq!(list.linked_chunks().1, 0, "the sweep reached every head edge");
    assert!(list.reclaim_stats().unwrap().zombies_reclaimed > 200);

    // A level that empties with a zombie parked at its head. Level 1 is
    // two chunks; removing its keys in order merges the first into the
    // second, then empties that one too, all inside one period of a fresh
    // handle: no pass runs in between, and when one does the level holds
    // no key. Only the sweep unlinks a zombie there, and it goes there only
    // because the merge flagged the level.
    let list = small(0);
    let mut h = list.handle();
    let mut n = 0;
    while list.shape().levels.get(1).map_or(0, |l| l.live_chunks) < 2 {
        n += 1;
        assert!(h.insert(n, n).unwrap());
    }
    drop(h);
    let index = list.level_keys(1);
    assert!(index.len() < 16, "one period: {index:?}");
    let mut h = list.handle();
    for &k in &index {
        assert!(h.remove(k));
    }
    drop(h);
    let s = list.reclaim_stats().unwrap();
    assert_eq!((s.passes, s.retired), (0, 0), "{s:?}");
    assert!(list.level_keys(1).is_empty());
    assert_eq!(
        list.linked_chunks().1,
        1,
        "level 1: its old first chunk, then an empty one"
    );
    drain(&list);
    assert_no_chunk_lost(&list, "emptied level");
    assert_eq!(list.linked_chunks().1, 0, "an empty level is swept when flagged");
    assert_eq!(list.reclaim_stats().unwrap().retired, 1);

    // A level of two chunks right under an unused one. The split that gave
    // level 1 its second chunk raised a key into level 2; taking that key
    // out again leaves level 2 unused, its sentinel's `-∞` entry pointing
    // down at level 1's first chunk. When that chunk merges away the
    // pointer has to follow `-∞` into the absorber: left behind, it keeps
    // the zombie referenced, every pass requeues it, and the list never
    // goes idle again.
    let list = small(0);
    let mut h = list.handle();
    let mut n = 0;
    while list.shape().levels.get(1).map_or(0, |l| l.live_chunks) < 2 {
        n += 1;
        assert!(h.insert(n, n).unwrap());
    }
    for k in list.level_keys(2) {
        assert!(h.remove(k));
    }
    assert_eq!(list.height(), 1, "level 2 is out of use again");
    assert_eq!(list.shape().levels[1].live_chunks, 2);
    for k in list.level_keys(1) {
        if list.linked_chunks().1 > 0 {
            break;
        }
        assert!(h.remove(k));
    }
    assert_eq!(list.linked_chunks().1, 1, "level 1's first chunk merged away");
    drop(h);
    drain(&list);
    assert_no_chunk_lost(&list, "two chunks under an unused level");
    let s = list.reclaim_stats().unwrap();
    assert_eq!(
        (list.linked_chunks().1, s.limbo_len, s.staged_len, s.free_len),
        (0, 0, 0, 1),
        "the zombie reached the free list: {s:?}"
    );
    // Idle: updates that retire nothing find no work and run no pass.
    let present = *list.keys().last().expect("most keys are still there");
    let mut h = list.handle();
    for _ in 0..64 {
        assert!(!h.insert(present, 0).unwrap(), "already present");
    }
    drop(h);
    assert_eq!(list.reclaim_stats().unwrap().passes, s.passes);
    list.assert_valid();

    // Emptied from the left, every level in turn.
    let list = small(2_000);
    let mut h = list.handle();
    for k in 1..=2_000u32 {
        assert!(h.remove(k));
    }
    drop(h);
    assert_eq!(list.height(), 0);
    drain(&list);
    assert_no_chunk_lost(&list, "emptied from the left");
    assert_eq!(list.linked_chunks().1, 0);

    // Emptied from the right: the last chunk of a level never merges, so
    // each chunk left of it dies into it, mid-level, where the next
    // traversal unlinks it.
    let list = small(2_000);
    let mut h = list.handle();
    for k in (1..=2_000u32).rev() {
        assert!(h.remove(k));
    }
    drop(h);
    drain(&list);
    assert_no_chunk_lost(&list, "emptied from the right");

    // Every other key gone, then the rest: merges all over every level.
    let list = small(2_000);
    let mut h = list.handle();
    for k in (1..=2_000u32).step_by(2).chain((2..=2_000).step_by(2)) {
        assert!(h.remove(k));
    }
    drop(h);
    drain(&list);
    assert_no_chunk_lost(&list, "emptied in two sweeps");
    list.assert_valid();
}

#[test]
fn a_walk_into_a_quarantined_parent_ends_the_pass_not_the_update() {
    gfsl::quiet_injected_panics();
    walk_into_a_quarantined_parent(false);
    walk_into_a_quarantined_parent(true);
}

/// With `mvcc`, the update that runs the aborted pass must still capture
/// what it overwrites: a snapshot pinned just before it does not see its
/// key.
fn walk_into_a_quarantined_parent(mvcc: bool) {
    // Even keys, so odd ones can go in between later.
    let list = Gfsl::new(GfslParams {
        team_size: TeamSize::Sixteen,
        pool_chunks: 4096,
        mvcc,
        ..GfslParams::default()
    })
    .unwrap();
    let mut h = list.handle();
    for k in 1..=2_000u32 {
        assert!(h.insert(2 * k, k).unwrap());
    }
    drop(h);

    // Inserting above the keys from the top down fills the last bottom
    // chunk from below: after the first insert each one is below its max,
    // so it splits at `DSIZE/2`, and the key one split raises moves on at
    // the next, so the level above is repaired; the first down-pointer
    // install dies holding a level-1 chunk, which the crash leaves
    // quarantined. Nothing is retired yet.
    let plan = Some((CrashPoint::DownPtrInstall, 1));
    let ctl = gfsl::chaos::controller(1, Replay::new(Vec::new()), plan);
    let mut h = list.handle_with(ctl.probe(0));
    let crashed = (2_001..2_100u32).rev().any(|k| h.try_insert(2 * k, k).is_err());
    drop(h);
    assert!(crashed, "no append installed a down-pointer");
    let locked = list.validate();
    assert!(
        locked
            .iter()
            .any(|v| v.rule == "quiescent-unlocked" && v.level == 1),
        "{locked:?}"
    );
    assert_eq!(list.reclaim_stats().unwrap().passes, 0);

    // Removing from the left merges a bottom chunk away at the head edge;
    // the pass the next updates run sweeps it into limbo and, as the list's
    // first walk, verifies it at once: a walk of level 1, which meets the
    // quarantined chunk. That pass falls on an insert, far from the crash.
    let mut h = list.handle();
    let mut low = 2;
    while list.linked_chunks().1 == 0 {
        assert_eq!(h.try_remove(low), Ok(true), "remove {low}");
        low += 2;
    }
    let mut mid = 2_001;
    while list.reclaim_stats().unwrap().passes == 0 {
        assert!(mid < 2_100, "no pass ran");
        let ticket = list.pin_version();
        assert_eq!(
            h.try_insert(mid, mid),
            Ok(true),
            "the insert of {mid} ran the pass"
        );
        if let Some(t) = &ticket {
            assert_eq!(h.get_at(mid, t), None, "pinned before {mid} went in");
        }
        mid += 2;
    }
    let s = list.reclaim_stats().unwrap();
    assert!(
        s.retired > 0 && s.limbo_len == s.retired,
        "the batch is back in limbo: {s:?}"
    );
    assert_eq!(s.staged_len, 0, "{s:?}");

    // Repaired, the list lets a pass through, and no chunk went missing.
    assert_eq!(h.repair_quarantine().quarantine_depth, 0);
    drop(h);
    drain(&list);
    assert_no_chunk_lost(&list, "a pass that met a quarantined parent");
    assert!(list.reclaim_stats().unwrap().zombies_reclaimed > 0);
    list.assert_valid();
}

/// Waiting for a batch must not run a full pool dry. The window is built
/// into a pool with a dozen chunks to spare, so from then on nearly every
/// chunk a split takes is one reclamation freed; a pass waiting for half a
/// walk of candidates (about 45 here) would hold them back until an insert
/// found the pool exhausted. With fewer chunks left to allocate than that
/// batch, the pass verifies what is ready instead.
#[test]
fn a_full_pool_does_not_wait_for_a_batch() {
    const KEYS: u32 = 4_000;
    let build = |pool_chunks| {
        let list = Gfsl::new(GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks,
            ..GfslParams::default()
        })
        .unwrap();
        let mut h = list.handle();
        for k in 1..=KEYS {
            assert!(h.insert(k, k).unwrap());
        }
        drop(h);
        list
    };
    // The build's own chunks and a dozen more: the right edge's splits
    // take a few before the first merged chunk comes back.
    let list = build(build(1 << 12).chunks_allocated() + 12);
    let mut h = list.handle();
    for j in 0..4 * KEYS {
        let next = KEYS + 1 + j;
        assert_eq!(h.insert(next, j), Ok(true), "{:?}", list.reclaim_stats());
        assert!(h.remove(next - KEYS));
    }
    drop(h);
    let s = list.reclaim_stats().unwrap();
    assert!(s.reused > u64::from(KEYS / 8), "{s:?}");
    list.assert_valid();
}
