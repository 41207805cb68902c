//! Kill-restart chaos soak: the durability contract end to end, for every
//! crash point in the WAL/checkpoint protocol.
//!
//! For each (engine shape × crash point × seed) cell, a seeded workload
//! runs against a [`DurableCluster`] — `(lanes, shards)` = `(1, 1)`, the
//! single list, and `(3, 4)` — whose failpoint hook routes to the chaos
//! controller;
//! the controller kills the process-under-test (an injected panic caught
//! at the op boundary) at the seeded occurrence of the target point —
//! mid-append with a genuinely torn record on disk, pre-fsync, mid
//! checkpoint page stream, pre manifest rename, or mid WAL prune. The
//! engine is then dropped (volatile state dies; files persist, exactly
//! what process death leaves) and reopened through full recovery. The
//! cell passes only if
//!
//! 1. recovery succeeds and the rebuilt structure validates clean,
//! 2. zero acknowledged writes are lost and every op that was in its
//!    commit window either fully happened or not at all — a per-key
//!    linearizability search over the **stitched cross-restart history**
//!    (pre-crash ops, the crashed op as `InsertMaybe`/`RemoveMaybe`,
//!    post-recovery ops, final sequential gets pinning the end state),
//! 3. a second restart after more acknowledged writes recovers those too.
//!
//! Seeds per point come from `GFSL_DURABLE_SOAK_SEEDS` (default 4; CI
//! runs 16) and `GFSL_DURABLE_SOAK_STATS=<path>` dumps per-cell recovery
//! statistics for the CI artifact.

use std::collections::HashMap;
use std::panic::{catch_unwind, AssertUnwindSafe};

use gfsl::chaos::DURABILITY_CRASH_POINTS;
use gfsl::mc::strategy::Replay;
use gfsl::history::{check_linearizable, HistoryClock, OpAction, Recorder};
use gfsl::{CrashPoint, GfslParams, TeamSize};
use gfsl_durable::{
    destroy, DurabilityContract, DurableCluster, DurableClusterConfig, Failpoints,
};
use gfsl_rng::SplitMix64;

const KEY_SPACE: u32 = 110;
const OPS: usize = 120;
const OPS_PER_CKPT: usize = 20;
const POST_RECOVERY_OPS: usize = 30;
/// `(lanes, shards)` every cell runs on.
const SHAPES: [(usize, usize); 2] = [(1, 1), (3, 4)];

fn soak_seeds() -> u64 {
    std::env::var("GFSL_DURABLE_SOAK_SEEDS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(4)
}

#[derive(Debug, Default)]
struct CellStats {
    crashed: bool,
    replayed: u64,
    redundant_replays: u64,
    truncated_bytes: u64,
    checkpoint_seq: u64,
    checkpoint_fallbacks: u64,
    recovered_keys: u64,
}

/// One cell: seeded run, injected kill at `point`, restart, verification,
/// then a second restart to prove post-recovery writes are durable too.
fn soak_cell((n_lanes, n_shards): (usize, usize), point: CrashPoint, seed: u64) -> CellStats {
    gfsl::quiet_injected_panics();
    let dir = std::env::temp_dir().join(format!(
        "gfsl_dsoak_{n_lanes}x{n_shards}_{point:?}_{seed}_{}",
        std::process::id()
    ));
    let _ = std::fs::remove_dir_all(&dir);
    let cfg = DurableClusterConfig {
        contract: DurabilityContract::ALL[(seed % 3) as usize],
        // Force rotation and pruning; a lane of three sees a third of the
        // records, so its segments are a third the size.
        seg_records: (8 + (seed % 9) as u32) / n_lanes as u32,
        ckpt_keep: 2,
        n_lanes,
        n_shards,
        key_range: KEY_SPACE,
        params: GfslParams {
            team_size: TeamSize::Sixteen,
            pool_chunks: 1 << 12,
            ..Default::default()
        },
        ..DurableClusterConfig::new(&dir)
    };

    // Prefill BEFORE arming the failpoints: these acks are unconditional.
    let mut eng = DurableCluster::create(&cfg).unwrap();
    let initial: HashMap<u32, u32> = (2..KEY_SPACE).step_by(2).map(|k| (k, k)).collect();
    for (&k, &v) in &initial {
        assert!(eng.insert(k, v).unwrap());
    }

    let occurrence = 1 + seed % 3;
    // The durable path is single-threaded: one participant, every turn
    // grants, no decision is ever drawn.
    let ctl = gfsl::chaos::controller(1, Replay::new(Vec::new()), Some((point, occurrence)));
    eng.set_hook(Failpoints::Chaos(ctl.probe(0)));

    let clock = HistoryClock::new();
    let mut rec = Recorder::new(&clock);
    let mut rng = SplitMix64::new(seed.wrapping_mul(0x9E37) ^ 0xA5A5);
    let mut stats = CellStats::default();

    // Phase 1: run until the injected kill (or to completion). Each op is
    // its own unwind boundary — a panic inside the commit window leaves
    // the files exactly as a dying process would.
    let mut eng = Some(eng);
    for i in 0..OPS {
        let e = eng.as_mut().unwrap();
        if i > 0 && i % OPS_PER_CKPT == 0 {
            if catch_unwind(AssertUnwindSafe(|| e.checkpoint().unwrap())).is_err() {
                stats.crashed = true; // no op in flight: nothing acked lost
                break;
            }
            continue;
        }
        let r = rng.next_u64();
        let key = (r % u64::from(KEY_SPACE) + 1) as u32;
        let value = (r >> 40) as u32 | 1;
        let inv = rec.invoke();
        if (r >> 32) % 3 < 2 {
            match catch_unwind(AssertUnwindSafe(|| e.insert(key, value))) {
                Ok(done) => {
                    let ok = done.expect("non-chaos insert failure");
                    rec.finish(key, OpAction::Insert { value, ok }, inv);
                }
                Err(_) => {
                    // Killed in the commit window: applied in memory (now
                    // dead) and possibly logged. The checker tries both.
                    rec.finish(key, OpAction::InsertMaybe { value }, inv);
                    stats.crashed = true;
                    break;
                }
            }
        } else {
            match catch_unwind(AssertUnwindSafe(|| e.remove(key))) {
                Ok(done) => {
                    let ok = done.expect("non-chaos remove failure");
                    rec.finish(key, OpAction::Remove { ok }, inv);
                }
                Err(_) => {
                    rec.finish(key, OpAction::RemoveMaybe, inv);
                    stats.crashed = true;
                    break;
                }
            }
        }
    }
    drop(eng); // process death: memory gone, files as the kill left them

    // Phase 2: restart. Recovery must repair or refuse — for injected
    // kills, always repair (nothing acknowledged can be missing).
    let (mut eng, report) = DurableCluster::open(&cfg).unwrap_or_else(|e| {
        panic!("[{n_lanes}x{n_shards} {point:?} seed {seed}] recovery failed: {e}")
    });
    assert!(
        eng.cluster().validate().is_empty(),
        "[{n_lanes}x{n_shards} {point:?} seed {seed}] recovered structure must validate"
    );
    stats.replayed = report.replayed;
    stats.redundant_replays = report.redundant_replays;
    stats.truncated_bytes = report.truncated_bytes;
    stats.checkpoint_seq = report.checkpoint_seq.unwrap_or(0);
    stats.checkpoint_fallbacks = report.checkpoint_fallbacks.len() as u64;

    // Phase 3: keep writing on the same history clock, restart again, and
    // pin the final state with sequential gets — the stitched history must
    // linearize across both restarts.
    for _ in 0..POST_RECOVERY_OPS {
        let r = rng.next_u64();
        let key = (r % u64::from(KEY_SPACE) + 1) as u32;
        let value = (r >> 40) as u32 | 1;
        let inv = rec.invoke();
        if (r >> 32) % 3 < 2 {
            let ok = eng.insert(key, value).unwrap();
            rec.finish(key, OpAction::Insert { value, ok }, inv);
        } else {
            let ok = eng.remove(key).unwrap();
            rec.finish(key, OpAction::Remove { ok }, inv);
        }
    }
    drop(eng);
    let (eng, _) = DurableCluster::open(&cfg).unwrap_or_else(|e| {
        panic!("[{n_lanes}x{n_shards} {point:?} seed {seed}] second recovery failed: {e}")
    });
    stats.recovered_keys = eng.cluster().len() as u64;

    let mut records = std::mem::take(&mut rec.records);
    {
        let mut rec = Recorder::new(&clock);
        for key in 1..=KEY_SPACE {
            let inv = rec.invoke();
            let found = eng.get(key).unwrap();
            rec.finish(key, OpAction::Get { found }, inv);
        }
        records.extend(rec.records);
    }
    if let Err(errors) = check_linearizable(&records, &initial) {
        panic!("[{n_lanes}x{n_shards} {point:?} seed {seed}] acknowledged writes lost or phantom: {errors:?}");
    }

    destroy(&dir).unwrap();
    stats
}

#[test]
fn kill_restart_soak_every_durability_crash_point() {
    let seeds = soak_seeds();
    let mut report = String::from(
        "lanes,shards,point,seed,crashed,replayed,redundant,truncated_bytes,ckpt_seq,fallbacks,keys\n",
    );
    for shape in SHAPES {
        for &point in DURABILITY_CRASH_POINTS.iter() {
            let mut crashes_for_point = 0u64;
            for seed in 0..seeds {
                let s = soak_cell(shape, point, seed);
                crashes_for_point += u64::from(s.crashed);
                report.push_str(&format!(
                    "{},{},{point:?},{seed},{},{},{},{},{},{},{}\n",
                    shape.0,
                    shape.1,
                    u8::from(s.crashed),
                    s.replayed,
                    s.redundant_replays,
                    s.truncated_bytes,
                    s.checkpoint_seq,
                    s.checkpoint_fallbacks,
                    s.recovered_keys
                ));
            }
            assert!(
                crashes_for_point > 0,
                "{shape:?} {point:?} never produced an injected kill in {seeds} seeds — \
                 the soak is not exercising this window"
            );
        }
    }
    if let Ok(path) = std::env::var("GFSL_DURABLE_SOAK_STATS") {
        std::fs::write(&path, &report).expect("write soak stats");
    }
}

/// The torn-tail window specifically: a kill mid-append must leave a
/// partial record that recovery truncates (not an error, not a lost ack).
#[test]
fn wal_append_kill_truncates_exactly_the_unacked_tail() {
    gfsl::quiet_injected_panics();
    for (n_lanes, n_shards) in SHAPES {
        let dir = std::env::temp_dir().join(format!(
            "gfsl_dsoak_torn_{n_lanes}x{n_shards}_{}",
            std::process::id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        let cfg = DurableClusterConfig {
            seg_records: 64,
            n_lanes,
            n_shards,
            key_range: 2_000,
            ..DurableClusterConfig::new(&dir)
        };
        let mut eng = DurableCluster::create(&cfg).unwrap();
        for k in 1..=40u32 {
            eng.insert(k, k).unwrap();
        }
        let ctl =
            gfsl::chaos::controller(1, Replay::new(Vec::new()), Some((CrashPoint::WalAppend, 1)));
        eng.set_hook(Failpoints::Chaos(ctl.probe(0)));
        let mut eng = Some(eng);
        let killed = catch_unwind(AssertUnwindSafe(|| {
            eng.as_mut().unwrap().insert(1000, 7).unwrap()
        }))
        .is_err();
        assert!(killed, "WalAppend must fire on the first effective write");
        drop(eng);

        let (mut eng, report) = DurableCluster::open(&cfg).unwrap();
        assert!(report.truncated_bytes > 0, "a torn record must be truncated");
        assert_eq!(report.recovered_keys, 40, "the 40 acked writes survive");
        assert_eq!(eng.get(1000).unwrap(), None, "the unacked write is gone");
        // The repaired log accepts new writes at the reclaimed LSN: one past
        // the acked writes of key 1000's lane (41 when there is one lane).
        assert!(eng.insert(1000, 8).unwrap());
        let lane = 1000 % n_lanes;
        let acked = (1..=40).filter(|k| k % n_lanes == lane).count() as u64;
        assert_eq!(eng.checkpoint().unwrap().lane_cuts[lane], acked + 1);
        destroy(&dir).unwrap();
    }
}
