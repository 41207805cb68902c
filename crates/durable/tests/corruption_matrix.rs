//! The corruption matrix: every class of on-disk damage, each failing
//! *safe* — either repaired with nothing acknowledged lost, or refused
//! with a typed error. No cell may silently drop data.
//!
//! | damage                                   | verdict                   |
//! |------------------------------------------|---------------------------|
//! | torn final record (partial frame)        | truncate and recover      |
//! | bit-flipped record body, mid-log         | refuse: `Corrupt`         |
//! | bit-flipped final record, nothing after  | truncate and recover*     |
//! | truncated final segment header           | remove segment, recover   |
//! | bit-flipped non-final segment header     | refuse: `BadSegmentHeader`|
//! | stale checkpoint over pruned WAL         | refuse: `WalGap`          |
//! | deleted mid-log segment                  | refuse: `WalGap`          |
//! | bit-flipped checkpoint page              | fall back to previous     |
//! | bit-flipped checkpoint manifest          | fall back to previous     |
//!
//! *A damaged final record with no valid record after it is byte-for-byte
//! indistinguishable from a torn write, and a torn write's record was
//! never acknowledged (the ack waits for the sync that never finished) —
//! so truncation is the only sound answer, the same call PostgreSQL makes.
//!
//! Every cell runs on both engine shapes, `(lanes, shards)` = `(1, 1)` —
//! the single list — and `(3, 4)`. The fills are per lane: `fill(eng, a,
//! b)` gives *every* lane the LSNs `a..=b`, so the damage (always to one
//! lane, the last) sits at the same segment and offset on either shape.

use std::fs::{self, OpenOptions};
use std::io::Write;
use std::path::PathBuf;

use gfsl_durable::ckpt;
use gfsl_durable::wal::{encode_record, segment_path, RECORD_BYTES, SEG_HEADER_BYTES};
use gfsl_durable::{
    destroy, DurableCluster, DurableClusterConfig, RecoverError, RecoveryReport, WalOp,
};

/// `(lanes, shards)` every cell runs on.
const SHAPES: [(usize, usize); 2] = [(1, 1), (3, 4)];

fn cfg(name: &str, (n_lanes, n_shards): (usize, usize)) -> DurableClusterConfig {
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "gfsl_cmx_{name}_{n_lanes}x{n_shards}_{}",
        std::process::id()
    ));
    let _ = fs::remove_dir_all(&dir);
    DurableClusterConfig {
        seg_records: 10,
        n_lanes,
        n_shards,
        // The fills reach key 45 × lanes: every shard of four owns some.
        key_range: 160,
        ..DurableClusterConfig::new(dir)
    }
}

/// The lane every cell damages.
fn victim(cfg: &DurableClusterConfig) -> PathBuf {
    cfg.lane_dir(cfg.n_lanes - 1)
}

/// Keys that give every lane the LSNs `from..=to`, ascending: a key's lane
/// is `key % n_lanes`, so each run of `n_lanes` keys adds one per lane.
fn keys(cfg: &DurableClusterConfig, from: u32, to: u32) -> std::ops::RangeInclusive<u32> {
    let n = cfg.n_lanes as u32;
    (from - 1) * n + 1..=to * n
}

/// Acknowledge `key → key * 10` for the keys of [`keys`].
fn fill(eng: &mut DurableCluster, cfg: &DurableClusterConfig, from: u32, to: u32) {
    for k in keys(cfg, from, to) {
        assert!(eng.insert(k, k * 10).unwrap());
    }
}

/// Engine with 30 acked writes a lane, LSNs 1..=30 over 3 segments each.
fn seeded(cfg: &DurableClusterConfig) -> Vec<(u32, u32)> {
    let mut eng = DurableCluster::create(cfg).unwrap();
    fill(&mut eng, cfg, 1, 30);
    keys(cfg, 1, 30).map(|k| (k, k * 10)).collect()
}

fn reopen_expecting_pairs(cfg: &DurableClusterConfig, expect: &[(u32, u32)]) -> RecoveryReport {
    let (eng, report) = DurableCluster::open(cfg).expect("recovery must succeed");
    assert_eq!(eng.cluster().pairs(), expect, "acknowledged writes must all survive");
    eng.cluster().assert_valid();
    report
}

#[test]
fn torn_final_record_is_truncated_and_acked_writes_survive() {
    for shape in SHAPES {
        let cfg = cfg("torn", shape);
        let expect = seeded(&cfg);
        // 13 bytes of a 31st record: a write(2) the crash cut short.
        let frame = encode_record(31, WalOp::Put { key: 999, val: 1 });
        OpenOptions::new()
            .append(true)
            .open(segment_path(&victim(&cfg), 2))
            .unwrap()
            .write_all(&frame[..13])
            .unwrap();
        let report = reopen_expecting_pairs(&cfg, &expect);
        assert_eq!(report.truncated_bytes, 13);
        destroy(&cfg.dir).unwrap();
    }
}

#[test]
fn bit_flipped_mid_log_record_refuses_with_corrupt() {
    for shape in SHAPES {
        let cfg = cfg("midflip", shape);
        seeded(&cfg);
        // Flip a value byte of the 2nd record of segment 1 (lsns 11..20):
        // acknowledged records follow it, so truncation would lose them.
        let path = segment_path(&victim(&cfg), 1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[SEG_HEADER_BYTES + RECORD_BYTES + 20] ^= 0x04;
        fs::write(&path, &bytes).unwrap();
        match DurableCluster::open(&cfg) {
            Err(RecoverError::Corrupt { file, offset, .. }) => {
                assert_eq!(file, path);
                assert_eq!(offset, (SEG_HEADER_BYTES + RECORD_BYTES) as u64);
            }
            other => panic!("expected Corrupt refusal, got {other:?}"),
        }
        destroy(&cfg.dir).unwrap();
    }
}

#[test]
fn bit_flipped_final_record_truncates_like_a_torn_write() {
    for shape in SHAPES {
        let cfg = cfg("tailflip", shape);
        let mut expect = seeded(&cfg);
        // Flip a byte of the victim lane's LAST record (lsn 30, no valid
        // record after it): indistinguishable from a torn write, so it
        // truncates — and that record's write is the one whose ack the
        // crash raced.
        let path = segment_path(&victim(&cfg), 2);
        let mut bytes = fs::read(&path).unwrap();
        let last_off = bytes.len() - RECORD_BYTES;
        bytes[last_off + 5] ^= 0x80;
        fs::write(&path, &bytes).unwrap();
        // The victim lane's 30th key — torn, never safely acknowledged.
        let lost = keys(&cfg, 1, 30)
            .rev()
            .find(|&k| k as usize % cfg.n_lanes == cfg.n_lanes - 1)
            .unwrap();
        expect.retain(|&(k, _)| k != lost);
        let report = reopen_expecting_pairs(&cfg, &expect);
        assert_eq!(report.truncated_bytes, RECORD_BYTES as u64);
        destroy(&cfg.dir).unwrap();
    }
}

#[test]
fn truncated_final_segment_header_is_removed() {
    for shape in SHAPES {
        let cfg = cfg("hdrcut", shape);
        let expect = seeded(&cfg);
        // A 7-byte file where segment 4's header was being written.
        fs::write(segment_path(&victim(&cfg), 3), [0x47u8; 7]).unwrap();
        let report = reopen_expecting_pairs(&cfg, &expect);
        assert_eq!(report.removed_torn_segments, 1);
        destroy(&cfg.dir).unwrap();
    }
}

#[test]
fn bit_flipped_interior_segment_header_refuses() {
    for shape in SHAPES {
        let cfg = cfg("hdrflip", shape);
        seeded(&cfg);
        let path = segment_path(&victim(&cfg), 1);
        let mut bytes = fs::read(&path).unwrap();
        bytes[17] ^= 0x01; // base_lsn byte: header CRC now fails
        fs::write(&path, &bytes).unwrap();
        match DurableCluster::open(&cfg) {
            Err(RecoverError::BadSegmentHeader { file, .. }) => assert_eq!(file, path),
            other => panic!("expected BadSegmentHeader refusal, got {other:?}"),
        }
        destroy(&cfg.dir).unwrap();
    }
}

#[test]
fn deleted_mid_log_segment_refuses_with_gap() {
    for shape in SHAPES {
        let cfg = cfg("seggap", shape);
        seeded(&cfg);
        fs::remove_file(segment_path(&victim(&cfg), 1)).unwrap();
        match DurableCluster::open(&cfg) {
            Err(RecoverError::WalGap {
                need_from,
                first_available,
            }) => {
                assert_eq!(need_from, 11, "segment 0 ends at lsn 10");
                assert_eq!(first_available, 21, "segment 2 starts at lsn 21");
            }
            other => panic!("expected WalGap refusal, got {other:?}"),
        }
        destroy(&cfg.dir).unwrap();
    }
}

#[test]
fn stale_checkpoint_over_pruned_wal_refuses_with_gap() {
    for shape in SHAPES {
        // Retain only one checkpoint: once its successor's manifest is
        // gone, nothing anchors the pruned log.
        let cfg = DurableClusterConfig {
            ckpt_keep: 1,
            ..cfg("stale", shape)
        };
        let mut eng = DurableCluster::create(&cfg).unwrap();
        fill(&mut eng, &cfg, 1, 30);
        eng.checkpoint().unwrap(); // ckpt 1 @ cut 30, segments 0..2 pruned
        fill(&mut eng, &cfg, 31, 45);
        eng.checkpoint().unwrap(); // ckpt 2 @ cut 45, more pruning
        drop(eng);
        // Checkpoint 2's manifest is destroyed, and with ckpt_keep = 1
        // there is no older checkpoint to fall back to — but checkpoint
        // 2's publication already pruned the WAL it covered. Serving would
        // silently forget acked writes — refuse instead.
        fs::remove_file(ckpt::manifest_path(&cfg.ckpt_dir(), 2)).unwrap();
        match DurableCluster::open(&cfg) {
            Err(RecoverError::WalGap { need_from, .. }) => assert_eq!(need_from, 1),
            other => panic!("expected WalGap refusal, got {other:?}"),
        }
        destroy(&cfg.dir).unwrap();
    }
}

#[test]
fn damaged_newest_checkpoint_falls_back_and_replays() {
    for shape in SHAPES {
        let cfg = cfg("ckptflip", shape);
        let mut eng = DurableCluster::create(&cfg).unwrap();
        fill(&mut eng, &cfg, 1, 20);
        eng.checkpoint().unwrap(); // ckpt 1 @ cut 20
        fill(&mut eng, &cfg, 21, 35);
        eng.checkpoint().unwrap(); // ckpt 2 @ cut 35
        fill(&mut eng, &cfg, 36, 40);
        drop(eng);
        // Flip a byte in checkpoint 2's data page. Fallback to checkpoint
        // 1 works because pruning stops at the oldest retained cut (20).
        let path = ckpt::data_path(&cfg.ckpt_dir(), 2);
        let mut bytes = fs::read(&path).unwrap();
        bytes[100] ^= 0x01;
        fs::write(&path, &bytes).unwrap();

        let (eng, report) = DurableCluster::open(&cfg).expect("fallback must recover");
        assert_eq!(report.checkpoint_seq, Some(1));
        assert_eq!(report.checkpoint_fallbacks.len(), 1);
        assert_eq!(report.recovered_keys, 40 * cfg.n_lanes as u64, "every acked write survives");
        eng.cluster().assert_valid();
        destroy(&cfg.dir).unwrap();
    }
}

#[test]
fn bit_flipped_manifest_falls_back() {
    for shape in SHAPES {
        let cfg = cfg("manflip", shape);
        let mut eng = DurableCluster::create(&cfg).unwrap();
        fill(&mut eng, &cfg, 1, 20);
        eng.checkpoint().unwrap();
        fill(&mut eng, &cfg, 21, 28);
        eng.checkpoint().unwrap();
        drop(eng);
        let path = ckpt::manifest_path(&cfg.ckpt_dir(), 2);
        let mut bytes = fs::read(&path).unwrap();
        bytes[9] ^= 0x40;
        fs::write(&path, &bytes).unwrap();

        let (_, report) = DurableCluster::open(&cfg).expect("fallback must recover");
        assert_eq!(report.checkpoint_seq, Some(1));
        assert_eq!(report.recovered_keys, 28 * cfg.n_lanes as u64);
        destroy(&cfg.dir).unwrap();
    }
}
