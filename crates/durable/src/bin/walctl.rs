//! `gfsl-walctl`: read-only inspection of GFSL durability artifacts.
//!
//! ```text
//! gfsl-walctl dump <wal-dir>      dump every segment record with LSN/CRC status
//! gfsl-walctl verify <ckpt-dir>   verify every checkpoint manifest + data pages
//! gfsl-walctl status <root-dir>   one line per <root>/wal/lane-* and <root>/ckpt checkpoint
//! ```
//!
//! Unlike recovery, `dump` never repairs: a torn tail is *reported*, not
//! truncated, so the tool is safe to point at a live or post-mortem
//! directory.

use std::fs;
use std::path::Path;
use std::process::ExitCode;

use gfsl_durable::ckpt::{self, PAGE_BYTES};
use gfsl_durable::wal::{
    decode_record, list_segments, WalRecord, RECORD_BYTES, SEG_HEADER_BYTES, WAL_MAGIC,
};

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().collect();
    let (cmd, dir) = match (args.get(1), args.get(2)) {
        (Some(c), Some(d)) => (c.as_str(), Path::new(d)),
        _ => {
            eprintln!("usage: gfsl-walctl <dump|verify|status> <dir>");
            return ExitCode::from(2);
        }
    };
    let result = match cmd {
        "dump" => dump_wal(dir),
        "verify" => verify_ckpt(dir),
        "status" => status(dir),
        other => {
            eprintln!("unknown command {other:?}; try dump, verify, or status");
            return ExitCode::from(2);
        }
    };
    match result {
        Ok(clean) if clean => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("gfsl-walctl: {e}");
            ExitCode::FAILURE
        }
    }
}

/// One frame slot of a segment body: the record at the LSN its offset
/// implies, or the line `dump` prints for the damage.
type Frame = Result<WalRecord, String>;

/// One segment file, read whole.
struct Segment {
    /// File length, bytes.
    len: usize,
    /// Base LSN and every frame slot; `None` when the header is torn or
    /// carries the wrong magic.
    body: Option<(u64, Vec<Frame>)>,
}

/// The one frame walk `dump` prints and `status` counts.
fn walk_segment(path: &Path) -> std::io::Result<Segment> {
    let bytes = fs::read(path)?;
    let len = bytes.len();
    if len < SEG_HEADER_BYTES || bytes[0..8] != WAL_MAGIC {
        return Ok(Segment { len, body: None });
    }
    let base = u64::from_le_bytes(bytes[16..24].try_into().unwrap());
    let frames = bytes[SEG_HEADER_BYTES..]
        .chunks(RECORD_BYTES)
        .enumerate()
        .map(|(i, frame)| {
            let (at, expect) = (SEG_HEADER_BYTES + i * RECORD_BYTES, base + i as u64);
            match decode_record(frame) {
                Some(r) if r.lsn == expect => Ok(r),
                Some(r) => Err(format!("  lsn {:>8}  MISPLACED (expected lsn {expect})", r.lsn)),
                None if frame.len() < RECORD_BYTES => Err(format!(
                    "  @byte {at:>6}  PARTIAL ({} of {RECORD_BYTES} bytes) — torn tail?",
                    frame.len()
                )),
                None => Err(format!("  @byte {at:>6}  CRC FAIL (expected lsn {expect})")),
            }
        })
        .collect();
    Ok(Segment { len, body: Some((base, frames)) })
}

/// Dump every record of every segment. Returns whether all validated.
fn dump_wal(dir: &Path) -> std::io::Result<bool> {
    let segs = list_segments(dir)?;
    if segs.is_empty() {
        println!("no WAL segments under {}", dir.display());
        return Ok(true);
    }
    let mut clean = true;
    for (seq, path) in segs {
        let Segment { len, body } = walk_segment(&path)?;
        print!("segment {seq:#x} ({}, {len} bytes): ", path.display());
        let Some((base, frames)) = body else {
            if len < SEG_HEADER_BYTES {
                println!("TORN HEADER ({len} of {SEG_HEADER_BYTES} bytes)");
            } else {
                println!("BAD MAGIC");
            }
            clean = false;
            continue;
        };
        println!("base_lsn {base}");
        for frame in frames {
            match frame {
                Ok(r) => println!("  lsn {:>8}  CRC ok   {:?}", r.lsn, r.op),
                Err(damage) => {
                    println!("{damage}");
                    clean = false;
                }
            }
        }
    }
    Ok(clean)
}

/// Verify every published checkpoint end to end. Returns whether all pass.
fn verify_ckpt(dir: &Path) -> std::io::Result<bool> {
    let seqs = ckpt::list_checkpoints(dir)?;
    if seqs.is_empty() {
        println!("no checkpoint manifests under {}", dir.display());
        return Ok(true);
    }
    let mut clean = true;
    for seq in seqs {
        match ckpt::try_load(dir, seq) {
            Ok(loaded) => {
                let m = &loaded.manifest;
                println!(
                    "checkpoint {seq}: OK — epoch {}, {} pairs / {} pages, lane cuts {:?}, {} shards",
                    m.epoch,
                    m.n_pairs,
                    m.n_pages,
                    m.lane_cuts,
                    m.shard_bounds.len()
                );
            }
            Err(why) => {
                println!("checkpoint {seq}: FAIL — {why}");
                clean = false;
            }
        }
    }
    Ok(clean)
}

/// One-line summary per WAL lane (`<root>/wal/lane-*`) and per checkpoint
/// of a durable root.
fn status(root: &Path) -> std::io::Result<bool> {
    let mut clean = true;
    let mut lane_dirs: Vec<_> = match fs::read_dir(root.join("wal")) {
        Ok(rd) => rd
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| {
                p.file_name()
                    .and_then(|n| n.to_str())
                    .is_some_and(|n| n.starts_with("lane-"))
            })
            .collect(),
        Err(_) => Vec::new(),
    };
    lane_dirs.sort();
    for lane in &lane_dirs {
        let segs = list_segments(lane)?;
        let mut records = 0u64;
        let mut bad_frames = 0u64;
        for (seq, path) in &segs {
            let Some((_, frames)) = walk_segment(path)?.body else {
                println!("{}: segment {seq:#x} has a damaged header", lane.display());
                clean = false;
                continue;
            };
            let valid = frames.iter().filter(|f| f.is_ok()).count() as u64;
            records += valid;
            bad_frames += frames.len() as u64 - valid;
        }
        if bad_frames > 0 {
            println!(
                "{}: {} segments, {records} valid records, {bad_frames} BAD frames (run dump)",
                lane.display(),
                segs.len()
            );
            clean = false;
        } else {
            println!(
                "{}: {} segments, {records} records",
                lane.display(),
                segs.len()
            );
        }
    }
    let ckpt_dir = root.join("ckpt");
    for seq in ckpt::list_checkpoints(&ckpt_dir)? {
        match ckpt::try_load(&ckpt_dir, seq) {
            Ok(l) => println!(
                "checkpoint {seq}: valid, {} pairs ({} bytes/page)",
                l.manifest.n_pairs, PAGE_BYTES
            ),
            Err(why) => {
                println!("checkpoint {seq}: INVALID — {why}");
                clean = false;
            }
        }
    }
    Ok(clean)
}
