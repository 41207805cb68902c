//! In-process engine loops: long-lived handles calling `try_get`,
//! `try_insert` and `try_remove` directly, no sockets.

use std::sync::{Arc, Barrier};
use std::time::Instant;

use gfsl::{Gfsl, GfslHandle, MemProbe, OpStats};
use gfsl_gpu_mem::{CountingProbe, L2Cache, Traffic};
use gfsl_workload::ServeOp;

use crate::edge::now_ns;
use crate::oracle::{ABSENT, FAILED};
use crate::quant::{Lane, Slice};

/// Calls per latency sample. An in-process "request" is a burst of this many
/// consecutive calls through one handle — as many as the edge workloads keep
/// in flight — timed as a whole: every call is covered, at two clock reads
/// per burst.
pub const BURST: usize = 64;
/// Bursts per slice: 2048 calls, one to three milliseconds.
pub const SLICE_BURSTS: usize = 32;

#[inline]
pub fn exec<P: MemProbe>(h: &mut GfslHandle<'_, P>, op: ServeOp) -> u32 {
    match op {
        ServeOp::Get(k) => h.try_get(k).map(|v| v.unwrap_or(ABSENT)),
        ServeOp::Insert(k, v) => h.try_insert(k, v).map(u32::from),
        ServeOp::Delete(k) => h.try_remove(k).map(u32::from),
        other => panic!("the benchmark generates no {other:?}"),
    }
    .unwrap_or(FAILED)
}

/// What one handle did over one stream.
pub struct Driven {
    /// Reply code per op (allocated and touched before the timed loop).
    pub codes: Vec<u32>,
    /// Latency of every whole burst of [`BURST`] calls, ns, in stream order.
    pub lat: Vec<u64>,
    pub stats: OpStats,
    /// `chunk_reads` after the first and second third of the stream.
    pub reads_at_thirds: [u64; 2],
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Driven {
    pub fn new(n: usize) -> Driven {
        Driven {
            codes: vec![FAILED; n],
            lat: Vec::with_capacity(n / BURST),
            stats: OpStats::new(),
            reads_at_thirds: [0; 2],
            start_ns: 0,
            end_ns: 0,
        }
    }

    /// The stream cut into slices of [`SLICE_BURSTS`] bursts; a slice takes
    /// as long as its bursts. (A stream's length is a whole number of slices,
    /// see `Workload::ops`; a shorter tail would be left out.)
    pub fn lane(&self) -> Lane {
        self.lat
            .chunks_exact(SLICE_BURSTS)
            .map(|bursts| Slice::of(bursts.iter().sum(), &mut bursts.to_vec()))
            .collect()
    }

    /// Chunk reads per op in the last third of the stream over the first
    /// third: above 1, descents got longer as the run went on.
    pub fn read_drift(parts: &[&Driven]) -> f64 {
        let first: u64 = parts.iter().map(|d| d.reads_at_thirds[0]).sum();
        let last: u64 = parts
            .iter()
            .map(|d| d.stats.chunk_reads - d.reads_at_thirds[1])
            .sum();
        last as f64 / first.max(1) as f64
    }
}

/// Run `ops` through `h`, in three parts (equal to within a burst) with a
/// counter reading between.
pub fn drive<P: MemProbe>(h: &mut GfslHandle<'_, P>, ops: &[ServeOp], out: &mut Driven) {
    let third = ops.len().div_ceil(3).next_multiple_of(BURST).max(BURST);
    out.start_ns = now_ns();
    for (part, slice) in ops.chunks(third).enumerate() {
        let base = part * third;
        for (b, burst) in slice.chunks(BURST).enumerate() {
            let at = base + b * BURST;
            let t = Instant::now();
            for (code, &op) in out.codes[at..].iter_mut().zip(burst) {
                *code = exec(h, op);
            }
            if burst.len() == BURST {
                out.lat.push(t.elapsed().as_nanos() as u64);
            }
        }
        if part < 2 {
            out.reads_at_thirds[part] = h.stats().chunk_reads;
        }
    }
    out.end_ns = now_ns();
    out.stats = h.stats();
}

/// One thread per stream, each with one long-lived handle, released together.
pub fn run_threads(list: &Gfsl, streams: &[Vec<ServeOp>]) -> Vec<Driven> {
    let barrier = Arc::new(Barrier::new(streams.len()));
    std::thread::scope(|s| {
        let workers: Vec<_> = streams
            .iter()
            .map(|ops| {
                let barrier = barrier.clone();
                s.spawn(move || {
                    let mut out = Driven::new(ops.len());
                    let mut h = list.handle();
                    barrier.wait();
                    drive(&mut h, ops, &mut out);
                    out
                })
            })
            .collect();
        workers
            .into_iter()
            .map(|w| w.join().expect("engine thread panicked"))
            .collect()
    })
}

/// Single-thread replay through the GTX 970 L2 model: exact transaction and
/// miss counts (the paper's Table 5.1/5.2 quantity), plus the handle's own
/// counters for workloads whose handles live inside a server.
pub fn replay_modeled(list: &Gfsl, ops: &[ServeOp]) -> (Driven, Traffic) {
    let mut out = Driven::new(ops.len());
    let mut h = list.handle_with(CountingProbe::new(Arc::new(L2Cache::gtx970())));
    drive(&mut h, ops, &mut out);
    let (probe, _) = h.into_parts();
    (out, probe.traffic())
}
