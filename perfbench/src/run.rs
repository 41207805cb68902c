//! The parent side of a run: spawn the trials of one workload in a child
//! process under a per-trial wall-clock limit, fold the trials into one
//! reading per metric, and print them.
//!
//! Counts are the median over the measured trials, and set-up time is the
//! fastest set-up of the run. The three timings — goodput, median and p90
//! latency — are taken slice by slice from whichever trial ran that slice
//! fastest (`quant::fastest`): on a shared host a neighbour slows a
//! single-threaded, cache-resident loop by half for tenths of a second at a
//! time, and the median of whole trials moves with how many of them it
//! happened to hit.
//!
//! Trials run in a child because the seed code can hang or panic under
//! concurrent load (see the README's excluded workload): a trial that outlives
//! its limit is killed, every operation it was to run counts as failed, and
//! the remaining trials carry on in a fresh child. One child runs consecutive
//! trials so the warm-up trial warms the process the measured ones run in.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::sync::mpsc::{self, Receiver, RecvTimeoutError};
use std::thread::JoinHandle;
use std::time::Duration;

use crate::host::{HostProbe, HostReading};
use crate::json::Json;
use crate::quant::{fastest, highest_supported, median, Lane, Slice};
use crate::schema::{self, Shape, Workload, END_TO_END, PER_LAYER};
use crate::trial::{Row, Trial};

/// Trials before the measured ones; their rows are checked, not reported.
pub const WARMUP_TRIALS: usize = 1;
/// `--seconds` of `all` and `trace` when none is given.
pub const NOMINAL_SECONDS: f64 = 20.0;
/// One run of the benchmark contract must end inside 180 s, dead trials
/// included; this much of it is the trials' to use.
const RUN_BUDGET_S: f64 = 160.0;

/// Wall-clock limit of one of `total` trials: ten times what it is expected
/// to take, at least 5 s, and no more than an equal share of the run's
/// budget, so that a run whose every trial hangs still ends in time.
fn trial_limit(w: &Workload, scale: f64, total: usize) -> Duration {
    let expected = w.trial_s * scale;
    Duration::from_secs_f64((10.0 * expected).max(5.0).min(RUN_BUDGET_S / total as f64))
}

/// This program run again as a child (`trial` or `ladder`), its tagged result
/// lines read under a wall-clock limit.
pub struct WatchedChild {
    child: Child,
    lines: Receiver<String>,
    reader: JoinHandle<()>,
}

impl WatchedChild {
    /// The child's allocator is pinned down with two glibc tunables (where
    /// they are not understood they are ignored):
    ///
    /// - `hugetlb=1`: `malloc` asks for transparent huge pages. On 4 KiB pages
    ///   the speed of `engine-c80-big`, whose 24 MB of chunks are far beyond
    ///   the TLB's reach, depends on which physical pages the process
    ///   happened to be given — under a hypervisor every miss is a
    ///   two-dimensional page walk — and identical runs differ by 20% from
    ///   one process to the next; on 2 MiB pages they do not.
    /// - `mmap_threshold` fixed at 4 MiB: every chunk pool is its own fresh
    ///   mapping in every trial. Left to adapt, glibc serves the second and
    ///   later pools from recycled heap, which it has to zero (0.75 ms per
    ///   16 MB pool, five times the rest of an edge set-up) or not, depending
    ///   on what else the process freed: `setup_s` then has two values and a
    ///   run reports either.
    pub fn spawn(args: &[&str]) -> WatchedChild {
        let exe = std::env::current_exe().expect("own path");
        let mut child = Command::new(exe)
            .args(args)
            .env(
                "GLIBC_TUNABLES",
                "glibc.malloc.hugetlb=1:glibc.malloc.mmap_threshold=4194304",
            )
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn child");
        let stdout = child.stdout.take().expect("piped stdout");
        let (tx, lines) = mpsc::channel();
        let reader = std::thread::spawn(move || {
            for line in BufReader::new(stdout).lines().map_while(Result::ok) {
                if tx.send(line).is_err() {
                    break;
                }
            }
        });
        WatchedChild {
            child,
            lines,
            reader,
        }
    }

    fn trials(w: &Workload, seed: u64, scale: f64, count: usize, replay: bool) -> WatchedChild {
        WatchedChild::spawn(&[
            "trial",
            "--workload",
            w.name,
            "--seed",
            &seed.to_string(),
            "--scale",
            &scale.to_string(),
            "--count",
            &count.to_string(),
            "--replay",
            if replay { "1" } else { "0" },
        ])
    }

    /// The next line the child prints under `tag`, parsed, or `None` when it
    /// stays silent past `limit` or exits first.
    pub fn next_json(&mut self, tag: &str, limit: Duration) -> Option<Json> {
        loop {
            match self.lines.recv_timeout(limit) {
                Ok(line) => {
                    if let Some(body) = line.strip_prefix(tag) {
                        return Json::parse(body.trim()).ok();
                    }
                }
                Err(RecvTimeoutError::Timeout | RecvTimeoutError::Disconnected) => return None,
            }
        }
    }

    fn next_trial(&mut self, tag: &str, limit: Duration) -> Option<Trial> {
        self.next_json(tag, limit).map(|j| json_trial(&j))
    }

    /// Kill (a no-op if it already exited), reap, and join the reader.
    pub fn stop(mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = self.reader.join();
    }
}

pub fn json_row(json: &Json) -> Row {
    json.fields()
        .iter()
        .filter_map(|(k, v)| Some((k.clone(), v.num()?)))
        .collect()
}

pub fn row_json(row: &Row) -> Json {
    Json::Obj(
        row.iter()
            .map(|(k, v)| (k.clone(), Json::Num(*v)))
            .collect(),
    )
}

/// A trial as one line: its row, and under `lanes` each lane's slices as a
/// flat list of `dur_ns, p50_ns, p90_ns`.
pub fn trial_json(trial: &Trial) -> Json {
    let mut j = row_json(&trial.row);
    let lane = |l: &Lane| {
        Json::Arr(
            l.iter()
                .flat_map(|s| [s.dur_ns, s.p50_ns, s.p90_ns])
                .map(|v| Json::Num(v as f64))
                .collect(),
        )
    };
    j.set("lanes", Json::Arr(trial.lanes.iter().map(lane).collect()));
    j
}

pub fn json_trial(json: &Json) -> Trial {
    let lane = |l: &Json| -> Lane {
        l.arr()
            .chunks_exact(3)
            .map(|s| {
                let at = |i: usize| s[i].num().unwrap_or(0.0) as u64;
                Slice {
                    dur_ns: at(0),
                    p50_ns: at(1),
                    p90_ns: at(2),
                }
            })
            .collect()
    };
    Trial {
        row: json_row(json),
        lanes: json
            .get("lanes")
            .map(|l| l.arr().iter().map(lane).collect())
            .unwrap_or_default(),
    }
}

/// Goodput (ops/s), median and p90 latency (us) of `trials` taken together:
/// every slice at its fastest repeat. A run takes as long as its slowest
/// lane's slices laid end to end; its latencies are the median over the
/// slices of each slice's own median and p90. Trials that did not complete
/// every slice are left out (their operations are in `failed`).
fn timings(trials: &[&Trial]) -> Option<[f64; 3]> {
    let slices = |t: &Trial| t.lanes.iter().map(Vec::len).collect::<Vec<_>>();
    let full = trials.iter().map(|t| slices(t)).max()?;
    let whole: Vec<&Trial> = trials
        .iter()
        .copied()
        .filter(|t| slices(t) == full)
        .collect();
    let clean: Vec<Lane> = (0..full.len())
        .map(|l| fastest(&whole.iter().map(|t| &t.lanes[l]).collect::<Vec<_>>()))
        .collect();
    let wall_ns = clean
        .iter()
        .map(|lane| lane.iter().map(|s| s.dur_ns).sum::<u64>())
        .max()
        .filter(|&ns| ns > 0)?;
    let good: Vec<f64> = whole
        .iter()
        .map(|t| t.row["attempted"] - t.row["failed"])
        .collect();
    let mid_us = |of: fn(&Slice) -> u64| {
        let all: Vec<f64> = clean.iter().flatten().map(|s| of(s) as f64).collect();
        median(&all) / 1e3
    };
    Some([
        median(&good) / (wall_ns as f64 / 1e9),
        mid_us(|s| s.p50_ns),
        mid_us(|s| s.p90_ns),
    ])
}

const TIMINGS: [&str; 3] = ["goodput_ops_s", "lat_p50_us", "lat_p90_us"];

/// All trials of one workload at one seed.
pub struct WorkloadRun {
    pub workload: &'static Workload,
    pub scale: f64,
    /// Trials in order, warm-up first; `None` = killed or crashed.
    pub trials: Vec<Option<Trial>>,
    pub replay: Option<Row>,
    pub host: HostReading,
}

/// Run `WARMUP_TRIALS + measured` trials of `w`, plus the modelled replay when
/// asked, with the host probes read before and after.
pub fn run_workload(
    w: &'static Workload,
    seed: u64,
    scale: f64,
    measured: usize,
    replay: bool,
    probe: &HostProbe,
) -> WorkloadRun {
    let total = WARMUP_TRIALS + measured;
    let limit = trial_limit(w, scale, total);
    let before = probe.read();
    let mut trials: Vec<Option<Trial>> = Vec::with_capacity(total);
    let mut replay_row = None;
    while trials.len() < total {
        let mut child = WatchedChild::trials(w, seed, scale, total - trials.len(), replay);
        while trials.len() < total {
            let trial = child.next_trial("TRIAL ", limit);
            let died = trial.is_none();
            if died {
                eprintln!(
                    "perfbench: {} trial {} gave no result within {:.0} s; its operations count as failed",
                    w.name,
                    trials.len(),
                    limit.as_secs_f64()
                );
            }
            trials.push(trial);
            if died {
                break;
            }
        }
        if replay && trials.len() == total && trials.last().is_some_and(Option::is_some) {
            replay_row = child.next_trial("REPLAY ", limit).map(|t| t.row);
        }
        child.stop();
    }
    if replay && replay_row.is_none() {
        // The child died before the replay: run it alone.
        let mut child = WatchedChild::trials(w, seed, scale, 0, true);
        replay_row = child.next_trial("REPLAY ", limit).map(|t| t.row);
        child.stop();
    }
    let after = probe.read();
    WorkloadRun {
        workload: w,
        scale,
        trials,
        replay: replay_row,
        host: HostReading::mean(before, after),
    }
}

impl WorkloadRun {
    fn measured(&self) -> impl Iterator<Item = &Trial> {
        self.trials.iter().skip(WARMUP_TRIALS).flatten()
    }

    fn values(&self, name: &str) -> Vec<f64> {
        self.measured()
            .filter_map(|t| t.row.get(name).copied())
            .collect()
    }

    pub fn attempted(&self) -> u64 {
        let per_trial = self.workload.ops(self.scale) as u64;
        self.trials
            .iter()
            .skip(WARMUP_TRIALS)
            .map(|t| t.as_ref().map_or(per_trial, |t| t.row["attempted"] as u64))
            .sum()
    }

    pub fn failed(&self) -> u64 {
        let per_trial = self.workload.ops(self.scale) as u64;
        self.trials
            .iter()
            .skip(WARMUP_TRIALS)
            .map(|t| t.as_ref().map_or(per_trial, |t| t.row["failed"] as u64))
            .sum()
    }

    pub fn killed(&self) -> usize {
        self.trials.iter().filter(|t| t.is_none()).count()
    }

    /// Every completed trial — the warm-up too — passed the oracle and
    /// `validate()`, and at least one measured trial completed.
    pub fn correct(&self) -> bool {
        self.measured().next().is_some()
            && self
                .trials
                .iter()
                .flatten()
                .all(|t| t.row["mismatches"] == 0.0 && t.row["violations"] == 0.0)
    }

    /// One reading per metric the workload produced: the five end-to-end
    /// metrics and its per-layer ones. A timing is read off the fastest
    /// repeat of every slice, and its min–max are that reading taken over
    /// the even and the odd trials alone — how far it moves when half the
    /// repeats are withheld. Set-up time, in each trial the fastest of its
    /// repeats, is the fastest of the measured trials. The counts are the
    /// median over the measured trials, with their min and max.
    pub fn summary(&self) -> BTreeMap<String, Summary> {
        let mut out = BTreeMap::new();
        let mut add = |name: &str, value: f64, spread: &[f64]| {
            if let Some(m) = schema::metric(name) {
                let all = spread.iter().copied().chain([value]);
                out.insert(
                    name.to_string(),
                    Summary {
                        value,
                        min: all.clone().fold(f64::INFINITY, f64::min),
                        max: all.fold(f64::NEG_INFINITY, f64::max),
                        unit: m.unit,
                    },
                );
            }
        };
        let names: Vec<&String> = self.measured().flat_map(|t| t.row.keys()).collect();
        for name in names {
            let values = self.values(name);
            if name == "setup_s" {
                add(
                    name,
                    values.iter().copied().fold(f64::INFINITY, f64::min),
                    &values,
                );
            } else if !TIMINGS.contains(&name.as_str()) {
                add(name, median(&values), &values);
            }
        }
        let trials: Vec<&Trial> = self.measured().collect();
        if let Some(all) = timings(&trials) {
            let halves: Vec<[f64; 3]> = (0..2)
                .filter_map(|h| {
                    let half: Vec<&Trial> = trials.iter().copied().skip(h).step_by(2).collect();
                    timings(&half)
                })
                .collect();
            // An open loop's pace is its schedule's, whatever the server
            // does: how fast replies came in says nothing, and its goodput is
            // the trials' own, answered over wall time.
            let paced = matches!(self.workload.shape, Shape::EdgeOpen { .. });
            for (i, name) in TIMINGS.iter().enumerate() {
                if paced && *name == "goodput_ops_s" {
                    let values = self.values(name);
                    add(name, median(&values), &values);
                } else {
                    let spread: Vec<f64> = halves.iter().map(|h| h[i]).collect();
                    add(name, all[i], &spread);
                }
            }
        }
        for (name, v) in self.replay.iter().flatten() {
            add(name, *v, &[]);
        }
        add("host.spin_ns", self.host.spin_ns, &[]);
        add("host.chase_ns", self.host.chase_ns, &[]);
        out
    }

    /// Goodput of a trial by the clock — operations over wall time, whatever
    /// the host was doing — median over the measured trials. The ladder's
    /// rungs are single passes timed the same way, so this is what they are
    /// compared with.
    pub fn clock_goodput(&self) -> f64 {
        median(&self.values("goodput_ops_s"))
    }

    /// `edge.overhead_ns_per_op` of an edge workload: its ns per op by the
    /// clock minus the ladder's ns per op of the engine seam it runs on.
    pub fn edge_overhead(&self, ladder: &Row) -> Option<f64> {
        let seam = match self.workload.shape {
            Shape::EdgeClosed { cluster: true, .. } => "edge.engine_cluster_ns_per_op",
            Shape::EdgeClosed { .. } | Shape::EdgeOpen { .. } => "edge.engine_single_ns_per_op",
            _ => return None,
        };
        let goodput = self.clock_goodput();
        (goodput > 0.0).then(|| 1e9 / goodput - ladder.get(seam).copied().unwrap_or(0.0))
    }

    pub fn print(&self) {
        let w = self.workload;
        let done = self.measured().count();
        println!(
            "\n{}: {} of {} measured trials completed ({} warm-up discarded), scale {:.3}",
            w.name,
            done,
            self.trials.len() - WARMUP_TRIALS,
            WARMUP_TRIALS,
            self.scale
        );
        println!(
            "  operations attempted {}  failed {}  oracle {}  killed trials {}",
            self.attempted(),
            self.failed(),
            if self.correct() { "PASS" } else { "FAIL" },
            self.killed()
        );
        let detail = |name: &str| median(&self.values(name));
        println!(
            "  sheds {}  unanswered {}  oracle mismatches {}  validate() violations {}",
            detail("sheds"),
            detail("unanswered"),
            detail("mismatches"),
            detail("violations")
        );
        let samples = detail("lat_samples") as usize;
        println!(
            "  latency samples per trial {samples}; highest percentile with >= 10 samples beyond it: {}",
            highest_supported(samples)
        );
        let late = detail("client.gen_late_p99_us");
        if late > 100.0 && matches!(w.shape, Shape::EdgeOpen { .. }) {
            println!("  FLAG: generator ran late (p99 {late:.1} us > 100 us); latencies include generator stalls");
        }
        let summary = self.summary();
        if let Some(clean) = summary.get("goodput_ops_s") {
            let wall = self.clock_goodput();
            println!(
                "  by the clock a trial ran at {wall:.0} ops/s (median of the trials), {:.3} of the reading below; the rest is the host",
                wall / clean.value
            );
        }
        for m in END_TO_END.iter().chain(&PER_LAYER) {
            if let Some(s) = summary.get(m.name) {
                println!(
                    "  {:<36} {:>18.6} {:<7} [min {:.6}  max {:.6}]",
                    m.name, s.value, s.unit, s.min, s.max
                );
            }
        }
    }
}

#[derive(Debug, Clone)]
pub struct Summary {
    pub value: f64,
    pub min: f64,
    pub max: f64,
    pub unit: &'static str,
}

impl Summary {
    pub fn json(&self) -> Json {
        let mut o = Json::obj();
        o.set("value", Json::Num(self.value));
        o.set("min", Json::Num(self.min));
        o.set("max", Json::Num(self.max));
        o.set("unit", Json::Str(self.unit.into()));
        o
    }
}

/// The one-line result the benchmark contract asks for.
pub fn contract_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&str, &str, f64)],
) -> String {
    let mut m = Json::obj();
    for &(name, unit, value) in metrics {
        let mut v = Json::obj();
        v.set("value", Json::Num(value));
        v.set("unit", Json::Str(unit.into()));
        m.set(name, v);
    }
    let mut o = Json::obj();
    o.set("correct", Json::Bool(correct));
    o.set("attempted", Json::Num(attempted.max(1) as f64));
    o.set("failed", Json::Num(failed as f64));
    o.set("metrics", m);
    o.encode()
}
