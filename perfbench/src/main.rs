//! perfbench — the GFSL reproduction's benchmark. See README.md beside the
//! manifest for the workloads, the metrics, and how to read the output.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! perfbench all     [--seed n] [--seconds s] [--out FILE]
//! perfbench trace   [--seed n] [--seconds s]
//! perfbench compare A.json B.json
//! perfbench smoke
//! perfbench hazard  [--seed n] [--trials k]
//! ```

mod compare;
mod edge;
mod engine;
mod gen;
mod host;
mod json;
mod ladder;
mod oracle;
mod quant;
mod run;
mod schema;
mod store;
mod trial;

use std::io::Write;
use std::path::PathBuf;
use std::time::{Duration, Instant};

use host::HostProbe;
use json::Json;
use run::{
    contract_line, json_row, row_json, run_workload, trial_json, WatchedChild, WorkloadRun,
    NOMINAL_SECONDS,
};
use schema::{Workload, END_TO_END, PER_LAYER, WORKLOADS};
use trial::Row;

/// Operations of the ladder's stream in `trace` and `all`, and the share of
/// them a per-workload `--trace 1` run and the smoke run go through.
const LADDER_OPS: usize = 2_000_000;
const SHORT_LADDER: f64 = 0.3;
const SMOKE_SCALE: f64 = 0.1;

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn num_flag<T: std::str::FromStr>(args: &[String], name: &str, default: T) -> Result<T, String> {
    match flag(args, name) {
        None => Ok(default),
        Some(text) => text
            .parse()
            .map_err(|_| format!("{name}: cannot read {text:?}")),
    }
}

fn usage() -> i32 {
    eprintln!(
        "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>\n       \
         perfbench all [--seed n] [--seconds s] [--out FILE]\n       \
         perfbench trace [--seed n] [--seconds s]\n       \
         perfbench compare A.json B.json\n       \
         perfbench smoke\n       \
         perfbench hazard [--seed n] [--trials k]\nworkloads: {}",
        WORKLOADS.map(|w| w.name).join(", ")
    );
    2
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("trial") => child_trials(&args),
        Some("ladder") => child_ladder(&args),
        Some("all") => all(&args),
        Some("trace") => trace(&args),
        Some("compare") => compare_files(&args),
        Some("smoke") => smoke(),
        Some("hazard") => hazard(&args),
        Some(a) if a.starts_with("--") => contract(&args),
        _ => Ok(usage()),
    };
    let code = result.unwrap_or_else(|e| {
        eprintln!("perfbench: {e}");
        2
    });
    let _ = std::io::stdout().flush();
    std::process::exit(code);
}

// ---- children ----

fn emit(tag: &str, body: &Json) {
    let mut out = std::io::stdout().lock();
    let _ = writeln!(out, "{tag}{}", body.encode());
    let _ = out.flush();
}

/// `trial`: consecutive trials of one workload, one line each, then the
/// modelled replay when asked.
fn child_trials(args: &[String]) -> Result<i32, String> {
    let w = workload_arg(args)?;
    let seed: u64 = num_flag(args, "--seed", 1)?;
    let scale: f64 = num_flag(args, "--scale", 1.0)?;
    let count: usize = num_flag(args, "--count", 1)?;
    let inputs = trial::inputs(w, seed, scale);
    for _ in 0..count {
        emit("TRIAL ", &trial_json(&trial::run(w, &inputs, scale)));
    }
    if num_flag(args, "--replay", 0)? == 1 {
        emit("REPLAY ", &row_json(&trial::replay(w, &inputs, scale)));
    }
    Ok(0)
}

/// `ladder`: the traced run, one line.
fn child_ladder(args: &[String]) -> Result<i32, String> {
    let seed: u64 = num_flag(args, "--seed", 1)?;
    let n: usize = num_flag(args, "--ops", 1_000)?;
    let out = flag(args, "--trace-out").ok_or("--trace-out missing")?;
    let l = ladder::run(seed, n, &PathBuf::from(out));
    let mut o = Json::obj();
    o.set("row", row_json(&l.row));
    o.set(
        "rungs",
        Json::Arr(
            l.rungs
                .iter()
                .map(|r| {
                    let mut j = Json::obj();
                    j.set("name", Json::Str(r.name.into()));
                    j.set("ns_per_op", Json::Num(r.ns_per_op));
                    j.set("over", r.over.map_or(Json::Null, |o| Json::Str(o.into())));
                    j
                })
                .collect(),
        ),
    );
    o.set("attempted", Json::Num(l.attempted as f64));
    o.set("mismatches", Json::Num(l.mismatches as f64));
    o.set("traced_goodput", Json::Num(l.traced_goodput));
    emit("LADDER ", &o);
    Ok(0)
}

// ---- the ladder, from the parent's side ----

struct LadderRun {
    row: Row,
    /// The child's `rungs` array as printed: `name`, `ns_per_op`, and `over`,
    /// the rung it is stacked on.
    rungs: Json,
    attempted: u64,
    mismatches: u64,
    traced_goodput: f64,
    trace_path: PathBuf,
}

fn run_ladder(seed: u64, ops: usize) -> Result<LadderRun, String> {
    let trace_path = edge::build_dir().join("trace.json");
    // Expected ≈ 8 µs per op over all rungs; ten times that, within 15–100 s.
    let limit = Duration::from_secs_f64((ops as f64 * 80e-6).clamp(15.0, 100.0));
    let mut child = WatchedChild::spawn(&[
        "ladder",
        "--seed",
        &seed.to_string(),
        "--ops",
        &ops.to_string(),
        "--trace-out",
        &trace_path.to_string_lossy(),
    ]);
    let result = child.next_json("LADDER ", limit);
    child.stop();
    let j = result.ok_or(format!(
        "the ladder gave no result within {:.0} s",
        limit.as_secs_f64()
    ))?;
    let num = |k: &str| j.get(k).and_then(Json::num).unwrap_or(0.0);
    Ok(LadderRun {
        row: j.get("row").map(json_row).unwrap_or_default(),
        rungs: j.get("rungs").cloned().unwrap_or(Json::Arr(Vec::new())),
        attempted: num("attempted") as u64,
        mismatches: num("mismatches") as u64,
        traced_goodput: num("traced_goodput"),
        trace_path,
    })
}

impl LadderRun {
    /// The rungs with the delta each adds, the reconciliation of the full
    /// edge against its parts, and the tracing overhead.
    fn print(&self, untraced_goodput: Option<f64>) {
        println!("\nladder over the edge-closed-hot stream (ns per op, and the delta each rung adds to the one it is stacked on):");
        let ns_of = |r: &Json| r.get("ns_per_op").and_then(Json::num).unwrap_or(0.0);
        let name_of = |r: &Json| r.get("name").and_then(Json::str).unwrap_or("?").to_string();
        for rung in self.rungs.arr() {
            let over = rung.get("over").and_then(Json::str);
            let base = self
                .rungs
                .arr()
                .iter()
                .find(|r| over == Some(name_of(r).as_str()))
                .map_or(0.0, ns_of);
            println!(
                "  {:<30} {:>10.1} ns/op   {:>+10.1} over {}",
                name_of(rung),
                ns_of(rung),
                ns_of(rung) - base,
                over.unwrap_or("nothing")
            );
        }
        let get = |k: &str| self.row.get(k).copied().unwrap_or(0.0);
        let total = 1e9 / self.traced_goodput;
        let engine = get("edge.engine_single_ns_per_op");
        let wire = get("edge.ping_ns_per_op");
        let residual = total - engine - wire;
        println!(
            "  reconciliation: 1e9/goodput {total:.1} = engine {engine:.1} + wire (ping) {wire:.1} + residual {residual:+.1} ns/op ({:+.1}% of the total)",
            100.0 * residual / total
        );
        if let Some(untraced) = untraced_goodput {
            println!(
                "  tracing overhead on edge-closed-hot: untraced {untraced:.0} ops/s, traced {:.0} ops/s, difference {:+.2}% of untraced",
                self.traced_goodput,
                100.0 * (untraced - self.traced_goodput) / untraced
            );
        }
        println!(
            "  ladder operations attempted {} mismatched {}; spans written to {}",
            self.attempted,
            self.mismatches,
            self.trace_path.display()
        );
    }
}

// ---- commands ----

fn workload_arg(args: &[String]) -> Result<&'static Workload, String> {
    let name = flag(args, "--workload").ok_or("--workload missing")?;
    schema::workload(name).ok_or_else(|| format!("unknown workload {name:?}"))
}

/// `--seed` and `--seconds`. A trial's size is fixed; `--seconds` sets how
/// many trials a run repeats (`Workload::trials`).
fn seed_and_seconds(args: &[String]) -> Result<(u64, f64), String> {
    let seed: u64 = num_flag(args, "--seed", 1)?;
    let seconds: f64 = num_flag(args, "--seconds", NOMINAL_SECONDS)?;
    if seconds.is_nan() || seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok((seed, seconds))
}

fn ladder_ops(share: f64) -> usize {
    (LADDER_OPS as f64 * share) as usize
}

/// All 45 per-layer metrics of a traced workload run: the ladder's values,
/// overridden by everything the workload measured itself.
fn per_layer(
    run: &WorkloadRun,
    ladder: &LadderRun,
) -> Result<Vec<(&'static str, &'static str, f64)>, String> {
    let mut merged = ladder.row.clone();
    for (name, s) in run.summary() {
        merged.insert(name, s.value);
    }
    if let Some(v) = run.edge_overhead(&ladder.row) {
        merged.insert("edge.overhead_ns_per_op".into(), v);
    }
    PER_LAYER
        .iter()
        .map(|m| {
            merged
                .get(m.name)
                .map(|&v| (m.name, m.unit, v))
                .ok_or_else(|| format!("per-layer metric {} was not measured", m.name))
        })
        .collect()
}

/// The benchmark contract: one workload, one seed, one JSON line at the end.
fn contract(args: &[String]) -> Result<i32, String> {
    let w = workload_arg(args)?;
    let (seed, seconds) = seed_and_seconds(args)?;
    let traced = num_flag(args, "--trace", 0u8)? == 1;
    let probe = HostProbe::new();
    println!(
        "perfbench: {} seed {seed} for {seconds} s trace {} on {} cores",
        w.name,
        traced as u8,
        std::thread::available_parallelism().map_or(0, usize::from)
    );
    if !traced {
        let run = run_workload(w, seed, 1.0, w.trials(seconds), false, &probe);
        run.print();
        let summary = run.summary();
        let metrics: Vec<_> = END_TO_END
            .iter()
            .map(|m| {
                summary
                    .get(m.name)
                    .map(|s| (m.name, m.unit, s.value))
                    .ok_or_else(|| format!("no measured trial of {} completed", w.name))
            })
            .collect::<Result<_, _>>()?;
        println!(
            "{}",
            contract_line(run.correct(), run.attempted(), run.failed(), &metrics)
        );
        return Ok(0);
    }
    // Traced: the workload's own counters from one measured trial plus the
    // modelled replay, and the ladder for every layer below the edge.
    let run = run_workload(w, seed, 1.0, 1, true, &probe);
    run.print();
    let ladder = run_ladder(seed, ladder_ops(SHORT_LADDER))?;
    ladder.print(None);
    let metrics = per_layer(&run, &ladder)?;
    println!(
        "{}",
        contract_line(
            run.correct() && ladder.mismatches == 0,
            run.attempted() + ladder.attempted,
            run.failed() + ladder.mismatches,
            &metrics
        )
    );
    Ok(0)
}

/// Every workload, then the ladder: all 5 end-to-end and all 45 per-layer
/// metrics by name, and a result file `compare` reads.
fn all(args: &[String]) -> Result<i32, String> {
    let (seed, seconds) = seed_and_seconds(args)?;
    let probe = HostProbe::new();
    println!("perfbench all: seed {seed}, {seconds} s per workload");
    let runs: Vec<WorkloadRun> = WORKLOADS
        .iter()
        .map(|w| {
            let run = run_workload(w, seed, 1.0, w.trials(seconds), true, &probe);
            run.print();
            run
        })
        .collect();
    let ladder = run_ladder(seed, ladder_ops(1.0))?;
    let first = runs[0].summary();
    ladder.print(Some(runs[0].clock_goodput()));

    let mut workloads = Json::obj();
    let mut ok = ladder.mismatches == 0;
    for run in &runs {
        ok &= run.correct();
        let mut metrics = Json::obj();
        let summary = run.summary();
        for (name, s) in &summary {
            metrics.set(name, s.json());
        }
        // Ladder metrics and the fall-backs, so every name is present.
        for (name, unit, v) in per_layer(run, &ladder)? {
            if !summary.contains_key(name) {
                let one = run::Summary {
                    value: v,
                    min: v,
                    max: v,
                    unit,
                };
                metrics.set(name, one.json());
            }
        }
        let mut o = Json::obj();
        o.set("attempted", Json::Num(run.attempted() as f64));
        o.set("failed", Json::Num(run.failed() as f64));
        o.set("correct", Json::Bool(run.correct()));
        o.set("killed_trials", Json::Num(run.killed() as f64));
        o.set("metrics", metrics);
        workloads.set(run.workload.name, o);
    }
    println!("\nper-layer metrics measured on the ladder (same for every workload):");
    for m in &PER_LAYER {
        if let (Some(v), false) = (ladder.row.get(m.name), first.contains_key(m.name)) {
            println!("  {:<36} {:>18.6} {}", m.name, v, m.unit);
        }
    }
    if let Some(path) = flag(args, "--out") {
        let mut o = Json::obj();
        o.set("seed", Json::Num(seed as f64));
        o.set("seconds", Json::Num(seconds));
        o.set(
            "cores",
            Json::Num(std::thread::available_parallelism().map_or(0, usize::from) as f64),
        );
        o.set("workloads", workloads);
        o.set("ladder", ladder.rungs.clone());
        std::fs::write(path, o.encode() + "\n").map_err(|e| format!("write {path}: {e}"))?;
        println!("results written to {path}");
    }
    println!(
        "\nperfbench all: oracle {}",
        if ok { "PASS" } else { "FAIL" }
    );
    Ok(if ok { 0 } else { 1 })
}

/// The traced run on its own: untraced `edge-closed-hot` for the base, then
/// the whole ladder.
fn trace(args: &[String]) -> Result<i32, String> {
    let (seed, seconds) = seed_and_seconds(args)?;
    let probe = HostProbe::new();
    let w = &WORKLOADS[0];
    let run = run_workload(w, seed, 1.0, w.trials(seconds), false, &probe);
    run.print();
    let ladder = run_ladder(seed, ladder_ops(1.0))?;
    ladder.print(Some(run.clock_goodput()));
    let ok = run.correct() && ladder.mismatches == 0;
    Ok(if ok { 0 } else { 1 })
}

fn compare_files(args: &[String]) -> Result<i32, String> {
    let [_, a, b] = args else {
        return Ok(usage());
    };
    let read = |p: &String| {
        std::fs::read_to_string(p)
            .map_err(|e| format!("read {p}: {e}"))
            .and_then(|t| Json::parse(&t).map_err(|e| format!("{p}: {e}")))
    };
    let (regressed, _) = compare::compare(&read(a)?, &read(b)?);
    Ok(if regressed == 0 { 0 } else { 1 })
}

/// The excluded cell, under the watchdog: `k` trials of two handles × 10M C80
/// ops each over the 20,000-key hot space. Prints how many completed, and how
/// many hung (killed at the limit) or panicked.
fn hazard(args: &[String]) -> Result<i32, String> {
    let seed: u64 = num_flag(args, "--seed", 1)?;
    let trials: usize = num_flag(args, "--trials", 3)?;
    let run = run_workload(
        &schema::HAZARD,
        seed,
        1.0,
        trials.saturating_sub(run::WARMUP_TRIALS),
        false,
        &HostProbe::new(),
    );
    for (i, t) in run.trials.iter().enumerate() {
        match t {
            Some(t) => println!(
                "trial {i}: completed, {:.0} ops/s, oracle mismatches {}",
                t.row["goodput_ops_s"], t.row["mismatches"]
            ),
            None => println!(
                "trial {i}: no result (hung and killed at the limit, or panicked — see stderr)"
            ),
        }
    }
    println!(
        "{} of {} trials gave no result",
        run.killed(),
        run.trials.len()
    );
    Ok(0)
}

/// A 1/10-size run of all six workloads and the ladder that asserts: oracle
/// pass, every metric name present with its unit, `BENCHMARK.json` (when the
/// run starts at the repository root) naming exactly this schema, and
/// `engine-churn`'s counters bit-identical across two in-process repeats.
fn smoke() -> Result<i32, String> {
    let t = Instant::now();
    let (seed, scale) = (1, SMOKE_SCALE);
    let probe = HostProbe::new();
    let ladder = run_ladder(seed, ladder_ops(scale))?;
    ladder.print(None);
    let mut problems: Vec<String> = Vec::new();
    if ladder.mismatches != 0 {
        problems.push(format!("ladder: {} oracle mismatches", ladder.mismatches));
    }
    for w in &WORKLOADS {
        let run = run_workload(w, seed, scale, 1, true, &probe);
        run.print();
        if !run.correct() || run.failed() != 0 {
            problems.push(format!(
                "{}: failed {} oracle {}",
                w.name,
                run.failed(),
                run.correct()
            ));
        }
        let summary = run.summary();
        for m in &END_TO_END {
            match summary.get(m.name) {
                Some(s) if s.unit == m.unit && s.value > 0.0 => {}
                _ => problems.push(format!(
                    "{}: {} missing, zero, or without its unit",
                    w.name, m.name
                )),
            }
        }
        if let Err(e) = per_layer(&run, &ladder) {
            problems.push(format!("{}: {e}", w.name));
        }
    }

    let churn = schema::workload("engine-churn").expect("defined above");
    let inputs = trial::inputs(churn, seed, scale);
    let (a, b) = (
        trial::run(churn, &inputs, scale).row,
        trial::run(churn, &inputs, scale).row,
    );
    let counts = |r: &Row| -> Vec<(String, u64)> {
        r.iter()
            .filter(|(k, _)| {
                (k.starts_with("gfsl-core.") || k.starts_with("gpu-mem.") || *k == "space_amp")
                    && !k.ends_with("_ns_per_op")
            })
            .map(|(k, v)| (k.clone(), v.to_bits()))
            .collect()
    };
    if counts(&a) != counts(&b) || counts(&a).is_empty() {
        problems.push(format!(
            "engine-churn counters differ between repeats: {:?} vs {:?}",
            counts(&a),
            counts(&b)
        ));
    }

    if let Ok(text) = std::fs::read_to_string("BENCHMARK.json") {
        problems.extend(manifest_problems(&Json::parse(&text)?));
    }

    println!(
        "\nsmoke: {:.1} s, {} problems",
        t.elapsed().as_secs_f64(),
        problems.len()
    );
    for p in &problems {
        println!("  PROBLEM {p}");
    }
    Ok(if problems.is_empty() { 0 } else { 1 })
}

/// Differences between `BENCHMARK.json` and the schema compiled in.
fn manifest_problems(manifest: &Json) -> Vec<String> {
    let mut problems = Vec::new();
    let mut same = |what: &str, listed: Vec<String>, ours: Vec<String>| {
        if listed != ours {
            problems.push(format!(
                "BENCHMARK.json {what} {listed:?} != schema {ours:?}"
            ));
        }
    };
    let names = |key: &str, with: &[&str]| -> Vec<String> {
        manifest
            .get(key)
            .map(|list| {
                list.arr()
                    .iter()
                    .map(|x| {
                        with.iter()
                            .map(|f| match x.get(f) {
                                Some(Json::Str(s)) => s.clone(),
                                Some(Json::Num(n)) => format!("{n}"),
                                _ => String::new(),
                            })
                            .collect::<Vec<_>>()
                            .join("|")
                    })
                    .collect()
            })
            .unwrap_or_default()
    };
    let better = |b: schema::Better| {
        if b == schema::Better::Lower {
            "lower"
        } else {
            "higher"
        }
    };
    same(
        "workloads",
        names("workloads", &["name", "why"]),
        WORKLOADS
            .iter()
            .filter(|w| w.gated)
            .map(|w| format!("{}|{}", w.name, w.why))
            .collect(),
    );
    same(
        "end_to_end",
        names("end_to_end", &["name", "unit", "better", "bound"]),
        END_TO_END
            .iter()
            .map(|m| format!("{}|{}|{}|{}", m.name, m.unit, better(m.better), m.bound))
            .collect(),
    );
    same(
        "per_layer",
        names("per_layer", &["name", "unit", "better"]),
        PER_LAYER
            .iter()
            .map(|m| format!("{}|{}|{}", m.name, m.unit, better(m.better)))
            .collect(),
    );
    problems
}
