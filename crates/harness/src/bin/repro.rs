//! Reproduction CLI: regenerate any table/figure of the paper's evaluation.
//!
//! ```text
//! repro --experiment fig5_3            # one artifact, quick mode
//! repro --experiment all --full        # everything at near-paper scale
//! repro --experiment table5_1 --workers 8 --out results/
//! ```

use std::path::PathBuf;
use std::process::ExitCode;

use gfsl_harness::experiments::{self, ExpConfig, ALL};

fn usage() -> ! {
    eprintln!(
        "usage: repro [--experiment <id>|all] [--quick|--full] [--workers N] [--seed S] [--out DIR]\n\
         experiments: {ALL:?} (default: all)\n\
         --quick (default): small ranges/op counts; --full: near-paper scale"
    );
    std::process::exit(2)
}

fn main() -> ExitCode {
    let mut cfg = ExpConfig::default();
    let mut which = "all".to_string();

    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        match a.as_str() {
            "--experiment" | "-e" => which = args.next().unwrap_or_else(|| usage()),
            "--quick" => cfg.quick = true,
            "--full" => cfg.quick = false,
            "--workers" | "-w" => {
                cfg.workers = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--seed" => {
                cfg.seed = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage())
            }
            "--out" | "-o" => cfg.out_dir = Some(PathBuf::from(args.next().unwrap_or_else(|| usage()))),
            "--help" | "-h" => usage(),
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }

    let ids: Vec<&str> = if which == "all" {
        ALL.to_vec()
    } else if ALL.contains(&which.as_str()) {
        vec![which.as_str()]
    } else {
        eprintln!("unknown experiment '{which}'");
        usage()
    };

    println!(
        "# GFSL reproduction — mode: {}, workers: {}, seed: {:#x}",
        if cfg.quick { "quick" } else { "full" },
        cfg.workers,
        cfg.seed
    );
    for id in ids {
        println!("\n### experiment: {id}\n");
        let t0 = std::time::Instant::now();
        let tables = experiments::run(id, &cfg);
        experiments::emit(&tables, &cfg);
        println!("({id} took {:.1}s)", t0.elapsed().as_secs_f64());
    }
    ExitCode::SUCCESS
}
