//! One module per paper artifact; see the crate docs for the index.

pub mod ablate;
pub mod cyclesim;
pub mod diag;
pub mod figures;
pub mod pkey;
pub mod table_warps;

use std::path::PathBuf;

use crate::report::Table;

/// Shared experiment configuration.
#[derive(Debug, Clone)]
pub struct ExpConfig {
    /// Quick mode: smaller ranges and op counts (CI-friendly); full mode
    /// approaches the paper's scales.
    pub quick: bool,
    /// Host worker threads.
    pub workers: usize,
    /// Where to drop CSV artifacts (`None` = print only).
    pub out_dir: Option<PathBuf>,
    /// Master seed.
    pub seed: u64,
    /// Override the sweep ranges (tests use tiny ones).
    pub ranges_override: Option<Vec<u32>>,
    /// Override the anchor range (tests use a tiny one).
    pub anchor_override: Option<u32>,
    /// Override the timed op count.
    pub ops_override: Option<usize>,
}

impl Default for ExpConfig {
    fn default() -> Self {
        ExpConfig {
            quick: true,
            workers: 4,
            out_dir: None,
            seed: 0x6F5_CA1E,
            ranges_override: None,
            anchor_override: None,
            ops_override: None,
        }
    }
}

impl ExpConfig {
    /// Timed operations for mixed/contains benchmarks (paper: 10M).
    pub fn mixed_ops(&self) -> usize {
        if let Some(n) = self.ops_override {
            return n;
        }
        if self.quick {
            60_000
        } else {
            1_000_000
        }
    }

    /// A minimal configuration for integration tests.
    pub fn tiny(workers: usize) -> ExpConfig {
        ExpConfig {
            quick: true,
            workers,
            out_dir: None,
            seed: 0xACE,
            ranges_override: Some(vec![2_000, 10_000]),
            anchor_override: Some(10_000),
            ops_override: Some(8_000),
        }
    }

    /// Key ranges for the range sweeps (paper: 10K..100M).
    pub fn ranges(&self) -> Vec<u32> {
        if let Some(r) = &self.ranges_override {
            return r.clone();
        }
        if self.quick {
            vec![10_000, 30_000, 100_000, 300_000, 1_000_000]
        } else {
            vec![
                10_000, 30_000, 100_000, 300_000, 1_000_000, 3_000_000, 10_000_000,
            ]
        }
    }

    /// Largest range at which M&C is measured (the paper's M&C runs out of
    /// memory beyond 10M mixed / 3M single-op; we additionally cap the
    /// host-side cost in quick mode).
    pub fn mc_range_cap(&self) -> u32 {
        if self.quick {
            1_000_000
        } else {
            10_000_000
        }
    }

    /// The anchor range for the static-configuration tables (paper: 1M).
    /// Used at full size even in quick mode: the Table 5.1/5.2 throughput
    /// rows are only meaningful when memory (and its spill share) binds.
    pub fn anchor_range(&self) -> u32 {
        self.anchor_override.unwrap_or(1_000_000)
    }
}

/// Names of all experiments, in run order.
pub const ALL: &[&str] = &[
    "table5_1", "table5_2", "fig5_1", "fig5_2", "fig5_3", "fig5_4", "pkey", "ablate", "cyclesim",
    "diag",
];

/// Run one experiment by id, returning its rendered tables.
pub fn run(id: &str, cfg: &ExpConfig) -> Vec<Table> {
    match id {
        "table5_1" => table_warps::table5_1(cfg),
        "table5_2" => table_warps::table5_2(cfg),
        "fig5_1" => figures::fig5_1(cfg),
        "fig5_2" => figures::fig5_2(cfg),
        "fig5_3" => figures::fig5_3(cfg),
        "fig5_4" => figures::fig5_4(cfg),
        "pkey" => pkey::run(cfg),
        "ablate" => ablate::run(cfg),
        "cyclesim" => cyclesim::run(cfg),
        "diag" => diag::run(cfg),
        other => panic!("unknown experiment '{other}'; known: {ALL:?}"),
    }
}

/// Emit one experiment's tables: print each, and write each as a CSV when
/// `cfg.out_dir` is set.
pub fn emit(tables: &[Table], cfg: &ExpConfig) {
    for t in tables {
        println!("{}", t.render());
        if let Some(dir) = &cfg.out_dir {
            match t.write_csv(dir) {
                Ok(p) => println!("   -> {}", p.display()),
                Err(e) => eprintln!("   !! csv write failed: {e}"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_and_full_scales_differ() {
        let quick = ExpConfig::default();
        let full = ExpConfig {
            quick: false,
            ..Default::default()
        };
        assert!(quick.mixed_ops() < full.mixed_ops());
        assert!(quick.ranges().len() < full.ranges().len());
        assert!(quick.mc_range_cap() < full.mc_range_cap());
        assert_eq!(full.ranges().last(), Some(&10_000_000));
        assert_eq!(quick.anchor_range(), full.anchor_range(), "anchor fixed at 1M");
    }

    #[test]
    fn tiny_config_overrides_everything() {
        let t = ExpConfig::tiny(3);
        assert_eq!(t.workers, 3);
        assert!(t.mixed_ops() <= 10_000);
        assert!(t.ranges().iter().all(|&r| r <= 10_000));
        assert!(t.anchor_range() <= 10_000);
    }

    #[test]
    #[should_panic(expected = "unknown experiment")]
    fn unknown_experiment_panics() {
        let _ = run("fig9_9", &ExpConfig::tiny(1));
    }

    #[test]
    fn experiment_registry_is_complete() {
        assert_eq!(
            ALL,
            [
                "table5_1", "table5_2", "fig5_1", "fig5_2", "fig5_3", "fig5_4", "pkey", "ablate",
                "cyclesim", "diag",
            ]
        );
    }
}
