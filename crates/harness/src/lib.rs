//! # Experiment harness
//!
//! Reproduces every table and figure of the GFSL paper's Chapter 5:
//!
//! | id        | paper artifact |
//! |-----------|----------------|
//! | `table5_1`| Table 5.1 — GFSL warps-per-block sweep |
//! | `table5_2`| Table 5.2 — M&C warps-per-block sweep |
//! | `fig5_1`  | Fig. 5.1 — GFSL-16 vs GFSL-32 vs M&C |
//! | `fig5_2`  | Fig. 5.2 — GFSL/M&C speedup ratio vs key range |
//! | `fig5_3`  | Fig. 5.3 — throughput vs key range, four mixtures |
//! | `fig5_4`  | Fig. 5.4 — single-operation-type throughput |
//! | `pkey`    | §5.2 — p_key / p_chunk sweeps |
//! | `ablate`  | extra ablations (merge threshold, probe overhead) |
//! | `cyclesim`| cross-validation — cycle-level SIMT executor vs the roofline model, Contains-only |
//! | `diag`    | model diagnostics — per-component time breakdown of reference configurations |
//!
//! Methodology: the real data structures run the paper's workloads on host
//! threads with instrumented memory (coalescing + shared L2 model); the
//! measured traffic feeds the calibrated GPU cost model which predicts
//! GTX 970-class throughput. Absolute numbers are anchored once; shapes
//! (who wins, where the crossover sits, how fast M&C degrades) come
//! entirely from measurement. Run via:
//!
//! ```text
//! cargo run --release -p gfsl-harness --bin repro -- --experiment all --quick
//! ```

#![warn(missing_docs)]

pub mod experiments;
pub mod metrics;
pub mod model_eval;
pub mod report;
pub mod runner;

pub use metrics::RunMetrics;
pub use model_eval::{evaluate, evaluate_with_launch, StructureKind};
pub use report::Table;
pub use runner::{run_gfsl, run_mc, RunConfig};
