//! Runs `perfbench smoke` from the repository root, so the run also checks
//! `BENCHMARK.json` against the schema compiled into the binary. Use
//! `cargo test --release`: the engine under test is built in the same profile
//! as the test, and a debug-profile engine takes minutes for the same run.

use std::path::Path;
use std::process::Command;

#[test]
fn smoke_run_passes_oracle_schema_and_repeatability() {
    let repo_root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .expect("the benchmark sits one level below the repository root");
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .arg("smoke")
        .current_dir(repo_root)
        .output()
        .expect("run perfbench smoke");
    let text = String::from_utf8_lossy(&out.stdout);
    assert!(
        out.status.success(),
        "perfbench smoke failed:\n{text}\n{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(text.contains("0 problems"), "{text}");
}
