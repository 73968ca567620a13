//! `ccache run` on hostile experiment specs: each is refused up front with a spec error
//! and exit code 1 — no panic, and no time spent expanding or executing the grid.

use std::process::Command;
use std::time::{Duration, Instant};

/// Runs `ccache run` on `spec` (written to a scratch file) and returns its exit code,
/// stderr and wall time.
fn run_spec(name: &str, spec: &str) -> (Option<i32>, String, Duration) {
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join(format!("{name}.json"));
    std::fs::write(&path, spec).expect("write spec");
    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_ccache"))
        .args(["run", "--quick"])
        .arg(&path)
        .output()
        .expect("spawn ccache");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    (output.status.code(), stderr, start.elapsed())
}

fn assert_refused(name: &str, spec: &str, reason: &str) {
    let (code, stderr, elapsed) = run_spec(name, spec);
    assert_eq!(code, Some(1), "{name}: {stderr}");
    assert!(
        stderr.starts_with("error: invalid experiment spec: ") && stderr.contains(reason),
        "{name}: {stderr}"
    );
    assert!(!stderr.contains("panicked"), "{name}: {stderr}");
    assert!(elapsed < Duration::from_secs(10), "{name} took {elapsed:?}");
}

#[test]
fn grids_expanding_past_the_job_bound_are_refused() {
    let repeated = |item: &str| vec![item; 3000].join(",");
    let spec = format!(
        r#"{{"name": "huge", "replay": [{{"workloads": [{}], "policies": [{}]}}]}}"#,
        repeated(r#""fir""#),
        repeated(r#""shared""#)
    );
    assert_refused("huge-grid", &spec, "9000000 jobs");
}

#[test]
fn partition_sweeps_over_invalid_geometries_are_refused() {
    let spec = r#"{"name": "wide", "replay": [{"workloads": ["fir"],
        "geometries": [{"capacity": 2048, "columns": 1000000, "line": 32}],
        "policies": ["partition-sweep"]}]}"#;
    assert_refused("wide-sweep", spec, "column count 1000000 must be in 1..=64");
}
