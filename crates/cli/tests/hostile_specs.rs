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

#[test]
fn capacities_past_the_simulator_limit_are_refused_before_allocating() {
    // 2^40 bytes once asked the engine for 256 GiB of set state and aborted the process.
    for capacity in [1u64 << 34, 1 << 40] {
        let spec = format!(
            r#"{{"name": "vast", "replay": [{{"workloads": ["fir"],
                "geometries": [{{"capacity": {capacity}, "columns": 4, "line": 32}}],
                "policies": ["shared"]}}]}}"#
        );
        assert_refused(
            &format!("vast-{capacity}"),
            &spec,
            &format!("capacity {capacity} exceeds the 1048576-byte limit"),
        );
    }
}

#[test]
fn set_counts_past_the_simulator_limit_are_refused_before_allocating() {
    // 1-byte lines at 1 MiB make 2^20 sets in one column: a 152 MB engine.
    let spec = r#"{"name": "fine", "replay": [{"workloads": ["fir"],
        "geometries": [{"capacity": 1048576, "columns": 1, "line": 1}],
        "policies": ["shared"]}]}"#;
    assert_refused(
        "fine-lines",
        spec,
        "set count 1048576 exceeds the 32768-set limit",
    );
}

#[test]
fn tlbs_past_the_simulator_limit_and_bad_pages_are_refused() {
    // A billion-entry TLB scanned every resident entry on each miss: a 200,000-event
    // trace took 21.8 s instead of 0.05 s.
    let spec = r#"{"name": "vast-tlb", "replay": [{"workloads": ["fir"],
        "geometries": [{"capacity": 2048, "columns": 4, "line": 32, "tlb": 1000000000}]}]}"#;
    assert_refused(
        "vast-tlb",
        spec,
        "a TLB of 1000000000 entries exceeds the 1024-entry limit",
    );
    let spec = r#"{"name": "odd-page", "replay": [{"workloads": ["fir"],
        "geometries": [{"capacity": 2048, "columns": 4, "line": 32, "page": 3000}]}]}"#;
    assert_refused(
        "odd-page",
        spec,
        "page size must be a nonzero power of two, got 3000",
    );
}

#[test]
fn flags_past_the_simulator_limits_are_refused() {
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("vast-flag.cct");
    let record = Command::new(env!("CARGO_BIN_EXE_ccache"))
        .args(["trace", "record", "--count", "64", "--out"])
        .arg(&trace)
        .output()
        .expect("spawn ccache");
    assert!(record.status.success());
    let trace = trace.to_str().expect("utf-8 path");
    let capacity = "capacity 1099511627776 exceeds the 1048576-byte limit";
    let tlb = "a TLB of 1000000000 entries exceeds the 1024-entry limit";
    for (args, message) in [
        (
            vec!["sweep", "--trace", trace, "--capacity", "1099511627776"],
            capacity,
        ),
        (
            vec!["tune", "--quick", "--capacity", "1099511627776"],
            capacity,
        ),
        (vec!["sweep", "--trace", trace, "--tlb", "1000000000"], tlb),
        (vec!["tune", "--quick", "--tlb", "1000000000"], tlb),
    ] {
        let output = Command::new(env!("CARGO_BIN_EXE_ccache"))
            .args(&args)
            .output()
            .expect("spawn ccache");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
        assert!(stderr.contains(message), "{args:?}: {stderr}");
    }
}

#[test]
fn dynamic_without_recorded_phases_is_refused_before_any_workload_loads() {
    // The heuristic job would load the trace first; the refusal names the policy, not a
    // file that was never opened.
    let missing = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("never-written.cct");
    let missing = missing.to_str().expect("utf-8 path");
    let spec = format!(
        r#"{{"name": "phases", "replay": [{{"workloads": [{{"trace": "{missing}"}}],
            "policies": ["heuristic", "dynamic"]}}]}}"#
    );
    assert_refused(
        "dynamic-trace",
        &spec,
        &format!(
            "the 'dynamic' policy needs recorded phases; only the 'mpeg-combined' corpus \
             workload has them (got '{missing}')"
        ),
    );
}

#[test]
fn traces_without_line_breaks_are_refused_within_seconds() {
    // A text trace is read line by line; `/dev/zero` is one endless line, which the
    // reader once buffered until the allocation failed and the process aborted.
    let spec = r#"{"name": "zero", "replay": [{"workloads": [{"trace": "/dev/zero"}]}]}"#;
    let (code, stderr, elapsed) = run_spec("dev-zero", spec);
    assert_eq!(code, Some(1), "{stderr}");
    assert!(
        stderr.contains("line 1: longer than 4096 bytes"),
        "{stderr}"
    );
    assert!(!stderr.contains("panicked"), "{stderr}");
    assert!(elapsed < Duration::from_secs(10), "took {elapsed:?}");

    let start = Instant::now();
    let output = Command::new(env!("CARGO_BIN_EXE_ccache"))
        .args(["trace", "info", "/dev/zero"])
        .output()
        .expect("spawn ccache");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.contains("line 1: longer than 4096 bytes"),
        "{stderr}"
    );
    assert!(start.elapsed() < Duration::from_secs(10));
}

#[test]
fn trace_errors_name_the_file_that_failed() {
    let dir = std::path::Path::new(env!("CARGO_TARGET_TMPDIR"));
    let good = dir.join("named-good.cct");
    let record = Command::new(env!("CARGO_BIN_EXE_ccache"))
        .args(["trace", "record", "--count", "64", "--out"])
        .arg(&good)
        .output()
        .expect("spawn ccache");
    assert!(record.status.success());
    // A binary trace cut short fails while it streams; a text trace with a bad line
    // fails while it loads.
    let truncated = dir.join("named-truncated.cct");
    let bytes = std::fs::read(&good).expect("read trace");
    std::fs::write(&truncated, &bytes[..bytes.len() / 2]).expect("write trace");
    let garbled = dir.join("named-garbled.trace");
    std::fs::write(&garbled, "R 0x10 8\nbogus line\n").expect("write trace");

    let good = good.to_str().expect("utf-8 path");
    for (bad, reason) in [
        (truncated.to_str().expect("utf-8 path"), "event "),
        (garbled.to_str().expect("utf-8 path"), "line 2: "),
    ] {
        let spec = format!(
            r#"{{"name": "named", "replay": [{{"workloads": [{{"trace": "{good}"}}, {{"trace": "{bad}"}}]}}]}}"#
        );
        let (code, stderr, _) = run_spec("named", &spec);
        assert_eq!(code, Some(1), "{stderr}");
        assert!(
            stderr.contains(&format!("error: trace '{bad}': {reason}")),
            "{stderr}"
        );
        assert!(!stderr.contains(good), "{stderr}");
    }
}

#[test]
fn a_refused_tune_prints_the_tuners_own_error() {
    // A 16 MiB scan in 4 KiB steps is inferred as one 16 MiB variable, which splits into
    // more units than the layout admits. No experiment spec is involved, so the error
    // must not read as one.
    let trace = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("refused-tune.trace");
    let record = Command::new(env!("CARGO_BIN_EXE_ccache"))
        .args(["trace", "record", "--gen", "scan", "--format", "text"])
        .args(["--len", "16777216", "--stride", "4096", "--out"])
        .arg(&trace)
        .output()
        .expect("spawn ccache");
    assert!(record.status.success());
    let output = Command::new(env!("CARGO_BIN_EXE_ccache"))
        .args(["tune", "--budget", "8", "--trace"])
        .arg(&trace)
        .output()
        .expect("spawn ccache");
    let stderr = String::from_utf8_lossy(&output.stderr);
    assert_eq!(output.status.code(), Some(1), "{stderr}");
    assert!(
        stderr.starts_with("error: assignment error: ") && stderr.contains("MAX_LAYOUT_UNITS"),
        "{stderr}"
    );
    assert!(!stderr.contains("invalid experiment"), "{stderr}");
}
