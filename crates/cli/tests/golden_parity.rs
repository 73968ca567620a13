//! Legacy-command parity: golden tests asserting that the refactored commands —
//! now presets over the `ccache-exp` spec → plan → execute pipeline — produce
//! **byte-identical** artefacts to the pre-refactor binary.
//!
//! The goldens under `tests/golden/` were recorded from the pre-refactor `ccache`
//! binary (commit 60edaf9) with exactly the flags named in each test; the dense-layout
//! golden was recorded at commit c04737c, before the column-assignment merge loop was
//! rewritten. If a golden ever needs regenerating on purpose, rebuild at its commit and
//! re-run the commands — the artefacts are deterministic, so any machine records the
//! same bytes.

use std::path::{Path, PathBuf};

fn golden(name: &str) -> String {
    let path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(name);
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("missing golden {path:?}: {e}"))
}

fn tmp(name: &str) -> PathBuf {
    let dir = std::env::temp_dir().join("ccache-golden-parity");
    std::fs::create_dir_all(&dir).expect("temp dir");
    dir.join(name)
}

fn run_cli(args: &[&str]) {
    ccache_cli::run(args.iter().map(|s| s.to_string())).expect("command succeeds");
}

#[test]
fn fig4_quick_json_artefact_is_byte_identical() {
    let out = tmp("fig4-quick.json");
    run_cli(&[
        "fig4",
        "--quick",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        golden("fig4-quick.json"),
        "fig4 --quick JSON artefact drifted from the pre-refactor output"
    );
}

#[test]
fn fig4_legacy_json_flag_matches_the_same_artefact() {
    let out = tmp("fig4-quick-legacy.json");
    run_cli(&["fig4", "--quick", "--json", out.to_str().unwrap()]);
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        golden("fig4-quick.json"),
        "fig4 --json must write the same artefact as --format json --out"
    );
}

#[test]
fn fig5_quick_json_artefact_is_byte_identical() {
    let out = tmp("fig5-quick.json");
    run_cli(&[
        "fig5",
        "--quick",
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        golden("fig5-quick.json"),
        "fig5 --quick JSON artefact drifted from the pre-refactor output"
    );
}

#[test]
fn ablation_quick_text_is_byte_identical() {
    // The pre-refactor ablation had no --format flag; its artefact is the printed
    // report, golden-recorded from the binary's stdout.
    let (text, _) = ccache_cli::commands::ablation::compute(ccache_cli::Scale::Quick)
        .expect("ablation computes");
    assert_eq!(
        text,
        golden("ablation-quick.txt"),
        "ablation --quick report drifted from the pre-refactor output"
    );
}

#[test]
fn sweep_json_artefact_is_byte_identical() {
    // The golden was recorded against a deterministic synthetic trace written to this
    // exact path (the path is embedded in the artefact); regenerate it the same way.
    let trace_path = "/tmp/ccache-golden-sweep.cct";
    run_cli(&[
        "trace", "record", "--gen", "random", "--count", "20000", "--len", "65536", "--seed", "7",
        "--out", trace_path, "--format", "binary",
    ]);
    let out = tmp("sweep-quick.json");
    run_cli(&[
        "sweep",
        "--trace",
        trace_path,
        "--format",
        "json",
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&out).unwrap(),
        golden("sweep-quick.json"),
        "sweep JSON artefact drifted from the pre-refactor output"
    );
}

#[test]
fn dense_layout_artefact_is_byte_identical() {
    // 64 units whose conflict graph is complete: the heuristic needs 60 merges to fit
    // 4 columns, and every partition point lays out what the scratchpad leaves over.
    // The artefact embeds the trace path, which the golden replaces with `<trace>`.
    let trace = tmp("dense-layout.cct");
    let trace_path = trace.to_str().unwrap();
    run_cli(&[
        "trace", "record", "--gen", "random", "--len", "32768", "--count", "20000", "--seed", "7",
        "--out", trace_path,
    ]);
    let spec = tmp("dense-layout-spec.json");
    std::fs::write(
        &spec,
        format!(
            r#"{{"name": "dense-layout", "replay": [{{"workloads": [{{"trace": "{trace_path}"}}],
                "policies": ["shared", "heuristic", "round-robin", "partition-sweep"]}}]}}"#
        ),
    )
    .expect("write spec");
    let out = tmp("dense-layout.json");
    run_cli(&[
        "run",
        spec.to_str().unwrap(),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert_eq!(
        std::fs::read_to_string(&out)
            .unwrap()
            .replace(trace_path, "<trace>"),
        golden("dense-layout.json"),
        "dense heuristic/partition layout drifted from the recorded artefact"
    );
}
