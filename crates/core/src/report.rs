//! Report formatting: the tables and series printed by the benchmark harness, and the
//! JSON renderings of every experiment result (the `--json` artefacts of the figure
//! binaries).

use crate::dynamic::{DynamicRunResult, Figure4dResult, PhaseResult};
use crate::multitask::{JobMetrics, MultitaskRun, QuantumSeries, SharingPolicy};
use crate::partition::{PartitionPoint, PartitionSweep};
use crate::runner::RunResult;
use ccache_json::{Json, ToJson};
use ccache_sim::SystemConfig;
use std::fmt::Write as _;

/// Renders a partition sweep (one panel of Figure 4) as an ASCII table:
/// cache columns, scratchpad columns, cycle count, miss count.
pub fn partition_table(sweep: &PartitionSweep) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# {} — cycle count vs. cache size (columns)",
        sweep.name
    );
    let _ = writeln!(
        out,
        "{:>13} {:>18} {:>12} {:>10} {:>10}",
        "cache_columns", "scratchpad_columns", "cycles", "misses", "hit_rate"
    );
    for p in &sweep.points {
        let hit_rate = if p.result.references == 0 {
            0.0
        } else {
            p.result.hits as f64 / p.result.references as f64
        };
        let _ = writeln!(
            out,
            "{:>13} {:>18} {:>12} {:>10} {:>9.1}%",
            p.cache_columns,
            p.scratchpad_columns,
            p.cycles,
            p.result.misses,
            hit_rate * 100.0
        );
    }
    out
}

/// Renders the Figure 4(d) comparison: every static partition against the column cache.
pub fn figure4d_table(result: &Figure4dResult) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# combined application — static partitions vs. column cache"
    );
    let _ = writeln!(out, "{:>22} {:>12}", "configuration", "cycles");
    for (cols, cycles) in &result.static_cycles {
        let _ = writeln!(out, "{:>22} {:>12}", format!("static cache={cols}"), cycles);
    }
    let _ = writeln!(
        out,
        "{:>22} {:>12}",
        "column cache (dynamic)", result.column_cache_cycles
    );
    let _ = writeln!(
        out,
        "{:>22} {:>12}",
        "  + remap overhead",
        result.column_cache_cycles + result.column_cache_control_cycles
    );
    let (best_cols, best) = result.best_static();
    let _ = writeln!(
        out,
        "best static partition: cache={best_cols} ({best} cycles); column cache {}",
        if result.column_cache_wins() {
            "wins or ties"
        } else {
            "does not win"
        }
    );
    out
}

/// Renders one or more Figure 5 series (CPI vs. quantum) as an aligned table with one
/// column per series.
pub fn quantum_table(series: &[QuantumSeries]) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "# clocks per instruction of job A vs. context-switch quantum"
    );
    let _ = write!(out, "{:>10}", "quantum");
    for s in series {
        let _ = write!(out, " {:>18}", s.label);
    }
    let _ = writeln!(out);
    let quanta: Vec<usize> = series
        .first()
        .map(|s| s.points.iter().map(|&(q, _)| q).collect())
        .unwrap_or_default();
    for (i, q) in quanta.iter().enumerate() {
        let _ = write!(out, "{q:>10}");
        for s in series {
            match s.points.get(i) {
                Some(&(_, cpi)) => {
                    let _ = write!(out, " {cpi:>18.3}");
                }
                None => {
                    let _ = write!(out, " {:>18}", "-");
                }
            }
        }
        let _ = writeln!(out);
    }
    for s in series {
        let _ = writeln!(
            out,
            "{}: min CPI {:.3}, max CPI {:.3}, variation {:.3}",
            s.label,
            s.min_cpi(),
            s.max_cpi(),
            s.variation()
        );
    }
    out
}

/// The JSON artefact of one figure run: the sweeps of every routine plus the optional
/// Figure 4(d) comparison, under a fixed configuration.
///
/// Serialization is deterministic (fixed key order, no maps), so two structurally equal
/// reports — e.g. one computed serially and one in parallel — render byte-identically.
#[derive(Debug, Clone, PartialEq)]
pub struct SweepReport {
    /// Which figure the report reproduces (e.g. `"4"`).
    pub figure: String,
    /// The system configuration the sweeps ran under.
    pub config: SystemConfig,
    /// One sweep per routine.
    pub sweeps: Vec<PartitionSweep>,
    /// The static-vs-dynamic comparison, when the combined application was run.
    pub figure4d: Option<Figure4dResult>,
}

impl SweepReport {
    /// Renders the report as pretty JSON.
    pub fn to_json_string(&self) -> String {
        self.to_json().pretty()
    }
}

impl ToJson for SweepReport {
    fn to_json(&self) -> Json {
        Json::obj([
            ("figure", self.figure.to_json()),
            ("config", legacy_config_json(&self.config)),
            ("sweeps", self.sweeps.to_json()),
            ("figure4d", self.figure4d.to_json()),
        ])
    }
}

impl ToJson for RunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("memory_cycles", self.memory_cycles.to_json()),
            ("control_cycles", self.control_cycles.to_json()),
            ("report", self.report.to_json()),
            ("references", self.references.to_json()),
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("writebacks", self.writebacks.to_json()),
            ("uncached", self.uncached.to_json()),
        ])
    }
}

impl ToJson for crate::observe::WindowSample {
    fn to_json(&self) -> Json {
        Json::obj([
            ("index", self.index.to_json()),
            ("start", self.start.to_json()),
            ("references", self.references.to_json()),
            ("hits", self.hits.to_json()),
            ("misses", self.misses.to_json()),
            ("memory_cycles", self.memory_cycles.to_json()),
            ("miss_rate", self.miss_rate().to_json()),
            ("cpi", self.cpi.to_json()),
        ])
    }
}

impl ToJson for crate::observe::ReplayEvent {
    fn to_json(&self) -> Json {
        use crate::observe::ReplayEvent;
        match self {
            ReplayEvent::PhaseStart { name, at_ref } => Json::obj([
                ("kind", "phase-start".to_json()),
                ("label", name.to_json()),
                ("at_ref", at_ref.to_json()),
            ]),
            ReplayEvent::Remap {
                label,
                at_ref,
                regions,
            } => Json::obj([
                ("kind", "remap".to_json()),
                ("label", label.to_json()),
                ("at_ref", at_ref.to_json()),
                ("regions", regions.to_json()),
            ]),
            ReplayEvent::PhaseEnd {
                name,
                at_ref,
                cycles,
            } => Json::obj([
                ("kind", "phase-end".to_json()),
                ("label", name.to_json()),
                ("at_ref", at_ref.to_json()),
                ("cycles", cycles.to_json()),
            ]),
        }
    }
}

impl ToJson for crate::observe::TimeSeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("window", self.window.to_json()),
            ("samples", self.samples.to_json()),
            ("events", self.events.to_json()),
        ])
    }
}

/// The `config` block of a Figure 4 artefact, in its fixed schema: the geometry, the
/// page size, the latencies and `include_control: false`, since no figure's cycle count
/// includes control cycles.
fn legacy_config_json(config: &SystemConfig) -> Json {
    Json::obj([
        ("capacity_bytes", config.cache.capacity_bytes().to_json()),
        ("columns", config.cache.columns().to_json()),
        ("line_size", config.cache.line_size().to_json()),
        ("page_size", config.page_size.to_json()),
        ("latency", config.latency.to_json()),
        ("include_control", false.to_json()),
    ])
}

impl ToJson for PartitionPoint {
    fn to_json(&self) -> Json {
        Json::obj([
            ("cache_columns", self.cache_columns.to_json()),
            ("scratchpad_columns", self.scratchpad_columns.to_json()),
            ("cycles", self.cycles.to_json()),
            ("scratchpad_vars", self.scratchpad_vars.to_json()),
            ("result", self.result.to_json()),
        ])
    }
}

impl ToJson for PartitionSweep {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

impl ToJson for Figure4dResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("static_cycles", self.static_cycles.to_json()),
            ("column_cache_cycles", self.column_cache_cycles.to_json()),
            (
                "column_cache_control_cycles",
                self.column_cache_control_cycles.to_json(),
            ),
        ])
    }
}

impl ToJson for PhaseResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("result", self.result.to_json()),
            ("layout_cost", self.layout_cost.to_json()),
            ("preloaded_columns", self.preloaded_columns.to_json()),
        ])
    }
}

impl ToJson for DynamicRunResult {
    fn to_json(&self) -> Json {
        Json::obj([
            ("phases", self.phases.to_json()),
            ("cycles", self.cycles.to_json()),
            ("control_cycles", self.control_cycles.to_json()),
        ])
    }
}

impl ToJson for SharingPolicy {
    fn to_json(&self) -> Json {
        Json::Str(
            match self {
                SharingPolicy::Shared => "shared",
                SharingPolicy::Mapped => "mapped",
            }
            .to_owned(),
        )
    }
}

impl ToJson for JobMetrics {
    fn to_json(&self) -> Json {
        Json::obj([
            ("name", self.name.to_json()),
            ("references", self.references.to_json()),
            ("memory_cycles", self.memory_cycles.to_json()),
            ("instructions", self.instructions.to_json()),
            ("cpi", self.cpi.to_json()),
        ])
    }
}

impl ToJson for MultitaskRun {
    fn to_json(&self) -> Json {
        Json::obj([
            ("quantum", self.quantum.to_json()),
            ("policy", self.policy.to_json()),
            ("jobs", self.jobs.to_json()),
            ("context_switches", self.context_switches.to_json()),
        ])
    }
}

impl ToJson for QuantumSeries {
    fn to_json(&self) -> Json {
        Json::obj([
            ("label", self.label.to_json()),
            ("points", self.points.to_json()),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::multitask::QuantumSeries;

    #[test]
    fn quantum_table_lists_every_series_and_quantum() {
        let a = QuantumSeries {
            label: "gzip.16k".into(),
            points: vec![(1, 2.8), (4, 2.5)],
        };
        let b = QuantumSeries {
            label: "gzip.16k mapped".into(),
            points: vec![(1, 1.9), (4, 1.9)],
        };
        let table = quantum_table(&[a, b]);
        assert!(table.contains("gzip.16k"));
        assert!(table.contains("mapped"));
        assert!(table.contains("2.800"));
        assert!(table.contains("1.900"));
        assert!(table.contains("variation"));
    }

    #[test]
    fn figure4d_table_reports_winner() {
        let r = Figure4dResult {
            static_cycles: vec![(0, 1000), (4, 800)],
            column_cache_cycles: 700,
            column_cache_control_cycles: 50,
        };
        let t = figure4d_table(&r);
        assert!(t.contains("column cache"));
        assert!(t.contains("700"));
        assert!(t.contains("wins"));
        assert!(t.contains("750"));
    }
}
