//! The multitasking experiment of Figure 5.
//!
//! Three gzip jobs run round-robin on one processor. With a standard cache every job may
//! replace any line, so job A's hit rate — and therefore its CPI — depends strongly on how
//! often it is interrupted (the context-switch quantum). With a mapped column cache job A
//! owns a set of columns exclusively and the other jobs share the remainder, so job A's
//! CPI is both lower and nearly independent of the quantum.
//!
//! A run is one [`ReplayEngine`] replay whose [`RefSource`] is the lazy round-robin
//! schedule: each quantum slice is staged straight from its job's trace one engine
//! batch at a time, and each batch's cycles are credited to the job that issued it.

use crate::engine::{stage, take_front, RefSource, ReplayEngine};
use crate::error::CoreError;
use ccache_sim::backend::BackendKind;
use ccache_sim::{
    CacheConfig, ColumnMask, CycleReport, LatencyConfig, MemoryStats, SystemConfig, Tint,
};
use ccache_telemetry::Registry;
use ccache_trace::{MemAccess, Trace};
use ccache_workloads::multitask::{round_robin, Job, RoundRobin};
use std::convert::Infallible;

/// Configuration of the multitasking experiment.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MultitaskConfig {
    /// Total cache capacity in bytes (the paper uses 16 KiB and 128 KiB).
    pub capacity_bytes: u64,
    /// Number of columns.
    pub columns: usize,
    /// Line size in bytes.
    pub line_size: u64,
    /// Page size of the TLB/page table.
    pub page_size: u64,
    /// Latency model.
    pub latency: LatencyConfig,
    /// Columns given exclusively to the critical job (job 0) in the mapped configuration.
    pub critical_job_columns: usize,
}

/// The latency model used by the Figure 5 experiment: a deeper memory hierarchy than
/// the 2 KiB on-chip memory of Figure 4, so misses are more expensive. Public so the
/// experiment layer (`ccache-exp`) can offer it as a named preset.
pub fn figure5_latency() -> LatencyConfig {
    LatencyConfig {
        miss_penalty: 60,
        writeback_penalty: 30,
        uncached_latency: 70,
        ..LatencyConfig::default()
    }
}

impl MultitaskConfig {
    /// The 16 KiB configuration of Figure 5 (8 columns of 2 KiB). The critical job is
    /// "exclusively assigned a large fraction of the cache" — 6 of the 8 columns — so its
    /// hot working set fits in its private columns.
    pub fn cache_16k() -> Self {
        MultitaskConfig {
            capacity_bytes: 16 * 1024,
            columns: 8,
            line_size: 32,
            page_size: 1024,
            latency: figure5_latency(),
            critical_job_columns: 6,
        }
    }

    /// The simulator configuration for this experiment.
    pub fn system_config(&self) -> Result<SystemConfig, CoreError> {
        let cache = CacheConfig::builder()
            .capacity_bytes(self.capacity_bytes)
            .columns(self.columns)
            .line_size(self.line_size)
            .build()?;
        Ok(SystemConfig {
            cache,
            latency: self.latency,
            page_size: self.page_size,
            tlb_entries: 128,
        })
    }
}

impl Default for MultitaskConfig {
    fn default() -> Self {
        MultitaskConfig::cache_16k()
    }
}

/// Whether the column cache is partitioned between jobs or shared as a standard cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SharingPolicy {
    /// Standard cache: every job may replace any line.
    Shared,
    /// Mapped column cache: job 0 owns `critical_job_columns` columns exclusively and the
    /// other jobs share the remaining columns.
    Mapped,
}

/// Per-job results of one multitasking run.
#[derive(Debug, Clone, PartialEq)]
pub struct JobMetrics {
    /// Job name.
    pub name: String,
    /// References issued by the job.
    pub references: u64,
    /// Memory cycles attributed to the job.
    pub memory_cycles: u64,
    /// Instructions attributed to the job (references × instructions-per-reference).
    pub instructions: u64,
    /// Clocks per instruction of the job.
    pub cpi: f64,
}

/// Result of one multitasking run (one quantum, one sharing policy).
#[derive(Debug, Clone, PartialEq)]
pub struct MultitaskRun {
    /// The context-switch quantum in references.
    pub quantum: usize,
    /// The sharing policy used.
    pub policy: SharingPolicy,
    /// Per-job metrics, in job order.
    pub jobs: Vec<JobMetrics>,
    /// Number of context switches performed.
    pub context_switches: u64,
}

impl MultitaskRun {
    /// Metrics of the critical job (job 0, "job A" in the paper).
    pub fn critical_job(&self) -> &JobMetrics {
        &self.jobs[0]
    }
}

/// Address span `[min, max)` of a trace, for tinting a job's whole address space.
fn address_span(trace: &Trace) -> (u64, u64) {
    let stats = trace.stats();
    (stats.min_addr, stats.max_addr + 1)
}

/// The round-robin schedule as a replay source: batches never straddle a quantum slice,
/// so each batch has exactly one issuing job, which is charged its references and
/// cycles.
struct JobSlices<'a> {
    slices: RoundRobin<'a>,
    /// The issuing job and the unreplayed rest of its current quantum slice.
    current: (usize, &'a [MemAccess]),
    cycles: Vec<u64>,
    references: Vec<u64>,
}

impl RefSource for JobSlices<'_> {
    type Error = Infallible;

    fn next_batch<'s>(
        &'s mut self,
        staging: &'s mut Vec<(u64, bool)>,
        max: usize,
    ) -> Result<&'s [(u64, bool)], Infallible> {
        while self.current.1.is_empty() {
            match self.slices.next() {
                Some(slice) => self.current = slice,
                None => return Ok(&[]),
            }
        }
        let batch = take_front(&mut self.current.1, max);
        self.references[self.current.0] += batch.len() as u64;
        Ok(stage(staging, batch))
    }

    fn charge(&mut self, cycles: u64) {
        self.cycles[self.current.0] += cycles;
    }
}

/// Runs one multitasking experiment point on any backend kind.
///
/// With [`SharingPolicy::Mapped`] on a backend that ignores tint control (the baseline
/// kinds), the run degrades to the shared behaviour — useful for checking that the
/// benefit really comes from the mapping.
///
/// # Errors
///
/// Returns an error if the cache geometry is invalid or the mapped configuration requests
/// more exclusive columns than exist.
pub fn run_multitasking_on(
    kind: BackendKind,
    jobs: &[Job],
    quantum: usize,
    config: &MultitaskConfig,
    policy: SharingPolicy,
) -> Result<MultitaskRun, CoreError> {
    run_multitasking_in(kind, jobs, quantum, config, policy, &Registry::global())
}

/// As [`run_multitasking_on`], with the engine's telemetry reporting into `registry`.
///
/// # Errors
///
/// As [`run_multitasking_on`].
pub fn run_multitasking_in(
    kind: BackendKind,
    jobs: &[Job],
    quantum: usize,
    config: &MultitaskConfig,
    policy: SharingPolicy,
    registry: &Registry,
) -> Result<MultitaskRun, CoreError> {
    if jobs.is_empty() {
        return Err(CoreError::BadExperiment {
            reason: "no jobs supplied".to_owned(),
        });
    }
    if config.critical_job_columns >= config.columns {
        return Err(CoreError::BadExperiment {
            reason: format!("critical job cannot own all {} columns", config.columns),
        });
    }
    let mut engine = ReplayEngine::new(kind, config.system_config()?)?;
    engine.set_telemetry(registry);

    if policy == SharingPolicy::Mapped {
        let system = engine.backend_mut();
        // Job 0 owns columns [0, critical_job_columns); the others share the rest.
        let critical_mask = ColumnMask::range(0, config.critical_job_columns);
        let other_mask = ColumnMask::range(
            config.critical_job_columns,
            config.columns - config.critical_job_columns,
        );
        system.define_tint(Tint(1), critical_mask)?;
        system.define_tint(Tint(2), other_mask)?;
        // Unmapped pages (there should be none) stay off the critical columns too.
        system.define_tint(Tint::DEFAULT, other_mask)?;
        for (j, job) in jobs.iter().enumerate() {
            let (lo, hi) = address_span(&job.trace);
            let tint = if j == 0 { Tint(1) } else { Tint(2) };
            system.tint_range(lo..hi, tint);
        }
    }

    let mut schedule = JobSlices {
        slices: round_robin(jobs, quantum),
        current: (0, &[]),
        cycles: vec![0; jobs.len()],
        references: vec![0; jobs.len()],
    };
    let Ok(_) = engine.replay_from("multitask", &mut schedule, None);

    let jobs_metrics = jobs
        .iter()
        .enumerate()
        .map(|(j, job)| {
            let stats = MemoryStats {
                references: schedule.references[j],
                memory_cycles: schedule.cycles[j],
                ..MemoryStats::default()
            };
            let report = CycleReport::from_stats(&stats, &config.latency);
            JobMetrics {
                name: job.name.clone(),
                references: stats.references,
                memory_cycles: report.memory_cycles,
                instructions: report.instructions,
                cpi: report.cpi(),
            }
        })
        .collect();
    Ok(MultitaskRun {
        quantum,
        policy,
        jobs: jobs_metrics,
        context_switches: schedule.slices.context_switches(),
    })
}

/// One series of Figure 5: the critical job's CPI at every quantum, for one cache size and
/// one sharing policy.
#[derive(Debug, Clone, PartialEq)]
pub struct QuantumSeries {
    /// Label of the series (e.g. `"gzip.16k mapped"`).
    pub label: String,
    /// `(quantum, cpi)` points in increasing quantum order.
    pub points: Vec<(usize, f64)>,
}

impl QuantumSeries {
    /// Largest CPI in the series.
    pub fn max_cpi(&self) -> f64 {
        self.points.iter().map(|&(_, c)| c).fold(0.0, f64::max)
    }

    /// Smallest CPI in the series.
    pub fn min_cpi(&self) -> f64 {
        self.points
            .iter()
            .map(|&(_, c)| c)
            .fold(f64::INFINITY, f64::min)
    }

    /// Peak-to-trough CPI variation (the paper's "performance variation").
    pub fn variation(&self) -> f64 {
        self.max_cpi() - self.min_cpi()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_workloads::gzipsim::{run_gzip_job, GzipConfig};

    fn small_jobs() -> Vec<Job> {
        (0..3)
            .map(|j| {
                let cfg = GzipConfig {
                    input_len: 3000,
                    ..GzipConfig::small()
                }
                .with_seed(100 + j as u64);
                let run = run_gzip_job(&cfg, 0x100_0000 * (j as u64 + 1), &format!("gzip-{j}"));
                Job::new(run.name.clone(), run.trace)
            })
            .collect()
    }

    fn tiny_cache() -> MultitaskConfig {
        // deliberately tiny so the jobs interfere heavily and the test is fast
        MultitaskConfig {
            capacity_bytes: 4 * 1024,
            columns: 8,
            line_size: 32,
            page_size: 1024,
            latency: LatencyConfig::default(),
            critical_job_columns: 4,
        }
    }

    fn run_point(
        jobs: &[Job],
        quantum: usize,
        config: &MultitaskConfig,
        policy: SharingPolicy,
    ) -> Result<MultitaskRun, CoreError> {
        let registry = Registry::new();
        run_multitasking_in(
            BackendKind::ColumnCache,
            jobs,
            quantum,
            config,
            policy,
            &registry,
        )
    }

    #[test]
    fn every_reference_is_attributed_to_its_job() {
        let jobs = small_jobs();
        let run = run_point(&jobs, 64, &tiny_cache(), SharingPolicy::Shared).unwrap();
        for (j, job) in jobs.iter().enumerate() {
            assert_eq!(run.jobs[j].references, job.trace.len() as u64);
            assert!(run.jobs[j].cpi >= 1.0);
        }
        assert!(run.context_switches > 0);
        assert_eq!(run.critical_job().name, "gzip-0");
    }

    #[test]
    fn bad_configurations_are_rejected() {
        let jobs = small_jobs();
        let mut cfg = tiny_cache();
        cfg.critical_job_columns = 8;
        assert!(run_point(&jobs, 16, &cfg, SharingPolicy::Mapped).is_err());
        assert!(run_point(&[], 16, &tiny_cache(), SharingPolicy::Shared).is_err());
    }

    #[test]
    fn series_statistics() {
        let s = QuantumSeries {
            label: "x".into(),
            points: vec![(1, 2.5), (4, 2.0), (16, 1.5)],
        };
        assert_eq!(s.max_cpi(), 2.5);
        assert_eq!(s.min_cpi(), 1.5);
        assert!((s.variation() - 1.0).abs() < 1e-12);
    }
}
