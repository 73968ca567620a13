//! Experiment scales and the Figure 5 jobs.
//!
//! This module lives in the experiment layer so the spec presets and the CLI resolve
//! `--quick` through one definition (the CLI re-exports it). The figures' geometries
//! are spec values: [`figure4_geometry`](crate::presets::figure4_geometry) and the
//! default [`MultitaskGrid`](crate::spec::MultitaskGrid).

use crate::spec::{figure5_job_specs, GzipJobSpec};
use ccache_workloads::gzipsim::{run_gzip_job, GzipConfig};
use ccache_workloads::mpeg::MpegConfig;
use ccache_workloads::multitask::Job;

/// Scale of an experiment run: `Paper` uses the full working sets, `Quick` shrinks them so
/// smoke tests and CI finish fast while preserving every qualitative shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Full-size experiment (matches the configuration described in DESIGN.md).
    Paper,
    /// Reduced-size experiment for quick runs.
    Quick,
}

impl Scale {
    /// `Quick` when the `--quick` flag was given, `Paper` otherwise.
    pub fn from_quick(quick: bool) -> Self {
        if quick {
            Scale::Quick
        } else {
            Scale::Paper
        }
    }

    /// Whether this is the reduced scale.
    pub fn is_quick(self) -> bool {
        self == Scale::Quick
    }

    /// The MPEG workload configuration for this scale.
    pub fn mpeg(self) -> MpegConfig {
        match self {
            Scale::Paper => MpegConfig::default(),
            Scale::Quick => MpegConfig::small(),
        }
    }

    /// The gzip job configuration for this scale.
    pub fn gzip(self) -> GzipConfig {
        match self {
            Scale::Paper => GzipConfig::default(),
            Scale::Quick => GzipConfig {
                input_len: 4 * 1024,
                ..GzipConfig::default()
            },
        }
    }

    /// The quantum sweep for this scale (the paper sweeps 1 to 1 M in powers of 4).
    pub fn quanta(self) -> Vec<usize> {
        let max_pow = match self {
            Scale::Paper => 10,
            Scale::Quick => 7,
        };
        (0..=max_pow).map(|p| 4usize.pow(p)).collect()
    }

    /// Builds the gzip jobs of a multitask grid at this scale.
    pub(crate) fn gzip_jobs(self, jobs: &[GzipJobSpec]) -> Vec<Job> {
        let base_cfg = self.gzip();
        jobs.iter()
            .map(|j| {
                let run = run_gzip_job(&base_cfg.with_seed(j.seed), j.base, &j.name);
                Job::new(run.name, run.trace)
            })
            .collect()
    }
}

/// Builds the three gzip jobs of Figure 5 ([`figure5_job_specs`]) with disjoint address
/// spaces, as a multitask grid's executor builds them.
pub fn figure5_jobs(scale: Scale) -> Vec<Job> {
    scale.gzip_jobs(&figure5_job_specs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quick_scale_is_smaller_but_same_shape() {
        let quick = Scale::Quick.mpeg();
        let paper = Scale::Paper.mpeg();
        assert!(quick.idct_blocks < paper.idct_blocks);
        assert!(quick.idct_blocks * 128 > 2048);
        assert!(Scale::Quick.quanta().len() < Scale::Paper.quanta().len());
        assert!(Scale::Quick.gzip().input_len < Scale::Paper.gzip().input_len);
        assert_eq!(Scale::from_quick(true), Scale::Quick);
        assert!(!Scale::from_quick(false).is_quick());
    }

    #[test]
    fn figure5_jobs_have_disjoint_address_spaces() {
        let jobs = figure5_jobs(Scale::Quick);
        assert_eq!(jobs.len(), 3);
        let spans: Vec<(u64, u64)> = jobs
            .iter()
            .map(|j| {
                let s = j.trace.stats();
                (s.min_addr, s.max_addr)
            })
            .collect();
        assert!(spans[0].1 < spans[1].0);
        assert!(spans[1].1 < spans[2].0);
    }
}
