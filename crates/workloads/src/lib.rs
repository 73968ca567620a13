//! Instrumented embedded workloads for the column-caching reproduction.
//!
//! Every workload in this crate is a *real* Rust kernel (inverse quantisation, IDCT,
//! motion-compensation add, LZ77 compression, FIR, matmul, histogram, triad) executed over
//! [`instrument::Tracked`] buffers, so a run produces both a verifiable functional result
//! and the variable-annotated memory-reference stream that the layout algorithm
//! (`ccache-layout`) and the cache simulator (`ccache-sim`) consume.
//!
//! * [`mpeg`] — the paper's Figure 4 benchmark: `dequant`, `plus` and `idct`, plus the
//!   combined application and its per-procedure phases.
//! * [`gzipsim`] — the gzip-like compression job of Figure 5 (hash-chain LZ77).
//! * [`multitask`] — the lazy round-robin scheduler that interleaves several jobs'
//!   streams.
//! * [`kernels`] — additional embedded kernels (FIR, matmul, histogram, triad) for
//!   ablations and examples.
//! * [`mod@corpus`] — the named registry over all of the above, used by search tooling to
//!   select workloads by string (`ccache tune --workload mpeg-combined`).
//!
//! # Example
//!
//! ```
//! use ccache_workloads::mpeg::{run_dequant, MpegConfig};
//!
//! let run = run_dequant(&MpegConfig::small());
//! assert!(run.references() > 0);
//! assert!(run.symbols.by_name("dq_quant_tbl").is_some());
//! ```

#![forbid(unsafe_code)]
#![deny(missing_docs)]

pub mod corpus;
pub mod gzipsim;
pub mod instrument;
pub mod kernels;
pub mod mpeg;
pub mod multitask;

pub use corpus::{corpus, CORPUS_NAMES};
pub use gzipsim::{run_gzip, run_gzip_job, GzipConfig};
pub use instrument::{Tracked, WorkloadRun};
pub use mpeg::{run_combined, run_dequant, run_idct, run_plus, MpegConfig};
pub use multitask::{figure5_quanta, round_robin, Job, RoundRobin};

/// Convenient glob-import of the types most programs need.
pub mod prelude {
    pub use crate::corpus::{corpus, CORPUS_NAMES};
    pub use crate::gzipsim::{run_gzip_job, GzipConfig};
    pub use crate::instrument::{Tracked, WorkloadRun};
    pub use crate::kernels::{run_fir, run_histogram, run_matmul, run_triad};
    pub use crate::mpeg::{run_combined, run_dequant, run_idct, run_plus, MpegConfig};
    pub use crate::multitask::{figure5_quanta, round_robin, Job, RoundRobin};
}
