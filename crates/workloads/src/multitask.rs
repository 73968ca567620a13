//! Round-robin multitasking: interleaving several jobs' reference streams.
//!
//! The Figure 5 experiment runs three gzip jobs on one processor under a round-robin
//! scheduler and varies the context-switch time quantum. [`round_robin`] walks the jobs'
//! traces quantum by quantum, lazily: each step lends one job's next slice of its own
//! trace, tagged with the job's index, so the experiment runner can attribute cycles
//! (and therefore CPI) to individual jobs without materializing the interleaved stream.

use ccache_trace::{MemAccess, Trace};

/// One job in a multiprogrammed mix.
#[derive(Debug, Clone)]
pub struct Job {
    /// Job name (e.g. `"gzip-A"`).
    pub name: String,
    /// The job's reference stream (addresses must not overlap other jobs').
    pub trace: Trace,
}

impl Job {
    /// Creates a job.
    pub fn new(name: impl Into<String>, trace: Trace) -> Self {
        Job {
            name: name.into(),
            trace,
        }
    }
}

/// The lazy round-robin interleaving of several jobs' traces: an iterator over
/// `(job index, quantum slice)` pairs in execution order. Created by [`round_robin`].
#[derive(Debug, Clone)]
pub struct RoundRobin<'a> {
    jobs: &'a [Job],
    quantum: usize,
    /// Events of each job already handed out.
    cursors: Vec<usize>,
    /// The job whose turn is next.
    turn: usize,
    last_job: Option<usize>,
    context_switches: u64,
}

impl RoundRobin<'_> {
    /// Context switches so far (transitions between different jobs).
    pub fn context_switches(&self) -> u64 {
        self.context_switches
    }
}

impl<'a> Iterator for RoundRobin<'a> {
    type Item = (usize, &'a [MemAccess]);

    fn next(&mut self) -> Option<Self::Item> {
        for _ in 0..self.jobs.len() {
            let job = self.turn;
            self.turn = (job + 1) % self.jobs.len();
            let events = &self.jobs[job].trace.as_slice()[self.cursors[job]..];
            if events.is_empty() {
                continue;
            }
            let slice = &events[..self.quantum.min(events.len())];
            self.cursors[job] += slice.len();
            if self.last_job.is_some_and(|last| last != job) {
                self.context_switches += 1;
            }
            self.last_job = Some(job);
            return Some((job, slice));
        }
        None
    }
}

/// Interleaves the jobs' traces round-robin with a quantum of `quantum` references.
///
/// The scheduler hands the processor to each runnable job in turn; a job that exhausts its
/// trace drops out of the rotation. This mirrors the paper's setup where "each point in
/// this plot was generated by choosing a time quantum, and performing a round-robin
/// schedule of the three jobs".
///
/// # Panics
///
/// Panics if `quantum` is zero.
pub fn round_robin(jobs: &[Job], quantum: usize) -> RoundRobin<'_> {
    assert!(quantum > 0, "quantum must be positive");
    RoundRobin {
        jobs,
        quantum,
        cursors: vec![0; jobs.len()],
        turn: 0,
        last_job: None,
        context_switches: 0,
    }
}

/// The quantum values swept by the Figure 5 experiment: powers of four from 1 to 1 M
/// references.
pub fn figure5_quanta() -> Vec<usize> {
    (0..=10).map(|p| 4usize.pow(p)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use ccache_trace::synth::sequential_scan;

    fn job(name: &str, base: u64, events: u64) -> Job {
        Job::new(name, sequential_scan(base, events * 8, 8, 4, 1, None))
    }

    /// The job index issuing each event, in execution order.
    fn owners(jobs: &[Job], quantum: usize) -> Vec<usize> {
        round_robin(jobs, quantum)
            .flat_map(|(j, slice)| std::iter::repeat_n(j, slice.len()))
            .collect()
    }

    #[test]
    fn every_event_appears_exactly_once_in_job_order() {
        let jobs = vec![
            job("a", 0x1000, 10),
            job("b", 0x2000, 25),
            job("c", 0x3000, 5),
        ];
        let mut per_job = vec![Vec::new(); jobs.len()];
        for (j, slice) in round_robin(&jobs, 4) {
            assert!(!slice.is_empty() && slice.len() <= 4);
            per_job[j].extend_from_slice(slice);
        }
        for (j, events) in per_job.iter().enumerate() {
            assert_eq!(events.as_slice(), jobs[j].trace.as_slice());
        }
        assert_eq!(owners(&jobs, 4).len(), 40);
    }

    #[test]
    fn quantum_one_alternates_jobs() {
        let jobs = vec![job("a", 0x1000, 3), job("b", 0x2000, 3)];
        assert_eq!(owners(&jobs, 1), vec![0, 1, 0, 1, 0, 1]);
        let mut slices = round_robin(&jobs, 1);
        slices.by_ref().for_each(drop);
        assert_eq!(slices.context_switches(), 5);
    }

    #[test]
    fn huge_quantum_is_batch_processing() {
        let jobs = vec![job("a", 0x1000, 5), job("b", 0x2000, 5)];
        assert_eq!(
            owners(&jobs, usize::MAX),
            vec![0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        );
        let mut slices = round_robin(&jobs, 1_000_000);
        assert_eq!(slices.by_ref().count(), 2);
        assert_eq!(slices.context_switches(), 1);
    }

    #[test]
    fn finished_jobs_drop_out_of_rotation() {
        let jobs = vec![job("a", 0x1000, 2), job("b", 0x2000, 8)];
        // after a finishes, b runs its remaining quanta back to back, with no switches
        assert_eq!(owners(&jobs, 2), vec![0, 0, 1, 1, 1, 1, 1, 1, 1, 1]);
        let mut slices = round_robin(&jobs, 2);
        slices.by_ref().for_each(drop);
        assert_eq!(slices.context_switches(), 1);
        assert_eq!(round_robin(&[], 2).next(), None);
    }

    #[test]
    #[should_panic(expected = "quantum must be positive")]
    fn zero_quantum_rejected() {
        let jobs = vec![job("a", 0, 2)];
        round_robin(&jobs, 0);
    }

    #[test]
    fn figure5_quanta_cover_the_paper_range() {
        let q = figure5_quanta();
        assert_eq!(q.first(), Some(&1));
        assert_eq!(q.last(), Some(&1_048_576));
        assert_eq!(q.len(), 11);
        assert!(q.windows(2).all(|w| w[1] == w[0] * 4));
    }
}
