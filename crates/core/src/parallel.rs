//! Deterministic thread-parallel mapping for experiment jobs and fitness batches.
//!
//! Experiment jobs (partition points, scheduling quanta, replays) and candidate
//! evaluations are embarrassingly parallel: each builds and drives its own simulated
//! memory system. [`par_map`] fans a slice out over scoped `std::thread` workers and
//! returns results **in input order**, so an artefact is byte-identical to the one
//! [`seq_map`] would produce.
//!
//! With a single-item input or a single-CPU machine the map degrades to a plain serial
//! loop.

/// Upper bound on worker threads, to keep small machines responsive.
const MAX_THREADS: usize = 16;

/// Applies `f` to every item, possibly in parallel, preserving input order.
pub fn par_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let threads = std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1);
    par_map_threads(items, f, threads)
}

/// [`par_map`] with an explicit worker count (clamped to the item count and the
/// 16-thread cap). Exposed so tests can exercise the threaded path even on single-CPU
/// machines.
pub fn par_map_threads<T, R, F>(items: &[T], f: F, threads: usize) -> Vec<R>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Mutex;

    let n = items.len();
    let threads = threads.min(n).min(MAX_THREADS);
    if threads <= 1 {
        return items.iter().map(f).collect();
    }

    let next = AtomicUsize::new(0);
    let collected: Mutex<Vec<(usize, R)>> = Mutex::new(Vec::with_capacity(n));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let r = f(&items[i]);
                collected.lock().expect("no poisoned worker").push((i, r));
            });
        }
    });
    let mut tagged = collected.into_inner().expect("workers joined");
    tagged.sort_by_key(|&(i, _)| i);
    tagged.into_iter().map(|(_, r)| r).collect()
}

/// Always-serial mapping: the `TuneRequest::serial` path that proves schedule
/// independence, and the reference the parallel map is tested against.
pub fn seq_map<T, R, F>(items: &[T], f: F) -> Vec<R>
where
    F: Fn(&T) -> R,
{
    items.iter().map(f).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_preserve_input_order() {
        let items: Vec<u64> = (0..100).collect();
        let squares = par_map(&items, |&x| x * x);
        assert_eq!(squares, items.iter().map(|&x| x * x).collect::<Vec<_>>());
    }

    #[test]
    fn forced_threads_agree_with_serial() {
        // Forces real worker threads even on single-CPU machines.
        let items: Vec<u64> = (0..37).collect();
        let f = |&x: &u64| (0..x).fold(x, |acc, i| acc.wrapping_mul(31).wrapping_add(i));
        for threads in [2, 4, 16, 64] {
            assert_eq!(par_map_threads(&items, f, threads), seq_map(&items, f));
        }
    }

    #[test]
    fn empty_and_single_inputs() {
        let empty: Vec<u64> = Vec::new();
        assert!(par_map(&empty, |&x| x).is_empty());
        assert_eq!(par_map(&[7u64], |&x| x + 1), vec![8]);
        assert_eq!(par_map_threads(&[7u64, 8], |&x| x + 1, 8), vec![8, 9]);
    }
}
