//! A small parallel sweep runner for multi-seed repetitions and parameter
//! sweeps (simulations are single-threaded; repetitions are embarrassingly
//! parallel).

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Run every job, using up to `threads` worker threads, and return results
/// in job order. Panics in jobs propagate.
///
/// Work distribution is a single atomic claim counter; each result is
/// written through its own slot, so workers never contend on a shared
/// results container (the previous design serialized every hand-off
/// through one `Mutex<Vec<Option<T>>>` — measurably slower with thousands
/// of sub-millisecond jobs).
pub fn run_parallel<T, F>(jobs: Vec<F>, threads: usize) -> Vec<T>
where
    T: Send,
    F: FnOnce() -> T + Send,
{
    let n = jobs.len();
    if n == 0 {
        return Vec::new();
    }
    let threads = threads.max(1).min(n);
    if threads == 1 {
        return jobs.into_iter().map(|j| j()).collect();
    }

    // Per-slot cells: `next` hands out job indices; workers take the job
    // out of its slot, run it, and park the result in the matching slot.
    // The per-slot mutexes are never contended (each index is claimed by
    // exactly one worker) — they exist to make the hand-off safe, not to
    // serialize anything, and never poisoned (no job runs under a lock).
    let jobs: Vec<Mutex<Option<F>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
    let slots: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
    let next = AtomicUsize::new(0);

    const UNPOISONED: &str = "slot lock is never held across a job";
    // The scope joins every worker and re-raises a worker's panic.
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let ix = next.fetch_add(1, Ordering::Relaxed);
                if ix >= n {
                    break;
                }
                let job = jobs[ix].lock().expect(UNPOISONED).take();
                let out = job.expect("job claimed twice")();
                *slots[ix].lock().expect(UNPOISONED) = Some(out);
            });
        }
    });

    slots
        .into_iter()
        .map(|slot| {
            let out = slot.into_inner().expect(UNPOISONED);
            out.expect("job missing result")
        })
        .collect()
}

/// Reasonable worker count: physical parallelism minus one, at least one.
pub fn default_threads() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get().saturating_sub(1).max(1))
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preserves_job_order() {
        let jobs: Vec<_> = (0..32).map(|i| move || i * i).collect();
        let out = run_parallel(jobs, 4);
        assert_eq!(out, (0..32).map(|i| i * i).collect::<Vec<_>>());
    }

    #[test]
    fn single_thread_path() {
        let jobs: Vec<_> = (0..5).map(|i| move || i + 1).collect();
        assert_eq!(run_parallel(jobs, 1), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn empty_jobs() {
        let jobs: Vec<Box<dyn FnOnce() -> u32 + Send>> = vec![];
        assert!(run_parallel(jobs, 8).is_empty());
    }

    #[test]
    fn more_threads_than_jobs() {
        let jobs: Vec<_> = (0..2).map(|i| move || i).collect();
        assert_eq!(run_parallel(jobs, 64), vec![0, 1]);
    }

    #[test]
    fn thousand_short_jobs_in_order() {
        let jobs: Vec<_> = (0..1000u64)
            .map(|i| move || i.wrapping_mul(2654435761))
            .collect();
        let out = run_parallel(jobs, 8);
        assert_eq!(out.len(), 1000);
        for (i, &v) in out.iter().enumerate() {
            assert_eq!(v, (i as u64).wrapping_mul(2654435761));
        }
    }

    #[test]
    #[should_panic]
    fn worker_panic_propagates() {
        let jobs: Vec<_> = (0..8u32)
            .map(|i| move || assert_ne!(i, 5, "job 5 fails"))
            .collect();
        run_parallel(jobs, 4);
    }

    #[test]
    fn default_threads_is_positive() {
        assert!(default_threads() >= 1);
    }
}
