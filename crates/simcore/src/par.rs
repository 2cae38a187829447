//! A seeded, order-preserving work-stealing job pool.
//!
//! Experiment grids are embarrassingly parallel: every cell is an
//! independent simulation. [`sweep`] fans a job list out over scoped worker
//! threads (`std::thread::scope`), each with its own deque;
//! idle workers steal from the back of busy workers' deques, so one slow
//! cell (e.g. a push-all run) never serializes the tail of the grid.
//!
//! Determinism is structural, not scheduled: results are returned in
//! submission order, and [`sweep_seeded`] derives each job's RNG seed from
//! its submission *index* (via [`derive_seed`]), never from the worker that
//! happens to run it. A grid therefore produces bit-identical results for
//! any worker count, including the serial `workers = 1` path.

use crate::rng::SplitMix64;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Worker count matching the host: `std::thread::available_parallelism`,
/// or 1 if that cannot be determined.
pub fn available_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// An independent RNG seed for job `index` under `base`: deterministic,
/// well-mixed (SplitMix64), and independent of scheduling.
pub fn derive_seed(base: u64, index: u64) -> u64 {
    let mut h = SplitMix64::new(base).split(index.wrapping_add(1));
    h.next_u64()
}

/// Runs `f(index, item)` for every item on up to `workers` work-stealing
/// threads, returning results in submission order.
///
/// `f` may borrow from the enclosing scope. With `workers <= 1` (or fewer
/// than two items) the jobs run inline on the caller's thread, in order —
/// the reference execution every parallel schedule must match.
///
/// # Panics
///
/// Panics, once every worker has been joined, if `f` panicked.
pub fn sweep<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(usize, T) -> R + Sync,
{
    let n = items.len();
    if workers <= 1 || n <= 1 {
        return items
            .into_iter()
            .enumerate()
            .map(|(i, t)| f(i, t))
            .collect();
    }
    let workers = workers.min(n);

    // Round-robin initial distribution over per-worker deques.
    let deques: Vec<Mutex<VecDeque<(usize, T)>>> =
        (0..workers).map(|_| Mutex::new(VecDeque::new())).collect();
    for (i, item) in items.into_iter().enumerate() {
        deques[i % workers]
            .lock()
            .expect("deque poisoned")
            .push_back((i, item));
    }

    let mut slots: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let slot_refs: Vec<Mutex<&mut Option<R>>> = slots.iter_mut().map(Mutex::new).collect();

    let run = |w: usize| loop {
        // Own deque first (front), then steal from the back of the others.
        let mut job = deques[w].lock().expect("deque poisoned").pop_front();
        if job.is_none() {
            for v in 1..workers {
                let victim = (w + v) % workers;
                job = deques[victim].lock().expect("deque poisoned").pop_back();
                if job.is_some() {
                    break;
                }
            }
        }
        let Some((idx, item)) = job else { break };
        let result = f(idx, item);
        **slot_refs[idx].lock().expect("slot poisoned") = Some(result);
    };

    // A panicking worker makes the scope panic once every worker is joined.
    std::thread::scope(|scope| {
        for w in 0..workers {
            scope.spawn(move || run(w));
        }
    });
    drop(slot_refs);
    slots
        .into_iter()
        .enumerate()
        .map(|(i, s)| s.unwrap_or_else(|| panic!("job {i} produced no result")))
        .collect()
}

/// [`sweep`] with a per-job derived seed: `f(seed, index, item)` where
/// `seed = derive_seed(base_seed, index)`. Use this for jobs that need
/// their own RNG stream — the seed depends only on the submission index,
/// so any schedule (and any `workers`) reproduces the serial results.
pub fn sweep_seeded<T, R, F>(workers: usize, base_seed: u64, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(u64, usize, T) -> R + Sync,
{
    sweep(workers, items, |i, item| {
        f(derive_seed(base_seed, i as u64), i, item)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn sweep_preserves_order_for_any_worker_count() {
        let items: Vec<u64> = (0..257).collect();
        let want: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
        for workers in [1, 2, 3, 8, 64] {
            let got = sweep(workers, items.clone(), |_, x| x * 3 + 1);
            assert_eq!(got, want, "workers={workers}");
        }
    }

    #[test]
    fn sweep_handles_empty_and_single() {
        assert_eq!(sweep(8, Vec::<u32>::new(), |_, x| x), Vec::<u32>::new());
        assert_eq!(sweep(8, vec![7u32], |i, x| (i, x)), vec![(0, 7)]);
    }

    #[test]
    fn sweep_passes_submission_indices() {
        let got = sweep(4, vec!['a', 'b', 'c', 'd', 'e'], |i, c| (i, c));
        assert_eq!(got, vec![(0, 'a'), (1, 'b'), (2, 'c'), (3, 'd'), (4, 'e')]);
    }

    #[test]
    fn uneven_jobs_are_stolen() {
        // One giant job on worker 0; the rest must not wait behind it.
        let done = AtomicUsize::new(0);
        let got = sweep(4, (0..16u64).collect(), |_, x| {
            if x == 0 {
                // Busy-wait until every other job has finished — only
                // possible if other workers steal them meanwhile.
                while done.load(Ordering::SeqCst) < 15 {
                    std::thread::yield_now();
                }
            } else {
                done.fetch_add(1, Ordering::SeqCst);
            }
            x * 2
        });
        assert_eq!(got, (0..16u64).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn seeded_sweep_is_schedule_independent() {
        let items: Vec<u64> = (0..40).collect();
        let serial = sweep_seeded(1, 42, items.clone(), |seed, i, x| (seed, i, x));
        for workers in [2, 8] {
            let par = sweep_seeded(workers, 42, items.clone(), |seed, i, x| (seed, i, x));
            assert_eq!(par, serial, "workers={workers}");
        }
        // Seeds are distinct across indices and differ across bases.
        let seeds: std::collections::HashSet<u64> = serial.iter().map(|(seed, ..)| *seed).collect();
        assert_eq!(seeds.len(), 40);
        assert_ne!(derive_seed(1, 0), derive_seed(2, 0));
    }

    #[test]
    fn derive_seed_is_deterministic() {
        assert_eq!(derive_seed(9, 3), derive_seed(9, 3));
        assert_ne!(derive_seed(9, 3), derive_seed(9, 4));
    }

    #[test]
    fn sweep_propagates_panics() {
        let result = std::panic::catch_unwind(|| {
            sweep(4, (0..8u32).collect(), |_, x| {
                assert!(x != 5, "boom");
                x
            })
        });
        assert!(result.is_err());
    }

    #[test]
    fn available_workers_positive() {
        assert!(available_workers() >= 1);
    }
}
