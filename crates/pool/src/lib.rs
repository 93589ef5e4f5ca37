//! A dependency-free `std::thread` worker pool with deterministic,
//! interleaving-independent result ordering, shared by the sweep engine
//! (across scenarios) and the intra-circuit parallel paths (Dscale
//! candidate scoring, wavefront power simulation).
//!
//! Workers claim item indices from a shared atomic counter (dynamic
//! load-balancing — a worker stuck on `des` does not hold up 38 small
//! circuits) and stash `(index, result)` pairs; the results are re-merged
//! in item order, so the output is byte-for-byte independent of how the
//! scheduler interleaved the workers or how many there were.
//!
//! # Thread-budget policy (oversubscription guard)
//!
//! Two pool layers can nest: the sweep pool runs scenarios on `--jobs`
//! workers, and each scenario may itself fan out over
//! [`circuit_jobs`] threads. The budget invariant is
//! `sweep workers × intra-circuit threads ≤ available_parallelism`:
//! entry points resolve the intra-circuit width through
//! [`budget_circuit_jobs`], which divides the machine's cores by the
//! outer worker count and clamps the request to that share (never below
//! 1). The intra-circuit width defaults to **1** — parallelism inside a
//! circuit is opt-in via `--circuit-jobs` or `DVS_CIRCUIT_JOBS` — so a
//! saturated sweep never silently oversubscribes the box.
//!
//! # Observability
//!
//! Every [`run_indexed`] call records, *from the calling thread*, the
//! deterministic batch shape: one `pool.batch_items` histogram sample of
//! the batch length (for the wavefront simulator this is the level-width
//! distribution). The histogram's `count` is the number of batches and
//! its `sum` the number of tasks. Both are pure functions of the input
//! slices, so per-scenario obs rollups stay byte-identical across worker
//! counts. The *nondeterministic* execution shape — how many tasks each
//! worker actually claimed, i.e. the steal/idle balance — is emitted from
//! the worker threads themselves (`pool.tasks_per_worker`), which keeps
//! it out of the thread-windowed per-scenario rollups and visible only in
//! whole-process drains and stderr summaries.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// Worker count: `DVS_JOBS` when set to a positive integer, otherwise
/// [`std::thread::available_parallelism`], otherwise 1.
pub fn default_jobs() -> usize {
    std::env::var("DVS_JOBS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or_else(|| {
            std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1)
        })
}

/// Process-wide intra-circuit thread width; 0 means "unset".
static CIRCUIT_JOBS: AtomicUsize = AtomicUsize::new(0);

/// Sets the process-wide intra-circuit thread width (clamped to ≥ 1).
///
/// Entry points call this once after [`budget_circuit_jobs`] so that
/// library code deep in the flow (power simulation, candidate scoring)
/// can pick the width up without threading a parameter through every
/// signature.
pub fn set_circuit_jobs(jobs: usize) {
    CIRCUIT_JOBS.store(jobs.max(1), Ordering::Relaxed);
}

/// Intra-circuit thread width: the value installed by
/// [`set_circuit_jobs`], else `DVS_CIRCUIT_JOBS` when set to a positive
/// integer, else **1** (sequential — see the module-level policy note).
pub fn circuit_jobs() -> usize {
    let set = CIRCUIT_JOBS.load(Ordering::Relaxed);
    if set > 0 {
        return set;
    }
    std::env::var("DVS_CIRCUIT_JOBS")
        .ok()
        .and_then(|s| s.trim().parse::<usize>().ok())
        .filter(|&n| n > 0)
        .unwrap_or(1)
}

/// Clamps a requested intra-circuit width so that `outer_jobs` concurrent
/// scenarios, each `requested` threads wide, never exceed the machine:
/// the result is `min(requested, cores / outer_jobs)`, never below 1.
pub fn budget_circuit_jobs(outer_jobs: usize, requested: usize) -> usize {
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    budget_with_cores(outer_jobs, requested, cores)
}

/// Core-count-explicit form of [`budget_circuit_jobs`], for tests.
pub fn budget_with_cores(outer_jobs: usize, requested: usize, cores: usize) -> usize {
    let share = (cores.max(1) / outer_jobs.max(1)).max(1);
    requested.max(1).min(share)
}

/// Sequential-fallback threshold: returns `jobs`, or **1** when the batch
/// has fewer than `min_items` items.
///
/// [`run_indexed`] spawns scoped threads per call (no persistent pool),
/// which costs tens of microseconds; for small batches that overhead
/// swamps any speedup, so hot loops drop to sequential below a
/// per-callsite floor. Callers must still route the batch through
/// [`run_indexed`] (with the *adjusted* width) rather than skipping the
/// call: the deterministic batch-shape metrics are a pure function of the
/// items slice, and skipping the call would make obs rollups depend on
/// the thread budget.
pub fn effective_jobs(jobs: usize, len: usize, min_items: usize) -> usize {
    if len < min_items {
        1
    } else {
        jobs
    }
}

/// Applies `f` to every item on up to `jobs` worker threads and returns
/// the results **in item order**, regardless of completion order.
///
/// `f(i, &items[i])` may run on any worker; per-item state must therefore
/// be thread-confined (which is also what makes per-scenario
/// `CpuTimer` readings honest: each item starts and stops its clocks on
/// the one thread that runs it).
///
/// The deterministic batch-shape sample (`pool.batch_items`) is recorded
/// from the calling thread on every call,
/// including the `jobs == 1` sequential short-circuit, so callers that
/// always route work through this function get obs streams that are
/// independent of the worker count.
///
/// # Panics
///
/// Propagates the first worker panic after the pool drains.
pub fn run_indexed<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    dvs_obs::hist_record("pool.batch_items", items.len() as u64);
    let jobs = jobs.max(1).min(items.len().max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let next = AtomicUsize::new(0);
    let done: Mutex<Vec<(usize, T)>> = Mutex::new(Vec::with_capacity(items.len()));
    std::thread::scope(|scope| {
        for w in 0..jobs {
            let (next, done, f) = (&next, &done, &f);
            scope.spawn(move || {
                // name the worker's track in any installed trace subscriber
                dvs_obs::set_thread_label(|| format!("worker-{w}"));
                let mut claimed = 0u64;
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= items.len() {
                        break;
                    }
                    let out = f(i, &items[i]);
                    done.lock().unwrap().push((i, out));
                    claimed += 1;
                }
                // steal/idle balance: worker-thread-scoped on purpose so
                // the nondeterministic split stays out of per-scenario
                // rollups (they window on the calling thread's stream)
                dvs_obs::hist_record("pool.tasks_per_worker", claimed);
            });
        }
    });
    let mut pairs = done.into_inner().unwrap();
    pairs.sort_by_key(|&(i, _)| i);
    debug_assert!(pairs.iter().enumerate().all(|(k, &(i, _))| k == i));
    pairs.into_iter().map(|(_, t)| t).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;

    #[test]
    fn preserves_item_order_under_contention() {
        let items: Vec<usize> = (0..200).collect();
        let seq = run_indexed(&items, 1, |i, &x| (i, x * x));
        for jobs in [2, 3, 8] {
            let par = run_indexed(&items, jobs, |i, &x| {
                // jitter completion order
                if x % 7 == 0 {
                    std::thread::yield_now();
                }
                (i, x * x)
            });
            assert_eq!(par, seq, "jobs = {jobs}");
        }
    }

    #[test]
    fn every_item_runs_exactly_once() {
        let hits = AtomicUsize::new(0);
        let items: Vec<u32> = (0..57).collect();
        let out = run_indexed(&items, 4, |_, &x| {
            hits.fetch_add(1, Ordering::Relaxed);
            x
        });
        assert_eq!(hits.load(Ordering::Relaxed), 57);
        assert_eq!(out, items);
    }

    #[test]
    fn empty_input_and_oversized_pool() {
        let empty: Vec<u8> = Vec::new();
        assert!(run_indexed(&empty, 8, |_, &x| x).is_empty());
        let one = [41u8];
        assert_eq!(run_indexed(&one, 64, |_, &x| x + 1), vec![42]);
    }

    #[test]
    fn jobs_env_var_wins() {
        // temporal coupling with other tests is avoided by using the
        // process env only inside this test
        std::env::set_var("DVS_JOBS", "3");
        assert_eq!(default_jobs(), 3);
        std::env::set_var("DVS_JOBS", "junk");
        assert!(default_jobs() >= 1);
        std::env::remove_var("DVS_JOBS");
        assert!(default_jobs() >= 1);
    }

    #[test]
    fn budget_never_oversubscribes_and_never_starves() {
        // outer × inner ≤ cores, for every combination on an 8-core box
        for outer in 1..=10 {
            for req in 1..=10 {
                let inner = budget_with_cores(outer, req, 8);
                assert!(inner >= 1);
                assert!(
                    outer >= 8 || outer * inner <= 8,
                    "outer {outer} × inner {inner} oversubscribes"
                );
                assert!(inner <= req.max(1), "guard must only shrink");
            }
        }
        // a fully-subscribed outer pool degrades gracefully to width 1
        assert_eq!(budget_with_cores(8, 4, 8), 1);
        assert_eq!(budget_with_cores(16, 4, 8), 1);
        // an idle outer pool hands the whole machine to one circuit
        assert_eq!(budget_with_cores(1, 8, 8), 8);
        assert_eq!(budget_with_cores(1, 99, 8), 8);
        // degenerate inputs clamp instead of panicking
        assert_eq!(budget_with_cores(0, 0, 0), 1);
    }

    #[test]
    fn effective_jobs_floors_small_batches() {
        assert_eq!(effective_jobs(4, 10, 128), 1);
        assert_eq!(effective_jobs(4, 127, 128), 1);
        assert_eq!(effective_jobs(4, 128, 128), 4);
        assert_eq!(effective_jobs(1, 1_000_000, 128), 1);
        assert_eq!(effective_jobs(4, 0, 0), 4);
    }

    #[test]
    fn circuit_jobs_env_and_override() {
        // env fallback first (the global starts unset in this process),
        // then the explicit override wins over the env
        std::env::set_var("DVS_CIRCUIT_JOBS", "junk");
        assert_eq!(circuit_jobs(), 1);
        std::env::set_var("DVS_CIRCUIT_JOBS", "5");
        assert_eq!(circuit_jobs(), 5);
        set_circuit_jobs(2);
        assert_eq!(circuit_jobs(), 2);
        set_circuit_jobs(0); // clamps to 1, never "unsets"
        assert_eq!(circuit_jobs(), 1);
        std::env::remove_var("DVS_CIRCUIT_JOBS");
    }
}
