//! A dependency-free `std::thread` worker pool with deterministic,
//! interleaving-independent result ordering, shared by the sweep engine
//! (across scenarios) and the intra-circuit parallel paths (Dscale
//! candidate scoring, wavefront power simulation).
//!
//! Workers claim contiguous chunks of item indices from a shared atomic
//! counter (dynamic load-balancing — a worker stuck on `des` does not hold
//! up 38 small circuits). The chunk size is a pure function of the batch,
//! `max(1, len / (jobs × 64))`: batches shorter than `jobs × 128` items
//! (sweep grids of heavy scenarios) are claimed one item at a time, while
//! long batches of nanosecond-cheap items (Dscale's per-gate slack scan)
//! pay one counter round-trip per few hundred items instead of one per
//! item. Each worker appends its results to one buffer of its own and
//! notes where each claimed chunk starts; the caller merges the chunks in
//! start order, so the output is in item order and byte-for-byte
//! independent of how the scheduler interleaved the workers or how many
//! there were. Nothing is shared between workers but the counter.
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
/// [`run_indexed`] (with the *adjusted* width), or record its shape with
/// [`record_batch`] when they run it inline: the deterministic
/// batch-shape metrics are a pure function of the items slice, and
/// skipping the sample would make obs rollups depend on the thread
/// budget.
pub fn effective_jobs(jobs: usize, len: usize, min_items: usize) -> usize {
    if len < min_items {
        1
    } else {
        jobs
    }
}

/// Records the deterministic batch-shape sample (`pool.batch_items`) of a
/// `len`-item batch that the caller runs sequentially itself instead of
/// through [`run_indexed`] — e.g. a loop that must mutate shared state
/// between items — so its obs stream matches a routed batch.
pub fn record_batch(len: usize) {
    dvs_obs::hist_record("pool.batch_items", len as u64);
}

/// Applies `f` to every item on up to `jobs` worker threads and returns
/// the results **in item order**, regardless of completion order.
///
/// `f(i, &items[i])` may run on any worker; per-item state must therefore
/// be thread-confined (which is also what makes per-scenario
/// `CpuTimer` readings honest: each item starts and stops its clocks on
/// the one thread that runs it).
///
/// Workers claim chunks of `max(1, len / (jobs × 64))` consecutive items
/// (see the module docs), run them into one per-worker result buffer and
/// hand buffer and chunk starts back through their join handles; the
/// chunks are then stitched together in start order. No lock is taken and
/// no per-item index is stored.
///
/// The deterministic batch-shape sample (`pool.batch_items`) is recorded
/// from the calling thread on every call,
/// including the `jobs == 1` sequential short-circuit, so callers that
/// always route work through this function get obs streams that are
/// independent of the worker count.
///
/// # Panics
///
/// Re-raises an item's panic with its own payload at every width: the
/// sequential path unwinds straight through, and the parallel path lets
/// the other workers drain the batch, then resumes the first panicking
/// worker's payload (in worker order).
pub fn run_indexed<I, T, F>(items: &[I], jobs: usize, f: F) -> Vec<T>
where
    I: Sync,
    T: Send,
    F: Fn(usize, &I) -> T + Sync,
{
    let len = items.len();
    record_batch(len);
    let jobs = jobs.max(1).min(len.max(1));
    if jobs == 1 {
        return items.iter().enumerate().map(|(i, it)| f(i, it)).collect();
    }
    let chunk = (len / (jobs * 64)).max(1);
    let next = AtomicUsize::new(0);
    let joined: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..jobs)
            .map(|w| {
                let (next, f) = (&next, &f);
                scope.spawn(move || {
                    // name the worker's track in any installed trace subscriber
                    dvs_obs::set_thread_label(|| format!("worker-{w}"));
                    let mut out = Vec::with_capacity(len / jobs + chunk);
                    let mut starts = Vec::new();
                    loop {
                        let start = next.fetch_add(chunk, Ordering::Relaxed);
                        if start >= len {
                            break;
                        }
                        starts.push(start);
                        let end = (start + chunk).min(len);
                        out.extend((start..end).map(|i| f(i, &items[i])));
                    }
                    // steal/idle balance: worker-thread-scoped on purpose so
                    // the nondeterministic split stays out of per-scenario
                    // rollups (they window on the calling thread's stream)
                    dvs_obs::hist_record("pool.tasks_per_worker", out.len() as u64);
                    (out, starts)
                })
            })
            .collect();
        // joining every handle by hand keeps `scope` from replacing a
        // worker's panic payload with its own generic message
        handles.into_iter().map(|h| h.join()).collect()
    });
    let mut parts = Vec::with_capacity(jobs);
    for part in joined {
        match part {
            Ok((out, starts)) => parts.push((out.into_iter(), starts.into_iter().peekable())),
            Err(payload) => std::panic::resume_unwind(payload),
        }
    }
    // Every chunk starts at a multiple of `chunk`, and each worker's
    // starts ascend, so the chunk at each multiple is the next unmerged
    // chunk of exactly one worker.
    let mut merged = Vec::with_capacity(len);
    for start in (0..len).step_by(chunk) {
        let out = parts
            .iter_mut()
            .find_map(|(out, starts)| starts.next_if_eq(&start).map(|_| out))
            .expect("every chunk was claimed by exactly one worker");
        merged.extend(out.by_ref().take(chunk.min(len - start)));
    }
    merged
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
        // lengths straddle the one-at-a-time limit (`jobs × 128`) and the
        // ragged last chunk
        for len in [1, 57, 127, 128, 129, 255, 256, 257, 10_007] {
            let items: Vec<u64> = (0..len as u64).collect();
            let seq: Vec<u64> = items.iter().map(|&x| x * 3 + 1).collect();
            for jobs in [2, 3, 4, 8] {
                let hits: Vec<AtomicUsize> = (0..len).map(|_| AtomicUsize::new(0)).collect();
                let par = run_indexed(&items, jobs, |i, &x| {
                    hits[i].fetch_add(1, Ordering::Relaxed);
                    x * 3 + 1
                });
                assert_eq!(par, seq, "len {len}, jobs {jobs}");
                assert!(
                    hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                    "len {len}, jobs {jobs}: an item ran other than once"
                );
            }
        }
    }

    #[test]
    fn item_panic_keeps_its_payload_at_every_width() {
        let items: Vec<usize> = (0..1_000).collect();
        for jobs in [1, 2, 4] {
            let caught = std::panic::catch_unwind(|| {
                run_indexed(&items, jobs, |_, &x| {
                    if x == 777 {
                        panic!("item 777");
                    }
                    x
                })
            });
            let payload = caught.expect_err("item 777 panics");
            let msg = payload
                .downcast_ref::<&str>()
                .copied()
                .or_else(|| payload.downcast_ref::<String>().map(String::as_str));
            assert_eq!(msg, Some("item 777"), "jobs = {jobs}");
        }
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
