//! The batch shape `run_indexed` records is a pure function of the
//! batches: one `pool.batch_items` sample per call, so the histogram's
//! `count` is the number of batches and its `sum` the number of tasks,
//! and the calling thread's rollup is the same at every pool width.

use std::sync::Arc;

use dvs_obs::{Recorder, Rollup};

const LENGTHS: [usize; 6] = [0, 1, 5, 64, 3, 200];

/// Runs one `run_indexed` call per entry of [`LENGTHS`] at `jobs` workers
/// and returns the calling thread's rollup over exactly those calls.
fn batches_at(rec: &Recorder, jobs: usize) -> Rollup {
    let mark = rec.mark();
    for &len in &LENGTHS {
        let items: Vec<usize> = (0..len).collect();
        let out = dvs_pool::run_indexed(&items, jobs, |i, &x| i + x);
        assert_eq!(out.len(), len);
    }
    rec.rollup_since(&mark)
}

/// The only test in this binary, so nothing else races the global
/// subscriber slot.
#[test]
fn batch_items_histogram_counts_batches_and_tasks_at_every_width() {
    let rec = Arc::new(Recorder::new());
    dvs_obs::set_subscriber(Some(rec.clone()));
    let sequential = batches_at(&rec, 1);
    let parallel = batches_at(&rec, 4);
    dvs_obs::set_subscriber(None);

    assert_eq!(sequential, parallel);
    assert!(sequential.spans.is_empty() && sequential.attrs.is_empty());
    let [hist] = &sequential.hists[..] else {
        panic!("expected one histogram, got {:?}", sequential.hists);
    };
    assert_eq!(hist.name, "pool.batch_items");
    assert_eq!(hist.count, LENGTHS.len() as u64);
    assert_eq!(hist.sum, LENGTHS.iter().sum::<usize>() as u64);

    // the workers' claim split stays on their own threads
    let trace = rec.drain();
    assert!(trace.hists.contains_key("pool.tasks_per_worker"));
}
