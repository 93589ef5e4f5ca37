//! The Chrome trace exporter on a real sweep: record `run_grid_obs` on two
//! workers, drain, render with `dvs_obs::chrome::render` and parse the
//! document back. Every complete event must carry the Trace-Event keys,
//! each thread's spans must nest laminarly (checked exactly from the raw
//! integer `start_ns`/`dur_ns` args), and the metadata and instant events
//! must match the drained trace one for one.
//!
//! A binary of its own: it installs the process-global subscriber, which
//! would otherwise race other tests' installs.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

use dvs_obs::Recorder;
use dvs_sweep::json::{self, Json};
use dvs_sweep::{run_grid_obs, ConfigVariant, Grid};
use dvs_synth::mcnc::find;

fn str_of<'a>(event: &'a Json, key: &str) -> &'a str {
    event
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("`{key}` is not a string in {event:?}"))
}

fn u64_of(event: &Json, key: &str) -> u64 {
    event
        .get(key)
        .and_then(Json::as_u64)
        .unwrap_or_else(|| panic!("`{key}` is not an unsigned integer in {event:?}"))
}

#[test]
fn chrome_export_of_a_two_worker_sweep_is_well_formed() {
    let grid = Grid {
        profiles: vec![find("x2").unwrap()],
        scales: vec![1, 2],
        variants: vec![ConfigVariant::paper()],
        seeds: vec![0],
    };
    let rec = Arc::new(Recorder::new());
    dvs_obs::set_subscriber(Some(rec.clone()));
    let results = run_grid_obs(&grid, 2, Some(&rec), |_| {});
    dvs_obs::set_subscriber(None);
    assert_eq!(results.len(), 2);
    let trace = rec.drain();

    let doc = json::parse(&dvs_obs::chrome::render(&trace)).expect("trace must parse");
    let events = doc
        .get("traceEvents")
        .and_then(Json::as_array)
        .expect("traceEvents array");
    let by_phase = |ph: &str| -> Vec<&Json> {
        events
            .iter()
            .filter(|e| e.get("ph").and_then(Json::as_str) == Some(ph))
            .collect()
    };
    let spans = by_phase("X");
    assert_eq!(spans.len(), trace.spans.len());

    let mut intervals: BTreeMap<u64, Vec<(u64, u64)>> = BTreeMap::new();
    let mut names = BTreeSet::new();
    for span in &spans {
        for key in ["name", "ph", "ts", "dur", "pid", "tid", "args"] {
            assert!(span.get(key).is_some(), "`{key}` missing from {span:?}");
        }
        let args = span.get("args").unwrap();
        let start = u64_of(args, "start_ns");
        intervals
            .entry(u64_of(span, "tid"))
            .or_default()
            .push((start, start + u64_of(args, "dur_ns")));
        names.insert(str_of(span, "name"));
    }

    // Laminar per thread: any two spans either nest or are disjoint.
    for (tid, iv) in &mut intervals {
        iv.sort_unstable();
        let mut open: Vec<u64> = Vec::new();
        for &(a, b) in iv.iter() {
            while open.last().is_some_and(|&end| end <= a) {
                open.pop();
            }
            assert!(
                open.last().is_none_or(|&end| b <= end),
                "tid {tid}: span [{a}, {b}) straddles an enclosing span ending at {open:?}"
            );
            open.push(b);
        }
    }

    for expect in ["scenario", "circuit", "cvs", "dscale", "gscale"] {
        assert!(names.contains(expect), "no `{expect}` span in {names:?}");
    }

    let recorded_tids: BTreeSet<u64> = trace
        .spans
        .iter()
        .map(|s| s.tid)
        .chain(trace.instants.iter().map(|i| i.tid))
        .chain(trace.thread_labels.keys().copied())
        .map(u64::from)
        .collect();
    let thread_metas: Vec<u64> = by_phase("M")
        .into_iter()
        .filter(|m| str_of(m, "name") == "thread_name")
        .map(|m| u64_of(m, "tid"))
        .collect();
    assert_eq!(
        thread_metas.iter().copied().collect::<BTreeSet<_>>(),
        recorded_tids
    );
    assert_eq!(
        thread_metas.len(),
        recorded_tids.len(),
        "one thread_name per tid"
    );

    assert_eq!(by_phase("i").len(), trace.instants.len());
}
