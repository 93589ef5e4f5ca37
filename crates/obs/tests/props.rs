//! Property tests over the span machinery: arbitrary interleavings of
//! open/close/record operations always yield balanced, properly nested
//! span records with truthful parentage, and recording the same program
//! twice yields the same structure (the per-thread determinism the sweep
//! relies on across worker counts). A differential test checks the
//! recorder's windowed rollups and drained totals against a naive
//! reference computed from the raw event stream.

use std::collections::BTreeMap;
use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard};

use dvs_obs::{
    bucket_lo, bucket_of, AttrRollup, HistRollup, Recorder, Rollup, SpanGuard, SpanRecord,
};
use proptest::prelude::*;

/// Tests here install the process-global subscriber; serialize them.
static SERIAL: Mutex<()> = Mutex::new(());

fn serial() -> MutexGuard<'static, ()> {
    SERIAL.lock().unwrap_or_else(|e| e.into_inner())
}

const NAMES: [&str; 4] = ["scenario", "circuit", "phase", "iter"];

/// Replays `ops` against the real span API on a fresh thread (fresh tid,
/// so runs cannot see each other's spans) and returns that thread's
/// records. op % 3: 0 → open span, 1 → close innermost, 2 → metric+
/// instant noise. All spans still open at the end close in LIFO order.
fn run_program(ops: &[u8]) -> Vec<SpanRecord> {
    let ops = ops.to_vec();
    let rec = Arc::new(Recorder::new());
    dvs_obs::set_subscriber(Some(rec.clone()));
    let tid = std::thread::spawn(move || {
        let mut stack: Vec<SpanGuard> = Vec::new();
        for (i, op) in ops.iter().enumerate() {
            match op % 3 {
                0 => stack.push(dvs_obs::span_with(NAMES[i % NAMES.len()], || {
                    format!("op {i}")
                })),
                1 => {
                    stack.pop();
                }
                _ => {
                    dvs_obs::hist_record("noise.h", i as u64);
                    dvs_obs::instant("noise.i", String::new);
                }
            }
        }
        drop(stack);
        dvs_obs::current_tid()
    })
    .join()
    .expect("program thread panicked");
    dvs_obs::set_subscriber(None);
    let trace = rec.drain();
    trace.spans.into_iter().filter(|s| s.tid == tid).collect()
}

fn opens_in(ops: &[u8]) -> usize {
    ops.iter().filter(|&&op| op % 3 == 0).count()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn nesting_is_always_balanced(ops in proptest::collection::vec(any::<u8>(), 0..60)) {
        let _serial = serial();
        let spans = run_program(&ops);
        // every open produces exactly one record (balanced enter/exit)
        prop_assert_eq!(spans.len(), opens_in(&ops));
        for s in &spans {
            prop_assert!(s.enter_seq < s.exit_seq, "span interval inverted");
        }
        // intervals are laminar: any two are nested or disjoint
        for a in &spans {
            for b in &spans {
                if a.enter_seq == b.enter_seq {
                    continue;
                }
                let nested = (a.enter_seq < b.enter_seq && b.exit_seq < a.exit_seq)
                    || (b.enter_seq < a.enter_seq && a.exit_seq < b.exit_seq);
                let disjoint = a.exit_seq < b.enter_seq || b.exit_seq < a.enter_seq;
                prop_assert!(nested ^ disjoint, "spans overlap without nesting");
            }
        }
        // parentage is truthful: the parent's interval contains the child's,
        // and it is the *tightest* such interval
        for s in &spans {
            match s.parent_enter_seq {
                None => {
                    for t in &spans {
                        if t.enter_seq < s.enter_seq && s.exit_seq < t.exit_seq {
                            prop_assert!(false, "root span has an enclosing span");
                        }
                    }
                    prop_assert_eq!(s.depth, 0);
                }
                Some(p) => {
                    let parent = spans.iter().find(|t| t.enter_seq == p)
                        .expect("parent record exists");
                    prop_assert!(parent.enter_seq < s.enter_seq);
                    prop_assert!(s.exit_seq < parent.exit_seq);
                    prop_assert_eq!(s.depth, parent.depth + 1);
                }
            }
        }
    }

    #[test]
    fn same_program_records_same_structure(ops in proptest::collection::vec(any::<u8>(), 0..40)) {
        let _serial = serial();
        type Shape = (u64, u64, Option<u64>, u32, &'static str, Option<String>);
        let strip = |spans: Vec<SpanRecord>| -> Vec<Shape> {
            // keep the structural fields; drop tid and timing, which vary
            // per run by construction
            let base = spans.iter().map(|s| s.enter_seq).min().unwrap_or(0);
            spans
                .into_iter()
                .map(|s| {
                    (
                        s.enter_seq - base,
                        s.exit_seq - base,
                        s.parent_enter_seq.map(|p| p - base),
                        s.depth,
                        s.name,
                        s.detail,
                    )
                })
                .collect()
        };
        let first = strip(run_program(&ops));
        let second = strip(run_program(&ops));
        prop_assert_eq!(first, second);
    }
}

const METRICS: [&str; 3] = ["alpha", "beta", "gamma"];
const DOMAINS: [&str; 2] = ["sta.events", "power.saved"];
const SITES: [&str; 4] = ["g0", "g1", "g2", "g3"];

/// One metric record of a generated stream.
#[derive(Debug, Clone, Copy)]
enum Event {
    Hist(&'static str, u64),
    Attr(&'static str, &'static str, u64),
}

impl Event {
    fn record(self) {
        match self {
            Event::Hist(name, value) => dvs_obs::hist_record(name, value),
            Event::Attr(domain, site, value) => dvs_obs::attr_add(domain, || site, value),
        }
    }
}

/// A step of the differential program: a record on the main or the second
/// thread, or a mark/rollup on the main thread.
#[derive(Debug, Clone, Copy)]
enum Step {
    Main(Event),
    Second(Event),
    Mark,
    Rollup,
}

fn decode((kind, pick, raw): (u8, u8, u64)) -> Step {
    let name = METRICS[usize::from(pick) % METRICS.len()];
    let event = match kind % 8 {
        0 | 1 => Event::Hist(name, raw % 8),
        2 | 3 => Event::Hist(name, raw >> (pick % 64)),
        4 | 5 => Event::Attr(
            DOMAINS[usize::from(pick) % DOMAINS.len()],
            SITES[usize::from(pick / 2) % SITES.len()],
            raw % 100,
        ),
        6 => return Step::Mark,
        _ => return Step::Rollup,
    };
    if pick % 4 == 0 {
        Step::Second(event)
    } else {
        Step::Main(event)
    }
}

/// The raw events of a stretch of one thread's stream, aggregated the
/// obvious way.
#[derive(Default)]
struct Naive {
    hists: BTreeMap<&'static str, Vec<u64>>,
    attrs: BTreeMap<&'static str, BTreeMap<String, (u64, u64)>>,
}

impl Naive {
    fn push(&mut self, event: Event) {
        match event {
            Event::Hist(name, value) => self.hists.entry(name).or_default().push(value),
            Event::Attr(domain, site, value) => {
                let cell = self
                    .attrs
                    .entry(domain)
                    .or_default()
                    .entry(site.to_string())
                    .or_insert((0, 0));
                cell.0 += 1;
                cell.1 += value;
            }
        }
    }

    /// The rollup of a window holding exactly these events.
    fn rollup(&self) -> Rollup {
        Rollup {
            spans: Vec::new(),
            hists: self
                .hists
                .iter()
                .map(|(&name, values)| {
                    let mut buckets: BTreeMap<usize, u64> = BTreeMap::new();
                    for &v in values {
                        *buckets.entry(bucket_of(v)).or_insert(0) += 1;
                    }
                    let min = *values.iter().min().expect("recorded");
                    let max = *values.iter().max().expect("recorded");
                    HistRollup {
                        name: name.to_string(),
                        count: values.len() as u64,
                        sum: values.iter().fold(0u64, |acc, &v| acc.saturating_add(v)),
                        min: bucket_lo(bucket_of(min)),
                        max: bucket_lo(bucket_of(max)),
                        buckets: buckets.into_iter().collect(),
                    }
                })
                .collect(),
            attrs: self
                .attrs
                .iter()
                .map(|(&domain, table)| AttrRollup::from_table(domain, table))
                .collect(),
        }
    }
}

/// Runs `steps` with the main stream on the calling thread and the
/// `Second` events on a helper thread that holds one window open for the
/// whole program. Each step completes before the next starts, so the two
/// threads' records interleave exactly in step order. Checks every main
/// rollup, the helper's rollup and the drained totals against [`Naive`].
fn run_windows(steps: &[Step]) -> Result<(), TestCaseError> {
    let rec = Arc::new(Recorder::new());
    dvs_obs::set_subscriber(Some(rec.clone()));
    // the helper registers after this thread, so drain merges it second
    let main_tid = dvs_obs::current_tid();
    let (mut all_main, mut all_second) = (Naive::default(), Naive::default());
    std::thread::scope(|scope| {
        let rec = &rec;
        let (to_second, inbox) = mpsc::channel::<Event>();
        let (ack, acked) = mpsc::channel::<()>();
        let second = scope.spawn(move || {
            let mark = rec.mark();
            ack.send(()).expect("main thread waits for the mark");
            // ends when the main thread drops its sender
            for event in inbox {
                event.record();
                ack.send(()).expect("main thread waits for each record");
            }
            (dvs_obs::current_tid(), rec.rollup_since(&mark))
        });
        acked.recv().expect("helper marked");

        let mut mark = rec.mark();
        let mut window = Naive::default();
        for &step in steps {
            match step {
                Step::Main(event) => {
                    event.record();
                    all_main.push(event);
                    window.push(event);
                }
                Step::Second(event) => {
                    to_second.send(event).expect("helper alive");
                    acked.recv().expect("helper recorded");
                    all_second.push(event);
                }
                Step::Mark => {
                    mark = rec.mark();
                    window = Naive::default();
                }
                Step::Rollup => prop_assert_eq!(rec.rollup_since(&mark), window.rollup()),
            }
        }
        prop_assert_eq!(rec.rollup_since(&mark), window.rollup());
        drop(to_second);
        let (second_tid, second_rollup) = second.join().expect("helper panicked");
        prop_assert!(main_tid < second_tid);
        prop_assert_eq!(second_rollup, all_second.rollup());
        Ok(())
    })?;

    dvs_obs::set_subscriber(None);
    let trace = rec.drain();
    let mut hists: BTreeMap<String, Vec<u64>> = BTreeMap::new();
    let mut attrs: BTreeMap<String, BTreeMap<String, (u64, u64)>> = BTreeMap::new();
    for naive in [all_main, all_second] {
        for (name, values) in naive.hists {
            hists.entry(name.to_string()).or_default().extend(values);
        }
        for (domain, table) in naive.attrs {
            let merged = attrs.entry(domain.to_string()).or_default();
            for (site, (count, sum)) in table {
                let cell = merged.entry(site).or_insert((0, 0));
                cell.0 += count;
                cell.1 += sum;
            }
        }
    }
    prop_assert_eq!(&trace.attrs, &attrs);
    prop_assert_eq!(
        trace.hists.keys().collect::<Vec<_>>(),
        hists.keys().collect::<Vec<_>>()
    );
    for (name, values) in &hists {
        let hist = &trace.hists[name];
        prop_assert_eq!(hist.count, values.len() as u64);
        prop_assert_eq!(
            hist.sum,
            values.iter().fold(0u64, |acc, &v| acc.saturating_add(v))
        );
        prop_assert_eq!(hist.min, *values.iter().min().expect("recorded"));
        prop_assert_eq!(hist.max, *values.iter().max().expect("recorded"));
        for (bucket, &count) in hist.buckets.iter().enumerate() {
            let expected = values.iter().filter(|&&v| bucket_of(v) == bucket).count();
            prop_assert_eq!(count, expected as u64);
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn windowed_rollups_match_a_naive_reference(
        raw in proptest::collection::vec((any::<u8>(), any::<u8>(), any::<u64>()), 0..120)
    ) {
        let _serial = serial();
        let steps: Vec<Step> = raw.into_iter().map(decode).collect();
        run_windows(&steps)?;
    }
}
