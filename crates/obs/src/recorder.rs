//! The buffering [`Recorder`] subscriber: per-thread sinks, deterministic
//! merge ([`Recorder::drain`]) and thread-scoped windowed rollups
//! ([`Recorder::mark`] / [`Recorder::rollup_since`]).

use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, RwLock};

use crate::attr::AttrRollup;
use crate::record::{bucket_lo, Hist, InstantRecord, SpanRecord};
use crate::Subscriber;

/// Per-domain attribution table: `site → (record count, value sum)`.
type AttrTable = BTreeMap<String, (u64, u64)>;

/// A [`Subscriber`] that buffers spans and instants verbatim and
/// aggregates metrics immediately (per-edit histogram samples arrive at
/// ~10⁵/scenario; keeping raw samples would dwarf the workload itself).
///
/// Each thread writes to its own sink behind its own mutex, so the only
/// cross-thread contention is the brief registry read on a thread's first
/// record. Sinks are owned by the recorder, not by thread-local storage,
/// so records survive thread exit and [`Recorder::drain`] needs no TLS
/// destructors to have run.
#[derive(Default)]
pub struct Recorder {
    sinks: RwLock<BTreeMap<u32, Arc<ThreadSink>>>,
}

#[derive(Default)]
struct ThreadSink {
    data: Mutex<SinkData>,
}

#[derive(Default)]
struct SinkData {
    spans: Vec<SpanRecord>,
    instants: Vec<InstantRecord>,
    /// Aggregates recorded since the thread's last [`Recorder::mark`] —
    /// exactly what the open window's rollup reports.
    window: Aggs,
    /// Aggregates of every earlier window.
    total: Aggs,
    /// Bumped by each [`Recorder::mark`]; identifies the open window.
    window_id: u64,
    label: Option<String>,
}

/// One thread's metric aggregates over some stretch of its stream.
#[derive(Default)]
struct Aggs {
    hists: BTreeMap<&'static str, Hist>,
    attrs: BTreeMap<&'static str, AttrTable>,
}

impl Aggs {
    /// Folds a later stretch's aggregates into this one: counts and sums
    /// add. O(`later`).
    fn absorb(&mut self, later: Aggs) {
        for (name, hist) in later.hists {
            self.hists.entry(name).or_default().merge(&hist);
        }
        for (domain, table) in later.attrs {
            let merged = self.attrs.entry(domain).or_default();
            for (site, (count, sum)) in table {
                let cell = merged.entry(site).or_insert((0, 0));
                cell.0 += count;
                cell.1 = cell.1.saturating_add(sum);
            }
        }
    }
}

impl Recorder {
    /// A fresh, empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Recorder::default()
    }

    fn sink(&self, tid: u32) -> Arc<ThreadSink> {
        if let Some(sink) = self.sinks.read().expect("recorder poisoned").get(&tid) {
            return Arc::clone(sink);
        }
        let mut sinks = self.sinks.write().expect("recorder poisoned");
        Arc::clone(sinks.entry(tid).or_default())
    }

    /// Opens a window on the calling thread so a later
    /// [`Recorder::rollup_since`] can report only what this thread
    /// recorded in between.
    ///
    /// Costs O(previous window): the aggregates recorded since the
    /// thread's last mark are folded into its running totals and the new
    /// window starts empty. No map is cloned, so a window's cost never
    /// grows with what the thread recorded before it.
    ///
    /// Each thread has **one open window at a time**: marking again
    /// supersedes the earlier mark, and [`Recorder::rollup_since`] on the
    /// superseded mark panics. Windows therefore cannot nest on one
    /// thread; run the inner work on its own thread instead.
    #[must_use]
    pub fn mark(&self) -> ObsMark {
        let tid = crate::current_tid();
        let sink = self.sink(tid);
        let mut data = sink.data.lock().expect("recorder poisoned");
        let window = std::mem::take(&mut data.window);
        data.total.absorb(window);
        data.window_id += 1;
        ObsMark {
            tid,
            spans_len: data.spans.len(),
            window_id: data.window_id,
        }
    }

    /// Aggregates everything the marked thread recorded since `mark` into
    /// a value-deterministic [`Rollup`]: same records in → same rollup
    /// out, independent of worker count or interleaving, because the
    /// window only ever sees one thread's stream. Costs O(window).
    ///
    /// Spans still open at the call (e.g. the scenario span the window
    /// lives inside) have not been recorded yet and are excluded.
    ///
    /// # Panics
    ///
    /// If the thread has been marked again since `mark` (one open window
    /// per thread; see [`Recorder::mark`]).
    #[must_use]
    pub fn rollup_since(&self, mark: &ObsMark) -> Rollup {
        let sink = self.sink(mark.tid);
        let data = sink.data.lock().expect("recorder poisoned");
        assert!(
            mark.window_id == data.window_id,
            "rollup_since on a superseded mark: one open window per thread"
        );
        let window = &data.spans[mark.spans_len..];
        let self_ns = self_durations(window);
        let mut spans: BTreeMap<&'static str, SpanRollup> = BTreeMap::new();
        for (span, self_ns) in window.iter().zip(self_ns) {
            let agg = spans.entry(span.name).or_insert_with(|| SpanRollup {
                name: span.name.to_string(),
                ..SpanRollup::default()
            });
            agg.count += 1;
            agg.wall_ns = agg.wall_ns.saturating_add(span.dur_ns);
            agg.self_ns = agg.self_ns.saturating_add(self_ns);
            agg.cpu_ns = agg.cpu_ns.saturating_add(span.cpu_ns);
        }
        let aggs = &data.window;
        Rollup {
            spans: spans.into_values().collect(),
            hists: aggs
                .hists
                .iter()
                .map(|(&name, hist)| HistRollup::from_window(name, hist))
                .collect(),
            attrs: aggs
                .attrs
                .iter()
                .map(|(&domain, table)| AttrRollup::from_table(domain, table))
                .collect(),
        }
    }

    /// Takes every buffered record, leaving the recorder empty. Threads
    /// are merged in observability-tid order (their registration order)
    /// with each thread's records in the order it made them, so
    /// the layout is deterministic for any interleaving. Costs O(what was
    /// recorded).
    ///
    /// Uninstall the recorder ([`crate::set_subscriber`]`(None)`) first;
    /// records arriving during the drain land in whichever side of the
    /// split the writer's registry lookup wins. Marks taken before the
    /// drain are superseded by it.
    #[must_use]
    pub fn drain(&self) -> Trace {
        let sinks = std::mem::take(&mut *self.sinks.write().expect("recorder poisoned"));
        let mut trace = Trace::default();
        let mut aggs = Aggs::default();
        for (tid, sink) in sinks {
            let mut data = sink.data.lock().expect("recorder poisoned");
            trace.spans.append(&mut data.spans);
            trace.instants.append(&mut data.instants);
            aggs.absorb(std::mem::take(&mut data.total));
            aggs.absorb(std::mem::take(&mut data.window));
            if let Some(label) = data.label.take() {
                trace.thread_labels.insert(tid, label);
            }
        }
        trace.hists = owned_keys(aggs.hists);
        trace.attrs = owned_keys(aggs.attrs);
        trace
    }
}

impl Subscriber for Recorder {
    fn span_end(&self, rec: SpanRecord) {
        let sink = self.sink(rec.tid);
        sink.data.lock().expect("recorder poisoned").spans.push(rec);
    }

    fn histogram(&self, tid: u32, name: &'static str, value: u64) {
        let sink = self.sink(tid);
        let mut data = sink.data.lock().expect("recorder poisoned");
        data.window.hists.entry(name).or_default().record(value);
    }

    fn instant(&self, rec: InstantRecord) {
        let sink = self.sink(rec.tid);
        sink.data
            .lock()
            .expect("recorder poisoned")
            .instants
            .push(rec);
    }

    fn thread_label(&self, tid: u32, label: &str) {
        let sink = self.sink(tid);
        sink.data.lock().expect("recorder poisoned").label = Some(label.to_string());
    }

    fn attribution(&self, tid: u32, domain: &'static str, site: &str, value: u64) {
        let sink = self.sink(tid);
        let mut data = sink.data.lock().expect("recorder poisoned");
        let table = data.window.attrs.entry(domain).or_default();
        // look up before inserting: only a site's first record in the
        // window allocates its name
        let cell = match table.get_mut(site) {
            Some(cell) => cell,
            None => table.entry(site.to_string()).or_insert((0, 0)),
        };
        cell.0 += 1;
        cell.1 = cell.1.saturating_add(value);
    }
}

/// A thread's open window, returned by [`Recorder::mark`].
pub struct ObsMark {
    tid: u32,
    spans_len: usize,
    window_id: u64,
}

/// Everything one thread recorded inside a mark…rollup window, aggregated
/// by name. All vectors are sorted by name (built from `BTreeMap`s).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Rollup {
    /// Per-span-name totals, sorted by name.
    pub spans: Vec<SpanRollup>,
    /// Histogram windows with at least one sample, sorted by name.
    pub hists: Vec<HistRollup>,
    /// Per-domain attribution rollups with at least one record, sorted by
    /// domain.
    pub attrs: Vec<AttrRollup>,
}

impl Rollup {
    /// `true` when the window recorded nothing at all.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.spans.is_empty() && self.hists.is_empty() && self.attrs.is_empty()
    }

    /// Zeroes every nanosecond field, leaving counts and values intact —
    /// used under `--deterministic` so rollups are byte-identical across
    /// runs and worker counts while still proving the span structure.
    pub fn zero_timing(&mut self) {
        for s in &mut self.spans {
            s.wall_ns = 0;
            s.self_ns = 0;
            s.cpu_ns = 0;
        }
    }
}

/// Aggregated totals for one span name within a [`Rollup`].
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SpanRollup {
    /// Span name.
    pub name: String,
    /// Completed spans with this name.
    pub count: u64,
    /// Total wall time, ns.
    pub wall_ns: u64,
    /// Total self time (wall minus direct children), ns.
    pub self_ns: u64,
    /// Total on-CPU time, ns.
    pub cpu_ns: u64,
}

/// A histogram window within a [`Rollup`] (sparse bucket form).
#[derive(Debug, Clone, PartialEq)]
pub struct HistRollup {
    /// Histogram name.
    pub name: String,
    /// Samples in the window.
    pub count: u64,
    /// Saturating sum of samples.
    pub sum: u64,
    /// Bucket lower bound of the smallest windowed sample, not the exact
    /// extreme: rollups report histograms at bucket resolution
    /// throughout. 0 when empty.
    pub min: u64,
    /// Bucket lower bound of the largest windowed sample.
    pub max: u64,
    /// `(bucket index, count)` for non-empty buckets.
    pub buckets: Vec<(usize, u64)>,
}

impl HistRollup {
    /// Rolls up one window's histogram. `min`/`max` are the lower bounds
    /// of the extremal non-empty buckets, not the exact extremes: rollups
    /// report histograms at bucket resolution throughout.
    fn from_window(name: &str, hist: &Hist) -> Self {
        let buckets = hist.sparse();
        HistRollup {
            name: name.to_string(),
            count: hist.count,
            sum: hist.sum,
            min: buckets.first().map_or(0, |&(b, _)| bucket_lo(b)),
            max: buckets.last().map_or(0, |&(b, _)| bucket_lo(b)),
            buckets,
        }
    }
}

/// Everything a [`Recorder`] buffered, merged deterministically by
/// [`Recorder::drain`].
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// All completed spans, grouped by thread in tid order.
    pub spans: Vec<SpanRecord>,
    /// All instant events, grouped by thread in tid order.
    pub instants: Vec<InstantRecord>,
    /// Histogram totals across all threads, by name.
    pub hists: BTreeMap<String, Hist>,
    /// Attribution totals across all threads: `domain → site → (count,
    /// sum)`.
    pub attrs: BTreeMap<String, BTreeMap<String, (u64, u64)>>,
    /// Thread labels set via [`crate::set_thread_label`], by tid.
    pub thread_labels: BTreeMap<u32, String>,
}

fn owned_keys<V>(map: BTreeMap<&'static str, V>) -> BTreeMap<String, V> {
    map.into_iter().map(|(k, v)| (k.to_string(), v)).collect()
}

/// Self time (duration minus direct children's durations) for each span,
/// index-aligned with the input. Parents outside the slice simply collect
/// no children — windows stay self-consistent.
#[must_use]
pub fn self_durations(spans: &[SpanRecord]) -> Vec<u64> {
    let mut index: BTreeMap<(u32, u64), usize> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        index.insert((s.tid, s.enter_seq), i);
    }
    let mut child_ns = vec![0u64; spans.len()];
    for s in spans {
        if let Some(parent) = s.parent_enter_seq {
            if let Some(&pi) = index.get(&(s.tid, parent)) {
                child_ns[pi] = child_ns[pi].saturating_add(s.dur_ns);
            }
        }
    }
    spans
        .iter()
        .zip(child_ns)
        .map(|(s, c)| s.dur_ns.saturating_sub(c))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::attr::AttrSite;
    use crate::test_support;
    use crate::{hist_record, set_subscriber, span};

    #[test]
    fn mark_and_rollup_window_one_thread() {
        let _serial = test_support::serial();
        let rec = Arc::new(Recorder::new());
        set_subscriber(Some(rec.clone()));
        hist_record("h", 4);
        let mark = rec.mark();
        {
            let _outer = span("outer");
            let _inner = span("inner");
        }
        hist_record("h", 9);
        let roll = rec.rollup_since(&mark);
        set_subscriber(None);
        let _ = rec.drain();

        let names: Vec<&str> = roll.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(names, ["inner", "outer"]);
        assert_eq!(roll.hists.len(), 1);
        let h = &roll.hists[0];
        assert_eq!((h.count, h.sum), (1, 9));
        assert_eq!(h.buckets, vec![(crate::bucket_of(9), 1)]);
    }

    #[test]
    fn attribution_windows_exactly_and_merges_on_drain() {
        let _serial = test_support::serial();
        let rec = Arc::new(Recorder::new());
        set_subscriber(Some(rec.clone()));
        crate::attr_add("sta.events", || "g1", 10);
        let mark = rec.mark();
        crate::attr_add("sta.events", || "g1", 7);
        crate::attr_add("sta.events", || "g2", 90);
        crate::attr_add("power.saved", || "g1", 5);
        let roll = rec.rollup_since(&mark);
        set_subscriber(None);

        // window excludes the pre-mark record for g1
        assert_eq!(roll.attrs.len(), 2);
        let sta = &roll.attrs[1];
        assert_eq!(sta.domain, "sta.events");
        assert_eq!((sta.sites, sta.count, sta.sum), (2, 2, 97));
        assert_eq!(sta.top[0].site, "g2");
        assert_eq!(
            sta.top[1],
            AttrSite {
                site: "g1".into(),
                count: 1,
                sum: 7
            }
        );
        assert_eq!(roll.attrs[0].domain, "power.saved");

        // drain merges the full (pre- and post-mark) totals
        let trace = rec.drain();
        assert_eq!(trace.attrs["sta.events"]["g1"], (2, 17));
        assert_eq!(trace.attrs["sta.events"]["g2"], (1, 90));
        assert_eq!(trace.attrs["power.saved"]["g1"], (1, 5));
    }

    #[test]
    fn hist_rollup_min_max_are_bucket_bounds() {
        let rec = Recorder::new();
        let tid = crate::current_tid();
        rec.histogram(tid, "h", 5);
        let mark = rec.mark();
        rec.histogram(tid, "h", 9);
        rec.histogram(tid, "h", 1000);
        let roll = rec.rollup_since(&mark);
        let h = &roll.hists[0];
        assert_eq!((h.count, h.sum), (2, 1009));
        assert_eq!((h.min, h.max), (8, 512));
        assert_eq!(
            h.buckets,
            vec![(crate::bucket_of(9), 1), (crate::bucket_of(1000), 1)]
        );
        // an empty window rolls up to nothing
        let mark = rec.mark();
        assert!(rec.rollup_since(&mark).is_empty());
        // the drained total keeps exact extremes over both windows
        let trace = rec.drain();
        assert_eq!((trace.hists["h"].min, trace.hists["h"].max), (5, 1000));
    }

    #[test]
    #[should_panic(expected = "one open window per thread")]
    fn rollup_on_a_superseded_mark_panics() {
        let rec = Recorder::new();
        let first = rec.mark();
        let _second = rec.mark();
        let _ = rec.rollup_since(&first);
    }

    #[test]
    fn rollup_zero_timing_keeps_structure() {
        let mut roll = Rollup {
            spans: vec![SpanRollup {
                name: "x".into(),
                count: 3,
                wall_ns: 10,
                self_ns: 5,
                cpu_ns: 2,
            }],
            ..Rollup::default()
        };
        roll.zero_timing();
        assert_eq!(roll.spans[0].count, 3);
        assert_eq!(
            (
                roll.spans[0].wall_ns,
                roll.spans[0].self_ns,
                roll.spans[0].cpu_ns
            ),
            (0, 0, 0)
        );
    }

    #[test]
    fn drain_merges_threads_in_tid_order() {
        let _serial = test_support::serial();
        let rec = Arc::new(Recorder::new());
        set_subscriber(Some(rec.clone()));
        {
            let _a = span("main-span");
            hist_record("h", 7);
        }
        let handles: Vec<_> = (0..3)
            .map(|k| {
                std::thread::spawn(move || {
                    crate::set_thread_label(|| format!("worker-{k}"));
                    let _s = span("worker-span");
                    hist_record("h", k);
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        set_subscriber(None);
        let trace = rec.drain();
        assert_eq!(trace.spans.len(), 4);
        assert_eq!(trace.hists["h"].count, 4);
        assert_eq!(trace.hists["h"].sum, 7 + 1 + 2);
        assert_eq!(trace.thread_labels.len(), 3);
        // tids strictly grouped and non-decreasing across the merge
        let tids: Vec<u32> = trace.spans.iter().map(|s| s.tid).collect();
        let mut sorted = tids.clone();
        sorted.sort_unstable();
        assert_eq!(tids, sorted);
        // recorder is empty after the drain
        assert!(rec.drain().spans.is_empty());
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mk = |enter, exit, parent, dur| SpanRecord {
            tid: 1,
            enter_seq: enter,
            exit_seq: exit,
            parent_enter_seq: parent,
            depth: 0,
            name: "s",
            detail: None,
            start_ns: 0,
            dur_ns: dur,
            cpu_ns: 0,
        };
        // grandparent(1..8) > parent(2..7) > child(3..4), plus sibling(5..6)
        let spans = vec![
            mk(3, 4, Some(2), 10),
            mk(5, 6, Some(2), 20),
            mk(2, 7, Some(1), 100),
            mk(1, 8, None, 1000),
        ];
        let self_ns = self_durations(&spans);
        assert_eq!(self_ns, vec![10, 20, 70, 900]);
    }
}
