//! Text renderings of a drained [`Trace`]: a compact summary of the top
//! span names by total self-time plus one line per histogram (backs
//! `dvs-sweep --obs-summary`), and folded-stack lines for flamegraph
//! tooling (backs `--folded-out`).

use std::collections::BTreeMap;
use std::fmt::Write as _;

use crate::recorder::{self_durations, span_rollups, Trace};

fn ms(ns: u64) -> f64 {
    ns as f64 / 1e6
}

/// Renders the top `top` span names by total self-time (wall time minus
/// direct children), with call counts and CPU totals, followed by the
/// trace's histograms. Deterministic: ties break by span name.
#[must_use]
pub fn render(trace: &Trace, top: usize) -> String {
    let mut rows = span_rollups(&trace.spans);
    rows.sort_by(|a, b| b.self_ns.cmp(&a.self_ns).then(a.name.cmp(&b.name)));

    let mut out = String::new();
    let _ = writeln!(
        out,
        "top spans by self-time ({} spans, {} names):",
        trace.spans.len(),
        rows.len()
    );
    let _ = writeln!(
        out,
        "  {:<18} {:>8} {:>12} {:>12} {:>12}",
        "span", "count", "self ms", "wall ms", "cpu ms"
    );
    for agg in rows.iter().take(top) {
        let _ = writeln!(
            out,
            "  {:<18} {:>8} {:>12.3} {:>12.3} {:>12.3}",
            agg.name,
            agg.count,
            ms(agg.self_ns),
            ms(agg.wall_ns),
            ms(agg.cpu_ns)
        );
    }
    if !trace.hists.is_empty() {
        let _ = writeln!(out, "histograms:");
        for (name, hist) in &trace.hists {
            if hist.count == 0 {
                continue;
            }
            let _ = writeln!(
                out,
                "  {:<28} n={} sum={} min={} max={} mean={:.2}",
                name,
                hist.count,
                hist.sum,
                hist.min,
                hist.max,
                hist.sum as f64 / hist.count as f64
            );
        }
    }
    out
}

/// Renders a drained trace in folded-stack form (`inferno` /
/// `flamegraph.pl` input): one line per distinct span stack,
/// `thread;root;…;leaf self_ns`, with self time (wall minus direct
/// children) aggregated over all occurrences of the stack and lines
/// sorted lexicographically — deterministic for a given trace.
#[must_use]
pub fn folded(trace: &Trace) -> String {
    let index: BTreeMap<(u32, u64), usize> = trace
        .spans
        .iter()
        .enumerate()
        .map(|(i, s)| ((s.tid, s.enter_seq), i))
        .collect();
    let self_ns = self_durations(&trace.spans);
    let mut agg: BTreeMap<String, u64> = BTreeMap::new();
    for (i, span) in trace.spans.iter().enumerate() {
        let mut names: Vec<&str> = vec![span.name];
        let mut cursor = span;
        while let Some(parent) = cursor.parent_enter_seq {
            match index.get(&(cursor.tid, parent)) {
                Some(&pi) => {
                    cursor = &trace.spans[pi];
                    names.push(cursor.name);
                }
                None => break, // parent closed outside the trace window
            }
        }
        let thread = match trace.thread_labels.get(&span.tid) {
            Some(label) => label.clone(),
            None => format!("thread-{}", span.tid),
        };
        let mut stack = thread;
        for name in names.iter().rev() {
            stack.push(';');
            stack.push_str(name);
        }
        let slot = agg.entry(stack).or_insert(0);
        *slot = slot.saturating_add(self_ns[i]);
    }
    let mut out = String::new();
    for (stack, ns) in agg {
        let _ = writeln!(out, "{stack} {ns}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::SpanRecord;

    #[test]
    fn summary_orders_by_self_time() {
        let mk = |name, enter, exit, parent, dur| SpanRecord {
            tid: 1,
            enter_seq: enter,
            exit_seq: exit,
            parent_enter_seq: parent,
            depth: 0,
            name,
            detail: None,
            start_ns: 0,
            dur_ns: dur,
            cpu_ns: dur / 2,
        };
        let mut trace = Trace::default();
        // parent 100ns with a 90ns child: parent self = 10, child self = 90
        trace.spans.push(mk("child", 2, 3, Some(1), 90));
        trace.spans.push(mk("parent", 1, 4, None, 100));
        trace.hists.entry("h".into()).or_default().record(4);
        let text = render(&trace, 10);
        let child_at = text.find("child").unwrap();
        let parent_at = text.find("parent").unwrap();
        assert!(child_at < parent_at, "child has more self-time:\n{text}");
        assert!(text.contains("n=1 sum=4 min=4 max=4"));
    }

    #[test]
    fn top_limits_rows() {
        let mut trace = Trace::default();
        for (i, name) in ["a", "b", "c"].into_iter().enumerate() {
            trace.spans.push(SpanRecord {
                tid: 1,
                enter_seq: (i as u64) * 2 + 1,
                exit_seq: (i as u64) * 2 + 2,
                parent_enter_seq: None,
                depth: 0,
                name,
                detail: None,
                start_ns: 0,
                dur_ns: 100 - i as u64,
                cpu_ns: 0,
            });
        }
        let text = render(&trace, 2);
        assert!(text.contains(" a "));
        assert!(text.contains(" b "));
        assert!(!text.contains(" c "));
    }

    #[test]
    fn folded_aggregates_self_time_per_stack() {
        let span = |enter: u64, exit: u64, parent, name, dur_ns| SpanRecord {
            tid: 1,
            enter_seq: enter,
            exit_seq: exit,
            parent_enter_seq: parent,
            depth: u32::from(parent.is_some()),
            name,
            detail: None,
            start_ns: enter * 1_000,
            dur_ns,
            cpu_ns: 0,
        };
        let mut trace = Trace::default();
        trace.thread_labels.insert(1, "worker-0".into());
        // root 10µs with child 4µs, twice → root self 2×6000, child 2×4000
        trace.spans.push(span(1, 4, None, "scenario", 10_000));
        trace.spans.push(span(2, 3, Some(1), "cvs", 4_000));
        trace.spans.push(span(5, 8, None, "scenario", 10_000));
        trace.spans.push(span(6, 7, Some(5), "cvs", 4_000));
        let text = folded(&trace);
        assert_eq!(
            text,
            "worker-0;scenario 12000\nworker-0;scenario;cvs 8000\n"
        );
    }
}
