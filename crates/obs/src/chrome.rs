//! Chrome trace-event JSON export for a drained [`Trace`]; backs
//! `dvs-sweep --trace-out`.
//!
//! Emits the [Trace Event Format] object form
//! `{"traceEvents":[...]}` that Perfetto and `chrome://tracing` load
//! directly: `"M"` metadata events name the process and one track per
//! recorded thread, `"X"` complete events carry the spans (`ts`/`dur` in
//! microseconds, as the format requires) and `"i"` instant events carry
//! the structured trace lines. Because microseconds lose sub-µs
//! precision, every span's `args` also carries the raw integer
//! `start_ns`/`dur_ns` (and `cpu_ns`), so exact nesting can be re-checked
//! from the file — CI does exactly that.
//!
//! [Trace Event Format]: https://docs.google.com/document/d/1CvAClvFfyA5R-PhYUmn5OOQtYMH4h6I0nSsKchNAySU
//!
//! ```
//! let trace = dvs_obs::Trace::default();
//! let json = dvs_obs::chrome::render(&trace);
//! assert!(json.starts_with("{\"traceEvents\":["));
//! ```

use std::fmt::Write as _;

use crate::record::{InstantRecord, SpanRecord};
use crate::recorder::Trace;

/// The `pid` every event carries (one process, fixed label).
const PID: u32 = 1;

fn escape_into(out: &mut String, s: &str) {
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
}

fn push_us(out: &mut String, ns: u64) {
    // Microseconds with ns precision kept as three decimals; integral
    // formatting avoids float rounding drift on large timestamps.
    let _ = write!(out, "{}.{:03}", ns / 1_000, ns % 1_000);
}

fn process_meta_into(out: &mut String) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{PID},\"name\":\"process_name\",\
         \"args\":{{\"name\":\"dvs-sweep\"}}}}"
    );
}

fn thread_meta_into(out: &mut String, tid: u32, label: Option<&str>) {
    let _ = write!(
        out,
        "{{\"ph\":\"M\",\"pid\":{PID},\"tid\":{tid},\
         \"name\":\"thread_name\",\"args\":{{\"name\":\""
    );
    match label {
        Some(label) => escape_into(out, label),
        None => {
            let _ = write!(out, "thread-{tid}");
        }
    }
    out.push_str("\"}}");
}

fn span_event_into(out: &mut String, span: &SpanRecord) {
    out.push_str("{\"ph\":\"X\",\"cat\":\"span\",\"name\":\"");
    escape_into(out, span.name);
    let _ = write!(out, "\",\"pid\":{PID},\"tid\":{},\"ts\":", span.tid);
    push_us(out, span.start_ns);
    out.push_str(",\"dur\":");
    push_us(out, span.dur_ns);
    let _ = write!(
        out,
        ",\"args\":{{\"start_ns\":{},\"dur_ns\":{},\"cpu_ns\":{},\"depth\":{}",
        span.start_ns, span.dur_ns, span.cpu_ns, span.depth
    );
    if let Some(detail) = &span.detail {
        out.push_str(",\"detail\":\"");
        escape_into(out, detail);
        out.push('"');
    }
    out.push_str("}}");
}

fn instant_event_into(out: &mut String, inst: &InstantRecord) {
    out.push_str("{\"ph\":\"i\",\"s\":\"t\",\"cat\":\"instant\",\"name\":\"");
    escape_into(out, inst.name);
    let _ = write!(out, "\",\"pid\":{PID},\"tid\":{},\"ts\":", inst.tid);
    push_us(out, inst.t_ns);
    out.push_str(",\"args\":{\"text\":\"");
    escape_into(out, &inst.text);
    out.push_str("\"}}");
}

/// Renders a drained trace as a Chrome trace-event JSON document.
#[must_use]
pub fn render(trace: &Trace) -> String {
    let mut out = String::with_capacity(256 + trace.spans.len() * 160);
    out.push_str("{\"traceEvents\":[");
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
        out.push_str("\n  ");
    };

    sep(&mut out);
    process_meta_into(&mut out);

    // One named track per thread that recorded anything.
    let mut tids: Vec<u32> = trace
        .spans
        .iter()
        .map(|s| s.tid)
        .chain(trace.instants.iter().map(|i| i.tid))
        .chain(trace.thread_labels.keys().copied())
        .collect();
    tids.sort_unstable();
    tids.dedup();
    for tid in tids {
        sep(&mut out);
        thread_meta_into(
            &mut out,
            tid,
            trace.thread_labels.get(&tid).map(String::as_str),
        );
    }

    for span in &trace.spans {
        sep(&mut out);
        span_event_into(&mut out, span);
    }

    for inst in &trace.instants {
        sep(&mut out);
        instant_event_into(&mut out, inst);
    }

    out.push_str("\n]}\n");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{InstantRecord, SpanRecord};

    fn sample_trace() -> Trace {
        let mut trace = Trace::default();
        trace.thread_labels.insert(7, "worker-0".into());
        trace.spans.push(SpanRecord {
            tid: 7,
            enter_seq: 1,
            exit_seq: 4,
            parent_enter_seq: None,
            depth: 0,
            name: "scenario",
            detail: Some("c432\"x1\"".into()),
            start_ns: 1_234_567,
            dur_ns: 2_000_500,
            cpu_ns: 1_900_000,
        });
        trace.instants.push(InstantRecord {
            tid: 7,
            t_ns: 1_500_000,
            name: "gscale.stop",
            text: "[gscale] iter 3: stalled -> stop".into(),
        });
        trace
    }

    #[test]
    fn renders_metadata_spans_and_instants() {
        let json = render(&sample_trace());
        assert!(json.contains("\"process_name\""));
        assert!(json.contains("\"worker-0\""));
        assert!(json.contains("\"ph\":\"X\""));
        assert!(json.contains("\"ts\":1234.567"));
        assert!(json.contains("\"dur\":2000.500"));
        assert!(json.contains("\"start_ns\":1234567"));
        assert!(json.contains("\"detail\":\"c432\\\"x1\\\"\""));
        assert!(json.contains("\"ph\":\"i\""));
        assert!(json.contains("stalled -> stop"));
    }

    #[test]
    fn escapes_control_characters() {
        let mut s = String::new();
        escape_into(&mut s, "a\"b\\c\nd\u{1}");
        assert_eq!(s, "a\\\"b\\\\c\\nd\\u0001");
    }

    #[test]
    fn empty_trace_is_still_an_object() {
        let json = render(&Trace::default());
        assert!(json.starts_with("{\"traceEvents\":["));
        assert!(json.trim_end().ends_with("]}"));
    }
}
