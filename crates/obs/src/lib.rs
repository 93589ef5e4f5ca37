//! # dvs-obs
//!
//! Std-only observability for the dual-Vdd flow: **hierarchical spans**,
//! a **metrics registry** (counters, gauges, fixed log-bucket histograms),
//! **instant events** (the text lines `DVS_TRACE` prints), per-thread
//! **CPU clocks**, a buffering [`Recorder`] with deterministic merge,
//! [Chrome trace-event](chrome) export, and [text renderings](summary):
//! top spans by self-time and folded stacks.
//!
//! ## Model
//!
//! One process-global [`Subscriber`] slot ([`set_subscriber`]) receives
//! every record. Instrumented code calls the free functions — [`span`],
//! [`counter_add`], [`hist_record`], [`instant`], … — which are routed to
//! the subscriber *only* when one is installed.
//!
//! The [`Recorder`] is the one production subscriber. Every output is a
//! rendering of its drained [`Trace`]: the Chrome trace
//! ([`chrome::render`]), folded stacks ([`summary::folded`]), the
//! self-time and attribution digests, and the `DVS_TRACE` stderr lines
//! (`Trace::instants` texts in drain order).
//!
//! ## The disabled-path cost contract
//!
//! With **no subscriber installed** every entry point is one relaxed
//! atomic load and an early return: **no allocation, no thread-local
//! touch, no clock read, no closure invocation**. Dynamic span details
//! and instant texts are passed as closures precisely so their `format!`
//! never runs on the disabled path. The `no_alloc` integration test
//! enforces this with a counting global allocator; treat it as API
//! contract, not an implementation detail.
//!
//! ## Threads and determinism
//!
//! Span nesting, sequence numbers and parentage are tracked per thread in
//! TLS, so records carry exact integer happens-inside relations
//! (`enter_seq < seq < exit_seq` on the same `tid`) instead of timestamp
//! comparisons. The [`Recorder`] buffers each thread's records in a
//! thread-owned sink ("lock-free enough": the only mutex a hot-path push
//! takes is the sink's own, uncontended except during the final drain)
//! and [`Recorder::drain`] merges sinks in thread-registration order with
//! records in sequence order — a deterministic layout for any
//! interleaving.
//!
//! ```
//! use std::sync::Arc;
//!
//! let rec = Arc::new(dvs_obs::Recorder::new());
//! dvs_obs::set_subscriber(Some(rec.clone()));
//! {
//!     let _outer = dvs_obs::span("phase");
//!     dvs_obs::hist_record("events", 17);
//!     let _inner = dvs_obs::span_with("step", || "detail".into());
//! }
//! dvs_obs::set_subscriber(None);
//! let trace = rec.drain();
//! assert_eq!(trace.spans.len(), 2);
//! assert_eq!(trace.spans[0].name, "step"); // inner closed first
//! assert_eq!(trace.spans[1].name, "phase");
//! ```

// `deny` rather than `forbid`: the thread-CPU clock opts back in for one
// contained raw `clock_gettime` syscall (see `clock::thread_clock`).
#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod attr;
pub mod chrome;
pub mod summary;

mod clock;
mod record;
mod recorder;

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::{Arc, RwLock};

pub use attr::{AttrRollup, AttrSite};
pub use clock::{thread_cpu_raw_ns, thread_cpu_time, wall_ns, CpuLap, CpuTimer};
pub use record::{bucket_lo, bucket_of, Hist, InstantRecord, SpanRecord, HIST_BUCKETS};
pub use recorder::{HistRollup, ObsMark, Recorder, Rollup, SpanRollup, Trace};

/// Receives every observability record while installed via
/// [`set_subscriber`]. All methods default to no-ops so a subscriber only
/// implements the record kinds it cares about.
///
/// [`Recorder`] is the implementation programs install; the trait stays
/// open so tests can substitute capturing fakes.
///
/// Methods are called from the instrumented thread, inline at the record
/// site — implementations must be cheap and must not re-enter the
/// recording API (`span`/`counter_add`/…) or they will self-trace.
pub trait Subscriber: Send + Sync + 'static {
    /// A span completed on thread `rec.tid`.
    fn span_end(&self, rec: SpanRecord) {
        let _ = rec;
    }
    /// A counter was bumped by `delta`.
    fn counter(&self, tid: u32, seq: u64, name: &'static str, delta: u64) {
        let _ = (tid, seq, name, delta);
    }
    /// A gauge was set to `value`.
    fn gauge(&self, tid: u32, seq: u64, name: &'static str, value: f64) {
        let _ = (tid, seq, name, value);
    }
    /// A histogram sample was recorded.
    fn histogram(&self, tid: u32, seq: u64, name: &'static str, value: u64) {
        let _ = (tid, seq, name, value);
    }
    /// An instant event fired.
    fn instant(&self, rec: InstantRecord) {
        let _ = rec;
    }
    /// The calling thread labelled itself (e.g. `"worker-3"`).
    fn thread_label(&self, tid: u32, label: &str) {
        let _ = (tid, label);
    }
    /// `value` units of work (or savings) in `domain` were attributed to
    /// the netlist site `site` — e.g. STA worklist events to the edited
    /// gate, saved nanowatts to the demoted gate, augmenting-path work to
    /// the separator that caused it. See [`attr_add`].
    fn attribution(&self, tid: u32, seq: u64, domain: &'static str, site: &str, value: u64) {
        let _ = (tid, seq, domain, site, value);
    }
}

/// Fast-path gate: `true` iff a subscriber is installed. Kept in its own
/// atomic so the disabled path never touches the `RwLock`.
static ENABLED: AtomicBool = AtomicBool::new(false);

/// The installed subscriber. Written rarely (install/uninstall), read on
/// every enabled-path record.
static SUBSCRIBER: RwLock<Option<Arc<dyn Subscriber>>> = RwLock::new(None);

/// Next observability thread id (0 is the unassigned sentinel).
static NEXT_TID: AtomicU32 = AtomicU32::new(1);

/// Installs (`Some`) or removes (`None`) the process-global subscriber,
/// returning the previous one. Spans open across a swap are delivered to
/// whichever subscriber is installed when they close.
pub fn set_subscriber(sub: Option<Arc<dyn Subscriber>>) -> Option<Arc<dyn Subscriber>> {
    let mut slot = SUBSCRIBER.write().expect("subscriber lock poisoned");
    let prev = std::mem::replace(&mut *slot, sub);
    ENABLED.store(slot.is_some(), Ordering::Release);
    prev
}

/// `true` iff a subscriber is currently installed (one relaxed load).
#[inline]
pub fn subscriber_installed() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Runs `f` with the installed subscriber, if any. The single gate every
/// recording entry point goes through.
#[inline]
fn with_subscriber(f: impl FnOnce(&Arc<dyn Subscriber>)) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    if let Some(sub) = SUBSCRIBER
        .read()
        .expect("subscriber lock poisoned")
        .as_ref()
    {
        f(sub);
    }
}

/// Per-thread recording context: id, sequence counter and the open-span
/// stack (entry sequence numbers only — the guard owns the rest).
struct ThreadCtx {
    tid: u32,
    seq: u64,
    stack: Vec<OpenSpan>,
}

thread_local! {
    static CTX: RefCell<ThreadCtx> = const {
        RefCell::new(ThreadCtx { tid: 0, seq: 0, stack: Vec::new() })
    };
}

/// Returns `(tid, next seq)` for the calling thread, assigning a tid on
/// first use. Enabled path only.
fn next_seq() -> (u32, u64) {
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if ctx.tid == 0 {
            ctx.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        ctx.seq += 1;
        (ctx.tid, ctx.seq)
    })
}

/// The observability thread id of the calling thread, assigning one on
/// first use. Stable for the thread's lifetime.
pub fn current_tid() -> u32 {
    CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if ctx.tid == 0 {
            ctx.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        ctx.tid
    })
}

/// An open span; records a [`SpanRecord`] to the subscriber on drop.
///
/// Guards nest strictly (drop order = reverse open order) in well-formed
/// code; a guard dropped out of order closes — and records — every span
/// opened after it first, keeping the per-thread nesting balanced by
/// construction.
#[must_use = "a span measures the scope it is bound to; dropping it immediately records nothing useful"]
pub struct SpanGuard {
    /// Entry sequence of the span this guard closes; 0 when the span was
    /// opened with no subscriber installed (disarmed).
    enter_seq: u64,
    /// Guards close the stack of the thread that opened them; sending one
    /// elsewhere would desynchronize both threads' nesting.
    _not_send: std::marker::PhantomData<*const ()>,
}

/// Metadata of a still-open span, owned by the thread's stack (not the
/// guard) so an out-of-order guard drop can record the inner spans it
/// force-closes.
struct OpenSpan {
    enter_seq: u64,
    parent_enter_seq: Option<u64>,
    depth: u32,
    name: &'static str,
    detail: Option<String>,
    start_ns: u64,
    cpu_start: Option<u64>,
}

/// Opens a hierarchical span named `name`. See [`span_with`] for dynamic
/// detail. No-op (and allocation-free) without a subscriber.
#[inline]
pub fn span(name: &'static str) -> SpanGuard {
    span_impl(name, None::<fn() -> String>)
}

/// Opens a span with a lazily-built detail string (scenario id, circuit
/// name, …). `detail` only runs when a subscriber is installed.
#[inline]
pub fn span_with<F: FnOnce() -> String>(name: &'static str, detail: F) -> SpanGuard {
    span_impl(name, Some(detail))
}

fn span_impl<F: FnOnce() -> String>(name: &'static str, detail: Option<F>) -> SpanGuard {
    if !ENABLED.load(Ordering::Relaxed) {
        return SpanGuard {
            enter_seq: 0,
            _not_send: std::marker::PhantomData,
        };
    }
    let enter_seq = CTX.with(|ctx| {
        let mut ctx = ctx.borrow_mut();
        if ctx.tid == 0 {
            ctx.tid = NEXT_TID.fetch_add(1, Ordering::Relaxed);
        }
        ctx.seq += 1;
        let enter_seq = ctx.seq;
        let parent_enter_seq = ctx.stack.last().map(|o| o.enter_seq);
        let depth = ctx.stack.len() as u32;
        ctx.stack.push(OpenSpan {
            enter_seq,
            parent_enter_seq,
            depth,
            name,
            detail: detail.map(|f| f()),
            start_ns: wall_ns(),
            cpu_start: thread_cpu_raw_ns(),
        });
        enter_seq
    });
    SpanGuard {
        enter_seq,
        _not_send: std::marker::PhantomData,
    }
}

impl Drop for SpanGuard {
    fn drop(&mut self) {
        if self.enter_seq == 0 {
            return;
        }
        let end_ns = wall_ns();
        let cpu_now = thread_cpu_raw_ns();
        // Pop (and record) down to and including our own entry, innermost
        // first, so an out-of-order drop still yields balanced, properly
        // nested records. A guard whose span was already force-closed by
        // an outer guard finds nothing and records nothing.
        let closed = CTX.with(|ctx| {
            let mut ctx = ctx.borrow_mut();
            let Some(pos) = ctx
                .stack
                .iter()
                .rposition(|o| o.enter_seq == self.enter_seq)
            else {
                return Vec::new();
            };
            let mut closed = Vec::with_capacity(ctx.stack.len() - pos);
            while ctx.stack.len() > pos {
                let open = ctx.stack.pop().expect("stack len checked");
                ctx.seq += 1;
                let cpu_ns = match (open.cpu_start, cpu_now) {
                    (Some(a), Some(b)) => b.saturating_sub(a),
                    _ => 0,
                };
                closed.push(SpanRecord {
                    tid: ctx.tid,
                    enter_seq: open.enter_seq,
                    exit_seq: ctx.seq,
                    parent_enter_seq: open.parent_enter_seq,
                    depth: open.depth,
                    name: open.name,
                    detail: open.detail,
                    start_ns: open.start_ns,
                    dur_ns: end_ns.saturating_sub(open.start_ns),
                    cpu_ns,
                });
            }
            closed
        });
        if closed.is_empty() {
            return;
        }
        with_subscriber(move |sub| {
            for rec in closed {
                sub.span_end(rec);
            }
        });
    }
}

/// Adds `delta` to the counter `name`. No-op without a subscriber.
#[inline]
pub fn counter_add(name: &'static str, delta: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let (tid, seq) = next_seq();
    with_subscriber(|sub| sub.counter(tid, seq, name, delta));
}

/// Sets the gauge `name` to `value`. No-op without a subscriber.
#[inline]
pub fn gauge_set(name: &'static str, value: f64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let (tid, seq) = next_seq();
    with_subscriber(|sub| sub.gauge(tid, seq, name, value));
}

/// Records `value` into the log-bucket histogram `name`. No-op without a
/// subscriber.
#[inline]
pub fn hist_record(name: &'static str, value: u64) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let (tid, seq) = next_seq();
    with_subscriber(|sub| sub.histogram(tid, seq, name, value));
}

/// Attributes `value` units of work in `domain` to the netlist site named
/// by `site` — "this gate caused these STA events", "this separator cost
/// this many augmenting paths", "this demotion saved this many nW". The
/// site name is lazily built: `site` only runs when a subscriber is
/// installed, so the disabled path stays allocation-free. No-op without a
/// subscriber.
///
/// `site` returns anything string-like: a borrowed name
/// (`|| net.node(g).name()`) costs nothing to produce, and the
/// [`Recorder`] then copies it only on the site's first record in a
/// window, so attributing to an already-seen site allocates nothing.
/// Owned names (`|| format!(…)`) work too.
#[inline]
pub fn attr_add<F, S>(domain: &'static str, site: F, value: u64)
where
    F: FnOnce() -> S,
    S: AsRef<str>,
{
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let (tid, seq) = next_seq();
    let site = site();
    with_subscriber(|sub| sub.attribution(tid, seq, domain, site.as_ref(), value));
}

/// Fires an instant event with a lazily-rendered text. `text` only runs
/// when a subscriber is installed — the zero-cost successor of the old
/// `DVS_TRACE`-guarded `eprintln!`s.
#[inline]
pub fn instant<F: FnOnce() -> String>(name: &'static str, text: F) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let (tid, seq) = next_seq();
    let rec = InstantRecord {
        tid,
        seq,
        t_ns: wall_ns(),
        name,
        text: text(),
    };
    with_subscriber(|sub| sub.instant(rec));
}

/// Labels the calling thread for trace display (lazily built; e.g.
/// `|| format!("worker-{k}")`). No-op without a subscriber.
#[inline]
pub fn set_thread_label<F: FnOnce() -> String>(label: F) {
    if !ENABLED.load(Ordering::Relaxed) {
        return;
    }
    let tid = current_tid();
    let label = label();
    with_subscriber(|sub| sub.thread_label(tid, &label));
}

#[cfg(test)]
pub(crate) mod test_support {
    //! Tests that install the process-global subscriber serialize on this
    //! lock so parallel test threads cannot race each other's installs.
    use std::sync::{Mutex, MutexGuard};

    static LOCK: Mutex<()> = Mutex::new(());

    pub fn serial() -> MutexGuard<'static, ()> {
        LOCK.lock().unwrap_or_else(|e| e.into_inner())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Mutex;

    #[derive(Default)]
    struct Capture {
        spans: Mutex<Vec<SpanRecord>>,
        instants: Mutex<Vec<InstantRecord>>,
        counters: Mutex<Vec<(&'static str, u64)>>,
    }

    impl Subscriber for Capture {
        fn span_end(&self, rec: SpanRecord) {
            self.spans.lock().unwrap().push(rec);
        }
        fn instant(&self, rec: InstantRecord) {
            self.instants.lock().unwrap().push(rec);
        }
        fn counter(&self, _tid: u32, _seq: u64, name: &'static str, delta: u64) {
            self.counters.lock().unwrap().push((name, delta));
        }
    }

    #[test]
    fn spans_nest_and_carry_parentage() {
        let _serial = test_support::serial();
        let cap = Arc::new(Capture::default());
        set_subscriber(Some(cap.clone()));
        {
            let _a = span("outer");
            hist_record("h", 1);
            {
                let _b = span_with("inner", || "d".into());
            }
        }
        set_subscriber(None);
        let tid = current_tid();
        let spans: Vec<SpanRecord> = cap
            .spans
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.tid == tid)
            .cloned()
            .collect();
        assert_eq!(spans.len(), 2);
        let (inner, outer) = (&spans[0], &spans[1]);
        assert_eq!(inner.name, "inner");
        assert_eq!(inner.detail.as_deref(), Some("d"));
        assert_eq!(inner.parent_enter_seq, Some(outer.enter_seq));
        assert_eq!(inner.depth, 1);
        assert_eq!(outer.parent_enter_seq, None);
        assert!(outer.enter_seq < inner.enter_seq);
        assert!(inner.exit_seq < outer.exit_seq);
        assert!(inner.start_ns >= outer.start_ns);
    }

    #[test]
    fn disabled_path_invokes_no_closures() {
        let _serial = test_support::serial();
        set_subscriber(None);
        let _g = span_with("s", || panic!("detail built while disabled"));
        instant("i", || panic!("text built while disabled"));
        set_thread_label(|| panic!("label built while disabled"));
    }

    #[test]
    fn out_of_order_drop_keeps_stack_balanced() {
        let _serial = test_support::serial();
        let cap = Arc::new(Capture::default());
        set_subscriber(Some(cap.clone()));
        let a = span("a");
        let b = span("b");
        drop(a); // force-closes (and records) b first, then a
        drop(b); // span already closed: records nothing
        {
            let _c = span("c");
        }
        set_subscriber(None);
        let tid = current_tid();
        let spans: Vec<SpanRecord> = cap
            .spans
            .lock()
            .unwrap()
            .iter()
            .filter(|s| s.tid == tid)
            .cloned()
            .collect();
        assert_eq!(spans.len(), 3);
        assert_eq!(spans[0].name, "b");
        assert_eq!(spans[1].name, "a");
        // the force-closed pair still nests properly
        assert!(spans[1].enter_seq < spans[0].enter_seq);
        assert!(spans[0].exit_seq < spans[1].exit_seq);
        assert_eq!(spans[0].parent_enter_seq, Some(spans[1].enter_seq));
        // and the stack is balanced again: c is a fresh root
        assert_eq!(spans[2].name, "c");
        assert_eq!(spans[2].depth, 0);
        assert_eq!(spans[2].parent_enter_seq, None);
    }

    #[test]
    fn instants_and_counters_flow_through() {
        let _serial = test_support::serial();
        let cap = Arc::new(Capture::default());
        set_subscriber(Some(cap.clone()));
        counter_add("edits", 3);
        instant("ev", || "hello".into());
        set_subscriber(None);
        assert!(cap
            .counters
            .lock()
            .unwrap()
            .iter()
            .any(|&(n, d)| n == "edits" && d == 3));
        assert!(cap
            .instants
            .lock()
            .unwrap()
            .iter()
            .any(|i| i.name == "ev" && i.text == "hello"));
    }
}
