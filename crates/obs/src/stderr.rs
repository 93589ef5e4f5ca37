//! The classic `DVS_TRACE=1` stderr printer, reborn as a [`Subscriber`].
//!
//! Historically the flow carried its own hook plumbing to print trace
//! lines; now the phases emit [`crate::instant`] events with the same
//! rendered text and this subscriber prints them, so there is exactly one
//! emit path. Combine with a [`crate::Recorder`] via [`crate::Tee`] when
//! both printing and buffering are wanted; `dvs-sweep` does exactly that
//! when the `DVS_TRACE` environment variable is set.

use crate::record::InstantRecord;
use crate::Subscriber;

/// Prints every instant event's rendered text to stderr — byte-compatible
/// with the historical `DVS_TRACE=1` output. Ignores spans and metrics.
#[derive(Debug, Default, Clone, Copy)]
pub struct StderrTracer;

impl Subscriber for StderrTracer {
    fn instant(&self, rec: InstantRecord) {
        eprintln!("{}", rec.text);
    }
}
