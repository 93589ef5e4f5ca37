//! # dvs-core
//!
//! The paper's contribution: gate-level dual supply-voltage assignment for
//! designs that are not under the strictest timing budget (Yeh, Chang,
//! Chang & Jone, *Gate-Level Design Exploiting Dual Supply Voltages for
//! Power-Driven Applications*, DAC 1999).
//!
//! Three algorithms, each taking a mapped [`dvs_netlist::Network`] plus its
//! timing constraint and returning the mutated network with per-gate rail
//! assignments:
//!
//! * [`cvs`] — the clustered-voltage-scaling baseline of Usami & Horowitz:
//!   a reverse-topological traversal from the primary outputs that grows a
//!   single fanout-closed low-Vdd cluster, requiring no internal level
//!   restoration. Also computes the **time-critical boundary** (TCB).
//! * [`dscale`] — contribution #1: exploits slack *anywhere* in the
//!   circuit by inserting level converters at low→high crossings and, per
//!   iteration, demoting a **maximum-weight independent set** of the
//!   candidates' reachability (transitive) graph, so simultaneous
//!   demotions never share a path.
//! * [`gscale`] — contribution #2: *creates* slack by up-sizing a
//!   **minimum-weight vertex separator** of the critical-path network
//!   feeding the TCB (Dinic max-flow min-cut), pushing the boundary
//!   toward the primary inputs under an area budget, re-running CVS after
//!   every push.
//!
//! All three run inside a [`FlowSession`] — the transactional home of the
//! `(Network, Library, Timing)` triple. The session keeps timing
//! incrementally consistent through every rail, size and converter edit
//! (no hot-path rebuilds), provides O(changes) checkpoint/rollback via the
//! netlist edit journal (no whole-network clones), counts everything it
//! does in [`FlowCounters`], and emits its trace lines as
//! [`dvs_obs::instant`] events instead of ad-hoc stderr prints. The classic free functions ([`cvs`],
//! [`dscale`], [`gscale`]) remain as thin wrappers that open a session
//! internally.
//!
//! [`run_circuit`] packages the paper's measurement protocol (same mapped
//! starting point, independent runs, random-simulation power at 20 MHz)
//! and [`audit`] re-checks every invariant the algorithms promise.
//!
//! # Example
//!
//! ```
//! use dvs_celllib::{compass, VoltagePair};
//! use dvs_core::{run_circuit, FlowConfig};
//! use dvs_synth::{mcnc, prepare};
//!
//! let lib = compass::compass_library(VoltagePair::default());
//! let net = mcnc::generate("pcle", &lib).expect("known benchmark");
//! let prepared = prepare(net, &lib, 1.2);
//! let run = run_circuit("pcle", &prepared, &lib, &FlowConfig::default());
//! assert!(run.gscale.improvement_pct >= run.cvs.improvement_pct - 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod audit;
mod config;
mod cvs;
mod demote;
mod dscale;
mod gscale;
mod report;
mod session;

pub use audit::{audit, AuditError};
pub use config::FlowConfig;
pub use cvs::{cvs, time_critical_boundary, CvsOutcome};
pub use demote::{demotion_fits, DemotionPlan};
pub use dscale::{dscale, score_candidates, DscaleOutcome, PAR_MIN_GATES};
pub use dvs_obs::CpuTimer;
pub use gscale::{gscale, GscaleOutcome};
pub use report::{measure_power, run_circuit, AlgoReport, CircuitRun};
pub use session::{FlowCounters, FlowSession};
