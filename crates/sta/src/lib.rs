//! # dvs-sta
//!
//! Static timing analysis for mapped dual-Vdd networks, modelled on the
//! "simple static timing analysis" the paper relies on: a pin-to-pin linear
//! delay model with Elmore-style capacitive loading, single forward
//! (arrival) and backward (required) passes in `O(n + e)`, plus worklist
//! incremental updates so the CVS traversal can re-check timing after every
//! accepted voltage reduction without re-analysing the whole block.
//!
//! Delay of a gate `g` at rail `r` driving load `C`:
//!
//! ```text
//! d(g) = derate(r) · (intrinsic(cell, size) + drive_res(cell, size) · C)
//! C    = Σ fanout pin caps + wire cap · #sinks + PO load · #PO sinks
//! ```
//!
//! # Example
//!
//! ```
//! use dvs_celllib::{compass, VoltagePair};
//! use dvs_netlist::{Network, Rail};
//! use dvs_sta::Timing;
//!
//! let lib = compass::compass_library(VoltagePair::default());
//! let mut net = Network::new("chain");
//! let a = net.add_input("a");
//! let inv = lib.find("INV").unwrap();
//! let g1 = net.add_gate("g1", inv, &[a]);
//! let g2 = net.add_gate("g2", inv, &[g1]);
//! net.add_output("y", g2);
//!
//! let timing = Timing::analyze(&net, &lib, 10.0);
//! assert!(timing.arrival_ns(g2) > timing.arrival_ns(g1));
//! assert!(timing.meets_constraint(&net, 1e-9));
//!
//! // Demoting a gate to the low rail slows it; the incremental update
//! // agrees with a from-scratch analysis.
//! let mut t2 = timing.clone();
//! net.set_rail(g1, Rail::Low);
//! t2.apply_gate_change(&net, &lib, g1);
//! let fresh = Timing::analyze(&net, &lib, 10.0);
//! assert!((t2.arrival_ns(g2) - fresh.arrival_ns(g2)).abs() < 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod critical;
mod load;
mod paths;
mod timing;

pub use critical::CriticalPath;
pub use load::load_pf;
pub use paths::{k_worst_paths, TimedPath};
pub use timing::Timing;
