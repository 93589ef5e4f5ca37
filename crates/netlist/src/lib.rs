//! # dvs-netlist
//!
//! Gate-level logic network substrate for the dual-supply-voltage design
//! flow of Yeh et al. (DAC 1999).
//!
//! The crate provides two network representations mirroring the SIS flow the
//! paper builds on:
//!
//! * [`Network`] — a *technology-mapped* combinational network. Every node is
//!   either a primary input or a gate instance referencing a library cell by
//!   an opaque [`CellRef`], carrying its drive-size index and supply
//!   [`Rail`]. This is what the voltage-scaling algorithms operate on.
//! * [`SopNetwork`] — a *technology-independent* network of sum-of-products
//!   nodes, produced by the [`blif`] reader and consumed by the technology
//!   mapper in `dvs-synth`.
//!
//! Shared utilities: topological ordering ([`Network::topo_order`], and
//! [`FanoutCone`] for one seed set's descendant cone), logic levels,
//! candidate-subset reachability ([`SubsetReach`]), in-place rewiring used for
//! level-converter insertion/removal, structural validation and statistics.
//! All flow-facing mutations can additionally be recorded in an invertible
//! edit journal ([`Network::enable_journal`]), giving O(changes)
//! [`Network::checkpoint`] / [`Network::rollback_to`] transactions instead of
//! whole-network clone snapshots.
//!
//! # Example
//!
//! ```
//! use dvs_netlist::{Network, CellRef, Rail};
//!
//! let mut net = Network::new("half_adder");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! // Cell references are opaque here; a real flow resolves them against a
//! // `dvs-celllib` library. 0 = XOR2, 1 = AND2 in this toy example.
//! let sum = net.add_gate("sum", CellRef(0), &[a, b]);
//! let carry = net.add_gate("carry", CellRef(1), &[a, b]);
//! net.add_output("sum", sum);
//! net.add_output("carry", carry);
//!
//! assert_eq!(net.gate_count(), 2);
//! assert_eq!(net.primary_input_count(), 2);
//! assert!(net.node(sum).is_gate());
//! assert_eq!(net.node(carry).rail(), Rail::High);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod blif;
mod dot;
mod error;
mod journal;
mod network;
mod reach;
mod rewire;
mod sop;
mod stats;
mod topo;
mod validate;

pub use error::NetlistError;
pub use journal::Checkpoint;
pub use network::{CellRef, Network, Node, NodeId, NodeKind, Rail, SizeIx};
pub use reach::SubsetReach;
pub use sop::{Cube, SopCover, SopNetwork, SopNode, SopNodeId};
pub use stats::NetworkStats;
pub use topo::{node_level, FanoutCone, Levels};
pub use validate::ArityOracle;
