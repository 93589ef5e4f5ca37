//! # dvs-power
//!
//! Switching-power estimation for dual-Vdd networks, mirroring the "generic
//! SIS power estimation function" the paper measures with: random-vector
//! logic simulation (20 MHz clock) for per-net 0→1 switching activities,
//! then Eq. (1),
//!
//! ```text
//! P_switch = a01 · f_clk · (C_load + C_internal) · Vdd²
//! ```
//!
//! summed per gate with each gate's *own* rail voltage — the whole point of
//! dual-Vdd assignment. Units: pF · V² · MHz = µW.
//!
//! Simulation is bit-parallel (64 vectors per machine word) over the cell
//! functions in `dvs-celllib`, so re-estimating after every algorithm stage
//! is cheap even for the largest MCNC profiles.
//!
//! The [`dc_leakage`] module models the driving-incompatibility penalty — a
//! low-swing output that cannot fully switch off the PMOS of a high-Vdd
//! sink — which is why the algorithms must insert level converters (or, for
//! CVS/Gscale, keep the low-Vdd region a fanout-closed cluster).
//!
//! # Incremental power
//!
//! The optimization loops re-evaluate Eq. (1) after every candidate edit,
//! and a full `simulate` per query dominates the flow's runtime at scale.
//! [`PowerState`] is the journal-aware incremental engine: it caches the
//! raw waveforms and the per-net activities, absorbs a batch of
//! [`PowerDelta`]s (mirroring the netlist edit journal) by re-simulating
//! only the dirtied fanout cones, and then calls [`estimate`] itself over
//! the cached activities. The contract is **bit compatibility**: after a
//! [`PowerState::refresh`], [`PowerState::breakdown`] equals a from-scratch
//! [`simulate`] + [`estimate`] field-for-field under `f64 ==` — not
//! epsilon-close — because both paths share the same waveform evaluation
//! and statistics counting, and the estimate is the same call.
//! See the [`incremental`] module docs for the invalidation table and the
//! differential property suite (`tests/incremental_diff.rs`) that enforces
//! the guarantee across random networks × random edit/rollback streams.
//!
//! [`incremental`]: self::PowerState
//!
//! # Example
//!
//! ```
//! use dvs_celllib::{compass, VoltagePair};
//! use dvs_netlist::{Network, Rail};
//! use dvs_power::{simulate, estimate};
//!
//! let lib = compass::compass_library(VoltagePair::default());
//! let mut net = Network::new("p");
//! let a = net.add_input("a");
//! let b = net.add_input("b");
//! let nand = net.add_gate("g", lib.find("NAND2").unwrap(), &[a, b]);
//! net.add_output("y", nand);
//!
//! let acts = simulate(&net, &lib, 1024, 7);
//! let before = estimate(&net, &lib, &acts, 20.0).total_uw;
//! net.set_rail(nand, Rail::Low);
//! let after = estimate(&net, &lib, &acts, 20.0).total_uw;
//! assert!(after < before, "demotion saves power");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod dc_leakage;
mod estimate;
mod incremental;
mod sim;

pub use estimate::{estimate, PowerBreakdown};
pub use incremental::{PowerDelta, PowerState, RefreshStats};
pub use sim::{simulate, simulate_jobs, simulate_with_probs, Activities, PAR_MIN_ROWS};
