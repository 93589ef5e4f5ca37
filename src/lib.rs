//! # dual-vdd
//!
//! A complete Rust reproduction of **"Gate-Level Design Exploiting Dual
//! Supply Voltages for Power-Driven Applications"** (Chingwei Yeh,
//! Min-Cheng Chang, Shih-Chieh Chang, Wen-Bone Jone — DAC 1999), including
//! every substrate the paper builds on: a gate-level netlist with BLIF I/O,
//! a dual-Vdd characterised cell library, static timing analysis, a
//! random-simulation power estimator, the flow-based combinatorial
//! optimisers, and the SIS-style preparation pipeline with stand-ins for
//! the 39 MCNC benchmark circuits.
//!
//! This umbrella crate re-exports the public API of every workspace member
//! so downstream users can depend on a single crate:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`netlist`] | `dvs-netlist` | networks, BLIF, reachability |
//! | [`celllib`] | `dvs-celllib` | cells, voltages, the 72-cell library |
//! | [`sta`] | `dvs-sta` | arrival/required/slack timing |
//! | [`power`] | `dvs-power` | simulation + Eq. (1) estimation |
//! | [`flow`] | `dvs-flow` | max-flow, separators, antichains |
//! | [`synth`] | `dvs-synth` | mapping, sizing, MCNC profiles |
//! | [`core`] | `dvs-core` | CVS, Dscale, Gscale, audits |
//! | [`sweep`] | `dvs-sweep` | parallel scenario-grid sweeps, `BENCH_sweep.json` |
//!
//! # Quickstart
//!
//! ```
//! use dual_vdd::prelude::*;
//!
//! // 1. the paper's library at (5 V, 4.3 V)
//! let lib = compass_library(VoltagePair::new(5.0, 4.3));
//!
//! // 2. a benchmark stand-in, prepared exactly like the paper's setup
//! let net = generate_mcnc("b9", &lib).expect("known circuit");
//! let prepared = prepare(net, &lib, 1.2);
//!
//! // 3. run all three algorithms and compare
//! let run = run_circuit("b9", &prepared, &lib, &FlowConfig::default());
//! assert!(run.gscale.improvement_pct >= run.cvs.improvement_pct - 1e-9);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

/// Gate-level logic networks, BLIF I/O and graph utilities
/// (re-export of [`dvs_netlist`]).
pub mod netlist {
    pub use dvs_netlist::*;
}

/// Standard-cell library modelling with dual-Vdd characterisation
/// (re-export of [`dvs_celllib`]).
pub mod celllib {
    pub use dvs_celllib::*;
}

/// Static timing analysis (re-export of [`dvs_sta`]).
pub mod sta {
    pub use dvs_sta::*;
}

/// Logic simulation and power estimation (re-export of [`dvs_power`]).
pub mod power {
    pub use dvs_power::*;
}

/// Flow-based combinatorial optimisers (re-export of [`dvs_flow`]).
pub mod flow {
    pub use dvs_flow::*;
}

/// Technology mapping, sizing and benchmark generation
/// (re-export of [`dvs_synth`]).
pub mod synth {
    pub use dvs_synth::*;
}

/// The paper's algorithms: CVS, Dscale, Gscale
/// (re-export of [`dvs_core`]).
pub mod core {
    pub use dvs_core::*;
}

/// Parallel experiment sweeps: scenario grids, the worker pool and
/// machine-readable results (re-export of [`dvs_sweep`]).
pub mod sweep {
    pub use dvs_sweep::*;
}

/// The names most flows need, importable in one line.
pub mod prelude {
    pub use dvs_celllib::{
        compass::compass_library, AlphaPowerModel, Cell, GateFn, Library, LibraryBuilder,
        SizeVariant, VoltagePair,
    };
    pub use dvs_core::{
        audit, cvs, dscale, gscale, measure_power, run_circuit, time_critical_boundary, AlgoReport,
        CircuitRun, CvsOutcome, DscaleOutcome, FlowConfig, GscaleOutcome,
    };
    pub use dvs_netlist::{blif, Network, NodeId, Rail, SizeIx};
    pub use dvs_power::{estimate, simulate, Activities, PowerBreakdown};
    pub use dvs_sta::{CriticalPath, Timing};
    pub use dvs_synth::{map_sop, prepare, recover_area, size_for_min_delay, total_area, Prepared};

    /// Generates one of the paper's 39 benchmark stand-ins by name.
    pub fn generate_mcnc(name: &str, lib: &dvs_celllib::Library) -> Option<dvs_netlist::Network> {
        dvs_synth::mcnc::generate(name, lib)
    }
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn umbrella_reexports_compose() {
        let lib = compass_library(VoltagePair::default());
        let net = generate_mcnc("x2", &lib).unwrap();
        let prepared = prepare(net, &lib, 1.2);
        let t = Timing::analyze(&prepared.network, &lib, prepared.tspec_ns);
        assert!(t.meets_constraint(&prepared.network, 0.0));
    }
}
