//! # dvs-bench
//!
//! Benchmark harness regenerating every evaluation artifact of the paper:
//!
//! * `repro_table1` (binary) — Table 1: original power and the %
//!   improvement of CVS / Dscale / Gscale per circuit, plus CPU time;
//! * `repro_table2` (binary) — Table 2: low-voltage gate counts/ratios and
//!   the sizing profile;
//! * `ablation` (binary) — the design-choice ablations of DESIGN.md §7;
//! * `dvs-sweep` (binary) — scenario-grid sweeps and their JSON documents.
//!
//! The library part holds the shared experiment driver so every binary
//! measures exactly the same flow. Timings live in the repository
//! benchmark (`perfbench/`).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_core::{run_circuit, CircuitRun, FlowConfig};
use dvs_synth::mcnc::{self, Profile, PROFILES};
use dvs_synth::{prepare, Prepared};

/// The paper's library: COMPASS-like 72 cells at (5 V, 4.3 V).
pub fn paper_library() -> Library {
    compass::compass_library(VoltagePair::default())
}

/// The paper's flow configuration (20 MHz, 10 % area, maxIter 10).
pub fn paper_config() -> FlowConfig {
    FlowConfig::default()
}

/// Generates and prepares one benchmark circuit exactly as the paper does
/// (minimum-delay mapping, 20 % relaxation consumed by area recovery).
pub fn prepare_circuit(profile: &Profile, lib: &Library) -> Prepared {
    let net = mcnc::generate_profile(profile, lib);
    prepare(net, lib, 1.2)
}

/// Runs the full experiment for one circuit.
pub fn run_one(profile: &Profile, lib: &Library, cfg: &FlowConfig) -> CircuitRun {
    let prepared = prepare_circuit(profile, lib);
    run_circuit(profile.name, &prepared, lib, cfg)
}

/// Runs the full 39-circuit experiment through the `dvs-sweep` worker
/// pool, one scenario per circuit, on `jobs` workers.
///
/// Results come back in table order and are value-identical to calling
/// [`run_one`] on each profile in turn — generation and measurement are
/// fully seeded, and the CPU columns use per-thread clocks, so
/// parallelism changes neither the numbers nor their order (asserted by
/// `tests/parallel_tables.rs`).
pub fn run_all_parallel(lib: &Library, cfg: &FlowConfig, jobs: usize) -> Vec<CircuitRun> {
    let profiles: Vec<&Profile> = PROFILES.iter().collect();
    dvs_sweep::run_indexed(&profiles, jobs, |_, p| run_one(p, lib, cfg))
}

/// Mean of an iterator of f64 (0 when empty); the sweep engine's single
/// averaging convention, re-exported for the table binaries.
pub use dvs_sweep::mean;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_circuit_runs_end_to_end() {
        let lib = paper_library();
        let cfg = FlowConfig {
            sim_vectors: 256,
            ..paper_config()
        };
        let p = mcnc::find("x2").unwrap();
        let run = run_one(p, &lib, &cfg);
        assert_eq!(run.name, "x2");
        assert!(run.org_pwr_uw > 0.0);
    }

    #[test]
    fn mean_helper() {
        assert_eq!(mean([1.0, 2.0, 3.0].into_iter()), 2.0);
        assert_eq!(mean(std::iter::empty()), 0.0);
    }
}
