//! The paper's measurement protocol: independent runs of the three
//! algorithms from the same mapped starting point, random-simulation power
//! at 20 MHz, per-thread CPU time — all hosted in one transactional
//! [`FlowSession`] whose checkpoint/rollback replaces the per-algorithm
//! network clones.

use std::time::Duration;

use dvs_celllib::Library;
use dvs_netlist::{Network, Rail};
use dvs_power::{estimate, simulate};
use dvs_synth::{total_area, Prepared};

use crate::session::{FlowCounters, FlowSession};
use crate::{CpuTimer, FlowConfig};

/// Per-algorithm measurement record (one cell of Tables 1 and 2).
#[derive(Debug, Clone)]
pub struct AlgoReport {
    /// Power after the algorithm, µW.
    pub power_uw: f64,
    /// Improvement over the original power, % (Table 1).
    pub improvement_pct: f64,
    /// Low-rail logic gates (Table 2 `#`).
    pub low_gates: usize,
    /// `low_gates / logic_gates` (Table 2 `Ratio`).
    pub low_ratio: f64,
    /// Level converters inserted (Dscale only; 0 otherwise).
    pub converters: usize,
    /// Gates resized (Gscale only; 0 otherwise — Table 2 `Sizing #`).
    pub resized: usize,
    /// Fractional area increase (Table 2 `AreaInc`).
    pub area_increase: f64,
    /// CPU time charged to the executing thread (Table 1 `CPU` analogue).
    /// Measured with a per-thread clock ([`CpuTimer`]) so the column stays
    /// comparable between sequential runs and loaded worker pools; power
    /// measurement and audits between phases are nobody's time.
    /// `Dscale`'s and `Gscale`'s time includes their own opening CVS pass.
    pub cpu: Duration,
    /// Session instrumentation scoped to this algorithm's phase: the
    /// rollback that restores the pristine network (one `full_analyses`)
    /// plus everything the algorithm itself did, its opening CVS
    /// included. The algorithms absorb structural edits incrementally, and
    /// a CVS sweep is no full analysis, so rollbacks are the only full
    /// analyses a phase pays.
    pub sta: FlowCounters,
}

/// Full per-circuit record: one row of Tables 1 and 2.
#[derive(Debug, Clone)]
pub struct CircuitRun {
    /// Circuit name.
    pub name: String,
    /// Logic gate count of the prepared network.
    pub gates: usize,
    /// Timing constraint used, ns.
    pub tspec_ns: f64,
    /// Power of the prepared single-Vdd network, µW (Table 1 `OrgPwr`).
    pub org_pwr_uw: f64,
    /// The CVS baseline.
    pub cvs: AlgoReport,
    /// The paper's `Dscale`.
    pub dscale: AlgoReport,
    /// The paper's `Gscale`.
    pub gscale: AlgoReport,
}

/// Estimates total power of `net` with the configured random simulation.
pub fn measure_power(net: &Network, lib: &Library, cfg: &FlowConfig) -> f64 {
    let acts = simulate(net, lib, cfg.sim_vectors, cfg.sim_seed);
    estimate(net, lib, &acts, cfg.fclk_mhz).total_uw
}

fn low_logic_gates(net: &Network) -> usize {
    net.gate_ids()
        .filter(|&g| !net.node(g).is_converter() && net.node(g).rail() == Rail::Low)
        .count()
}

#[allow(clippy::too_many_arguments)]
fn report(
    net: &Network,
    lib: &Library,
    power: f64,
    org_pwr: f64,
    area_org: f64,
    converters: usize,
    resized: usize,
    cpu: Duration,
    sta: FlowCounters,
) -> AlgoReport {
    let logic = net.logic_gate_count();
    let low = low_logic_gates(net);
    AlgoReport {
        power_uw: power,
        improvement_pct: (org_pwr - power) / org_pwr * 100.0,
        low_gates: low,
        low_ratio: if logic == 0 {
            0.0
        } else {
            low as f64 / logic as f64
        },
        converters,
        resized,
        area_increase: (total_area(net, lib) - area_org) / area_org,
        cpu,
        sta,
    }
}

/// Runs CVS, `Dscale` and `Gscale` independently from the same prepared
/// starting point and measures everything the paper's two tables report.
///
/// One [`FlowSession`] hosts all three runs: a journal checkpoint taken on
/// the pristine mapped network replaces the per-algorithm whole-network
/// clones of the old protocol, and an O(changes) rollback restores the
/// starting point between phases. The rollback's single full re-analysis
/// is billed to the *following* phase's CPU time — exactly where the old
/// protocol paid for its clone + from-scratch `Timing::analyze` — so the
/// CPU columns stay comparable.
///
/// `Dscale` and `Gscale` each open with the same CVS pass from the same
/// rolled-back state; each runs it live ([`FlowSession::run_cvs`]), which
/// costs one reverse sweep and one forward pass over the network, and
/// their `sta` counters and `cpu` include it.
///
/// Every run is audited ([`crate::audit`]) before measurement; a violated
/// invariant is a bug, so this panics rather than reporting nonsense.
///
/// # Panics
///
/// Panics if any algorithm breaks a timing/compatibility invariant.
pub fn run_circuit(name: &str, prepared: &Prepared, lib: &Library, cfg: &FlowConfig) -> CircuitRun {
    cfg.assert_valid();
    let _span = dvs_obs::span_with("circuit", || name.to_string());
    let tspec = prepared.tspec_ns;
    let area_org = total_area(&prepared.network, lib);
    let org_pwr = measure_power(&prepared.network, lib, cfg);

    // The protocol's only network copy: everything after runs in-session.
    let mut sess = FlowSession::new(prepared.network.clone(), lib, tspec);
    let base = sess.checkpoint();

    // CVS (the session constructor already paid the initial analysis, so
    // this phase's counter delta contains pure algorithm work)
    let cpu = CpuTimer::start();
    let c0 = *sess.counters();
    let _ = sess.run_cvs(cfg.guard_ns);
    let cvs_cpu = cpu.elapsed();
    let cvs_sta = sess.counters().since(&c0);
    sess.audit(false).expect("CVS broke an invariant");
    // power measurement goes through the session's incremental engine;
    // the first query builds the cache (billed outside every phase delta,
    // like the constructor's timing analysis), later ones refresh it
    let cvs_pwr = sess.measure_power(cfg);
    let cvs_rep = report(
        sess.network(),
        lib,
        cvs_pwr,
        org_pwr,
        area_org,
        0,
        0,
        cvs_cpu,
        cvs_sta,
    );

    // Dscale
    let cpu = CpuTimer::start();
    let c0 = *sess.counters();
    sess.rollback(base);
    let d_out = sess.run_dscale(cfg);
    let d_cpu = cpu.elapsed();
    let d_sta = sess.counters().since(&c0);
    sess.audit(true).expect("Dscale broke an invariant");
    let d_pwr = sess.measure_power(cfg);
    let d_rep = report(
        sess.network(),
        lib,
        d_pwr,
        org_pwr,
        area_org,
        d_out.converters,
        0,
        d_cpu,
        d_sta,
    );

    // Gscale
    let cpu = CpuTimer::start();
    let c0 = *sess.counters();
    sess.rollback(base);
    let g_out = sess.run_gscale(cfg);
    let g_cpu = cpu.elapsed();
    let g_sta = sess.counters().since(&c0);
    sess.audit(false).expect("Gscale broke an invariant");
    let g_pwr = sess.measure_power(cfg);
    let g_rep = report(
        sess.network(),
        lib,
        g_pwr,
        org_pwr,
        area_org,
        0,
        g_out.resized.len(),
        g_cpu,
        g_sta,
    );

    CircuitRun {
        name: name.to_owned(),
        gates: prepared.network.logic_gate_count(),
        tspec_ns: tspec,
        org_pwr_uw: org_pwr,
        cvs: cvs_rep,
        dscale: d_rep,
        gscale: g_rep,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};
    use dvs_synth::{mcnc, prepare};

    #[test]
    fn run_circuit_produces_consistent_row() {
        let lib = compass::compass_library(VoltagePair::default());
        let net = mcnc::generate("x2", &lib).unwrap();
        let prepared = prepare(net, &lib, 1.2);
        let cfg = FlowConfig {
            sim_vectors: 512,
            ..FlowConfig::default()
        };
        let whole = CpuTimer::start();
        let run = run_circuit("x2", &prepared, &lib, &cfg);
        let whole = whole.elapsed();
        assert!(run.org_pwr_uw > 0.0);
        // every phase burns measurable thread CPU, and the phase clocks
        // never bill more than the whole call consumed
        for rep in [&run.cvs, &run.dscale, &run.gscale] {
            assert!(rep.cpu > Duration::ZERO);
        }
        assert!(run.cvs.cpu + run.dscale.cpu + run.gscale.cpu <= whole);
        // improvements are consistent with measured powers
        for rep in [&run.cvs, &run.dscale, &run.gscale] {
            let expect = (run.org_pwr_uw - rep.power_uw) / run.org_pwr_uw * 100.0;
            assert!((rep.improvement_pct - expect).abs() < 1e-9);
            assert!(rep.low_ratio >= 0.0 && rep.low_ratio <= 1.0);
        }
        // ordering: Dscale ≥ CVS (same slack, converters optional);
        // Gscale ≥ CVS (CVS is its first phase)
        assert!(run.dscale.improvement_pct >= run.cvs.improvement_pct - 0.5);
        assert!(run.gscale.improvement_pct >= run.cvs.improvement_pct - 0.5);
        assert_eq!(run.cvs.converters, 0);
        assert_eq!(run.gscale.converters, 0);
        assert!(run.gscale.area_increase <= cfg.max_area_increase + 1e-6);
        // session accounting: no phase ever rebuilds timing on its hot
        // path; full analyses only happen at phase-boundary rollbacks
        assert_eq!(run.cvs.sta.full_analyses, 0);
        assert_eq!(run.cvs.sta.rollbacks, 0);
        assert_eq!(run.dscale.sta.rollbacks, 1);
        assert_eq!(run.dscale.sta.full_analyses, 1);
        assert!(run.gscale.sta.rollbacks >= 1 && run.gscale.sta.rollbacks <= 2);
        assert_eq!(run.gscale.sta.full_analyses, run.gscale.sta.rollbacks);
        // power accounting: every phase serves its power queries from the
        // incremental engine — zero full-network simulations inside any
        // phase delta (the one-time cache build lands between phases, like
        // the constructor's timing analysis)
        for rep in [&run.cvs, &run.dscale, &run.gscale] {
            assert_eq!(rep.sta.full_power, 0);
        }
        assert!(
            run.dscale.sta.power_resims >= 1,
            "rollback dirtied the cache"
        );
        assert!(run.gscale.sta.power_resims >= 1);
        assert!(run.gscale.sta.full_power_avoided >= 1);
    }
}
