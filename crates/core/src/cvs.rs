//! Clustered voltage scaling (CVS) — the Usami–Horowitz baseline the paper
//! builds on, plus the time-critical-boundary computation both `Dscale`
//! and `Gscale` start from.

use dvs_celllib::Library;
use dvs_netlist::{Network, NodeId, Rail};
use dvs_sta::Timing;

use crate::demote::{demotion_fits, DemotionPlan};
use crate::session::FlowCounters;

/// Result of a CVS pass.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CvsOutcome {
    /// Gates demoted to the low rail by this pass, in traversal order.
    pub lowered: Vec<NodeId>,
    /// The time-critical boundary after the pass: high-Vdd gates that
    /// (1) would violate timing if demoted and (2) sit next to the low
    /// cluster (a low fanout or a primary-output tap).
    pub tcb: Vec<NodeId>,
}

/// Runs one clustered-voltage-scaling pass.
///
/// Traverses the live gates in reverse topological order (the BFS from
/// primary outputs of reference \[8\]): a gate joins the low cluster iff
/// every fanout gate is already low — so the cluster stays fanout-closed
/// and needs no internal level restoration — and the alpha-power slowdown
/// fits its slack ([`demotion_fits`]). Already-low gates are kept, so
/// re-running after `Gscale`'s resizing *extends* the cluster ("the new CVS
/// operates with every TCB").
///
/// The traversal is one [`Timing::lower_sweep`]: a backward pass that sets
/// required times and takes each decision as it reaches the gate, then one
/// forward pass of arrivals. When a gate is reached its fanouts are
/// settled, and its arrival and load are those of the entry state, so the
/// decisions and the resulting timing are exactly those of re-timing the
/// network incrementally after every demotion, at the cost of two passes
/// over the network.
///
/// `timing` must be up to date for `net`; the pass leaves it equal to a
/// fresh analysis of the lowered network.
pub fn cvs(net: &mut Network, lib: &Library, timing: &mut Timing, guard_ns: f64) -> CvsOutcome {
    cvs_counted(net, lib, timing, guard_ns, &mut FlowCounters::default())
}

/// [`cvs`] with instrumentation: the pass bumps `counters` by its rail
/// edits and its sweep's STA events, and attributes one `session.edits`
/// record to each demoted gate. [`crate::FlowSession::run_cvs`] calls this
/// so session-hosted passes stay fully counted.
pub(crate) fn cvs_counted(
    net: &mut Network,
    lib: &Library,
    timing: &mut Timing,
    guard_ns: f64,
    counters: &mut FlowCounters,
) -> CvsOutcome {
    let _span = dvs_obs::span("cvs");
    let mut lowered = Vec::new();
    let events = timing.lower_sweep(net, lib, |net, timing, g| {
        let joins_cluster = net.fanouts(g).iter().all(|&s| {
            let sn = net.node(s);
            sn.rail() == Rail::Low && !sn.is_converter()
        });
        // `build` refuses primary inputs, converters and low gates
        let fits = joins_cluster
            && DemotionPlan::build(net, lib, timing, g).is_some_and(|plan| {
                debug_assert!(plan.high_sinks.is_empty(), "cluster check failed");
                demotion_fits(net, timing, &plan, guard_ns)
            });
        if fits {
            // this path bypasses the session's set_rail, so it must emit
            // its own attribution
            dvs_obs::attr_add("session.edits", || net.node(g).name(), 1);
            lowered.push(g);
        }
        fits
    });
    counters.rail_edits += lowered.len() as u64;
    counters.sta_events += events as u64;
    let tcb = time_critical_boundary(net, lib, timing, guard_ns);
    CvsOutcome { lowered, tcb }
}

/// Computes the time-critical boundary of the current assignment: the
/// high-Vdd gates "sitting next to the low-voltage ones" whose demotion
/// would violate the timing constraint.
///
/// A gate qualifies when it is on the high rail, demoting it does not fit
/// (condition 1 of the paper's definition), and either some fanout is
/// already low or it drives a primary output (condition 2 — PO taps seed
/// the boundary when CVS lowers nothing at all, e.g. C1355).
pub fn time_critical_boundary(
    net: &Network,
    lib: &Library,
    timing: &Timing,
    guard_ns: f64,
) -> Vec<NodeId> {
    let mut tcb = Vec::new();
    for g in net.gate_ids() {
        let node = net.node(g);
        if node.rail() == Rail::Low || node.is_converter() {
            continue;
        }
        let next_to_cluster = net.drives_output(g)
            || net.fanouts(g).iter().any(|&s| {
                let sn = net.node(s);
                sn.rail() == Rail::Low && !sn.is_converter()
            });
        if !next_to_cluster {
            continue;
        }
        let plan = match DemotionPlan::build(net, lib, timing, g) {
            Some(p) => p,
            None => continue,
        };
        if !demotion_fits(net, timing, &plan, guard_ns) {
            tcb.push(g);
        }
    }
    tcb.sort_unstable();
    tcb
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    /// chain with generous slack: CVS should take everything
    #[test]
    fn slack_chain_fully_lowered() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("c");
        let mut prev = net.add_input("a");
        let mut gates = Vec::new();
        for k in 0..6 {
            prev = net.add_gate(format!("g{k}"), inv, &[prev]);
            gates.push(prev);
        }
        net.add_output("y", prev);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let mut timing = Timing::analyze(&net, &lib, 2.0 * nominal);
        let out = cvs(&mut net, &lib, &mut timing, 1e-9);
        assert_eq!(out.lowered.len(), 6);
        assert!(out.tcb.is_empty());
        assert!(timing.meets_constraint(&net, 1e-9));
        for &g in &gates {
            assert_eq!(net.node(g).rail(), Rail::Low);
        }
    }

    /// zero slack: nothing is lowered, PO driver forms the boundary
    #[test]
    fn tight_chain_yields_po_tcb() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("c");
        let mut prev = net.add_input("a");
        for k in 0..6 {
            prev = net.add_gate(format!("g{k}"), inv, &[prev]);
        }
        net.add_output("y", prev);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let mut timing = Timing::analyze(&net, &lib, nominal);
        let out = cvs(&mut net, &lib, &mut timing, 1e-9);
        assert!(out.lowered.is_empty());
        assert_eq!(out.tcb, vec![prev]);
    }

    /// partial slack: the cluster stops exactly where timing runs out and
    /// the boundary gate is reported
    #[test]
    fn cluster_grows_until_slack_runs_out() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("c");
        let mut prev = net.add_input("a");
        let mut gates = Vec::new();
        for k in 0..10 {
            prev = net.add_gate(format!("g{k}"), inv, &[prev]);
            gates.push(prev);
        }
        net.add_output("y", prev);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        // budget for exactly three demotions, measured from the real gate
        // delays (the PO driver is heavier than interior stages)
        let probe = Timing::analyze(&net, &lib, nominal);
        let derate = lib.derate(Rail::Low) - 1.0;
        let budget: f64 = derate
            * (probe.delay_ns(gates[9]) + probe.delay_ns(gates[8]) + probe.delay_ns(gates[7]))
            + 0.2 * derate * probe.delay_ns(gates[6]);
        let mut timing = Timing::analyze(&net, &lib, nominal + budget);
        let out = cvs(&mut net, &lib, &mut timing, 1e-9);
        assert_eq!(out.lowered.len(), 3, "expected 3 demotions");
        // lowered gates are the suffix of the chain (closest to the PO)
        for &g in &gates[7..] {
            assert_eq!(net.node(g).rail(), Rail::Low);
        }
        assert_eq!(out.tcb, vec![gates[6]]);
        assert!(timing.meets_constraint(&net, 1e-9));
    }

    /// a gate with a high-V fanout can never join the cluster
    #[test]
    fn mixed_fanout_blocks_cluster() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let nand2 = lib.find("NAND2").unwrap();
        let mut net = Network::new("m");
        let a = net.add_input("a");
        let shared = net.add_gate("shared", inv, &[a]);
        let fast = net.add_gate("fast", inv, &[shared]);
        // deep chain from `shared` so it stays critical
        let mut deep = shared;
        for k in 0..8 {
            deep = net.add_gate(format!("d{k}"), nand2, &[deep, a]);
        }
        net.add_output("f", fast);
        net.add_output("d", deep);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        // slack budget fits `fast` while the deep chain stays critical
        let mut timing = Timing::analyze(&net, &lib, nominal * 1.02);
        let _ = cvs(&mut net, &lib, &mut timing, 1e-9);
        assert_eq!(net.node(fast).rail(), Rail::Low, "shallow PO cone demotes");
        assert_eq!(
            net.node(shared).rail(),
            Rail::High,
            "mixed-fanout gate must stay high"
        );
    }

    /// CVS re-run keeps previous demotions (monotone cluster growth)
    #[test]
    fn rerun_is_monotone() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("c");
        let mut prev = net.add_input("a");
        for k in 0..5 {
            prev = net.add_gate(format!("g{k}"), inv, &[prev]);
        }
        net.add_output("y", prev);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let mut timing = Timing::analyze(&net, &lib, 1.5 * nominal);
        let first = cvs(&mut net, &lib, &mut timing, 1e-9);
        let low_after_first: Vec<NodeId> = net
            .gate_ids()
            .filter(|&g| net.node(g).rail() == Rail::Low)
            .collect();
        let second = cvs(&mut net, &lib, &mut timing, 1e-9);
        for g in &low_after_first {
            assert_eq!(net.node(*g).rail(), Rail::Low);
        }
        assert!(second.lowered.len() <= first.lowered.len());
    }
}
