//! Reference implementation of clustered voltage scaling, shared by the
//! test binaries with `mod oracle;`.
//!
//! [`incremental_cvs`] is CVS as it ran before the single reverse sweep:
//! one gate at a time in reverse topological order, each demotion absorbed
//! by [`Timing::apply_gate_change`] (a forward arrival and a backward
//! required pass through the gate's cones) before the next gate is judged.
//! It is slower but needs no argument about which values a sweep may
//! read, so `dvs_core::cvs` must match it decision for decision and bit
//! for bit.

use dvs_celllib::Library;
use dvs_core::{demotion_fits, time_critical_boundary, CvsOutcome, DemotionPlan};
use dvs_netlist::{Network, Rail};
use dvs_sta::Timing;

/// One CVS pass demoting one gate at a time.
pub fn incremental_cvs(
    net: &mut Network,
    lib: &Library,
    timing: &mut Timing,
    guard_ns: f64,
) -> CvsOutcome {
    let mut lowered = Vec::new();
    for g in net.reverse_topo_order() {
        let node = net.node(g);
        if !node.is_gate() || node.is_converter() || node.rail() == Rail::Low {
            continue;
        }
        let cluster_ok = net.fanouts(g).iter().all(|&s| {
            let sn = net.node(s);
            sn.rail() == Rail::Low && !sn.is_converter()
        });
        if !cluster_ok {
            continue;
        }
        let Some(plan) = DemotionPlan::build(net, lib, timing, g) else {
            continue;
        };
        assert!(plan.high_sinks.is_empty(), "cluster check failed");
        if demotion_fits(net, timing, &plan, guard_ns) {
            net.set_rail(g, Rail::Low);
            timing.apply_gate_change(net, lib, g);
            lowered.push(g);
        }
    }
    let tcb = time_critical_boundary(net, lib, timing, guard_ns);
    CvsOutcome { lowered, tcb }
}
