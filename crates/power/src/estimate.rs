//! The Eq. (1) switching-power estimator.

use dvs_celllib::Library;
use dvs_netlist::{Network, NodeId, Rail};
use dvs_sta::load_pf;

use crate::Activities;

/// Power report of a network at one point of the flow, in µW.
#[derive(Debug, Clone)]
pub struct PowerBreakdown {
    /// Per-node switching power, indexed by [`NodeId::index`].
    per_node_uw: Vec<f64>,
    /// Total switching power of the block's gates (gate output nets plus
    /// internal capacitance).
    pub switching_uw: f64,
    /// Portion of `switching_uw` dissipated by inserted level converters
    /// (their internal energy plus the nets they drive).
    pub converter_uw: f64,
    /// Switching power of the primary-input nets. Following the SIS
    /// convention the paper measures with, this is charged to the external
    /// drivers, *not* to the block — it is reported for information but
    /// not included in [`PowerBreakdown::total_uw`].
    pub input_net_uw: f64,
    /// Static leakage, scaled with rail voltage squared.
    pub leakage_uw: f64,
    /// `switching_uw + leakage_uw`.
    pub total_uw: f64,
}

impl PowerBreakdown {
    /// Switching power attributed to `node`'s output net (and internal
    /// capacitance), µW.
    pub fn node_uw(&self, node: NodeId) -> f64 {
        self.per_node_uw[node.index()]
    }
}

/// Estimates the network's power with the paper's Eq. (1):
/// `P = a01 · f_clk · (C_load + C_int) · Vdd²`, summed over all nets, with
/// each gate's own rail voltage.
///
/// Primary-input nets are charged at the high rail (they arrive at full
/// swing). Leakage is included as a separate, small component.
///
/// # Panics
///
/// Panics if `acts` was computed on a network with fewer node slots (stale
/// after a structural edit — re-run [`crate::simulate`] first).
pub fn estimate(net: &Network, lib: &Library, acts: &Activities, fclk_mhz: f64) -> PowerBreakdown {
    assert!(
        acts.len() >= net.node_count(),
        "activities are stale: {} slots for {} nodes — re-simulate",
        acts.len(),
        net.node_count()
    );
    let mut per_node_uw = vec![0.0; net.node_count()];
    let mut switching = 0.0;
    let mut converter = 0.0;
    let mut input_net_uw = 0.0;
    let mut leakage_uw = 0.0;
    let vh = lib.rail_voltage(Rail::High);
    for id in net.node_ids() {
        let node = net.node(id);
        let load = load_pf(net, lib, id);
        if !node.is_gate() {
            // primary-input nets are charged externally (SIS convention)
            input_net_uw += acts.switching(id) * fclk_mhz * load * vh * vh;
            continue;
        }
        let size = lib.cell(node.cell()).size(node.size());
        let v = lib.rail_voltage(node.rail());
        let cap = load + size.internal_cap_pf;
        let p = acts.switching(id) * fclk_mhz * cap * v * v;
        per_node_uw[id.index()] = p;
        switching += p;
        leakage_uw += size.leakage_nw * (v / vh) * (v / vh) * 1e-3;
        if node.is_converter() {
            converter += p;
        }
    }
    PowerBreakdown {
        per_node_uw,
        switching_uw: switching,
        converter_uw: converter,
        input_net_uw,
        leakage_uw,
        total_uw: switching + leakage_uw,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulate;
    use dvs_celllib::{compass, VoltagePair};
    use dvs_netlist::SizeIx;

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    fn two_stage(lib: &Library) -> (Network, NodeId, NodeId) {
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g1 = net.add_gate("g1", inv, &[a]);
        let g2 = net.add_gate("g2", inv, &[g1]);
        net.add_output("y", g2);
        (net, g1, g2)
    }

    #[test]
    fn demotion_scales_by_energy_ratio() {
        let lib = lib();
        let (mut net, g1, _) = two_stage(&lib);
        let acts = simulate(&net, &lib, 2048, 5);
        let before = estimate(&net, &lib, &acts, 20.0);
        net.set_rail(g1, Rail::Low);
        let after = estimate(&net, &lib, &acts, 20.0);
        let ratio = after.node_uw(g1) / before.node_uw(g1);
        assert!(
            (ratio - lib.voltages().energy_ratio()).abs() < 1e-9,
            "ratio {ratio}"
        );
        assert!(after.total_uw < before.total_uw);
    }

    #[test]
    fn total_is_sum_of_parts() {
        let lib = lib();
        let (net, _, _) = two_stage(&lib);
        let acts = simulate(&net, &lib, 2048, 5);
        let p = estimate(&net, &lib, &acts, 20.0);
        let sum: f64 = net.node_ids().map(|id| p.node_uw(id)).sum();
        assert!(p.input_net_uw > 0.0);
        assert!((sum - p.switching_uw).abs() < 1e-9);
        assert!((p.total_uw - (p.switching_uw + p.leakage_uw)).abs() < 1e-12);
        assert_eq!(p.converter_uw, 0.0);
    }

    #[test]
    fn converter_power_is_tracked() {
        let lib = lib();
        let (mut net, g1, g2) = two_stage(&lib);
        net.set_rail(g1, Rail::Low);
        net.insert_converter(g1, &[g2], false, lib.converter())
            .unwrap();
        let acts = simulate(&net, &lib, 2048, 5);
        let p = estimate(&net, &lib, &acts, 20.0);
        assert!(p.converter_uw > 0.0);
        assert!(p.converter_uw < p.switching_uw);
    }

    #[test]
    fn power_scales_linearly_with_frequency() {
        let lib = lib();
        let (net, _, _) = two_stage(&lib);
        let acts = simulate(&net, &lib, 2048, 5);
        let p20 = estimate(&net, &lib, &acts, 20.0);
        let p40 = estimate(&net, &lib, &acts, 40.0);
        assert!((p40.switching_uw / p20.switching_uw - 2.0).abs() < 1e-9);
    }

    #[test]
    fn upsizing_a_sink_raises_driver_power() {
        let lib = lib();
        let (mut net, g1, g2) = two_stage(&lib);
        let acts = simulate(&net, &lib, 2048, 5);
        let before = estimate(&net, &lib, &acts, 20.0).node_uw(g1);
        net.set_size(g2, SizeIx(2));
        let after = estimate(&net, &lib, &acts, 20.0).node_uw(g1);
        assert!(after > before);
    }

    #[test]
    #[should_panic(expected = "stale")]
    fn stale_activities_rejected() {
        let lib = lib();
        let (mut net, g1, g2) = two_stage(&lib);
        let acts = simulate(&net, &lib, 256, 5);
        net.set_rail(g1, Rail::Low);
        net.insert_converter(g1, &[g2], false, lib.converter())
            .unwrap();
        let _ = estimate(&net, &lib, &acts, 20.0);
    }

    #[test]
    fn leakage_small_but_positive() {
        let lib = lib();
        let (net, _, _) = two_stage(&lib);
        let acts = simulate(&net, &lib, 2048, 5);
        let p = estimate(&net, &lib, &acts, 20.0);
        assert!(p.leakage_uw > 0.0);
        assert!(p.leakage_uw < 0.1 * p.switching_uw);
    }
}
