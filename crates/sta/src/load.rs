//! Capacitive load computation.

use dvs_celllib::Library;
use dvs_netlist::{Network, NodeId};

/// Capacitive load (pF) seen by `node`'s output net.
///
/// Sums the input-pin capacitances of all gate sinks (at their current drive
/// sizes), a per-sink wire capacitance, and the library's primary-output
/// load for each PO the net drives ([`Network::po_sink_count`]).
pub fn load_pf(net: &Network, lib: &Library, node: NodeId) -> f64 {
    let mut load = 0.0;
    for &sink in net.fanouts(node) {
        let s = net.node(sink);
        load += lib.cell(s.cell()).size(s.size()).input_cap_pf;
        load += lib.wire_cap_per_fanout_pf();
    }
    let pos = net.po_sink_count(node) as f64;
    load + pos * (lib.po_load_pf() + lib.wire_cap_per_fanout_pf())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};
    use dvs_netlist::SizeIx;

    #[test]
    fn load_sums_sink_caps_and_po_load() {
        let lib = compass_lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("l");
        let a = net.add_input("a");
        let g1 = net.add_gate("g1", inv, &[a]);
        let s1 = net.add_gate("s1", inv, &[g1]);
        let s2 = net.add_gate("s2", inv, &[g1]);
        net.add_output("o", g1);
        net.add_output("o2", s1);
        net.add_output("o3", s2);
        assert_eq!(net.po_sink_count(g1), 1);
        let cap_inv = lib.cell(inv).size(SizeIx(0)).input_cap_pf;
        let want = 2.0 * (cap_inv + lib.wire_cap_per_fanout_pf())
            + lib.po_load_pf()
            + lib.wire_cap_per_fanout_pf();
        let got = load_pf(&net, &lib, g1);
        assert!((got - want).abs() < 1e-12, "got {got}, want {want}");
    }

    #[test]
    fn upsizing_a_sink_increases_driver_load() {
        let lib = compass_lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("l");
        let a = net.add_input("a");
        let g1 = net.add_gate("g1", inv, &[a]);
        let s = net.add_gate("s", inv, &[g1]);
        net.add_output("o", s);
        let before = load_pf(&net, &lib, g1);
        net.set_size(s, SizeIx(2));
        let after = load_pf(&net, &lib, g1);
        assert!(after > before);
    }

    fn compass_lib() -> dvs_celllib::Library {
        compass::compass_library(VoltagePair::default())
    }
}
