//! Critical-path extraction.

use dvs_netlist::{Network, NodeId};

use crate::Timing;

/// The most critical primary-output path of a network.
#[derive(Debug, Clone, PartialEq)]
pub struct CriticalPath {
    /// Nodes from a primary input to the worst primary-output driver.
    pub nodes: Vec<NodeId>,
    /// Arrival time at the endpoint, ns.
    pub delay_ns: f64,
}

impl CriticalPath {
    /// Traces the worst path of `net` under `timing` by walking the
    /// maximum-arrival fanin from the latest primary-output driver back to
    /// a primary input.
    ///
    /// Returns `None` for networks without primary outputs.
    pub fn trace(net: &Network, timing: &Timing) -> Option<Self> {
        let (_, mut at) = net
            .primary_outputs()
            .iter()
            .max_by(|a, b| timing.arrival_ns(a.1).total_cmp(&timing.arrival_ns(b.1)))
            .cloned()?;
        let delay_ns = timing.arrival_ns(at);
        let mut rev = vec![at];
        while let Some(&worst) = net
            .fanins(at)
            .iter()
            .max_by(|a, b| timing.arrival_ns(**a).total_cmp(&timing.arrival_ns(**b)))
        {
            rev.push(worst);
            at = worst;
        }
        rev.reverse();
        Some(CriticalPath {
            nodes: rev,
            delay_ns,
        })
    }

    /// Number of gates on the path (primary input excluded).
    pub fn gate_len(&self, net: &Network) -> usize {
        self.nodes
            .iter()
            .filter(|&&n| net.node(n).is_gate())
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};
    use dvs_netlist::Network;

    #[test]
    fn traces_longest_branch() {
        let lib = compass::compass_library(VoltagePair::default());
        let inv = lib.find("INV").unwrap();
        let nand2 = lib.find("NAND2").unwrap();
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let short = net.add_gate("short", inv, &[a]);
        let l1 = net.add_gate("l1", inv, &[a]);
        let l2 = net.add_gate("l2", inv, &[l1]);
        let l3 = net.add_gate("l3", inv, &[l2]);
        let top = net.add_gate("top", nand2, &[short, l3]);
        net.add_output("y", top);
        let t = Timing::analyze(&net, &lib, 100.0);
        let path = CriticalPath::trace(&net, &t).unwrap();
        assert_eq!(path.nodes.first(), Some(&a));
        assert_eq!(path.nodes.last(), Some(&top));
        assert!(path.nodes.contains(&l3));
        assert!(!path.nodes.contains(&short));
        assert_eq!(path.gate_len(&net), 4);
        assert!((path.delay_ns - t.critical_delay_ns(&net)).abs() < 1e-12);
    }

    #[test]
    fn none_without_outputs() {
        let lib = compass::compass_library(VoltagePair::default());
        let net = Network::new("empty");
        let t = Timing::analyze(&net, &lib, 1.0);
        assert!(CriticalPath::trace(&net, &t).is_none());
    }
}
