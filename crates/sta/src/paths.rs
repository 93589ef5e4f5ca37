//! Near-critical path enumeration.
//!
//! The paper's future-work section calls for "advanced timing analysis,
//! such as false path elimination"; the building block for any of that is
//! being able to enumerate the K worst paths rather than just the single
//! critical one. This module provides a simple branch-and-bound
//! enumeration over the timing graph: paths are expanded backwards from
//! the worst primary-output drivers, always extending along the fanin
//! whose arrival bounds the achievable path delay.

use dvs_netlist::{Network, NodeId};

use crate::Timing;

/// One enumerated path, worst first.
#[derive(Debug, Clone, PartialEq)]
pub struct TimedPath {
    /// Nodes from a primary input to a primary-output driver.
    pub nodes: Vec<NodeId>,
    /// End-to-end delay of the path, ns.
    pub delay_ns: f64,
}

/// Enumerates the `k` longest PI→PO paths of the network under `timing`,
/// in non-increasing delay order.
///
/// Runs a best-first search over partial paths (a partial path's bound is
/// the arrival time of its current head plus the delay already committed
/// downstream), so the cost is `O(k · depth · log)` rather than the
/// exponential number of paths.
///
/// Returns fewer than `k` paths when the network has fewer distinct paths.
pub fn k_worst_paths(net: &Network, timing: &Timing, k: usize) -> Vec<TimedPath> {
    use std::cmp::Ordering;
    use std::collections::BinaryHeap;

    /// partial path, expanded from a PO driver back toward the inputs
    struct Partial {
        /// upper bound on the full path delay (exact once `head` is a PI)
        bound: f64,
        /// delay of the committed suffix (head excluded)
        suffix: f64,
        /// current head (next node to expand through its fanins)
        head: NodeId,
        /// committed nodes, PO driver first
        rev_nodes: Vec<NodeId>,
    }
    impl PartialEq for Partial {
        fn eq(&self, other: &Self) -> bool {
            self.bound == other.bound
        }
    }
    impl Eq for Partial {}
    impl PartialOrd for Partial {
        fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
            Some(self.cmp(other))
        }
    }
    impl Ord for Partial {
        fn cmp(&self, other: &Self) -> Ordering {
            self.bound.total_cmp(&other.bound)
        }
    }

    let mut heap: BinaryHeap<Partial> = BinaryHeap::new();
    // seed with the distinct PO drivers
    let mut seeded: Vec<NodeId> = Vec::new();
    for (_, driver) in net.primary_outputs() {
        if seeded.contains(driver) {
            continue;
        }
        seeded.push(*driver);
        heap.push(Partial {
            bound: timing.arrival_ns(*driver),
            suffix: 0.0,
            head: *driver,
            rev_nodes: Vec::new(),
        });
    }

    let mut out = Vec::with_capacity(k);
    while let Some(p) = heap.pop() {
        if out.len() >= k {
            break;
        }
        let mut rev = p.rev_nodes.clone();
        rev.push(p.head);
        if net.fanins(p.head).is_empty() {
            // reached a primary input (or a source gate): the bound is the
            // exact path delay
            let mut nodes = rev;
            nodes.reverse();
            out.push(TimedPath {
                nodes,
                delay_ns: p.bound,
            });
            continue;
        }
        let suffix = p.suffix + timing.delay_ns(p.head);
        for &f in net.fanins(p.head) {
            heap.push(Partial {
                bound: timing.arrival_ns(f) + suffix,
                suffix,
                head: f,
                rev_nodes: rev.clone(),
            });
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};
    use dvs_netlist::Network;

    fn lib() -> dvs_celllib::Library {
        compass::compass_library(VoltagePair::default())
    }

    /// two POs with branch-diverse depths: path set is fully enumerable
    fn fixture(lib: &dvs_celllib::Library) -> Network {
        let inv = lib.find("INV").unwrap();
        let nand2 = lib.find("NAND2").unwrap();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let l1 = net.add_gate("l1", inv, &[a]);
        let l2 = net.add_gate("l2", inv, &[l1]);
        let m = net.add_gate("m", nand2, &[l2, b]);
        let s = net.add_gate("s", inv, &[b]);
        net.add_output("deep", m);
        net.add_output("shallow", s);
        net
    }

    #[test]
    fn first_path_is_the_critical_path() {
        let lib = lib();
        let net = fixture(&lib);
        let t = Timing::analyze(&net, &lib, 100.0);
        let paths = k_worst_paths(&net, &t, 1);
        assert_eq!(paths.len(), 1);
        assert!((paths[0].delay_ns - t.critical_delay_ns(&net)).abs() < 1e-12);
        let crit = crate::CriticalPath::trace(&net, &t).unwrap();
        assert_eq!(paths[0].nodes, crit.nodes);
    }

    #[test]
    fn paths_come_out_sorted_and_distinct() {
        let lib = lib();
        let net = fixture(&lib);
        let t = Timing::analyze(&net, &lib, 100.0);
        let paths = k_worst_paths(&net, &t, 10);
        // fixture has exactly 3 PI→PO paths: a→l1→l2→m, b→m, b→s
        assert_eq!(paths.len(), 3);
        for w in paths.windows(2) {
            assert!(w[0].delay_ns >= w[1].delay_ns - 1e-12, "not sorted");
        }
        let node_sets: Vec<_> = paths.iter().map(|p| p.nodes.clone()).collect();
        for (i, a) in node_sets.iter().enumerate() {
            for b in &node_sets[i + 1..] {
                assert_ne!(a, b, "duplicate path");
            }
        }
        // every path starts at a PI and ends at a PO driver
        for p in &paths {
            assert!(net.node(p.nodes[0]).is_input());
            assert!(net.drives_output(*p.nodes.last().unwrap()));
        }
    }

    #[test]
    fn k_larger_than_path_count_is_fine() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let g = net.add_gate("g", inv, &[a]);
        net.add_output("y", g);
        let t = Timing::analyze(&net, &lib, 1.0);
        let paths = k_worst_paths(&net, &t, 100);
        assert_eq!(paths.len(), 1);
    }

    #[test]
    fn reconvergence_counts_each_route() {
        let lib = lib();
        let nand2 = lib.find("NAND2").unwrap();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("r");
        let a = net.add_input("a");
        let p = net.add_gate("p", inv, &[a]);
        let q = net.add_gate("q", inv, &[a]);
        let m = net.add_gate("m", nand2, &[p, q]);
        net.add_output("y", m);
        let t = Timing::analyze(&net, &lib, 10.0);
        // a→p→m and a→q→m are distinct routes through the reconvergence
        let paths = k_worst_paths(&net, &t, 10);
        assert_eq!(paths.len(), 2);
    }
}
