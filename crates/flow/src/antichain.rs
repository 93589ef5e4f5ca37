//! Maximum-weight antichain — the MWIS on a transitive DAG that `Dscale`
//! uses to pick compatible voltage reductions.

use crate::{FlowGraph, INF};

/// Computes a maximum-weight antichain of the DAG `(n, edges)`: a set of
/// pairwise-unreachable nodes of maximum total weight.
///
/// On the *comparability graph* of the DAG (nodes adjacent iff one reaches
/// the other) an independent set is exactly an antichain, so this is the
/// `MWIS` procedure of the paper's `Dscale` (citing Kagaris–Tragoudas).
/// `edges` may be any edge set whose reachability matches the intended
/// partial order — the transitive closure, the reduction or anything in
/// between give identical answers.
///
/// Runs as a minimum flow with node lower bounds (weighted Dilworth): build
/// the residual of the trivially feasible flow that routes `w(v)` through
/// every split node, cancel as much as possible with one max-flow run
/// from sink to source, then read the antichain off the residual
/// reachability cut. Returns `(weight, nodes)` with `nodes` sorted.
///
/// Zero-weight nodes contribute nothing and are never selected.
///
/// # Panics
///
/// Panics if `weights.len() != n`, if an edge endpoint is out of range, or
/// if any weight is ≥ [`INF`].
///
/// # Example
///
/// ```
/// use dvs_flow::max_weight_antichain;
///
/// // chain 0 → 1 → 2: only one node may be picked; the heaviest wins
/// let (w, picked) = max_weight_antichain(3, &[(0, 1), (1, 2)], &[3, 9, 4]);
/// assert_eq!((w, picked), (9, vec![1]));
/// ```
pub fn max_weight_antichain(
    n: usize,
    edges: &[(usize, usize)],
    weights: &[u64],
) -> (u64, Vec<usize>) {
    assert_eq!(weights.len(), n, "one weight per node");
    assert!(
        weights.iter().all(|&w| w < INF),
        "weights must be below INF"
    );
    if n == 0 {
        return (0, Vec::new());
    }
    let v_in = |v: usize| 2 * v;
    let v_out = |v: usize| 2 * v + 1;
    let s = 2 * n;
    let t = 2 * n + 1;

    // Residual graph of the feasible flow that pushes w(v) along
    // s → v_in → v_out → t for every node:
    //   s → v_in   : cap ∞, flow w(v)  ⇒ residual (∞, w(v))
    //   v_in→v_out : cap ∞, lower w(v), flow w(v) ⇒ residual (∞, 0)
    //   v_out → t  : cap ∞, flow w(v)  ⇒ residual (∞, w(v))
    //   u_out→v_in : cap ∞, flow 0     ⇒ residual (∞, 0)
    let mut g = FlowGraph::new(2 * n + 2);
    let mut total: u64 = 0;
    for (v, &w) in weights.iter().enumerate() {
        total += w;
        g.add_edge_with_reverse(s, v_in(v), INF, w);
        g.add_edge_with_reverse(v_in(v), v_out(v), INF, 0);
        g.add_edge_with_reverse(v_out(v), t, INF, w);
    }
    for &(u, v) in edges {
        assert!(u < n && v < n, "edge endpoint out of range");
        g.add_edge(v_out(u), v_in(v), INF);
    }

    // Cancel flow: the max t→s flow in this residual is exactly how much
    // the feasible flow exceeds the minimum flow.
    let (reducible, paths) = g.max_flow_counted(t, s);
    dvs_obs::hist_record("flow.augmenting_paths", paths);
    let min_flow = total - reducible;

    // Extraction: B = residual-reachable from t; the antichain is the set
    // of split arcs crossing from the complement into B.
    let reach = g.residual_reachable(t);
    let picked: Vec<usize> = (0..n)
        .filter(|&v| !reach[v_in(v)] && reach[v_out(v)] && weights[v] > 0)
        .collect();
    debug_assert_eq!(
        picked.iter().map(|&v| weights[v]).sum::<u64>(),
        min_flow,
        "duality gap — antichain extraction is inconsistent"
    );
    (min_flow, picked)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_graph() {
        assert_eq!(max_weight_antichain(0, &[], &[]), (0, vec![]));
    }

    #[test]
    fn isolated_nodes_all_selected() {
        let (w, picked) = max_weight_antichain(3, &[], &[2, 5, 1]);
        assert_eq!(w, 8);
        assert_eq!(picked, vec![0, 1, 2]);
    }

    #[test]
    fn chain_picks_heaviest() {
        let (w, picked) = max_weight_antichain(4, &[(0, 1), (1, 2), (2, 3)], &[3, 9, 4, 8]);
        assert_eq!(w, 9);
        assert_eq!(picked, vec![1]);
    }

    #[test]
    fn two_comparable_one_free() {
        // 0 → 1, node 2 incomparable: best = max(w0, w1) + w2
        let (w, picked) = max_weight_antichain(3, &[(0, 1)], &[3, 4, 10]);
        assert_eq!(w, 14);
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn diamond_middle_layer() {
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)];
        let (w, picked) = max_weight_antichain(4, &edges, &[3, 4, 4, 3]);
        assert_eq!(w, 8);
        assert_eq!(picked, vec![1, 2]);
    }

    #[test]
    fn heavy_single_beats_light_layer() {
        let edges = [(0, 1), (0, 2), (1, 3), (2, 3), (0, 3)];
        let (w, picked) = max_weight_antichain(4, &edges, &[3, 4, 4, 20]);
        assert_eq!(w, 20);
        assert_eq!(picked, vec![3]);
    }

    #[test]
    fn zero_weights_ignored() {
        let (w, picked) = max_weight_antichain(3, &[(0, 1)], &[0, 0, 0]);
        assert_eq!(w, 0);
        assert!(picked.is_empty());
    }

    #[test]
    fn transitive_closure_and_reduction_agree() {
        // chain of 4 given as reduction vs closure
        let red = [(0, 1), (1, 2), (2, 3)];
        let clo = [(0, 1), (1, 2), (2, 3), (0, 2), (0, 3), (1, 3)];
        let w = [5, 6, 7, 8];
        assert_eq!(
            max_weight_antichain(4, &red, &w).0,
            max_weight_antichain(4, &clo, &w).0
        );
    }
}
