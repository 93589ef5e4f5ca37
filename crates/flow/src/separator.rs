//! Minimum-weight vertex separator of a DAG via node splitting.

use crate::{FlowGraph, INF};

/// Inputs of a vertex-separator query on a DAG.
///
/// `Gscale` instantiates this on the critical-path network: `sources` are
/// the CPN nodes fed by primary inputs, `sinks` are the time-critical
/// boundary, weights are each gate's (quantised) area-per-timing-gain
/// up-sizing cost, with [`INF`] for gates already at their largest size.
#[derive(Debug, Clone)]
pub struct SeparatorProblem {
    /// Number of nodes.
    pub n: usize,
    /// Directed edges `u → v` of the DAG.
    pub edges: Vec<(usize, usize)>,
    /// Non-negative node weights; [`INF`] marks an uncuttable node.
    pub weights: Vec<u64>,
    /// Nodes where the paths to be cut begin.
    pub sources: Vec<usize>,
    /// Nodes where the paths to be cut end.
    pub sinks: Vec<usize>,
}

impl SeparatorProblem {
    /// Builds the node-split flow network of the standard reduction and
    /// returns `(graph, super_source, super_sink)`. Exposed so
    /// differential tests can run alternative max-flow algorithms on the
    /// exact separator-shaped graphs `Gscale` produces.
    ///
    /// # Panics
    ///
    /// Panics if `weights.len() != n` or an edge endpoint is out of range.
    pub fn flow_graph(&self) -> (FlowGraph, usize, usize) {
        let n = self.n;
        assert_eq!(self.weights.len(), n, "one weight per node");
        let v_in = |v: usize| 2 * v;
        let v_out = |v: usize| 2 * v + 1;
        let s = 2 * n;
        let t = 2 * n + 1;
        let mut g = FlowGraph::new(2 * n + 2);
        for v in 0..n {
            g.add_edge(v_in(v), v_out(v), self.weights[v].min(INF));
        }
        for &(u, v) in &self.edges {
            assert!(u < n && v < n, "edge endpoint out of range");
            g.add_edge(v_out(u), v_in(v), INF);
        }
        for &src in &self.sources {
            g.add_edge(s, v_in(src), INF);
        }
        for &snk in &self.sinks {
            g.add_edge(v_out(snk), t, INF);
        }
        (g, s, t)
    }
}

/// A minimum-weight vertex separator.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SeparatorResult {
    /// The selected nodes; every source→sink path passes through one.
    pub nodes: Vec<usize>,
    /// Total weight (the min-cut value).
    pub weight: u64,
    /// Augmenting paths the underlying max-flow ran — the work this
    /// separator cost, surfaced so callers can attribute flow effort to
    /// the boundary that caused it.
    pub paths: u64,
}

/// Computes a minimum-weight set of nodes intersecting every directed
/// source→sink path.
///
/// Standard reduction: split every node `v` into `v_in → v_out` with arc
/// capacity `w(v)`; graph edges become `u_out → v_in` with capacity ∞; a
/// super-source feeds every source's `v_in` and every sink's `v_out` feeds
/// a super-sink. The max-flow min cut then crosses only split arcs,
/// which *are* the separator.
///
/// Returns `None` when no finite-weight separator exists (some source→sink
/// path consists entirely of [`INF`]-weight nodes) — `Gscale` treats that
/// as "this boundary cannot be pushed further".
///
/// # Panics
///
/// Panics if `weights.len() != n`, if an edge endpoint is out of range, or
/// if `sources`/`sinks` is empty.
pub fn min_vertex_separator(problem: &SeparatorProblem) -> Option<SeparatorResult> {
    let n = problem.n;
    assert!(
        !problem.sources.is_empty() && !problem.sinks.is_empty(),
        "separator needs sources and sinks"
    );
    let v_in = |v: usize| 2 * v;
    let v_out = |v: usize| 2 * v + 1;
    let (mut g, s, t) = problem.flow_graph();
    let (value, paths) = g.max_flow_counted(s, t);
    dvs_obs::hist_record("flow.augmenting_paths", paths);
    if value >= INF {
        return None;
    }
    let side = g.min_cut_side(s);
    let mut nodes: Vec<usize> = (0..n)
        .filter(|&v| side[v_in(v)] && !side[v_out(v)])
        .collect();
    nodes.sort_unstable();
    dvs_obs::hist_record("flow.separator_size", nodes.len() as u64);
    Some(SeparatorResult {
        nodes,
        weight: value,
        paths,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn solve(
        n: usize,
        edges: &[(usize, usize)],
        weights: &[u64],
        sources: &[usize],
        sinks: &[usize],
    ) -> Option<SeparatorResult> {
        min_vertex_separator(&SeparatorProblem {
            n,
            edges: edges.to_vec(),
            weights: weights.to_vec(),
            sources: sources.to_vec(),
            sinks: sinks.to_vec(),
        })
    }

    #[test]
    fn single_chain_picks_cheapest() {
        // 0 → 1 → 2, weights 5, 2, 7: the separator is node 1.
        let r = solve(3, &[(0, 1), (1, 2)], &[5, 2, 7], &[0], &[2]).unwrap();
        assert_eq!(r.nodes, vec![1]);
        assert_eq!(r.weight, 2);
    }

    #[test]
    fn source_equal_sink_must_be_cut() {
        let r = solve(1, &[], &[4], &[0], &[0]).unwrap();
        assert_eq!(r.nodes, vec![0]);
        assert_eq!(r.weight, 4);
    }

    #[test]
    fn diamond_prefers_narrow_waist() {
        //    1
        //  /   \
        // 0     3      weights: ends heavy, middle light
        //  \   /
        //    2
        let r = solve(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[100, 3, 4, 100],
            &[0],
            &[3],
        )
        .unwrap();
        assert_eq!(r.nodes, vec![1, 2]);
        assert_eq!(r.weight, 7);
    }

    #[test]
    fn bottleneck_beats_wide_layer() {
        // two parallel chains converging on one cheap node then fanning out
        // 0→2, 1→2, 2→3, 2→4
        let r = solve(
            5,
            &[(0, 2), (1, 2), (2, 3), (2, 4)],
            &[10, 10, 5, 10, 10],
            &[0, 1],
            &[3, 4],
        )
        .unwrap();
        assert_eq!(r.nodes, vec![2]);
        assert_eq!(r.weight, 5);
    }

    #[test]
    fn all_inf_path_unseparable() {
        let r = solve(2, &[(0, 1)], &[INF, INF], &[0], &[1]);
        assert!(r.is_none());
    }

    #[test]
    fn inf_nodes_routed_around() {
        // 0 → 1 → 3 and 0 → 2 → 3; node 1 uncuttable, node 2 cheap:
        // cut must still block both branches, so it takes 2 and one of
        // {0, 3} (both weight 6) over the INF node.
        let r = solve(
            4,
            &[(0, 1), (0, 2), (1, 3), (2, 3)],
            &[6, INF, 1, 6],
            &[0],
            &[3],
        )
        .unwrap();
        assert_eq!(r.weight, 6);
        assert!(r.nodes == vec![0] || r.nodes == vec![3]);
    }

    #[test]
    fn separator_blocks_every_path() {
        // randomised-ish layered DAG, verified against the path predicate
        let edges = [
            (0, 2),
            (0, 3),
            (1, 3),
            (2, 4),
            (3, 4),
            (3, 5),
            (4, 6),
            (5, 6),
        ];
        let weights = [9, 9, 2, 3, 4, 2, 9];
        let r = solve(7, &edges, &weights, &[0, 1], &[6]).unwrap();
        // removing r.nodes must disconnect sources from sinks
        let blocked: Vec<bool> = (0..7).map(|v| r.nodes.contains(&v)).collect();
        let mut reach = [false; 7];
        let mut stack: Vec<usize> = [0usize, 1]
            .iter()
            .copied()
            .filter(|&v| !blocked[v])
            .collect();
        for &v in &stack {
            reach[v] = true;
        }
        while let Some(u) = stack.pop() {
            for &(a, b) in &edges {
                if a == u && !blocked[b] && !reach[b] {
                    reach[b] = true;
                    stack.push(b);
                }
            }
        }
        assert!(!reach[6], "separator {:?} fails to block", r.nodes);
    }

    #[test]
    #[should_panic(expected = "sources and sinks")]
    fn empty_sources_rejected() {
        solve(1, &[], &[1], &[], &[0]);
    }
}
