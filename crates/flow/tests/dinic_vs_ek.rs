//! Differential certification of the Dinic `max_flow_counted` against an
//! Edmonds–Karp oracle kept here, over the CLRS network, random directed
//! graphs and the exact separator-shaped graphs Gscale produces.
//!
//! Both algorithms must agree on the max-flow *value* on every graph, and —
//! because every max flow of a network induces the same source-reachable
//! residual set — on the `min_cut_side` partition too. That second equality
//! is what makes swapping the algorithm invisible to `min_vertex_separator`
//! and hence to every Gscale result.

use dvs_flow::{FlowGraph, SeparatorProblem, INF};
use proptest::prelude::*;

/// A directed edge `(from, to, capacity)`.
type Edge = (usize, usize, u64);

/// Edmonds–Karp (BFS shortest augmenting paths, `O(V·E²)` — the CLRS
/// chapter-27 algorithm the paper cites) over its own residual arrays.
/// Returns the max-flow value and the source side of the minimum cut:
/// the nodes reachable from `s` in the final residual graph.
fn edmonds_karp(n: usize, edges: &[Edge], s: usize, t: usize) -> (u64, Vec<bool>) {
    // arc 2k is edge k, arc 2k + 1 its residual twin
    let mut head = Vec::with_capacity(2 * edges.len());
    let mut cap = Vec::with_capacity(2 * edges.len());
    let mut adj = vec![Vec::new(); n];
    for &(u, v, c) in edges {
        adj[u].push(head.len());
        head.push(v);
        cap.push(c);
        adj[v].push(head.len());
        head.push(u);
        cap.push(0);
    }
    let reach = |cap: &[u64], pred: &mut Vec<Option<usize>>| {
        let mut seen = vec![false; n];
        seen[s] = true;
        let mut queue = vec![s];
        let mut next = 0;
        while next < queue.len() {
            let u = queue[next];
            next += 1;
            for &a in &adj[u] {
                let v = head[a];
                if cap[a] > 0 && !seen[v] {
                    seen[v] = true;
                    pred[v] = Some(a);
                    queue.push(v);
                }
            }
        }
        seen
    };
    let mut flow = 0u64;
    loop {
        let mut pred = vec![None; n];
        let side = reach(&cap, &mut pred);
        if !side[t] {
            return (flow, side);
        }
        let path: Vec<usize> = std::iter::successors(pred[t], |&a| pred[head[a ^ 1]]).collect();
        let bottleneck = path.iter().map(|&a| cap[a]).min().expect("t != s");
        for &a in &path {
            cap[a] -= bottleneck;
            cap[a ^ 1] += bottleneck;
        }
        flow = flow.saturating_add(bottleneck);
    }
}

/// Runs Dinic on a `FlowGraph` built from `edges` and checks it against
/// [`edmonds_karp`]; returns the flow value.
fn check_against_ek(n: usize, edges: &[Edge], s: usize, t: usize) -> Result<u64, TestCaseError> {
    let mut g = FlowGraph::new(n);
    for &(u, v, c) in edges {
        g.add_edge(u, v, c);
    }
    let (flow, paths) = g.max_flow_counted(s, t);
    let (ek_flow, ek_side) = edmonds_karp(n, edges, s, t);
    prop_assert_eq!(flow, ek_flow, "edges={:?}", edges);
    // Saturated max flow ⇒ identical source-reachable residual set.
    prop_assert_eq!(
        g.min_cut_side(s),
        ek_side,
        "min-cut partition diverged on edges={:?}",
        edges
    );
    if flow > 0 {
        prop_assert!(paths >= 1);
    }
    Ok(flow)
}

#[test]
fn dinic_matches_ek_on_clrs_network() {
    // CLRS figure 26.1, max flow 23
    let edges = [
        (0, 1, 16),
        (0, 2, 13),
        (1, 2, 10),
        (2, 1, 4),
        (1, 3, 12),
        (3, 2, 9),
        (2, 4, 14),
        (4, 3, 7),
        (3, 5, 20),
        (4, 5, 4),
    ];
    assert_eq!(check_against_ek(6, &edges, 0, 5).unwrap(), 23);
}

/// Random directed graph with parallel edges and cycles allowed: exactly
/// the generality `FlowGraph` accepts.
fn graph_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<Edge>)> {
    (2..=max_n).prop_flat_map(|n| {
        (
            Just(n),
            proptest::collection::vec(
                (0..n, 0..n, 0u64..50).prop_map(|(u, v, c)| (u, v, c)),
                0..40,
            ),
        )
    })
}

/// The node-splitting reduction `SeparatorProblem::flow_graph` documents,
/// spelled out as an edge list: node `v` becomes `2v → 2v + 1` with its
/// weight, DAG edges and terminal arcs are uncuttable, `s = 2n` and
/// `t = 2n + 1`.
fn separator_edges(p: &SeparatorProblem) -> Vec<Edge> {
    let (v_in, v_out) = (|v: usize| 2 * v, |v: usize| 2 * v + 1);
    let (s, t) = (2 * p.n, 2 * p.n + 1);
    let splits = (0..p.n).map(|v| (v_in(v), v_out(v), p.weights[v].min(INF)));
    let arcs = p.edges.iter().map(|&(u, v)| (v_out(u), v_in(v), INF));
    let feeds = p.sources.iter().map(|&v| (s, v_in(v), INF));
    let drains = p.sinks.iter().map(|&v| (v_out(v), t, INF));
    splits.chain(arcs).chain(feeds).chain(drains).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn dinic_flow_and_cut_match_ek_on_random_graphs(
        (n, edges) in graph_strategy(12),
    ) {
        let edges: Vec<Edge> = edges.into_iter().filter(|&(u, v, _)| u != v).collect();
        check_against_ek(n, &edges, 0, n - 1)?;
    }

    #[test]
    fn dinic_matches_ek_on_separator_shaped_graphs(
        n in 3usize..10,
        raw_edges in proptest::collection::vec((0usize..10, 0usize..10), 0..24),
        seed_weights in proptest::collection::vec(1u64..30, 10),
    ) {
        // DAG by construction: keep only low→high index pairs.
        let edges: Vec<(usize, usize)> = raw_edges
            .into_iter()
            .map(|(a, b)| (a % n, b % n))
            .filter(|&(a, b)| a < b)
            .collect();
        let sources: Vec<usize> =
            (0..n).filter(|&v| edges.iter().all(|&(_, b)| b != v)).collect();
        let sinks: Vec<usize> =
            (0..n).filter(|&v| edges.iter().all(|&(a, _)| a != v)).collect();
        prop_assume!(!sources.is_empty() && !sinks.is_empty());
        let problem = SeparatorProblem {
            n,
            edges,
            weights: seed_weights[..n].to_vec(),
            sources,
            sinks,
        };
        // Dinic on the production reduction, EK on the spelled-out one
        let (mut dinic, s, t) = problem.flow_graph();
        prop_assert_eq!((s, t), (2 * n, 2 * n + 1));
        let (flow, _) = dinic.max_flow_counted(s, t);
        let (ek_flow, ek_side) = edmonds_karp(2 * n + 2, &separator_edges(&problem), s, t);
        prop_assert_eq!(flow, ek_flow);
        prop_assert_eq!(dinic.min_cut_side(s), ek_side);
    }
}
