//! Property-based certification of the flow-based optimisers against the
//! brute-force oracles, over random small DAGs.

use dvs_flow::{max_weight_antichain, min_vertex_separator, SeparatorProblem, INF};
use proptest::prelude::*;

mod oracle;

/// Random DAG on `n` nodes: edges only go from lower to higher index, so
/// acyclicity holds by construction.
fn dag_strategy(max_n: usize) -> impl Strategy<Value = (usize, Vec<(usize, usize)>)> {
    (2..=max_n).prop_flat_map(|n| {
        let all_pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|u| ((u + 1)..n).map(move |v| (u, v)))
            .collect();
        let len = all_pairs.len();
        (Just(n), proptest::sample::subsequence(all_pairs, 0..=len))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn antichain_matches_brute_force(
        (n, edges) in dag_strategy(11),
        seed_weights in proptest::collection::vec(0u64..40, 11),
    ) {
        let weights: Vec<u64> = seed_weights[..n].to_vec();
        let (got_w, picked) = max_weight_antichain(n, &edges, &weights);
        let (want_w, _) = oracle::brute_antichain(n, &edges, &weights);
        prop_assert_eq!(got_w, want_w, "edges={:?} weights={:?}", edges, weights);
        prop_assert!(oracle::is_antichain(n, &edges, &picked));
        let sum: u64 = picked.iter().map(|&v| weights[v]).sum();
        prop_assert_eq!(sum, got_w);
    }

    #[test]
    fn separator_matches_brute_force(
        (n, edges) in dag_strategy(10),
        seed_weights in proptest::collection::vec(1u64..30, 10),
    ) {
        let weights: Vec<u64> = seed_weights[..n].to_vec();
        // sources: nodes with no predecessors; sinks: nodes with no successors
        let sources: Vec<usize> =
            (0..n).filter(|&v| edges.iter().all(|&(_, b)| b != v)).collect();
        let sinks: Vec<usize> =
            (0..n).filter(|&v| edges.iter().all(|&(a, _)| a != v)).collect();
        prop_assume!(!sources.is_empty() && !sinks.is_empty());
        let got = min_vertex_separator(&SeparatorProblem {
            n,
            edges: edges.clone(),
            weights: weights.clone(),
            sources: sources.clone(),
            sinks: sinks.clone(),
        });
        let want = oracle::brute_separator(n, &edges, &weights, &sources, &sinks);
        match (got, want) {
            (Some(g), Some((ww, _))) => {
                prop_assert_eq!(g.weight, ww, "edges={:?} weights={:?}", edges, weights);
                prop_assert!(oracle::is_separator(n, &edges, &sources, &sinks, &g.nodes));
                let sum: u64 = g.nodes.iter().map(|&v| weights[v]).sum();
                prop_assert_eq!(sum, g.weight);
            }
            (None, None) => {}
            (g, w) => prop_assert!(false, "disagree: flow={:?} brute={:?}", g, w),
        }
    }

    #[test]
    fn separator_with_inf_nodes_matches_brute_force(
        (n, edges) in dag_strategy(8),
        seed_weights in proptest::collection::vec(1u64..20, 8),
        inf_mask in 0u32..64,
    ) {
        let mut weights: Vec<u64> = seed_weights[..n].to_vec();
        for (v, w) in weights.iter_mut().enumerate().take(n.min(6)) {
            if inf_mask >> v & 1 == 1 {
                *w = INF;
            }
        }
        let sources: Vec<usize> =
            (0..n).filter(|&v| edges.iter().all(|&(_, b)| b != v)).collect();
        let sinks: Vec<usize> =
            (0..n).filter(|&v| edges.iter().all(|&(a, _)| a != v)).collect();
        prop_assume!(!sources.is_empty() && !sinks.is_empty());
        let got = min_vertex_separator(&SeparatorProblem {
            n,
            edges: edges.clone(),
            weights: weights.clone(),
            sources: sources.clone(),
            sinks: sinks.clone(),
        });
        let want = oracle::brute_separator(n, &edges, &weights, &sources, &sinks);
        match (got, want) {
            (Some(g), Some((ww, _))) => prop_assert_eq!(g.weight, ww),
            (None, None) => {}
            (g, w) => prop_assert!(false, "disagree: flow={:?} brute={:?}", g, w),
        }
    }

    #[test]
    fn max_flow_min_cut_duality(
        (n, edges) in dag_strategy(9),
        caps in proptest::collection::vec(1u64..50, 40),
    ) {
        prop_assume!(!edges.is_empty());
        let mut g = dvs_flow::FlowGraph::new(n);
        let mut eids = Vec::new();
        for (i, &(u, v)) in edges.iter().enumerate() {
            eids.push((g.add_edge(u, v, caps[i % caps.len()]), u, v, caps[i % caps.len()]));
        }
        let s = 0;
        let t = n - 1;
        let value = g.max_flow(s, t);
        let side = g.min_cut_side(s);
        prop_assert!(side[s]);
        prop_assert!(value == 0 || !side[t]);
        // cut capacity equals flow value
        let cut: u64 = eids
            .iter()
            .filter(|(_, u, v, _)| side[*u] && !side[*v])
            .map(|(_, _, _, c)| *c)
            .sum();
        prop_assert_eq!(cut, value);
        // flow conservation at interior nodes
        let mut net_flow = vec![0i64; n];
        for (e, u, v, _) in &eids {
            let f = g.flow_on(*e) as i64;
            net_flow[*u] -= f;
            net_flow[*v] += f;
        }
        for (v, &f) in net_flow.iter().enumerate() {
            if v != s && v != t {
                prop_assert_eq!(f, 0, "conservation at {}", v);
            }
        }
    }
}
