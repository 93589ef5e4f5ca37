//! Structured instances with analytically known optima — complementing the
//! random-instance property tests with cases whose answers are provable by
//! hand.

use dvs_flow::{max_weight_antichain, min_vertex_separator, SeparatorProblem, INF};

mod oracle;

/// `levels × width` grid DAG: node (l, i) → (l+1, i) and (l+1, (i+1) % w).
fn grid(levels: usize, width: usize) -> (usize, Vec<(usize, usize)>) {
    let n = levels * width;
    let at = |l: usize, i: usize| l * width + i;
    let mut edges = Vec::new();
    for l in 0..levels - 1 {
        for i in 0..width {
            edges.push((at(l, i), at(l + 1, i)));
            edges.push((at(l, i), at(l + 1, (i + 1) % width)));
        }
    }
    (n, edges)
}

#[test]
fn antichain_on_a_grid_is_one_level() {
    // uniform weights: any single level is a maximum antichain (width w);
    // two nodes of different levels are comparable via the wrap edges for
    // big enough level distance, but *adjacent* levels are already fully
    // connected through shared successors... the exact optimum is w.
    let (n, edges) = grid(6, 5);
    let weights = vec![10u64; n];
    let (w, picked) = max_weight_antichain(n, &edges, &weights);
    assert_eq!(w, 50, "one full level of 5 nodes at weight 10");
    assert!(oracle::is_antichain(n, &edges, &picked));
}

#[test]
fn antichain_prefers_a_heavy_level() {
    let (n, edges) = grid(4, 4);
    // level 2 is twice as heavy as the others
    let weights: Vec<u64> = (0..n).map(|v| if v / 4 == 2 { 20 } else { 10 }).collect();
    let (w, picked) = max_weight_antichain(n, &edges, &weights);
    assert_eq!(w, 80);
    assert_eq!(picked, vec![8, 9, 10, 11], "exactly level 2");
}

#[test]
fn separator_on_a_grid_is_the_cheapest_level() {
    let (n, edges) = grid(5, 4);
    // make level 3 the cheapest
    let weights: Vec<u64> = (0..n).map(|v| if v / 4 == 3 { 1 } else { 5 }).collect();
    let sources: Vec<usize> = (0..4).collect();
    let sinks: Vec<usize> = (16..20).collect();
    let r = min_vertex_separator(&SeparatorProblem {
        n,
        edges: edges.clone(),
        weights,
        sources: sources.clone(),
        sinks: sinks.clone(),
    })
    .unwrap();
    assert_eq!(r.weight, 4);
    assert_eq!(r.nodes, vec![12, 13, 14, 15], "exactly level 3");
    assert!(oracle::is_separator(n, &edges, &sources, &sinks, &r.nodes));
}

#[test]
fn separator_routes_around_an_inf_wall_with_a_gap() {
    // Level 2 is INF except one node: the separator cannot use the cheap
    // level and must cut elsewhere; verify against brute force.
    let (n, edges) = grid(4, 4);
    let mut weights: Vec<u64> = vec![3; n];
    for w in &mut weights[8..12] {
        *w = INF;
    }
    weights[9] = 1; // a gap in the wall — but its siblings stay INF
    let sources: Vec<usize> = (0..4).collect();
    let sinks: Vec<usize> = (12..16).collect();
    let got = min_vertex_separator(&SeparatorProblem {
        n,
        edges: edges.clone(),
        weights: weights.clone(),
        sources: sources.clone(),
        sinks: sinks.clone(),
    })
    .unwrap();
    let (want, _) = oracle::brute_separator(n, &edges, &weights, &sources, &sinks).unwrap();
    assert_eq!(got.weight, want);
    assert!(oracle::is_separator(
        n, &edges, &sources, &sinks, &got.nodes
    ));
}

#[test]
fn antichain_chain_of_chains() {
    // k parallel chains of length m: the optimum picks the heaviest node
    // of every chain independently.
    let k = 6;
    let m = 5;
    let n = k * m;
    let mut edges = Vec::new();
    let mut weights = vec![0u64; n];
    let mut expect = 0;
    for c in 0..k {
        for j in 0..m {
            let v = c * m + j;
            weights[v] = ((v * 7919) % 50 + 1) as u64;
            if j + 1 < m {
                edges.push((v, v + 1));
            }
        }
        expect += (0..m).map(|j| weights[c * m + j]).max().unwrap();
    }
    let (w, picked) = max_weight_antichain(n, &edges, &weights);
    assert_eq!(w, expect);
    assert_eq!(picked.len(), k, "one pick per chain");
}

#[test]
fn antichain_scales_to_thousands_of_nodes() {
    // a smoke-scale check: 40 levels × 50 nodes, uniform weights
    let (n, edges) = grid(40, 50);
    let weights = vec![7u64; n];
    let (w, picked) = max_weight_antichain(n, &edges, &weights);
    assert_eq!(w, 7 * 50);
    assert_eq!(picked.len(), 50);
}

#[test]
fn separator_weight_equals_flow_on_bottlenecks() {
    // hourglass: wide → single node → wide; the waist is the unique min cut
    let mut edges = Vec::new();
    // sources 0..4 → waist 4 → sinks 5..9
    for s in 0..4 {
        edges.push((s, 4));
    }
    for t in 5..9 {
        edges.push((4, t));
    }
    let weights = vec![2, 2, 2, 2, 3, 2, 2, 2, 2];
    let r = min_vertex_separator(&SeparatorProblem {
        n: 9,
        edges,
        weights,
        sources: (0..4).collect(),
        sinks: (5..9).collect(),
    })
    .unwrap();
    assert_eq!(r.nodes, vec![4]);
    assert_eq!(r.weight, 3);
}

#[test]
fn result_is_antichain_and_matches_oracle_on_fixed_cases() {
    type Case = (usize, Vec<(usize, usize)>, Vec<u64>);
    let cases: &[Case] = &[
        (5, vec![(0, 2), (1, 2), (2, 3), (2, 4)], vec![5, 4, 8, 3, 3]),
        (
            6,
            vec![(0, 1), (1, 2), (3, 4), (4, 5), (0, 4)],
            vec![7, 1, 5, 2, 9, 4],
        ),
        (4, vec![(0, 1), (2, 3)], vec![1, 2, 3, 4]),
        (
            7,
            vec![(0, 3), (1, 3), (2, 3), (3, 4), (3, 5), (3, 6)],
            vec![2, 2, 2, 5, 3, 3, 3],
        ),
    ];
    for (n, edges, weights) in cases {
        let (w, picked) = max_weight_antichain(*n, edges, weights);
        assert!(
            oracle::is_antichain(*n, edges, &picked),
            "not an antichain: {picked:?}"
        );
        let (want, _) = oracle::brute_antichain(*n, edges, weights);
        assert_eq!(w, want, "value mismatch on n={n} edges={edges:?}");
    }
}

/// The oracle's own checks, on hand-sized graphs.
mod oracle_tests {
    use super::oracle::*;
    use dvs_flow::INF;

    #[test]
    fn closure_transits() {
        let c = closure(3, &[(0, 1), (1, 2)]);
        assert!(c[0][2]);
        assert!(!c[2][0]);
        assert!(!c[0][0]);
    }

    #[test]
    fn antichain_predicate() {
        let edges = [(0, 1), (1, 2)];
        assert!(is_antichain(3, &edges, &[0]));
        assert!(is_antichain(3, &edges, &[]));
        assert!(!is_antichain(3, &edges, &[0, 2]));
    }

    #[test]
    fn brute_antichain_simple() {
        let (w, set) = brute_antichain(3, &[(0, 1), (0, 2)], &[1, 2, 3]);
        assert_eq!(w, 5);
        assert_eq!(set, vec![1, 2]);
    }

    #[test]
    fn separator_predicate() {
        let edges = [(0, 1), (1, 2)];
        assert!(is_separator(3, &edges, &[0], &[2], &[1]));
        assert!(is_separator(3, &edges, &[0], &[2], &[0]));
        assert!(!is_separator(3, &edges, &[0], &[2], &[]));
    }

    #[test]
    fn brute_separator_simple() {
        let (w, set) = brute_separator(3, &[(0, 1), (1, 2)], &[5, 2, 7], &[0], &[2]).unwrap();
        assert_eq!(w, 2);
        assert_eq!(set, vec![1]);
    }

    #[test]
    fn brute_separator_none_when_all_inf() {
        assert!(brute_separator(2, &[(0, 1)], &[INF, INF], &[0], &[1]).is_none());
    }
}
