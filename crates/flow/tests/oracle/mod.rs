//! Brute-force reference implementations, shared by the test binaries
//! with `mod oracle;`.
//!
//! Exponential-time but obviously correct versions of the crate's
//! optimisers, for small instances (≤ ~20 nodes). Their own checks live in
//! `structured.rs`.

use dvs_flow::INF;

/// Reachability closure as one bool matrix row per node (`reach[u][v]` ⇒
/// `u` reaches `v`, irreflexive).
pub fn closure(n: usize, edges: &[(usize, usize)]) -> Vec<Vec<bool>> {
    let mut reach = vec![vec![false; n]; n];
    for &(u, v) in edges {
        reach[u][v] = true;
    }
    for k in 0..n {
        // row k cannot gain new bits during its own iteration, so a
        // snapshot keeps the in-place update borrow-clean
        let row_k = reach[k].clone();
        for row in reach.iter_mut() {
            if row[k] {
                for (j, &r) in row_k.iter().enumerate() {
                    if r {
                        row[j] = true;
                    }
                }
            }
        }
    }
    reach
}

/// Returns `true` if `set` is an antichain of the DAG: no member reaches
/// another member.
pub fn is_antichain(n: usize, edges: &[(usize, usize)], set: &[usize]) -> bool {
    let reach = closure(n, edges);
    for (i, &u) in set.iter().enumerate() {
        for &v in &set[i + 1..] {
            if reach[u][v] || reach[v][u] {
                return false;
            }
        }
    }
    true
}

/// Exhaustive maximum-weight antichain. Intended for `n ≤ 20`.
///
/// Returns `(weight, lexicographically-first optimal set)`.
///
/// # Panics
///
/// Panics if `n > 25` (subset enumeration would not terminate in reasonable
/// time).
pub fn brute_antichain(n: usize, edges: &[(usize, usize)], weights: &[u64]) -> (u64, Vec<usize>) {
    assert!(n <= 25, "brute force limited to 25 nodes, got {n}");
    let reach = closure(n, edges);
    let mut best = (0u64, Vec::new());
    for mask in 0u32..(1u32 << n) {
        let set: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
        let mut ok = true;
        'check: for (i, &u) in set.iter().enumerate() {
            for &v in &set[i + 1..] {
                if reach[u][v] || reach[v][u] {
                    ok = false;
                    break 'check;
                }
            }
        }
        if !ok {
            continue;
        }
        let w: u64 = set.iter().map(|&v| weights[v]).sum();
        if w > best.0 {
            best = (w, set);
        }
    }
    best
}

/// Returns `true` if removing `cut` disconnects every source→sink path.
pub fn is_separator(
    n: usize,
    edges: &[(usize, usize)],
    sources: &[usize],
    sinks: &[usize],
    cut: &[usize],
) -> bool {
    let blocked: Vec<bool> = (0..n).map(|v| cut.contains(&v)).collect();
    let mut reach = vec![false; n];
    let mut stack: Vec<usize> = sources.iter().copied().filter(|&v| !blocked[v]).collect();
    for &v in &stack {
        reach[v] = true;
    }
    while let Some(u) = stack.pop() {
        for &(a, b) in edges {
            if a == u && !blocked[b] && !reach[b] {
                reach[b] = true;
                stack.push(b);
            }
        }
    }
    sinks.iter().all(|&t| blocked[t] || !reach[t])
}

/// Exhaustive minimum-weight vertex separator. Intended for `n ≤ 20`.
///
/// Nodes with weight ≥ [`INF`] are never selected; returns `None` when no
/// finite separator exists.
///
/// # Panics
///
/// Panics if `n > 25`.
pub fn brute_separator(
    n: usize,
    edges: &[(usize, usize)],
    weights: &[u64],
    sources: &[usize],
    sinks: &[usize],
) -> Option<(u64, Vec<usize>)> {
    assert!(n <= 25, "brute force limited to 25 nodes, got {n}");
    let mut best: Option<(u64, Vec<usize>)> = None;
    for mask in 0u32..(1u32 << n) {
        let set: Vec<usize> = (0..n).filter(|&v| mask >> v & 1 == 1).collect();
        if set.iter().any(|&v| weights[v] >= INF) {
            continue;
        }
        let w: u64 = set.iter().map(|&v| weights[v]).sum();
        if best.as_ref().is_some_and(|(bw, _)| w >= *bw) {
            continue;
        }
        if is_separator(n, edges, sources, sinks, &set) {
            best = Some((w, set));
        }
    }
    best
}
