//! Residual flow-graph representation and Dinic max-flow (with the
//! Edmonds–Karp reference implementation kept as a differential oracle).

/// Capacity treated as unbounded. Large enough that no sum of real
/// capacities reaches it, small enough that additions cannot overflow.
pub const INF: u64 = u64::MAX / 4;

/// Node-count cutoff below which [`FlowGraph::max_flow_counted`] augments
/// shortest paths one at a time (the Edmonds–Karp schedule) instead of
/// running blocking flows. On graphs this small the level-graph DFS and
/// its exhaust sweep cost more than they save — the same reason sort
/// implementations fall back to insertion sort on short runs. The rule
/// is a pure function of the graph, so determinism is unaffected, and
/// the worst case on ≤ `SMALL_N` nodes is bounded and tiny.
const SMALL_N: usize = 128;

/// Identifier of a directed edge added with [`FlowGraph::add_edge`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct EdgeId(pub(crate) u32);

/// A directed graph with residual capacities supporting max-flow queries.
///
/// Every [`FlowGraph::add_edge`] call creates the forward edge and its
/// residual twin (capacity 0 by default, or an explicit reverse capacity
/// with [`FlowGraph::add_edge_with_reverse`], which is what the minimum-flow
/// construction in [`crate::max_weight_antichain`] needs).
///
/// # Example
///
/// ```
/// use dvs_flow::FlowGraph;
///
/// let mut g = FlowGraph::new(4);
/// g.add_edge(0, 1, 3);
/// g.add_edge(0, 2, 2);
/// g.add_edge(1, 3, 2);
/// g.add_edge(2, 3, 3);
/// assert_eq!(g.max_flow(0, 3), 4);
/// ```
#[derive(Debug, Clone)]
pub struct FlowGraph {
    n: usize,
    to: Vec<u32>,
    cap: Vec<u64>,
    orig_cap: Vec<u64>,
    adj: Vec<Vec<u32>>,
}

impl FlowGraph {
    /// Creates a graph with `n` nodes and no edges.
    pub fn new(n: usize) -> Self {
        FlowGraph {
            n,
            to: Vec::new(),
            cap: Vec::new(),
            orig_cap: Vec::new(),
            adj: vec![Vec::new(); n],
        }
    }

    /// Number of nodes.
    pub fn node_count(&self) -> usize {
        self.n
    }

    /// Adds a directed edge `u → v` with the given capacity. Returns the id
    /// of the forward edge.
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge(&mut self, u: usize, v: usize, cap: u64) -> EdgeId {
        self.add_edge_with_reverse(u, v, cap, 0)
    }

    /// Adds a directed edge `u → v` with capacity `cap` whose residual twin
    /// `v → u` starts with capacity `rev_cap` (instead of 0).
    ///
    /// # Panics
    ///
    /// Panics if `u` or `v` is out of range.
    pub fn add_edge_with_reverse(&mut self, u: usize, v: usize, cap: u64, rev_cap: u64) -> EdgeId {
        assert!(u < self.n && v < self.n, "edge endpoint out of range");
        let e = self.to.len() as u32;
        self.to.push(v as u32);
        self.cap.push(cap);
        self.orig_cap.push(cap);
        self.adj[u].push(e);
        self.to.push(u as u32);
        self.cap.push(rev_cap);
        self.orig_cap.push(rev_cap);
        self.adj[v].push(e + 1);
        EdgeId(e)
    }

    /// Current residual capacity of an edge (forward direction of the id).
    pub fn residual(&self, e: EdgeId) -> u64 {
        self.cap[e.0 as usize]
    }

    /// Flow pushed through the forward edge so far: `orig_cap − residual`
    /// (saturating at zero if callers inspect a reverse twin).
    pub fn flow_on(&self, e: EdgeId) -> u64 {
        self.orig_cap[e.0 as usize].saturating_sub(self.cap[e.0 as usize])
    }

    /// Runs Dinic's algorithm (BFS level graph + blocking flow) from `s`
    /// to `t` and returns the max-flow value. The graph is left in its
    /// residual state so that [`FlowGraph::min_cut_side`] and repeated
    /// calls compose.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow(&mut self, s: usize, t: usize) -> u64 {
        self.max_flow_counted(s, t).0
    }

    /// [`FlowGraph::max_flow`] that also returns the number of augmenting
    /// paths found — the unit of max-flow *work* the attribution layer
    /// charges to the separator that caused it.
    ///
    /// Dinic with a shortest-path fast lane: each BFS records parent
    /// edges, and when it *deepens* the level graph (the `s`–`t` distance
    /// grew since the previous phase) one augmenting path is pulled
    /// straight off the parents — exactly an Edmonds–Karp step, no DFS.
    /// Only when a BFS repeats the previous depth, proving the level
    /// graph holds further paths, does the blocking-flow DFS run. Both
    /// schedules only ever augment along shortest residual paths, so the
    /// Edmonds–Karp non-decreasing-distance lemma and Dinic's
    /// strict-increase-after-blocking-flow lemma keep the mix sound, and
    /// single-path instances (separator chains, spine circuits) cost
    /// precisely what the Edmonds–Karp oracle pays instead of an extra
    /// exhaust sweep per phase. Graphs at or below the [`SMALL_N`]
    /// cutoff stay in the fast lane for every phase.
    ///
    /// The augmentation schedule is fully deterministic (adjacency order
    /// is insertion order, the fast lane and the current-arc DFS are
    /// sequential), so the path count and the residual state are
    /// reproducible run to run. Note the count is typically far smaller
    /// than Edmonds–Karp's on separator-shaped graphs, and intentionally
    /// *not* comparable to documents written before schema v6. Neither
    /// variant touches the obs layer — the production call sites
    /// ([`crate::min_vertex_separator`], [`crate::max_weight_antichain`])
    /// record `flow.augmenting_paths`, keeping the solver itself free of
    /// per-call instrumentation cost (measurable on sub-µs problems).
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow_counted(&mut self, s: usize, t: usize) -> (u64, u64) {
        assert!(s < self.n && t < self.n && s != t, "bad terminals");
        let mut total: u64 = 0;
        let mut paths: u64 = 0;
        let mut level: Vec<u32> = vec![u32::MAX; self.n];
        let mut pred: Vec<u32> = vec![0; self.n];
        let mut queue: Vec<u32> = Vec::with_capacity(self.n);
        let mut prev_level_t: u32 = 0;
        // DFS state is allocated lazily on the first phase that needs a
        // blocking flow: zero-flow and single-path queries then do
        // exactly the work of the Edmonds–Karp oracle.
        let mut iter: Vec<u32> = Vec::new();
        let mut path: Vec<u32> = Vec::new();
        loop {
            // BFS phase: distance labels over residual edges. Stops as
            // soon as `t` is labelled — every shortest path runs through
            // strictly lower levels, so nodes labelled after `t` could
            // never be on one, and the DFS below rejects unlabelled nodes.
            level.iter_mut().for_each(|l| *l = u32::MAX);
            queue.clear();
            queue.push(s as u32);
            level[s] = 0;
            let mut head = 0;
            'bfs: while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &e in &self.adj[u] {
                    let v = self.to[e as usize] as usize;
                    if self.cap[e as usize] > 0 && level[v] == u32::MAX {
                        level[v] = level[u] + 1;
                        pred[v] = e;
                        if v == t {
                            break 'bfs;
                        }
                        queue.push(v as u32);
                    }
                }
            }
            if level[t] == u32::MAX {
                return (total, paths);
            }
            if level[t] > prev_level_t || self.n <= SMALL_N {
                // Fast lane: a strictly deeper level graph (or a graph
                // below the [`SMALL_N`] cutoff, where blocking flows
                // never amortize). Augment one shortest path off the BFS
                // parents and re-BFS; if more paths exist at this depth
                // the next BFS repeats it and the blocking flow below
                // picks them up.
                prev_level_t = level[t];
                let mut bottleneck = u64::MAX;
                let mut v = t;
                while v != s {
                    let e = pred[v] as usize;
                    bottleneck = bottleneck.min(self.cap[e]);
                    v = self.to[e ^ 1] as usize;
                }
                let mut v = t;
                while v != s {
                    let e = pred[v] as usize;
                    self.cap[e] -= bottleneck;
                    self.cap[e ^ 1] += bottleneck;
                    v = self.to[e ^ 1] as usize;
                }
                paths += 1;
                total = total.saturating_add(bottleneck);
                continue;
            }
            // Blocking flow: iterative current-arc DFS. `path` holds the
            // edge ids from `s` to the cursor `u`; each augmenting path
            // found within the level graph counts as one path. Current-arc
            // cursors are reset only for the nodes this phase's BFS
            // labelled (all in `queue`, plus `t` on early exit) — the DFS
            // can stand on no other node, and a whole-vector reset per
            // phase is measurable overhead on trivial one-path problems.
            if iter.is_empty() {
                iter = vec![0; self.n];
            } else {
                for &v in &queue {
                    iter[v as usize] = 0;
                }
                iter[t] = 0;
            }
            path.clear();
            let mut u = s;
            loop {
                if u == t {
                    let mut bottleneck = u64::MAX;
                    for &e in &path {
                        bottleneck = bottleneck.min(self.cap[e as usize]);
                    }
                    for &e in &path {
                        self.cap[e as usize] -= bottleneck;
                        self.cap[(e ^ 1) as usize] += bottleneck;
                    }
                    paths += 1;
                    total = total.saturating_add(bottleneck);
                    // restart from the tail of the first saturated edge;
                    // the path prefix before it is still admissible
                    let mut k = 0;
                    while k < path.len() && self.cap[path[k] as usize] > 0 {
                        k += 1;
                    }
                    u = self.to[(path[k] ^ 1) as usize] as usize;
                    path.truncate(k);
                    continue;
                }
                let mut advanced = false;
                while (iter[u] as usize) < self.adj[u].len() {
                    let e = self.adj[u][iter[u] as usize];
                    let v = self.to[e as usize] as usize;
                    if self.cap[e as usize] > 0 && level[v] == level[u] + 1 {
                        path.push(e);
                        u = v;
                        advanced = true;
                        break;
                    }
                    iter[u] += 1;
                }
                if advanced {
                    continue;
                }
                if u == s {
                    break; // blocking flow complete; rebuild levels
                }
                // dead end: retreat and advance the parent's current arc
                // past the edge that led here
                let e = path.pop().expect("non-source cursor has a path edge");
                let p = self.to[(e ^ 1) as usize] as usize;
                iter[p] += 1;
                u = p;
            }
        }
    }

    /// The Edmonds–Karp reference implementation (BFS shortest augmenting
    /// paths, `O(V·E²)` — exactly the CLRS chapter-27 algorithm the paper
    /// cites). Kept verbatim as the differential oracle for
    /// [`FlowGraph::max_flow_counted`]: both must produce the same flow
    /// value and — because the source-reachable residual set is the same
    /// for *every* max flow — the same [`FlowGraph::min_cut_side`]. Only
    /// the path counts differ.
    ///
    /// This is the test oracle: production code never calls it, and it
    /// stays public only for `tests/dinic_vs_ek.rs`.
    ///
    /// # Panics
    ///
    /// Panics if `s == t` or either is out of range.
    pub fn max_flow_counted_ek(&mut self, s: usize, t: usize) -> (u64, u64) {
        assert!(s < self.n && t < self.n && s != t, "bad terminals");
        let mut total: u64 = 0;
        let mut paths: u64 = 0;
        let mut pred: Vec<Option<u32>> = vec![None; self.n];
        let mut queue: Vec<u32> = Vec::with_capacity(self.n);
        loop {
            // BFS for the shortest augmenting path.
            pred.iter_mut().for_each(|p| *p = None);
            queue.clear();
            queue.push(s as u32);
            let mut found = false;
            let mut head = 0;
            'bfs: while head < queue.len() {
                let u = queue[head] as usize;
                head += 1;
                for &e in &self.adj[u] {
                    let v = self.to[e as usize] as usize;
                    if self.cap[e as usize] > 0 && pred[v].is_none() && v != s {
                        pred[v] = Some(e);
                        if v == t {
                            found = true;
                            break 'bfs;
                        }
                        queue.push(v as u32);
                    }
                }
            }
            if !found {
                return (total, paths);
            }
            // bottleneck
            let mut bottleneck = u64::MAX;
            let mut v = t;
            while v != s {
                let e = pred[v].expect("path reconstructed") as usize;
                bottleneck = bottleneck.min(self.cap[e]);
                v = self.to[e ^ 1] as usize;
            }
            // augment
            let mut v = t;
            while v != s {
                let e = pred[v].expect("path reconstructed") as usize;
                self.cap[e] -= bottleneck;
                self.cap[e ^ 1] += bottleneck;
                v = self.to[e ^ 1] as usize;
            }
            paths += 1;
            total = total.saturating_add(bottleneck);
        }
    }

    /// After a [`FlowGraph::max_flow`] call, returns the source side of a
    /// minimum cut: `side[v]` is `true` iff `v` is reachable from `s` in
    /// the residual graph.
    pub fn min_cut_side(&self, s: usize) -> Vec<bool> {
        let mut side = vec![false; self.n];
        let mut queue = vec![s as u32];
        side[s] = true;
        let mut head = 0;
        while head < queue.len() {
            let u = queue[head] as usize;
            head += 1;
            for &e in &self.adj[u] {
                let v = self.to[e as usize] as usize;
                if self.cap[e as usize] > 0 && !side[v] {
                    side[v] = true;
                    queue.push(v as u32);
                }
            }
        }
        side
    }

    /// Nodes reachable from `from` in the current residual graph —
    /// the primitive behind both cut extraction and the antichain readout.
    pub fn residual_reachable(&self, from: usize) -> Vec<bool> {
        self.min_cut_side(from)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_edge() {
        let mut g = FlowGraph::new(2);
        let e = g.add_edge(0, 1, 7);
        assert_eq!(g.max_flow(0, 1), 7);
        assert_eq!(g.flow_on(e), 7);
        assert_eq!(g.residual(e), 0);
    }

    #[test]
    fn parallel_paths_sum() {
        let mut g = FlowGraph::new(4);
        g.add_edge(0, 1, 3);
        g.add_edge(1, 3, 3);
        g.add_edge(0, 2, 5);
        g.add_edge(2, 3, 4);
        assert_eq!(g.max_flow(0, 3), 7);
    }

    #[test]
    fn clrs_figure_example() {
        // classic CLRS 26.1 network, max flow 23
        let mut g = FlowGraph::new(6);
        g.add_edge(0, 1, 16);
        g.add_edge(0, 2, 13);
        g.add_edge(1, 2, 10);
        g.add_edge(2, 1, 4);
        g.add_edge(1, 3, 12);
        g.add_edge(3, 2, 9);
        g.add_edge(2, 4, 14);
        g.add_edge(4, 3, 7);
        g.add_edge(3, 5, 20);
        g.add_edge(4, 5, 4);
        assert_eq!(g.max_flow(0, 5), 23);
    }

    #[test]
    fn min_cut_matches_flow_value() {
        let mut g = FlowGraph::new(4);
        let e01 = g.add_edge(0, 1, 3);
        let e02 = g.add_edge(0, 2, 2);
        let e13 = g.add_edge(1, 3, 2);
        let e23 = g.add_edge(2, 3, 3);
        let value = g.max_flow(0, 3);
        let side = g.min_cut_side(0);
        assert!(side[0] && !side[3]);
        // sum original capacities of edges crossing the cut
        let mut cut = 0;
        for (e, (u, v)) in [(e01, (0, 1)), (e02, (0, 2)), (e13, (1, 3)), (e23, (2, 3))] {
            if side[u] && !side[v] {
                cut += g.orig_cap[e.0 as usize];
            }
        }
        assert_eq!(cut, value);
    }

    #[test]
    fn disconnected_terminals_zero_flow() {
        let mut g = FlowGraph::new(3);
        g.add_edge(0, 1, 5);
        assert_eq!(g.max_flow(0, 2), 0);
        let side = g.min_cut_side(0);
        assert!(side[1] && !side[2]);
    }

    #[test]
    fn inf_edges_pass_large_flow() {
        let mut g = FlowGraph::new(3);
        g.add_edge(0, 1, INF);
        g.add_edge(1, 2, 12345);
        assert_eq!(g.max_flow(0, 2), 12345);
    }

    #[test]
    fn reverse_capacity_edges() {
        let mut g = FlowGraph::new(2);
        g.add_edge_with_reverse(0, 1, 4, 9);
        // forward direction
        assert_eq!(g.clone().max_flow(0, 1), 4);
        // reverse twin acts as a 1→0 edge of capacity 9
        assert_eq!(g.max_flow(1, 0), 9);
    }

    #[test]
    #[should_panic(expected = "bad terminals")]
    fn same_terminals_rejected() {
        FlowGraph::new(2).max_flow(1, 1);
    }

    #[test]
    fn dinic_matches_ek_on_clrs_network() {
        let mut g = FlowGraph::new(6);
        for (u, v, c) in [
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
        ] {
            g.add_edge(u, v, c);
        }
        let mut ek = g.clone();
        let (dinic_flow, dinic_paths) = g.max_flow_counted(0, 5);
        let (ek_flow, _) = ek.max_flow_counted_ek(0, 5);
        assert_eq!(dinic_flow, ek_flow);
        assert_eq!(dinic_flow, 23);
        assert!(dinic_paths >= 1);
        // any max flow exposes the same source-reachable residual set
        assert_eq!(g.min_cut_side(0), ek.min_cut_side(0));
    }
}
