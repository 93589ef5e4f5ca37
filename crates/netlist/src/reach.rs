use crate::{FanoutCone, Network, NodeId};

/// Reachability among a subset of a network's nodes: which candidate
/// reaches which through a non-empty directed path.
///
/// `Dscale` needs the *transitive* conflict graph of its candidate set:
/// two candidates conflict when one reaches the other through any path,
/// because simultaneous voltage reduction on one path accumulates delay.
/// [`SubsetReach::among`] walks only the candidates' descendant cone
/// ([`FanoutCone`]) fanins-first, propagating for every cone node the
/// `k`-bit set of candidates that reach it (`k` = candidate count), and
/// transposes the candidates' sets into `from → to` rows. Time is
/// `O(cone + cone edges · k/64)`; a row lives only from its first fanin
/// push to its own turn, so transient memory is `O(frontier · k/64)`,
/// plus the `O(k²/64)` answer.
///
/// # Example
///
/// ```
/// use dvs_netlist::{Network, CellRef, SubsetReach};
///
/// let mut net = Network::new("s");
/// let a = net.add_input("a");
/// let g1 = net.add_gate("g1", CellRef(0), &[a]);
/// let g2 = net.add_gate("g2", CellRef(0), &[g1]);
/// net.add_output("o", g2);
///
/// let reach = SubsetReach::among(&net, &[g1, g2]);
/// assert!(reach.reaches(0, 1));            // g1 → g2
/// assert!(!reach.reaches(1, 0));
/// assert!(!reach.reaches(0, 0));           // irreflexive
/// assert_eq!(reach.reachable_from(0).collect::<Vec<_>>(), vec![1]);
/// ```
#[derive(Debug, Clone)]
pub struct SubsetReach {
    words_per_row: usize,
    bits: Vec<u64>,
}

impl SubsetReach {
    /// Computes, for every node of `nodes`, the subset of `nodes` it
    /// reaches through any directed path. Indices into `nodes` are the
    /// coordinates of all queries. `nodes` must be distinct; a dead node
    /// reaches nothing and is reached by nothing.
    pub fn among(net: &Network, nodes: &[NodeId]) -> Self {
        let k = nodes.len();
        let words = k.div_ceil(64).max(1);
        let cone = FanoutCone::of(net, nodes.iter().copied());
        let order = cone.order();
        let mut cand_at = vec![u32::MAX; order.len()];
        for (i, &id) in nodes.iter().enumerate() {
            if let Some(p) = cone.position(id) {
                debug_assert_eq!(cand_at[p], u32::MAX, "`nodes` must be distinct");
                cand_at[p] = i as u32;
            }
        }
        // A cone node's row holds the candidates with a non-empty path to
        // it. Fanins push into it, and it is complete when the node's turn
        // comes, because they all sit at earlier positions. Only rows that
        // have been pushed into but not yet consumed are live, and their
        // slots are recycled, so transient memory follows the frontier.
        // Every row a node pushes is non-empty: it is a candidate, or a
        // descendant of one.
        let mut bits = vec![0u64; k * words];
        let mut pool: Vec<u64> = Vec::new();
        let mut free: Vec<usize> = Vec::new();
        let mut slot_of = vec![usize::MAX; order.len()];
        let mut row = vec![0u64; words];
        for (p, &id) in order.iter().enumerate() {
            match slot_of[p] {
                usize::MAX => row.fill(0),
                r => {
                    row.copy_from_slice(&pool[r * words..][..words]);
                    free.push(r);
                }
            }
            let ci = cand_at[p];
            if ci != u32::MAX {
                // transpose: every candidate reaching this one gets its bit
                let j = ci as usize;
                for (w, &word) in row.iter().enumerate() {
                    let mut rest = word;
                    while rest != 0 {
                        let i = w * 64 + rest.trailing_zeros() as usize;
                        rest &= rest - 1;
                        bits[i * words + j / 64] |= 1u64 << (j % 64);
                    }
                }
                row[j / 64] |= 1u64 << (j % 64);
            }
            for &fo in net.fanouts(id) {
                let q = cone
                    .position(fo)
                    .expect("a cone node's fanouts are in the cone");
                if slot_of[q] == usize::MAX {
                    let r = free.pop().unwrap_or_else(|| {
                        pool.resize(pool.len() + words, 0);
                        pool.len() / words - 1
                    });
                    pool[r * words..][..words].fill(0);
                    slot_of[q] = r;
                }
                for (d, s) in pool[slot_of[q] * words..][..words].iter_mut().zip(&row) {
                    *d |= s;
                }
            }
        }
        SubsetReach {
            words_per_row: words,
            bits,
        }
    }

    /// Returns `true` if candidate `from` reaches candidate `to` (both are
    /// indices into the `nodes` slice passed to [`SubsetReach::among`]).
    /// Irreflexive on acyclic networks.
    #[inline]
    pub fn reaches(&self, from: usize, to: usize) -> bool {
        let w = self.bits[from * self.words_per_row + to / 64];
        w >> (to % 64) & 1 == 1
    }

    /// Iterates the candidate indices reachable from candidate `from`, in
    /// increasing order.
    pub fn reachable_from(&self, from: usize) -> impl Iterator<Item = usize> + '_ {
        let row = &self.bits[from * self.words_per_row..(from + 1) * self.words_per_row];
        row.iter().enumerate().flat_map(|(w, &word)| {
            (0..64)
                .filter(move |b| word >> b & 1 == 1)
                .map(move |b| w * 64 + b)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellRef;

    /// Dense oracle: one reverse-topological sweep OR-ing fanout rows over
    /// every node, `reach[u][v]` = a non-empty path `u → v` exists.
    fn dense(net: &Network) -> Vec<Vec<bool>> {
        let n = net.node_count();
        let mut reach = vec![vec![false; n]; n];
        for &id in net.reverse_topo_order().iter() {
            for &fo in net.fanouts(id) {
                let below = reach[fo.index()].clone();
                let row = &mut reach[id.index()];
                row[fo.index()] = true;
                for (r, b) in row.iter_mut().zip(below) {
                    *r |= b;
                }
            }
        }
        reach
    }

    fn subset_matches_dense(net: &Network, nodes: &[NodeId]) -> SubsetReach {
        let dense = dense(net);
        let sub = SubsetReach::among(net, nodes);
        for (i, &a) in nodes.iter().enumerate() {
            for (j, &b) in nodes.iter().enumerate() {
                assert_eq!(
                    sub.reaches(i, j),
                    dense[a.index()][b.index()],
                    "disagreement on ({i}, {j})"
                );
            }
            let listed: Vec<usize> = sub.reachable_from(i).collect();
            let expect: Vec<usize> = (0..nodes.len()).filter(|&j| sub.reaches(i, j)).collect();
            assert_eq!(listed, expect);
        }
        sub
    }

    #[test]
    fn diamond_reachability() {
        let mut net = Network::new("d");
        let a = net.add_input("a");
        let l = net.add_gate("l", CellRef(0), &[a]);
        let r = net.add_gate("r", CellRef(0), &[a]);
        let top = net.add_gate("top", CellRef(1), &[l, r]);
        net.add_output("o", top);
        let m = SubsetReach::among(&net, &[a, l, r, top]);
        assert!(m.reaches(0, 3));
        assert!(m.reaches(1, 3));
        assert!(m.reaches(2, 3));
        assert!(!m.reaches(1, 2));
        assert!(!m.reaches(2, 1));
        assert!(!m.reaches(3, 0));
    }

    #[test]
    fn irreflexive_on_dag() {
        let mut net = Network::new("d");
        let a = net.add_input("a");
        let g = net.add_gate("g", CellRef(0), &[a]);
        net.add_output("o", g);
        let m = SubsetReach::among(&net, &[a, g]);
        assert!(!m.reaches(0, 0));
        assert!(!m.reaches(1, 1));
        assert!(m.reaches(0, 1));
    }

    #[test]
    fn wide_network_crosses_word_boundary() {
        // More than 64 candidates on one chain, so every row spans
        // multiple words and the transpose crosses word boundaries.
        let mut net = Network::new("w");
        let a = net.add_input("a");
        let mut prev = a;
        let mut ids = vec![a];
        for k in 0..130 {
            prev = net.add_gate(format!("g{k}"), CellRef(0), &[prev]);
            ids.push(prev);
        }
        net.add_output("o", prev);
        let m = SubsetReach::among(&net, &ids);
        for i in 0..ids.len() {
            for j in 0..ids.len() {
                assert_eq!(m.reaches(i, j), i < j, "({i}, {j})");
            }
        }
    }

    #[test]
    fn subset_agrees_with_dense_on_diamond() {
        let mut net = Network::new("d");
        let a = net.add_input("a");
        let l = net.add_gate("l", CellRef(0), &[a]);
        let r = net.add_gate("r", CellRef(0), &[a]);
        let top = net.add_gate("top", CellRef(1), &[l, r]);
        net.add_output("o", top);
        subset_matches_dense(&net, &[l, r, top]);
        subset_matches_dense(&net, &[a, top]);
        subset_matches_dense(&net, &[top, a]);
        subset_matches_dense(&net, &[r]);
        subset_matches_dense(&net, &[]);
    }

    #[test]
    fn subset_crosses_word_boundary() {
        // > 64 candidates so candidate bitsets span multiple words, with
        // braided fanout so rows merge across branches.
        let mut net = Network::new("w");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut prev = vec![a, b];
        let mut gates = Vec::new();
        for k in 0..140 {
            let g = net.add_gate(
                format!("g{k}"),
                CellRef(0),
                &[prev[k % prev.len()], prev[(k + 1) % prev.len()]],
            );
            gates.push(g);
            prev.push(g);
        }
        net.add_output("o", *gates.last().unwrap());
        subset_matches_dense(&net, &gates);
        // sparse, shuffled subset
        let some: Vec<NodeId> = gates.iter().copied().step_by(3).rev().collect();
        subset_matches_dense(&net, &some);
    }

    #[test]
    fn multi_pin_fanouts_and_tombstones() {
        // a gate reading one driver on two pins, and a converter spliced
        // then removed: the tombstone is reached by nothing and reaches
        // nothing, and the rewired sinks keep their reachability
        let mut net = Network::new("m");
        let a = net.add_input("a");
        let d = net.add_gate("d", CellRef(0), &[a]);
        let twice = net.add_gate("twice", CellRef(1), &[d, d]);
        let s = net.add_gate("s", CellRef(0), &[twice]);
        net.add_output("o", s);
        let conv = net
            .insert_converter(twice, &[s], false, CellRef(9))
            .unwrap();
        subset_matches_dense(&net, &[s, conv, d, twice]);
        net.remove_converter(conv).unwrap();
        let m = subset_matches_dense(&net, &[s, conv, d, twice]);
        assert!(m.reaches(2, 0));
        assert_eq!(m.reachable_from(1).count(), 0);
        assert!((0..4).all(|i| !m.reaches(i, 1)));
    }
}
