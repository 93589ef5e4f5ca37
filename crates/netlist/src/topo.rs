use crate::{NetlistError, Network, NodeId};

/// Logic levels of a network: the length (in gates) of the longest path from
/// any primary input to each node.
///
/// Level 0 is assigned to primary inputs; a gate's level is one more than the
/// maximum level of its fanins. The maximum over all nodes is the logic
/// depth of the block.
#[derive(Debug, Clone)]
pub struct Levels {
    level: Vec<u32>,
    depth: u32,
}

impl Levels {
    /// Computes logic levels for all live nodes.
    pub fn of(net: &Network) -> Self {
        let order = net.topo_order();
        let mut level = vec![0u32; net.node_count()];
        let mut depth = 0;
        for &id in &order {
            let l = node_level(net, &level, id);
            level[id.index()] = l;
            depth = depth.max(l);
        }
        Levels { level, depth }
    }

    /// Level of a node.
    pub fn level(&self, id: NodeId) -> u32 {
        self.level[id.index()]
    }

    /// Maximum level over all nodes (logic depth of the block).
    pub fn depth(&self) -> u32 {
        self.depth
    }
}

/// Logic level of `id` given its fanins' entries in `level` (indexed by
/// [`NodeId::index`]): one more than the deepest fanin, 0 for primary
/// inputs. [`Levels::of`] applies it in topological order; callers that
/// keep their own level table apply it to re-derive a node whose fanins
/// are already current.
pub fn node_level(net: &Network, level: &[u32], id: NodeId) -> u32 {
    net.fanins(id)
        .iter()
        .map(|f| level[f.index()] + 1)
        .max()
        .unwrap_or(0)
}

/// The descendant (fanout) cone of a seed set, in topological order.
///
/// [`FanoutCone::of`] collects every live node reachable from the seeds
/// (the seeds included) and orders them with Kahn's algorithm over the
/// in-cone edges only, so it costs `O(cone + cone edges)` time however
/// large the network is, plus one position map over the node slots.
///
/// # Example
///
/// ```
/// use dvs_netlist::{CellRef, FanoutCone, Network};
///
/// let mut net = Network::new("c");
/// let a = net.add_input("a");
/// let g1 = net.add_gate("g1", CellRef(0), &[a]);
/// let g2 = net.add_gate("g2", CellRef(0), &[g1, a]);
/// let side = net.add_gate("side", CellRef(0), &[a]);
/// net.add_output("o", g2);
/// net.add_output("p", side);
///
/// let cone = FanoutCone::of(&net, [g1]);
/// assert_eq!(cone.order(), &[g1, g2]);
/// assert_eq!(cone.position(g2), Some(1));
/// assert_eq!(cone.position(side), None); // not a descendant of g1
/// ```
#[derive(Debug, Clone)]
pub struct FanoutCone {
    /// Per node slot: the cone position, or [`FanoutCone::OUTSIDE`]. While
    /// the cone is being sorted, a member's pending in-cone fanin count.
    slot: Vec<u32>,
    order: Vec<NodeId>,
}

impl FanoutCone {
    const OUTSIDE: u32 = u32::MAX;

    /// Orders the live descendants of `seeds` (the live seeds themselves
    /// included, duplicates coalesced) fanins-first. Dead or out-of-range
    /// seeds are skipped. The order is deterministic for a given network
    /// and seed sequence.
    ///
    /// # Panics
    ///
    /// Panics if the cone contains a combinational cycle.
    pub fn of(net: &Network, seeds: impl IntoIterator<Item = NodeId>) -> Self {
        let n = net.node_count();
        let mut slot = vec![Self::OUTSIDE; n];
        // Collect the cone breadth-first, counting each member's in-cone
        // fanin pins (fanout lists carry one entry per pin).
        let mut cone: Vec<NodeId> = Vec::new();
        for s in seeds {
            if s.index() < n && !net.node(s).is_dead() && slot[s.index()] == Self::OUTSIDE {
                slot[s.index()] = 0;
                cone.push(s);
            }
        }
        let mut head = 0;
        while head < cone.len() {
            let id = cone[head];
            head += 1;
            for &fo in net.fanouts(id) {
                let s = &mut slot[fo.index()];
                if *s == Self::OUTSIDE {
                    *s = 0;
                    cone.push(fo);
                }
                *s += 1;
            }
        }
        // Kahn over the in-cone edges; the output doubles as the FIFO.
        let mut order: Vec<NodeId> = Vec::new();
        order.extend(cone.iter().filter(|id| slot[id.index()] == 0));
        let mut head = 0;
        while head < order.len() {
            let id = order[head];
            head += 1;
            for &fo in net.fanouts(id) {
                let s = &mut slot[fo.index()];
                *s -= 1;
                if *s == 0 {
                    order.push(fo);
                }
            }
        }
        assert_eq!(
            order.len(),
            cone.len(),
            "network contains a combinational cycle"
        );
        for (pos, id) in order.iter().enumerate() {
            slot[id.index()] = pos as u32;
        }
        FanoutCone { slot, order }
    }

    /// The cone's nodes, fanins first.
    pub fn order(&self) -> &[NodeId] {
        &self.order
    }

    /// Position of `id` in [`FanoutCone::order`], or `None` outside the
    /// cone.
    pub fn position(&self, id: NodeId) -> Option<usize> {
        match self.slot.get(id.index()) {
            Some(&s) if s != Self::OUTSIDE => Some(s as usize),
            _ => None,
        }
    }
}

impl Network {
    /// Returns the live nodes in topological order (fanins before fanouts,
    /// primary inputs first).
    ///
    /// # Panics
    ///
    /// Panics if the network contains a combinational cycle; use
    /// [`Network::try_topo_order`] to detect cycles gracefully.
    pub fn topo_order(&self) -> Vec<NodeId> {
        self.try_topo_order()
            .expect("network contains a combinational cycle")
    }

    /// Returns the live nodes in topological order, or an error naming a
    /// node on a combinational cycle.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::Cycle`] if the network is cyclic.
    pub fn try_topo_order(&self) -> Result<Vec<NodeId>, NetlistError> {
        let n = self.node_count();
        let mut indeg = vec![0u32; n];
        let mut live = vec![false; n];
        let mut total_live = 0usize;
        for id in self.node_ids() {
            live[id.index()] = true;
            total_live += 1;
            indeg[id.index()] = self.fanins(id).len() as u32;
        }
        // Kahn's algorithm; the queue is processed FIFO so primary inputs
        // come first and the order is deterministic for a given network.
        let mut queue: Vec<NodeId> = self
            .node_ids()
            .filter(|id| indeg[id.index()] == 0)
            .collect();
        let mut order = Vec::with_capacity(total_live);
        let mut head = 0;
        while head < queue.len() {
            let id = queue[head];
            head += 1;
            order.push(id);
            for &fo in self.fanouts(id) {
                if !live[fo.index()] {
                    continue;
                }
                indeg[fo.index()] -= 1;
                if indeg[fo.index()] == 0 {
                    queue.push(fo);
                }
            }
        }
        if order.len() != total_live {
            let culprit = self
                .node_ids()
                .find(|id| indeg[id.index()] > 0)
                .expect("cycle implies an unprocessed node");
            return Err(NetlistError::Cycle {
                node: self.node(culprit).name().to_owned(),
            });
        }
        Ok(order)
    }

    /// Returns the live nodes in reverse topological order (fanouts before
    /// fanins), convenient for required-time propagation and the CVS
    /// output-to-input traversal.
    pub fn reverse_topo_order(&self) -> Vec<NodeId> {
        let mut order = self.topo_order();
        order.reverse();
        order
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellRef;

    fn chain(n: usize) -> Network {
        let mut net = Network::new("chain");
        let mut prev = net.add_input("i");
        for k in 0..n {
            prev = net.add_gate(format!("g{k}"), CellRef(0), &[prev]);
        }
        net.add_output("o", prev);
        net
    }

    #[test]
    fn topo_order_respects_edges() {
        let net = chain(5);
        let order = net.topo_order();
        assert_eq!(order.len(), 6);
        let mut pos = vec![0usize; net.node_count()];
        for (ix, id) in order.iter().enumerate() {
            pos[id.index()] = ix;
        }
        for id in net.node_ids() {
            for &f in net.fanins(id) {
                assert!(pos[f.index()] < pos[id.index()]);
            }
        }
    }

    #[test]
    fn reverse_topo_is_reversed() {
        let net = chain(3);
        let mut fwd = net.topo_order();
        fwd.reverse();
        assert_eq!(fwd, net.reverse_topo_order());
    }

    #[test]
    fn levels_of_chain_equal_depth() {
        let net = chain(4);
        let levels = Levels::of(&net);
        assert_eq!(levels.depth(), 4);
        let last = net.find("g3").unwrap();
        assert_eq!(levels.level(last), 4);
        let input = net.find("i").unwrap();
        assert_eq!(levels.level(input), 0);
    }

    #[test]
    fn diamond_levels() {
        let mut net = Network::new("d");
        let a = net.add_input("a");
        let l = net.add_gate("l", CellRef(0), &[a]);
        let r = net.add_gate("r", CellRef(0), &[a]);
        let r2 = net.add_gate("r2", CellRef(0), &[r]);
        let top = net.add_gate("top", CellRef(1), &[l, r2]);
        net.add_output("o", top);
        let levels = Levels::of(&net);
        assert_eq!(levels.level(top), 3);
        assert_eq!(levels.level(l), 1);
        assert_eq!(levels.depth(), 3);
    }

    #[test]
    fn fanout_cone_orders_only_the_cone() {
        let mut net = Network::new("c");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let l = net.add_gate("l", CellRef(0), &[a]);
        let r = net.add_gate("r", CellRef(0), &[b]);
        let twice = net.add_gate("twice", CellRef(1), &[r, r]);
        let top = net.add_gate("top", CellRef(1), &[l, twice]);
        net.add_output("o", top);
        // duplicate and nested seeds coalesce; the multi-pin edge counts
        // twice and still releases `twice` exactly once
        let cone = FanoutCone::of(&net, [twice, r, r]);
        assert_eq!(cone.order(), &[r, twice, top]);
        assert_eq!(cone.position(l), None);
        assert_eq!(cone.position(top), Some(2));
        assert_eq!(FanoutCone::of(&net, [l]).order(), &[l, top]);
        assert!(FanoutCone::of(&net, []).order().is_empty());
    }

    #[test]
    fn fanout_cone_follows_rewiring_and_truncation() {
        let mut net = chain(3);
        net.enable_journal();
        let g0 = net.find("g0").unwrap();
        let g1 = net.find("g1").unwrap();
        let g2 = net.find("g2").unwrap();
        let cp = net.checkpoint();
        let conv = net.insert_converter(g0, &[g1], false, CellRef(9)).unwrap();
        assert_eq!(FanoutCone::of(&net, [g0]).order(), &[g0, conv, g1, g2]);
        net.rollback_to(cp);
        // the converter's slot is gone; dead or out-of-range seeds are skipped
        let cone = FanoutCone::of(&net, [conv, g1]);
        assert_eq!(cone.order(), &[g1, g2]);
        assert_eq!(cone.position(conv), None);
        let conv = net.insert_converter(g1, &[g2], false, CellRef(9)).unwrap();
        net.remove_converter(conv).unwrap();
        assert_eq!(FanoutCone::of(&net, [conv, g0]).order(), &[g0, g1, g2]);
    }
}
