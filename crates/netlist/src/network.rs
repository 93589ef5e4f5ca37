use std::collections::BTreeMap;
use std::fmt;

/// Identifier of a node (primary input or gate) inside a [`Network`].
///
/// Node ids are dense indices: they are stable for the lifetime of the
/// network (removed nodes leave tombstones), so they can be used to index
/// side tables such as arrival-time or activity vectors.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(u32);

impl NodeId {
    /// Returns the dense index of this node, suitable for indexing side
    /// tables sized with [`Network::node_count`].
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }

    /// Builds a `NodeId` from a dense index.
    ///
    /// Mostly useful in tests and when deserialising side tables; indexing a
    /// network with an out-of-range id panics.
    #[inline]
    pub fn from_index(ix: usize) -> Self {
        NodeId(u32::try_from(ix).expect("node index exceeds u32 range"))
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

/// Opaque reference to a cell in a standard-cell library.
///
/// The netlist crate does not depend on `dvs-celllib`; a `CellRef` is simply
/// the dense index of the cell family in whatever library the surrounding
/// flow uses. All crates in this workspace agree on that convention.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CellRef(pub u32);

impl CellRef {
    /// Returns the dense library index of the referenced cell.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Drive-size index of a gate instance within its cell family.
///
/// The COMPASS-like library of the paper provides two sizes (`d0`, `d1`) for
/// non-inverting cells and three (`d0`, `d1`, `d2`) for inverting ones.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SizeIx(pub u8);

impl SizeIx {
    /// Returns the size index as a usize for table lookups.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

/// Supply rail a gate is connected to.
///
/// The dual-Vdd methodology of the paper uses exactly two rails; gate-level
/// assignment decides which one powers each gate. Primary inputs are treated
/// as full-swing [`Rail::High`] signals.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rail {
    /// The nominal (high) supply voltage, e.g. 5 V.
    #[default]
    High,
    /// The reduced supply voltage, e.g. 4.3 V.
    Low,
}

impl Rail {
    /// Returns `true` for [`Rail::Low`].
    #[inline]
    pub fn is_low(self) -> bool {
        matches!(self, Rail::Low)
    }
}

impl fmt::Display for Rail {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Rail::High => f.write_str("Vhigh"),
            Rail::Low => f.write_str("Vlow"),
        }
    }
}

/// The structural kind of a network node.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum NodeKind {
    /// A primary input of the block.
    Input,
    /// A mapped gate instance.
    Gate {
        /// Library cell implementing this gate.
        cell: CellRef,
        /// Driver of each input pin, in pin order.
        fanins: Vec<NodeId>,
    },
}

/// A node of a mapped [`Network`]: a primary input or a gate instance.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Node {
    pub(crate) name: String,
    pub(crate) kind: NodeKind,
    pub(crate) size: SizeIx,
    pub(crate) rail: Rail,
    pub(crate) converter: bool,
    pub(crate) dead: bool,
}

impl Node {
    /// Instance name (unique within the network).
    pub fn name(&self) -> &str {
        &self.name
    }

    /// Structural kind of the node.
    pub fn kind(&self) -> &NodeKind {
        &self.kind
    }

    /// Returns `true` if the node is a gate (not a primary input).
    pub fn is_gate(&self) -> bool {
        matches!(self.kind, NodeKind::Gate { .. })
    }

    /// Returns `true` if the node is a primary input.
    pub fn is_input(&self) -> bool {
        matches!(self.kind, NodeKind::Input)
    }

    /// Library cell of a gate node.
    ///
    /// # Panics
    ///
    /// Panics if called on a primary input.
    pub fn cell(&self) -> CellRef {
        match &self.kind {
            NodeKind::Gate { cell, .. } => *cell,
            NodeKind::Input => panic!("primary input `{}` has no cell", self.name),
        }
    }

    /// Drive-size index of the gate instance.
    pub fn size(&self) -> SizeIx {
        self.size
    }

    /// Supply rail powering the gate.
    pub fn rail(&self) -> Rail {
        self.rail
    }

    /// Returns `true` if this gate is an inserted level-restoration
    /// (low-to-high) converter rather than original logic.
    pub fn is_converter(&self) -> bool {
        self.converter
    }

    /// Returns `true` if the node has been removed from the network.
    ///
    /// Removed nodes remain as tombstones so that [`NodeId`]s stay stable.
    pub fn is_dead(&self) -> bool {
        self.dead
    }

    /// Fanin drivers of a gate (empty slice for primary inputs).
    pub fn fanins(&self) -> &[NodeId] {
        match &self.kind {
            NodeKind::Gate { fanins, .. } => fanins,
            NodeKind::Input => &[],
        }
    }
}

/// A technology-mapped, combinational, gate-level logic network.
///
/// The network is a DAG: nodes are primary inputs or gate instances, each
/// gate's output implicitly names a net that drives the gate's fanouts and
/// possibly one or more primary outputs.
///
/// Mutation is restricted to operations the dual-Vdd flow needs: adding
/// nodes, changing per-gate rail/size attributes, and the level-converter
/// rewiring operations in the `rewire` module. Fanout lists are maintained
/// incrementally and are always consistent with fanin lists.
#[derive(Debug, Clone)]
pub struct Network {
    pub(crate) name: String,
    pub(crate) nodes: Vec<Node>,
    pub(crate) fanouts: Vec<Vec<NodeId>>,
    pub(crate) inputs: Vec<NodeId>,
    pub(crate) outputs: Vec<(String, NodeId)>,
    /// Number of primary outputs each node drives, indexed by node slot;
    /// kept in step with `outputs`.
    pub(crate) po_sinks: Vec<u32>,
    pub(crate) by_name: BTreeMap<String, NodeId>,
    /// Number of live (non-tombstone) gate nodes, cached.
    pub(crate) live_gates: usize,
    /// Invertible edit journal; `None` until [`Network::enable_journal`].
    pub(crate) journal: Option<Vec<crate::journal::EditOp>>,
}

impl Network {
    /// Creates an empty network with the given block name.
    pub fn new(name: impl Into<String>) -> Self {
        Network {
            name: name.into(),
            nodes: Vec::new(),
            fanouts: Vec::new(),
            inputs: Vec::new(),
            outputs: Vec::new(),
            po_sinks: Vec::new(),
            by_name: BTreeMap::new(),
            live_gates: 0,
            journal: None,
        }
    }

    /// Block name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn push_node(&mut self, node: Node) -> NodeId {
        let id = NodeId(u32::try_from(self.nodes.len()).expect("too many nodes"));
        debug_assert!(
            !self.by_name.contains_key(&node.name),
            "duplicate node name `{}`",
            node.name
        );
        self.by_name.insert(node.name.clone(), id);
        self.nodes.push(node);
        self.fanouts.push(Vec::new());
        self.po_sinks.push(0);
        id
    }

    /// Adds a primary input and returns its id.
    ///
    /// # Panics
    ///
    /// Panics (in debug builds) if the name is already taken.
    pub fn add_input(&mut self, name: impl Into<String>) -> NodeId {
        let id = self.push_node(Node {
            name: name.into(),
            kind: NodeKind::Input,
            size: SizeIx(0),
            rail: Rail::High,
            converter: false,
            dead: false,
        });
        self.inputs.push(id);
        id
    }

    /// Adds a gate instance of `cell` driven by `fanins` and returns its id.
    ///
    /// The gate starts at size `d0` on [`Rail::High`].
    ///
    /// # Panics
    ///
    /// Panics if any fanin id is out of range.
    pub fn add_gate(
        &mut self,
        name: impl Into<String>,
        cell: CellRef,
        fanins: &[NodeId],
    ) -> NodeId {
        for &f in fanins {
            assert!(f.index() < self.nodes.len(), "fanin {f} out of range");
        }
        let id = self.push_node(Node {
            name: name.into(),
            kind: NodeKind::Gate {
                cell,
                fanins: fanins.to_vec(),
            },
            size: SizeIx(0),
            rail: Rail::High,
            converter: false,
            dead: false,
        });
        for &f in fanins {
            self.fanouts[f.index()].push(id);
        }
        self.live_gates += 1;
        id
    }

    /// Declares `driver` as the primary output named `name`.
    pub fn add_output(&mut self, name: impl Into<String>, driver: NodeId) {
        assert!(driver.index() < self.nodes.len(), "driver out of range");
        self.outputs.push((name.into(), driver));
        self.po_sinks[driver.index()] += 1;
    }

    /// Immutable access to a node.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.index()]
    }

    /// Looks a node up by instance name.
    pub fn find(&self, name: &str) -> Option<NodeId> {
        self.by_name.get(name).copied()
    }

    /// Fanins of `id` (empty for primary inputs).
    pub fn fanins(&self, id: NodeId) -> &[NodeId] {
        self.nodes[id.index()].fanins()
    }

    /// Gate fanouts of `id`'s output net (primary-output sinks not included;
    /// use [`Network::drives_output`] for those).
    pub fn fanouts(&self, id: NodeId) -> &[NodeId] {
        &self.fanouts[id.index()]
    }

    /// Total node slots, including primary inputs and tombstones.
    ///
    /// Side tables indexed by [`NodeId::index`] must use this size.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of live gate instances, including inserted level converters.
    pub fn gate_count(&self) -> usize {
        self.live_gates
    }

    /// Number of live gate instances excluding inserted level converters.
    pub fn logic_gate_count(&self) -> usize {
        self.live_gates - self.converter_count()
    }

    /// Number of live level-converter instances.
    pub fn converter_count(&self) -> usize {
        self.nodes.iter().filter(|n| !n.dead && n.converter).count()
    }

    /// Number of primary inputs.
    pub fn primary_input_count(&self) -> usize {
        self.inputs.len()
    }

    /// Primary input ids in declaration order.
    pub fn primary_inputs(&self) -> &[NodeId] {
        &self.inputs
    }

    /// `(name, driver)` pairs of the primary outputs in declaration order.
    pub fn primary_outputs(&self) -> &[(String, NodeId)] {
        &self.outputs
    }

    /// Number of primary outputs `id`'s output net drives, O(1).
    pub fn po_sink_count(&self, id: NodeId) -> u32 {
        self.po_sinks[id.index()]
    }

    /// Returns `true` if `id` drives at least one primary output, O(1).
    pub fn drives_output(&self, id: NodeId) -> bool {
        self.po_sink_count(id) > 0
    }

    /// Iterates over the ids of all live nodes (inputs and gates).
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead)
            .map(|(ix, _)| NodeId::from_index(ix))
    }

    /// Iterates over the ids of all live gate nodes.
    pub fn gate_ids(&self) -> impl Iterator<Item = NodeId> + '_ {
        self.nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| !n.dead && n.is_gate())
            .map(|(ix, _)| NodeId::from_index(ix))
    }

    /// Sets the supply rail of gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a primary input or a dead node.
    pub fn set_rail(&mut self, id: NodeId, rail: Rail) {
        let node = &mut self.nodes[id.index()];
        assert!(node.is_gate() && !node.dead, "set_rail on non-gate {id}");
        let old = node.rail;
        node.rail = rail;
        if old != rail {
            self.record(crate::journal::EditOp::SetRail { id, old });
        }
    }

    /// Sets the drive-size index of gate `id`.
    ///
    /// # Panics
    ///
    /// Panics if `id` is a primary input or a dead node. Size validity
    /// against the cell's variant list is the caller's responsibility (the
    /// netlist crate does not know the library).
    pub fn set_size(&mut self, id: NodeId, size: SizeIx) {
        let node = &mut self.nodes[id.index()];
        assert!(node.is_gate() && !node.dead, "set_size on non-gate {id}");
        let old = node.size;
        node.size = size;
        if old != size {
            self.record(crate::journal::EditOp::SetSize { id, old });
        }
    }

    pub(crate) fn mark_converter(&mut self, id: NodeId) {
        self.nodes[id.index()].converter = true;
    }

    pub(crate) fn kill(&mut self, id: NodeId) {
        let node = &mut self.nodes[id.index()];
        debug_assert!(!node.dead);
        if node.is_gate() {
            self.live_gates -= 1;
        }
        node.dead = true;
        self.by_name.remove(&node.name);
    }

    pub(crate) fn fanins_mut(&mut self, id: NodeId) -> &mut Vec<NodeId> {
        match &mut self.nodes[id.index()].kind {
            NodeKind::Gate { fanins, .. } => fanins,
            NodeKind::Input => panic!("primary input has no fanins"),
        }
    }

    pub(crate) fn fanouts_mut(&mut self, id: NodeId) -> &mut Vec<NodeId> {
        &mut self.fanouts[id.index()]
    }

    /// Moves primary output `ix` to `driver`, keeping the per-node output
    /// counts in step.
    pub(crate) fn set_output_driver(&mut self, ix: usize, driver: NodeId) {
        let old = std::mem::replace(&mut self.outputs[ix].1, driver);
        self.po_sinks[old.index()] -= 1;
        self.po_sinks[driver.index()] += 1;
    }

    /// Generates a node name that is not yet used in the network.
    pub fn fresh_name(&self, prefix: &str) -> String {
        let mut ix = self.nodes.len();
        loop {
            let candidate = format!("{prefix}{ix}");
            if !self.by_name.contains_key(&candidate) {
                return candidate;
            }
            ix += 1;
        }
    }

    /// Number of fanin edges over all live gates (the paper's `e`).
    pub fn edge_count(&self) -> usize {
        self.nodes
            .iter()
            .filter(|n| !n.dead)
            .map(|n| n.fanins().len())
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn two_gate_net() -> (Network, NodeId, NodeId, NodeId, NodeId) {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate("g1", CellRef(0), &[a, b]);
        let g2 = net.add_gate("g2", CellRef(1), &[g1, b]);
        net.add_output("o", g2);
        (net, a, b, g1, g2)
    }

    #[test]
    fn construction_and_lookup() {
        let (net, a, b, g1, g2) = two_gate_net();
        assert_eq!(net.node_count(), 4);
        assert_eq!(net.gate_count(), 2);
        assert_eq!(net.primary_input_count(), 2);
        assert_eq!(net.find("g1"), Some(g1));
        assert_eq!(net.find("nope"), None);
        assert_eq!(net.fanins(g2), &[g1, b]);
        assert_eq!(net.fanouts(a), &[g1]);
        assert_eq!(net.fanouts(b), &[g1, g2]);
        assert!(net.drives_output(g2));
        assert!(!net.drives_output(g1));
    }

    #[test]
    fn default_attributes() {
        let (net, _, _, g1, _) = two_gate_net();
        assert_eq!(net.node(g1).rail(), Rail::High);
        assert_eq!(net.node(g1).size(), SizeIx(0));
        assert!(!net.node(g1).is_converter());
        assert!(!net.node(g1).is_dead());
    }

    #[test]
    fn rail_and_size_mutation() {
        let (mut net, _, _, g1, _) = two_gate_net();
        net.set_rail(g1, Rail::Low);
        net.set_size(g1, SizeIx(2));
        assert_eq!(net.node(g1).rail(), Rail::Low);
        assert_eq!(net.node(g1).size(), SizeIx(2));
        assert!(net.node(g1).rail().is_low());
    }

    #[test]
    #[should_panic(expected = "set_rail on non-gate")]
    fn set_rail_rejects_inputs() {
        let (mut net, a, _, _, _) = two_gate_net();
        net.set_rail(a, Rail::Low);
    }

    #[test]
    fn edge_count_counts_fanin_edges() {
        let (net, ..) = two_gate_net();
        assert_eq!(net.edge_count(), 4);
    }

    #[test]
    fn fresh_name_avoids_collisions() {
        let (net, ..) = two_gate_net();
        let name = net.fresh_name("lc");
        assert!(net.find(&name).is_none());
    }

    #[test]
    fn node_id_display_and_roundtrip() {
        let id = NodeId::from_index(17);
        assert_eq!(id.index(), 17);
        assert_eq!(id.to_string(), "n17");
    }

    #[test]
    fn rail_display() {
        assert_eq!(Rail::High.to_string(), "Vhigh");
        assert_eq!(Rail::Low.to_string(), "Vlow");
        assert_eq!(Rail::default(), Rail::High);
    }

    #[test]
    fn gate_ids_skips_inputs() {
        let (net, _, _, g1, g2) = two_gate_net();
        let gates: Vec<_> = net.gate_ids().collect();
        assert_eq!(gates, vec![g1, g2]);
    }
}
