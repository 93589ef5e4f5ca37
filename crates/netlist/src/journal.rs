//! Transactional edit journal: invertible deltas + O(changes) rollback.
//!
//! The dual-Vdd algorithms are edit-heavy what-if loops: demote a cluster,
//! splice a level converter, resize a separator, and — when the attempt
//! regresses power or timing — take it all back. Snapshotting with
//! [`Network::clone`] makes every such attempt O(network); the journal makes
//! it O(edits since the checkpoint) instead.
//!
//! When enabled (see [`Network::enable_journal`]), the four mutating
//! operations the flow uses — [`Network::set_rail`], [`Network::set_size`],
//! [`Network::insert_converter`], [`Network::remove_converter`] — each push
//! one invertible [`EditOp`] delta. [`Network::checkpoint`] captures the
//! current journal position; [`Network::rollback_to`] pops and inverts
//! deltas in LIFO order until the network is **exactly** the checkpointed
//! structure again — fanin *and* fanout lists are restored verbatim
//! (element order included), so downstream float computations that iterate
//! those lists reproduce bit-identical results.
//!
//! Structural edits made through any other mutator (e.g. a raw
//! [`Network::add_gate`]) while a checkpoint is outstanding are not
//! invertible; [`Network::rollback_to`] detects the resulting live
//! out-of-journal nodes and panics rather than silently corrupting the
//! network.

use crate::network::{Network, NodeId, Rail, SizeIx};

/// One invertible edit delta. Stored in the journal newest-last; undoing an
/// op restores the exact pre-op state of every field it touched.
#[derive(Debug, Clone)]
pub(crate) enum EditOp {
    /// A rail change; `old` is the rail before the edit.
    SetRail {
        /// Edited gate.
        id: NodeId,
        /// Rail before the edit.
        old: Rail,
    },
    /// A drive-size change; `old` is the size before the edit.
    SetSize {
        /// Edited gate.
        id: NodeId,
        /// Size before the edit.
        old: SizeIx,
    },
    /// A [`Network::insert_converter`] call, recorded as one composite op.
    InsertConverter {
        /// The inserted converter gate (always the newest node slot).
        conv: NodeId,
        /// The driver the converter was spliced after.
        driver: NodeId,
        /// `driver`'s full fanout list before the insertion.
        driver_fanouts: Vec<NodeId>,
        /// Pre-insertion fanin list of every distinct rerouted sink.
        sink_fanins: Vec<(NodeId, Vec<NodeId>)>,
        /// Indices into the primary-output list whose driver moved to `conv`.
        moved_outputs: Vec<usize>,
    },
    /// A [`Network::remove_converter`] call, recorded as one composite op.
    RemoveConverter {
        /// The tombstoned converter gate.
        conv: NodeId,
        /// The converter's single fanin.
        driver: NodeId,
        /// `conv`'s fanout list before the removal (its rerouted sinks).
        conv_fanouts: Vec<NodeId>,
        /// `driver`'s full fanout list before the removal.
        driver_fanouts: Vec<NodeId>,
        /// Pre-removal fanin list of every distinct rerouted sink.
        sink_fanins: Vec<(NodeId, Vec<NodeId>)>,
        /// Indices into the primary-output list whose driver moved back to
        /// `driver`.
        moved_outputs: Vec<usize>,
    },
}

/// A position in a [`Network`]'s edit journal, captured by
/// [`Network::checkpoint`] and restored by [`Network::rollback_to`].
///
/// Checkpoints are plain positions, not owning snapshots: they are `Copy`,
/// cost nothing to take, and a single checkpoint can be rolled back to any
/// number of times (each rollback truncates the journal back to the
/// checkpointed position, after which new edits may accumulate again).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Checkpoint {
    /// Journal length at capture time.
    ops: usize,
    /// Node-slot count at capture time (journaled structural edits only
    /// ever *append* slots, so rollback truncates back to this).
    nodes: usize,
    /// Primary-output count at capture time (journaled edits never add or
    /// remove outputs, only redirect their drivers).
    outputs: usize,
}

impl Network {
    /// Switches the edit journal on (idempotent).
    ///
    /// From this point every [`Network::set_rail`], [`Network::set_size`],
    /// [`Network::insert_converter`] and [`Network::remove_converter`]
    /// records an invertible delta, enabling [`Network::checkpoint`] /
    /// [`Network::rollback_to`].
    pub fn enable_journal(&mut self) {
        if self.journal.is_none() {
            self.journal = Some(Vec::new());
        }
    }

    /// Switches the journal off and discards all recorded deltas.
    ///
    /// Outstanding [`Checkpoint`]s become invalid.
    pub fn disable_journal(&mut self) {
        self.journal = None;
    }

    /// Returns `true` while the edit journal is recording.
    pub fn journal_enabled(&self) -> bool {
        self.journal.is_some()
    }

    /// Number of deltas currently recorded in the journal.
    ///
    /// # Panics
    ///
    /// Panics if the journal is not enabled.
    pub fn journal_len(&self) -> usize {
        self.journal
            .as_ref()
            .expect("edit journal not enabled")
            .len()
    }

    pub(crate) fn record(&mut self, op: EditOp) {
        if let Some(journal) = self.journal.as_mut() {
            journal.push(op);
        }
    }

    /// Captures the current journal position as a [`Checkpoint`].
    ///
    /// # Panics
    ///
    /// Panics if the journal is not enabled.
    pub fn checkpoint(&self) -> Checkpoint {
        Checkpoint {
            ops: self
                .journal
                .as_ref()
                .expect("edit journal not enabled")
                .len(),
            nodes: self.nodes.len(),
            outputs: self.outputs.len(),
        }
    }

    /// Discards all recorded deltas, keeping the journal enabled.
    ///
    /// Use when the edits made so far are final and their undo information
    /// is no longer needed. Outstanding [`Checkpoint`]s become invalid.
    pub fn commit(&mut self) {
        if let Some(journal) = self.journal.as_mut() {
            journal.clear();
        }
    }

    /// Rolls the network back to the state captured by `cp`, undoing every
    /// journaled edit made since in O(edits) time.
    ///
    /// Fanin/fanout lists, rail/size attributes, primary-output drivers,
    /// name lookups and the live-gate count are restored exactly; node
    /// slots appended since the checkpoint are truncated away, so
    /// [`Network::node_count`] also returns to its checkpointed value.
    ///
    /// Returns the **rewired** surviving nodes (sorted, deduplicated): every
    /// node whose fanin list the undo rewrote, plus every converter it
    /// revived. A node's logic waveform depends only on its cell function
    /// and its fanins, so this is the seed set of an incremental power
    /// refresh. Rail and size undos are not reported (they move loads and
    /// voltages, never logic), nor is the driver of an undone splice (its
    /// fanouts change, its fanins do not), nor any truncated node.
    ///
    /// # Panics
    ///
    /// Panics if the journal is not enabled, if `cp` does not describe a
    /// prefix of the current journal, or if un-journaled structural edits
    /// (raw [`Network::add_gate`] / [`Network::add_input`] /
    /// [`Network::add_output`]) were made since the checkpoint.
    pub fn rollback_to(&mut self, cp: Checkpoint) -> Vec<NodeId> {
        let mut journal = self.journal.take().expect("edit journal not enabled");
        assert!(
            cp.ops <= journal.len() && cp.nodes <= self.nodes.len(),
            "checkpoint does not describe a prefix of this journal"
        );
        assert!(
            cp.outputs == self.outputs.len(),
            "primary outputs were added since the checkpoint (not journaled)"
        );
        let mut rewired = Vec::new();
        while journal.len() > cp.ops {
            match journal.pop().expect("journal length checked above") {
                EditOp::SetRail { id, old } => {
                    self.nodes[id.index()].rail = old;
                }
                EditOp::SetSize { id, old } => {
                    self.nodes[id.index()].size = old;
                }
                EditOp::InsertConverter {
                    conv,
                    driver,
                    driver_fanouts,
                    sink_fanins,
                    moved_outputs,
                } => {
                    for (sink, fanins) in sink_fanins {
                        *self.fanins_mut(sink) = fanins;
                        rewired.push(sink);
                    }
                    for ix in moved_outputs {
                        self.set_output_driver(ix, driver);
                    }
                    self.fanouts[driver.index()] = driver_fanouts;
                    // Tombstone the converter; the truncation pass below
                    // frees its (necessarily post-checkpoint) slot.
                    let cix = conv.index();
                    debug_assert!(!self.nodes[cix].dead);
                    let name = std::mem::take(&mut self.nodes[cix].name);
                    self.nodes[cix].dead = true;
                    self.fanouts[cix].clear();
                    self.live_gates -= 1;
                    self.by_name.remove(&name);
                }
                EditOp::RemoveConverter {
                    conv,
                    driver,
                    conv_fanouts,
                    driver_fanouts,
                    sink_fanins,
                    moved_outputs,
                } => {
                    let cix = conv.index();
                    debug_assert!(self.nodes[cix].dead);
                    self.nodes[cix].dead = false;
                    self.live_gates += 1;
                    let name = self.nodes[cix].name.clone();
                    self.by_name.insert(name, conv);
                    self.fanouts[cix] = conv_fanouts;
                    self.fanouts[driver.index()] = driver_fanouts;
                    for (sink, fanins) in sink_fanins {
                        *self.fanins_mut(sink) = fanins;
                        rewired.push(sink);
                    }
                    for ix in moved_outputs {
                        self.set_output_driver(ix, conv);
                    }
                    rewired.push(conv);
                }
            }
        }
        for node in &self.nodes[cp.nodes..] {
            assert!(
                node.dead,
                "rollback across an un-journaled structural edit (live node `{}`)",
                node.name
            );
        }
        self.nodes.truncate(cp.nodes);
        self.fanouts.truncate(cp.nodes);
        self.po_sinks.truncate(cp.nodes);
        self.journal = Some(journal);
        rewired.sort_unstable();
        rewired.dedup();
        rewired.retain(|id| id.index() < cp.nodes && !self.nodes[id.index()].dead);
        rewired
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::CellRef;

    /// Structural + attribute equality over the public view (the `Network`
    /// type itself deliberately has no `PartialEq`).
    fn assert_nets_equal(a: &Network, b: &Network) {
        assert_eq!(a.node_count(), b.node_count(), "node slot counts differ");
        assert_eq!(a.gate_count(), b.gate_count(), "live gate counts differ");
        for ix in 0..a.node_count() {
            let id = NodeId::from_index(ix);
            assert_eq!(a.node(id), b.node(id), "node {id} differs");
            assert_eq!(a.fanouts(id), b.fanouts(id), "fanouts of {id} differ");
            assert_eq!(
                a.find(a.node(id).name()),
                b.find(b.node(id).name()),
                "name lookup for {id} differs"
            );
        }
        assert_eq!(a.primary_outputs(), b.primary_outputs(), "outputs differ");
        assert_eq!(a.primary_inputs(), b.primary_inputs(), "inputs differ");
    }

    fn fixture() -> (Network, NodeId, NodeId, NodeId, NodeId) {
        let mut net = Network::new("j");
        let a = net.add_input("a");
        let drv = net.add_gate("drv", CellRef(0), &[a]);
        let s1 = net.add_gate("s1", CellRef(1), &[drv]);
        let s2 = net.add_gate("s2", CellRef(1), &[drv, a]);
        net.add_output("o1", s1);
        net.add_output("o2", drv);
        (net, a, drv, s1, s2)
    }

    #[test]
    fn attribute_edits_roll_back() {
        let (mut net, _, drv, s1, _) = fixture();
        net.enable_journal();
        let reference = net.clone();
        let cp = net.checkpoint();
        net.set_rail(drv, Rail::Low);
        net.set_size(s1, SizeIx(2));
        net.set_rail(drv, Rail::High); // and back again — still two deltas
        assert_eq!(net.journal_len(), 3);
        let rewired = net.rollback_to(cp);
        assert_eq!(net.journal_len(), 0);
        assert!(rewired.is_empty(), "attribute undos rewire nothing");
        assert_nets_equal(&net, &reference);
    }

    #[test]
    fn no_op_edits_record_nothing() {
        let (mut net, _, drv, _, _) = fixture();
        net.enable_journal();
        net.set_rail(drv, Rail::High);
        net.set_size(drv, SizeIx(0));
        assert_eq!(net.journal_len(), 0);
    }

    #[test]
    fn converter_insertion_rolls_back_exactly() {
        let (mut net, _, drv, s1, s2) = fixture();
        net.enable_journal();
        let reference = net.clone();
        let cp = net.checkpoint();
        let conv = net
            .insert_converter(drv, &[s1, s2], true, CellRef(9))
            .unwrap();
        assert!(net.node(conv).is_converter());
        assert!(net.drives_output(conv));
        let rewired = net.rollback_to(cp);
        // the sinks' fanins move back to the driver; the driver's own
        // fanins never changed, and the converter is truncated away
        assert_eq!(rewired, vec![s1, s2]);
        assert_nets_equal(&net, &reference);
    }

    #[test]
    fn converter_removal_rolls_back_exactly() {
        let (mut net, _, drv, s1, s2) = fixture();
        net.enable_journal();
        let conv = net
            .insert_converter(drv, &[s1, s2], false, CellRef(9))
            .unwrap();
        let reference = net.clone();
        let cp = net.checkpoint();
        net.remove_converter(conv).unwrap();
        assert!(net.node(conv).is_dead());
        let rewired = net.rollback_to(cp);
        // the converter is revived and its sinks re-adopt it; the driver
        // only regains a fanout
        assert_eq!(rewired, vec![s1, s2, conv]);
        assert_nets_equal(&net, &reference);
    }

    #[test]
    fn insert_then_remove_round_trip_rolls_back() {
        let (mut net, _, drv, s1, s2) = fixture();
        net.enable_journal();
        let reference = net.clone();
        let cp = net.checkpoint();
        let conv = net
            .insert_converter(drv, &[s1, s2], false, CellRef(9))
            .unwrap();
        net.set_rail(drv, Rail::Low);
        net.remove_converter(conv).unwrap();
        net.rollback_to(cp);
        assert_nets_equal(&net, &reference);
    }

    #[test]
    fn checkpoint_is_reusable_and_nested() {
        let (mut net, _, drv, s1, _) = fixture();
        net.enable_journal();
        let reference = net.clone();
        let base = net.checkpoint();
        net.set_rail(drv, Rail::Low);
        let mid = net.checkpoint();
        net.set_size(s1, SizeIx(1));
        net.rollback_to(mid); // inner rollback keeps the rail edit
        assert_eq!(net.node(drv).rail(), Rail::Low);
        assert_eq!(net.node(s1).size(), SizeIx(0));
        net.set_size(s1, SizeIx(2));
        net.rollback_to(base); // outer rollback undoes everything
        assert_nets_equal(&net, &reference);
        net.set_rail(drv, Rail::Low);
        net.rollback_to(base); // same checkpoint, used again
        assert_nets_equal(&net, &reference);
    }

    #[test]
    fn commit_drops_undo_information() {
        let (mut net, _, drv, _, _) = fixture();
        net.enable_journal();
        net.set_rail(drv, Rail::Low);
        net.commit();
        assert_eq!(net.journal_len(), 0);
        let cp = net.checkpoint();
        net.rollback_to(cp);
        assert_eq!(net.node(drv).rail(), Rail::Low); // committed edit survives
    }

    #[test]
    #[should_panic(expected = "un-journaled structural edit")]
    fn rollback_detects_raw_structural_edits() {
        let (mut net, a, _, _, _) = fixture();
        net.enable_journal();
        let cp = net.checkpoint();
        net.add_gate("rogue", CellRef(0), &[a]);
        net.rollback_to(cp);
    }

    #[test]
    #[should_panic(expected = "edit journal not enabled")]
    fn checkpoint_requires_enabled_journal() {
        let (net, ..) = fixture();
        net.checkpoint();
    }
}
