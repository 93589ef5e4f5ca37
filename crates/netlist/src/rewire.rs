//! Structural rewiring operations used for level-converter insertion and
//! removal.
//!
//! The dual-Vdd flow needs exactly two surgical edits:
//!
//! * [`Network::insert_converter`] — splice a single-input buffer-like gate
//!   between a (low-voltage) driver and a chosen subset of its (high-voltage)
//!   fanout sinks;
//! * [`Network::remove_converter`] — the inverse: bypass and tombstone a
//!   converter whose crossing disappeared because the sinks were later
//!   demoted to the low rail.
//!
//! Both maintain fanin/fanout consistency and are exercised heavily by the
//! `Dscale` algorithm.

use crate::{CellRef, NetlistError, Network, NodeId, Rail};

impl Network {
    /// Replaces every occurrence of `old` in `node`'s fanin list with `new`,
    /// updating both fanout lists. Returns the number of pins rewired.
    pub fn replace_fanin(&mut self, node: NodeId, old: NodeId, new: NodeId) -> usize {
        let mut count = 0;
        for f in self.fanins_mut(node).iter_mut() {
            if *f == old {
                *f = new;
                count += 1;
            }
        }
        if count > 0 {
            self.fanouts_mut(old).retain(|&x| x != node);
            for _ in 0..count {
                // one fanout entry per rewired pin keeps multiplicity intact
                self.fanouts_mut(new).push(node);
            }
            // `retain` above removed *all* entries for `node`; re-add the
            // pins that still reference `old` (multi-pin connections).
            let still = self.fanins(node).iter().filter(|&&f| f == old).count();
            for _ in 0..still {
                self.fanouts_mut(old).push(node);
            }
        }
        count
    }

    /// Inserts a level-restoration converter after `driver`, re-routing the
    /// given fanout `sinks` (and optionally the primary outputs driven by
    /// `driver` when `cover_outputs` is set) through the new gate.
    ///
    /// The converter is a fresh gate of cell `cell` with a single fanin
    /// (`driver`), powered from [`Rail::High`], and flagged so that reports
    /// can separate restoration circuitry from original logic.
    ///
    /// Returns the id of the inserted converter.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidOperation`] if `sinks` is empty and
    /// `cover_outputs` is `false`, or if some sink is not actually a fanout
    /// of `driver`.
    pub fn insert_converter(
        &mut self,
        driver: NodeId,
        sinks: &[NodeId],
        cover_outputs: bool,
        cell: CellRef,
    ) -> Result<NodeId, NetlistError> {
        if sinks.is_empty() && !cover_outputs {
            return Err(NetlistError::InvalidOperation {
                message: format!(
                    "converter after `{}` would drive nothing",
                    self.node(driver).name()
                ),
            });
        }
        for &s in sinks {
            if !self.fanouts(driver).contains(&s) {
                return Err(NetlistError::InvalidOperation {
                    message: format!(
                        "`{}` is not a fanout of `{}`",
                        self.node(s).name(),
                        self.node(driver).name()
                    ),
                });
            }
        }
        // Snapshot the exact pre-edit state of everything the splice will
        // touch so the journal can restore it verbatim (list order
        // included) on rollback.
        let snapshot = self.journal_enabled().then(|| {
            let driver_fanouts = self.fanouts(driver).to_vec();
            let mut sink_fanins: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
            for &s in sinks {
                if !sink_fanins.iter().any(|(t, _)| *t == s) {
                    sink_fanins.push((s, self.fanins(s).to_vec()));
                }
            }
            (driver_fanouts, sink_fanins)
        });
        let journal = self.journal.take(); // suppress inner per-edit deltas
        let name = self.fresh_name("lc_");
        let conv = self.add_gate(name, cell, &[driver]);
        self.mark_converter(conv);
        self.set_rail(conv, Rail::High);
        for &s in sinks {
            self.replace_fanin(s, driver, conv);
        }
        let moved_outputs = if cover_outputs {
            self.move_outputs(driver, conv)
        } else {
            Vec::new()
        };
        self.journal = journal;
        if let Some((driver_fanouts, sink_fanins)) = snapshot {
            self.record(crate::journal::EditOp::InsertConverter {
                conv,
                driver,
                driver_fanouts,
                sink_fanins,
                moved_outputs,
            });
        }
        Ok(conv)
    }

    /// Removes a previously inserted converter, re-routing its sinks back to
    /// its single fanin and tombstoning the node.
    ///
    /// # Errors
    ///
    /// Returns [`NetlistError::InvalidOperation`] if `conv` is not a live
    /// converter gate with exactly one fanin.
    pub fn remove_converter(&mut self, conv: NodeId) -> Result<(), NetlistError> {
        let node = self.node(conv);
        if node.is_dead() || !node.is_converter() || node.fanins().len() != 1 {
            return Err(NetlistError::InvalidOperation {
                message: format!("`{}` is not a removable converter", node.name()),
            });
        }
        let driver = node.fanins()[0];
        let snapshot = self.journal_enabled().then(|| {
            let conv_fanouts = self.fanouts(conv).to_vec();
            let driver_fanouts = self.fanouts(driver).to_vec();
            let mut sink_fanins: Vec<(NodeId, Vec<NodeId>)> = Vec::new();
            for &s in self.fanouts(conv) {
                if !sink_fanins.iter().any(|(t, _)| *t == s) {
                    sink_fanins.push((s, self.fanins(s).to_vec()));
                }
            }
            (conv_fanouts, driver_fanouts, sink_fanins)
        });
        let journal = self.journal.take(); // suppress inner per-edit deltas
        let sinks: Vec<NodeId> = self.fanouts(conv).to_vec();
        for s in sinks {
            self.replace_fanin(s, conv, driver);
        }
        let moved_outputs = self.move_outputs(conv, driver);
        // Detach from the driver's fanout list and tombstone.
        self.fanouts_mut(driver).retain(|&x| x != conv);
        self.fanouts_mut(conv).clear();
        self.kill(conv);
        self.journal = journal;
        if let Some((conv_fanouts, driver_fanouts, sink_fanins)) = snapshot {
            self.record(crate::journal::EditOp::RemoveConverter {
                conv,
                driver,
                conv_fanouts,
                driver_fanouts,
                sink_fanins,
                moved_outputs,
            });
        }
        Ok(())
    }

    /// Moves every primary output driven by `from` to `to` and returns
    /// their indices; scans the outputs only when `from` drives one.
    fn move_outputs(&mut self, from: NodeId, to: NodeId) -> Vec<usize> {
        if !self.drives_output(from) {
            return Vec::new();
        }
        let moved: Vec<usize> = (0..self.outputs.len())
            .filter(|&ix| self.outputs[ix].1 == from)
            .collect();
        for &ix in &moved {
            self.set_output_driver(ix, to);
        }
        moved
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fixture() -> (Network, NodeId, NodeId, NodeId, NodeId) {
        let mut net = Network::new("t");
        let a = net.add_input("a");
        let drv = net.add_gate("drv", CellRef(0), &[a]);
        let s1 = net.add_gate("s1", CellRef(1), &[drv]);
        let s2 = net.add_gate("s2", CellRef(1), &[drv]);
        net.add_output("o1", s1);
        net.add_output("o2", drv);
        (net, a, drv, s1, s2)
    }

    #[test]
    fn insert_covers_selected_sinks_only() {
        let (mut net, _, drv, s1, s2) = fixture();
        let conv = net.insert_converter(drv, &[s1], false, CellRef(9)).unwrap();
        assert_eq!(net.fanins(s1), &[conv]);
        assert_eq!(net.fanins(s2), &[drv]);
        assert!(net.node(conv).is_converter());
        assert_eq!(net.node(conv).rail(), Rail::High);
        assert_eq!(net.fanins(conv), &[drv]);
        assert!(net.fanouts(drv).contains(&conv));
        assert!(!net.fanouts(drv).contains(&s1));
        // primary output o2 still tied to drv
        assert!(net.drives_output(drv));
    }

    #[test]
    fn insert_covers_primary_outputs_when_asked() {
        let (mut net, _, drv, _, _) = fixture();
        let conv = net.insert_converter(drv, &[], true, CellRef(9)).unwrap();
        assert!(!net.drives_output(drv));
        assert!(net.drives_output(conv));
    }

    #[test]
    fn insert_rejects_non_fanout_sink() {
        let (mut net, a, drv, _, _) = fixture();
        let bogus = net.add_gate("x", CellRef(0), &[a]);
        let err = net.insert_converter(drv, &[bogus], false, CellRef(9));
        assert!(err.is_err());
    }

    #[test]
    fn insert_rejects_empty() {
        let (mut net, _, drv, _, _) = fixture();
        assert!(net.insert_converter(drv, &[], false, CellRef(9)).is_err());
    }

    #[test]
    fn remove_round_trips() {
        let (mut net, _, drv, s1, s2) = fixture();
        let gates_before = net.gate_count();
        let conv = net
            .insert_converter(drv, &[s1, s2], false, CellRef(9))
            .unwrap();
        assert_eq!(net.converter_count(), 1);
        net.remove_converter(conv).unwrap();
        assert_eq!(net.converter_count(), 0);
        assert_eq!(net.gate_count(), gates_before);
        assert_eq!(net.fanins(s1), &[drv]);
        assert_eq!(net.fanins(s2), &[drv]);
        assert!(net.node(conv).is_dead());
        assert!(!net.fanouts(drv).contains(&conv));
        // the id is tombstoned but stable; topo order skips it
        assert_eq!(net.topo_order().len(), net.node_count() - 1);
    }

    #[test]
    fn remove_rejects_plain_gates() {
        let (mut net, _, _, s1, _) = fixture();
        assert!(net.remove_converter(s1).is_err());
    }

    #[test]
    fn replace_fanin_handles_multi_pin() {
        let mut net = Network::new("m");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate("g", CellRef(0), &[a, a, b]);
        let n = net.replace_fanin(g, a, b);
        assert_eq!(n, 2);
        assert_eq!(net.fanins(g), &[b, b, b]);
        assert_eq!(net.fanouts(a).len(), 0);
        assert_eq!(net.fanouts(b).len(), 3);
    }

    #[test]
    fn logic_gate_count_excludes_converters() {
        let (mut net, _, drv, s1, _) = fixture();
        net.insert_converter(drv, &[s1], false, CellRef(9)).unwrap();
        assert_eq!(net.gate_count(), 4);
        assert_eq!(net.logic_gate_count(), 3);
    }
}
