use std::collections::BinaryHeap;

use dvs_celllib::Library;
use dvs_netlist::{Network, NodeId, Rail};

use crate::load::load_pf;

/// Arrival/required/slack view of a network under a timing constraint.
///
/// Built by [`Timing::analyze`] in `O(n + e)`; kept consistent under gate
/// attribute changes by [`Timing::apply_gate_change`] and under the flow's
/// structural edits by [`Timing::apply_converter_insertion`] /
/// [`Timing::apply_converter_removal`] — all three are worklist
/// propagations touching only the affected cones, so hot loops never need
/// the from-scratch [`Timing::rebuild`].
///
/// Incremental timing is exact: a propagation goes on while any bit of a
/// value moves, so after any sequence of updates every arrival, required
/// time, load and delay equals a fresh [`Timing::analyze`] of the same
/// network bit for bit (by induction over the topological order: each value
/// is recomputed, by the same formula, whenever one of its inputs moved).
/// [`Timing::retarget`] therefore moves the constraint with one backward
/// pass of required times over a flat topological index, and
/// [`Timing::lower_sweep`] runs a whole clustered-voltage-scaling pass as
/// one backward pass that takes the demotion decisions plus one forward
/// pass of arrivals.
///
/// A gate edit that may be taken back is cheaper as a *trial*:
/// [`Timing::trial_gate_change`] does the forward half of
/// [`Timing::apply_gate_change`] (loads, delays and arrivals) and logs every
/// value it overwrites; [`Timing::keep_trial`] then runs the backward half,
/// and [`Timing::undo_trial`] restores the logged values instead. Required
/// times never move during a trial.
///
/// No output state is kept here: pad loads and required-time anchors are
/// read from the network's own sink counts ([`Network::po_sink_count`]),
/// and [`Timing::worst_po_slack`] folds over [`Network::primary_outputs`].
#[derive(Debug, Clone)]
pub struct Timing {
    tspec_ns: f64,
    arrival: Vec<f64>,
    required: Vec<f64>,
    delay: Vec<f64>,
    load: Vec<f64>,
    /// Topological position of every node; a converter inserted since the
    /// last rebuild shares its driver's.
    topo_pos: Vec<u32>,
    /// The network's structure as of the last rebuild, dropped by any
    /// structural edit.
    index: Option<TopoIndex>,
    /// Worklist flags of the incremental propagations, indexed by node and
    /// all false between calls.
    queued: Vec<bool>,
    /// Worklist of the incremental propagations, empty between calls.
    heap: BinaryHeap<(i64, NodeId)>,
    /// The nodes whose load or delay the open trial moved, which seed its
    /// backward pass; `None` when no trial is open.
    trial: Option<Vec<NodeId>>,
    /// Every value the open trial overwrote, oldest first; empty between
    /// trials.
    trial_log: Vec<Saved>,
}

/// A value overwritten by a trial.
#[derive(Debug, Clone, Copy)]
enum Saved {
    Arrival(NodeId, f64),
    /// Load and delay of a node.
    Gate(NodeId, f64, f64),
}

/// The live nodes of a network in topological order, with each node's
/// fanins and fanouts flattened into one array apiece (in the network's
/// list order), so full-network sweeps stream through memory instead of
/// chasing per-node lists.
#[derive(Debug, Clone)]
struct TopoIndex {
    /// Node at each position.
    order: Vec<NodeId>,
    /// `fanins[fanin_at[p]..fanin_at[p + 1]]` are the fanins at position `p`.
    fanin_at: Vec<u32>,
    fanins: Vec<NodeId>,
    /// `fanouts[fanout_at[p]..fanout_at[p + 1]]` are the fanouts at `p`.
    fanout_at: Vec<u32>,
    fanouts: Vec<NodeId>,
    /// Whether the required time at `p` starts from the constraint: the
    /// node drives a primary output or nothing at all.
    anchored: Vec<bool>,
}

impl TopoIndex {
    fn new(net: &Network) -> Self {
        let order = net.topo_order();
        let edges = net.edge_count();
        let mut index = TopoIndex {
            fanin_at: Vec::with_capacity(order.len() + 1),
            fanins: Vec::with_capacity(edges),
            fanout_at: Vec::with_capacity(order.len() + 1),
            fanouts: Vec::with_capacity(edges),
            anchored: Vec::with_capacity(order.len()),
            order,
        };
        for &id in &index.order {
            index.fanin_at.push(offset(index.fanins.len()));
            index.fanins.extend_from_slice(net.fanins(id));
            index.fanout_at.push(offset(index.fanouts.len()));
            index.fanouts.extend_from_slice(net.fanouts(id));
            index
                .anchored
                .push(net.drives_output(id) || net.fanouts(id).is_empty());
        }
        index.fanin_at.push(offset(index.fanins.len()));
        index.fanout_at.push(offset(index.fanouts.len()));
        index
    }

    fn fanins(&self, pos: usize) -> &[NodeId] {
        &self.fanins[self.fanin_at[pos] as usize..self.fanin_at[pos + 1] as usize]
    }

    fn fanouts(&self, pos: usize) -> &[NodeId] {
        &self.fanouts[self.fanout_at[pos] as usize..self.fanout_at[pos + 1] as usize]
    }
}

fn offset(len: usize) -> u32 {
    u32::try_from(len).expect("a network has fewer than 2^32 edges")
}

impl Timing {
    /// Runs a full static timing analysis of `net` against the required
    /// time `tspec_ns` at every primary output.
    pub fn analyze(net: &Network, lib: &Library, tspec_ns: f64) -> Self {
        let mut t = Timing {
            tspec_ns,
            arrival: Vec::new(),
            required: Vec::new(),
            delay: Vec::new(),
            load: Vec::new(),
            topo_pos: Vec::new(),
            index: None,
            queued: Vec::new(),
            heap: BinaryHeap::new(),
            trial: None,
            trial_log: Vec::new(),
        };
        t.rebuild(net, lib);
        t
    }

    /// Recomputes everything from scratch — required after structural edits
    /// (level-converter insertion/removal) which invalidate the cached
    /// topological order — and rebuilds the flat topological index that
    /// its own passes, [`Timing::retarget`] and [`Timing::lower_sweep`]
    /// read.
    pub fn rebuild(&mut self, net: &Network, lib: &Library) {
        debug_assert!(self.trial.is_none(), "rebuild with a trial open");
        let n = net.node_count();
        self.index = None;
        let index = self.take_index(net);
        self.arrival = vec![0.0; n];
        self.required = vec![f64::INFINITY; n];
        self.delay = vec![0.0; n];
        self.load = vec![0.0; n];
        for &id in &index.order {
            self.rederive(net, lib, id);
        }
        self.queued = vec![false; n];
        self.forward_pass(&index);
        self.backward_pass(&index);
        self.index = Some(index);
    }

    /// Re-anchors the analysis at a new constraint `tspec_ns` without a
    /// full [`Timing::analyze`]: one backward pass over the flat
    /// topological index re-derives every required time. Arrivals, loads
    /// and delays do not depend on the constraint, and incremental updates
    /// keep them exact, so nothing else is recomputed.
    ///
    /// # Exactness
    ///
    /// The result is bit-identical to `Timing::analyze(net, lib, tspec_ns)`
    /// provided the network saw no structural edit (no converter insertion
    /// or removal) since the last [`Timing::analyze`] / [`Timing::rebuild`].
    ///
    /// # Panics
    ///
    /// If a converter was inserted or removed since the last
    /// [`Timing::analyze`] / [`Timing::rebuild`].
    pub fn retarget(&mut self, tspec_ns: f64) {
        debug_assert!(self.trial.is_none(), "retarget with a trial open");
        let index = self.index.take().expect(
            "Timing::retarget after a converter insertion or removal: call Timing::rebuild first",
        );
        self.tspec_ns = tspec_ns;
        self.backward_pass(&index);
        self.index = Some(index);
    }

    /// Runs one clustered-voltage-scaling pass as a single reverse sweep:
    /// walks the live nodes in reverse topological order, sets each node's
    /// required time from its fanouts, asks `lower(net, timing, node)`
    /// whether the node goes to the low rail and, if so, moves it there and
    /// re-derives its delay before any of its fanins is visited. One
    /// forward pass of arrivals follows. Returns the STA events: one per
    /// required time and one per arrival evaluated, plus one per delay
    /// re-derived, recorded as one `sta.events_per_change` sample and one
    /// `sta.events` attribution to the network's name.
    ///
    /// When `lower` sees a node, every fanout is settled (its required time
    /// and, if it went low, its delay are final), while the node's own
    /// arrival, delay and load are still those of the entry state — which
    /// are exact for it, because nothing upstream of it has changed and a
    /// demotion moves no input capacitance, so no load changes. A decision
    /// that reads only these values (such as `dvs-core`'s `demotion_fits`)
    /// is therefore the one an incremental re-timing after every demotion
    /// would take, and the result equals a fresh [`Timing::analyze`] of the
    /// lowered network bit for bit.
    ///
    /// If a converter was inserted or removed since the last
    /// [`Timing::rebuild`], the network is re-indexed first.
    pub fn lower_sweep<F>(&mut self, net: &mut Network, lib: &Library, mut lower: F) -> usize
    where
        F: FnMut(&Network, &Timing, NodeId) -> bool,
    {
        debug_assert!(self.trial.is_none(), "lower_sweep with a trial open");
        let index = self.take_index(net);
        let mut lowered = 0;
        for pos in (0..index.order.len()).rev() {
            let id = index.order[pos];
            self.required[id.index()] =
                self.required_via_fanouts(index.anchored[pos], index.fanouts(pos));
            if lower(net, self, id) {
                net.set_rail(id, Rail::Low);
                debug_assert!(
                    std::iter::once(&id)
                        .chain(index.fanins(pos))
                        .all(|f| load_pf(net, lib, *f).to_bits() == self.load[f.index()].to_bits()),
                    "a demotion moved a load"
                );
                self.delay[id.index()] = gate_delay(net, lib, id, self.load[id.index()]);
                lowered += 1;
            }
        }
        self.forward_pass(&index);
        let events = 2 * index.order.len() + lowered;
        self.index = Some(index);
        dvs_obs::hist_record("sta.events_per_change", events as u64);
        dvs_obs::attr_add("sta.events", || net.name(), events as u64);
        events
    }

    /// Takes the flat topological index, re-indexing the network (every
    /// node's position included) if a structural edit dropped it.
    fn take_index(&mut self, net: &Network) -> TopoIndex {
        if let Some(index) = self.index.take() {
            return index;
        }
        let index = TopoIndex::new(net);
        self.topo_pos = vec![0; net.node_count()];
        for (pos, &id) in index.order.iter().enumerate() {
            self.topo_pos[id.index()] = pos as u32;
        }
        index
    }

    /// Recomputes load and delay of `id` from the network.
    fn rederive(&mut self, net: &Network, lib: &Library, id: NodeId) {
        self.load[id.index()] = load_pf(net, lib, id);
        self.delay[id.index()] = gate_delay(net, lib, id, self.load[id.index()]);
    }

    /// Re-derives every arrival in one pass over the topological index.
    fn forward_pass(&mut self, index: &TopoIndex) {
        for (pos, &id) in index.order.iter().enumerate() {
            self.arrival[id.index()] = self.arrival_via(index.fanins(pos), id);
        }
    }

    /// Re-derives every required time in one backward pass over the
    /// topological index.
    fn backward_pass(&mut self, index: &TopoIndex) {
        for pos in (0..index.order.len()).rev() {
            let req = self.required_via_fanouts(index.anchored[pos], index.fanouts(pos));
            self.required[index.order[pos].index()] = req;
        }
    }

    fn compute_arrival(&self, net: &Network, id: NodeId) -> f64 {
        self.arrival_via(net.fanins(id), id)
    }

    /// Arrival at `id` given its fanins.
    fn arrival_via(&self, fanins: &[NodeId], id: NodeId) -> f64 {
        let base = fanins
            .iter()
            .map(|f| self.arrival[f.index()])
            .fold(0.0f64, f64::max);
        base + self.delay[id.index()]
    }

    fn compute_required(&self, net: &Network, id: NodeId) -> f64 {
        let fanouts = net.fanouts(id);
        self.required_via_fanouts(net.drives_output(id) || fanouts.is_empty(), fanouts)
    }

    /// Required time at a node given its fanouts, starting from the
    /// constraint when `anchored`.
    fn required_via_fanouts(&self, anchored: bool, fanouts: &[NodeId]) -> f64 {
        let mut req = if anchored {
            self.tspec_ns
        } else {
            f64::INFINITY
        };
        for &fo in fanouts {
            req = req.min(self.required[fo.index()] - self.delay[fo.index()]);
        }
        req
    }

    /// The timing constraint, ns.
    pub fn tspec_ns(&self) -> f64 {
        self.tspec_ns
    }

    /// Signal arrival time at the output of `node`, ns.
    pub fn arrival_ns(&self, node: NodeId) -> f64 {
        self.arrival[node.index()]
    }

    /// Required time at the output of `node`, ns.
    pub fn required_ns(&self, node: NodeId) -> f64 {
        self.required[node.index()]
    }

    /// Timing slack of `node`, ns (negative means a violation through it).
    pub fn slack_ns(&self, node: NodeId) -> f64 {
        self.required[node.index()] - self.arrival[node.index()]
    }

    /// Current pin-to-pin delay of `node`, ns (0 for primary inputs).
    pub fn delay_ns(&self, node: NodeId) -> f64 {
        self.delay[node.index()]
    }

    /// Capacitive load currently seen by `node`'s output, pF.
    pub fn load_pf(&self, node: NodeId) -> f64 {
        self.load[node.index()]
    }

    /// Latest arrival over all primary outputs — the achieved delay of the
    /// block.
    pub fn critical_delay_ns(&self, net: &Network) -> f64 {
        net.primary_outputs()
            .iter()
            .map(|(_, d)| self.arrival[d.index()])
            .fold(0.0f64, f64::max)
    }

    /// Returns `true` if every primary output of `net` meets the
    /// constraint within `eps` ns.
    pub fn meets_constraint(&self, net: &Network, eps: f64) -> bool {
        self.worst_po_slack(net) >= -eps
    }

    /// Minimum slack over the primary outputs of `net`, ns (+∞ without
    /// outputs).
    pub fn worst_po_slack(&self, net: &Network) -> f64 {
        // PO slack equals tspec − arrival at the driver; required at a
        // driver may be tighter than tspec because of other fanouts, so use
        // the constraint directly.
        net.primary_outputs()
            .iter()
            .map(|(_, d)| self.tspec_ns - self.arrival[d.index()])
            .fold(f64::INFINITY, f64::min)
    }

    /// Required time at `node` considering only the sinks selected by
    /// `keep_sink` (and the PO constraint when `include_po` is set).
    ///
    /// `Dscale` uses this to split a candidate's timing budget between the
    /// fanouts that stay on the high rail (which will see an extra level
    /// converter) and those that do not.
    pub fn required_via<F>(
        &self,
        net: &Network,
        node: NodeId,
        include_po: bool,
        keep_sink: F,
    ) -> f64
    where
        F: Fn(NodeId) -> bool,
    {
        let mut req = if include_po && net.drives_output(node) {
            self.tspec_ns
        } else {
            f64::INFINITY
        };
        for &fo in net.fanouts(node) {
            if keep_sink(fo) {
                req = req.min(self.required[fo.index()] - self.delay[fo.index()]);
            }
        }
        req
    }

    /// Re-derives load and delay of `changed` and of its fanins (whose
    /// loads may have moved if `changed`'s input capacitance changed), then
    /// propagates arrival times downstream and required times upstream
    /// until quiescence.
    ///
    /// Call after flipping a gate's rail ([`Network::set_rail`]) or size
    /// ([`Network::set_size`]). For converter insertion/removal use
    /// [`Timing::apply_converter_insertion`] /
    /// [`Timing::apply_converter_removal`].
    ///
    /// Returns the number of node recomputations performed (load/delay
    /// re-derivations plus worklist arrival/required evaluations) — the
    /// instrumentation currency the flow layer reports as "STA events".
    pub fn apply_gate_change(&mut self, net: &Network, lib: &Library, changed: NodeId) -> usize {
        debug_assert!(self.trial.is_none(), "apply_gate_change with a trial open");
        let (forward, moved) = self.change_forward(net, lib, changed, false);
        let events = forward + self.change_backward(net, &moved);
        dvs_obs::hist_record("sta.events_per_change", events as u64);
        dvs_obs::attr_add("sta.events", || net.node(changed).name(), events as u64);
        events
    }

    /// Opens a trial of an edit to `changed`: the forward half of
    /// [`Timing::apply_gate_change`]. Load and
    /// delay of `changed` and its fanins are re-derived and arrivals
    /// propagated downstream; required times are left alone, so until the
    /// trial is closed they (and slacks) describe the network before the
    /// edit. Every overwritten value is logged.
    ///
    /// Close the trial with [`Timing::keep_trial`] or
    /// [`Timing::undo_trial`] before any other update. Arrivals, and so
    /// [`Timing::critical_delay_ns`] and [`Timing::meets_constraint`], may
    /// be read while it is open. A trial records no observability events.
    pub fn trial_gate_change(&mut self, net: &Network, lib: &Library, changed: NodeId) {
        debug_assert!(self.trial.is_none(), "a trial is already open");
        let (_, moved) = self.change_forward(net, lib, changed, true);
        self.trial = Some(moved);
    }

    /// Keeps the open trial: runs the backward pass that
    /// [`Timing::apply_gate_change`] would have run, from the same seeds,
    /// so the result is bit-identical to applying the edit directly.
    ///
    /// # Panics
    ///
    /// If no trial is open.
    pub fn keep_trial(&mut self, net: &Network) {
        let moved = self.trial.take().expect("no trial is open");
        self.trial_log.clear();
        self.change_backward(net, &moved);
    }

    /// Takes the open trial back: restores every logged value in reverse
    /// order, which returns every arrival, load and delay to its exact bits
    /// before the trial. The caller restores the network edit itself.
    ///
    /// # Panics
    ///
    /// If no trial is open.
    pub fn undo_trial(&mut self) {
        self.trial.take().expect("no trial is open");
        while let Some(saved) = self.trial_log.pop() {
            match saved {
                Saved::Arrival(id, arrival) => self.arrival[id.index()] = arrival,
                Saved::Gate(id, load, delay) => {
                    self.load[id.index()] = load;
                    self.delay[id.index()] = delay;
                }
            }
        }
    }

    /// The forward half of a gate change: re-derives load and delay of
    /// `changed` and its fanins, and propagates arrivals from the nodes
    /// where either moved by any bit, logging every
    /// overwritten value in `trial_log` when `log` is set. Returns the
    /// number of node recomputations and the moved nodes.
    fn change_forward(
        &mut self,
        net: &Network,
        lib: &Library,
        changed: NodeId,
        log: bool,
    ) -> (usize, Vec<NodeId>) {
        let mut moved = Vec::new();
        let touched = std::iter::once(changed).chain(net.fanins(changed).iter().copied());
        for id in touched {
            let new_load = load_pf(net, lib, id);
            let new_delay = gate_delay(net, lib, id, new_load);
            let (load, delay) = (self.load[id.index()], self.delay[id.index()]);
            if differs(new_delay, delay) || differs(new_load, load) {
                if log {
                    self.trial_log.push(Saved::Gate(id, load, delay));
                }
                self.load[id.index()] = new_load;
                self.delay[id.index()] = new_delay;
                moved.push(id);
            }
        }
        let events =
            1 + net.fanins(changed).len() + self.propagate_forward(net, moved.iter().copied(), log);
        (events, moved)
    }

    /// The backward half of a gate change: required times of the `moved`
    /// nodes' fanins depend on the moved delays; seed the backward pass
    /// with those fanins plus the moved nodes themselves (whose own
    /// required may change via fanouts — unchanged here, but re-checking is
    /// cheap and keeps this correct when callers batch changes). Returns
    /// the number of node recomputations.
    fn change_backward(&mut self, net: &Network, moved: &[NodeId]) -> usize {
        let seeds = moved
            .iter()
            .flat_map(|&id| std::iter::once(id).chain(net.fanins(id).iter().copied()));
        self.propagate_backward(net, seeds)
    }

    /// Incrementally absorbs a [`Network::insert_converter`] edit: grows the
    /// per-node tables for the new gate, grafts it into the cached
    /// topological positions (sharing its driver's rank — the fixed-point
    /// worklist tolerates the tie at the cost of at most one extra
    /// relaxation), and re-propagates arrival/required only through the
    /// affected cones. The O(n) [`Timing::rebuild`] is never needed.
    ///
    /// `conv` is the id returned by [`Network::insert_converter`]; the edit
    /// must already be applied to `net`. Returns the number of node
    /// recomputations performed.
    pub fn apply_converter_insertion(
        &mut self,
        net: &Network,
        lib: &Library,
        conv: NodeId,
    ) -> usize {
        debug_assert!(
            self.trial.is_none(),
            "converter insertion with a trial open"
        );
        let n = net.node_count();
        debug_assert_eq!(conv.index(), n - 1, "converter is always the newest slot");
        let driver = net.fanins(conv)[0];
        self.arrival.resize(n, 0.0);
        self.required.resize(n, f64::INFINITY);
        self.delay.resize(n, 0.0);
        self.load.resize(n, 0.0);
        self.topo_pos.resize(n, 0);
        self.topo_pos[conv.index()] = self.topo_pos[driver.index()];
        self.queued.resize(n, false);
        self.index = None;
        for id in [driver, conv] {
            self.rederive(net, lib, id);
        }
        let mut events = 2;
        let fwd = [driver, conv]
            .into_iter()
            .chain(net.fanouts(conv).iter().copied());
        events += self.propagate_forward(net, fwd, false);
        let bwd = [conv, driver]
            .into_iter()
            .chain(net.fanins(driver).iter().copied());
        events += self.propagate_backward(net, bwd);
        dvs_obs::hist_record("sta.events_per_change", events as u64);
        // attribute converter work to the driver: the converter's own name
        // is synthetic, the driver is the gate the optimization targeted
        dvs_obs::attr_add("sta.events", || net.node(driver).name(), events as u64);
        events
    }

    /// Incrementally absorbs a [`Network::remove_converter`] edit: resets
    /// the tombstoned `conv` slot to the exact values a fresh
    /// [`Timing::analyze`] would give a dead node, then re-propagates
    /// arrival/required around `driver` (the converter's former fanin),
    /// whose sinks and primary outputs have been rerouted back to it.
    ///
    /// Must be called after [`Network::remove_converter`]; `driver` is the
    /// removed converter's single fanin (known to the caller, no longer
    /// discoverable from the tombstone's cleared fanout list). Returns the
    /// number of node recomputations performed.
    pub fn apply_converter_removal(
        &mut self,
        net: &Network,
        lib: &Library,
        conv: NodeId,
        driver: NodeId,
    ) -> usize {
        debug_assert!(self.trial.is_none(), "converter removal with a trial open");
        debug_assert!(net.node(conv).is_dead());
        let cix = conv.index();
        self.arrival[cix] = 0.0;
        self.required[cix] = f64::INFINITY;
        self.delay[cix] = 0.0;
        self.load[cix] = 0.0;
        self.index = None;
        self.rederive(net, lib, driver);
        let mut events = 1;
        let fwd = std::iter::once(driver).chain(net.fanouts(driver).iter().copied());
        events += self.propagate_forward(net, fwd, false);
        let bwd = std::iter::once(driver).chain(net.fanins(driver).iter().copied());
        events += self.propagate_backward(net, bwd);
        dvs_obs::hist_record("sta.events_per_change", events as u64);
        dvs_obs::attr_add("sta.events", || net.node(driver).name(), events as u64);
        events
    }

    /// Propagates arrivals from `seeds` until quiescence, logging every
    /// overwritten arrival in `trial_log` when `log` is set.
    fn propagate_forward(
        &mut self,
        net: &Network,
        seeds: impl Iterator<Item = NodeId>,
        log: bool,
    ) -> usize {
        // min-heap on topological position (BinaryHeap is a max-heap, so
        // store negated positions)
        let mut heap = std::mem::take(&mut self.heap);
        let mut queued = std::mem::take(&mut self.queued);
        let mut events = 0;
        for s in seeds {
            if !queued[s.index()] {
                queued[s.index()] = true;
                heap.push((-(self.topo_pos[s.index()] as i64), s));
            }
        }
        while let Some((_, id)) = heap.pop() {
            queued[id.index()] = false;
            events += 1;
            let fresh = self.compute_arrival(net, id);
            let old = self.arrival[id.index()];
            if differs(fresh, old) {
                if log {
                    self.trial_log.push(Saved::Arrival(id, old));
                }
                self.arrival[id.index()] = fresh;
                for &fo in net.fanouts(id) {
                    if !queued[fo.index()] {
                        queued[fo.index()] = true;
                        heap.push((-(self.topo_pos[fo.index()] as i64), fo));
                    }
                }
            }
        }
        self.heap = heap;
        self.queued = queued;
        events
    }

    fn propagate_backward(&mut self, net: &Network, seeds: impl Iterator<Item = NodeId>) -> usize {
        let mut heap = std::mem::take(&mut self.heap);
        let mut queued = std::mem::take(&mut self.queued);
        let mut events = 0;
        for s in seeds {
            if !queued[s.index()] {
                queued[s.index()] = true;
                heap.push((self.topo_pos[s.index()] as i64, s));
            }
        }
        while let Some((_, id)) = heap.pop() {
            queued[id.index()] = false;
            events += 1;
            let fresh = self.compute_required(net, id);
            if differs(fresh, self.required[id.index()]) {
                self.required[id.index()] = fresh;
                for &fi in net.fanins(id) {
                    if !queued[fi.index()] {
                        queued[fi.index()] = true;
                        heap.push((self.topo_pos[fi.index()] as i64, fi));
                    }
                }
            }
        }
        self.heap = heap;
        self.queued = queued;
        events
    }
}

/// Whether a recomputed value differs from the cached one in any bit: the
/// propagations stop only where nothing moved, which keeps incremental
/// timing bit-identical to a fresh analysis.
fn differs(fresh: f64, cached: f64) -> bool {
    fresh.to_bits() != cached.to_bits()
}

fn gate_delay(net: &Network, lib: &Library, id: NodeId, load: f64) -> f64 {
    let node = net.node(id);
    if node.is_gate() {
        lib.delay_ns(node.cell(), node.size(), node.rail(), load)
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};
    use dvs_netlist::{Network, Rail, SizeIx};

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    /// inv chain of length `n` with an output tap after every stage
    fn chain(lib: &Library, n: usize) -> (Network, Vec<NodeId>) {
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("chain");
        let mut prev = net.add_input("a");
        let mut gates = Vec::new();
        for k in 0..n {
            prev = net.add_gate(format!("g{k}"), inv, &[prev]);
            gates.push(prev);
        }
        net.add_output("y", prev);
        (net, gates)
    }

    #[test]
    fn arrival_accumulates_along_chain() {
        let lib = lib();
        let (net, gates) = chain(&lib, 4);
        let t = Timing::analyze(&net, &lib, 100.0);
        for w in gates.windows(2) {
            assert!(t.arrival_ns(w[1]) > t.arrival_ns(w[0]));
        }
        assert!(t.meets_constraint(&net, 0.0));
        assert!(t.critical_delay_ns(&net) > 0.0);
    }

    #[test]
    fn slack_is_required_minus_arrival() {
        let lib = lib();
        let (net, gates) = chain(&lib, 3);
        let t = Timing::analyze(&net, &lib, 5.0);
        for &g in &gates {
            assert!((t.slack_ns(g) - (t.required_ns(g) - t.arrival_ns(g))).abs() < 1e-12);
        }
        // on a pure chain every gate has the same slack
        let s0 = t.slack_ns(gates[0]);
        for &g in &gates {
            assert!((t.slack_ns(g) - s0).abs() < 1e-9);
        }
    }

    #[test]
    fn violation_detected() {
        let lib = lib();
        let (net, _) = chain(&lib, 10);
        let t = Timing::analyze(&net, &lib, 0.01);
        assert!(!t.meets_constraint(&net, 1e-9));
        assert!(t.worst_po_slack(&net) < 0.0);
    }

    #[test]
    fn incremental_rail_change_matches_full() {
        let lib = lib();
        let (mut net, gates) = chain(&lib, 6);
        let mut t = Timing::analyze(&net, &lib, 100.0);
        net.set_rail(gates[2], Rail::Low);
        t.apply_gate_change(&net, &lib, gates[2]);
        let fresh = Timing::analyze(&net, &lib, 100.0);
        for id in net.node_ids() {
            assert!(
                (t.arrival_ns(id) - fresh.arrival_ns(id)).abs() < 1e-9,
                "{id}"
            );
            assert!(
                (t.required_ns(id) - fresh.required_ns(id)).abs() < 1e-9,
                "{id}"
            );
        }
    }

    #[test]
    fn incremental_size_change_matches_full() {
        let lib = lib();
        let nand2 = lib.find("NAND2").unwrap();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("d");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g1 = net.add_gate("g1", nand2, &[a, b]);
        let g2 = net.add_gate("g2", inv, &[g1]);
        let g3 = net.add_gate("g3", nand2, &[g1, g2]);
        net.add_output("y", g3);
        let mut t = Timing::analyze(&net, &lib, 100.0);
        // upsizing g3 loads g1 and g2 (its fanins) and speeds itself
        net.set_size(g3, SizeIx(2));
        t.apply_gate_change(&net, &lib, g3);
        let fresh = Timing::analyze(&net, &lib, 100.0);
        for id in net.node_ids() {
            assert!((t.arrival_ns(id) - fresh.arrival_ns(id)).abs() < 1e-9);
            assert!((t.required_ns(id) - fresh.required_ns(id)).abs() < 1e-9);
            assert!((t.load_pf(id) - fresh.load_pf(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn low_rail_slows_the_block() {
        let lib = lib();
        let (mut net, gates) = chain(&lib, 5);
        let before = Timing::analyze(&net, &lib, 100.0).critical_delay_ns(&net);
        for &g in &gates {
            net.set_rail(g, Rail::Low);
        }
        let after = Timing::analyze(&net, &lib, 100.0).critical_delay_ns(&net);
        assert!(after > before);
        let ratio = after / before;
        let derate = lib.derate(Rail::Low);
        assert!((ratio - derate).abs() < 1e-6, "ratio {ratio} vs {derate}");
    }

    #[test]
    fn required_via_splits_sinks() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let nand2 = lib.find("NAND2").unwrap();
        let mut net = Network::new("s");
        let a = net.add_input("a");
        let g = net.add_gate("g", inv, &[a]);
        let fast = net.add_gate("fast", inv, &[g]);
        let slow1 = net.add_gate("slow1", nand2, &[g, a]);
        let slow2 = net.add_gate("slow2", inv, &[slow1]);
        net.add_output("f", fast);
        net.add_output("s", slow2);
        let t = Timing::analyze(&net, &lib, 3.0);
        let via_fast = t.required_via(&net, g, false, |s| s == fast);
        let via_slow = t.required_via(&net, g, false, |s| s == slow1);
        assert!(via_slow < via_fast, "deeper branch is tighter");
        let all = t.required_via(&net, g, false, |_| true);
        assert!((all - t.required_ns(g)).abs() < 1e-12);
        let none = t.required_via(&net, g, false, |_| false);
        assert!(none.is_infinite());
    }

    #[test]
    fn rebuild_after_converter_insertion() {
        let lib = lib();
        let (mut net, gates) = chain(&lib, 3);
        let mut t = Timing::analyze(&net, &lib, 100.0);
        let before = t.critical_delay_ns(&net);
        net.set_rail(gates[0], Rail::Low);
        net.insert_converter(gates[0], &[gates[1]], false, lib.converter())
            .unwrap();
        t.rebuild(&net, &lib);
        let after = t.critical_delay_ns(&net);
        assert!(after > before, "converter adds delay: {before} -> {after}");
        let fresh = Timing::analyze(&net, &lib, 100.0);
        assert!((after - fresh.critical_delay_ns(&net)).abs() < 1e-12);
    }

    /// Asserts `t` matches a from-scratch analysis of `net` on every live
    /// node (arrival, required, load, delay) and on the PO aggregates.
    fn assert_matches_fresh(t: &Timing, net: &Network, lib: &Library) {
        let fresh = Timing::analyze(net, lib, t.tspec_ns());
        for id in net.node_ids() {
            assert!(
                (t.arrival_ns(id) - fresh.arrival_ns(id)).abs() < 1e-9,
                "arrival {id}"
            );
            assert!(
                (t.required_ns(id) - fresh.required_ns(id)).abs() < 1e-9
                    || (t.required_ns(id).is_infinite() && fresh.required_ns(id).is_infinite()),
                "required {id}: {} vs {}",
                t.required_ns(id),
                fresh.required_ns(id)
            );
            assert!(
                (t.load_pf(id) - fresh.load_pf(id)).abs() < 1e-12,
                "load {id}"
            );
            assert!(
                (t.delay_ns(id) - fresh.delay_ns(id)).abs() < 1e-12,
                "delay {id}"
            );
        }
        assert_eq!(
            t.worst_po_slack(net).to_bits(),
            fresh.worst_po_slack(net).to_bits()
        );
        // folding over the output list gives the same bits as a scan of
        // the network's per-node output counts
        let scan = (0..net.node_count())
            .map(NodeId::from_index)
            .filter(|&id| net.po_sink_count(id) > 0)
            .map(|id| t.tspec_ns() - t.arrival_ns(id))
            .fold(f64::INFINITY, f64::min);
        assert_eq!(t.worst_po_slack(net).to_bits(), scan.to_bits());
        assert!((t.critical_delay_ns(net) - fresh.critical_delay_ns(net)).abs() < 1e-9);
    }

    #[test]
    fn incremental_converter_insertion_matches_full() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let nand2 = lib.find("NAND2").unwrap();
        let mut net = Network::new("ci");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let drv = net.add_gate("drv", nand2, &[a, b]);
        let s1 = net.add_gate("s1", inv, &[drv]);
        let s2 = net.add_gate("s2", nand2, &[drv, b]);
        let s3 = net.add_gate("s3", inv, &[s2]);
        net.add_output("y1", s1);
        net.add_output("y2", s3);
        net.add_output("tap", drv);
        let mut t = Timing::analyze(&net, &lib, 100.0);
        net.set_rail(drv, Rail::Low);
        t.apply_gate_change(&net, &lib, drv);
        let conv = net
            .insert_converter(drv, &[s1, s2], true, lib.converter())
            .unwrap();
        let events = t.apply_converter_insertion(&net, &lib, conv);
        assert!(events > 0);
        assert_matches_fresh(&t, &net, &lib);
    }

    #[test]
    fn incremental_converter_removal_matches_full() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let nand2 = lib.find("NAND2").unwrap();
        let mut net = Network::new("cr");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let drv = net.add_gate("drv", nand2, &[a, b]);
        let s1 = net.add_gate("s1", inv, &[drv]);
        let s2 = net.add_gate("s2", nand2, &[drv, b]);
        net.add_output("y1", s1);
        net.add_output("y2", s2);
        net.add_output("tap", drv);
        let mut t = Timing::analyze(&net, &lib, 100.0);
        net.set_rail(drv, Rail::Low);
        t.apply_gate_change(&net, &lib, drv);
        let conv = net
            .insert_converter(drv, &[s1, s2], true, lib.converter())
            .unwrap();
        t.apply_converter_insertion(&net, &lib, conv);
        // removal reverses the splice; timing must match a fresh analysis
        // of the network-with-tombstone exactly
        net.remove_converter(conv).unwrap();
        let events = t.apply_converter_removal(&net, &lib, conv, drv);
        assert!(events > 0);
        assert_matches_fresh(&t, &net, &lib);
        assert_eq!(t.arrival_ns(conv), 0.0);
        assert!(t.required_ns(conv).is_infinite());
    }

    #[test]
    fn chained_structural_edits_stay_consistent() {
        let lib = lib();
        let (mut net, gates) = chain(&lib, 6);
        let mut t = Timing::analyze(&net, &lib, 100.0);
        let mut convs = Vec::new();
        for &g in &gates[..3] {
            net.set_rail(g, Rail::Low);
            t.apply_gate_change(&net, &lib, g);
            let sinks = net.fanouts(g).to_vec();
            let conv = net
                .insert_converter(g, &sinks, false, lib.converter())
                .unwrap();
            t.apply_converter_insertion(&net, &lib, conv);
            convs.push((conv, g));
        }
        assert_matches_fresh(&t, &net, &lib);
        for (conv, drv) in convs {
            net.remove_converter(conv).unwrap();
            t.apply_converter_removal(&net, &lib, conv, drv);
        }
        assert_matches_fresh(&t, &net, &lib);
    }

    /// Asserts every per-node value of `t` equals a fresh analysis at
    /// `t`'s constraint bit for bit.
    fn assert_bits_match_fresh(t: &Timing, net: &Network, lib: &Library) {
        let fresh = Timing::analyze(net, lib, t.tspec_ns());
        for id in net.node_ids() {
            assert_eq!(t.arrival_ns(id).to_bits(), fresh.arrival_ns(id).to_bits());
            assert_eq!(t.required_ns(id).to_bits(), fresh.required_ns(id).to_bits());
            assert_eq!(t.load_pf(id).to_bits(), fresh.load_pf(id).to_bits());
            assert_eq!(t.delay_ns(id).to_bits(), fresh.delay_ns(id).to_bits());
        }
    }

    #[test]
    fn retarget_without_edits_equals_analyze_at_the_new_constraint() {
        let lib = lib();
        let (net, _) = chain(&lib, 5);
        let mut t = Timing::analyze(&net, &lib, 0.0);
        let tmin = t.critical_delay_ns(&net);
        t.retarget(tmin);
        assert_eq!(t.tspec_ns(), tmin);
        assert_bits_match_fresh(&t, &net, &lib);
    }

    /// The chain of [`chain`] with `gates[0]` on the low rail behind a
    /// converter that drives `gates[1]`.
    fn chain_with_converter(
        lib: &Library,
        t: &mut Timing,
        net: &mut Network,
        gates: &[NodeId],
    ) -> NodeId {
        net.set_rail(gates[0], Rail::Low);
        t.apply_gate_change(net, lib, gates[0]);
        let conv = net
            .insert_converter(gates[0], &[gates[1]], false, lib.converter())
            .unwrap();
        t.apply_converter_insertion(net, lib, conv);
        conv
    }

    #[test]
    #[should_panic(expected = "call Timing::rebuild first")]
    fn retarget_after_a_converter_edit_needs_a_rebuild() {
        let lib = lib();
        let (mut net, gates) = chain(&lib, 3);
        let mut t = Timing::analyze(&net, &lib, 100.0);
        chain_with_converter(&lib, &mut t, &mut net, &gates);
        t.retarget(50.0);
    }

    #[test]
    fn rebuild_after_converter_edits_makes_retarget_exact_again() {
        let lib = lib();
        let (mut net, gates) = chain(&lib, 4);
        let mut t = Timing::analyze(&net, &lib, 100.0);
        let conv = chain_with_converter(&lib, &mut t, &mut net, &gates);
        t.rebuild(&net, &lib);
        net.set_size(gates[2], SizeIx(1));
        t.apply_gate_change(&net, &lib, gates[2]);
        t.retarget(50.0);
        assert_bits_match_fresh(&t, &net, &lib);
        net.remove_converter(conv).unwrap();
        t.apply_converter_removal(&net, &lib, conv, gates[0]);
        t.rebuild(&net, &lib);
        net.set_size(gates[1], SizeIx(1));
        t.apply_gate_change(&net, &lib, gates[1]);
        t.retarget(20.0);
        assert_bits_match_fresh(&t, &net, &lib);
    }

    #[test]
    fn converter_on_the_worst_output_moves_the_po_slack() {
        // the converter takes over the only path to the worst output, so
        // the worst output slack must follow the output from the driver to
        // the converter and back
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("po");
        let a = net.add_input("a");
        let fast = net.add_gate("fast", inv, &[a]);
        let g1 = net.add_gate("g1", inv, &[a]);
        let drv = net.add_gate("drv", inv, &[g1]);
        net.add_output("f", fast);
        net.add_output("y", drv);
        let mut t = Timing::analyze(&net, &lib, 10.0);
        let before = t.worst_po_slack(&net);
        let conv = net
            .insert_converter(drv, &[], true, lib.converter())
            .unwrap();
        t.apply_converter_insertion(&net, &lib, conv);
        assert!(t.worst_po_slack(&net) < before, "converter adds delay");
        assert_matches_fresh(&t, &net, &lib);
        net.remove_converter(conv).unwrap();
        t.apply_converter_removal(&net, &lib, conv, drv);
        assert_eq!(t.worst_po_slack(&net).to_bits(), before.to_bits());
        assert_matches_fresh(&t, &net, &lib);
    }

    #[test]
    fn po_driver_required_uses_tspec() {
        let lib = lib();
        let (net, gates) = chain(&lib, 2);
        let t = Timing::analyze(&net, &lib, 7.5);
        let last = *gates.last().unwrap();
        assert!(t.required_ns(last) <= 7.5 + 1e-12);
        assert_eq!(t.tspec_ns(), 7.5);
    }
}
