//! Journal-aware incremental power: re-simulate only the fanout cones an
//! edit batch dirtied, so that re-running the Eq. (1) estimator after every
//! candidate edit costs one cone re-simulation plus one summation pass, not
//! a full-network simulation.
//!
//! # The incremental contract
//!
//! [`PowerState`] caches, for one `(vectors, seed, fclk_mhz)` simulation
//! configuration:
//!
//! * the node-major bit-parallel **waveforms** of every node (the raw
//!   simulation state of [`crate::simulate`]),
//! * the derived per-net **activities** (`p_one`/`sw01`).
//!
//! Loads are not cached: they are a pure function of the network
//! ([`dvs_sta::load_pf`]), which [`crate::estimate`] reads on every
//! breakdown.
//!
//! Each netlist edit is reported as a [`PowerDelta`] (mirroring the edit
//! journal's deltas); [`PowerState::refresh`] then absorbs a whole batch at
//! once. What invalidates what:
//!
//! | delta | waveforms |
//! |---|---|
//! | `Rail` | nothing (voltages are read live) |
//! | `SetSize` | nothing (sizes change loads, never logic) |
//! | `ConverterInserted` | seed the converter's and its sinks' cones |
//! | `ConverterRemoved` | seed the orphaned sinks' cones |
//! | `Rollback` | seed the rewired and revived nodes' cones |
//!
//! Cone re-simulation walks the dirty region as a **level-synchronous
//! wavefront**: dirty gates are bucketed by logic level, each level's
//! rows are re-evaluated concurrently on the shared [`dvs_pool`] pool
//! (a row reads only fanin rows, which live in strictly earlier levels
//! and are already committed), and commits **cut off early**: a node
//! whose recomputed waveform is bit-identical to the cached one does not
//! enqueue its fanouts. The evaluated set, the statistics and every
//! cached byte are identical to a sequential topological-order walk for
//! any thread count — a gate's change decision depends only on committed
//! fanin rows, never on same-level peers. The logic levels that key the
//! buckets are cached too: built once from the construction simulation,
//! then re-derived only over the seeds' forward cone (a
//! [`dvs_netlist::FanoutCone`]), since only a seed's fanin list can change
//! and a level depends on nothing but fanin levels. Because the flow's only
//! structural edit splices identity (`BUF`) converters, cones collapse
//! after one level — the machinery stays correct for arbitrary logic
//! replacements regardless.
//!
//! # Exactness guarantee
//!
//! [`PowerState::breakdown`] is **bit-compatible** with a from-scratch
//! [`crate::simulate`] + [`crate::estimate`] pair: identical waveforms
//! (same PI stream, same word-level evaluation), identical statistics
//! (shared tail-mask counting code), and then the very same
//! [`crate::estimate`] call over the cached activities. Equality is
//! `f64 ==`, not epsilon — the differential property suite
//! (`tests/incremental_diff.rs`) asserts it across random networks ×
//! random edit/rollback streams. Note that a running total patched by
//! subtract-and-replace could *not* make this guarantee (floating-point
//! addition does not reassociate), which is why every breakdown re-sums
//! the whole network instead.

use dvs_celllib::Library;
use dvs_netlist::{node_level, FanoutCone, Network, NodeId};

use crate::sim::{eval_level, row_stats, simulate_data};
use crate::{estimate, Activities, PowerBreakdown};

/// One network edit the power cache must absorb, mirroring the netlist
/// edit journal's deltas. Enqueue with [`PowerState::note`]; a batch is
/// absorbed by the next [`PowerState::refresh`].
#[derive(Debug, Clone)]
pub enum PowerDelta {
    /// A supply-rail reassignment. Invalidates *nothing* cached — signal
    /// activity is pure logic and the estimator reads rail voltages live
    /// from the network — but is recorded so the delta stream stays a
    /// faithful journal mirror.
    Rail(NodeId),
    /// A drive-size reassignment. Like [`PowerDelta::Rail`] it invalidates
    /// nothing: the loads it moves are read live by the estimator.
    SetSize(NodeId),
    /// A level converter `conv` was spliced after its driver. Structural:
    /// the node set grew, the new gate needs a waveform, and the sinks it
    /// took over (its fanouts at refresh time) read it from now on.
    ConverterInserted {
        /// The freshly inserted converter gate.
        conv: NodeId,
    },
    /// A converter was bypassed and tombstoned; its former driver
    /// re-adopts `sinks`, which must be the converter's fanouts *captured
    /// before the removal* (afterwards the tombstone's lists are cleared).
    ConverterRemoved {
        /// Fanouts of the converter at removal time, now re-wired to its
        /// driver.
        sinks: Vec<NodeId>,
    },
    /// A journal rollback restored an earlier network state. `rewired` is
    /// the list [`Network::rollback_to`] returns: every surviving node
    /// whose fanin list the unwind rewrote, plus every converter it
    /// revived. Undone rail and size edits need no seed, and
    /// post-checkpoint nodes are truncated away and handled by the
    /// refresh's array resize.
    Rollback {
        /// Surviving nodes the rollback rewired or revived.
        rewired: Vec<NodeId>,
    },
}

/// What one [`PowerState::refresh`] did, for instrumentation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RefreshStats {
    /// Deltas absorbed by this refresh.
    pub deltas: usize,
    /// Gate waveforms re-evaluated: the union of the dirty fanout cones,
    /// after the early bit-identical cutoff.
    pub cone_nodes: usize,
    /// Non-empty wavefront levels the cone walk processed — the number of
    /// parallel batches (`par_batches` in the session counters). A pure
    /// function of the network and the edit batch, independent of the
    /// thread count.
    pub levels: usize,
}

/// Incrementally maintained power-estimation state for one network under
/// journaled edits. See the module docs for the invalidation table and
/// the exactness guarantee.
#[derive(Debug, Clone)]
pub struct PowerState {
    vectors: usize,
    seed: u64,
    fclk_mhz: f64,
    words: usize,
    /// Node-major waveforms; node `i` owns `values[i*words..(i+1)*words]`.
    /// Rows of dead nodes are stale garbage and are never read: the
    /// estimator skips dead nodes, and a cone evaluation only reads the
    /// fanins of live gates. A revived node is always in a rollback's
    /// `rewired` set and therefore re-evaluated.
    values: Vec<u64>,
    acts: Activities,
    /// Logic level of every node, the wavefront's bucket key. Slots of
    /// dead nodes are stale, exactly like their waveform rows.
    level: Vec<u32>,
    pending: Vec<PowerDelta>,
    /// Wavefront thread width for simulation and refresh.
    jobs: usize,
}

impl PowerState {
    /// Builds the cache with one full-network simulation (equiprobable
    /// inputs, as [`crate::simulate`]), using the process-wide
    /// [`dvs_pool::circuit_jobs`] wavefront width.
    pub fn new(net: &Network, lib: &Library, vectors: usize, seed: u64, fclk_mhz: f64) -> Self {
        Self::with_jobs(net, lib, vectors, seed, fclk_mhz, dvs_pool::circuit_jobs())
    }

    /// [`PowerState::new`] with an explicit wavefront thread width. Every
    /// cached byte is identical for every `jobs` value; the parameter
    /// only controls how many threads evaluate each simulation level.
    pub fn with_jobs(
        net: &Network,
        lib: &Library,
        vectors: usize,
        seed: u64,
        fclk_mhz: f64,
        jobs: usize,
    ) -> Self {
        let probs = vec![0.5; net.primary_input_count()];
        let data = simulate_data(net, lib, vectors, seed, &probs, jobs);
        PowerState {
            vectors,
            seed,
            fclk_mhz,
            words: data.words,
            values: data.values,
            acts: data.acts,
            level: data.level,
            pending: Vec::new(),
            jobs,
        }
    }

    /// Sets the wavefront thread width used by later refreshes. Has no
    /// effect on any value this state computes.
    pub fn set_jobs(&mut self, jobs: usize) {
        self.jobs = jobs.max(1);
    }

    /// `true` if this state serves the given simulation configuration.
    pub fn matches(&self, vectors: usize, seed: u64, fclk_mhz: f64) -> bool {
        self.vectors == vectors && self.seed == seed && self.fclk_mhz == fclk_mhz
    }

    /// Records one edit for the next [`PowerState::refresh`].
    pub fn note(&mut self, delta: PowerDelta) {
        self.pending.push(delta);
    }

    /// `true` if deltas are queued — the next refresh has work to do.
    pub fn has_pending(&self) -> bool {
        !self.pending.is_empty()
    }

    /// The cached per-net activities; exactly what [`crate::simulate`]
    /// would return on the current network (after a clean refresh).
    pub fn activities(&self) -> &Activities {
        &self.acts
    }

    /// The clock frequency (MHz) this state's breakdowns use.
    pub fn fclk_mhz(&self) -> f64 {
        self.fclk_mhz
    }

    /// Absorbs every queued delta: resizes the caches to the current node
    /// count and re-simulates the dirty fanout cones (with early cutoff).
    /// `net` must be the network all queued deltas were applied to, in
    /// order.
    pub fn refresh(&mut self, net: &Network, lib: &Library) -> RefreshStats {
        let deltas = std::mem::take(&mut self.pending);
        let mut stats = RefreshStats {
            deltas: deltas.len(),
            ..RefreshStats::default()
        };
        if deltas.is_empty() {
            return stats;
        }
        let n = net.node_count();
        let alive = |id: NodeId| id.index() < n && !net.node(id).is_dead();

        // Collect the cone seeds. They are interpreted against the
        // *current* network: an id edited and later truncated/tombstoned
        // inside one batch is simply dropped (nothing live depends on it).
        let mut seeds: Vec<NodeId> = Vec::new();
        for d in &deltas {
            match d {
                PowerDelta::Rail(_) | PowerDelta::SetSize(_) => {}
                PowerDelta::ConverterInserted { conv } => {
                    // the sinks were rewired onto the new row: a cutoff on
                    // it cannot stand for them (its slot is zero-filled or
                    // stale, and may equal the fresh row)
                    seeds.push(*conv);
                    if alive(*conv) {
                        seeds.extend_from_slice(net.fanouts(*conv));
                    }
                }
                PowerDelta::ConverterRemoved { sinks } => seeds.extend_from_slice(sinks),
                PowerDelta::Rollback { rewired } => seeds.extend_from_slice(rewired),
            }
        }

        // Resize every cache to the current node count: growth zero-fills
        // (new slots are always seeded below), shrink truncates the slots
        // a rollback freed.
        if self.acts.sw01.len() != n {
            self.values.resize(n * self.words, 0);
            self.acts.p_one.resize(n, 0.0);
            self.acts.sw01.resize(n, 0.0);
        }

        // Cone re-simulation as a level-synchronous wavefront with early
        // cutoff. Bucketing by logic level gives the same evaluated set
        // and the same bytes as a topological-position heap walk: a row's
        // change decision reads only fanin rows, and every fanin lives in
        // a strictly earlier level, committed before this batch ran.
        if !seeds.is_empty() {
            // Only the seeds' descendants can change level: every gate
            // whose fanin list an edit rewrote is itself a seed.
            self.level.resize(n, 0);
            let mut depth = 0;
            let gate_seeds = seeds
                .iter()
                .copied()
                .filter(|&s| alive(s) && net.node(s).is_gate());
            for &id in FanoutCone::of(net, gate_seeds).order() {
                let l = node_level(net, &self.level, id);
                self.level[id.index()] = l;
                depth = depth.max(l);
            }
            debug_assert!(
                self.levels_match(net),
                "cached levels diverged from Levels::of"
            );
            let level = &self.level;
            let mut buckets: Vec<Vec<NodeId>> = vec![Vec::new(); depth as usize + 1];
            let mut queued = vec![false; n];
            for &s in &seeds {
                if alive(s) && net.node(s).is_gate() && !queued[s.index()] {
                    queued[s.index()] = true;
                    buckets[level[s.index()] as usize].push(s);
                }
            }
            let (words, vectors, jobs) = (self.words, self.vectors, self.jobs);
            let mut buf = Vec::new();
            for l in 0..buckets.len() {
                let mut batch = std::mem::take(&mut buckets[l]);
                if batch.is_empty() {
                    continue;
                }
                batch.sort_unstable();
                stats.levels += 1;
                stats.cone_nodes += batch.len();
                // evaluate the level against the committed cache, then
                // commit changed rows in index order and enqueue their
                // fanouts into later buckets; a bit-identical row keeps its
                // cached stats and cuts its cone off
                let acts = &mut self.acts;
                eval_level(
                    net,
                    lib,
                    &mut self.values,
                    words,
                    &batch,
                    jobs,
                    &mut buf,
                    |values, k, fresh| {
                        let ix = batch[k].index();
                        let row = &mut values[ix * words..][..words];
                        if row == fresh {
                            return;
                        }
                        row.copy_from_slice(fresh);
                        let (p, s) = row_stats(fresh, vectors);
                        acts.p_one[ix] = p;
                        acts.sw01[ix] = s;
                        for &f in net.fanouts(batch[k]) {
                            if net.node(f).is_gate() && !net.node(f).is_dead() && !queued[f.index()]
                            {
                                queued[f.index()] = true;
                                buckets[level[f.index()] as usize].push(f);
                            }
                        }
                    },
                );
            }
        }

        stats
    }

    /// `true` if the cached levels equal [`dvs_netlist::Levels::of`] on
    /// every live node.
    fn levels_match(&self, net: &Network) -> bool {
        let fresh = dvs_netlist::Levels::of(net);
        net.node_ids()
            .all(|id| self.level[id.index()] == fresh.level(id))
    }

    /// The Eq. (1) breakdown of the current network from cached state —
    /// bit-compatible with a from-scratch [`crate::simulate`] +
    /// [`crate::estimate`] (see the module docs). Call after a refresh.
    ///
    /// # Panics
    ///
    /// Panics (debug) if deltas are still pending, or if the cache was
    /// never refreshed after a structural edit grew the network.
    pub fn breakdown(&self, net: &Network, lib: &Library) -> PowerBreakdown {
        debug_assert!(
            self.pending.is_empty(),
            "breakdown with {} unabsorbed deltas — refresh first",
            self.pending.len()
        );
        estimate(net, lib, &self.acts, self.fclk_mhz)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{estimate, simulate};
    use dvs_celllib::{compass, VoltagePair};
    use dvs_netlist::{Rail, SizeIx};

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    /// `breakdown` must equal a from-scratch simulate+estimate exactly —
    /// every field, every per-node term, `f64 ==`.
    fn assert_exact(ps: &PowerState, net: &Network, lib: &Library) {
        let fresh = simulate(net, lib, ps.vectors, ps.seed);
        let want = estimate(net, lib, &fresh, ps.fclk_mhz);
        let got = ps.breakdown(net, lib);
        assert_eq!(got.switching_uw, want.switching_uw);
        assert_eq!(got.converter_uw, want.converter_uw);
        assert_eq!(got.input_net_uw, want.input_net_uw);
        assert_eq!(got.leakage_uw, want.leakage_uw);
        assert_eq!(got.total_uw, want.total_uw);
        for id in net.node_ids() {
            assert_eq!(got.node_uw(id), want.node_uw(id), "node {id}");
            assert_eq!(ps.activities().switching(id), fresh.switching(id));
            assert_eq!(ps.activities().one_prob(id), fresh.one_prob(id));
        }
    }

    #[test]
    fn fresh_state_matches_scratch() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g = net.add_gate("g", inv, &[a]);
        net.add_output("y", g);
        let ps = PowerState::new(&net, &lib, 256, 7, 20.0);
        assert!(ps.matches(256, 7, 20.0));
        assert!(!ps.matches(256, 8, 20.0));
        assert!(!ps.has_pending());
        assert_exact(&ps, &net, &lib);
    }

    #[test]
    fn rail_and_size_edits_patch_loads_only() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g1 = net.add_gate("g1", inv, &[a]);
        let g2 = net.add_gate("g2", inv, &[g1]);
        net.add_output("y", g2);
        let mut ps = PowerState::new(&net, &lib, 256, 7, 20.0);

        net.set_rail(g1, Rail::Low);
        ps.note(PowerDelta::Rail(g1));
        net.set_size(g2, SizeIx(2));
        ps.note(PowerDelta::SetSize(g2));
        let stats = ps.refresh(&net, &lib);
        assert_eq!(stats.deltas, 2);
        assert_eq!(stats.cone_nodes, 0, "no waveform can change");
        assert_eq!(stats.levels, 0);
        assert_exact(&ps, &net, &lib);
    }

    #[test]
    fn converter_insert_on_pi_adjacent_net() {
        // the converter's driver is the first gate after a primary input,
        // and the PI's own net load stays untouched while the driver's is
        // re-split between converter and remaining sinks
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let drv = net.add_gate("drv", inv, &[a]);
        let s1 = net.add_gate("s1", inv, &[drv]);
        let s2 = net.add_gate("s2", inv, &[drv]);
        net.add_output("y1", s1);
        net.add_output("y2", s2);
        let mut ps = PowerState::new(&net, &lib, 192, 3, 20.0);

        net.set_rail(drv, Rail::Low);
        ps.note(PowerDelta::Rail(drv));
        let conv = net
            .insert_converter(drv, &[s1], false, lib.converter())
            .unwrap();
        ps.note(PowerDelta::ConverterInserted { conv });
        let stats = ps.refresh(&net, &lib);
        // cone: the converter itself (new row) plus its one sink, whose
        // recomputation is bit-identical — the cutoff stops there
        assert_eq!(stats.cone_nodes, 2);
        assert_exact(&ps, &net, &lib);

        // removal re-routes the sink back and tombstones the converter
        let sinks = net.fanouts(conv).to_vec();
        net.remove_converter(conv).unwrap();
        ps.note(PowerDelta::ConverterRemoved { sinks });
        let stats = ps.refresh(&net, &lib);
        assert_eq!(stats.cone_nodes, 1, "only the orphaned sink re-evaluates");
        assert_exact(&ps, &net, &lib);
    }

    #[test]
    fn multi_fanout_reconvergence_is_coalesced() {
        // diamond: drv → {s1, s2} → join; a converter over both sinks
        // queues each exactly once and the reconvergent join never runs
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let nand2 = lib.find("NAND2").unwrap();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let drv = net.add_gate("drv", nand2, &[a, b]);
        let s1 = net.add_gate("s1", inv, &[drv]);
        let s2 = net.add_gate("s2", inv, &[drv]);
        let join = net.add_gate("join", nand2, &[s1, s2]);
        net.add_output("y", join);
        let mut ps = PowerState::new(&net, &lib, 320, 11, 20.0);

        let conv = net
            .insert_converter(drv, &[s1, s2], false, lib.converter())
            .unwrap();
        ps.note(PowerDelta::ConverterInserted { conv });
        let stats = ps.refresh(&net, &lib);
        // conv (changed: fresh row) + s1 + s2 (both bit-identical, so the
        // reconvergent join is cut off and evaluated zero times)
        assert_eq!(stats.cone_nodes, 3);
        assert_exact(&ps, &net, &lib);
    }

    #[test]
    fn edits_inside_an_already_dirty_cone_coalesce() {
        // one batch: converter insertion dirtying a sink's cone, plus a
        // size edit on that same sink — the refresh visits the sink once
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let drv = net.add_gate("drv", inv, &[a]);
        let s = net.add_gate("s", inv, &[drv]);
        net.add_output("y", s);
        let mut ps = PowerState::new(&net, &lib, 256, 5, 20.0);

        let conv = net
            .insert_converter(drv, &[s], false, lib.converter())
            .unwrap();
        ps.note(PowerDelta::ConverterInserted { conv });
        net.set_size(s, SizeIx(2));
        ps.note(PowerDelta::SetSize(s));
        net.set_size(s, SizeIx(1));
        ps.note(PowerDelta::SetSize(s));
        let stats = ps.refresh(&net, &lib);
        assert_eq!(stats.deltas, 3);
        assert_eq!(stats.cone_nodes, 2, "conv + s, visited once each");
        assert_exact(&ps, &net, &lib);
    }

    #[test]
    fn rollback_restores_and_truncates() {
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("p");
        let a = net.add_input("a");
        let g1 = net.add_gate("g1", inv, &[a]);
        let g2 = net.add_gate("g2", inv, &[g1]);
        net.add_output("y", g2);
        net.enable_journal();
        let mut ps = PowerState::new(&net, &lib, 128, 9, 20.0);
        let before = ps.breakdown(&net, &lib);

        let cp = net.checkpoint();
        net.set_rail(g1, Rail::Low);
        ps.note(PowerDelta::Rail(g1));
        let conv = net
            .insert_converter(g1, &[g2], false, lib.converter())
            .unwrap();
        ps.note(PowerDelta::ConverterInserted { conv });
        net.set_size(g2, SizeIx(2));
        ps.note(PowerDelta::SetSize(g2));
        ps.refresh(&net, &lib);
        assert_exact(&ps, &net, &lib);

        let rewired = net.rollback_to(cp);
        assert_eq!(
            rewired,
            vec![g2],
            "the undone rail and size edits seed nothing"
        );
        ps.note(PowerDelta::Rollback { rewired });
        let stats = ps.refresh(&net, &lib);
        assert_eq!(stats.cone_nodes, 1, "only the rewired sink re-evaluates");
        assert_exact(&ps, &net, &lib);
        let after = ps.breakdown(&net, &lib);
        assert_eq!(after.total_uw, before.total_uw, "unwind is exact");
    }
}
