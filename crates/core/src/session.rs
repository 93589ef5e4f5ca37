//! `FlowSession`: one transactional home for the `(Network, Library,
//! Timing)` triple every optimization phase operates on.
//!
//! Before this layer existed each algorithm carried the triple as loose
//! arguments, cloned the whole network for checkpoints and called
//! [`Timing::rebuild`] after structural edits. The session replaces all of
//! that:
//!
//! * **Transactions** — the netlist edit journal
//!   ([`dvs_netlist::Network::enable_journal`]) makes
//!   [`FlowSession::checkpoint`] / [`FlowSession::rollback`] cost
//!   O(changes), not O(network). Rolling back restores the network
//!   bit-exactly (fanout-list order included) and re-derives timing with
//!   one full analysis, so post-rollback state is value-identical to the
//!   pre-refactor clone-and-restore.
//! * **Incremental structural STA** — [`FlowSession::insert_converter`] and
//!   [`FlowSession::remove_converter`] patch the cached timing in place
//!   ([`Timing::apply_converter_insertion`] /
//!   [`Timing::apply_converter_removal`]); the algorithms never call
//!   [`Timing::rebuild`] on their hot paths any more.
//! * **Instrumentation** — every mutation routed through the session bumps
//!   a [`FlowCounters`] field, so a phase can prove properties like "zero
//!   full analyses on the hot path" by differencing counters
//!   ([`FlowCounters::since`]). `FlowCounters` is the one record of
//!   session work; the phases' trace lines are [`dvs_obs::instant`]
//!   events, rendered only when a [`dvs_obs::Subscriber`] is installed.
//! * **CVS replay** — [`crate::run_circuit`] rolls back to its base
//!   checkpoint before `Dscale` and `Gscale`, and both open with the same
//!   CVS pass the CVS phase already ran. The session therefore records the
//!   first pass that starts from a *fresh* state (right after
//!   [`FlowSession::new`] or a [`FlowSession::rollback`], before any edit)
//!   and replays it when [`FlowSession::run_cvs`] is called again from the
//!   same checkpoint's fresh state with the same `guard_ns` bits. The
//!   replay re-applies the recorded demotions in order as journaled rail
//!   edits (so later rollbacks undo them), bumps the same counters, emits
//!   the same `cvs` span, `sta.events_per_change` samples and
//!   `sta.events` / `session.edits` attributions, and restores the
//!   recorded post-pass timing. It is exact because the two starting
//!   states are identical: the journal restores the network bit for bit
//!   and both timings come from a from-scratch [`Timing::analyze`]. No
//!   power delta is queued, as in the live pass (rail flips change no
//!   activity). A rollback that truncates the journal below the recorded
//!   checkpoint drops the memo, since an equal checkpoint taken later may
//!   describe a different state.

use dvs_celllib::Library;
use dvs_netlist::{Checkpoint, Network, NodeId, Rail, SizeIx};
use dvs_power::{Activities, PowerBreakdown, PowerDelta, PowerState};
use dvs_sta::Timing;

use crate::audit::AuditError;
use crate::config::FlowConfig;
use crate::cvs::{CvsMemo, CvsOutcome};
use crate::demote::DemotionPlan;

/// Monotone per-session instrumentation counters.
///
/// Every mutation routed through a [`FlowSession`] increments exactly one
/// edit counter plus the STA cost it incurred. Phases measure themselves by
/// snapshotting (the struct is `Copy`) on entry and calling
/// [`FlowCounters::since`] on exit.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FlowCounters {
    /// Rail reassignments applied (`set_rail` that changed the value).
    pub rail_edits: u64,
    /// Drive-size reassignments applied.
    pub size_edits: u64,
    /// Level converters spliced in.
    pub converters_inserted: u64,
    /// Level converters bypassed and tombstoned.
    pub converters_removed: u64,
    /// Worklist events processed by incremental STA: nodes popped during
    /// forward/backward re-propagation, summed over every edit.
    pub sta_events: u64,
    /// Full from-scratch timing analyses (session construction and each
    /// rollback). These are the *cold* path: the algorithms absorb every
    /// edit incrementally, so a phase delta counts only its rollbacks.
    pub full_analyses: u64,
    /// Full-network power simulations: incremental-power cache
    /// construction ([`FlowSession::ensure_power`] on a cold or
    /// configuration-mismatched cache). This is the *cold* path; the
    /// algorithms keep it at zero inside their hot loops — the CI smoke
    /// test asserts it.
    pub full_power: u64,
    /// Incremental power refreshes performed: queued journal deltas
    /// absorbed by re-simulating only the dirty fanout cones.
    pub power_resims: u64,
    /// Power queries served from live incremental state that, before the
    /// incremental engine existed, each forced a full-network
    /// re-simulation.
    pub full_power_avoided: u64,
    /// Checkpoints taken.
    pub checkpoints: u64,
    /// Rollbacks performed.
    pub rollbacks: u64,
    /// Items fanned out to the intra-circuit worker pool: gates scanned
    /// by parallel Dscale candidate scoring plus gate rows re-evaluated
    /// by wavefront power refreshes. A pure function of the network and
    /// the edit stream — independent of `--circuit-jobs` — so the CI
    /// byte-compare holds across thread counts.
    pub par_tasks: u64,
    /// Parallel batches dispatched (one per scoring round, one per
    /// non-empty refresh wavefront level). Equally thread-count
    /// independent.
    pub par_batches: u64,
}

impl FlowCounters {
    /// Field-wise difference `self - earlier` (saturating), for scoping a
    /// phase: snapshot on entry, call `since(entry)` on exit.
    #[must_use]
    pub fn since(&self, earlier: &FlowCounters) -> FlowCounters {
        FlowCounters {
            rail_edits: self.rail_edits.saturating_sub(earlier.rail_edits),
            size_edits: self.size_edits.saturating_sub(earlier.size_edits),
            converters_inserted: self
                .converters_inserted
                .saturating_sub(earlier.converters_inserted),
            converters_removed: self
                .converters_removed
                .saturating_sub(earlier.converters_removed),
            sta_events: self.sta_events.saturating_sub(earlier.sta_events),
            full_analyses: self.full_analyses.saturating_sub(earlier.full_analyses),
            full_power: self.full_power.saturating_sub(earlier.full_power),
            power_resims: self.power_resims.saturating_sub(earlier.power_resims),
            full_power_avoided: self
                .full_power_avoided
                .saturating_sub(earlier.full_power_avoided),
            checkpoints: self.checkpoints.saturating_sub(earlier.checkpoints),
            rollbacks: self.rollbacks.saturating_sub(earlier.rollbacks),
            par_tasks: self.par_tasks.saturating_sub(earlier.par_tasks),
            par_batches: self.par_batches.saturating_sub(earlier.par_batches),
        }
    }
}

/// A transactional optimization session over one network.
///
/// Owns the network and its cached [`Timing`], keeps the two consistent
/// through every edit, and counts everything it does. See the module docs
/// for the design rationale and the [`crate`] docs for the algorithms that
/// run on top.
pub struct FlowSession<'l> {
    pub(crate) net: Network,
    pub(crate) lib: &'l Library,
    pub(crate) timing: Timing,
    pub(crate) tspec_ns: f64,
    pub(crate) counters: FlowCounters,
    /// Incremental power cache, built lazily by the first
    /// [`FlowSession::ensure_power`]. `None` until a phase asks for power;
    /// once present, every counted mutation enqueues its
    /// [`dvs_power::PowerDelta`] so a later refresh re-simulates only the
    /// dirtied fanout cones.
    pub(crate) power: Option<PowerState>,
    /// When `Some`, every separator problem Gscale builds is cloned here
    /// before solving. Off (`None`) by default — enabled by
    /// [`FlowSession::capture_separators`] so benchmarks can time max-flow
    /// algorithms on the exact production inputs.
    pub(crate) captured_separators: Option<Vec<dvs_flow::SeparatorProblem>>,
    /// The checkpoint the current state is the fresh image of: set by
    /// [`FlowSession::new`] and [`FlowSession::rollback`], cleared by every
    /// edit and by [`FlowSession::run_cvs`].
    fresh_at: Option<Checkpoint>,
    /// The CVS pass recorded from a fresh state, replayed by a later
    /// [`FlowSession::run_cvs`] from the same state with the same guard.
    cvs_memo: Option<CvsMemo>,
}

impl std::fmt::Debug for FlowSession<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlowSession")
            .field("network", &self.net.name())
            .field("nodes", &self.net.node_count())
            .field("tspec_ns", &self.tspec_ns)
            .field("counters", &self.counters)
            .finish()
    }
}

impl<'l> FlowSession<'l> {
    /// Opens a session: enables the edit journal and performs the one full
    /// timing analysis (counted in [`FlowCounters::full_analyses`]) that
    /// every subsequent edit keeps incrementally up to date.
    pub fn new(mut net: Network, lib: &'l Library, tspec_ns: f64) -> Self {
        net.enable_journal();
        let timing = Timing::analyze(&net, lib, tspec_ns);
        let fresh_at = Some(net.checkpoint());
        FlowSession {
            net,
            lib,
            timing,
            tspec_ns,
            counters: FlowCounters {
                full_analyses: 1,
                ..FlowCounters::default()
            },
            power: None,
            captured_separators: None,
            fresh_at,
            cvs_memo: None,
        }
    }

    /// Turns separator-problem capture on or off. While on, each Gscale
    /// iteration clones the [`dvs_flow::SeparatorProblem`] it is about to
    /// solve into a session-held list, retrievable with
    /// [`FlowSession::take_captured_separators`]. Capture changes no
    /// results — it only observes — but the clones cost memory, so it is
    /// meant for benchmarking, not production runs.
    pub fn capture_separators(&mut self, on: bool) {
        if on {
            self.captured_separators.get_or_insert_with(Vec::new);
        } else {
            self.captured_separators = None;
        }
    }

    /// Drains and returns the separator problems captured so far (empty
    /// when capture was never enabled). Capture stays enabled if it was.
    pub fn take_captured_separators(&mut self) -> Vec<dvs_flow::SeparatorProblem> {
        match self.captured_separators.as_mut() {
            Some(v) => std::mem::take(v),
            None => Vec::new(),
        }
    }

    pub(crate) fn capture_enabled(&self) -> bool {
        self.captured_separators.is_some()
    }

    pub(crate) fn push_captured_separator(&mut self, p: dvs_flow::SeparatorProblem) {
        if let Some(v) = self.captured_separators.as_mut() {
            v.push(p);
        }
    }

    /// The network under optimization.
    pub fn network(&self) -> &Network {
        &self.net
    }

    /// The cell library the session resolves cells against.
    pub fn library(&self) -> &'l Library {
        self.lib
    }

    /// The timing view, always consistent with [`FlowSession::network`].
    pub fn timing(&self) -> &Timing {
        &self.timing
    }

    /// The timing constraint the session was opened with, ns.
    pub fn tspec_ns(&self) -> f64 {
        self.tspec_ns
    }

    /// The session's cumulative instrumentation counters.
    pub fn counters(&self) -> &FlowCounters {
        &self.counters
    }

    /// Reassigns `g`'s supply rail and incrementally re-times the affected
    /// cone. Returns the number of STA worklist events processed.
    pub fn set_rail(&mut self, g: NodeId, rail: Rail) -> usize {
        self.fresh_at = None;
        self.net.set_rail(g, rail);
        if let Some(p) = self.power.as_mut() {
            p.note(PowerDelta::Rail(g));
        }
        self.counters.rail_edits += 1;
        dvs_obs::attr_add("session.edits", || self.net.node(g).name(), 1);
        let events = self.timing.apply_gate_change(&self.net, self.lib, g);
        self.counters.sta_events += events as u64;
        events
    }

    /// Reassigns `g`'s drive size and incrementally re-times the affected
    /// cone. Returns the number of STA worklist events processed.
    pub fn set_size(&mut self, g: NodeId, size: SizeIx) -> usize {
        self.fresh_at = None;
        self.net.set_size(g, size);
        if let Some(p) = self.power.as_mut() {
            p.note(PowerDelta::SetSize(g));
        }
        self.counters.size_edits += 1;
        dvs_obs::attr_add("session.edits", || self.net.node(g).name(), 1);
        let events = self.timing.apply_gate_change(&self.net, self.lib, g);
        self.counters.sta_events += events as u64;
        events
    }

    /// Splices a level converter after `driver` over the given `sinks`
    /// (and the primary outputs it drives when `cover_outputs` is set),
    /// patching the cached timing in place instead of rebuilding it.
    ///
    /// # Errors
    ///
    /// Propagates [`dvs_netlist::NetlistError`] from
    /// [`Network::insert_converter`]; on error nothing changes.
    pub fn insert_converter(
        &mut self,
        driver: NodeId,
        sinks: &[NodeId],
        cover_outputs: bool,
    ) -> Result<NodeId, dvs_netlist::NetlistError> {
        let conv = self
            .net
            .insert_converter(driver, sinks, cover_outputs, self.lib.converter())?;
        self.fresh_at = None;
        if let Some(p) = self.power.as_mut() {
            p.note(PowerDelta::ConverterInserted { conv, driver });
        }
        self.counters.converters_inserted += 1;
        dvs_obs::attr_add("session.edits", || self.net.node(driver).name(), 1);
        let events = self
            .timing
            .apply_converter_insertion(&self.net, self.lib, conv);
        self.counters.sta_events += events as u64;
        Ok(conv)
    }

    /// Bypasses and tombstones the converter `conv`, patching the cached
    /// timing in place instead of rebuilding it.
    ///
    /// # Errors
    ///
    /// Propagates [`dvs_netlist::NetlistError`] from
    /// [`Network::remove_converter`]; on error nothing changes.
    pub fn remove_converter(&mut self, conv: NodeId) -> Result<(), dvs_netlist::NetlistError> {
        // capture the driver and sinks before the splice clears the
        // tombstone's lists
        let driver = self.net.node(conv).fanins().first().copied();
        let sinks = if self.power.is_some() {
            self.net.fanouts(conv).to_vec()
        } else {
            Vec::new()
        };
        self.net.remove_converter(conv)?;
        self.fresh_at = None;
        let driver = driver.expect("remove_converter validated a single fanin");
        if let Some(p) = self.power.as_mut() {
            p.note(PowerDelta::ConverterRemoved {
                conv,
                driver,
                sinks,
            });
        }
        self.counters.converters_removed += 1;
        dvs_obs::attr_add("session.edits", || self.net.node(driver).name(), 1);
        let events = self
            .timing
            .apply_converter_removal(&self.net, self.lib, conv, driver);
        self.counters.sta_events += events as u64;
        Ok(())
    }

    /// Takes an O(1) transaction checkpoint of the current network state.
    pub fn checkpoint(&mut self) -> Checkpoint {
        self.counters.checkpoints += 1;
        self.net.checkpoint()
    }

    /// Rolls the network back to `cp` in O(changes) and re-derives timing
    /// with one full analysis (counted in [`FlowCounters::full_analyses`] —
    /// a rollback is a phase boundary, not a hot loop, and the fresh
    /// analysis makes post-rollback timing bit-exact with a from-scratch
    /// run).
    pub fn rollback(&mut self, cp: Checkpoint) {
        let touched = self.net.rollback_to(cp);
        self.timing = Timing::analyze(&self.net, self.lib, self.tspec_ns);
        self.fresh_at = Some(cp);
        if matches!(&self.cvs_memo, Some(m) if self.net.journal_len() < m.journal_len) {
            self.cvs_memo = None;
        }
        let nodes_touched = touched.len();
        if let Some(p) = self.power.as_mut() {
            p.note(PowerDelta::Rollback { touched });
        }
        self.counters.rollbacks += 1;
        self.counters.full_analyses += 1;
        dvs_obs::instant("session.rollback", || {
            format!("[session] rollback touched {nodes_touched} nodes")
        });
    }

    /// `true` if the incremental power cache exists and serves `cfg`'s
    /// simulation configuration — i.e. the next power query is a hot hit.
    fn power_matches(&self, cfg: &FlowConfig) -> bool {
        matches!(&self.power, Some(p) if p.matches(cfg.sim_vectors, cfg.sim_seed, cfg.fclk_mhz))
    }

    /// Brings the incremental power cache up to date with the current
    /// network: builds it with one full simulation if absent or opened for
    /// a different configuration (counted in [`FlowCounters::full_power`]),
    /// otherwise absorbs any queued journal deltas by re-simulating only
    /// the dirty fanout cones (counted in [`FlowCounters::power_resims`],
    /// cone sizes attributed under `power.cone_nodes`).
    ///
    /// Phases call this *before* snapshotting entry counters so the
    /// one-time cache construction is billed to session setup, mirroring
    /// how [`FlowSession::new`] pays the first timing analysis.
    pub fn ensure_power(&mut self, cfg: &FlowConfig) {
        let jobs = cfg.resolved_circuit_jobs();
        if !self.power_matches(cfg) {
            self.power = Some(PowerState::with_jobs(
                &self.net,
                self.lib,
                cfg.sim_vectors,
                cfg.sim_seed,
                cfg.fclk_mhz,
                jobs,
            ));
            self.counters.full_power += 1;
            return;
        }
        let p = self.power.as_mut().expect("matched above");
        p.set_jobs(jobs);
        if p.has_pending() {
            let stats = p.refresh(&self.net, self.lib);
            self.counters.power_resims += 1;
            self.note_parallel(stats.cone_nodes as u64, stats.levels as u64);
            dvs_obs::attr_add(
                "power.cone_nodes",
                || self.net.name(),
                stats.cone_nodes as u64,
            );
        }
    }

    /// Accounts one intra-circuit parallel fan-out: `tasks` items over
    /// `batches` pool dispatches. Both are deterministic functions of the
    /// network, never of the thread count.
    pub(crate) fn note_parallel(&mut self, tasks: u64, batches: u64) {
        self.counters.par_tasks += tasks;
        self.counters.par_batches += batches;
    }

    /// Serves one power query: brings the cache up to date
    /// ([`FlowSession::ensure_power`]) and counts the query in
    /// [`FlowCounters::full_power_avoided`] when the cache was already live.
    fn serve_power_query(&mut self, cfg: &FlowConfig) -> &PowerState {
        if self.power_matches(cfg) {
            self.counters.full_power_avoided += 1;
        }
        self.ensure_power(cfg);
        self.power.as_ref().expect("ensure_power built the cache")
    }

    /// The Eq. (1) power breakdown of the current network, served
    /// incrementally: refreshes the cache and re-runs the estimator
    /// summation over cached per-node state — bit-compatible with a
    /// from-scratch [`dvs_power::simulate`] + [`dvs_power::estimate`].
    pub fn power(&mut self, cfg: &FlowConfig) -> PowerBreakdown {
        self.serve_power_query(cfg);
        self.power
            .as_ref()
            .expect("served above")
            .breakdown(&self.net, self.lib)
    }

    /// The per-net switching activities of the current network, from the
    /// incremental cache — exactly what [`dvs_power::simulate`] would
    /// return, without the full-network re-simulation.
    pub fn power_activities(&mut self, cfg: &FlowConfig) -> Activities {
        self.serve_power_query(cfg).activities().clone()
    }

    /// Total power (µW) of the current network, served incrementally
    /// ([`FlowSession::power`]).
    pub fn measure_power(&mut self, cfg: &FlowConfig) -> f64 {
        self.power(cfg).total_uw
    }

    /// Runs a [CVS](crate::cvs) pass inside the session, counting each
    /// demotion's rail edit and STA cost.
    ///
    /// A pass from the same fresh state with the same guard as an earlier
    /// one is a replay (see the module docs): it leaves the network, the
    /// timing, the counters and the observations exactly as the live pass
    /// would, so [`FlowCounters::sta_events`] still counts the CVS work,
    /// while the CPU it costs is that of the replay.
    pub fn run_cvs(&mut self, guard_ns: f64) -> CvsOutcome {
        let fresh = self.fresh_at.take();
        let FlowSession {
            net,
            lib,
            timing,
            counters,
            cvs_memo,
            ..
        } = self;
        match (fresh, cvs_memo.as_ref()) {
            (Some(from), Some(m)) if m.from == from && m.guard_bits == guard_ns.to_bits() => {
                m.replay(net, timing, counters)
            }
            _ => {
                let journal_len = net.journal_len();
                let mut events = Vec::new();
                let out =
                    crate::cvs::cvs_counted(net, lib, timing, guard_ns, counters, &mut events);
                if let Some(from) = fresh {
                    *cvs_memo = Some(CvsMemo {
                        from,
                        journal_len,
                        guard_bits: guard_ns.to_bits(),
                        outcome: out.clone(),
                        events,
                        timing: timing.clone(),
                    });
                }
                out
            }
        }
    }

    /// Runs the paper's [`crate::dscale`] inside the session: timing is
    /// kept incrementally consistent through every demotion and converter
    /// splice — no hot-path rebuild, no network clone. The returned
    /// [`crate::DscaleOutcome::counters`] cover exactly this call.
    pub fn run_dscale(&mut self, cfg: &crate::FlowConfig) -> crate::DscaleOutcome {
        crate::dscale::dscale_session(self, cfg)
    }

    /// Runs the paper's [`crate::gscale`] inside the session: the
    /// CVS-phase snapshot is an O(1) journal checkpoint instead of a
    /// whole-network clone, the power fallback is an O(changes) rollback,
    /// and every resize is absorbed by incremental STA. The returned
    /// [`crate::GscaleOutcome::counters`] cover exactly this call.
    pub fn run_gscale(&mut self, cfg: &crate::FlowConfig) -> crate::GscaleOutcome {
        crate::gscale::gscale_session(self, cfg)
    }

    /// Builds a [`DemotionPlan`] for `g` against the session's current
    /// timing, if one exists.
    pub fn plan_demotion(&self, g: NodeId) -> Option<DemotionPlan> {
        DemotionPlan::build(&self.net, self.lib, &self.timing, g)
    }

    /// Audits the session's current assignment against every flow
    /// invariant; see [`crate::audit`].
    ///
    /// # Errors
    ///
    /// Returns the first violated invariant as an [`AuditError`].
    pub fn audit(&self, allow_converters: bool) -> Result<(), AuditError> {
        crate::audit::audit(&self.net, self.lib, self.tspec_ns, allow_converters)
    }

    /// Closes the session, disabling the journal and returning the network.
    pub fn into_network(mut self) -> Network {
        self.net.disable_journal();
        self.net
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    fn chain(lib: &Library, n: usize) -> Network {
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("chain");
        let mut prev = net.add_input("a");
        for k in 0..n {
            prev = net.add_gate(format!("g{k}"), inv, &[prev]);
        }
        net.add_output("y", prev);
        net
    }

    #[test]
    fn counted_edits_keep_timing_fresh() {
        let lib = lib();
        let net = chain(&lib, 6);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let mut sess = FlowSession::new(net, &lib, nominal * 2.0);
        assert_eq!(sess.counters().full_analyses, 1);

        let g = sess.network().gate_ids().next().unwrap();
        sess.set_rail(g, Rail::Low);
        sess.set_size(g, SizeIx(1));
        let c = sess.counters();
        assert_eq!(c.rail_edits, 1);
        assert_eq!(c.size_edits, 1);
        assert!(c.sta_events > 0);
        assert_eq!(c.full_analyses, 1);

        let fresh = Timing::analyze(sess.network(), &lib, sess.tspec_ns());
        for id in sess.network().node_ids() {
            assert!((sess.timing().arrival_ns(id) - fresh.arrival_ns(id)).abs() < 1e-9);
        }
    }

    #[test]
    fn converter_splices_are_incremental_and_counted() {
        let lib = lib();
        let net = chain(&lib, 5);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let mut sess = FlowSession::new(net, &lib, nominal * 3.0);
        let gates: Vec<NodeId> = sess.network().gate_ids().collect();
        let driver = gates[1];
        let sink = gates[2];

        sess.set_rail(driver, Rail::Low);
        let conv = sess.insert_converter(driver, &[sink], false).unwrap();
        assert_eq!(sess.counters().converters_inserted, 1);

        let fresh = Timing::analyze(sess.network(), &lib, sess.tspec_ns());
        assert!((sess.timing().arrival_ns(sink) - fresh.arrival_ns(sink)).abs() < 1e-9);

        sess.remove_converter(conv).unwrap();
        assert_eq!(sess.counters().converters_removed, 1);
        assert_eq!(sess.counters().full_analyses, 1, "no rebuild");
        let fresh = Timing::analyze(sess.network(), &lib, sess.tspec_ns());
        assert!((sess.timing().arrival_ns(sink) - fresh.arrival_ns(sink)).abs() < 1e-9);
    }

    #[test]
    fn rollback_restores_network_and_retimes() {
        let lib = lib();
        let net = chain(&lib, 6);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let mut sess = FlowSession::new(net, &lib, nominal * 2.0);
        let reference = sess.network().clone();

        let cp = sess.checkpoint();
        let gates: Vec<NodeId> = sess.network().gate_ids().collect();
        sess.set_rail(gates[4], Rail::Low);
        sess.set_rail(gates[3], Rail::Low);
        sess.insert_converter(gates[0], &[gates[1]], false).unwrap();
        sess.rollback(cp);

        assert_eq!(sess.network().node_count(), reference.node_count());
        for id in reference.node_ids() {
            assert_eq!(sess.network().node(id), reference.node(id));
        }
        let c = sess.counters();
        assert_eq!((c.checkpoints, c.rollbacks), (1, 1));
        assert_eq!(c.full_analyses, 2); // construction + rollback

        let fresh = Timing::analyze(sess.network(), &lib, sess.tspec_ns());
        for id in sess.network().node_ids() {
            assert!((sess.timing().arrival_ns(id) - fresh.arrival_ns(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn trace_events_flow_through_the_obs_subscriber() {
        // Installs the process-global subscriber: other tests running
        // concurrently in this binary may record into it too, so all
        // assertions filter down to this thread's records.
        let lib = lib();
        let net = chain(&lib, 4);
        let mut sess = FlowSession::new(net, &lib, 100.0);
        let rec = std::sync::Arc::new(dvs_obs::Recorder::new());
        dvs_obs::set_subscriber(Some(rec.clone()));
        let cp = sess.checkpoint();
        let g = sess.network().gate_ids().next().unwrap();
        sess.set_rail(g, Rail::Low);
        sess.rollback(cp);
        dvs_obs::set_subscriber(None);
        let tid = dvs_obs::current_tid();
        let trace = rec.drain();

        let mine: Vec<_> = trace.instants.iter().filter(|i| i.tid == tid).collect();
        assert_eq!(mine.len(), 1);
        assert_eq!(mine[0].name, "session.rollback");
        assert!(mine[0].text.contains("rollback touched"));
        assert_eq!(sess.counters().rail_edits, 1);
        assert_eq!(sess.counters().rollbacks, 1);
    }

    #[test]
    fn cvs_from_a_fresh_checkpoint_state_is_a_replay() {
        let lib = lib();
        let net = chain(&lib, 6);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let mut sess = FlowSession::new(net, &lib, nominal * 1.5);
        let base = sess.checkpoint();
        let first = sess.run_cvs(1e-9);
        assert!(!first.lowered.is_empty());
        assert_eq!(sess.fresh_at, None);
        sess.rollback(base);
        assert_eq!(sess.fresh_at, Some(base));
        // a replay hands back the recorded outcome: tag it to tell
        let tag = NodeId::from_index(0);
        sess.cvs_memo
            .as_mut()
            .expect("recorded")
            .outcome
            .tcb
            .push(tag);
        assert_eq!(sess.run_cvs(1e-9).tcb.last(), Some(&tag));
        // after an edit, or with another guard, the pass runs live
        sess.rollback(base);
        sess.set_size(first.lowered[0], SizeIx(0));
        assert_ne!(sess.run_cvs(1e-9).tcb.last(), Some(&tag));
        sess.rollback(base);
        assert_ne!(sess.run_cvs(2e-9).tcb.last(), Some(&tag));
    }

    #[test]
    fn into_network_disables_journal() {
        let lib = lib();
        let sess = FlowSession::new(chain(&lib, 3), &lib, 100.0);
        let net = sess.into_network();
        assert!(!net.journal_enabled());
    }

    #[test]
    fn counters_since_is_a_field_wise_difference() {
        let a = FlowCounters {
            rail_edits: 5,
            sta_events: 100,
            full_analyses: 2,
            ..FlowCounters::default()
        };
        let b = FlowCounters {
            rail_edits: 2,
            sta_events: 30,
            full_analyses: 1,
            ..FlowCounters::default()
        };
        let d = a.since(&b);
        assert_eq!(d.rail_edits, 3);
        assert_eq!(d.sta_events, 70);
        assert_eq!(d.full_analyses, 1);
        assert_eq!(d.size_edits, 0);
    }

    #[test]
    fn failed_structural_edit_leaves_counters_untouched() {
        let lib = lib();
        let net = chain(&lib, 3);
        let mut sess = FlowSession::new(net, &lib, 100.0);
        let g = sess.network().gate_ids().next().unwrap();
        assert!(sess.insert_converter(g, &[], false).is_err());
        assert!(sess.remove_converter(g).is_err());
        let c = sess.counters();
        assert_eq!(c.converters_inserted, 0);
        assert_eq!(c.converters_removed, 0);
        assert_eq!(c.sta_events, 0);
    }

    #[test]
    fn plan_demotion_matches_free_function() {
        let lib = lib();
        let net = chain(&lib, 5);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let sess = FlowSession::new(net, &lib, nominal * 2.0);
        let g = sess.network().gate_ids().last().unwrap();
        let a = sess.plan_demotion(g);
        let b = DemotionPlan::build(sess.network(), &lib, sess.timing(), g);
        assert_eq!(a.is_some(), b.is_some());
    }
}
