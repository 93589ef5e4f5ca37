//! Property tests of the `FlowSession` transaction layer: random edit
//! sequences (rail flips, resizes, converter splices/removals, rollbacks)
//! must keep the incrementally maintained timing value-identical to a
//! from-scratch [`Timing::analyze`] — and the incrementally maintained
//! power *bit-identical* to a from-scratch `simulate` + `estimate` — and
//! a rollback must restore the network bit-exactly. A CVS pass through the
//! session must equal the one-gate-at-a-time reference CVS
//! ([`oracle::incremental_cvs`]) run on clones.

mod oracle;

use std::sync::Arc;

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_core::{
    measure_power, time_critical_boundary, CvsOutcome, FlowConfig, FlowCounters, FlowSession,
};
use dvs_netlist::{Network, NodeId, Rail, SizeIx};
use dvs_power::{estimate, simulate};
use dvs_sta::Timing;
use dvs_synth::{mcnc, prepare};
use proptest::prelude::*;

fn lib() -> Library {
    compass::compass_library(VoltagePair::default())
}

/// A random acyclic mapped network over real library cells (INV/NAND2),
/// so timing lookups resolve against genuine size tables.
fn network_strategy() -> impl Strategy<Value = Network> {
    (
        2usize..5,
        proptest::collection::vec((any::<u32>(), 1u8..3), 3..28),
        1usize..4,
    )
        .prop_map(|(inputs, gates, outputs)| {
            let lib = lib();
            let inv = lib.find("INV").unwrap();
            let nand2 = lib.find("NAND2").unwrap();
            let mut net = Network::new("prop");
            let mut pool: Vec<NodeId> = (0..inputs)
                .map(|i| net.add_input(format!("pi{i}")))
                .collect();
            for (ix, (seed, arity)) in gates.iter().enumerate() {
                let arity = (*arity as usize).min(pool.len()).min(2);
                let mut fanins = Vec::with_capacity(arity);
                for pin in 0..arity {
                    let pick =
                        (*seed as usize).wrapping_mul(31).wrapping_add(pin * 17) % pool.len();
                    fanins.push(pool[pick]);
                }
                fanins.dedup();
                let cell = if fanins.len() == 2 { nand2 } else { inv };
                let g = net.add_gate(format!("g{ix}"), cell, &fanins);
                pool.push(g);
            }
            for o in 0..outputs {
                let d = pool[pool.len() - 1 - o % pool.len().min(3)];
                net.add_output(format!("po{o}"), d);
            }
            net
        })
}

/// Asserts the session's cached timing matches a from-scratch analysis on
/// every live node.
fn assert_timing_fresh(sess: &FlowSession<'_>) -> Result<(), TestCaseError> {
    let fresh = Timing::analyze(sess.network(), sess.library(), sess.tspec_ns());
    for id in sess.network().node_ids() {
        if sess.network().node(id).is_dead() {
            continue;
        }
        prop_assert!(
            (sess.timing().arrival_ns(id) - fresh.arrival_ns(id)).abs() < 1e-9,
            "arrival diverged at {}: {} vs {}",
            id,
            sess.timing().arrival_ns(id),
            fresh.arrival_ns(id)
        );
        prop_assert!(
            (sess.timing().required_ns(id) - fresh.required_ns(id)).abs() < 1e-9,
            "required diverged at {}: {} vs {}",
            id,
            sess.timing().required_ns(id),
            fresh.required_ns(id)
        );
        prop_assert!(
            (sess.timing().load_pf(id) - fresh.load_pf(id)).abs() < 1e-12,
            "load diverged at {}",
            id
        );
    }
    let net = sess.network();
    prop_assert!((sess.timing().worst_po_slack(net) - fresh.worst_po_slack(net)).abs() < 1e-9);
    Ok(())
}

/// Asserts the session's incremental power state matches a from-scratch
/// `simulate` + `estimate` exactly — `f64 ==`, not epsilon: the engine
/// re-runs the identical summation over identically recomputed state.
fn assert_power_fresh(sess: &mut FlowSession<'_>, cfg: &FlowConfig) -> Result<(), TestCaseError> {
    let got = sess.power(cfg);
    let fresh = simulate(
        sess.network(),
        sess.library(),
        cfg.sim_vectors,
        cfg.sim_seed,
    );
    let want = estimate(sess.network(), sess.library(), &fresh, cfg.fclk_mhz);
    prop_assert_eq!(got.switching_uw, want.switching_uw);
    prop_assert_eq!(got.converter_uw, want.converter_uw);
    prop_assert_eq!(got.input_net_uw, want.input_net_uw);
    prop_assert_eq!(got.leakage_uw, want.leakage_uw);
    prop_assert_eq!(got.total_uw, want.total_uw);
    for id in sess.network().node_ids() {
        prop_assert_eq!(got.node_uw(id), want.node_uw(id), "node_uw({})", id);
    }
    Ok(())
}

/// What a session CVS pass must produce: the reference CVS run on clones
/// of the session's network and timing, plus the counter delta the
/// session must report — one rail edit per demotion, and the STA events of
/// one sweep: a required time and an arrival per live node and a delay per
/// demotion.
struct CvsOracle {
    outcome: CvsOutcome,
    net: Network,
    timing: Timing,
    delta: FlowCounters,
}

impl CvsOracle {
    fn of(sess: &FlowSession<'_>, guard_ns: f64) -> Self {
        let lib = sess.library();
        let mut net = sess.network().clone();
        let mut timing = sess.timing().clone();
        let outcome = oracle::incremental_cvs(&mut net, lib, &mut timing, guard_ns);
        let lowered = outcome.lowered.len() as u64;
        let delta = FlowCounters {
            rail_edits: lowered,
            sta_events: 2 * net.node_ids().count() as u64 + lowered,
            ..FlowCounters::default()
        };
        CvsOracle {
            outcome,
            net,
            timing,
            delta,
        }
    }

    /// Checks a session pass that returned `got` and moved the counters by
    /// `delta`: outcome, every node and fanout list, and the bits of every
    /// node's arrival, required time, load and delay.
    fn check(
        &self,
        sess: &FlowSession<'_>,
        got: &CvsOutcome,
        delta: FlowCounters,
    ) -> Result<(), TestCaseError> {
        prop_assert_eq!(got, &self.outcome);
        prop_assert_eq!(delta, self.delta);
        let (net, timing) = (sess.network(), sess.timing());
        prop_assert_eq!(net.node_count(), self.net.node_count());
        prop_assert_eq!(net.primary_outputs(), self.net.primary_outputs());
        for ix in 0..net.node_count() {
            let id = NodeId::from_index(ix);
            prop_assert_eq!(net.node(id), self.net.node(id));
            prop_assert_eq!(net.fanouts(id), self.net.fanouts(id));
            let bits = |t: &Timing| {
                [
                    t.arrival_ns(id).to_bits(),
                    t.required_ns(id).to_bits(),
                    t.load_pf(id).to_bits(),
                    t.delay_ns(id).to_bits(),
                ]
            };
            prop_assert_eq!(bits(timing), bits(&self.timing), "timing of {}", id);
        }
        Ok(())
    }
}

/// `sess.run_cvs(guard_ns)`, checked against its [`CvsOracle`].
fn run_cvs_checked(sess: &mut FlowSession<'_>, guard_ns: f64) -> Result<(), TestCaseError> {
    let oracle = CvsOracle::of(sess, guard_ns);
    let c0 = *sess.counters();
    let got = sess.run_cvs(guard_ns);
    let delta = sess.counters().since(&c0);
    oracle.check(sess, &got, delta)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random counted edits through the session keep timing exactly in
    /// step with a fresh analysis, and rolling everything back restores
    /// both the network and the timing of the pristine state.
    #[test]
    fn session_edits_match_from_scratch_analysis(
        net in network_strategy(),
        ops in proptest::collection::vec((any::<u32>(), 0u8..6), 1..20),
        tspec_scale in 1.0f64..3.0,
    ) {
        let lib = lib();
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        prop_assume!(nominal > 0.0);
        let reference = net.clone();
        let cfg = FlowConfig { sim_vectors: 64, ..FlowConfig::default() };
        let mut sess = FlowSession::new(net, &lib, nominal * tspec_scale);
        let base = sess.checkpoint();
        assert_power_fresh(&mut sess, &cfg)?;
        let mut converters: Vec<NodeId> = Vec::new();
        let mut inner: Option<dvs_netlist::Checkpoint> = None;

        for (seed, kind) in ops {
            let gates: Vec<NodeId> = {
                let n = sess.network();
                n.gate_ids().filter(|&g| !n.node(g).is_converter()).collect()
            };
            if gates.is_empty() { break; }
            let g = gates[seed as usize % gates.len()];
            match kind {
                0 => {
                    let rail = if seed % 2 == 0 { Rail::Low } else { Rail::High };
                    sess.set_rail(g, rail);
                }
                1 => {
                    let cell = lib.cell(sess.network().node(g).cell());
                    let s = SizeIx((seed as usize % cell.sizes().len()) as u8);
                    sess.set_size(g, s);
                }
                2 => {
                    let sinks: Vec<NodeId> = {
                        let mut s = sess.network().fanouts(g).to_vec();
                        s.sort_unstable();
                        s.dedup();
                        s
                    };
                    if !sinks.is_empty() {
                        let conv = sess.insert_converter(g, &sinks, seed % 2 == 0)
                            .expect("sinks are fanouts");
                        converters.push(conv);
                    }
                }
                3 => {
                    if let Some(conv) = converters.pop() {
                        sess.remove_converter(conv).expect("tracked converter");
                    }
                }
                4 => {
                    // nested transaction: open a checkpoint now, roll back
                    // to it on the next occurrence of this op kind
                    match inner.take() {
                        Some(cp) => {
                            sess.rollback(cp);
                            // drop tracked converters the rollback undid
                            // (truncated ids or revived-then-retracted)
                            let n = sess.network().node_count();
                            converters.retain(|&c| {
                                c.index() < n && !sess.network().node(c).is_dead()
                            });
                        }
                        None => inner = Some(sess.checkpoint()),
                    }
                }
                _ => {
                    // CVS; half the time from a rollback to `base`, half
                    // over whatever edits, low cluster and converters the
                    // earlier ops left
                    if seed % 2 == 0 {
                        sess.rollback(base);
                        inner = None;
                        converters.clear();
                    }
                    let guard_ns = if seed % 3 == 0 { 0.05 } else { cfg.guard_ns };
                    run_cvs_checked(&mut sess, guard_ns)?;
                }
            }
            prop_assert!(sess.network().validate(None).is_ok());
            assert_timing_fresh(&sess)?;
            assert_power_fresh(&mut sess, &cfg)?;
        }

        // no full power evaluation after the cache is built: the one
        // construction is the only full simulation the session ever ran
        prop_assert_eq!(sess.counters().full_power, 1);

        // full unwind: bit-exact network restoration + fresh-equal timing
        sess.rollback(base);
        prop_assert!(sess.network().validate(None).is_ok());
        prop_assert_eq!(sess.network().node_count(), reference.node_count());
        for ix in 0..reference.node_count() {
            let id = NodeId::from_index(ix);
            prop_assert_eq!(sess.network().node(id), reference.node(id));
            prop_assert_eq!(sess.network().fanouts(id), reference.fanouts(id));
        }
        prop_assert_eq!(
            sess.network().primary_outputs(),
            reference.primary_outputs()
        );
        assert_timing_fresh(&sess)?;
        assert_power_fresh(&mut sess, &cfg)?;
    }
}

/// A session CVS pass checked against its oracle inside a [`Recorder`]
/// window, followed by a power refresh (the pass queues no power delta).
/// Returns the counter delta and the rollup.
fn observed_cvs(
    rec: &dvs_obs::Recorder,
    sess: &mut FlowSession<'_>,
    cfg: &FlowConfig,
    guard_ns: f64,
) -> (FlowCounters, dvs_obs::Rollup) {
    let oracle = CvsOracle::of(sess, guard_ns);
    let mark = rec.mark();
    let c0 = *sess.counters();
    let got = sess.run_cvs(guard_ns);
    sess.ensure_power(cfg);
    let delta = sess.counters().since(&c0);
    let mut rollup = rec.rollup_since(&mark);
    rollup.zero_timing();
    oracle.check(sess, &got, delta).unwrap();
    (delta, rollup)
}

/// Up-sizes every gate of the time-critical boundary `tcb` and each of
/// their gate fanins by one step where the cell allows, as Gscale's
/// separator resizing speeds the paths into the boundary. Returns the
/// number of size edits.
fn upsize_into_the_boundary(sess: &mut FlowSession<'_>, tcb: &[NodeId]) -> usize {
    let mut picks: Vec<NodeId> = Vec::new();
    for &g in tcb {
        picks.push(g);
        picks.extend(sess.network().fanins(g));
    }
    picks.sort_unstable();
    picks.dedup();
    let mut edits = 0;
    for g in picks {
        let node = sess.network().node(g);
        if !node.is_gate() || node.is_converter() {
            continue;
        }
        if node.size().index() + 1 < sess.library().cell(node.cell()).sizes().len() {
            sess.set_size(g, SizeIx(node.size().0 + 1));
            edits += 1;
        }
    }
    edits
}

/// The rollback that follows a CVS pass undoes rail edits alone, which
/// change no waveform: the refresh behind the next power query
/// re-evaluates no row, and the power it serves still equals a
/// from-scratch simulation bit for bit.
#[test]
fn power_after_a_cvs_rollback_resimulates_nothing() {
    let lib = lib();
    let cfg = FlowConfig::default();
    let profile = mcnc::find("C1355").expect("known profile");
    let p = prepare(mcnc::generate_scaled(profile, &lib, 1, 0), &lib, 1.2);
    let mut sess = FlowSession::new(p.network, &lib, p.tspec_ns);
    sess.ensure_power(&cfg);
    let base = sess.checkpoint();
    let out = sess.run_cvs(cfg.guard_ns);
    assert!(!out.lowered.is_empty(), "CVS lowers some gates");
    let lowered_uw = sess.measure_power(&cfg);
    sess.rollback(base);
    let c0 = *sess.counters();
    let uw = sess.measure_power(&cfg);
    let delta = sess.counters().since(&c0);
    assert_eq!(delta.power_resims, 1, "the rollback is absorbed");
    assert_eq!(delta.par_tasks, 0, "rows re-evaluated by the refresh");
    assert_eq!(delta.par_batches, 0, "refresh levels");
    assert_eq!(delta.full_power, 0);
    assert_eq!(
        uw.to_bits(),
        measure_power(sess.network(), &lib, &cfg).to_bits(),
        "incremental power after the rollback vs from scratch"
    );
    assert!(uw > lowered_uw, "the rollback restores the high rail");
}

/// `run_circuit`'s sequence CVS → Dscale → rollback(base) → CVS must repeat
/// the first pass: the second pass must equal a fresh session's first CVS
/// in outcome, network, timing bits, counter delta and observability
/// rollup, on every profile at scale 1 and on pcle and C1355 at scale 10.
/// Each pass is also checked against the reference CVS, and so are passes
/// after an edit, with another guard, and Gscale-style re-runs that extend
/// an existing low cluster after resizing into its boundary.
#[test]
fn cvs_after_a_rollback_matches_a_fresh_pass_on_every_profile() {
    let lib = lib();
    let cfg = FlowConfig {
        sim_vectors: 64,
        ..FlowConfig::default()
    };
    let guard_ns = cfg.guard_ns;
    // process-global: concurrent tests may record too, but a window only
    // holds this thread's records
    let rec = Arc::new(dvs_obs::Recorder::new());
    dvs_obs::set_subscriber(Some(rec.clone()));
    let mut cases: Vec<_> = mcnc::PROFILES.iter().map(|p| (p.name, 1)).collect();
    cases.extend([("pcle", 10), ("C1355", 10)]);
    let (mut resized, mut extended) = (0, 0);
    for (name, scale) in cases {
        let profile = mcnc::find(name).expect("known profile");
        let p = prepare(mcnc::generate_scaled(profile, &lib, scale, 0), &lib, 1.2);
        let check = |sess: &mut FlowSession<'_>, guard_ns: f64, step: &str| {
            if let Err(e) = run_cvs_checked(sess, guard_ns) {
                panic!("{name}.x{scale}: {step}: {e:?}");
            }
        };

        let mut fresh = FlowSession::new(p.network.clone(), &lib, p.tspec_ns);
        fresh.ensure_power(&cfg);
        let live = observed_cvs(&rec, &mut fresh, &cfg, guard_ns);

        let mut sess = FlowSession::new(p.network.clone(), &lib, p.tspec_ns);
        let base = sess.checkpoint();
        sess.run_cvs(guard_ns);
        sess.run_dscale(&cfg);
        sess.rollback(base);
        sess.ensure_power(&cfg);
        let again = observed_cvs(&rec, &mut sess, &cfg, guard_ns);
        assert_eq!(again, live, "{name}.x{scale}: after a rollback vs fresh");

        // a gate whose size can move
        let (g, size) = {
            let net = sess.network();
            net.gate_ids()
                .find_map(|g| {
                    let n = lib.cell(net.node(g).cell()).sizes().len();
                    (n > 1).then(|| (g, SizeIx((net.node(g).size().0 + 1) % n as u8)))
                })
                .expect("a resizable gate")
        };
        sess.rollback(base);
        sess.set_size(g, size);
        check(&mut sess, guard_ns, "edit after rollback");

        sess.rollback(base);
        check(&mut sess, guard_ns + 0.05, "other guard");

        // Gscale's loop: CVS, resize into the boundary, CVS again over the
        // existing low cluster, twice
        sess.rollback(base);
        let mut tcb = sess.run_cvs(guard_ns).tcb;
        for round in 0..2 {
            resized += upsize_into_the_boundary(&mut sess, &tcb);
            let low_before = sess
                .network()
                .gate_ids()
                .filter(|&g| sess.network().node(g).rail() == Rail::Low)
                .count();
            check(
                &mut sess,
                guard_ns,
                &format!("re-run {round} after resizing"),
            );
            let low = sess
                .network()
                .gate_ids()
                .filter(|&g| sess.network().node(g).rail() == Rail::Low)
                .count();
            extended += usize::from(low > low_before && low_before > 0);
            tcb = time_critical_boundary(sess.network(), &lib, sess.timing(), guard_ns);
        }
    }
    dvs_obs::set_subscriber(None);
    assert!(resized > 0, "no boundary gate could be up-sized");
    assert!(extended > 0, "no re-run extended an existing low cluster");
}
