//! Property tests of the `FlowSession` transaction layer: random edit
//! sequences (rail flips, resizes, converter splices/removals, rollbacks)
//! must keep the incrementally maintained timing value-identical to a
//! from-scratch [`Timing::analyze`] — and the incrementally maintained
//! power *bit-identical* to a from-scratch `simulate` + `estimate` — and
//! a rollback must restore the network bit-exactly.

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_core::{FlowConfig, FlowSession};
use dvs_netlist::{Network, NodeId, Rail, SizeIx};
use dvs_power::{estimate, simulate};
use dvs_sta::Timing;
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
    prop_assert!((sess.timing().worst_po_slack() - fresh.worst_po_slack()).abs() < 1e-9);
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random counted edits through the session keep timing exactly in
    /// step with a fresh analysis, and rolling everything back restores
    /// both the network and the timing of the pristine state.
    #[test]
    fn session_edits_match_from_scratch_analysis(
        net in network_strategy(),
        ops in proptest::collection::vec((any::<u32>(), 0u8..5), 1..20),
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
                _ => {
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
