//! Thread-count invariance of Dscale's parallel candidate scoring: on any
//! random network, [`score_candidates`] at 1, 2 and 4 intra-circuit
//! threads must return the exact same candidate vector — same gates in the
//! same (gate-id) order, identical [`DemotionPlan`]s, bit-equal `f64`
//! gains. This is the merge-in-index-order contract that keeps the whole
//! Dscale loop byte-identical across `--circuit-jobs`.
//!
//! The random networks stay below [`PAR_MIN_GATES`], so their wide lanes
//! run sequentially; one fixed layered network of 1 200 gates takes the
//! scoring onto the pool.

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_core::{score_candidates, FlowConfig, FlowSession, PAR_MIN_GATES};
use dvs_netlist::{Network, NodeId};
use dvs_power::simulate;
use dvs_sta::Timing;
use proptest::prelude::*;

fn lib() -> Library {
    compass::compass_library(VoltagePair::default())
}

/// Same random-network generator as the session property suite.
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
            let mut net = Network::new("score");
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

/// A layered NAND2 network: 640 gates over 16 primary inputs, then
/// layers of 320, 160 and 80 gates, each pairing up the layer below
/// (1 200 gates, widest level 640 rows).
fn layered_network() -> Network {
    let lib = lib();
    let nand2 = lib.find("NAND2").unwrap();
    let mut net = Network::new("layered");
    let pis: Vec<NodeId> = (0..16).map(|i| net.add_input(format!("pi{i}"))).collect();
    let mut layer: Vec<NodeId> = (0..640)
        .map(|k| {
            let a = pis[k % 16];
            let b = pis[(k * 7 / 16 + 1 + k % 16) % 16];
            net.add_gate(format!("l1_{k}"), nand2, &[a, b])
        })
        .collect();
    for depth in 2..=4 {
        let half = layer.len() / 2;
        // pair gate k with gate k + half so neighbours mix across the layer
        layer = (0..half)
            .map(|k| net.add_gate(format!("l{depth}_{k}"), nand2, &[layer[k], layer[k + half]]))
            .collect();
    }
    for (o, &d) in layer.iter().enumerate() {
        net.add_output(format!("po{o}"), d);
    }
    net
}

/// Scoring a network above the floor runs on 2 and 4 pool threads and
/// returns the sequential candidate vector bit for bit.
#[test]
fn wide_network_scoring_is_thread_count_invariant_on_the_pool() {
    let lib = lib();
    let net = layered_network();
    assert!(net.gate_count() >= PAR_MIN_GATES.max(1_000));
    let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
    let cfg = FlowConfig {
        sim_vectors: 64,
        ..FlowConfig::default()
    };
    let sess = FlowSession::new(net, &lib, nominal * 1.5);
    let acts = simulate(sess.network(), &lib, cfg.sim_vectors, cfg.sim_seed);

    let (base, scanned) = score_candidates(&sess, &acts, &cfg, 1);
    assert_eq!(scanned, 1_200);
    assert!(!base.is_empty(), "slack leaves candidates to score");
    for jobs in [2usize, 4] {
        let (wide, wide_scanned) = score_candidates(&sess, &acts, &cfg, jobs);
        assert_eq!(wide_scanned, scanned, "scanned at jobs={jobs}");
        assert_eq!(wide.len(), base.len(), "len at jobs={jobs}");
        for (a, b) in base.iter().zip(&wide) {
            assert_eq!(a.0, b.0, "gate order at jobs={jobs}");
            assert_eq!(a.1, b.1, "plan for {} at jobs={jobs}", a.0);
            assert_eq!(
                a.2.to_bits(),
                b.2.to_bits(),
                "gain for {} at jobs={jobs}",
                a.0
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn candidate_scoring_is_thread_count_invariant(
        net in network_strategy(),
        tspec_scale in 1.0f64..3.0,
        net_weighting in any::<bool>(),
    ) {
        let lib = lib();
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        prop_assume!(nominal > 0.0);
        let cfg = FlowConfig {
            sim_vectors: 64,
            dscale_net_weighting: net_weighting,
            ..FlowConfig::default()
        };
        let sess = FlowSession::new(net, &lib, nominal * tspec_scale);
        let acts = simulate(sess.network(), &lib, cfg.sim_vectors, cfg.sim_seed);

        let (base, scanned) = score_candidates(&sess, &acts, &cfg, 1);
        prop_assert_eq!(scanned, sess.network().gate_count());
        for jobs in [2usize, 4] {
            let (wide, wide_scanned) = score_candidates(&sess, &acts, &cfg, jobs);
            prop_assert_eq!(scanned, wide_scanned, "scanned at jobs={}", jobs);
            prop_assert_eq!(base.len(), wide.len(), "len at jobs={}", jobs);
            for (a, b) in base.iter().zip(wide.iter()) {
                prop_assert_eq!(a.0, b.0, "gate order at jobs={}", jobs);
                prop_assert_eq!(&a.1, &b.1, "plan for {} at jobs={}", a.0, jobs);
                // bit-equal, not epsilon-equal: the merge re-serializes the
                // same per-gate computation.
                prop_assert_eq!(a.2, b.2, "gain for {} at jobs={}", a.0, jobs);
            }
        }
    }
}
