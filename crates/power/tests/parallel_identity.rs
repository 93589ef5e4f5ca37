//! Value-identity of the parallel wavefront simulator across thread
//! counts: for every random network, `simulate_jobs` at 1, 2 and 4 threads
//! must agree under exact `f64 ==` on every per-net statistic, and a
//! `PowerState` refresh must produce the same breakdown *and the same
//! deterministic work counters* (`cone_nodes`, `levels`) no matter how wide
//! its pool is.
//!
//! This is the determinism contract the `--circuit-jobs` flag rides on:
//! parallelism moves wall-clock only, never a bit of the results.
//!
//! The random networks stay below [`PAR_MIN_ROWS`], so their wide lanes
//! run sequentially; one fixed layered network with a 640-row level takes
//! both the simulation gather and the refresh of a rollback that rewires
//! that level onto the pool.

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_netlist::{Levels, Network, NodeId, Rail};
use dvs_power::{simulate_jobs, PowerDelta, PowerState, PAR_MIN_ROWS};
use proptest::prelude::*;

const FCLK_MHZ: f64 = 20.0;

fn lib() -> Library {
    compass::compass_library(VoltagePair::default())
}

/// Same generator shape as the incremental differential suite: random
/// acyclic INV/NAND2 networks over the real library.
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
            let mut net = Network::new("par");
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

/// Width of the widest logic level of `net`.
fn widest_level(net: &Network) -> usize {
    let levels = Levels::of(net);
    let mut width = vec![0usize; levels.depth() as usize + 1];
    for g in net.gate_ids() {
        width[levels.level(g) as usize] += 1;
    }
    width.into_iter().max().unwrap_or(0)
}

/// The pooled paths: a wide level is gathered on 2 and 4 threads by both
/// the from-scratch simulation and a refresh that re-simulates the level a
/// rollback rewired (converters spliced after every primary input, then
/// undone, move all 640 first-level gates back onto the inputs), and every
/// value agrees with the sequential run bit for bit.
#[test]
fn wide_level_is_thread_count_invariant_on_the_pool() {
    let lib = lib();
    let net = layered_network();
    assert!(net.gate_count() >= 1_000);
    assert!(widest_level(&net) >= PAR_MIN_ROWS.max(600));
    let (vectors, seed) = (160, 11);

    let base = simulate_jobs(&net, &lib, vectors, seed, 1);
    for jobs in [2usize, 4] {
        let wide = simulate_jobs(&net, &lib, vectors, seed, jobs);
        for id in net.node_ids() {
            assert_eq!(
                base.switching(id),
                wide.switching(id),
                "sw01({id}) at jobs={jobs}"
            );
            assert_eq!(
                base.one_prob(id),
                wide.one_prob(id),
                "p_one({id}) at jobs={jobs}"
            );
        }
    }

    let level_one: Vec<NodeId> = net.gate_ids().take(640).collect();
    let mut lanes = Vec::new();
    for jobs in [1usize, 2, 4] {
        let mut n = net.clone();
        n.enable_journal();
        let mut ps = PowerState::with_jobs(&n, &lib, vectors, seed, FCLK_MHZ, jobs);
        let cp = n.checkpoint();
        for pi in n.primary_inputs().to_vec() {
            let mut sinks = n.fanouts(pi).to_vec();
            sinks.sort_unstable();
            sinks.dedup();
            let conv = n
                .insert_converter(pi, &sinks, false, lib.converter())
                .unwrap();
            ps.note(PowerDelta::ConverterInserted { conv });
        }
        ps.refresh(&n, &lib);
        let rewired = n.rollback_to(cp);
        assert_eq!(rewired, level_one, "the rollback reseeds the whole level");
        ps.note(PowerDelta::Rollback { rewired });
        let stats = ps.refresh(&n, &lib);
        lanes.push((stats, ps.breakdown(&n, &lib), ps));
    }
    let (want_stats, want, want_ps) = &lanes[0];
    // one level, re-evaluated as one pooled batch
    assert_eq!(want_stats.levels, 1);
    assert!(want_stats.cone_nodes >= PAR_MIN_ROWS);
    for (jobs, (stats, got, ps)) in [2, 4].into_iter().zip(&lanes[1..]) {
        assert_eq!(stats, want_stats, "refresh stats at jobs={jobs}");
        assert_eq!(got.total_uw, want.total_uw, "total_uw at jobs={jobs}");
        assert_eq!(got.switching_uw, want.switching_uw);
        assert_eq!(got.converter_uw, want.converter_uw);
        for id in net.node_ids() {
            assert_eq!(
                got.node_uw(id),
                want.node_uw(id),
                "node_uw({id}) at jobs={jobs}"
            );
            assert_eq!(
                ps.activities().switching(id),
                want_ps.activities().switching(id),
                "sw01({id}) at jobs={jobs}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// From-scratch simulation is bit-identical at every thread count.
    #[test]
    fn simulate_is_thread_count_invariant(
        net in network_strategy(),
        vectors in 50usize..200,
        seed in 0u64..1000,
    ) {
        let lib = lib();
        let base = simulate_jobs(&net, &lib, vectors, seed, 1);
        for jobs in [2usize, 4] {
            let wide = simulate_jobs(&net, &lib, vectors, seed, jobs);
            for id in net.node_ids() {
                prop_assert_eq!(
                    base.switching(id), wide.switching(id),
                    "sw01({}) at jobs={}", id, jobs
                );
                prop_assert_eq!(
                    base.one_prob(id), wide.one_prob(id),
                    "p_one({}) at jobs={}", id, jobs
                );
            }
        }
    }

    /// Incremental refresh after a batch of rail edits is value-identical
    /// across thread counts, and its deterministic work counters
    /// (`cone_nodes`, `levels`) match too — they feed `par_tasks` /
    /// `par_batches` in the sweep schema, which must be byte-stable.
    #[test]
    fn refresh_is_thread_count_invariant(
        net in network_strategy(),
        flips in proptest::collection::vec(any::<u32>(), 1..8),
        vectors in 50usize..150,
        seed in 0u64..1000,
    ) {
        let lib = lib();
        let mut nets = [net.clone(), net.clone(), net];
        for n in &mut nets {
            n.enable_journal();
        }
        let mut states: Vec<PowerState> = [1usize, 2, 4]
            .iter()
            .map(|&jobs| PowerState::with_jobs(&nets[0], &lib, vectors, seed, FCLK_MHZ, jobs))
            .collect();

        for (n, ps) in nets.iter_mut().zip(states.iter_mut()) {
            for &f in &flips {
                let gates: Vec<NodeId> =
                    n.gate_ids().filter(|&g| !n.node(g).is_converter()).collect();
                if gates.is_empty() { break; }
                let g = gates[f as usize % gates.len()];
                let rail = if f % 2 == 0 { Rail::Low } else { Rail::High };
                n.set_rail(g, rail);
                ps.note(PowerDelta::Rail(g));
            }
        }

        let stats: Vec<_> = nets
            .iter()
            .zip(states.iter_mut())
            .map(|(n, ps)| ps.refresh(n, &lib))
            .collect();
        prop_assert_eq!(stats[0].cone_nodes, stats[1].cone_nodes);
        prop_assert_eq!(stats[0].cone_nodes, stats[2].cone_nodes);
        prop_assert_eq!(stats[0].levels, stats[1].levels);
        prop_assert_eq!(stats[0].levels, stats[2].levels);

        let want = states[0].breakdown(&nets[0], &lib);
        for (i, ps) in states.iter().enumerate().skip(1) {
            let got = ps.breakdown(&nets[i], &lib);
            prop_assert_eq!(got.total_uw, want.total_uw, "total_uw at lane {}", i);
            prop_assert_eq!(got.switching_uw, want.switching_uw);
            prop_assert_eq!(got.converter_uw, want.converter_uw);
            for id in nets[i].node_ids() {
                prop_assert_eq!(got.node_uw(id), want.node_uw(id), "node_uw({})", id);
                prop_assert_eq!(
                    ps.activities().switching(id),
                    states[0].activities().switching(id),
                    "sw01({})", id
                );
            }
        }
    }
}
