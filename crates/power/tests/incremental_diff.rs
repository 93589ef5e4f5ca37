//! Differential property suite for the incremental power engine: random
//! networks × random journal edit streams must keep [`PowerState`]
//! value-identical — exact `f64 ==`, same summation order — to a
//! from-scratch [`simulate`] + [`estimate`] after every absorbed batch,
//! including checkpoint/rollback unwinds.
//!
//! This is the harness the incremental contract leans on: a cache
//! invalidation bug here does not crash, it silently reports wrong power,
//! so the only acceptable tolerance is zero.

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_netlist::{Checkpoint, Network, NodeId, Rail, SizeIx};
use dvs_power::{estimate, simulate, PowerDelta, PowerState};
use proptest::prelude::*;

const FCLK_MHZ: f64 = 20.0;

fn lib() -> Library {
    compass::compass_library(VoltagePair::default())
}

/// A random acyclic mapped network over real library cells (INV/NAND2),
/// mirroring the session property suite's generator.
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

/// The ground-truth oracle: every incremental field must equal the
/// from-scratch pipeline under exact `f64` comparison.
fn assert_exact(
    ps: &PowerState,
    net: &Network,
    lib: &Library,
    vectors: usize,
    seed: u64,
) -> Result<(), TestCaseError> {
    let fresh = simulate(net, lib, vectors, seed);
    let want = estimate(net, lib, &fresh, FCLK_MHZ);
    let got = ps.breakdown(net, lib);
    prop_assert_eq!(got.switching_uw, want.switching_uw, "switching_uw");
    prop_assert_eq!(got.converter_uw, want.converter_uw, "converter_uw");
    prop_assert_eq!(got.input_net_uw, want.input_net_uw, "input_net_uw");
    prop_assert_eq!(got.leakage_uw, want.leakage_uw, "leakage_uw");
    prop_assert_eq!(got.total_uw, want.total_uw, "total_uw");
    for id in net.node_ids() {
        prop_assert_eq!(got.node_uw(id), want.node_uw(id), "node_uw({})", id);
        prop_assert_eq!(
            ps.activities().switching(id),
            fresh.switching(id),
            "sw01({})",
            id
        );
        prop_assert_eq!(
            ps.activities().one_prob(id),
            fresh.one_prob(id),
            "p_one({})",
            id
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random journal edit streams, absorbed in random-sized batches,
    /// keep the incremental breakdown exactly equal to scratch
    /// re-evaluation — and a full unwind restores the pristine power
    /// bit-for-bit.
    #[test]
    fn incremental_power_matches_scratch_exactly(
        net in network_strategy(),
        ops in proptest::collection::vec((any::<u32>(), 0u8..6), 1..24),
        vectors in 50usize..200,
        sim_seed in 0u64..1000,
    ) {
        let lib = lib();
        let mut net = net;
        net.enable_journal();
        let base = net.checkpoint();
        let pristine_total = {
            let acts = simulate(&net, &lib, vectors, sim_seed);
            estimate(&net, &lib, &acts, FCLK_MHZ).total_uw
        };
        let mut ps = PowerState::new(&net, &lib, vectors, sim_seed, FCLK_MHZ);
        prop_assert!(ps.matches(vectors, sim_seed, FCLK_MHZ));
        assert_exact(&ps, &net, &lib, vectors, sim_seed)?;

        let mut converters: Vec<NodeId> = Vec::new();
        let mut inner: Option<Checkpoint> = None;

        for (seed, kind) in ops {
            let gates: Vec<NodeId> = {
                let n = &net;
                n.gate_ids().filter(|&g| !n.node(g).is_converter()).collect()
            };
            if gates.is_empty() { break; }
            let g = gates[seed as usize % gates.len()];
            match kind {
                0 => {
                    let rail = if seed % 2 == 0 { Rail::Low } else { Rail::High };
                    net.set_rail(g, rail);
                    ps.note(PowerDelta::Rail(g));
                }
                1 => {
                    let cell = lib.cell(net.node(g).cell());
                    let s = SizeIx((seed as usize % cell.sizes().len()) as u8);
                    net.set_size(g, s);
                    ps.note(PowerDelta::SetSize(g));
                }
                2 => {
                    let sinks: Vec<NodeId> = {
                        let mut s = net.fanouts(g).to_vec();
                        s.sort_unstable();
                        s.dedup();
                        s
                    };
                    if !sinks.is_empty() {
                        // the flow splices identity converters, which leave
                        // every row bit-identical; an inverting splice
                        // moves the sinks' cones, so a seed the refresh or
                        // a rollback misses shows as a wrong waveform
                        let cell = if seed & 2 == 0 {
                            lib.converter()
                        } else {
                            lib.find("INV").unwrap()
                        };
                        let conv = net
                            .insert_converter(g, &sinks, seed % 2 == 0, cell)
                            .expect("sinks are fanouts");
                        ps.note(PowerDelta::ConverterInserted { conv });
                        converters.push(conv);
                    }
                }
                3 => {
                    if let Some(conv) = converters.pop() {
                        let sinks = net.fanouts(conv).to_vec();
                        net.remove_converter(conv).expect("tracked converter");
                        ps.note(PowerDelta::ConverterRemoved { sinks });
                    }
                }
                4 => {
                    // nested transaction: open a checkpoint now, roll back
                    // to it on the next occurrence of this op kind
                    match inner.take() {
                        Some(cp) => {
                            let rewired = net.rollback_to(cp);
                            ps.note(PowerDelta::Rollback { rewired });
                            let n = net.node_count();
                            converters.retain(|&c| {
                                c.index() < n && !net.node(c).is_dead()
                            });
                        }
                        None => inner = Some(net.checkpoint()),
                    }
                }
                _ => {
                    // batch boundary: absorb everything queued so far
                    if ps.has_pending() {
                        ps.refresh(&net, &lib);
                        assert_exact(&ps, &net, &lib, vectors, sim_seed)?;
                    }
                }
            }
            // absorb eagerly half the time so both per-op and coalesced
            // multi-op batches are exercised
            if seed % 2 == 0 && ps.has_pending() {
                let stats = ps.refresh(&net, &lib);
                prop_assert!(stats.deltas > 0);
                assert_exact(&ps, &net, &lib, vectors, sim_seed)?;
            }
        }

        // drain whatever the last batch left queued
        ps.refresh(&net, &lib);
        assert_exact(&ps, &net, &lib, vectors, sim_seed)?;

        // full unwind: the incremental state must follow the rollback and
        // land exactly on the pristine power
        let rewired = net.rollback_to(base);
        ps.note(PowerDelta::Rollback { rewired });
        ps.refresh(&net, &lib);
        assert_exact(&ps, &net, &lib, vectors, sim_seed)?;
        prop_assert_eq!(ps.breakdown(&net, &lib).total_uw, pristine_total);
    }
}

/// A rollback that truncates converters deepening the network, absorbed
/// in one batch with a fresh converter that reuses a freed slot: the
/// refresh re-derives levels over the seeds' cone only (debug builds
/// check them against `Levels::of` on every refresh) and stays exact.
#[test]
fn rollback_truncation_then_slot_reuse_stays_exact() {
    let lib = lib();
    let inv = lib.find("INV").unwrap();
    let nand2 = lib.find("NAND2").unwrap();
    let mut net = Network::new("trunc");
    let a = net.add_input("a");
    let b = net.add_input("b");
    let mut spine = net.add_gate("s0", nand2, &[a, b]);
    let side = net.add_gate("side", inv, &[b]);
    for k in 1..6 {
        spine = net.add_gate(format!("s{k}"), nand2, &[spine, side]);
    }
    net.add_output("y", spine);
    net.enable_journal();
    let (vectors, seed) = (130, 4);
    let mut ps = PowerState::new(&net, &lib, vectors, seed, FCLK_MHZ);
    let cp = net.checkpoint();

    // deepen every spine gate behind `side` by one converter level
    let sinks: Vec<NodeId> = net.fanouts(side).to_vec();
    let conv = net
        .insert_converter(side, &sinks, false, lib.converter())
        .unwrap();
    ps.note(PowerDelta::ConverterInserted { conv });
    ps.refresh(&net, &lib);
    assert_exact(&ps, &net, &lib, vectors, seed).unwrap();

    let rewired = net.rollback_to(cp);
    assert!(
        net.node_count() <= conv.index(),
        "the converter slot is freed"
    );
    ps.note(PowerDelta::Rollback { rewired });
    let s0 = net.find("s0").unwrap();
    let s1 = net.find("s1").unwrap();
    let reused = net
        .insert_converter(s0, &[s1], false, lib.converter())
        .unwrap();
    assert_eq!(reused, conv, "the new converter reuses the freed slot");
    ps.note(PowerDelta::ConverterInserted { conv: reused });
    let stats = ps.refresh(&net, &lib);
    assert_eq!(stats.deltas, 2);
    assert_exact(&ps, &net, &lib, vectors, seed).unwrap();
}
