//! Property tests of the timing engine against brute-force references.

use dvs_celllib::{compass, Cell, GateFn, Library, LibraryBuilder, SizeVariant, VoltagePair};
use dvs_netlist::{Network, NodeId, Rail, SizeIx};
use dvs_sta::{k_worst_paths, load_pf, Timing};
use proptest::prelude::*;
use proptest::test_runner::TestCaseError;

fn lib() -> Library {
    compass::compass_library(VoltagePair::default())
}

/// Random mapped network over real cells; acyclic by construction.
fn network_strategy() -> impl Strategy<Value = Network> {
    (
        2usize..5,
        proptest::collection::vec((any::<u32>(), 0u8..4), 2..30),
        1usize..4,
    )
        .prop_map(|(inputs, gates, outputs)| {
            let lib = lib();
            let cells1 = [lib.find("INV").unwrap(), lib.find("BUF").unwrap()];
            let cells2 = [
                lib.find("NAND2").unwrap(),
                lib.find("NOR2").unwrap(),
                lib.find("XOR2").unwrap(),
            ];
            let mut net = Network::new("prop");
            let mut pool: Vec<NodeId> = (0..inputs)
                .map(|i| net.add_input(format!("pi{i}")))
                .collect();
            for (ix, (seed, kind)) in gates.iter().enumerate() {
                let s = *seed as usize;
                let a = pool[s % pool.len()];
                let b = pool[s / 7 % pool.len()];
                let g = if *kind == 0 || a == b {
                    net.add_gate(format!("g{ix}"), cells1[s / 3 % 2], &[a])
                } else {
                    net.add_gate(format!("g{ix}"), cells2[s / 3 % 3], &[a, b])
                };
                pool.push(g);
            }
            for o in 0..outputs {
                let d = pool[pool.len() - 1 - o % 3.min(pool.len())];
                net.add_output(format!("po{o}"), d);
            }
            net
        })
}

/// Brute-force arrival: longest path by exhaustive memo-free recursion.
fn brute_arrival(net: &Network, id: NodeId, delays: &[f64]) -> f64 {
    let base = net
        .fanins(id)
        .iter()
        .map(|&f| brute_arrival(net, f, delays))
        .fold(0.0f64, f64::max);
    base + delays[id.index()]
}

/// Asserts every per-node value and both PO aggregates of `t` equal a
/// fresh analysis at `t`'s constraint bit for bit.
fn assert_bits_match_fresh(t: &Timing, net: &Network, lib: &Library) -> Result<(), TestCaseError> {
    let fresh = Timing::analyze(net, lib, t.tspec_ns());
    for id in net.node_ids() {
        prop_assert_eq!(
            t.arrival_ns(id).to_bits(),
            fresh.arrival_ns(id).to_bits(),
            "arrival {}",
            id
        );
        prop_assert_eq!(
            t.required_ns(id).to_bits(),
            fresh.required_ns(id).to_bits(),
            "required {}",
            id
        );
        prop_assert_eq!(
            t.load_pf(id).to_bits(),
            fresh.load_pf(id).to_bits(),
            "load {}",
            id
        );
        prop_assert_eq!(
            t.delay_ns(id).to_bits(),
            fresh.delay_ns(id).to_bits(),
            "delay {}",
            id
        );
    }
    prop_assert_eq!(
        t.worst_po_slack(net).to_bits(),
        fresh.worst_po_slack(net).to_bits()
    );
    prop_assert_eq!(
        t.critical_delay_ns(net).to_bits(),
        fresh.critical_delay_ns(net).to_bits()
    );
    Ok(())
}

/// Flips `g`'s rail or steps its size (wrapping at the largest drive).
fn edit_gate(net: &mut Network, lib: &Library, g: NodeId, rail: bool) {
    if rail {
        let new = if net.node(g).rail() == Rail::High {
            Rail::Low
        } else {
            Rail::High
        };
        net.set_rail(g, new);
    } else {
        let sizes = lib.cell(net.node(g).cell()).sizes().len();
        let next = (net.node(g).size().index() + 1) % sizes;
        net.set_size(g, SizeIx(next as u8));
    }
}

/// Reverts [`edit_gate`].
fn unedit_gate(net: &mut Network, lib: &Library, g: NodeId, rail: bool) {
    if rail {
        edit_gate(net, lib, g, true);
    } else {
        let sizes = lib.cell(net.node(g).cell()).sizes().len();
        let prev = (net.node(g).size().index() + sizes - 1) % sizes;
        net.set_size(g, SizeIx(prev as u8));
    }
}

/// How a trial that is not kept is taken back.
#[derive(Clone, Copy)]
enum Undo {
    /// Revert the edit and absorb it through its own incremental update.
    Reapply,
    /// Open the trial with `trial_gate_change` and restore its log.
    Log,
}

/// One TILOS-style trial on `g`: edit it and absorb the edit
/// incrementally; unless `keep`, undo it again as `undo` says.
fn trial(
    net: &mut Network,
    lib: &Library,
    t: &mut Timing,
    g: NodeId,
    rail: bool,
    keep: bool,
    undo: Undo,
) {
    edit_gate(net, lib, g, rail);
    match undo {
        Undo::Reapply => {
            t.apply_gate_change(net, lib, g);
            if !keep {
                unedit_gate(net, lib, g, rail);
                t.apply_gate_change(net, lib, g);
            }
        }
        Undo::Log => {
            t.trial_gate_change(net, lib, g);
            if keep {
                t.keep_trial(net);
            } else {
                t.undo_trial();
                unedit_gate(net, lib, g, rail);
            }
        }
    }
}

/// Asserts every per-node value of `a` equals `b`'s bit for bit.
fn assert_same_bits(a: &Timing, b: &Timing, net: &Network) -> Result<(), TestCaseError> {
    for id in net.node_ids() {
        prop_assert_eq!(
            a.arrival_ns(id).to_bits(),
            b.arrival_ns(id).to_bits(),
            "arrival {}",
            id
        );
        prop_assert_eq!(
            a.required_ns(id).to_bits(),
            b.required_ns(id).to_bits(),
            "required {}",
            id
        );
        prop_assert_eq!(
            a.load_pf(id).to_bits(),
            b.load_pf(id).to_bits(),
            "load {}",
            id
        );
        prop_assert_eq!(
            a.delay_ns(id).to_bits(),
            b.delay_ns(id).to_bits(),
            "delay {}",
            id
        );
    }
    Ok(())
}

/// Runs `ops` `(pick, rail, keep)` as logged trials on the gates of `net`,
/// each checked against `apply_gate_change` on a clone: while the trial is
/// open its arrivals equal the direct update's, a kept trial leaves the
/// direct update's bits and an undone one the bits from before the trial.
/// Over [`cone_lib`], kept trials move values in their last bits only,
/// which both updates must carry and an undo must restore.
fn trials_match_direct_updates(
    net: &mut Network,
    lib: &Library,
    ops: &[(u32, bool, bool)],
) -> Result<(), TestCaseError> {
    let gates: Vec<NodeId> = net.gate_ids().collect();
    let mut t = Timing::analyze(net, lib, 8.0);
    for &(pick, rail, keep) in ops {
        let g = gates[pick as usize % gates.len()];
        let before = t.clone();
        edit_gate(net, lib, g, rail);
        let mut direct = t.clone();
        direct.apply_gate_change(net, lib, g);
        t.trial_gate_change(net, lib, g);
        for id in net.node_ids() {
            prop_assert_eq!(t.arrival_ns(id).to_bits(), direct.arrival_ns(id).to_bits());
            prop_assert_eq!(
                t.required_ns(id).to_bits(),
                before.required_ns(id).to_bits()
            );
        }
        prop_assert_eq!(
            t.worst_po_slack(net).to_bits(),
            direct.worst_po_slack(net).to_bits()
        );
        if keep {
            t.keep_trial(net);
            assert_same_bits(&t, &direct, net)?;
        } else {
            t.undo_trial();
            unedit_gate(net, lib, g, rail);
            assert_same_bits(&t, &before, net)?;
        }
    }
    Ok(())
}

/// A library whose first size step moves input capacitance and intrinsic
/// delay by 1e-13 only, so a step there moves loads, delays and arrivals in
/// their last bits, which exact incremental timing must still propagate;
/// the second step is a real up-sizing.
fn cone_lib() -> Library {
    let d0 = SizeVariant {
        name: "d0".into(),
        area: 1.0,
        input_cap_pf: 0.01,
        intrinsic_ns: 0.1,
        drive_res_ns_per_pf: 3.0,
        internal_cap_pf: 0.005,
        leakage_nw: 1.0,
    };
    let sizes = |scale: f64| {
        let d0 = SizeVariant {
            intrinsic_ns: 0.1 * scale,
            ..d0.clone()
        };
        let d1 = SizeVariant {
            name: "d1".into(),
            input_cap_pf: d0.input_cap_pf + 1e-13,
            intrinsic_ns: d0.intrinsic_ns + 1e-13,
            ..d0.clone()
        };
        let d2 = SizeVariant {
            name: "d2".into(),
            area: 2.0,
            input_cap_pf: 0.02,
            drive_res_ns_per_pf: 1.5,
            ..d0.clone()
        };
        vec![d0, d1, d2]
    };
    LibraryBuilder::new("cone")
        .cell(Cell::new("INV", GateFn::Inv, sizes(1.0)))
        .cell(Cell::new("NAND2", GateFn::Nand(2), sizes(1.0)))
        .cell(Cell::new("NOR2", GateFn::Nor(2), sizes(1.25)))
        .cell(Cell::new("XOR2", GateFn::Xor, sizes(1.5)))
        .converter_cell(vec![d0])
        .build()
        .unwrap()
}

/// Random network over [`cone_lib`] with the shapes incremental timing and
/// the re-anchor must handle: sinks wired twice to one driver, gates fed by
/// primary inputs alone, gates that drive nothing (neither a fanout nor a
/// primary output), and twin gates joined by one sink, whose arrivals tie.
fn cone_network_strategy() -> impl Strategy<Value = Network> {
    (
        2usize..5,
        proptest::collection::vec((any::<u32>(), 0u8..6), 4..40),
        1usize..4,
    )
        .prop_map(|(inputs, gates, outputs)| {
            let lib = cone_lib();
            let inv = lib.find("INV").unwrap();
            let cells2 = [
                lib.find("NAND2").unwrap(),
                lib.find("NOR2").unwrap(),
                lib.find("XOR2").unwrap(),
            ];
            let mut net = Network::new("cone");
            let pis: Vec<NodeId> = (0..inputs)
                .map(|i| net.add_input(format!("pi{i}")))
                .collect();
            let mut pool = pis.clone();
            for (ix, (seed, kind)) in gates.iter().enumerate() {
                let s = *seed as usize;
                let a = pool[s % pool.len()];
                let b = pool[s / 7 % pool.len()];
                let cell = cells2[s / 3 % 3];
                let name = format!("g{ix}");
                match kind {
                    0 => pool.push(net.add_gate(name, cell, &[a, a])),
                    1 => {
                        let fanins = [pis[s % pis.len()], pis[s / 5 % pis.len()]];
                        pool.push(net.add_gate(name, cell, &fanins));
                    }
                    // left out of the pool: nothing reads it
                    2 => {
                        net.add_gate(name, inv, &[a]);
                    }
                    3 => {
                        let t1 = net.add_gate(format!("{name}a"), cell, &[a, b]);
                        let t2 = net.add_gate(format!("{name}b"), cell, &[a, b]);
                        pool.push(net.add_gate(name, cells2[0], &[t1, t2]));
                    }
                    _ => pool.push(net.add_gate(name, cell, &[a, b])),
                }
            }
            for o in 0..outputs {
                let d = pool[pool.len() - 1 - o % 3.min(pool.len())];
                net.add_output(format!("po{o}"), d);
            }
            net
        })
}

/// Runs `ops` as trials on gates picked from `pool`, taking rejected ones
/// back as `undo` says and re-anchoring after each one at its constraint,
/// or at the current critical delay when it gives none, and checks every
/// re-anchor against a fresh analysis.
fn retarget_after_trials(
    net: &mut Network,
    lib: &Library,
    pool: &[NodeId],
    ops: &[(u32, bool, bool, Option<f64>)],
    undo: Undo,
) -> Result<(), TestCaseError> {
    let mut t = Timing::analyze(net, lib, 8.0);
    for &(pick, rail, keep, tspec) in ops {
        let g = pool[pick as usize % pool.len()];
        trial(net, lib, &mut t, g, rail, keep, undo);
        let tspec = tspec.unwrap_or_else(|| t.critical_delay_ns(net));
        t.retarget(tspec);
        assert_bits_match_fresh(&t, net, lib)?;
    }
    Ok(())
}

/// Trials `(pick, rail, keep, anchor)` for [`retarget_after_trials`];
/// about one in twelve re-anchors at the current critical delay.
fn ops_strategy(
    len: std::ops::Range<usize>,
) -> impl Strategy<Value = Vec<(u32, bool, bool, Option<f64>)>> {
    proptest::collection::vec(
        (any::<u32>(), any::<bool>(), any::<bool>(), 0.0f64..12.0).prop_map(
            |(pick, rail, keep, tspec)| (pick, rail, keep, (tspec >= 1.0).then_some(tspec)),
        ),
        len,
    )
}

/// Asserts every value of `t` equals a fresh analysis at `t`'s constraint
/// bit for bit on every node slot, tombstoned converters included.
fn assert_every_slot_matches_fresh(
    t: &Timing,
    net: &Network,
    lib: &Library,
) -> Result<(), TestCaseError> {
    let fresh = Timing::analyze(net, lib, t.tspec_ns());
    for ix in 0..net.node_count() {
        let id = NodeId::from_index(ix);
        let bits = |t: &Timing| {
            [
                t.arrival_ns(id).to_bits(),
                t.required_ns(id).to_bits(),
                t.load_pf(id).to_bits(),
                t.delay_ns(id).to_bits(),
            ]
        };
        prop_assert_eq!(bits(t), bits(&fresh), "node {}", id);
    }
    Ok(())
}

/// Runs `ops` `(pick, kind)` against one incrementally maintained
/// [`Timing`] and checks every slot against a fresh analysis after each
/// one. The kinds are: a gate edit through `apply_gate_change`, a kept and
/// an undone logged trial, a converter spliced over a gate's sinks (and,
/// for odd picks, its outputs), the removal of the newest converter, a
/// re-anchor (after a `rebuild` when a converter edit dropped the index)
/// and a `lower_sweep` that lowers the gates an arbitrary rule picks.
fn mixed_edits_stay_exact(
    net: &mut Network,
    lib: &Library,
    ops: &[(u32, u8)],
) -> Result<(), TestCaseError> {
    let gates: Vec<NodeId> = net.gate_ids().collect();
    prop_assume!(!gates.is_empty());
    let mut t = Timing::analyze(net, lib, 8.0);
    let mut converters: Vec<(NodeId, NodeId)> = Vec::new();
    let mut indexed = true;
    for &(pick, kind) in ops {
        let g = gates[pick as usize % gates.len()];
        let rail = pick % 3 == 0;
        match kind {
            0 => {
                edit_gate(net, lib, g, rail);
                t.apply_gate_change(net, lib, g);
            }
            1 | 2 => trial(net, lib, &mut t, g, rail, kind == 1, Undo::Log),
            3 => {
                let mut sinks = net.fanouts(g).to_vec();
                sinks.sort_unstable();
                sinks.dedup();
                let cover = pick % 2 == 1;
                if let Ok(conv) = net.insert_converter(g, &sinks, cover, lib.converter()) {
                    t.apply_converter_insertion(net, lib, conv);
                    converters.push((conv, g));
                    indexed = false;
                }
            }
            4 => {
                if let Some((conv, driver)) = converters.pop() {
                    net.remove_converter(conv).expect("a live converter");
                    t.apply_converter_removal(net, lib, conv, driver);
                    indexed = false;
                }
            }
            5 => {
                if !indexed {
                    t.rebuild(net, lib);
                    indexed = true;
                }
                t.retarget(0.5 + f64::from(pick % 97) * 0.125);
            }
            _ => {
                t.lower_sweep(net, lib, |net, _, id| {
                    net.node(id).is_gate()
                        && !net.node(id).is_converter()
                        && (id.index() as u32).wrapping_mul(pick) % 5 < 2
                });
                indexed = true;
            }
        }
        assert_every_slot_matches_fresh(&t, net, lib)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The TILOS loop's usage pattern: gate edits absorbed incrementally,
    /// some kept and some undone again (each undo through its own
    /// incremental update), then a re-anchor at a new constraint — which
    /// must equal a fresh analysis exactly.
    #[test]
    fn retarget_is_bit_identical_to_analyze(
        net in network_strategy(),
        ops in proptest::collection::vec(
            (any::<u32>(), any::<bool>(), 0u8..4, 0.05f64..12.0),
            1..16,
        ),
    ) {
        let lib = lib();
        let mut net = net;
        let gates: Vec<NodeId> = net.gate_ids().collect();
        prop_assume!(!gates.is_empty());
        let mut t = Timing::analyze(&net, &lib, 8.0);
        for (pick, rail, mode, tspec) in ops {
            let g = gates[pick as usize % gates.len()];
            // mode 0 is a rejected trial
            trial(&mut net, &lib, &mut t, g, rail, mode != 0, Undo::Reapply);
            // re-anchor after most edits; let some edits accumulate
            if mode != 3 {
                t.retarget(tspec);
                assert_bits_match_fresh(&t, &net, &lib)?;
            }
        }
        t.retarget(5.0);
        assert_bits_match_fresh(&t, &net, &lib)?;
    }

    /// Gates that drive neither a fanout nor an output anchor at the
    /// constraint alone, and their cones end at themselves.
    #[test]
    fn retarget_edits_gates_that_drive_nothing(
        net in cone_network_strategy(),
        ops in ops_strategy(1..12),
    ) {
        let lib = cone_lib();
        let mut net = net;
        let pool: Vec<NodeId> = net
            .gate_ids()
            .filter(|&g| net.fanouts(g).is_empty() && !net.drives_output(g))
            .collect();
        prop_assume!(!pool.is_empty());
        retarget_after_trials(&mut net, &lib, &pool, &ops, Undo::Reapply)?;
    }

    /// A sink wired twice to one driver lists it twice among its fanins and
    /// itself twice among the driver's fanouts.
    #[test]
    fn retarget_edits_double_wired_sinks_and_their_drivers(
        net in cone_network_strategy(),
        ops in ops_strategy(1..12),
    ) {
        let lib = cone_lib();
        let mut net = net;
        let mut pool = Vec::new();
        for g in net.gate_ids() {
            let fanins = net.fanins(g);
            if fanins.len() == 2 && fanins[0] == fanins[1] {
                pool.push(g);
                if net.node(fanins[0]).is_gate() {
                    pool.push(fanins[0]);
                }
            }
        }
        prop_assume!(!pool.is_empty());
        retarget_after_trials(&mut net, &lib, &pool, &ops, Undo::Reapply)?;
    }

    /// Kept gates whose fanins are all primary inputs seed the cone walk
    /// at the inputs' positions.
    #[test]
    fn retarget_edits_gates_fed_by_primary_inputs(
        net in cone_network_strategy(),
        ops in ops_strategy(1..12),
    ) {
        let lib = cone_lib();
        let mut net = net;
        let pool: Vec<NodeId> = net
            .gate_ids()
            .filter(|&g| net.fanins(g).iter().all(|&f| net.node(f).is_input()))
            .collect();
        prop_assume!(!pool.is_empty());
        retarget_after_trials(&mut net, &lib, &pool, &ops, Undo::Reapply)?;
    }

    /// Several kept gates, each followed by one of its fanouts so their
    /// cones overlap, re-anchored at once, some gates edited twice.
    #[test]
    fn retarget_merges_overlapping_cones_and_repeated_gates(
        net in cone_network_strategy(),
        picks in proptest::collection::vec((any::<u32>(), any::<bool>(), 0u8..3), 1..8),
        tspec in 0.5f64..12.0,
    ) {
        let lib = cone_lib();
        let mut net = net;
        let gates: Vec<NodeId> = net.gate_ids().collect();
        let mut t = Timing::analyze(&net, &lib, 8.0);
        for (pick, rail, repeat) in picks {
            let g = gates[pick as usize % gates.len()];
            trial(&mut net, &lib, &mut t, g, rail, true, Undo::Reapply);
            if let Some(&fo) = net.fanouts(g).first() {
                trial(&mut net, &lib, &mut t, fo, !rail, true, Undo::Reapply);
            }
            if repeat == 0 {
                trial(&mut net, &lib, &mut t, g, rail, true, Undo::Reapply);
            }
        }
        t.retarget(tspec);
        assert_bits_match_fresh(&t, &net, &lib)?;
    }

    /// With nothing kept, a re-anchor re-times no arrival and moves only
    /// the required times, after any number of rejected trials.
    #[test]
    fn retarget_with_nothing_changed_moves_only_the_anchor(
        net in cone_network_strategy(),
        ops in proptest::collection::vec((any::<u32>(), any::<bool>(), 0.0f64..12.0), 0..8),
    ) {
        let lib = cone_lib();
        let mut net = net;
        let gates: Vec<NodeId> = net.gate_ids().collect();
        let mut t = Timing::analyze(&net, &lib, 8.0);
        for (pick, rail, tspec) in ops {
            let g = gates[pick as usize % gates.len()];
            trial(&mut net, &lib, &mut t, g, rail, false, Undo::Reapply);
            let arrivals: Vec<u64> = net.node_ids().map(|id| t.arrival_ns(id).to_bits()).collect();
            t.retarget(tspec);
            let after: Vec<u64> = net.node_ids().map(|id| t.arrival_ns(id).to_bits()).collect();
            prop_assert_eq!(arrivals, after);
            assert_bits_match_fresh(&t, &net, &lib)?;
        }
    }

    /// Long runs of trials and re-anchors, the anchor alternating between
    /// given constraints and the current critical delay, as TILOS passes do.
    #[test]
    fn retarget_long_chains_with_varying_anchors(
        net in cone_network_strategy(),
        ops in ops_strategy(24..64),
    ) {
        let lib = cone_lib();
        let mut net = net;
        let gates: Vec<NodeId> = net.gate_ids().collect();
        retarget_after_trials(&mut net, &lib, &gates, &ops, Undo::Reapply)?;
    }

    /// A logged trial agrees with `apply_gate_change` when kept and
    /// restores every bit when undone, over the real library.
    #[test]
    fn trial_matches_apply_gate_change_and_undo_restores_every_bit(
        net in network_strategy(),
        ops in proptest::collection::vec((any::<u32>(), any::<bool>(), any::<bool>()), 1..24),
    ) {
        let mut net = net;
        prop_assume!(net.gate_count() > 0);
        trials_match_direct_updates(&mut net, &lib(), &ops)?;
    }

    /// The same over [`cone_lib`], whose kept steps move values in their
    /// last bits only.
    #[test]
    fn trial_matches_apply_gate_change_and_undo_restores_stale_bits(
        net in cone_network_strategy(),
        ops in proptest::collection::vec((any::<u32>(), any::<bool>(), any::<bool>()), 1..32),
    ) {
        let mut net = net;
        trials_match_direct_updates(&mut net, &cone_lib(), &ops)?;
    }

    /// TILOS's own pattern: rejected trials taken back through the log,
    /// each followed by a re-anchor.
    #[test]
    fn retarget_after_undone_trials_over_the_real_library(
        net in network_strategy(),
        ops in ops_strategy(8..32),
    ) {
        let mut net = net;
        let gates: Vec<NodeId> = net.gate_ids().collect();
        prop_assume!(!gates.is_empty());
        retarget_after_trials(&mut net, &lib(), &gates, &ops, Undo::Log)?;
    }

    /// The same over [`cone_lib`], with long runs of trials.
    #[test]
    fn retarget_after_undone_trials_over_stale_values(
        net in cone_network_strategy(),
        ops in ops_strategy(24..64),
    ) {
        let mut net = net;
        let gates: Vec<NodeId> = net.gate_ids().collect();
        retarget_after_trials(&mut net, &cone_lib(), &gates, &ops, Undo::Log)?;
    }

    /// Incremental timing equals a fresh analysis bit for bit after every
    /// step of a random mix of gate edits, kept and undone trials,
    /// converter insertions and removals, re-anchors and lowering sweeps,
    /// over the real library.
    #[test]
    fn exact_after_mixed_edits_over_the_real_library(
        net in network_strategy(),
        ops in proptest::collection::vec((any::<u32>(), 0u8..7), 1..40),
    ) {
        let mut net = net;
        mixed_edits_stay_exact(&mut net, &lib(), &ops)?;
    }

    /// The same over [`cone_lib`], whose size steps move values in their
    /// last bits only.
    #[test]
    fn exact_after_mixed_edits_over_the_cone_library(
        net in cone_network_strategy(),
        ops in proptest::collection::vec((any::<u32>(), 0u8..7), 1..40),
    ) {
        let mut net = net;
        mixed_edits_stay_exact(&mut net, &cone_lib(), &ops)?;
    }

    #[test]
    fn arrival_equals_longest_path(net in network_strategy()) {
        let lib = lib();
        let t = Timing::analyze(&net, &lib, 10.0);
        // collect the engine's per-node delays, then recompute arrivals
        // with plain recursion
        let delays: Vec<f64> = (0..net.node_count())
            .map(|ix| t.delay_ns(NodeId::from_index(ix)))
            .collect();
        for id in net.node_ids() {
            let want = brute_arrival(&net, id, &delays);
            prop_assert!((t.arrival_ns(id) - want).abs() < 1e-9,
                "arrival mismatch at {}: {} vs {}", id, t.arrival_ns(id), want);
        }
    }

    #[test]
    fn slack_decomposition_holds(net in network_strategy()) {
        let lib = lib();
        let t = Timing::analyze(&net, &lib, 5.0);
        for id in net.node_ids() {
            // slack = required − arrival by definition
            prop_assert!((t.slack_ns(id) - (t.required_ns(id) - t.arrival_ns(id))).abs() < 1e-12);
            // required times never exceed the constraint on PO paths
            if net.drives_output(id) {
                prop_assert!(t.required_ns(id) <= 5.0 + 1e-12);
            }
        }
    }

    #[test]
    fn loads_are_consistent_with_the_library(net in network_strategy()) {
        let lib = lib();
        let t = Timing::analyze(&net, &lib, 5.0);
        for id in net.node_ids() {
            prop_assert!((t.load_pf(id) - load_pf(&net, &lib, id)).abs() < 1e-12);
        }
    }

    #[test]
    fn incremental_matches_full_after_mixed_mutations(
        net in network_strategy(),
        muts in proptest::collection::vec((any::<u32>(), any::<bool>()), 1..10),
    ) {
        let lib = lib();
        let mut net = net;
        let mut t = Timing::analyze(&net, &lib, 8.0);
        let gates: Vec<NodeId> = net.gate_ids().collect();
        prop_assume!(!gates.is_empty());
        for (pick, rail_or_size) in muts {
            let g = gates[pick as usize % gates.len()];
            if rail_or_size {
                let new = if net.node(g).rail() == Rail::High { Rail::Low } else { Rail::High };
                net.set_rail(g, new);
            } else {
                let max = lib.cell(net.node(g).cell()).sizes().len() - 1;
                let next = (net.node(g).size().index() + 1) % (max + 1);
                net.set_size(g, SizeIx(next as u8));
            }
            t.apply_gate_change(&net, &lib, g);
        }
        let fresh = Timing::analyze(&net, &lib, 8.0);
        for id in net.node_ids() {
            prop_assert!((t.arrival_ns(id) - fresh.arrival_ns(id)).abs() < 1e-9);
            prop_assert!((t.required_ns(id) - fresh.required_ns(id)).abs() < 1e-9);
            prop_assert!((t.load_pf(id) - fresh.load_pf(id)).abs() < 1e-12);
        }
    }

    #[test]
    fn worst_path_enumeration_is_sound(net in network_strategy()) {
        let lib = lib();
        let t = Timing::analyze(&net, &lib, 10.0);
        let paths = k_worst_paths(&net, &t, 5);
        prop_assume!(!paths.is_empty());
        // sorted, worst first, and the worst equals the critical delay
        prop_assert!((paths[0].delay_ns - t.critical_delay_ns(&net)).abs() < 1e-9);
        for w in paths.windows(2) {
            prop_assert!(w[0].delay_ns >= w[1].delay_ns - 1e-9);
        }
        // each path is structurally connected and its delay adds up
        for p in &paths {
            let mut sum = 0.0;
            for pair in p.nodes.windows(2) {
                prop_assert!(net.fanouts(pair[0]).contains(&pair[1]));
            }
            for &n in &p.nodes {
                sum += t.delay_ns(n);
            }
            prop_assert!((sum - p.delay_ns).abs() < 1e-9, "delay sum mismatch");
        }
    }

    #[test]
    fn low_rail_never_speeds_anything_up(net in network_strategy()) {
        let lib = lib();
        let before = Timing::analyze(&net, &lib, 10.0);
        let mut low = net.clone();
        let gates: Vec<NodeId> = low.gate_ids().collect();
        for g in gates {
            low.set_rail(g, Rail::Low);
        }
        let after = Timing::analyze(&low, &lib, 10.0);
        for id in net.node_ids() {
            prop_assert!(after.arrival_ns(id) >= before.arrival_ns(id) - 1e-12);
        }
    }
}
