//! Property tests of the network substrate over random DAG shapes.

use dvs_netlist::{CellRef, Network, NodeId};
use proptest::prelude::*;

/// Strategy: a random network given per-gate fanin-pick seeds; acyclic by
/// construction (fanins always come from earlier nodes).
fn network_strategy() -> impl Strategy<Value = Network> {
    (
        2usize..6,
        proptest::collection::vec((any::<u32>(), 1u8..4), 2..40),
        1usize..5,
    )
        .prop_map(|(inputs, gates, outputs)| {
            let mut net = Network::new("prop");
            let mut pool: Vec<NodeId> = (0..inputs)
                .map(|i| net.add_input(format!("pi{i}")))
                .collect();
            for (ix, (seed, arity)) in gates.iter().enumerate() {
                let arity = (*arity as usize).min(pool.len());
                let mut fanins = Vec::with_capacity(arity);
                for pin in 0..arity {
                    let pick =
                        (*seed as usize).wrapping_mul(31).wrapping_add(pin * 17) % pool.len();
                    fanins.push(pool[pick]);
                }
                fanins.dedup();
                let g = net.add_gate(format!("g{ix}"), CellRef(fanins.len() as u32), &fanins);
                pool.push(g);
            }
            for o in 0..outputs {
                let d = pool[pool.len() - 1 - o % pool.len().min(3)];
                net.add_output(format!("po{o}"), d);
            }
            net
        })
}

/// Checks the network's per-node primary-output counts, and
/// `drives_output`, against a from-scratch count over the primary outputs,
/// on every node slot.
fn check_output_counts(net: &Network) -> Result<(), TestCaseError> {
    let mut want = vec![0u32; net.node_count()];
    for (_, d) in net.primary_outputs() {
        want[d.index()] += 1;
    }
    for (ix, &w) in want.iter().enumerate() {
        let id = NodeId::from_index(ix);
        prop_assert_eq!(net.po_sink_count(id), w, "output count of {}", id);
        prop_assert_eq!(net.drives_output(id), w > 0, "drives_output of {}", id);
    }
    Ok(())
}

/// Checks a rollback's returned set against the network `before` it:
/// every reported node survives, and every surviving node whose fanin
/// list the rollback changed, or that it revived, is reported.
fn check_rewired(
    before: &Network,
    after: &Network,
    rewired: &[NodeId],
) -> Result<(), TestCaseError> {
    for &id in rewired {
        prop_assert!(
            id.index() < after.node_count() && !after.node(id).is_dead(),
            "reported node {} does not survive",
            id
        );
    }
    for id in after.node_ids() {
        let revived = before.node(id).is_dead();
        if revived || before.fanins(id) != after.fanins(id) {
            prop_assert!(
                rewired.contains(&id),
                "{} {} but is not reported",
                id,
                if revived {
                    "was revived"
                } else {
                    "was rewired"
                }
            );
        }
    }
    Ok(())
}

/// DFS reachability oracle.
fn reaches_dfs(net: &Network, from: NodeId, to: NodeId) -> bool {
    let mut seen = vec![false; net.node_count()];
    let mut stack = vec![from];
    while let Some(u) = stack.pop() {
        for &v in net.fanouts(u) {
            if v == to {
                return true;
            }
            if !seen[v.index()] {
                seen[v.index()] = true;
                stack.push(v);
            }
        }
    }
    false
}

/// A random network with multi-pin connections (fanins are not
/// deduplicated) and level converters spliced over random gates' fanouts;
/// each splice flagged `true` is removed again, leaving a tombstone.
fn spliced_network(gates: &[(u32, u8)], splices: &[(u32, bool)]) -> Network {
    let mut net = Network::new("spliced");
    let mut pool: Vec<NodeId> = (0..3).map(|i| net.add_input(format!("pi{i}"))).collect();
    for (ix, &(seed, arity)) in gates.iter().enumerate() {
        let fanins: Vec<NodeId> = (0..arity as usize)
            .map(|pin| pool[(seed as usize).wrapping_mul(31).wrapping_add(pin * 17) % pool.len()])
            .collect();
        pool.push(net.add_gate(format!("g{ix}"), CellRef(fanins.len() as u32), &fanins));
    }
    net.add_output("po", *pool.last().unwrap());
    let mut spliced = Vec::new();
    for &(pick, remove) in splices {
        let drivers: Vec<NodeId> = net
            .gate_ids()
            .filter(|&g| !net.node(g).is_converter() && !net.fanouts(g).is_empty())
            .collect();
        if drivers.is_empty() {
            break;
        }
        let driver = drivers[pick as usize % drivers.len()];
        let mut sinks = net.fanouts(driver).to_vec();
        sinks.sort_unstable();
        sinks.dedup();
        let conv = net
            .insert_converter(driver, &sinks, false, CellRef(99))
            .unwrap();
        if remove {
            spliced.push(conv);
        }
    }
    for conv in spliced {
        net.remove_converter(conv).unwrap();
    }
    net
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn topo_order_is_a_valid_linearisation(net in network_strategy()) {
        let order = net.topo_order();
        prop_assert_eq!(order.len(), net.node_ids().count());
        let mut pos = vec![usize::MAX; net.node_count()];
        for (ix, id) in order.iter().enumerate() {
            pos[id.index()] = ix;
        }
        for id in net.node_ids() {
            for &f in net.fanins(id) {
                prop_assert!(pos[f.index()] < pos[id.index()]);
            }
        }
        prop_assert!(net.validate(None).is_ok());
    }

    #[test]
    fn subset_reach_matches_dfs(
        gates in proptest::collection::vec((any::<u32>(), 1u8..4), 2..150),
        splices in proptest::collection::vec((any::<u32>(), any::<bool>()), 0..6),
        keep in any::<u64>(),
        shuffle in any::<u64>(),
    ) {
        let net = spliced_network(&gates, &splices);
        // a distinct candidate subset (dead slots included), shuffled
        let mut nodes: Vec<NodeId> = (0..net.node_count())
            .map(NodeId::from_index)
            .filter(|id| keep.rotate_left(id.index() as u32) & 3 != 0)
            .collect();
        let mut state = shuffle | 1;
        for i in (1..nodes.len()).rev() {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            nodes.swap(i, (state % (i as u64 + 1)) as usize);
        }
        let reach = dvs_netlist::SubsetReach::among(&net, &nodes);
        for (i, &u) in nodes.iter().enumerate() {
            for (j, &v) in nodes.iter().enumerate() {
                prop_assert_eq!(
                    reach.reaches(i, j),
                    reaches_dfs(&net, u, v),
                    "disagree on {} -> {}", u, v
                );
            }
            let listed: Vec<usize> = reach.reachable_from(i).collect();
            let expect: Vec<usize> =
                (0..nodes.len()).filter(|&j| reach.reaches(i, j)).collect();
            prop_assert_eq!(listed, expect);
        }
    }

    #[test]
    fn converter_insert_remove_round_trips(
        net in network_strategy(),
        pick in any::<u32>(),
        cover_outputs in any::<bool>(),
    ) {
        let mut net = net;
        // pick a gate with at least one gate fanout
        let candidates: Vec<NodeId> = net
            .gate_ids()
            .filter(|&g| !net.fanouts(g).is_empty())
            .collect();
        prop_assume!(!candidates.is_empty());
        let driver = candidates[pick as usize % candidates.len()];
        let sinks: Vec<NodeId> = {
            let mut s = net.fanouts(driver).to_vec();
            s.sort_unstable();
            s.dedup();
            s
        };
        let fanins_before: Vec<Vec<NodeId>> =
            sinks.iter().map(|&s| net.fanins(s).to_vec()).collect();
        let edges_before = net.edge_count();
        let outputs_before = net.primary_outputs().to_vec();
        let conv = net
            .insert_converter(driver, &sinks, cover_outputs, CellRef(99))
            .unwrap();
        prop_assert!(net.validate(None).is_ok());
        prop_assert_eq!(net.converter_count(), 1);
        check_output_counts(&net)?;
        net.remove_converter(conv).unwrap();
        prop_assert!(net.validate(None).is_ok());
        prop_assert_eq!(net.converter_count(), 0);
        prop_assert_eq!(net.edge_count(), edges_before);
        prop_assert_eq!(net.primary_outputs(), &outputs_before[..]);
        check_output_counts(&net)?;
        for (s, before) in sinks.iter().zip(fanins_before) {
            prop_assert_eq!(net.fanins(*s), &before[..]);
        }
    }

    #[test]
    fn journaled_edit_sequences_roll_back_exactly(
        net in network_strategy(),
        ops in proptest::collection::vec((any::<u32>(), 0u8..5), 1..24),
    ) {
        let mut net = net;
        net.enable_journal();
        let reference = net.clone();
        let cp = net.checkpoint();
        let mut converters: Vec<NodeId> = Vec::new();
        // structural edits since `cp`: a rollback over rail and size edits
        // alone must report no rewired node
        let mut structural = 0usize;
        // an inner checkpoint with the converters live and the structural
        // edit count at it, rolled back to by the next kind-4 op
        let mut inner: Option<(dvs_netlist::Checkpoint, Vec<NodeId>, usize)> = None;
        for (seed, kind) in ops {
            let gates: Vec<NodeId> = net.gate_ids().collect();
            if gates.is_empty() { break; }
            let g = gates[seed as usize % gates.len()];
            match kind {
                0 => net.set_rail(g, if seed % 2 == 0 {
                    dvs_netlist::Rail::Low
                } else {
                    dvs_netlist::Rail::High
                }),
                1 => net.set_size(g, dvs_netlist::SizeIx((seed % 3) as u8)),
                2 => {
                    // a splice that covers outputs moves some only off a
                    // gate that drives one: prefer such a gate
                    let cover = seed % 2 == 0;
                    let po_drivers: Vec<NodeId> = gates
                        .iter()
                        .copied()
                        .filter(|&d| net.drives_output(d) && !net.fanouts(d).is_empty())
                        .collect();
                    let g = if cover && !po_drivers.is_empty() {
                        po_drivers[(seed / 2) as usize % po_drivers.len()]
                    } else {
                        g
                    };
                    let sinks: Vec<NodeId> = {
                        let mut s = net.fanouts(g).to_vec();
                        s.sort_unstable();
                        s.dedup();
                        s
                    };
                    if !sinks.is_empty() && !net.node(g).is_converter() {
                        let conv = net
                            .insert_converter(g, &sinks, cover, CellRef(99))
                            .unwrap();
                        converters.push(conv);
                        structural += 1;
                    }
                }
                3 => {
                    if let Some(conv) = converters.pop() {
                        net.remove_converter(conv).unwrap();
                        structural += 1;
                    }
                }
                _ => match inner.take() {
                    Some((mid, live, at)) => {
                        let before = net.clone();
                        let rewired = net.rollback_to(mid);
                        check_rewired(&before, &net, &rewired)?;
                        if structural == at {
                            prop_assert!(rewired.is_empty(), "attribute-only rollback rewired {:?}", rewired);
                        }
                        converters = live;
                        structural = at;
                    }
                    None => inner = Some((net.checkpoint(), converters.clone(), structural)),
                },
            }
            prop_assert!(net.validate(None).is_ok());
            check_output_counts(&net)?;
        }
        let before = net.clone();
        let rewired = net.rollback_to(cp);
        check_rewired(&before, &net, &rewired)?;
        if structural == 0 {
            prop_assert!(rewired.is_empty(), "attribute-only rollback rewired {:?}", rewired);
        }
        prop_assert!(net.validate(None).is_ok());
        check_output_counts(&net)?;
        // exact restoration of every node slot, list orders included
        prop_assert_eq!(net.node_count(), reference.node_count());
        prop_assert_eq!(net.gate_count(), reference.gate_count());
        for ix in 0..net.node_count() {
            let id = NodeId::from_index(ix);
            prop_assert_eq!(net.node(id), reference.node(id));
            prop_assert_eq!(net.fanouts(id), reference.fanouts(id));
        }
        prop_assert_eq!(net.primary_outputs(), reference.primary_outputs());
        prop_assert_eq!(net.edge_count(), reference.edge_count());
    }

    #[test]
    fn levels_bound_path_lengths(net in network_strategy()) {
        let levels = dvs_netlist::Levels::of(&net);
        for id in net.node_ids() {
            for &f in net.fanins(id) {
                prop_assert!(levels.level(f) < levels.level(id));
            }
        }
        let max = net.node_ids().map(|id| levels.level(id)).max().unwrap_or(0);
        prop_assert_eq!(max, levels.depth());
    }
}
