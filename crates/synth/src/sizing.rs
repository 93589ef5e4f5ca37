//! Delay-oriented sizing and the paper's experimental preparation recipe.

use dvs_celllib::Library;
use dvs_netlist::{Network, NodeId, SizeIx};
use dvs_sta::{load_pf, Timing};

/// Outcome of [`prepare`]: the network the voltage-scaling algorithms
/// receive, together with its timing constraint.
#[derive(Debug, Clone)]
pub struct Prepared {
    /// The mapped, sized, area-recovered network (all gates on the high
    /// rail).
    pub network: Network,
    /// Minimum achievable delay found by [`size_for_min_delay`], ns.
    pub tmin_ns: f64,
    /// The timing constraint handed to the algorithms: the delay of the
    /// prepared circuit (≤ `slack_factor · tmin_ns`), per the paper.
    pub tspec_ns: f64,
}

/// Greedy TILOS-style minimum-delay sizing: repeatedly up-size the critical
/// gate whose change reduces the block delay the most, verified exactly
/// with incremental timing; stops at a local minimum. Returns the achieved
/// minimum delay in ns.
///
/// This stands in for the paper's `map -n1 -AFG` with zero required time
/// ("minimum delay circuit without regard to the area").
///
/// # Passes
///
/// Each pass anchors required times at the current best delay, so slack
/// measures criticality (≤ 1e-9 ns on the worst paths), and tries one
/// up-sizing step on every gate of that *zero-slack frontier*, most
/// critical first, keeping a step only when the block delay drops by more
/// than 1e-9 ns. A kept step leaves every path to a primary output more
/// than 1e-9 ns inside the pass anchor, so when every gate reaches an
/// output, a pass keeps at most one step and the number of passes is the
/// number of kept steps plus one. Gates that drive nothing are bounded by
/// the anchor alone: they and their fanin cones can stay on the frontier
/// after a kept step, or arrive on it, so such networks may keep several
/// steps in a pass (a few of `dalu` and `alu4` at scale 10 do). Gates that
/// arrive on the frontier mid-pass are tried in pass-entry slack order,
/// exactly as a scan of all gates sorted by entry slack would try them.
///
/// One [`Timing`] serves the whole call: [`Timing::analyze`] runs once,
/// each step is a [`Timing::trial_gate_change`] that re-times only the
/// arrivals downstream of the step (the keep/reject decision reads nothing
/// else), a kept step runs the backward pass of required times with
/// [`Timing::keep_trial`] and a rejected one is restored bit for bit with
/// [`Timing::undo_trial`]. Incremental timing is exact, so each new pass
/// re-anchors it with [`Timing::retarget`] alone: one backward pass of
/// required times over the network's flat topological index, bit-identical
/// to a fresh analysis at the new anchor. Besides its trials, a pass costs
/// that backward pass and two linear slack scans and sorts of the frontier
/// and of the (usually empty) late arrivals, and it makes the same trials
/// in the same order as re-analysing and sorting every gate would. Each pass
/// records its number of trials in the `synth.tilos_trials` histogram;
/// trials record no STA events.
pub fn size_for_min_delay(net: &mut Network, lib: &Library) -> f64 {
    let mut timing = Timing::analyze(net, lib, 0.0);
    let mut best = timing.critical_delay_ns(net);
    timing.retarget(best);
    // per-pass buffers, reused across passes
    let mut entry_slack = vec![0.0; net.node_count()];
    let mut order: Vec<NodeId> = Vec::new();
    loop {
        order.clear();
        let mut kept = false;
        let mut trials = 0;
        for g in net.gate_ids() {
            let slack = timing.slack_ns(g);
            entry_slack[g.index()] = slack;
            if slack <= 1e-9 && !at_max_size(net, lib, g) {
                order.push(g);
            }
        }
        // every frontier gate sorts before every other gate, so this is the
        // frontier's stretch of the entry order of all gates
        order.sort_unstable_by(|&a, &b| entry_order(&entry_slack, a, b));
        for &g in &order {
            kept |= try_upsize(net, lib, &mut timing, g, &mut best, &mut trials);
        }
        if !kept {
            dvs_obs::hist_record("synth.tilos_trials", trials);
            return best;
        }
        // After a kept step, gates off the entry frontier whose slack has
        // dropped to zero are tried in entry order. A rejected trial
        // restores timing exactly, so their slacks can be read up front; a
        // kept one moves them, so collect again from the gates after it.
        let mut last = None;
        loop {
            order.clear();
            order.extend(net.gate_ids().filter(|&g| {
                entry_slack[g.index()] > 1e-9
                    && last.is_none_or(|l| entry_order(&entry_slack, l, g).is_lt())
                    && timing.slack_ns(g) <= 1e-9
                    && !at_max_size(net, lib, g)
            }));
            order.sort_unstable_by(|&a, &b| entry_order(&entry_slack, a, b));
            let Some(k) = order
                .iter()
                .position(|&g| try_upsize(net, lib, &mut timing, g, &mut best, &mut trials))
            else {
                break;
            };
            last = Some(order[k]);
        }
        dvs_obs::hist_record("synth.tilos_trials", trials);
        timing.retarget(best);
    }
}

fn at_max_size(net: &Network, lib: &Library, g: NodeId) -> bool {
    let node = net.node(g);
    node.size().index() + 1 >= lib.cell(node.cell()).sizes().len()
}

/// The entry order of a pass: by pass-entry slack, ties by gate index —
/// the order a stable sort of [`Network::gate_ids`] by slack gives.
fn entry_order(slack: &[f64], a: NodeId, b: NodeId) -> std::cmp::Ordering {
    slack[a.index()]
        .total_cmp(&slack[b.index()])
        .then(a.cmp(&b))
}

/// One TILOS trial: if `g` can grow and still has zero slack, up-size it one
/// step (counted in `trials`) and keep the step when the block delay drops
/// below `best` by more than 1e-9 ns (updating `best`); otherwise restore
/// `g`. The decision reads only arrivals, so the step is a
/// [`Timing::trial_gate_change`]: a kept step then gets its required times
/// from [`Timing::keep_trial`], exactly as [`Timing::apply_gate_change`]
/// would give them, and [`Timing::undo_trial`] returns `timing` to its
/// exact previous values. Returns whether the step was kept.
fn try_upsize(
    net: &mut Network,
    lib: &Library,
    timing: &mut Timing,
    g: NodeId,
    best: &mut f64,
    trials: &mut u64,
) -> bool {
    if at_max_size(net, lib, g) || timing.slack_ns(g) > 1e-9 {
        return false;
    }
    *trials += 1;
    let cur = net.node(g).size();
    net.set_size(g, SizeIx(cur.0 + 1));
    timing.trial_gate_change(net, lib, g);
    let new_delay = timing.critical_delay_ns(net);
    if new_delay < *best - 1e-9 {
        timing.keep_trial(net);
        *best = new_delay;
        true
    } else {
        timing.undo_trial();
        net.set_size(g, cur);
        false
    }
}

/// Slack-driven area recovery: down-sizes gates (largest-slack first) while
/// every primary output still meets `tspec_ns`. This consumes the loosened
/// timing budget for area exactly like the paper's re-map at 120 % of the
/// minimum delay.
///
/// Each step is a [`Timing::trial_gate_change`], since the decision
/// ([`Timing::meets_constraint`]) reads only arrivals: a kept step runs the
/// backward pass with [`Timing::keep_trial`], a rejected one is restored
/// bit for bit with [`Timing::undo_trial`].
///
/// Returns the number of down-sizing steps applied.
pub fn recover_area(net: &mut Network, lib: &Library, tspec_ns: f64) -> usize {
    let mut timing = Timing::analyze(net, lib, tspec_ns);
    let mut steps = 0;
    loop {
        let mut changed = false;
        let mut gates: Vec<(NodeId, f64)> = net
            .gate_ids()
            // primary-output drivers keep their mapped drive: pad loads are
            // pinned by output slew rules, not by timing slack
            .filter(|&g| net.node(g).size().index() > 0 && !net.drives_output(g))
            .map(|g| {
                // area recovered per ns of delay given back: a real mapper
                // spends the slack where it buys the most area, which keeps
                // heavily loaded drivers (PO pads!) at their proper drive
                let node = net.node(g);
                let cell = lib.cell(node.cell());
                let cur = cell.size(node.size());
                let smaller = &cell.sizes()[node.size().index() - 1];
                let d_area = cur.area - smaller.area;
                let d_delay = (smaller.delay_ns(timing.load_pf(g))
                    - cur.delay_ns(timing.load_pf(g)))
                .max(1e-12);
                (g, d_area / d_delay)
            })
            .collect();
        gates.sort_by(|a, b| b.1.total_cmp(&a.1));
        for (g, _) in gates {
            let cur = net.node(g).size();
            if cur.index() == 0 {
                continue;
            }
            let smaller = SizeIx(cur.0 - 1);
            // slew legality: the smaller drive must still carry the load
            if timing.load_pf(g) > lib.max_load_pf(net.node(g).cell(), smaller) {
                continue;
            }
            net.set_size(g, smaller);
            timing.trial_gate_change(net, lib, g);
            if timing.meets_constraint(net, 1e-9) {
                timing.keep_trial(net);
                steps += 1;
                changed = true;
            } else {
                timing.undo_trial();
                net.set_size(g, cur);
            }
        }
        if !changed {
            return steps;
        }
    }
}

/// The paper's full preparation: minimum-delay sizing, a `slack_factor`
/// (1.2 in the paper) relaxation, area recovery against the relaxed budget,
/// and the *achieved* delay of the result as the timing constraint.
///
/// # Panics
///
/// Panics if `slack_factor < 1`.
pub fn prepare(mut network: Network, lib: &Library, slack_factor: f64) -> Prepared {
    assert!(slack_factor >= 1.0, "slack factor must be ≥ 1");
    electrical_correction(&mut network, lib);
    let tmin_ns = size_for_min_delay(&mut network, lib);
    let budget = slack_factor * tmin_ns;
    recover_area(&mut network, lib, budget);
    let achieved = Timing::analyze(&network, lib, budget).critical_delay_ns(&network);
    // The constraint is the mapped circuit's own delay (paper §4); guard
    // against floating drift so the prepared design always meets it.
    let tspec_ns = achieved.max(tmin_ns) + 1e-9;
    Prepared {
        network,
        tmin_ns,
        tspec_ns,
    }
}

/// Electrical correction: bump primary-output drivers to the smallest
/// drive that may legally carry their pad load (mappers fix output slew
/// before timing; internal nets keep whatever the mapper chose). Sink
/// input capacitances grow as sizes bump, so iterate to a fixpoint.
///
/// Only the drivers' loads are read, so each iteration takes a snapshot of
/// them with [`load_pf`] (the function and inputs a [`Timing::analyze`]
/// would use, so the same bits) before it bumps anything.
pub fn electrical_correction(net: &mut Network, lib: &Library) -> usize {
    let drivers: Vec<NodeId> = net.gate_ids().filter(|&g| net.drives_output(g)).collect();
    let mut loads = Vec::with_capacity(drivers.len());
    let mut bumped = 0;
    loop {
        loads.clear();
        loads.extend(drivers.iter().map(|&g| load_pf(net, lib, g)));
        let mut changed = false;
        for (&g, &load) in drivers.iter().zip(&loads) {
            let node = net.node(g);
            let cell = lib.cell(node.cell());
            let mut size = node.size();
            while size.index() + 1 < cell.sizes().len() && load > lib.max_load_pf(node.cell(), size)
            {
                size = SizeIx(size.0 + 1);
            }
            if size != net.node(g).size() {
                net.set_size(g, size);
                bumped += 1;
                changed = true;
            }
        }
        if !changed {
            return bumped;
        }
    }
}

/// Total cell area of the live gates of a network under `lib`.
pub fn total_area(net: &Network, lib: &Library) -> f64 {
    net.gate_ids()
        .map(|g| {
            let node = net.node(g);
            lib.cell(node.cell()).size(node.size()).area
        })
        .sum()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    /// A fanout-heavy ladder where up-sizing genuinely pays.
    fn loaded_ladder(lib: &Library) -> Network {
        let nand2 = lib.find("NAND2").unwrap();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("ladder");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut spine = net.add_gate("g0", nand2, &[a, b]);
        for k in 1..8 {
            // each spine stage also drives three side inverters → big load
            for s in 0..3 {
                let side = net.add_gate(format!("s{k}_{s}"), inv, &[spine]);
                net.add_output(format!("so{k}_{s}"), side);
            }
            spine = net.add_gate(format!("g{k}"), nand2, &[spine, b]);
        }
        net.add_output("y", spine);
        net
    }

    #[test]
    fn min_delay_sizing_reduces_delay() {
        let lib = lib();
        let mut net = loaded_ladder(&lib);
        let before = Timing::analyze(&net, &lib, 1e9).critical_delay_ns(&net);
        let tmin = size_for_min_delay(&mut net, &lib);
        assert!(tmin < before, "sizing must improve: {before} -> {tmin}");
        // some gate actually changed size
        assert!(net.gate_ids().any(|g| net.node(g).size().index() > 0));
        let check = Timing::analyze(&net, &lib, 1e9).critical_delay_ns(&net);
        assert!((check - tmin).abs() < 1e-9);
    }

    #[test]
    fn area_recovery_respects_constraint_and_shrinks_area() {
        let lib = lib();
        let mut net = loaded_ladder(&lib);
        let tmin = size_for_min_delay(&mut net, &lib);
        let area_min_delay = total_area(&net, &lib);
        let budget = 1.2 * tmin;
        let steps = recover_area(&mut net, &lib, budget);
        let t = Timing::analyze(&net, &lib, budget);
        assert!(t.meets_constraint(&net, 1e-9));
        if steps > 0 {
            assert!(total_area(&net, &lib) < area_min_delay);
        }
    }

    #[test]
    fn prepare_meets_its_own_constraint() {
        let lib = lib();
        let net = loaded_ladder(&lib);
        let p = prepare(net, &lib, 1.2);
        let t = Timing::analyze(&p.network, &lib, p.tspec_ns);
        assert!(t.meets_constraint(&p.network, 0.0));
        assert!(p.tspec_ns <= 1.2 * p.tmin_ns + 1e-6);
        assert!(p.tspec_ns >= p.tmin_ns);
    }

    #[test]
    fn chain_recovery_restores_minimum_sizes() {
        // Min-delay sizing may cascade up a fanout-1 chain (each bigger
        // stage makes the next one profitable), but the gains are tiny —
        // so the 20 % relaxation must let area recovery take every
        // interior stage back to `d0`.
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("chain");
        let mut prev = net.add_input("a");
        let mut gates = Vec::new();
        for k in 0..10 {
            prev = net.add_gate(format!("g{k}"), inv, &[prev]);
            gates.push(prev);
        }
        net.add_output("y", prev);
        let p = prepare(net, &lib, 1.2);
        for &g in &gates[..gates.len() - 1] {
            assert_eq!(
                p.network.node(g).size().index(),
                0,
                "gate {} should be recovered to d0",
                p.network.node(g).name()
            );
        }
        assert!(p.tspec_ns <= 1.2 * p.tmin_ns + 1e-6);
    }

    #[test]
    #[should_panic(expected = "slack factor")]
    fn prepare_rejects_tight_factor() {
        let lib = lib();
        let net = loaded_ladder(&lib);
        let _ = prepare(net, &lib, 0.9);
    }
}
