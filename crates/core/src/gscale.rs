//! `Gscale`: creating new timing slack by up-sizing a minimum-weight
//! vertex separator of the critical-path network, pushing the
//! time-critical boundary toward the primary inputs.

use dvs_celllib::Library;
use dvs_flow::{min_vertex_separator, quantize, SeparatorProblem, INF};
use dvs_netlist::{Network, NodeId, Rail, SizeIx};
use dvs_sta::Timing;
use dvs_synth::total_area;

use crate::session::{FlowCounters, FlowSession};
use crate::FlowConfig;

/// Result of [`gscale`].
#[derive(Debug, Clone)]
pub struct GscaleOutcome {
    /// All gates on the low rail when the algorithm stopped.
    pub lowered: Vec<NodeId>,
    /// Gates up-sized, in application order (unique).
    pub resized: Vec<NodeId>,
    /// Boundary-push iterations executed.
    pub iterations: usize,
    /// Total cell area before sizing.
    pub area_before: f64,
    /// Total cell area after sizing.
    pub area_after: f64,
    /// Instrumentation delta for this phase (at most one rollback — the
    /// power fallback to the CVS checkpoint — and no other full analysis).
    pub counters: FlowCounters,
}

/// Weight quantisation: 1 area-unit-per-ns = 10³ flow units.
const WEIGHT_SCALE: f64 = 1e3;

/// Safety cap on boundary pushes.
const MAX_PUSHES: usize = 5_000;

/// Runs the paper's `Gscale` algorithm.
///
/// Starts from a [`cvs`](crate::cvs()) cluster, then iterates:
///
/// 1. `get_CPN` — walk the exactly-critical fanin cone of the current
///    time-critical boundary (TCB);
/// 2. `weight_with_area_versus_time_gain` — each CPN gate is weighted by
///    `Δarea / Δdelay` of its next drive size, where `Δdelay` nets off the
///    extra input capacitance presented to its fanins (gates at maximum
///    size, or whose up-sizing does not help, get infinite weight);
/// 3. `min_weight_separator` — a Dinic min cut picks the cheapest
///    gate set whose resizing speeds *every* PI→TCB critical path;
/// 4. resize (area budget permitting, with an exact timing re-check),
///    `update_timing`, and re-run CVS to push the boundary.
///
/// Stops after `cfg.max_iter` consecutive pushes fail to move the TCB,
/// when the separator becomes infeasible, or when the area budget
/// (`cfg.max_area_increase` over the incoming area) is exhausted.
pub fn gscale(net: &mut Network, lib: &Library, tspec_ns: f64, cfg: &FlowConfig) -> GscaleOutcome {
    let owned = std::mem::replace(net, Network::new(""));
    let mut sess = FlowSession::new(owned, lib, tspec_ns);
    let out = gscale_session(&mut sess, cfg);
    *net = sess.into_network();
    out
}

/// The body of [`FlowSession::run_gscale`].
pub(crate) fn gscale_session(sess: &mut FlowSession<'_>, cfg: &FlowConfig) -> GscaleOutcome {
    cfg.assert_valid();
    let _span = dvs_obs::span("gscale");
    // one-time cache construction is session setup, not phase cost —
    // billed before the entry snapshot, mirroring how FlowSession::new
    // pays the first timing analysis
    sess.ensure_power(cfg);
    let entry = *sess.counters();
    let lib = sess.library();
    let area_before = total_area(sess.network(), lib);
    let budget = area_before * (1.0 + cfg.max_area_increase);
    let mut area = area_before;
    let entry_sizes: Vec<SizeIx> = (0..sess.network().node_count())
        .map(|ix| {
            let id = NodeId::from_index(ix);
            if sess.network().node(id).is_gate() {
                sess.network().node(id).size()
            } else {
                SizeIx(0)
            }
        })
        .collect();

    let mut tcb = sess.run_cvs(cfg.guard_ns).tcb;

    // Checkpoint the CVS phase: if the sizing campaign ends up spending
    // more switching capacitance than its unlocked demotions save
    // (possible on spine-bound circuits — the paper's pcle/i2/i3 rows,
    // where Gscale reports exactly the CVS result), roll back to it.
    let cvs_checkpoint = sess.checkpoint();
    let cvs_power = sess.measure_power(cfg);

    let mut resized: Vec<NodeId> = Vec::new();
    let mut banned = vec![false; sess.network().node_count()];
    let mut counter = 0usize;
    let mut iterations = 0usize;

    while iterations < MAX_PUSHES && !tcb.is_empty() {
        iterations += 1;
        let _iter_span = dvs_obs::span("gscale.iter");
        let cpn = critical_path_network(sess.network(), sess.timing(), &tcb, cfg.guard_ns);
        let problem = separator_problem(sess.network(), lib, sess.timing(), &cpn, &tcb, &banned);
        if let Some(p) = problem.as_ref().filter(|_| sess.capture_enabled()) {
            sess.push_captured_separator(p.clone());
        }
        let cut = match problem.as_ref().and_then(min_vertex_separator) {
            Some(sep) if !sep.nodes.is_empty() => {
                let c: Vec<NodeId> = sep.nodes.iter().map(|&ix| cpn[ix]).collect();
                // charge the max-flow work to the separator it bought,
                // named by its first (lowest-topological) gate and size —
                // stable for a given netlist, so deterministic across runs
                dvs_obs::attr_add(
                    "flow.augmenting_paths",
                    || format!("{}+{}", sess.network().node(c[0]).name(), c.len() - 1),
                    sep.paths,
                );
                c
            }
            _ => {
                dvs_obs::instant("gscale.stop", || {
                    format!("[gscale] iter {iterations}: no finite-weight separator -> stop")
                });
                break; // nothing resizable can speed the boundary up
            }
        };
        dvs_obs::instant("gscale.iteration", || {
            format!(
                "[gscale] iter {iterations}: tcb={} cpn={} cut={} \
                 area={area:.1}/{budget:.1} slack_before={:.4}",
                tcb.len(),
                cpn.len(),
                cut.len(),
                sess.timing().worst_po_slack(),
            )
        });

        // Resize the whole cut as one batch ("simultaneously resize" in
        // the paper): the separator members compensate each other's
        // fanin-loading penalties, so per-gate acceptance would wrongly
        // bounce on tight sibling paths. The exact constraint is repaired
        // afterwards by reverting offenders LIFO.
        let mut applied: Vec<(NodeId, SizeIx, f64)> = Vec::new();
        for g in cut {
            let node = sess.network().node(g);
            let cell = lib.cell(node.cell());
            let cur = node.size();
            if cur.index() + 1 >= cell.sizes().len() {
                continue;
            }
            let delta_area = cell.sizes()[cur.index() + 1].area - cell.size(cur).area;
            if area + delta_area > budget {
                continue;
            }
            sess.set_size(g, SizeIx(cur.0 + 1));
            area += delta_area;
            applied.push((g, cur, delta_area));
        }
        dvs_obs::instant("gscale.batch", || {
            format!(
                "[gscale] iter {iterations}: applied={} slack_after_batch={:.4}",
                applied.len(),
                sess.timing().worst_po_slack(),
            )
        });
        // Repair. The weight model is local, so batch members can injure
        // sibling paths: up-sizing gate `g` loads its fanin `f`, slowing
        // every zero-slack path through `f` that bypasses `g`. Two moves
        // fix a violated path: *complete* the cut by also up-sizing the
        // sibling consumer on that path (its own gain then compensates the
        // shared-fanin penalty), or *revert* the offending members and ban
        // them from later separators. Completion is tried first — it is
        // what "simultaneously resize" needs on clone-structured circuits.
        let mut applied_mask = vec![false; sess.network().node_count()];
        for &(g, _, _) in &applied {
            applied_mask[g.index()] = true;
        }
        let mut repair_rounds = 4 * applied.len() + 8;
        while !sess.timing().meets_constraint(cfg.guard_ns) && !applied.is_empty() {
            repair_rounds = repair_rounds.saturating_sub(1);
            // trace the worst violating path
            let net = sess.network();
            let timing = sess.timing();
            let (_, mut at) = net
                .primary_outputs()
                .iter()
                .min_by(|a, b| {
                    (timing.required_ns(a.1) - timing.arrival_ns(a.1))
                        .total_cmp(&(timing.required_ns(b.1) - timing.arrival_ns(b.1)))
                })
                .cloned()
                .expect("network has outputs");
            let mut path = Vec::new();
            let mut on_path = vec![false; net.node_count()];
            loop {
                path.push(at);
                on_path[at.index()] = true;
                match net
                    .fanins(at)
                    .iter()
                    .max_by(|a, b| timing.arrival_ns(**a).total_cmp(&timing.arrival_ns(**b)))
                {
                    Some(&f) => at = f,
                    None => break,
                }
            }

            // completion: a high-rail path gate sharing a fanin with an
            // applied member, still up-sizable within the budget
            let mut completed = false;
            if repair_rounds > 0 {
                for &u in &path {
                    let node = sess.network().node(u);
                    if !node.is_gate()
                        || node.rail() == Rail::Low
                        || node.is_converter()
                        || applied_mask[u.index()]
                        || banned[u.index()]
                    {
                        continue;
                    }
                    let cell = lib.cell(node.cell());
                    let cur = node.size();
                    if cur.index() + 1 >= cell.sizes().len() {
                        continue;
                    }
                    let delta_area = cell.sizes()[cur.index() + 1].area - cell.size(cur).area;
                    if area + delta_area > budget {
                        continue;
                    }
                    let shares = sess.network().fanins(u).iter().any(|&f| {
                        sess.network()
                            .fanouts(f)
                            .iter()
                            .any(|&c| applied_mask[c.index()])
                    });
                    if !shares {
                        continue;
                    }
                    sess.set_size(u, SizeIx(cur.0 + 1));
                    area += delta_area;
                    applied.push((u, cur, delta_area));
                    applied_mask[u.index()] = true;
                    completed = true;
                    break;
                }
            }
            if completed {
                continue;
            }

            // revert the members that injure this path
            let mut reverted_any = false;
            let mut keep = Vec::with_capacity(applied.len());
            for (g, old, delta_area) in applied.drain(..) {
                let injures = on_path[g.index()]
                    || sess.network().fanins(g).iter().any(|f| on_path[f.index()]);
                if injures {
                    sess.set_size(g, old);
                    area -= delta_area;
                    banned[g.index()] = true;
                    applied_mask[g.index()] = false;
                    reverted_any = true;
                } else {
                    keep.push((g, old, delta_area));
                }
            }
            applied = keep;
            if !reverted_any {
                // the violation is not caused by this batch: drop it all
                for (g, old, delta_area) in applied.drain(..) {
                    sess.set_size(g, old);
                    area -= delta_area;
                    applied_mask[g.index()] = false;
                }
            }
        }
        if applied.is_empty() {
            dvs_obs::instant("gscale.stop", || {
                format!("[gscale] iter {iterations}: batch fully reverted/blocked -> stop")
            });
            break; // budget exhausted or every resize bounced off timing
        }
        for (g, _, _) in &applied {
            if !resized.contains(g) {
                resized.push(*g);
            }
        }

        let tcb_new = sess.run_cvs(cfg.guard_ns).tcb;
        if tcb_new == tcb {
            counter += 1;
        } else {
            counter = 0;
        }
        tcb = tcb_new;
        if counter > cfg.max_iter {
            break;
        }
    }

    // Sizing cleanup: an up-size whose created slack was never spent on a
    // demotion still has that slack — take it back. Up-sizes that enabled
    // demotions fail the timing re-check and stay. This keeps the final
    // sizing count (Table 2 `Sizing #`) down to the gates that earn their
    // area, and guarantees Gscale never pays capacitance for nothing.
    // (The loop body never touches `resized` itself, so iterating the list
    // directly is safe — no defensive clone needed.)
    for &g in resized.iter().rev() {
        loop {
            let cur = sess.network().node(g).size();
            if cur.index() == 0 || cur == entry_sizes[g.index()] {
                break;
            }
            let smaller = SizeIx(cur.0 - 1);
            let cell_ref = sess.network().node(g).cell();
            if sess.timing().load_pf(g) > lib.max_load_pf(cell_ref, smaller) {
                break; // slew legality: keep the bigger drive
            }
            let cell = lib.cell(cell_ref);
            let delta_area = cell.size(cur).area - cell.sizes()[smaller.index()].area;
            sess.set_size(g, smaller);
            if sess.timing().meets_constraint(cfg.guard_ns) {
                area -= delta_area;
            } else {
                sess.set_size(g, cur);
                break;
            }
        }
    }
    resized.retain(|&g| sess.network().node(g).size() != entry_sizes[g.index()]);

    if !resized.is_empty() && sess.measure_power(cfg) > cvs_power {
        dvs_obs::instant("power.fallback", || {
            "[gscale] power fallback to the CVS snapshot".to_string()
        });
        // the sizing campaign lost: roll back to the pure CVS cluster
        sess.rollback(cvs_checkpoint);
        area = total_area(sess.network(), lib);
        resized.clear();
    }

    let lowered: Vec<NodeId> = {
        let net = sess.network();
        net.gate_ids()
            .filter(|&g| net.node(g).rail() == Rail::Low)
            .collect()
    };
    GscaleOutcome {
        lowered,
        resized,
        iterations,
        area_before,
        area_after: area,
        counters: sess.counters().since(&entry),
    }
}

/// `get_CPN`: the set of high-Vdd gates lying on exactly-critical paths
/// into the TCB — the candidates for improving the timing at the boundary.
fn critical_path_network(
    net: &Network,
    timing: &Timing,
    tcb: &[NodeId],
    guard_ns: f64,
) -> Vec<NodeId> {
    let mut in_cpn = vec![false; net.node_count()];
    let mut stack: Vec<NodeId> = Vec::new();
    for &g in tcb {
        if !in_cpn[g.index()] {
            in_cpn[g.index()] = true;
            stack.push(g);
        }
    }
    while let Some(v) = stack.pop() {
        let arr_in = timing.arrival_ns(v) - timing.delay_ns(v);
        for &f in net.fanins(v) {
            if in_cpn[f.index()] || !net.node(f).is_gate() {
                continue;
            }
            // f is on a critical path into v iff it sets v's input arrival
            if timing.arrival_ns(f) + guard_ns >= arr_in {
                in_cpn[f.index()] = true;
                stack.push(f);
            }
        }
    }
    (0..net.node_count())
        .filter(|&ix| in_cpn[ix])
        .map(NodeId::from_index)
        .collect()
}

/// Builds the weighted separator problem over the CPN. Returns `None`
/// when the CPN or either terminal set is empty.
fn separator_problem(
    net: &Network,
    lib: &Library,
    timing: &Timing,
    cpn: &[NodeId],
    tcb: &[NodeId],
    banned: &[bool],
) -> Option<SeparatorProblem> {
    if cpn.is_empty() {
        return None;
    }
    let mut index = vec![usize::MAX; net.node_count()];
    for (ix, &g) in cpn.iter().enumerate() {
        index[g.index()] = ix;
    }
    let mut edges = Vec::new();
    for (ix, &g) in cpn.iter().enumerate() {
        for &s in net.fanouts(g) {
            let six = index[s.index()];
            if six != usize::MAX {
                edges.push((ix, six));
            }
        }
    }
    let weights: Vec<u64> = cpn
        .iter()
        .map(|&g| {
            if banned[g.index()] {
                INF
            } else {
                upsizing_weight(net, lib, timing, g)
            }
        })
        .collect();
    // sources: CPN gates fed by no CPN gate; sinks: the TCB members
    let has_cpn_fanin: Vec<bool> = cpn
        .iter()
        .map(|&g| {
            net.fanins(g)
                .iter()
                .any(|&f| index[f.index()] != usize::MAX)
        })
        .collect();
    let sources: Vec<usize> = (0..cpn.len()).filter(|&i| !has_cpn_fanin[i]).collect();
    let sinks: Vec<usize> = tcb
        .iter()
        .filter_map(|&g| {
            let ix = index[g.index()];
            (ix != usize::MAX).then_some(ix)
        })
        .collect();
    if sources.is_empty() || sinks.is_empty() {
        return None;
    }
    Some(SeparatorProblem {
        n: cpn.len(),
        edges,
        weights,
        sources,
        sinks,
    })
}

/// `weight_with_area_versus_time_gain`: area penalty over net local timing
/// gain of the next drive size; [`INF`] when up-sizing is impossible or
/// pointless.
fn upsizing_weight(net: &Network, lib: &Library, timing: &Timing, g: NodeId) -> u64 {
    let node = net.node(g);
    let cell = lib.cell(node.cell());
    let cur = node.size();
    if cur.index() + 1 >= cell.sizes().len() {
        return INF;
    }
    let now = cell.size(cur);
    let next = &cell.sizes()[cur.index() + 1];
    let derate = lib.derate(node.rail());
    let load = timing.load_pf(g);
    let own_gain = derate * (now.delay_ns(load) - next.delay_ns(load));
    // the bigger input pins slow every fanin; on a critical path the worst
    // single fanin penalty eats directly into the gain
    let delta_cin = next.input_cap_pf - now.input_cap_pf;
    let fanin_penalty = net
        .fanins(g)
        .iter()
        .map(|&f| {
            let fnode = net.node(f);
            if fnode.is_gate() {
                let fsize = lib.cell(fnode.cell()).size(fnode.size());
                lib.derate(fnode.rail()) * fsize.drive_res_ns_per_pf * delta_cin
            } else {
                lib.pi_drive_res_ns_per_pf() * delta_cin
            }
        })
        .fold(0.0f64, f64::max);
    let net_gain = own_gain - fanin_penalty;
    if net_gain <= 1e-12 {
        return INF;
    }
    let delta_area = next.area - now.area;
    quantize(delta_area / net_gain, WEIGHT_SCALE).max(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cvs::cvs;
    use dvs_celllib::{compass, VoltagePair};
    use dvs_synth::prepare;

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    /// A fanout-2 ladder: every stage drives the next stage plus a side
    /// sink, so up-sizing is profitable and Gscale can push the boundary.
    fn sizable_net(lib: &Library) -> Network {
        let nand2 = lib.find("NAND2").unwrap();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("ladder");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let mut spine = net.add_gate("g0", nand2, &[a, b]);
        for k in 1..10 {
            let side = net.add_gate(format!("side{k}"), inv, &[spine]);
            let _ = side;
            spine = net.add_gate(format!("g{k}"), nand2, &[spine, b]);
        }
        // side sinks converge on a shallow collector so they are real loads
        net.add_output("y", spine);
        net
    }

    #[test]
    fn gscale_pushes_boundary_on_sizable_nets() {
        let lib = lib();
        let p = prepare(sizable_net(&lib), &lib, 1.2);
        let cfg = FlowConfig {
            sim_vectors: 128,
            ..FlowConfig::default()
        };

        // plain CVS baseline
        let mut c_net = p.network.clone();
        let mut t = Timing::analyze(&c_net, &lib, p.tspec_ns);
        let c_out = cvs(&mut c_net, &lib, &mut t, cfg.guard_ns);

        let mut g_net = p.network.clone();
        let out = gscale(&mut g_net, &lib, p.tspec_ns, &cfg);
        assert!(
            out.lowered.len() >= c_out.lowered.len(),
            "Gscale ({}) must not lower fewer gates than CVS ({})",
            out.lowered.len(),
            c_out.lowered.len()
        );
        // constraints hold and the area budget is respected
        let t = Timing::analyze(&g_net, &lib, p.tspec_ns);
        assert!(t.meets_constraint(1e-6));
        assert!(out.area_after <= out.area_before * 1.10 + 1e-9);
        let fresh_area = total_area(&g_net, &lib);
        assert!((fresh_area - out.area_after).abs() < 1e-9);
    }

    #[test]
    fn gscale_no_converters_ever() {
        let lib = lib();
        let p = prepare(sizable_net(&lib), &lib, 1.2);
        let mut net = p.network;
        let cfg = FlowConfig::default();
        let _ = gscale(&mut net, &lib, p.tspec_ns, &cfg);
        assert_eq!(net.converter_count(), 0);
        assert!(dvs_power::dc_leakage::crossings(&net).is_empty());
    }

    #[test]
    fn unsizable_chain_stops_immediately() {
        // fanout-1 inverter chain at zero slack: the separator is all-INF
        let lib = lib();
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("chain");
        let mut prev = net.add_input("a");
        for k in 0..8 {
            prev = net.add_gate(format!("g{k}"), inv, &[prev]);
        }
        net.add_output("y", prev);
        let p = prepare(net, &lib, 1.2);
        let mut g_net = p.network.clone();
        let cfg = FlowConfig::default();
        let out = gscale(&mut g_net, &lib, p.tspec_ns, &cfg);
        // A fanout-1 chain offers only razor-thin sizing gains (the
        // logical-effort cascade from the PI side). Whatever Gscale tries,
        // it must never end up worse than its own CVS phase — the
        // power-fallback guarantees it — and the area budget must hold.
        let mut c_net = p.network.clone();
        let mut t = Timing::analyze(&c_net, &lib, p.tspec_ns);
        let _ = cvs(&mut c_net, &lib, &mut t, cfg.guard_ns);
        let p_gscale = crate::report::measure_power(&g_net, &lib, &cfg);
        let p_cvs = crate::report::measure_power(&c_net, &lib, &cfg);
        assert!(p_gscale <= p_cvs + 1e-9, "gscale {p_gscale} vs cvs {p_cvs}");
        assert!(out.area_after <= out.area_before * 1.10 + 1e-9);
        assert!(out.resized.len() <= 4, "resized {:?}", out.resized);
    }

    #[test]
    fn area_budget_zero_degenerates_to_cvs() {
        let lib = lib();
        let p = prepare(sizable_net(&lib), &lib, 1.2);
        let cfg = FlowConfig {
            max_area_increase: 0.0,
            ..FlowConfig::default()
        };
        let mut g_net = p.network.clone();
        let out = gscale(&mut g_net, &lib, p.tspec_ns, &cfg);
        assert!(out.resized.is_empty());
        let mut c_net = p.network.clone();
        let mut t = Timing::analyze(&c_net, &lib, p.tspec_ns);
        let c_out = cvs(&mut c_net, &lib, &mut t, cfg.guard_ns);
        assert_eq!(out.lowered.len(), c_out.lowered.len());
    }

    #[test]
    fn hot_path_is_rebuild_and_clone_free() {
        // Acceptance bar for the session refactor: the CVS snapshot is a
        // journal checkpoint (not a clone), every resize is incremental,
        // and the only permissible full analysis inside the phase is the
        // one a power-fallback rollback pays.
        let lib = lib();
        let p = prepare(sizable_net(&lib), &lib, 1.2);
        let mut net = p.network;
        let cfg = FlowConfig {
            sim_vectors: 128,
            ..FlowConfig::default()
        };
        let out = gscale(&mut net, &lib, p.tspec_ns, &cfg);
        assert_eq!(out.counters.checkpoints, 1);
        assert!(
            out.counters.rollbacks <= 1,
            "only the power fallback rolls back"
        );
        assert_eq!(out.counters.full_analyses, out.counters.rollbacks);
        assert!(out.counters.size_edits > 0, "the ladder is sizable");
        assert_eq!(out.counters.converters_inserted, 0);
        assert!(out.counters.sta_events > 0);
        // power accounting: the CVS-baseline measurement and the fallback
        // check are both served incrementally — no full simulation inside
        // the phase
        assert_eq!(out.counters.full_power, 0);
        assert!(out.counters.power_resims >= 1);
        assert!(out.counters.full_power_avoided >= 1);
    }

    #[test]
    fn cpn_contains_only_critical_ancestors() {
        let lib = lib();
        let p = prepare(sizable_net(&lib), &lib, 1.2);
        let mut net = p.network;
        let mut timing = Timing::analyze(&net, &lib, p.tspec_ns);
        let out = cvs(&mut net, &lib, &mut timing, 1e-9);
        if out.tcb.is_empty() {
            return; // everything fit — nothing to check
        }
        let cpn = critical_path_network(&net, &timing, &out.tcb, 1e-9);
        for &g in &cpn {
            assert!(net.node(g).is_gate());
            assert_eq!(net.node(g).rail(), Rail::High);
        }
        // every TCB member is in its own CPN
        for &g in &out.tcb {
            assert!(cpn.contains(&g));
        }
    }
}
