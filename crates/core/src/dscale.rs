//! `Dscale`: exploiting existing timing slack anywhere in the circuit via
//! level-converted demotions selected as a maximum-weight independent set
//! of the candidates' transitive (reachability) graph.

use dvs_celllib::Library;
use dvs_flow::{max_weight_antichain, quantize};
use dvs_netlist::{Network, NodeId, Rail, SubsetReach};
use dvs_power::Activities;

use crate::demote::{demotion_fits, DemotionPlan};
use crate::session::{FlowCounters, FlowSession};
use crate::FlowConfig;

/// Result of [`dscale`].
#[derive(Debug, Clone)]
pub struct DscaleOutcome {
    /// Gates demoted by the initial CVS phase.
    pub cvs_lowered: Vec<NodeId>,
    /// Gates demoted by the MWIS iterations (beyond CVS).
    pub lowered: Vec<NodeId>,
    /// Level converters currently in the network.
    pub converters: usize,
    /// Number of MWIS iterations executed.
    pub iterations: usize,
    /// Instrumentation delta for this phase (zero `full_analyses` — every
    /// converter splice is absorbed by incremental structural STA).
    pub counters: FlowCounters,
}

/// Weight quantisation: 1 µW of estimated gain = 10⁶ flow units.
const GAIN_SCALE: f64 = 1e6;

/// Safety cap on MWIS iterations (the algorithm terminates on its own —
/// every iteration demotes at least one gate — but a bound keeps bugs from
/// hanging the harness).
const MAX_ROUNDS: usize = 10_000;

/// Weight-greedy conflict-free selection: the ablation baseline for the
/// paper's MWIS. Picks the heaviest remaining candidate and discards
/// everything reachable from / reaching it.
fn greedy_conflict_free(edges: &[(usize, usize)], weights: &[u64]) -> Vec<usize> {
    let n = weights.len();
    let mut conflict = vec![vec![false; n]; n];
    for &(u, v) in edges {
        conflict[u][v] = true;
        conflict[v][u] = true;
    }
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by_key(|&i| std::cmp::Reverse(weights[i]));
    let mut taken: Vec<usize> = Vec::new();
    for i in order {
        if weights[i] > 0 && taken.iter().all(|&t| !conflict[i][t]) {
            taken.push(i);
        }
    }
    taken.sort_unstable();
    taken
}

/// Runs the paper's `Dscale` algorithm on a prepared network.
///
/// Phase 1 is a plain [`cvs`](crate::cvs()) pass ("exploit the timing
/// slack near the primary outputs"). Each subsequent iteration:
///
/// 1. `get_SlkSet` — static timing identifies positive-slack high gates;
/// 2. `check_timing` — a [`DemotionPlan`] per candidate verifies that the
///    alpha-power slowdown plus (where fanouts stay high) a level
///    converter fits the split required times, and that the Eq. (1) power
///    gain net of the converter tax is positive;
/// 3. `weight_with_power_gain` + `MWIS` — candidates conflict when one
///    reaches the other (their slowdowns would stack on a shared path), so
///    the selection is a maximum-weight antichain;
/// 4. demote the selected gates, splice converters over their remaining
///    high fanouts, drop converters whose sinks have all gone low, and
///    `update_timing`.
///
/// Stops when no candidate survives `check_timing`.
pub fn dscale(net: &mut Network, lib: &Library, tspec_ns: f64, cfg: &FlowConfig) -> DscaleOutcome {
    let owned = std::mem::replace(net, Network::new(""));
    let mut sess = FlowSession::new(owned, lib, tspec_ns);
    let out = dscale_session(&mut sess, cfg);
    *net = sess.into_network();
    out
}

/// Below this many gates a scoring round runs sequentially: each
/// [`dvs_pool::run_indexed`] call spawns scoped threads, and on circuits
/// this small the spawn cost exceeds the whole scan. Public so that
/// thread-count tests can check their networks clear it.
pub const PAR_MIN_GATES: usize = 128;

/// One round of `Dscale` candidate scoring: the paper's `get_SlkSet` ∩
/// `check_timing` filter plus the Eq. (1) power weighting, fanned out
/// over `jobs` intra-circuit worker threads (sequential below
/// [`PAR_MIN_GATES`] = 128 gates — the pool call and its deterministic
/// metrics still happen, only the width drops).
///
/// Per-gate evaluation ([`FlowSession::plan_demotion`] +
/// [`demotion_fits`] + the activity-weighted gain) is read-only against
/// `(network, timing, activities)`, and the pool re-merges results in
/// gate-id order, so the returned vector is **bit-identical** to a
/// sequential scan for every `jobs` value — the determinism contract the
/// `--circuit-jobs` byte-compare in CI rests on. Also returns the number
/// of gates scanned.
pub fn score_candidates(
    sess: &FlowSession<'_>,
    acts: &Activities,
    cfg: &FlowConfig,
    jobs: usize,
) -> (Vec<(NodeId, DemotionPlan, f64)>, usize) {
    let gates: Vec<NodeId> = sess.network().gate_ids().collect();
    let jobs = dvs_pool::effective_jobs(jobs, gates.len(), PAR_MIN_GATES);
    let cand = dvs_pool::run_indexed(&gates, jobs, |_, &g| {
        if sess.timing().slack_ns(g) <= cfg.guard_ns {
            return None;
        }
        let plan = sess.plan_demotion(g)?;
        if !demotion_fits(sess.network(), sess.timing(), &plan, cfg.guard_ns) {
            return None;
        }
        let per_activity = if cfg.dscale_net_weighting {
            plan.net_gain_per_activity
        } else {
            plan.gross_gain_per_activity
        };
        let gain_uw = acts.switching(g) * cfg.fclk_mhz * per_activity;
        if gain_uw <= 0.0 {
            return None;
        }
        Some((g, plan, gain_uw))
    });
    (cand.into_iter().flatten().collect(), gates.len())
}

/// The body of [`FlowSession::run_dscale`].
pub(crate) fn dscale_session(sess: &mut FlowSession<'_>, cfg: &FlowConfig) -> DscaleOutcome {
    cfg.assert_valid();
    let _span = dvs_obs::span("dscale");
    let jobs = cfg.resolved_circuit_jobs();
    // one-time cache construction is session setup, not phase cost —
    // billed before the entry snapshot, mirroring how FlowSession::new
    // pays the first timing analysis
    sess.ensure_power(cfg);
    let entry = *sess.counters();
    let cvs_out = sess.run_cvs(cfg.guard_ns);

    let mut lowered = Vec::new();
    let mut iterations = 0;
    while iterations < MAX_ROUNDS {
        let _iter_span = dvs_obs::span("dscale.iter");
        // activities drive the power weights; converters change the node
        // set each round, but the session serves activities incrementally,
        // re-simulating only the dirtied fanout cones
        let acts = sess.power_activities(cfg);

        // SlkSet ∩ check_timing → candidates with positive net gain,
        // scored on the intra-circuit worker pool; the gate-id-order
        // merge makes the vector bit-identical to a sequential scan
        let (cand, scanned) = score_candidates(sess, &acts, cfg, jobs);
        sess.note_parallel(scanned as u64, 1);
        if cand.is_empty() {
            break;
        }
        iterations += 1;

        // Transitive conflict graph over the candidates, computed over
        // their descendant cone only: closure memory scales with the
        // candidate count and time with the cone, not with the (possibly
        // 100×-scaled) network.
        let cand_nodes: Vec<NodeId> = cand.iter().map(|&(g, _, _)| g).collect();
        let reach = SubsetReach::among(sess.network(), &cand_nodes);
        let mut edges = Vec::new();
        for i in 0..cand.len() {
            for j in reach.reachable_from(i) {
                edges.push((i, j));
            }
        }
        let weights: Vec<u64> = cand
            .iter()
            .map(|(_, _, gain)| quantize(*gain, GAIN_SCALE).max(1))
            .collect();
        let picked = if cfg.dscale_greedy_selection {
            greedy_conflict_free(&edges, &weights)
        } else {
            let (_, picked) = max_weight_antichain(cand.len(), &edges, &weights);
            picked
        };
        debug_assert!(!picked.is_empty(), "positive weights imply a selection");

        // Apply the antichain: demote + splice converters. The session
        // absorbs each splice incrementally (`update_timing` without the
        // full rebuild the pre-session flow paid here every round).
        for &ix in &picked {
            let (g, ref plan, gain_uw) = cand[ix];
            // attribution currency: nanowatts, rounded — integer-exact and
            // therefore byte-identical across worker counts
            dvs_obs::attr_add(
                "dscale.power_saved_nw",
                || sess.network().node(g).name(),
                (gain_uw * 1e3).round() as u64,
            );
            sess.set_rail(g, Rail::Low);
            if !plan.high_sinks.is_empty() {
                sess.insert_converter(g, &plan.high_sinks, false)
                    .expect("plan sinks are fanouts of g");
            }
            lowered.push(g);
        }

        // Level-restoration cleanup: a converter whose sinks all went low
        // in this round is pure overhead; bypass it (verified below by the
        // constraint assertion on the incrementally maintained timing).
        // Round 1 scans every gate, so converters the caller brought along
        // are cleaned too. Afterwards no stale converter survives a round,
        // and a round changes only the picked gates' rails and fanout
        // lists (converters are never candidates), so a converter can
        // only have gone stale by feeding a picked gate.
        let stale: Vec<NodeId> = {
            let net = sess.network();
            let is_stale = |c: NodeId| {
                net.node(c).is_converter()
                    && !net.drives_output(c)
                    && !net.fanouts(c).is_empty()
                    && net.fanouts(c).iter().all(|&s| {
                        let sn = net.node(s);
                        sn.rail() == Rail::Low && !sn.is_converter()
                    })
            };
            let full_scan = || net.gate_ids().filter(|&c| is_stale(c)).collect::<Vec<_>>();
            if iterations == 1 {
                full_scan()
            } else {
                let mut near: Vec<NodeId> = picked
                    .iter()
                    .flat_map(|&ix| net.fanins(cand[ix].0).iter().copied())
                    .collect();
                near.sort_unstable();
                near.dedup();
                near.retain(|&c| is_stale(c));
                debug_assert_eq!(
                    near,
                    full_scan(),
                    "a stale converter escaped the picks' fanins"
                );
                near
            }
        };
        for c in stale {
            sess.remove_converter(c)
                .expect("stale converter is removable");
        }

        debug_assert!(
            sess.timing()
                .meets_constraint(sess.network(), cfg.guard_ns * 4.0),
            "Dscale iteration violated the constraint"
        );
    }

    DscaleOutcome {
        cvs_lowered: cvs_out.lowered,
        lowered,
        converters: sess.network().converter_count(),
        iterations,
        counters: sess.counters().since(&entry),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cvs::cvs;
    use dvs_celllib::{compass, VoltagePair};
    use dvs_power::dc_leakage;
    use dvs_sta::Timing;

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    /// A mid-circuit slack pocket CVS cannot reach: a shallow side branch
    /// feeding a critical sink.
    fn pocket_net(lib: &Library) -> (Network, NodeId) {
        let inv = lib.find("INV").unwrap();
        let nand2 = lib.find("NAND2").unwrap();
        let mut net = Network::new("pocket");
        let a = net.add_input("a");
        let b = net.add_input("b");
        // deep critical spine a → ... → out
        let mut spine = net.add_gate("s0", nand2, &[a, b]);
        for k in 1..12 {
            spine = net.add_gate(format!("s{k}"), nand2, &[spine, b]);
        }
        // shallow pocket: b → pocket → joins the spine near the output
        let pocket = net.add_gate("pocket", inv, &[b]);
        let join = net.add_gate("join", nand2, &[spine, pocket]);
        net.add_output("y", join);
        (net, pocket)
    }

    #[test]
    fn dscale_reaches_pockets_cvs_cannot() {
        let lib = lib();
        let (mut net, pocket) = pocket_net(&lib);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let tspec = nominal * 1.001; // nearly no PO slack
        let cfg = FlowConfig {
            sim_vectors: 256,
            // gross weighting (the literal pseudo-code) demotes pioneers
            // whose converter is amortised later — exactly what this
            // fixture demonstrates
            dscale_net_weighting: false,
            ..FlowConfig::default()
        };

        // CVS alone: the PO-side gates are critical, so the pocket is
        // unreachable (its fanout `join` stays high).
        let mut cvs_net = net.clone();
        let mut t = Timing::analyze(&cvs_net, &lib, tspec);
        let out = cvs(&mut cvs_net, &lib, &mut t, cfg.guard_ns);
        assert!(
            !out.lowered.contains(&pocket),
            "CVS should not reach the pocket"
        );

        // Dscale: the pocket has ~11 gate-delays of slack, enough for the
        // derating plus a converter.
        let d = dscale(&mut net, &lib, tspec, &cfg);
        assert!(
            net.node(pocket).rail() == Rail::Low,
            "Dscale must demote the pocket (lowered: {:?})",
            d.lowered
        );
        assert!(d.converters >= 1, "a converter restores the crossing");
        // no unrestored crossings, timing met
        assert!(dc_leakage::crossings(&net).is_empty());
        let t = Timing::analyze(&net, &lib, tspec);
        assert!(t.meets_constraint(&net, 1e-6));
    }

    #[test]
    fn dscale_never_worse_than_cvs_alone() {
        let lib = lib();
        let (net, _) = pocket_net(&lib);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let tspec = nominal * 1.05;
        let cfg = FlowConfig {
            sim_vectors: 512,
            ..FlowConfig::default()
        };
        let mut d_net = net.clone();
        let _ = dscale(&mut d_net, &lib, tspec, &cfg);

        let mut c_net = net.clone();
        let mut t = Timing::analyze(&c_net, &lib, tspec);
        let _ = cvs(&mut c_net, &lib, &mut t, cfg.guard_ns);

        let p_d = crate::report::measure_power(&d_net, &lib, &cfg);
        let p_c = crate::report::measure_power(&c_net, &lib, &cfg);
        assert!(
            p_d <= p_c + 1e-9,
            "Dscale ({p_d} µW) must not lose to CVS ({p_c} µW)"
        );
    }

    #[test]
    fn zero_slack_network_unchanged() {
        let lib = lib();
        let (mut net, _) = pocket_net(&lib);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let cfg = FlowConfig {
            sim_vectors: 128,
            ..FlowConfig::default()
        };
        let d = dscale(&mut net, &lib, nominal, &cfg);
        // the pocket branch still has slack relative to the spine, so a
        // few demotions may happen; but nothing on the spine may move and
        // timing must hold exactly
        let t = Timing::analyze(&net, &lib, nominal);
        assert!(t.meets_constraint(&net, 1e-6));
        let _ = d;
    }

    #[test]
    fn hot_path_is_rebuild_and_clone_free() {
        // The acceptance bar for the session refactor: the Dscale loop
        // absorbs every structural edit incrementally. `full_analyses` at
        // zero over the phase delta proves neither a rebuild nor a rollback
        // (the only clone-equivalent) happened on the hot path.
        let lib = lib();
        let (mut net, _) = pocket_net(&lib);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let cfg = FlowConfig {
            sim_vectors: 256,
            dscale_net_weighting: false,
            ..FlowConfig::default()
        };
        let d = dscale(&mut net, &lib, nominal * 1.001, &cfg);
        assert_eq!(d.counters.full_analyses, 0);
        assert_eq!(d.counters.rollbacks, 0);
        assert!(d.counters.converters_inserted >= 1);
        assert_eq!(
            d.counters.rail_edits as usize,
            d.cvs_lowered.len() + d.lowered.len()
        );
        assert!(d.counters.sta_events > 0);
        // power accounting mirrors timing: zero full-network simulations
        // inside the phase, every round served by the incremental engine
        assert_eq!(d.counters.full_power, 0);
        assert_eq!(d.counters.power_resims as usize, d.iterations);
        assert_eq!(d.counters.full_power_avoided as usize, d.iterations + 1);
        assert!(
            d.counters.power_resims >= 1,
            "the pocket demotion dirtied a cone"
        );
    }

    #[test]
    fn session_power_pins_to_scratch_across_phases() {
        // The incremental engine is the session's only power path: through
        // the whole `run_circuit` protocol (CVS, rollback, Dscale,
        // rollback, Gscale) it must equal a from-scratch simulate +
        // estimate of the same network, to the bit.
        let lib = lib();
        let profile = dvs_synth::mcnc::find("x2").expect("x2 is a paper profile");
        let net = dvs_synth::mcnc::generate_scaled(profile, &lib, 1, 0);
        let p = dvs_synth::prepare(net, &lib, 1.2);
        let cfg = FlowConfig {
            sim_vectors: 512,
            ..FlowConfig::default()
        };
        let scratch =
            |sess: &FlowSession<'_>| crate::report::measure_power(sess.network(), &lib, &cfg);
        let mut sess = FlowSession::new(p.network, &lib, p.tspec_ns);
        let base = sess.checkpoint();

        let _ = sess.run_cvs(cfg.guard_ns);
        let want = scratch(&sess);
        assert_eq!(sess.measure_power(&cfg), want, "after CVS");

        sess.rollback(base);
        let _ = sess.run_dscale(&cfg);
        let want = scratch(&sess);
        assert_eq!(sess.measure_power(&cfg), want, "after Dscale");

        sess.rollback(base);
        let _ = sess.run_gscale(&cfg);
        let want = scratch(&sess);
        assert_eq!(sess.measure_power(&cfg), want, "after Gscale");

        // the cache was built once; every later query was incremental
        assert_eq!(sess.counters().full_power, 1);
        assert!(sess.counters().power_resims >= 2);
    }

    #[test]
    fn selected_sets_are_antichains() {
        // structural guarantee: no demoted pair within one round shares a
        // path — verified post-hoc over the final assignment using the
        // audit helper (per-round checks live inside dscale as
        // debug_asserts)
        let lib = lib();
        let (mut net, _) = pocket_net(&lib);
        let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let cfg = FlowConfig {
            sim_vectors: 128,
            ..FlowConfig::default()
        };
        let _ = dscale(&mut net, &lib, nominal * 1.2, &cfg);
        assert!(crate::audit::audit(&net, &lib, nominal * 1.2, true).is_ok());
    }
}
