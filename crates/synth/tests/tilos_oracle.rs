//! Differential test of TILOS minimum-delay sizing against a per-pass
//! oracle: a verbatim copy of the straightforward loop that re-analyses
//! the whole network and sorts every gate on each pass, and that applies
//! and reverts each step with `Timing::apply_gate_change`. The production
//! `size_for_min_delay` keeps one re-anchored `Timing`, sorts only the
//! zero-slack frontier and makes each step an arrival-only trial that is
//! kept or undone; it must pick exactly the same sizes and return the same
//! delay, bit for bit, and make as many trials in every pass (it records
//! each pass's count in the `synth.tilos_trials` histogram, which the
//! sweep's observability rollups report; the oracle counts its own).

use std::collections::HashMap;
use std::sync::{Arc, Mutex, OnceLock};

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_netlist::{Network, NodeId, SizeIx};
use dvs_obs::Subscriber;
use dvs_sta::Timing;
use dvs_synth::{electrical_correction, mcnc, size_for_min_delay};
use proptest::prelude::*;

const SUBSET: [&str; 8] = ["pcle", "b9", "x2", "i1", "mux", "z4ml", "lal", "sct"];

fn lib() -> Library {
    compass::compass_library(VoltagePair::default())
}

/// The oracle: a fresh `Timing::analyze` and a sort of every gate by slack
/// on each pass. Returns the minimum delay and each pass's trial count.
fn size_for_min_delay_per_pass(net: &mut Network, lib: &Library) -> (f64, Vec<u64>) {
    let mut best = Timing::analyze(net, lib, 0.0).critical_delay_ns(net);
    let mut passes = Vec::new();
    loop {
        let mut timing = Timing::analyze(net, lib, best);
        let mut improved = false;
        let mut trials = 0;
        let mut gates: Vec<NodeId> = net.gate_ids().collect();
        gates.sort_by(|&a, &b| {
            timing
                .slack_ns(a)
                .partial_cmp(&timing.slack_ns(b))
                .expect("finite slacks")
        });
        for g in gates {
            let node = net.node(g);
            let cell = lib.cell(node.cell());
            let cur = node.size();
            if cur.index() + 1 >= cell.sizes().len() {
                continue;
            }
            if timing.slack_ns(g) > 1e-9 {
                continue;
            }
            trials += 1;
            let next = SizeIx(cur.0 + 1);
            net.set_size(g, next);
            timing.apply_gate_change(net, lib, g);
            let new_delay = timing.critical_delay_ns(net);
            if new_delay < best - 1e-9 {
                best = new_delay;
                improved = true;
            } else {
                net.set_size(g, cur);
                timing.apply_gate_change(net, lib, g);
            }
        }
        passes.push(trials);
        if !improved {
            return (best, passes);
        }
    }
}

/// Every `synth.tilos_trials` sample, per observability thread: one sizing
/// run's trial count per pass.
#[derive(Default)]
struct TrialLog(Mutex<HashMap<u32, Vec<u64>>>);

impl Subscriber for TrialLog {
    fn histogram(&self, tid: u32, name: &'static str, value: u64) {
        if name == "synth.tilos_trials" {
            let mut log = self.0.lock().unwrap();
            log.entry(tid).or_default().push(value);
        }
    }
}

/// Takes the calling thread's per-pass trial counts recorded since the
/// last call. The log is installed once for the whole test binary; each
/// test thread reads only its own entries.
fn take_trials() -> Vec<u64> {
    static LOG: OnceLock<Arc<TrialLog>> = OnceLock::new();
    let log = LOG.get_or_init(|| {
        let log = Arc::new(TrialLog::default());
        dvs_obs::set_subscriber(Some(log.clone()));
        log
    });
    let mut map = log.0.lock().unwrap();
    map.remove(&dvs_obs::current_tid()).unwrap_or_default()
}

fn sizes(net: &Network) -> Vec<u8> {
    net.gate_ids().map(|g| net.node(g).size().0).collect()
}

/// Runs both implementations on copies of `net` and compares them.
fn assert_matches_oracle(net: &Network, lib: &Library, what: &str) {
    let mut fast = net.clone();
    let mut slow = net.clone();
    take_trials();
    let t_fast = size_for_min_delay(&mut fast, lib);
    let trials_fast = take_trials();
    let (t_slow, trials_slow) = size_for_min_delay_per_pass(&mut slow, lib);
    assert_eq!(sizes(&fast), sizes(&slow), "{what}: sizes differ");
    assert_eq!(t_fast.to_bits(), t_slow.to_bits(), "{what}: tmin differs");
    assert!(trials_slow.iter().sum::<u64>() > 0, "{what}: no trial made");
    assert_eq!(trials_fast, trials_slow, "{what}: trials per pass differ");
}

/// `(inputs, gate recipes, outputs)` for [`build`].
type Recipe<'a> = (usize, &'a [(u32, u8)], usize);

/// Builds a mapped network over real cells, acyclic by construction, from
/// `(seed, kind)` gate recipes: reconvergence, high-fanout nets and gates
/// that drive nothing (whose slack the pass anchor does not bound) all
/// occur.
fn build(inputs: usize, gates: &[(u32, u8)], outputs: usize) -> Network {
    let lib = lib();
    let cells1 = [lib.find("INV").unwrap(), lib.find("BUF").unwrap()];
    let cells2 = [
        lib.find("NAND2").unwrap(),
        lib.find("NOR2").unwrap(),
        lib.find("XOR2").unwrap(),
    ];
    let mut net = Network::new("tilos");
    let mut pool: Vec<NodeId> = (0..inputs)
        .map(|i| net.add_input(format!("pi{i}")))
        .collect();
    for (ix, &(seed, kind)) in gates.iter().enumerate() {
        let s = seed as usize;
        // bias towards recent nodes so paths get deep
        let recent = pool.len().min(6);
        let a = pool[pool.len() - 1 - s % recent];
        let b = pool[s / 11 % pool.len()];
        let g = if kind == 0 || a == b {
            net.add_gate(format!("g{ix}"), cells1[s / 3 % 2], &[a])
        } else {
            net.add_gate(format!("g{ix}"), cells2[s / 3 % 3], &[a, b])
        };
        pool.push(g);
    }
    for o in 0..outputs {
        let d = pool[pool.len() - 1 - (o * 5) % pool.len().min(12)];
        net.add_output(format!("po{o}"), d);
    }
    net
}

#[test]
fn frontier_sizing_matches_the_per_pass_oracle_on_the_subset() {
    let lib = lib();
    for name in SUBSET {
        let mut net = mcnc::generate(name, &lib).unwrap();
        electrical_correction(&mut net, &lib);
        assert_matches_oracle(&net, &lib, name);
    }
}

#[test]
fn frontier_sizing_matches_the_per_pass_oracle_on_salted_profiles() {
    let lib = lib();
    for (name, salt) in [("pcle", 3), ("b9", 7), ("x2", 11), ("my_adder", 5)] {
        let profile = mcnc::find(name).unwrap();
        let mut net = mcnc::generate_scaled(profile, &lib, 2, salt);
        electrical_correction(&mut net, &lib);
        assert_matches_oracle(&net, &lib, &format!("{name}.x2/s{salt}"));
    }
}

/// Recorded random networks on which a gate off the pass-entry frontier
/// reaches zero slack after a kept step and its own step is kept too, so
/// the pass collects the late candidates again. On the second, a gate
/// outside the first late candidates then reaches zero slack; on the
/// third, a gate ahead of the kept one in entry order has zero slack after
/// it, and the pass must not go back to it.
#[rustfmt::skip]
#[test]
fn frontier_sizing_matches_the_oracle_after_a_step_kept_off_the_frontier() {
    let cases: [Recipe; 3] = [
        (5, &[
            (3731819094, 1), (1061205547, 4), (4241309740, 2), (2910829898, 2),
            (2122925064, 0), (51927571, 3), (3737458768, 2), (4284886700, 4),
            (2084090028, 3), (3067474704, 3), (98129429, 1), (4006974724, 3),
            (2490346134, 2), (1129342407, 2), (1453096036, 0), (2821270606, 2),
            (3815931995, 0), (4034579365, 2),
        ], 3),
        (2, &[
            (3711619737, 4), (1584770850, 4), (604097038, 3), (2129989246, 2),
            (4479257, 0), (1326654035, 0), (67319783, 1), (995922409, 3),
            (3597866526, 1), (52702633, 3), (2452540732, 0), (3485765771, 0),
            (3286053491, 2), (3592177956, 3), (1161707535, 3), (1425064947, 2),
            (2628187437, 2), (1262033978, 2), (968607551, 3), (2576907740, 3),
            (2773920713, 3), (3339842715, 3), (2600612247, 1), (463407479, 4),
            (3665139049, 0), (1772590042, 2), (2218754246, 4), (663205250, 2),
            (4227277341, 4), (3398355106, 0), (932366454, 0), (3670642861, 2),
            (1694884673, 4), (3893948641, 2), (255985718, 0), (784327787, 0),
            (1386723074, 2), (1529114498, 3), (2403406799, 3), (4235520213, 0),
            (1714427815, 0), (3674735116, 4), (800929483, 2), (1876461773, 1),
            (994906929, 3), (4151829322, 0), (1026913094, 0), (1018385085, 3),
            (4040438611, 1), (3509214385, 0), (481395469, 0), (1926497347, 0),
            (3649711913, 0),
        ], 4),
        (5, &[
            (2073647158, 2), (1125446538, 1), (2695799490, 1), (4123359053, 3),
            (4169078256, 0), (3482811663, 4), (1852717983, 0), (561455131, 4),
            (1592984078, 2), (2731542028, 2), (2304845317, 2), (2393764685, 1),
            (2490762436, 4), (351465094, 1), (2539600707, 3), (3759438165, 4),
            (1188251259, 1), (2092955105, 3), (1314148903, 4), (290722887, 0),
            (2052718264, 2), (3814859147, 2),
        ], 3),
    ];
    for (inputs, gates, outputs) in cases {
        assert_matches_oracle(&build(inputs, gates, outputs), &lib(), "late step");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn frontier_sizing_matches_the_per_pass_oracle_on_random_networks(
        inputs in 2usize..6,
        gates in proptest::collection::vec((any::<u32>(), 0u8..5), 4..60),
        outputs in 1usize..5,
    ) {
        assert_matches_oracle(&build(inputs, &gates, outputs), &lib(), "random network");
    }
}
