//! Behavioural tests of the three algorithms on crafted fixtures — the
//! situations the paper's prose describes, encoded as assertions.

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_core::{cvs, dscale, gscale, measure_power, time_critical_boundary, FlowConfig};
use dvs_netlist::{Network, NodeId, Rail};
use dvs_power::dc_leakage;
use dvs_sta::Timing;
use dvs_synth::prepare;

fn lib() -> Library {
    compass::compass_library(VoltagePair::default())
}

fn cfg() -> FlowConfig {
    FlowConfig {
        sim_vectors: 256,
        ..FlowConfig::default()
    }
}

/// Two independent output cones of different depth sharing inputs.
fn two_cone_net(lib: &Library) -> Network {
    let inv = lib.find("INV").unwrap();
    let nand2 = lib.find("NAND2").unwrap();
    let mut net = Network::new("cones");
    let a = net.add_input("a");
    let b = net.add_input("b");
    // deep cone (critical)
    let mut deep = net.add_gate("d0", nand2, &[a, b]);
    for k in 1..9 {
        deep = net.add_gate(format!("d{k}"), nand2, &[deep, b]);
    }
    net.add_output("deep", deep);
    // shallow cone (slack)
    let s0 = net.add_gate("s0", nand2, &[a, b]);
    let s1 = net.add_gate("s1", inv, &[s0]);
    net.add_output("shallow", s1);
    net
}

#[test]
fn cvs_takes_the_shallow_cone_and_reports_the_boundary() {
    let lib = lib();
    let mut net = two_cone_net(&lib);
    let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
    let mut t = Timing::analyze(&net, &lib, nominal * 1.001);
    let out = cvs(&mut net, &lib, &mut t, 1e-9);
    // shallow cone fully demoted
    for name in ["s0", "s1"] {
        let g = net.find(name).unwrap();
        assert_eq!(net.node(g).rail(), Rail::Low, "{name} should be low");
    }
    // deep cone stays high and its PO driver is the boundary
    let d_last = net.find("d8").unwrap();
    assert_eq!(net.node(d_last).rail(), Rail::High);
    assert!(out.tcb.contains(&d_last), "tcb = {:?}", out.tcb);
    // TCB recomputation is idempotent
    let again = time_critical_boundary(&net, &lib, &t, 1e-9);
    assert_eq!(again, out.tcb);
}

#[test]
fn cvs_cluster_is_fanout_closed() {
    let lib = lib();
    let mut net = two_cone_net(&lib);
    let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
    let mut t = Timing::analyze(&net, &lib, nominal * 1.1);
    let _ = cvs(&mut net, &lib, &mut t, 1e-9);
    for g in net.gate_ids() {
        if net.node(g).rail() == Rail::Low {
            for &s in net.fanouts(g) {
                assert_eq!(
                    net.node(s).rail(),
                    Rail::Low,
                    "low gate {} drives high gate {}",
                    net.node(g).name(),
                    net.node(s).name()
                );
            }
        }
    }
    assert!(dc_leakage::crossings(&net).is_empty());
}

#[test]
fn dscale_gross_mode_buys_converters_and_keeps_timing() {
    let lib = lib();
    let net = two_cone_net(&lib);
    let prepared = prepare(net, &lib, 1.2);
    let mut d_net = prepared.network.clone();
    let cfg = FlowConfig {
        dscale_net_weighting: false,
        ..cfg()
    };
    let out = dscale(&mut d_net, &lib, prepared.tspec_ns, &cfg);
    let t = Timing::analyze(&d_net, &lib, prepared.tspec_ns);
    assert!(t.meets_constraint(&d_net, 1e-6));
    assert!(dc_leakage::crossings(&d_net).is_empty());
    // every converter drives only high-rail sinks (stale ones are cleaned)
    for c in d_net.gate_ids().filter(|&c| d_net.node(c).is_converter()) {
        assert!(
            d_net
                .fanouts(c)
                .iter()
                .any(|&s| d_net.node(s).rail() == Rail::High),
            "stale converter survived"
        );
    }
    let _ = out;
}

#[test]
fn gscale_never_exceeds_the_area_budget_even_when_tight() {
    let lib = lib();
    let net = two_cone_net(&lib);
    let prepared = prepare(net, &lib, 1.2);
    for budget in [0.0, 0.01, 0.02, 0.10, 0.5] {
        let cfg = FlowConfig {
            max_area_increase: budget,
            ..cfg()
        };
        let mut g_net = prepared.network.clone();
        let out = gscale(&mut g_net, &lib, prepared.tspec_ns, &cfg);
        assert!(
            out.area_after <= out.area_before * (1.0 + budget) + 1e-9,
            "budget {budget}: {} -> {}",
            out.area_before,
            out.area_after
        );
    }
}

#[test]
fn gscale_improvement_is_monotone_in_area_budget() {
    let lib = lib();
    let net = two_cone_net(&lib);
    let prepared = prepare(net, &lib, 1.2);
    let org = measure_power(&prepared.network, &lib, &cfg());
    let mut last = -1.0;
    for budget in [0.0, 0.05, 0.10, 0.25] {
        let cfg = FlowConfig {
            max_area_increase: budget,
            ..cfg()
        };
        let mut g_net = prepared.network.clone();
        let _ = gscale(&mut g_net, &lib, prepared.tspec_ns, &cfg);
        let improvement = org - measure_power(&g_net, &lib, &cfg);
        // more area can never hurt: the fallback guarantees ≥ CVS, and
        // extra budget only adds options (small tolerance for simulation
        // re-measurement noise — the streams are identical, so exact)
        assert!(
            improvement >= last - 1e-9,
            "budget {budget}: {improvement} < {last}"
        );
        last = improvement;
    }
}

#[test]
fn maxiter_zero_still_terminates() {
    let lib = lib();
    let net = two_cone_net(&lib);
    let prepared = prepare(net, &lib, 1.2);
    let cfg = FlowConfig {
        max_iter: 0,
        ..cfg()
    };
    let mut g_net = prepared.network.clone();
    let out = gscale(&mut g_net, &lib, prepared.tspec_ns, &cfg);
    assert!(out.iterations < 5_000);
    assert!(Timing::analyze(&g_net, &lib, prepared.tspec_ns).meets_constraint(&g_net, 1e-6));
}

#[test]
fn tight_voltage_pair_leaves_everything_high() {
    // a 2.0 V low rail is so slow that nothing fits the budget
    let lib = compass::compass_library(VoltagePair::new(5.0, 2.0));
    let inv = lib.find("INV").unwrap();
    let mut net = Network::new("tight");
    let a = net.add_input("a");
    let mut prev = a;
    for k in 0..6 {
        prev = net.add_gate(format!("g{k}"), inv, &[prev]);
    }
    net.add_output("y", prev);
    let prepared = prepare(net, &lib, 1.2);
    let mut c_net = prepared.network.clone();
    let mut t = Timing::analyze(&c_net, &lib, prepared.tspec_ns);
    let out = cvs(&mut c_net, &lib, &mut t, 1e-9);
    // derate at 2.0 V ≈ 1.9×: a 20 % budget fits at most one gate
    assert!(out.lowered.len() <= 1, "lowered {:?}", out.lowered);
}

#[test]
fn wide_voltage_gap_saves_more_per_gate() {
    let shallow = |pair: VoltagePair| {
        let lib = compass::compass_library(pair);
        let nand2 = lib.find("NAND2").unwrap();
        let mut net = Network::new("w");
        let a = net.add_input("a");
        let b = net.add_input("b");
        let g = net.add_gate("g", nand2, &[a, b]);
        net.add_output("y", g);
        // force the single gate low and compare energy
        net.set_rail(g, Rail::Low);
        measure_power(&net, &lib, &cfg())
    };
    let mild = shallow(VoltagePair::new(5.0, 4.6));
    let deep = shallow(VoltagePair::new(5.0, 3.0));
    assert!(
        deep < mild,
        "3.0 V must burn less than 4.6 V: {deep} vs {mild}"
    );
}

/// The TCB definition from the paper, condition by condition.
#[test]
fn tcb_definition_matches_paper() {
    let lib = lib();
    let mut net = two_cone_net(&lib);
    let nominal = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
    let mut t = Timing::analyze(&net, &lib, nominal * 1.001);
    let out = cvs(&mut net, &lib, &mut t, 1e-9);
    for &g in &out.tcb {
        // condition: high rail
        assert_eq!(net.node(g).rail(), Rail::High);
        // condition 2: adjacent to the cluster or a PO tap
        let adjacent = net.drives_output(g)
            || net
                .fanouts(g)
                .iter()
                .any(|&s| net.node(s).rail() == Rail::Low);
        assert!(adjacent, "{} is not on the boundary", net.node(g).name());
    }
    // nothing in the TCB is demotable: try each one exhaustively
    for &g in &out.tcb {
        let plan = dvs_core::DemotionPlan::build(&net, &lib, &t, g).unwrap();
        assert!(
            !dvs_core::demotion_fits(&net, &t, &plan, 1e-9),
            "{} would actually fit",
            net.node(g).name()
        );
    }
    let _: Vec<NodeId> = out.lowered;
}
