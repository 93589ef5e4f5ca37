//! Postconditions of the preparation pipeline over the benchmark suite
//! (small/medium circuits, so the unoptimised test profile stays fast).

use dvs_celllib::{compass, VoltagePair};
use dvs_netlist::Rail;
use dvs_sta::Timing;
use dvs_synth::{
    electrical_correction, mcnc, prepare, recover_area, size_for_min_delay, total_area,
};

const SUBSET: [&str; 8] = ["pcle", "b9", "x2", "i1", "mux", "z4ml", "lal", "sct"];

#[test]
fn prepared_circuits_meet_their_own_constraint() {
    let lib = compass::compass_library(VoltagePair::default());
    for name in SUBSET {
        let net = mcnc::generate(name, &lib).unwrap();
        let p = prepare(net, &lib, 1.2);
        let t = Timing::analyze(&p.network, &lib, p.tspec_ns);
        assert!(t.meets_constraint(&p.network, 0.0), "{name}");
        assert!(
            p.tspec_ns <= 1.2 * p.tmin_ns + 1e-6,
            "{name}: tspec {} vs 1.2*tmin {}",
            p.tspec_ns,
            1.2 * p.tmin_ns
        );
        assert!(p.tspec_ns >= p.tmin_ns, "{name}");
        // everything starts on the high rail
        for g in p.network.gate_ids() {
            assert_eq!(p.network.node(g).rail(), Rail::High, "{name}");
        }
        assert_eq!(p.network.converter_count(), 0, "{name}");
    }
}

#[test]
fn min_delay_sizing_never_hurts() {
    let lib = compass::compass_library(VoltagePair::default());
    for name in SUBSET {
        let mut net = mcnc::generate(name, &lib).unwrap();
        let before = Timing::analyze(&net, &lib, 0.0).critical_delay_ns(&net);
        let tmin = size_for_min_delay(&mut net, &lib);
        assert!(tmin <= before + 1e-9, "{name}: {before} -> {tmin}");
    }
}

#[test]
fn recovery_shrinks_area_without_violating() {
    let lib = compass::compass_library(VoltagePair::default());
    for name in SUBSET {
        let mut net = mcnc::generate(name, &lib).unwrap();
        let tmin = size_for_min_delay(&mut net, &lib);
        let sized_area = total_area(&net, &lib);
        let budget = 1.2 * tmin;
        let steps = recover_area(&mut net, &lib, budget);
        let after = total_area(&net, &lib);
        assert!(after <= sized_area + 1e-9, "{name}");
        if steps > 0 {
            assert!(
                after < sized_area,
                "{name}: steps reported but no area saved"
            );
        }
        assert!(
            Timing::analyze(&net, &lib, budget).meets_constraint(&net, 1e-9),
            "{name}"
        );
    }
}

#[test]
fn recovery_respects_slew_legality() {
    let lib = compass::compass_library(VoltagePair::default());
    for name in SUBSET {
        let net = mcnc::generate(name, &lib).unwrap();
        let p = prepare(net, &lib, 1.2);
        let t = Timing::analyze(&p.network, &lib, p.tspec_ns);
        for g in p.network.gate_ids() {
            let node = p.network.node(g);
            // no gate may be left carrying more than its legal load unless
            // it is already at the largest size
            let at_max = node.size().index() + 1 >= lib.cell(node.cell()).sizes().len();
            if !at_max && p.network.drives_output(g) {
                // PO drivers went through electrical correction
                assert!(
                    t.load_pf(g) <= lib.max_load_pf(node.cell(), node.size()) + 1e-12,
                    "{name}: PO driver {} overloaded",
                    node.name()
                );
            }
        }
    }
}

#[test]
fn electrical_correction_is_idempotent() {
    let lib = compass::compass_library(VoltagePair::default());
    for name in ["b9", "mux", "i3"] {
        let mut net = mcnc::generate(name, &lib).unwrap();
        let first = electrical_correction(&mut net, &lib);
        let second = electrical_correction(&mut net, &lib);
        assert_eq!(
            second, 0,
            "{name}: second pass bumped {second} (first {first})"
        );
    }
}

#[test]
fn preparation_is_deterministic() {
    let lib = compass::compass_library(VoltagePair::default());
    let a = prepare(mcnc::generate("term1", &lib).unwrap(), &lib, 1.2);
    let b = prepare(mcnc::generate("term1", &lib).unwrap(), &lib, 1.2);
    assert_eq!(a.tmin_ns, b.tmin_ns);
    assert_eq!(a.tspec_ns, b.tspec_ns);
    let sa: Vec<_> = a
        .network
        .gate_ids()
        .map(|g| a.network.node(g).size())
        .collect();
    let sb: Vec<_> = b
        .network
        .gate_ids()
        .map(|g| b.network.node(g).size())
        .collect();
    assert_eq!(sa, sb);
}

#[test]
fn profiles_cover_all_styles() {
    use dvs_synth::mcnc::Style;
    let mut seen = [false; 6];
    for p in mcnc::PROFILES {
        let ix = match p.style {
            Style::ParityLattice => 0,
            Style::CarryChain => 1,
            Style::ReductionCone { .. } => 2,
            Style::MuxTree => 3,
            Style::SpineCloud => 4,
            Style::Random { .. } => 5,
        };
        seen[ix] = true;
    }
    assert!(seen.iter().all(|&s| s), "styles unused: {seen:?}");
}
