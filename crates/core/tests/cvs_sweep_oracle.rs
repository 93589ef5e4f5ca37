//! The single-sweep CVS against its reference: on the prepared network of
//! every profile at scale 1, under the paper's setup and two other sweep
//! variants, [`cvs`] must lower the same gates in the same order as the
//! one-gate-at-a-time [`oracle::incremental_cvs`], report the same
//! time-critical boundary, leave the same network and leave every timing
//! value bit-identical.

mod oracle;

use dvs_celllib::{compass, VoltagePair};
use dvs_core::{cvs, FlowConfig};
use dvs_netlist::NodeId;
use dvs_sta::Timing;
use dvs_synth::{mcnc, prepare};

/// `(variant, supply pair, relaxation)` as the sweep's `paper`,
/// `tight-clock` and `deep-low-vdd` variants set them.
fn variants() -> [(&'static str, VoltagePair, f64); 3] {
    [
        ("paper", VoltagePair::default(), 1.2),
        ("tight-clock", VoltagePair::default(), 1.05),
        ("deep-low-vdd", VoltagePair::new(5.0, 3.3), 1.2),
    ]
}

#[test]
fn sweep_matches_the_incremental_reference_on_every_profile() {
    let guard_ns = FlowConfig::default().guard_ns;
    let mut lowered_total = 0;
    for (variant, voltages, relax) in variants() {
        let lib = compass::compass_library(voltages);
        for profile in mcnc::PROFILES {
            let id = format!("{}.x1/{variant}", profile.name);
            let p = prepare(mcnc::generate_scaled(profile, &lib, 1, 0), &lib, relax);
            let entry = Timing::analyze(&p.network, &lib, p.tspec_ns);

            let (mut net, mut timing) = (p.network.clone(), entry.clone());
            let got = cvs(&mut net, &lib, &mut timing, guard_ns);
            let (mut want_net, mut want_timing) = (p.network.clone(), entry);
            let want = oracle::incremental_cvs(&mut want_net, &lib, &mut want_timing, guard_ns);

            assert_eq!(got.lowered, want.lowered, "{id}: lowered gates");
            assert_eq!(got.tcb, want.tcb, "{id}: time-critical boundary");
            lowered_total += got.lowered.len();
            for ix in 0..net.node_count() {
                let n = NodeId::from_index(ix);
                assert_eq!(net.node(n), want_net.node(n), "{id}: node {n}");
                let bits = |t: &Timing| {
                    [
                        t.arrival_ns(n).to_bits(),
                        t.required_ns(n).to_bits(),
                        t.load_pf(n).to_bits(),
                        t.delay_ns(n).to_bits(),
                    ]
                };
                assert_eq!(bits(&timing), bits(&want_timing), "{id}: timing of {n}");
            }
        }
    }
    assert!(lowered_total > 0, "no profile lowered anything");
}
