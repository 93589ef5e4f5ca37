//! One fact, three records: per scenario, the STA events summed over the
//! three phases' `sta` objects must equal both the `sta.events_per_change`
//! histogram sum and the `sta.events` attribution sum, and the
//! `session.edits` attribution sum must equal the phases' edit counters.
//!
//! Every STA update records all three (a gate edit or converter splice one
//! sample of its events, a CVS sweep one sample of its node re-timings),
//! and nothing outside the three phases records STA work, so the records
//! can only drift apart if an update path forgets one of them.
//!
//! Kept in its own test binary: it installs the process-global
//! subscriber, and a concurrent test uninstalling it would truncate a
//! scenario's records.

use std::sync::Arc;

use dvs_core::{FlowConfig, FlowCounters};
use dvs_obs::Recorder;
use dvs_sweep::{run_grid_obs, ConfigVariant, Grid};
use dvs_synth::mcnc::find;

fn edits(c: &FlowCounters) -> u64 {
    c.rail_edits + c.size_edits + c.converters_inserted + c.converters_removed
}

#[test]
fn sta_event_and_edit_records_agree_per_scenario() {
    let cheap = |v: ConfigVariant| ConfigVariant {
        config: FlowConfig {
            sim_vectors: 128,
            ..v.config
        },
        ..v
    };
    let grid = Grid {
        profiles: ["x2", "pcle", "C1355", "alu2"]
            .into_iter()
            .map(|name| find(name).unwrap())
            .collect(),
        scales: vec![1, 2],
        variants: vec![
            cheap(ConfigVariant::paper()),
            cheap(ConfigVariant::named("deep-low-vdd").unwrap()),
        ],
        seeds: vec![0],
    };
    let rec = Arc::new(Recorder::new());
    dvs_obs::set_subscriber(Some(rec.clone()));
    let results = run_grid_obs(&grid, 1, Some(&rec), |_| {});
    dvs_obs::set_subscriber(None);

    for r in &results {
        let phases = [&r.cvs.sta, &r.dscale.sta, &r.gscale.sta];
        let sta_events: u64 = phases.iter().map(|c| c.sta_events).sum();
        let hist = r
            .obs
            .hists
            .iter()
            .find(|h| h.name == "sta.events_per_change")
            .unwrap_or_else(|| panic!("{}: no sta.events_per_change", r.id));
        let attr_sum = |domain: &str| {
            r.obs
                .attrs
                .iter()
                .find(|d| d.domain == domain)
                .unwrap_or_else(|| panic!("{}: no {domain} attribution", r.id))
                .sum
        };
        assert!(sta_events > 0, "{}", r.id);
        assert_eq!(hist.sum, sta_events, "{}: histogram vs sta objects", r.id);
        assert_eq!(
            attr_sum("sta.events"),
            sta_events,
            "{}: attribution vs sta objects",
            r.id
        );
        assert_eq!(
            attr_sum("session.edits"),
            phases.iter().map(|c| edits(c)).sum::<u64>(),
            "{}: session.edits vs edit counters",
            r.id
        );
    }
}
