//! The traced run: `prepare`, `run_circuit` and the sweep's per-scenario
//! loop re-enacted from the crates' public calls, with a timer around each
//! call, so wall time splits into per-layer self time.
//!
//! The re-enactments must stay step-for-step copies of the library code
//! they mirror (`dvs_synth::prepare`, `dvs_core::run_circuit`,
//! `dvs_sweep::run_scenario_obs` / `run_grid_obs` / `write_results`): the
//! traced run asserts that they produce bit-identical results, and the
//! benchmark's tests pin that on a small profile.

use std::collections::BTreeMap;
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use dvs_celllib::{compass, Library};
use dvs_core::{
    measure_power, AlgoReport, CircuitRun, CpuTimer, FlowConfig, FlowCounters, FlowSession,
};
use dvs_flow::SeparatorProblem;
use dvs_netlist::{Network, Rail};
use dvs_obs::Recorder;
use dvs_sta::Timing;
use dvs_sweep::{json, run_indexed, to_json, AlgoSummary, Grid, Scenario, ScenarioResult};
use dvs_synth::{
    electrical_correction, mcnc, recover_area, size_for_min_delay, total_area, Prepared,
};

/// Per-layer metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const PER_LAYER: [(&str, &str); 42] = [
    ("celllib.build_s", "s"),
    ("synth.generate_s", "s"),
    ("synth.ecorr_s", "s"),
    ("synth.minsize_s", "s"),
    ("synth.recover_s", "s"),
    ("synth.recover_steps", "count"),
    ("synth.minsize_ns_per_gate", "ns"),
    ("power.baseline_s", "s"),
    ("power.measure_s", "s"),
    ("power.full", "count"),
    ("power.resims", "count"),
    ("power.hit_ratio", "ratio"),
    ("core.session_open_s", "s"),
    ("core.cvs_s", "s"),
    ("core.dscale_s", "s"),
    ("core.gscale_s", "s"),
    ("core.rollback_s", "s"),
    ("core.audit_s", "s"),
    ("core.dscale_iterations", "count"),
    ("core.gscale_iterations", "count"),
    ("sta.events", "count"),
    ("sta.full_analyses", "count"),
    ("sta.events_per_edit", "ratio"),
    ("netlist.rail_edits", "count"),
    ("netlist.size_edits", "count"),
    ("netlist.converter_edits", "count"),
    ("netlist.rollbacks", "count"),
    ("flow.separator_problems", "count"),
    ("flow.separator_nodes", "count"),
    ("flow.separator_s", "s"),
    ("pool.par_tasks", "count"),
    ("pool.par_batches", "count"),
    ("pool.cpu_per_wall", "ratio"),
    ("sweep.run_grid_s", "s"),
    ("sweep.to_json_s", "s"),
    ("sweep.write_s", "s"),
    ("sweep.doc_bytes", "bytes"),
    ("obs.drain_s", "s"),
    ("obs.spans", "count"),
    ("unattributed_s", "s"),
    ("untraced_wall_s", "s"),
    ("trace_overhead_s", "s"),
];

/// Per-layer totals of traced passes.
///
/// `leaf` times come from timers around single public calls and partition
/// a pass's wall time (what they miss is `unattributed_s`); `values` are
/// counts, and times that are not part of a pass (the parent
/// `sweep.run_grid_s`, the separator replay, a `Flow` workload's prepare).
#[derive(Debug, Default)]
pub struct Ledger {
    leaf: BTreeMap<&'static str, f64>,
    values: BTreeMap<&'static str, f64>,
}

impl Ledger {
    /// Runs `f`, adding its wall seconds to the leaf time `key`.
    pub fn time<T>(&mut self, key: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        *self.leaf.entry(key).or_default() += t.elapsed().as_secs_f64();
        out
    }

    /// Adds `v` to the value `key`.
    pub fn add(&mut self, key: &'static str, v: f64) {
        *self.values.entry(key).or_default() += v;
    }

    /// Sum of the leaf times.
    pub fn leaf_total(&self) -> f64 {
        self.leaf.values().sum()
    }

    /// Folds `times` copies of `other`'s leaf times and values into this
    /// ledger's values (so they count per pass but stay out of the pass's
    /// wall-time partition).
    pub fn absorb_as_values(&mut self, other: &Ledger, times: usize) {
        for (&k, &v) in other.leaf.iter().chain(&other.values) {
            self.add(k, v * times as f64);
        }
    }

    /// Adds the session counters of one circuit.
    pub fn add_counters(&mut self, c: &FlowCounters) {
        self.add("sta.events", c.sta_events as f64);
        self.add("sta.full_analyses", c.full_analyses as f64);
        self.add("netlist.rail_edits", c.rail_edits as f64);
        self.add("netlist.size_edits", c.size_edits as f64);
        self.add(
            "netlist.converter_edits",
            (c.converters_inserted + c.converters_removed) as f64,
        );
        self.add("netlist.rollbacks", c.rollbacks as f64);
        self.add("power.full", c.full_power as f64);
        self.add("power.resims", c.power_resims as f64);
        self.add("power.hits", c.full_power_avoided as f64);
        self.add("pool.par_tasks", c.par_tasks as f64);
        self.add("pool.par_batches", c.par_batches as f64);
    }

    /// The value of `key`: a leaf time or a value, 0 when never recorded.
    pub fn get(&self, key: &str) -> f64 {
        self.leaf
            .get(key)
            .or_else(|| self.values.get(key))
            .copied()
            .unwrap_or(0.0)
    }

    /// Every per-layer metric of `passes` traced passes, as per-pass means.
    /// `traced_s` and `untraced_s` are the summed wall times of the traced
    /// and untraced passes, `cpu_s` the traced passes' process CPU time.
    pub fn metrics(
        &self,
        passes: usize,
        traced_s: f64,
        untraced_s: f64,
        cpu_s: f64,
    ) -> Vec<(&'static str, &'static str, f64)> {
        let n = passes as f64;
        let ratio = |a: f64, b: f64| if b == 0.0 { 0.0 } else { a / b };
        let edits = self.get("netlist.rail_edits")
            + self.get("netlist.size_edits")
            + self.get("netlist.converter_edits");
        let derived = |name: &str| -> f64 {
            match name {
                "synth.minsize_ns_per_gate" => {
                    ratio(self.get("synth.minsize_s") * 1e9, self.get("synth.gates"))
                }
                "power.hit_ratio" => ratio(
                    self.get("power.hits"),
                    self.get("power.hits") + self.get("power.full"),
                ),
                "sta.events_per_edit" => ratio(self.get("sta.events"), edits),
                "pool.cpu_per_wall" => ratio(cpu_s, traced_s),
                "unattributed_s" => (traced_s - self.leaf_total()) / n,
                "untraced_wall_s" => untraced_s / n,
                "trace_overhead_s" => (traced_s - untraced_s) / n,
                // the ratios above are per-pass invariant; everything else
                // is a per-pass total
                _ => self.get(name) / n,
            }
        };
        PER_LAYER
            .iter()
            .map(|&(name, unit)| (name, unit, derived(name)))
            .collect()
    }
}

/// `dvs_synth::prepare`, one timed call per step.
pub fn prepare(
    mut network: Network,
    lib: &Library,
    slack_factor: f64,
    led: &mut Ledger,
) -> Prepared {
    assert!(slack_factor >= 1.0, "slack factor must be ≥ 1");
    led.time("synth.ecorr_s", || electrical_correction(&mut network, lib));
    let tmin_ns = led.time("synth.minsize_s", || size_for_min_delay(&mut network, lib));
    let budget = slack_factor * tmin_ns;
    // the closing analysis is part of the area-recovery step
    let (steps, achieved) = led.time("synth.recover_s", || {
        let steps = recover_area(&mut network, lib, budget);
        let achieved = Timing::analyze(&network, lib, budget).critical_delay_ns(&network);
        (steps, achieved)
    });
    led.add("synth.recover_steps", steps as f64);
    led.add("synth.gates", network.gate_count() as f64);
    Prepared {
        network,
        tmin_ns,
        tspec_ns: achieved.max(tmin_ns) + 1e-9,
    }
}

/// The private `report` of `dvs_core::run_circuit`, CPU time left zero.
#[allow(clippy::too_many_arguments)]
fn report(
    net: &Network,
    lib: &Library,
    power: f64,
    org_pwr: f64,
    area_org: f64,
    converters: usize,
    resized: usize,
    sta: FlowCounters,
) -> AlgoReport {
    let logic = net.logic_gate_count();
    let low = net
        .gate_ids()
        .filter(|&g| !net.node(g).is_converter() && net.node(g).rail() == Rail::Low)
        .count();
    AlgoReport {
        power_uw: power,
        improvement_pct: (org_pwr - power) / org_pwr * 100.0,
        low_gates: low,
        low_ratio: if logic == 0 {
            0.0
        } else {
            low as f64 / logic as f64
        },
        converters,
        resized,
        area_increase: (total_area(net, lib) - area_org) / area_org,
        cpu: Duration::ZERO,
        sta,
    }
}

/// `dvs_core::run_circuit`, one timed call per session step. Gscale's
/// separator problems are captured and returned for the replay.
pub fn run_circuit(
    name: &str,
    prepared: &Prepared,
    lib: &Library,
    cfg: &FlowConfig,
    led: &mut Ledger,
) -> (CircuitRun, Vec<SeparatorProblem>) {
    cfg.assert_valid();
    let _span = dvs_obs::span_with("circuit", || name.to_string());
    let tspec = prepared.tspec_ns;
    let area_org = total_area(&prepared.network, lib);
    let org_pwr = led.time("power.baseline_s", || {
        measure_power(&prepared.network, lib, cfg)
    });
    let mut sess = led.time("core.session_open_s", || {
        FlowSession::new(prepared.network.clone(), lib, tspec)
    });
    let base = sess.checkpoint();

    let c0 = *sess.counters();
    led.time("core.cvs_s", || sess.run_cvs(cfg.guard_ns));
    let cvs_sta = sess.counters().since(&c0);
    led.time("core.audit_s", || sess.audit(false))
        .expect("CVS broke an invariant");
    let cvs_pwr = led.time("power.measure_s", || sess.measure_power(cfg));
    let cvs = report(
        sess.network(),
        lib,
        cvs_pwr,
        org_pwr,
        area_org,
        0,
        0,
        cvs_sta,
    );

    let c0 = *sess.counters();
    led.time("core.rollback_s", || sess.rollback(base));
    let d_out = led.time("core.dscale_s", || sess.run_dscale(cfg));
    let d_sta = sess.counters().since(&c0);
    led.add("core.dscale_iterations", d_out.iterations as f64);
    led.time("core.audit_s", || sess.audit(true))
        .expect("Dscale broke an invariant");
    let d_pwr = led.time("power.measure_s", || sess.measure_power(cfg));
    let dscale = report(
        sess.network(),
        lib,
        d_pwr,
        org_pwr,
        area_org,
        d_out.converters,
        0,
        d_sta,
    );

    let c0 = *sess.counters();
    led.time("core.rollback_s", || sess.rollback(base));
    sess.capture_separators(true);
    let g_out = led.time("core.gscale_s", || sess.run_gscale(cfg));
    let g_sta = sess.counters().since(&c0);
    let separators = sess.take_captured_separators();
    led.add("core.gscale_iterations", g_out.iterations as f64);
    led.time("core.audit_s", || sess.audit(false))
        .expect("Gscale broke an invariant");
    let g_pwr = led.time("power.measure_s", || sess.measure_power(cfg));
    let gscale = report(
        sess.network(),
        lib,
        g_pwr,
        org_pwr,
        area_org,
        0,
        g_out.resized.len(),
        g_sta,
    );

    led.add_counters(sess.counters());
    let run = CircuitRun {
        name: name.to_owned(),
        gates: prepared.network.logic_gate_count(),
        tspec_ns: tspec,
        org_pwr_uw: org_pwr,
        cvs,
        dscale,
        gscale,
    };
    (run, separators)
}

/// Replays captured separator problems through the production solver.
pub fn replay_separators(problems: &[SeparatorProblem], led: &mut Ledger) {
    let t = Instant::now();
    for p in problems {
        std::hint::black_box(dvs_flow::min_vertex_separator(p));
    }
    led.add("flow.separator_s", t.elapsed().as_secs_f64());
    led.add("flow.separator_problems", problems.len() as f64);
    led.add(
        "flow.separator_nodes",
        problems.iter().map(|p| p.n as f64).sum(),
    );
}

/// `dvs_sweep::run_scenario_obs`, re-enacted; also returns the prepared
/// network's digest.
fn scenario(
    sc: &Scenario,
    rec: &Recorder,
    led: &mut Ledger,
    separators: &mut Vec<SeparatorProblem>,
) -> (ScenarioResult, u64) {
    let wall = Instant::now();
    let cpu = CpuTimer::start();
    let mark = led.time("obs.drain_s", || rec.mark());
    let (run, digest) = {
        let _span = dvs_obs::span_with("scenario", || sc.id());
        let lib = led.time("celllib.build_s", || {
            compass::compass_library(sc.variant.voltages)
        });
        let net = led.time("synth.generate_s", || {
            mcnc::generate_scaled(sc.profile, &lib, sc.scale, sc.seed)
        });
        let prepared = prepare(net, &lib, sc.variant.relax, led);
        let digest = crate::expect::digest(&prepared.network);
        let (run, seps) = run_circuit(sc.profile.name, &prepared, &lib, &sc.variant.config, led);
        separators.extend(seps);
        (run, digest)
    };
    let rollup = led.time("obs.drain_s", || rec.rollup_since(&mark));
    let result = ScenarioResult {
        id: sc.id(),
        circuit: sc.profile.name.to_owned(),
        scale: sc.scale,
        variant: sc.variant.name.to_owned(),
        seed: sc.seed,
        gates: run.gates,
        tspec_ns: run.tspec_ns,
        org_pwr_uw: run.org_pwr_uw,
        cvs: AlgoSummary::from(&run.cvs),
        dscale: AlgoSummary::from(&run.dscale),
        gscale: AlgoSummary::from(&run.gscale),
        wall_s: wall.elapsed().as_secs_f64(),
        cpu_s: cpu.elapsed().as_secs_f64(),
        obs: rollup,
    };
    (result, digest)
}

/// One traced `Sweep` pass: `run_grid_obs` with a recorder, then
/// `write_results`, re-enacted. Returns each scenario's result and
/// prepared digest, plus the pass's separator problems.
pub fn sweep_pass(
    grid: &Grid,
    out: &Path,
    led: &mut Ledger,
) -> (Vec<(ScenarioResult, u64)>, Vec<SeparatorProblem>) {
    let rec = Arc::new(Recorder::new());
    dvs_obs::set_subscriber(Some(rec.clone()));
    let grid_t = Instant::now();
    let scenarios = grid.expand();
    let shared = Mutex::new((std::mem::take(led), Vec::new()));
    let results = run_indexed(&scenarios, 1, |_, sc| {
        let mut guard = shared.lock().expect("single worker never poisons");
        let (led, seps) = &mut *guard;
        scenario(sc, &rec, led, seps)
    });
    let (taken, separators) = shared.into_inner().expect("single worker never poisons");
    *led = taken;
    led.add("sweep.run_grid_s", grid_t.elapsed().as_secs_f64());
    dvs_obs::set_subscriber(None);
    let trace = led.time("obs.drain_s", || rec.drain());
    led.add("obs.spans", trace.spans.len() as f64);
    let plain: Vec<ScenarioResult> = results.iter().map(|(r, _)| r.clone()).collect();
    let doc = led.time("sweep.to_json_s", || to_json(&plain, true));
    let bytes = led.time("sweep.write_s", || {
        let mut text = doc.render();
        text.push('\n');
        json::validate(&text).expect("dvs-sweep emitted unparsable JSON");
        std::fs::write(out, &text).expect("writing the sweep document");
        text.len()
    });
    led.add("sweep.doc_bytes", bytes as f64);
    (results, separators)
}

/// A result with every clock reading zeroed, for traced-vs-untraced
/// equality.
pub fn strip_timing(r: &ScenarioResult) -> ScenarioResult {
    let mut r = r.clone();
    r.wall_s = 0.0;
    r.cpu_s = 0.0;
    for a in [&mut r.cvs, &mut r.dscale, &mut r.gscale] {
        a.cpu_s = 0.0;
    }
    r.obs.zero_timing();
    r
}

/// The deterministic part of a `CircuitRun`, for traced-vs-untraced
/// equality.
pub fn run_values(run: &CircuitRun) -> (usize, f64, f64, [AlgoSummary; 3]) {
    let algo = |a: &AlgoReport| AlgoSummary {
        cpu_s: 0.0,
        ..AlgoSummary::from(a)
    };
    (
        run.gates,
        run.tspec_ns,
        run.org_pwr_uw,
        [algo(&run.cvs), algo(&run.dscale), algo(&run.gscale)],
    )
}
