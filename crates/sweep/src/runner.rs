//! Scenario execution and result serialization.

use std::time::Instant;

use dvs_celllib::compass;
use dvs_core::{run_circuit, AlgoReport, CircuitRun, CpuTimer, FlowCounters};
use dvs_obs::{HistRollup, Recorder, Rollup};
use dvs_synth::{mcnc, prepare};

use crate::grid::{Grid, Scenario};
use crate::json::Json;
use dvs_pool as pool;

/// The schema tag written into (and expected from) sweep JSON documents.
/// `v2` added the per-algorithm `sta` counter objects; `v3` added the
/// per-scenario `obs` rollup (span self-times, counters, gauges and
/// log₂-bucket histograms from the `dvs-obs` registry); `v4` added the
/// per-scenario `attr` block (per-domain site attribution: totals, top-K
/// sites and concentration — see the crate docs for the field table);
/// `v5` added the incremental-power fields to each `sta` object
/// (`full_power`, `power_resims`, `full_power_avoided`); `v6` added the
/// intra-circuit parallelism fields `par_tasks`/`par_batches` to each
/// `sta` object and the deterministic `pool.*` families to the `obs`
/// rollup; `v7` dropped `hot_rebuilds`/`rebuilds_avoided` from `sta` and
/// the `session.*` counter mirror from `obs`.
pub const SCHEMA: &str = "dvs-sweep/v7";

/// Flat per-algorithm numbers of one scenario (one `Table 1` + `Table 2`
/// cell group).
#[derive(Debug, Clone, PartialEq)]
pub struct AlgoSummary {
    /// Power after the algorithm, µW.
    pub power_uw: f64,
    /// Improvement over the scenario's original power, %.
    pub improvement_pct: f64,
    /// Low-rail logic gates.
    pub low_gates: usize,
    /// `low_gates / logic_gates`.
    pub low_ratio: f64,
    /// Level converters inserted (Dscale only).
    pub converters: usize,
    /// Gates resized (Gscale only).
    pub resized: usize,
    /// Fractional area increase.
    pub area_increase: f64,
    /// Per-thread CPU seconds of the algorithm run.
    pub cpu_s: f64,
    /// `FlowSession` instrumentation scoped to this algorithm's phase
    /// (STA worklist events, edits, full analyses, rollbacks).
    pub sta: FlowCounters,
}

impl From<&AlgoReport> for AlgoSummary {
    fn from(r: &AlgoReport) -> Self {
        AlgoSummary {
            power_uw: r.power_uw,
            improvement_pct: r.improvement_pct,
            low_gates: r.low_gates,
            low_ratio: r.low_ratio,
            converters: r.converters,
            resized: r.resized,
            area_increase: r.area_increase,
            cpu_s: r.cpu.as_secs_f64(),
            sta: r.sta,
        }
    }
}

/// Everything measured for one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioResult {
    /// Scenario id, e.g. `des.x10/paper/s0`.
    pub id: String,
    /// Profile name.
    pub circuit: String,
    /// Scale factor.
    pub scale: usize,
    /// Variant name.
    pub variant: String,
    /// Generator seed salt.
    pub seed: u64,
    /// Logic gates of the prepared network.
    pub gates: usize,
    /// Timing constraint, ns.
    pub tspec_ns: f64,
    /// Power of the prepared single-Vdd network, µW.
    pub org_pwr_uw: f64,
    /// CVS baseline numbers.
    pub cvs: AlgoSummary,
    /// Dscale numbers.
    pub dscale: AlgoSummary,
    /// Gscale numbers.
    pub gscale: AlgoSummary,
    /// Wall-clock seconds for the whole scenario (generate → measure).
    pub wall_s: f64,
    /// Per-thread CPU seconds for the whole scenario.
    pub cpu_s: f64,
    /// Observability rollup of everything this scenario's thread recorded
    /// while it ran (span self-times, counters, gauges, histograms).
    /// Empty when no [`Recorder`] was handed to the run.
    pub obs: Rollup,
}

/// Runs one scenario: build the variant's library, generate the scaled
/// stand-in, prepare it with the variant's relaxation, then measure the
/// three algorithms. All clocks start and stop on the calling thread.
pub fn run_scenario(sc: &Scenario) -> ScenarioResult {
    run_scenario_obs(sc, None)
}

/// [`run_scenario`] with an observability window: when `obs` is a
/// [`Recorder`] currently installed as the subscriber, the whole scenario
/// runs inside a `"scenario"` span and the result carries the rollup of
/// everything this thread recorded in between (value-deterministic — the
/// window sees only the executing thread's stream, so the rollup is
/// independent of the worker count).
pub fn run_scenario_obs(sc: &Scenario, obs: Option<&Recorder>) -> ScenarioResult {
    let wall = Instant::now();
    let cpu = CpuTimer::start();
    let mark = obs.map(Recorder::mark);
    let run: CircuitRun = {
        let _span = dvs_obs::span_with("scenario", || sc.id());
        let lib = compass::compass_library(sc.variant.voltages);
        let net = mcnc::generate_scaled(sc.profile, &lib, sc.scale, sc.seed);
        let prepared = prepare(net, &lib, sc.variant.relax);
        run_circuit(sc.profile.name, &prepared, &lib, &sc.variant.config)
    };
    // the scenario span is closed here, so the rollup includes it
    let rollup = match (obs, mark) {
        (Some(rec), Some(mark)) => rec.rollup_since(&mark),
        _ => Rollup::default(),
    };
    ScenarioResult {
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
    }
}

/// Mean of an iterator of f64 (0 when empty) — the single averaging
/// convention shared by the JSON summary, the CLI and the table binaries.
pub fn mean(values: impl Iterator<Item = f64>) -> f64 {
    let (n, sum) = values.fold((0usize, 0.0), |(n, s), v| (n + 1, s + v));
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

/// Expands the grid and runs every scenario on `jobs` workers, invoking
/// `progress` from worker threads as scenarios finish (completion order).
/// Results come back in grid order regardless of `jobs`.
pub fn run_grid<F>(grid: &Grid, jobs: usize, progress: F) -> Vec<ScenarioResult>
where
    F: Fn(&ScenarioResult) + Sync,
{
    run_grid_obs(grid, jobs, None, progress)
}

/// [`run_grid`] with per-scenario observability: when `obs` is the
/// installed [`Recorder`], every result carries its thread-scoped
/// [`Rollup`] (see [`run_scenario_obs`]).
pub fn run_grid_obs<F>(
    grid: &Grid,
    jobs: usize,
    obs: Option<&Recorder>,
    progress: F,
) -> Vec<ScenarioResult>
where
    F: Fn(&ScenarioResult) + Sync,
{
    let scenarios = grid.expand();
    pool::run_indexed(&scenarios, jobs, |_, sc| {
        let res = run_scenario_obs(sc, obs);
        progress(&res);
        res
    })
}

fn counters_json(c: &FlowCounters) -> Json {
    Json::obj(vec![
        ("rail_edits", Json::UInt(c.rail_edits)),
        ("size_edits", Json::UInt(c.size_edits)),
        ("converters_inserted", Json::UInt(c.converters_inserted)),
        ("converters_removed", Json::UInt(c.converters_removed)),
        ("sta_events", Json::UInt(c.sta_events)),
        ("full_analyses", Json::UInt(c.full_analyses)),
        ("full_power", Json::UInt(c.full_power)),
        ("power_resims", Json::UInt(c.power_resims)),
        ("full_power_avoided", Json::UInt(c.full_power_avoided)),
        ("checkpoints", Json::UInt(c.checkpoints)),
        ("rollbacks", Json::UInt(c.rollbacks)),
        ("par_tasks", Json::UInt(c.par_tasks)),
        ("par_batches", Json::UInt(c.par_batches)),
    ])
}

fn hist_json(h: &HistRollup) -> Json {
    Json::obj(vec![
        ("name", Json::Str(h.name.clone())),
        ("count", Json::UInt(h.count)),
        ("sum", Json::UInt(h.sum)),
        ("min", Json::UInt(h.min)),
        ("max", Json::UInt(h.max)),
        (
            "buckets",
            Json::Arr(
                h.buckets
                    .iter()
                    .map(|&(ix, n)| Json::Arr(vec![Json::UInt(ix as u64), Json::UInt(n)]))
                    .collect(),
            ),
        ),
    ])
}

fn rollup_json(rollup: &Rollup, timing: bool) -> Json {
    let mut rollup = rollup.clone();
    if !timing {
        rollup.zero_timing();
    }
    Json::obj(vec![
        (
            "spans",
            Json::Arr(
                rollup
                    .spans
                    .iter()
                    .map(|s| {
                        Json::obj(vec![
                            ("name", Json::Str(s.name.clone())),
                            ("count", Json::UInt(s.count)),
                            ("wall_ns", Json::UInt(s.wall_ns)),
                            ("self_ns", Json::UInt(s.self_ns)),
                            ("cpu_ns", Json::UInt(s.cpu_ns)),
                        ])
                    })
                    .collect(),
            ),
        ),
        (
            "counters",
            Json::Obj(
                rollup
                    .counters
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::UInt(*v)))
                    .collect(),
            ),
        ),
        (
            "gauges",
            Json::Obj(
                rollup
                    .gauges
                    .iter()
                    .map(|(name, v)| (name.clone(), Json::Num(*v)))
                    .collect(),
            ),
        ),
        (
            "hists",
            Json::Arr(rollup.hists.iter().map(hist_json).collect()),
        ),
    ])
}

fn attr_json(attrs: &[dvs_obs::AttrRollup]) -> Json {
    Json::obj(vec![(
        "domains",
        Json::Arr(
            attrs
                .iter()
                .map(|a| {
                    Json::obj(vec![
                        ("domain", Json::Str(a.domain.clone())),
                        ("sites", Json::UInt(a.sites)),
                        ("count", Json::UInt(a.count)),
                        ("sum", Json::UInt(a.sum)),
                        ("p50_sites", Json::UInt(a.p50_sites)),
                        ("p90_sites", Json::UInt(a.p90_sites)),
                        (
                            "top",
                            Json::Arr(
                                a.top
                                    .iter()
                                    .map(|t| {
                                        Json::obj(vec![
                                            ("site", Json::Str(t.site.clone())),
                                            ("count", Json::UInt(t.count)),
                                            ("sum", Json::UInt(t.sum)),
                                        ])
                                    })
                                    .collect(),
                            ),
                        ),
                    ])
                })
                .collect(),
        ),
    )])
}

fn algo_json(a: &AlgoSummary, timing: bool) -> Json {
    Json::obj(vec![
        ("power_uw", Json::Num(a.power_uw)),
        ("improvement_pct", Json::Num(a.improvement_pct)),
        ("low_gates", Json::UInt(a.low_gates as u64)),
        ("low_ratio", Json::Num(a.low_ratio)),
        ("converters", Json::UInt(a.converters as u64)),
        ("resized", Json::UInt(a.resized as u64)),
        ("area_increase", Json::Num(a.area_increase)),
        ("cpu_s", Json::Num(if timing { a.cpu_s } else { 0.0 })),
        ("sta", counters_json(&a.sta)),
    ])
}

/// Serializes sweep results as the `BENCH_sweep.json` document (schema
/// `dvs-sweep/v7`; see the crate docs for the full field reference).
///
/// With `timing == false` every wall/CPU field renders as `0`, making the
/// document a pure function of the grid — byte-identical across runs and
/// worker counts. With `timing == true` the same fields carry the real
/// measurements.
pub fn to_json(results: &[ScenarioResult], timing: bool) -> Json {
    let mean = |f: &dyn Fn(&ScenarioResult) -> f64| mean(results.iter().map(f));
    Json::obj(vec![
        ("schema", Json::Str(SCHEMA.into())),
        ("timing", Json::Bool(timing)),
        ("scenario_count", Json::UInt(results.len() as u64)),
        (
            "summary",
            Json::obj(vec![
                ("avg_cvs_pct", Json::Num(mean(&|r| r.cvs.improvement_pct))),
                (
                    "avg_dscale_pct",
                    Json::Num(mean(&|r| r.dscale.improvement_pct)),
                ),
                (
                    "avg_gscale_pct",
                    Json::Num(mean(&|r| r.gscale.improvement_pct)),
                ),
                ("avg_cvs_low_ratio", Json::Num(mean(&|r| r.cvs.low_ratio))),
                (
                    "avg_dscale_low_ratio",
                    Json::Num(mean(&|r| r.dscale.low_ratio)),
                ),
                (
                    "avg_gscale_low_ratio",
                    Json::Num(mean(&|r| r.gscale.low_ratio)),
                ),
            ]),
        ),
        (
            "scenarios",
            Json::Arr(
                results
                    .iter()
                    .map(|r| {
                        Json::obj(vec![
                            ("id", Json::Str(r.id.clone())),
                            ("circuit", Json::Str(r.circuit.clone())),
                            ("scale", Json::UInt(r.scale as u64)),
                            ("variant", Json::Str(r.variant.clone())),
                            ("seed", Json::UInt(r.seed)),
                            ("gates", Json::UInt(r.gates as u64)),
                            ("tspec_ns", Json::Num(r.tspec_ns)),
                            ("org_pwr_uw", Json::Num(r.org_pwr_uw)),
                            ("cvs", algo_json(&r.cvs, timing)),
                            ("dscale", algo_json(&r.dscale, timing)),
                            ("gscale", algo_json(&r.gscale, timing)),
                            ("wall_s", Json::Num(if timing { r.wall_s } else { 0.0 })),
                            ("cpu_s", Json::Num(if timing { r.cpu_s } else { 0.0 })),
                            ("obs", rollup_json(&r.obs, timing)),
                            ("attr", attr_json(&r.obs.attrs)),
                        ])
                    })
                    .collect(),
            ),
        ),
    ])
}

/// Renders [`to_json`] and writes it to `path`, newline-terminated. The
/// document is self-checked with [`crate::json::validate`] before the
/// write — an unparsable emission is a bug, not an output.
///
/// # Panics
///
/// Panics if the rendered document fails its own validation.
pub fn write_results(
    path: &std::path::Path,
    results: &[ScenarioResult],
    timing: bool,
) -> std::io::Result<()> {
    let mut text = to_json(results, timing).render();
    text.push('\n');
    crate::json::validate(&text).expect("dvs-sweep emitted unparsable JSON");
    std::fs::write(path, text)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::grid::ConfigVariant;

    fn tiny_grid() -> Grid {
        Grid {
            profiles: vec![
                dvs_synth::mcnc::find("x2").unwrap(),
                dvs_synth::mcnc::find("i1").unwrap(),
            ],
            scales: vec![1, 2],
            variants: vec![ConfigVariant {
                config: dvs_core::FlowConfig {
                    sim_vectors: 128,
                    ..dvs_core::FlowConfig::default()
                },
                ..ConfigVariant::paper()
            }],
            seeds: vec![0, 1],
        }
    }

    #[test]
    fn grid_runs_cover_every_scenario_in_order() {
        let grid = tiny_grid();
        let results = run_grid(&grid, 2, |_| {});
        assert_eq!(results.len(), 8);
        let ids: Vec<&str> = results.iter().map(|r| r.id.as_str()).collect();
        let expect: Vec<String> = grid.expand().iter().map(|s| s.id()).collect();
        assert_eq!(ids, expect.iter().map(String::as_str).collect::<Vec<_>>());
        for r in &results {
            assert!(r.org_pwr_uw > 0.0, "{}", r.id);
            assert!(r.gates > 0, "{}", r.id);
            // scaled scenarios actually grew
            if r.scale == 2 {
                let base = results
                    .iter()
                    .find(|b| b.circuit == r.circuit && b.scale == 1 && b.seed == r.seed)
                    .unwrap();
                assert!(r.gates > base.gates, "{}", r.id);
            }
        }
    }

    #[test]
    fn seeds_vary_structure_deterministically() {
        let grid = tiny_grid();
        let a = run_grid(&grid, 1, |_| {});
        let b = run_grid(&grid, 3, |_| {});
        for (x, y) in a.iter().zip(&b) {
            // identical modulo timing
            let strip = |r: &ScenarioResult| {
                let mut r = r.clone();
                r.wall_s = 0.0;
                r.cpu_s = 0.0;
                r.cvs.cpu_s = 0.0;
                r.dscale.cpu_s = 0.0;
                r.gscale.cpu_s = 0.0;
                r
            };
            assert_eq!(strip(x), strip(y), "{}", x.id);
        }
        // different seeds produce different random-logic structure
        let s0 = a
            .iter()
            .find(|r| r.circuit == "x2" && r.scale == 2 && r.seed == 0);
        let s1 = a
            .iter()
            .find(|r| r.circuit == "x2" && r.scale == 2 && r.seed == 1);
        assert_ne!(
            s0.unwrap().org_pwr_uw,
            s1.unwrap().org_pwr_uw,
            "seed salt had no structural effect"
        );
    }

    #[test]
    fn json_document_is_deterministic_and_valid() {
        let grid = tiny_grid();
        let results = run_grid(&grid, 2, |_| {});
        let doc = to_json(&results, false).render();
        crate::json::validate(&doc).expect("valid JSON");
        let again = to_json(&run_grid(&grid, 4, |_| {}), false).render();
        assert_eq!(
            doc, again,
            "timing-stripped document must not depend on jobs"
        );
        assert!(doc.contains("\"schema\": \"dvs-sweep/v7\""));
        assert!(doc.contains("\"id\": \"x2.x1/paper/s0\""));
        assert!(!doc.contains("hot_rebuilds") && !doc.contains("rebuilds_avoided"));
        assert!(doc.contains("\"full_power\": 0"));
        assert!(doc.contains("\"power_resims\":"));
        assert!(doc.contains("\"full_power_avoided\":"));
        assert!(doc.contains("\"sta\": {"));
        assert!(doc.contains("\"obs\": {"));
        assert!(doc.contains("\"attr\": {"));
        // timing-on documents still validate
        let timed = to_json(&results, true).render();
        crate::json::validate(&timed).expect("valid timed JSON");
    }

    #[test]
    fn obs_rollups_are_worker_count_independent() {
        use std::sync::Arc;
        let rec = Arc::new(Recorder::new());
        dvs_obs::set_subscriber(Some(rec.clone()));
        let grid = Grid {
            profiles: vec![dvs_synth::mcnc::find("x2").unwrap()],
            scales: vec![1, 2],
            variants: vec![ConfigVariant {
                config: dvs_core::FlowConfig {
                    sim_vectors: 128,
                    ..dvs_core::FlowConfig::default()
                },
                ..ConfigVariant::paper()
            }],
            seeds: vec![0],
        };
        let seq = run_grid_obs(&grid, 1, Some(&rec), |_| {});
        let par = run_grid_obs(&grid, 4, Some(&rec), |_| {});
        dvs_obs::set_subscriber(None);
        let _ = rec.drain();

        for (a, b) in seq.iter().zip(&par) {
            assert!(!a.obs.is_empty(), "{}: empty rollup", a.id);
            // the three phases and the scenario span all show up
            let names: Vec<&str> = a.obs.spans.iter().map(|s| s.name.as_str()).collect();
            for expect in ["cvs", "dscale", "gscale", "circuit", "scenario"] {
                assert!(names.contains(&expect), "{}: no `{expect}` span", a.id);
            }
            // session work is recorded in the `sta` objects only, never
            // mirrored into the registry
            assert!(a.dscale.sta.sta_events > 0, "{}", a.id);
            assert!(
                a.obs
                    .counters
                    .iter()
                    .all(|(n, _)| !n.starts_with("session.")),
                "{}: session counters leaked into the registry",
                a.id
            );
            assert!(
                a.obs
                    .hists
                    .iter()
                    .any(|h| h.name == "sta.events_per_change"),
                "{}: no events-per-change histogram",
                a.id
            );
            // attribution flowed: STA events charged to named gates,
            // with a non-empty deterministic top-K
            let sta_attr = a
                .obs
                .attrs
                .iter()
                .find(|d| d.domain == "sta.events")
                .unwrap_or_else(|| panic!("{}: no sta.events attribution", a.id));
            assert!(sta_attr.sum > 0 && !sta_attr.top.is_empty(), "{}", a.id);
            assert!(
                a.obs.attrs.iter().any(|d| d.domain == "session.edits"),
                "{}: no session.edits attribution",
                a.id
            );
            // value-determinism: identical modulo the clock fields
            let strip = |r: &ScenarioResult| {
                let mut o = r.obs.clone();
                o.zero_timing();
                o
            };
            assert_eq!(strip(a), strip(b), "{}", a.id);
        }
        // rendered obs objects are byte-identical across worker counts
        // once timing is stripped
        let doc_seq = to_json(&seq, false).render();
        let doc_par = to_json(&par, false).render();
        assert_eq!(doc_seq, doc_par);
    }
}
