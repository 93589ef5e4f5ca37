//! `dvs-perfbench` — the repository's benchmark: end-to-end metrics of four
//! flow workloads, and a traced run that splits their time by layer. See
//! README.md for the metrics, the workloads and the layer map.
//!
//! ```text
//! dvs-perfbench --workload NAME [--seed N] [--seconds S] [--trace 0|1] [--salt N]
//! dvs-perfbench --workload NAME --record [--salt N] > lines
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}`.

mod expect;
mod sys;
#[cfg(test)]
mod tests;
mod trace;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

use dvs_sweep::{Grid, ScenarioResult};

use expect::{Checker, Outcome};
use trace::Ledger;
use workload::{Circuit, Kind, Workload, WORKLOADS};

/// End-to-end metrics, `(name, unit)`, in `BENCHMARK.json` order.
pub const END_TO_END: [(&str, &str); 9] = [
    ("wall_s", "s"),
    ("gates_per_s", "1/s"),
    ("cpu_s", "s"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("ok_frac", "ratio"),
    ("cvs_pct", "%"),
    ("dscale_pct", "%"),
    ("gscale_pct", "%"),
];

/// Set-up repetitions whose median is `setup_s`.
const SETUP_REPS: usize = 3;

struct Args {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    salt: u64,
    record: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut salt, mut record) = (0, 10.0, false, 0, false);
    let mut i = 0;
    while i < argv.len() {
        let flag = argv[i].as_str();
        if flag == "--record" {
            record = true;
            i += 1;
            continue;
        }
        let value = argv
            .get(i + 1)
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("bad value `{value}` for `{flag}`");
        match flag {
            "--workload" => {
                workload = Some(
                    WORKLOADS
                        .iter()
                        .find(|w| w.name == value)
                        .ok_or_else(|| format!("unknown workload `{value}`"))?,
                );
            }
            "--seed" => seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(bad)?;
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                };
            }
            "--salt" => salt = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument `{flag}`")),
        }
        i += 2;
    }
    Ok(Args {
        workload: workload.ok_or("`--workload NAME` is required")?,
        seed,
        seconds,
        trace,
        salt,
        record,
    })
}

/// Where the sweep workloads write their document: inside the package,
/// in a directory `.gitignore` names.
fn out_path() -> PathBuf {
    let dir = PathBuf::from(concat!(env!("CARGO_MANIFEST_DIR"), "/.out"));
    std::fs::create_dir_all(&dir).expect("creating the output directory");
    dir.join("sweep.json")
}

/// What the timed loop collects.
#[derive(Default)]
struct Samples {
    walls: Vec<f64>,
    cpus: Vec<f64>,
    /// Logic gates and mean improvements (CVS, Dscale, Gscale) of the
    /// first pass's scenarios.
    gates: f64,
    pct: [f64; 3],
}

impl Samples {
    /// Times one pass and checks its outcomes.
    fn pass(&mut self, checker: &mut Checker, pass: impl FnOnce() -> Vec<Option<Outcome>>) {
        let cpu = sys::process_cpu_s();
        let t = Instant::now();
        let outcomes = pass();
        self.walls.push(t.elapsed().as_secs_f64());
        self.cpus.push(sys::process_cpu_s() - cpu);
        for o in &outcomes {
            checker.check(o.as_ref());
        }
        if self.walls.len() == 1 {
            let ok: Vec<&Outcome> = outcomes.iter().flatten().collect();
            self.gates = ok.iter().map(|o| o.gates as f64).sum();
            for (k, pct) in self.pct.iter_mut().enumerate() {
                *pct = ok.iter().map(|o| o.algos[k].improvement_pct).sum::<f64>()
                    / ok.len().max(1) as f64;
            }
        }
    }
}

/// Repeats `pass` until `seconds` have gone by (at least once).
fn timed_loop(
    seconds: f64,
    checker: &mut Checker,
    mut pass: impl FnMut() -> Vec<Option<Outcome>>,
) -> Samples {
    let mut samples = Samples::default();
    let start = Instant::now();
    loop {
        samples.pass(checker, &mut pass);
        if start.elapsed().as_secs_f64() >= seconds {
            return samples;
        }
    }
}

fn sweep_outcomes(results: Vec<Option<ScenarioResult>>) -> Vec<Option<Outcome>> {
    results
        .iter()
        .map(|r| r.as_ref().map(|r| Outcome::from_result(r, None)))
        .collect()
}

fn sweep_grid(args: &Args, scale: usize, salts: u64) -> Grid {
    workload::grid(scale, salts, args.salt, workload::variant(args.seed, 0))
}

/// The untraced run: every end-to-end metric.
fn untraced(args: &Args, checker: &mut Checker) -> Vec<(&'static str, &'static str, f64)> {
    let (setup_s, samples) = match args.workload.kind {
        Kind::Sweep { scale, salts } => {
            let grid = sweep_grid(args, scale, salts);
            let out = out_path();
            let (setup_s, ()) = workload::timed_reps(SETUP_REPS, || workload::sweep_setup(&grid));
            let samples = timed_loop(args.seconds, checker, || {
                sweep_outcomes(workload::sweep_pass(&grid, &out))
            });
            (setup_s, samples)
        }
        Kind::Flow { circuit_jobs } => {
            let variant = workload::variant(args.seed, circuit_jobs);
            let (setup_s, (lib, circuits)) = workload::timed_reps(SETUP_REPS, || {
                let lib = workload::library();
                let circuits = workload::flow_setup(&lib, args.salt, &variant);
                (lib, circuits)
            });
            let samples = timed_loop(args.seconds, checker, || {
                let runs = workload::flow_pass(&circuits, &lib, &variant.config);
                workload::flow_outcomes(&circuits, &runs)
            });
            if circuit_jobs > 1 && circuits.iter().any(|c| !checker.is_recorded(&c.id)) {
                // no recorded values to prove the parallel results equal
                // the sequential ones: run the sequential flow once more
                let seq = workload::variant(args.seed, 1);
                let runs = workload::flow_pass(&circuits, &lib, &seq.config);
                for o in workload::flow_outcomes(&circuits, &runs) {
                    checker.check(o.as_ref());
                }
            }
            (setup_s, samples)
        }
    };
    eprintln!("dvs-perfbench: pass wall times {:?} s", samples.walls);
    let wall_s = workload::median(&samples.walls);
    let ok_frac = (checker.attempted - checker.failed) as f64 / checker.attempted as f64;
    let values = [
        wall_s,
        samples.gates / wall_s,
        workload::median(&samples.cpus),
        sys::peak_rss_mb(),
        setup_s,
        ok_frac,
        samples.pct[0],
        samples.pct[1],
        samples.pct[2],
    ];
    END_TO_END
        .iter()
        .zip(values)
        .map(|(&(name, unit), v)| (name, unit, v))
        .collect()
}

/// The traced run: untraced and traced passes in pairs until the time is
/// up; every per-layer metric as a per-pass mean.
fn traced(args: &Args, checker: &mut Checker) -> Vec<(&'static str, &'static str, f64)> {
    let mut led = Ledger::default();
    let (mut untraced_s, mut traced_s, mut cpu_s, mut passes) = (0.0, 0.0, 0.0, 0);
    match args.workload.kind {
        Kind::Sweep { scale, salts } => {
            let grid = sweep_grid(args, scale, salts);
            let out = out_path();
            workload::sweep_setup(&grid);
            let start = Instant::now();
            while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
                let t = Instant::now();
                let plain = workload::sweep_pass(&grid, &out);
                untraced_s += t.elapsed().as_secs_f64();
                let cpu = sys::process_cpu_s();
                let t = Instant::now();
                let pass = catch_unwind(AssertUnwindSafe(|| {
                    trace::sweep_pass(&grid, &out, &mut led)
                }));
                traced_s += t.elapsed().as_secs_f64();
                cpu_s += sys::process_cpu_s() - cpu;
                passes += 1;
                let Ok((results, separators)) = pass else {
                    dvs_obs::set_subscriber(None);
                    checker.fail("the traced pass panicked");
                    continue;
                };
                trace::replay_separators(&separators, &mut led);
                for (u, (t, digest)) in plain.iter().zip(&results) {
                    checker.check(u.as_ref().map(|u| Outcome::from_result(u, None)).as_ref());
                    checker.check(Some(&Outcome::from_result(t, Some(*digest))));
                    if u.as_ref().map(trace::strip_timing) != Some(trace::strip_timing(t)) {
                        checker.fail(&format!(
                            "{}: traced result differs from run_grid_obs",
                            t.id
                        ));
                    }
                }
            }
        }
        Kind::Flow { circuit_jobs } => {
            let variant = workload::variant(args.seed, circuit_jobs);
            let mut setup = Ledger::default();
            let lib = setup.time("celllib.build_s", workload::library);
            let circuits = workload::flow_setup(&lib, args.salt, &variant);
            traced_setup(args.salt, &lib, &circuits, &mut setup, checker);
            let start = Instant::now();
            while passes == 0 || start.elapsed().as_secs_f64() < args.seconds {
                let t = Instant::now();
                let plain = workload::flow_pass(&circuits, &lib, &variant.config);
                untraced_s += t.elapsed().as_secs_f64();
                let cpu = sys::process_cpu_s();
                let t = Instant::now();
                let runs: Vec<_> = circuits
                    .iter()
                    .map(|c| {
                        catch_unwind(AssertUnwindSafe(|| {
                            trace::run_circuit(c.name, &c.prepared, &lib, &variant.config, &mut led)
                        }))
                        .ok()
                    })
                    .collect();
                traced_s += t.elapsed().as_secs_f64();
                cpu_s += sys::process_cpu_s() - cpu;
                passes += 1;
                for (c, (u, t)) in circuits.iter().zip(plain.iter().zip(&runs)) {
                    let u = u.as_ref().map(|u| {
                        (
                            Outcome::from_run(c.id.clone(), u, c.digest),
                            trace::run_values(u),
                        )
                    });
                    let t = t.as_ref().map(|(t, separators)| {
                        trace::replay_separators(separators, &mut led);
                        (
                            Outcome::from_run(c.id.clone(), t, c.digest),
                            trace::run_values(t),
                        )
                    });
                    checker.check(u.as_ref().map(|u| &u.0));
                    checker.check(t.as_ref().map(|t| &t.0));
                    if let (Some(u), Some(t)) = (u, t) {
                        if u.1 != t.1 {
                            checker
                                .fail(&format!("{}: traced result differs from run_circuit", c.id));
                        }
                    }
                }
            }
            led.absorb_as_values(&setup, passes);
        }
    }
    led.metrics(passes, traced_s, untraced_s, cpu_s)
}

/// A `Flow` workload's prepare, re-enacted once more after set-up and
/// checked against the real one.
fn traced_setup(
    salt: u64,
    lib: &dvs_celllib::Library,
    circuits: &[Circuit],
    led: &mut Ledger,
    checker: &mut Checker,
) {
    for (c, &(name, scale)) in circuits.iter().zip(&workload::LARGE) {
        let profile = dvs_synth::mcnc::find(name).expect("known profile");
        let net = led.time("synth.generate_s", || {
            dvs_synth::mcnc::generate_scaled(profile, lib, scale, salt)
        });
        let p = trace::prepare(net, lib, dvs_sweep::ConfigVariant::paper().relax, led);
        if expect::digest(&p.network) != c.digest
            || p.tmin_ns != c.prepared.tmin_ns
            || p.tspec_ns != c.prepared.tspec_ns
        {
            checker.fail(&format!("{}: traced prepare differs from prepare", c.id));
        }
    }
}

/// Prints the `expected.txt` lines of a workload's scenarios for every
/// stimulus, computed with the production `prepare` and `run_circuit`: in
/// full for the paper's stimulus, as fingerprints for the others. A
/// scenario that panics is reported on stderr instead.
fn record(args: &Args) {
    let lib = workload::library();
    let variants: Vec<_> = workload::STIMULI
        .iter()
        .map(|&s| workload::stimulus(s, 1))
        .collect();
    let scenarios: Vec<(&'static str, usize, u64)> = match args.workload.kind {
        Kind::Sweep { scale, salts } => dvs_synth::mcnc::PROFILES
            .iter()
            .flat_map(|p| (0..salts).map(move |i| (p.name, scale, args.salt.wrapping_add(i))))
            .collect(),
        Kind::Flow { .. } => workload::LARGE
            .iter()
            .map(|&(n, s)| (n, s, args.salt))
            .collect(),
    };
    for (name, scale, salt) in scenarios {
        let profile = dvs_synth::mcnc::find(name).expect("known profile");
        let net = dvs_synth::mcnc::generate_scaled(profile, &lib, scale, salt);
        let prepared = dvs_synth::prepare(net, &lib, dvs_sweep::ConfigVariant::paper().relax);
        let digest = expect::digest(&prepared.network);
        for v in &variants {
            let id = workload::scenario_id(profile, scale, v, salt);
            let run = std::panic::catch_unwind(|| {
                dvs_core::run_circuit(name, &prepared, &lib, &v.config)
            });
            match run {
                Ok(run) => {
                    let o = Outcome::from_run(id, &run, digest);
                    if v.config.sim_seed == dvs_core::FlowConfig::default().sim_seed {
                        println!("{}", o.line());
                    } else {
                        println!("{} {:016x}", o.id, o.fingerprint());
                    }
                }
                Err(_) => eprintln!("dvs-perfbench: PANICKED {id}"),
            }
        }
    }
}

/// The result line.
fn json_line(checker: &Checker, metrics: &[(&str, &str, f64)]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, v)| format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        checker.failed == 0,
        checker.attempted,
        checker.failed,
        body.join(", ")
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("dvs-perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    dvs_pool::set_circuit_jobs(1);
    if args.record {
        record(&args);
        return ExitCode::SUCCESS;
    }
    let mut checker = Checker::recorded();
    let metrics = if args.trace {
        traced(&args, &mut checker)
    } else {
        untraced(&args, &mut checker)
    };
    if metrics.iter().any(|(_, _, v)| !v.is_finite()) {
        eprintln!("dvs-perfbench: a metric is not finite: {metrics:?}");
        return ExitCode::FAILURE;
    }
    println!("{}", json_line(&checker, &metrics));
    ExitCode::SUCCESS
}
