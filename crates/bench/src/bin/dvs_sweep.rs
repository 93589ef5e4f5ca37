//! `dvs-sweep` — parallel experiment sweeps over a scenario grid.
//!
//! Expands profiles × scale factors × config variants × generator seeds
//! into a work queue, runs it on a worker pool and writes machine-readable
//! results to `BENCH_sweep.json` (schema documented in `dvs-sweep`'s crate
//! docs).
//!
//! ```text
//! dvs-sweep --profiles all --scale 10 --jobs 4
//! dvs-sweep --profiles smallest --scale 1 --jobs 2 --deterministic --out /tmp/s.json
//! dvs-sweep --profiles des,C7552 --scale 1,10 --variants paper,tight-clock --seeds 0,1
//! ```

use std::fs::{File, OpenOptions};
use std::io::Write as _;
use std::path::PathBuf;
use std::process::ExitCode;
use std::sync::Arc;

use dvs_core::FlowConfig;
use dvs_obs::Recorder;
use dvs_sweep::{
    compare, default_jobs, json, mean, run_grid_obs, to_json, write_results, ConfigVariant, Grid,
    Progress, ScenarioResult,
};
use dvs_synth::mcnc::{self, Profile, PROFILES};

const USAGE: &str = "dvs-sweep: parallel experiment sweeps over a scenario grid

USAGE:
    dvs-sweep [OPTIONS]

OPTIONS:
    --profiles LIST   `all`, `smallest`, or comma-separated circuit names
                      from the paper's tables          [default: all]
    --scale LIST      comma-separated structural scale factors (>= 1)
                                                       [default: 1]
    --variants LIST   `all` or comma-separated variant names: paper,
                      tight-clock, loose-clock, lean-area, wide-area,
                      deep-low-vdd                     [default: paper]
    --seeds LIST      comma-separated generator seed salts
                                                       [default: 0]
    --jobs N          worker threads (or DVS_JOBS env var)
                                   [default: available parallelism, min 1]
    --circuit-jobs N  intra-circuit threads per scenario (or
                      DVS_CIRCUIT_JOBS env var): parallel Dscale candidate
                      scoring and wavefront power simulation. Results are
                      value-identical for every N. Auto-shrunk so that
                      jobs x circuit-jobs never exceeds the machine's
                      cores                            [default: 1]
    --vectors N       override simulation vectors per power estimate for
                      every variant (cheapens huge sweeps)
    --out PATH        output file                      [default: BENCH_sweep.json]
                      (every output path is checked for writability
                      before the first scenario runs)
    --deterministic   zero all wall/CPU-time fields so the document is
                      byte-identical across runs and worker counts
    --compare PATH    after the sweep, diff the new results against an
                      earlier sweep document (per-scenario power /
                      improvement / CPU deltas, plus per-phase self-time
                      movement when both documents carry obs rollups);
                      exits nonzero when
                      PATH has an unreadable schema tag
    --gate TOL        with --compare: fail (exit nonzero) when any shared
                      scenario's power moved more than TOL uW or its
                      improvement more than TOL percentage points, or when
                      the scenario sets differ. TOL may also be `UW,PP` to
                      set the two tolerances separately
    --trace-out PATH  write a Chrome trace-event JSON of the whole sweep
                      after it finishes (load in Perfetto /
                      chrome://tracing; one track per worker thread),
                      rendered from the recorded spans and instants
    --folded-out PATH write folded-stack lines (`thread;span;... self_ns`,
                      flamegraph.pl / inferno input) after the sweep
    --attr-summary    print the top attribution sites per domain (power
                      saved per gate, STA events per gate, flow work per
                      separator) to stderr after the sweep
    --obs-summary     print the top spans by self-time and the histogram
                      digest to stderr after the sweep
    -h, --help        print this help

Progress: when stderr is a terminal and --deterministic is off, a live
`done/total | ETA | worker busy%` meter is rewritten in place; otherwise
one line per finished scenario is logged. DVS_TRACE=1 additionally prints
the recorded trace lines (Gscale iterations and stops, power fallbacks,
rollbacks) to stderr after the sweep, grouped by worker thread in event
order; with --jobs 1 that is the order in which they happened.
";

struct Args {
    grid: Grid,
    jobs: usize,
    circuit_jobs: usize,
    out: PathBuf,
    deterministic: bool,
    compare: Option<PathBuf>,
    gate: Option<(f64, f64)>,
    trace_out: Option<PathBuf>,
    folded_out: Option<PathBuf>,
    attr_summary: bool,
    obs_summary: bool,
}

fn parse_profiles(spec: &str) -> Result<Vec<&'static Profile>, String> {
    match spec {
        "all" => Ok(PROFILES.iter().collect()),
        "smallest" => Ok(vec![PROFILES
            .iter()
            .min_by_key(|p| p.gates)
            .expect("profiles table is non-empty")]),
        names => names
            .split(',')
            .filter(|s| !s.is_empty())
            .map(|name| mcnc::find(name).ok_or_else(|| format!("unknown circuit `{name}`")))
            .collect(),
    }
}

fn parse_list<T: std::str::FromStr>(spec: &str, what: &str) -> Result<Vec<T>, String> {
    spec.split(',')
        .filter(|s| !s.is_empty())
        .map(|s| s.parse().map_err(|_| format!("bad {what} `{s}`")))
        .collect()
}

fn parse_args() -> Result<Option<Args>, String> {
    let mut profiles: Vec<&'static Profile> = PROFILES.iter().collect();
    let mut scales = vec![1usize];
    let mut variants = vec![ConfigVariant::paper()];
    let mut seeds = vec![0u64];
    let mut jobs = default_jobs();
    let mut circuit_jobs = dvs_pool::circuit_jobs();
    let mut vectors: Option<usize> = None;
    let mut out = PathBuf::from("BENCH_sweep.json");
    let mut deterministic = false;
    let mut compare: Option<PathBuf> = None;
    let mut gate: Option<(f64, f64)> = None;
    let mut trace_out: Option<PathBuf> = None;
    let mut folded_out: Option<PathBuf> = None;
    let mut attr_summary = false;
    let mut obs_summary = false;

    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    let value = |i: &mut usize, flag: &str| -> Result<String, String> {
        *i += 1;
        argv.get(*i)
            .cloned()
            .ok_or_else(|| format!("`{flag}` needs a value"))
    };
    while i < argv.len() {
        match argv[i].as_str() {
            "-h" | "--help" => {
                print!("{USAGE}");
                return Ok(None);
            }
            "--profiles" => profiles = parse_profiles(&value(&mut i, "--profiles")?)?,
            "--scale" => {
                scales = parse_list(&value(&mut i, "--scale")?, "scale factor")?;
                if scales.contains(&0) {
                    return Err("scale factors must be >= 1".into());
                }
            }
            "--variants" => {
                let spec = value(&mut i, "--variants")?;
                variants = if spec == "all" {
                    ConfigVariant::all()
                } else {
                    spec.split(',')
                        .filter(|s| !s.is_empty())
                        .map(|name| {
                            ConfigVariant::named(name)
                                .ok_or_else(|| format!("unknown variant `{name}`"))
                        })
                        .collect::<Result<_, _>>()?
                };
            }
            "--seeds" => seeds = parse_list(&value(&mut i, "--seeds")?, "seed")?,
            "--jobs" => {
                jobs = value(&mut i, "--jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("`--jobs` needs a positive integer")?;
            }
            "--circuit-jobs" => {
                circuit_jobs = value(&mut i, "--circuit-jobs")?
                    .parse::<usize>()
                    .ok()
                    .filter(|&n| n > 0)
                    .ok_or("`--circuit-jobs` needs a positive integer")?;
            }
            "--vectors" => {
                vectors = Some(
                    value(&mut i, "--vectors")?
                        .parse::<usize>()
                        .ok()
                        .filter(|&n| n >= 2)
                        .ok_or("`--vectors` needs an integer >= 2")?,
                );
            }
            "--out" => out = PathBuf::from(value(&mut i, "--out")?),
            "--deterministic" => deterministic = true,
            "--compare" => compare = Some(PathBuf::from(value(&mut i, "--compare")?)),
            "--gate" => {
                let spec = value(&mut i, "--gate")?;
                let parts: Vec<f64> = spec
                    .split(',')
                    .map(|s| {
                        s.parse::<f64>()
                            .ok()
                            .filter(|t| t.is_finite() && *t >= 0.0)
                            .ok_or_else(|| format!("bad gate tolerance `{s}`"))
                    })
                    .collect::<Result<_, _>>()?;
                gate = Some(match parts.as_slice() {
                    [both] => (*both, *both),
                    [uw, pp] => (*uw, *pp),
                    _ => return Err("`--gate` takes TOL or UW,PP".into()),
                });
            }
            "--trace-out" => trace_out = Some(PathBuf::from(value(&mut i, "--trace-out")?)),
            "--folded-out" => folded_out = Some(PathBuf::from(value(&mut i, "--folded-out")?)),
            "--attr-summary" => attr_summary = true,
            "--obs-summary" => obs_summary = true,
            other => return Err(format!("unknown argument `{other}` (try --help)")),
        }
        i += 1;
    }
    if let Some(n) = vectors {
        for v in &mut variants {
            v.config = FlowConfig {
                sim_vectors: n,
                ..v.config.clone()
            };
        }
    }
    if profiles.is_empty() || scales.is_empty() || variants.is_empty() || seeds.is_empty() {
        return Err("every grid dimension needs at least one entry".into());
    }
    if gate.is_some() && compare.is_none() {
        return Err("`--gate` needs `--compare OLD.json` to diff against".into());
    }
    Ok(Some(Args {
        grid: Grid {
            profiles,
            scales,
            variants,
            seeds,
        },
        jobs,
        circuit_jobs,
        out,
        deterministic,
        compare,
        gate,
        trace_out,
        folded_out,
        attr_summary,
        obs_summary,
    }))
}

/// Loads an earlier sweep document, prints the trajectory diff against
/// the just-computed results, and applies the measurement gate when one
/// was requested. Any failure — unreadable file, malformed JSON, unknown
/// schema tag, gate violation — comes back as `Err` for a nonzero exit.
fn run_compare(
    old_path: &std::path::Path,
    results: &[ScenarioResult],
    timing: bool,
    gate: Option<(f64, f64)>,
) -> Result<(), String> {
    let old_text = std::fs::read_to_string(old_path)
        .map_err(|e| format!("reading {}: {e}", old_path.display()))?;
    let old = json::parse(&old_text).map_err(|e| format!("parsing {}: {e}", old_path.display()))?;
    let new = to_json(results, timing);
    let cmp = compare(&old, &new)?;
    print!("{}", cmp.render());
    if let Some((power_tol_uw, improvement_tol_pp)) = gate {
        cmp.gate(power_tol_uw, improvement_tol_pp)
            .map_err(|e| format!("gate: {e}"))?;
        println!(
            "gate passed (|dPower| <= {power_tol_uw} uW, |dImprovement| <= {improvement_tol_pp} pp)"
        );
    }
    Ok(())
}

/// Opens every output path before the sweep, so a mistyped path fails at
/// once instead of after the whole run. `--out` and `--folded-out` are only
/// probed: append mode proves an existing document writable without
/// truncating it, and a file the probe had to create is removed again, so
/// a later failure leaves no empty document behind. The trace file is
/// created and returned for the export.
fn open_outputs(args: &Args) -> Result<Option<File>, String> {
    for path in std::iter::once(&args.out).chain(&args.folded_out) {
        let opened = |e: std::io::Error| format!("opening {}: {e}", path.display());
        match OpenOptions::new().write(true).create_new(true).open(path) {
            Ok(_) => std::fs::remove_file(path).map_err(opened)?,
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                OpenOptions::new().append(true).open(path).map_err(opened)?;
            }
            Err(e) => return Err(opened(e)),
        }
    }
    args.trace_out
        .as_ref()
        .map(|path| File::create(path).map_err(|e| format!("creating {}: {e}", path.display())))
        .transpose()
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(Some(args)) => args,
        Ok(None) => return ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("dvs-sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let trace_file = match open_outputs(&args) {
        Ok(file) => file,
        Err(e) => {
            eprintln!("dvs-sweep: {e}");
            return ExitCode::FAILURE;
        }
    };
    let total = args.grid.len();
    // Oversubscription guard: sweep workers x intra-circuit threads must
    // not exceed the machine (see dvs_pool's policy note).
    let circuit_jobs = dvs_pool::budget_circuit_jobs(args.jobs, args.circuit_jobs);
    if circuit_jobs < args.circuit_jobs {
        eprintln!(
            "dvs-sweep: shrinking --circuit-jobs {} -> {} ({} sweep worker(s) on this machine)",
            args.circuit_jobs, circuit_jobs, args.jobs,
        );
    }
    dvs_pool::set_circuit_jobs(circuit_jobs);
    eprintln!(
        "dvs-sweep: {} scenario(s) ({} profile(s) x {} scale(s) x {} variant(s) x {} seed(s)) on {} worker(s) x {} intra-circuit thread(s)",
        total,
        args.grid.profiles.len(),
        args.grid.scales.len(),
        args.grid.variants.len(),
        args.grid.seeds.len(),
        args.jobs,
        circuit_jobs,
    );

    // One recorder, the only subscriber, observes the whole sweep. Its
    // thread windows feed the per-scenario `obs`/`attr` rollups in the
    // JSON; the Chrome trace, folded stacks, summaries and DVS_TRACE lines
    // all render from its drained trace.
    let rec = Arc::new(Recorder::new());
    dvs_obs::set_subscriber(Some(rec.clone()));

    let progress = Progress::new(total, args.jobs, args.deterministic);
    let results = run_grid_obs(&args.grid, args.jobs, Some(&rec), |r| {
        progress.scenario_done(r.wall_s);
        if !progress.enabled() {
            eprintln!(
                "  {:<28} {:>7} gates  cvs {:>6.2}%  dscale {:>6.2}%  gscale {:>6.2}%  ({:.2}s cpu)",
                r.id, r.gates, r.cvs.improvement_pct, r.dscale.improvement_pct,
                r.gscale.improvement_pct, r.cpu_s,
            );
        }
    });
    progress.finish();

    dvs_obs::set_subscriber(None);
    let trace = rec.drain();
    if std::env::var_os("DVS_TRACE").is_some() {
        let mut err = std::io::stderr().lock();
        for inst in &trace.instants {
            let _ = writeln!(err, "{}", inst.text);
        }
    }
    if let (Some(mut file), Some(path)) = (trace_file, &args.trace_out) {
        let doc = dvs_obs::chrome::render(&trace);
        if let Err(e) = file.write_all(doc.as_bytes()) {
            eprintln!("dvs-sweep: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        eprintln!(
            "dvs-sweep: wrote Chrome trace to {} ({} span(s), {} instant(s), {} bytes)",
            path.display(),
            trace.spans.len(),
            trace.instants.len(),
            doc.len(),
        );
    }
    if let Some(path) = &args.folded_out {
        if let Err(e) = std::fs::write(path, dvs_obs::summary::folded(&trace)) {
            eprintln!("dvs-sweep: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if args.obs_summary {
        eprint!("{}", dvs_obs::summary::render(&trace, 12));
    }
    if args.attr_summary {
        eprint!("{}", dvs_obs::attr::render_summary(&trace, 8));
    }

    if let Err(e) = write_results(&args.out, &results, !args.deterministic) {
        eprintln!("dvs-sweep: writing {}: {e}", args.out.display());
        return ExitCode::FAILURE;
    }
    if let Some(old_path) = &args.compare {
        if let Err(e) = run_compare(old_path, &results, !args.deterministic, args.gate) {
            eprintln!("dvs-sweep: --compare: {e}");
            return ExitCode::FAILURE;
        }
    }
    println!(
        "{} scenario(s) -> {}  (avg improvement: cvs {:.2}%, dscale {:.2}%, gscale {:.2}%)",
        results.len(),
        args.out.display(),
        mean(results.iter().map(|r| r.cvs.improvement_pct)),
        mean(results.iter().map(|r| r.dscale.improvement_pct)),
        mean(results.iter().map(|r| r.gscale.improvement_pct)),
    );
    ExitCode::SUCCESS
}
