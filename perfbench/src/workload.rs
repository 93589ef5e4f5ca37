//! The four workloads, their set-up, and the untraced passes whose wall
//! time is the end-to-end measurement.
//!
//! A workload runs closed-loop in one process: one scenario after
//! another, on one sweep worker. A *pass* is one traversal of the
//! workload's scenarios; the timed loop repeats passes until the run's
//! time is up.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

use dvs_celllib::{compass, Library, VoltagePair};
use dvs_core::{run_circuit, CircuitRun, FlowConfig};
use dvs_obs::Recorder;
use dvs_sweep::{
    run_grid_obs, run_scenario, write_results, ConfigVariant, Grid, Scenario, ScenarioResult,
};
use dvs_synth::mcnc::{self, Profile};
use dvs_synth::{prepare, Prepared};

use crate::expect::{digest, Outcome};

/// What a workload runs.
#[derive(Debug, Clone, Copy)]
pub enum Kind {
    /// All 39 profiles at `scale` under `salts` consecutive generator
    /// salts, through `run_grid_obs` with a `Recorder` installed and
    /// `write_results` at the end, exactly as the `dvs-sweep` binary does.
    Sweep { scale: usize, salts: u64 },
    /// [`LARGE`] generated and prepared in set-up; the pass is
    /// `run_circuit` on each, `circuit_jobs` threads wide.
    Flow { circuit_jobs: usize },
}

/// A named workload.
#[derive(Debug)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
}

/// Every workload, in `BENCHMARK.json` order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "paper-x10",
        kind: Kind::Sweep {
            scale: 10,
            salts: 1,
        },
    },
    Workload {
        name: "large-flow",
        kind: Kind::Flow { circuit_jobs: 1 },
    },
    Workload {
        name: "paper-x1-seeds",
        kind: Kind::Sweep { scale: 1, salts: 4 },
    },
    Workload {
        name: "large-flow-par2",
        kind: Kind::Flow { circuit_jobs: 2 },
    },
];

/// The `Flow` workloads' circuits: `(profile, scale)`.
pub const LARGE: [(&str, usize); 2] = [("C7552", 30), ("alu2", 100)];

/// The power-simulation stimuli the seed picks from: variant name and
/// offset from the paper's `FlowConfig::sim_seed`. Offset 0 is the
/// paper's own stream; the others are the first offsets on which every
/// workload runs clean (offset 7 makes Dscale break its timing invariant
/// on `C7552.x30`).
pub const STIMULI: [(&str, u64); 8] = [
    ("paper", 0),
    ("paper-v1", 1),
    ("paper-v2", 2),
    ("paper-v3", 3),
    ("paper-v4", 4),
    ("paper-v5", 5),
    ("paper-v6", 6),
    ("paper-v8", 8),
];

/// The flow setup for benchmark seed `seed`: the paper's setup with the
/// seed's stimulus.
///
/// The seed picks the stimulus rather than the generator salt, so the
/// circuits, and with them set-up and most of the timing cost, stay the
/// same across seeds, while every power figure, Dscale weight and Gscale
/// fallback decision moves. Every stimulus's results are recorded.
pub fn variant(seed: u64, circuit_jobs: usize) -> ConfigVariant {
    stimulus(
        STIMULI[(seed % STIMULI.len() as u64) as usize],
        circuit_jobs,
    )
}

/// The paper's setup with one of the [`STIMULI`].
pub fn stimulus((name, offset): (&'static str, u64), circuit_jobs: usize) -> ConfigVariant {
    let paper = ConfigVariant::paper();
    ConfigVariant {
        name,
        config: FlowConfig {
            sim_seed: paper.config.sim_seed + offset,
            circuit_jobs,
            ..paper.config
        },
        ..paper
    }
}

/// The grid of a `Sweep` workload.
pub fn grid(scale: usize, salts: u64, salt: u64, variant: ConfigVariant) -> Grid {
    Grid {
        profiles: mcnc::PROFILES.iter().collect(),
        scales: vec![scale],
        variants: vec![variant],
        seeds: (0..salts).map(|i| salt.wrapping_add(i)).collect(),
    }
}

/// Median of a non-empty sample.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Runs `f` `reps` times and returns the median wall seconds with the last
/// result.
pub fn timed_reps<T>(reps: usize, mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(reps);
    let mut last = None;
    for _ in 0..reps {
        let t = Instant::now();
        last = Some(f());
        times.push(t.elapsed().as_secs_f64());
    }
    (median(&times), last.expect("reps >= 1"))
}

/// Set-up of a `Sweep` workload: a warm-up that runs every profile's
/// scenario once at scale 1 (the workload's variant, first salt), so the
/// pass's code has run before it is timed.
pub fn sweep_setup(grid: &Grid) {
    let warm = Grid {
        scales: vec![1],
        seeds: grid.seeds[..1].to_vec(),
        ..grid.clone()
    };
    for sc in warm.expand() {
        let _ = run_scenario(&sc);
    }
}

/// A prepared `Flow` circuit.
pub struct Circuit {
    pub id: String,
    pub name: &'static str,
    pub prepared: Prepared,
    pub digest: u64,
}

/// The library every workload uses (the paper's supply pair).
pub fn library() -> Library {
    compass::compass_library(VoltagePair::default())
}

/// Set-up of a `Flow` workload: generate and prepare [`LARGE`].
pub fn flow_setup(lib: &Library, salt: u64, variant: &ConfigVariant) -> Vec<Circuit> {
    LARGE
        .iter()
        .map(|&(name, scale)| {
            let profile = mcnc::find(name).expect("known profile");
            let net = mcnc::generate_scaled(profile, lib, scale, salt);
            let prepared = prepare(net, lib, variant.relax);
            Circuit {
                id: scenario_id(profile, scale, variant, salt),
                name: profile.name,
                digest: digest(&prepared.network),
                prepared,
            }
        })
        .collect()
}

/// The id the sweep gives this scenario, `{circuit}.x{scale}/{variant}/s{salt}`.
pub fn scenario_id(
    profile: &'static Profile,
    scale: usize,
    variant: &ConfigVariant,
    salt: u64,
) -> String {
    Scenario {
        ix: 0,
        profile,
        scale,
        variant: variant.clone(),
        seed: salt,
    }
    .id()
}

/// One untraced `Sweep` pass. A panicking scenario aborts `run_grid_obs`,
/// so on a panic the pass is repeated one scenario at a time (untimed in
/// effect: the run is already failed) and each panicking scenario comes
/// back as `None`.
pub fn sweep_pass(grid: &Grid, out: &Path) -> Vec<Option<ScenarioResult>> {
    let pass = catch_unwind(AssertUnwindSafe(|| {
        let rec = Arc::new(Recorder::new());
        dvs_obs::set_subscriber(Some(rec.clone()));
        let results = run_grid_obs(grid, 1, Some(&rec), |_| {});
        dvs_obs::set_subscriber(None);
        let _ = rec.drain();
        write_results(out, &results, true).expect("writing the sweep document");
        results
    }));
    match pass {
        Ok(results) => results.into_iter().map(Some).collect(),
        Err(_) => {
            dvs_obs::set_subscriber(None);
            grid.expand()
                .iter()
                .map(|sc| catch_unwind(|| run_scenario(sc)).ok())
                .collect()
        }
    }
}

/// One untraced `Flow` pass; a panicking circuit comes back as `None`.
pub fn flow_pass(circuits: &[Circuit], lib: &Library, cfg: &FlowConfig) -> Vec<Option<CircuitRun>> {
    circuits
        .iter()
        .map(|c| {
            catch_unwind(AssertUnwindSafe(|| {
                run_circuit(c.name, &c.prepared, lib, cfg)
            }))
            .ok()
        })
        .collect()
}

/// The outcomes of a `Flow` pass.
pub fn flow_outcomes(circuits: &[Circuit], runs: &[Option<CircuitRun>]) -> Vec<Option<Outcome>> {
    circuits
        .iter()
        .zip(runs)
        .map(|(c, run)| {
            run.as_ref()
                .map(|r| Outcome::from_run(c.id.clone(), r, c.digest))
        })
        .collect()
}
