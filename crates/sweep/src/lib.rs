//! # dvs-sweep
//!
//! Parallel experiment-sweep engine: expands a **scenario grid** —
//! cartesian product of synthesis profiles × structural scale factor ×
//! [`ConfigVariant`]s (clock relaxation, area budget, voltage pair) ×
//! generator seeds — into a work queue, executes it on a dependency-free
//! `std::thread` worker pool with deterministic result ordering and
//! per-scenario thread-CPU timing, and serializes the results to
//! `BENCH_sweep.json` with a hand-rolled JSON writer (the container is
//! offline; no serde).
//!
//! The `dvs-sweep` CLI binary lives in `dvs-bench` (which also routes the
//! `repro_table1`/`repro_table2` reproductions through this pool); this
//! crate is the engine.
//!
//! ## Determinism contract
//!
//! Every scenario is a pure function of its grid cell: generation is
//! seeded, power simulation uses the configured fixed seed, and the pool
//! re-merges results in grid order. Consequently a `--jobs 8` run and a
//! `--jobs 1` run produce identical *measurements*; only wall/CPU-time
//! fields can differ. Rendering with `timing == false` zeroes those
//! fields, making the whole document byte-identical across worker counts
//! (that is what the CI smoke test asserts).
//!
//! ## `BENCH_sweep.json` schema (`dvs-sweep/v7`)
//!
//! ```json
//! {
//!   "schema": "dvs-sweep/v7",
//!   "timing": true,              // false when --deterministic zeroed the clocks
//!   "scenario_count": 39,
//!   "summary": {                 // means over all scenarios
//!     "avg_cvs_pct": 9.3,        // Table 1 bottom-row analogues
//!     "avg_dscale_pct": 9.4,
//!     "avg_gscale_pct": 17.0,
//!     "avg_cvs_low_ratio": 0.4,  // Table 2 bottom-row analogues
//!     "avg_dscale_low_ratio": 0.45,
//!     "avg_gscale_low_ratio": 0.7
//!   },
//!   "scenarios": [               // grid order: profile → scale → variant → seed
//!     {
//!       "id": "des.x10/paper/s0",    // {circuit}.x{scale}/{variant}/s{seed}
//!       "circuit": "des",            // profile name from the paper's tables
//!       "scale": 10,                 // structural scale factor (≥ 1)
//!       "variant": "paper",          // ConfigVariant name
//!       "seed": 0,                   // generator seed salt
//!       "gates": 27900,              // logic gates after preparation
//!       "tspec_ns": 12.3,            // timing constraint handed to the algorithms
//!       "org_pwr_uw": 16157.2,       // single-Vdd power of the prepared network
//!       "cvs":    { "power_uw": …, "improvement_pct": …, "low_gates": …,
//!                   "low_ratio": …, "converters": 0, "resized": 0,
//!                   "area_increase": …, "cpu_s": …,
//!                   "sta": { "rail_edits": …, "size_edits": …,
//!                            "converters_inserted": …, "converters_removed": …,
//!                            "sta_events": …, "full_analyses": …,
//!                            "full_power": 0, "power_resims": …,
//!                            "full_power_avoided": …,
//!                            "checkpoints": …, "rollbacks": …,
//!                            "par_tasks": …, "par_batches": … } },
//!       "dscale": { …, "converters": N, … },   // same shape as "cvs"
//!       "gscale": { …, "resized": N, … },      // same shape as "cvs"
//!       "wall_s": 1.03,              // whole-scenario wall clock
//!       "cpu_s": 0.98,               // whole-scenario per-thread CPU clock
//!       "obs": {                     // dvs-obs rollup of this scenario's thread
//!         "spans": [                 // per-span-name totals, sorted by name
//!           { "name": "gscale", "count": 1, "wall_ns": …,
//!             "self_ns": …,          // wall minus direct children
//!             "cpu_ns": … }
//!         ],
//!         "hists": [                 // log2-bucket histograms (see dvs-obs docs)
//!           { "name": "sta.events_per_change", "count": …, "sum": …,
//!             "min": …, "max": …,
//!             "buckets": [[3, 17], [4, 260], …] }  // [bucket index, count]
//!         ]
//!       },
//!       "attr": {                    // span-scoped attribution (v4)
//!         "domains": [               // sorted by domain name
//!           { "domain": "dscale.power_saved_nw",
//!             "sites": 230,          // distinct attribution sites (gates/cuts)
//!             "count": 230,          // records in this scenario's window
//!             "sum": 168696,         // total attributed value (integer units)
//!             "p50_sites": 52,       // smallest site count covering ≥50% of sum
//!             "p90_sites": 116,      // … ≥90% — concentration measure
//!             "top": [               // top 8 sites by value, name-ordered ties
//!               { "site": "x9_187", "count": 1, "sum": 2212 }
//!             ] }
//!         ]
//!       }
//!     }
//!   ]
//! }
//! ```
//!
//! `v2` added the per-algorithm `"sta"` objects — the
//! [`dvs_core::FlowCounters`] snapshot of that algorithm's phase inside
//! its [`dvs_core::FlowSession`] (edit counts, incremental-STA worklist
//! events, full analyses, checkpoints/rollbacks). A phase's
//! `full_analyses` counts only its rollbacks — the optimization hot
//! paths absorb every edit incrementally — and CI asserts it.
//!
//! `v3` added the per-scenario `"obs"` rollup: everything the scenario's
//! worker thread recorded through [`dvs_obs`] while the scenario ran —
//! `"spans"`, the span wall/self/CPU-time totals by name, and `"hists"`,
//! the log₂-bucket histogram windows. The rollup is
//! **value-deterministic**: the window only sees the one thread that ran
//! the scenario, so counts and bucket contents are independent of
//! `--jobs`; only the `*_ns` fields vary run to run, and
//! `--deterministic` zeroes them (`"timing": false`) exactly like the
//! `cpu_s`/`wall_s` columns. Session work is not mirrored into `obs`:
//! the `sta` objects are its one record. Documents written before the
//! counter and gauge kinds left `dvs-obs` also carry `"counters"` and
//! `"gauges"` objects under the same `v7` tag. [`compare`] never read
//! them, so `v7` readers are unaffected: old and new documents read
//! alike.
//!
//! `v4` added the per-scenario `"attr"` block: **span-scoped
//! attribution** — which gates, separators and edits the work went to,
//! not just how much work there was. Optimization code reports
//! `(domain, site, value)` triples through [`dvs_obs::attr_add`]; the
//! scenario's rollup window aggregates them per site. Current domains:
//!
//! | domain                  | site                                    | value               |
//! |-------------------------|-----------------------------------------|---------------------|
//! | `dscale.power_saved_nw` | demoted gate                            | gain, nanowatts     |
//! | `sta.events`            | edited gate/driver; circuit (CVS sweep) | STA worklist events |
//! | `session.edits`         | edited gate/driver                      | 1 per edit          |
//! | `flow.augmenting_paths` | `{gate}+{n}` cut id                     | augmenting paths    |
//! | `power.cone_nodes`      | circuit name                            | re-simulated nodes  |
//!
//! `sta.events` and the `sta.events_per_change` histogram cover the edits
//! the flow applies; preparation's size trials record neither, and TILOS
//! sizing records each pass's trial count in the `synth.tilos_trials`
//! histogram instead. A gate edit or converter splice records one sample
//! and one attribution of its worklist events, charged to the edited gate
//! or driver. A CVS pass is one reverse sweep and records as one change:
//! one sample and one attribution, charged to the circuit's name, of its
//! node re-timings — a required time and an arrival per live node and a
//! delay per demoted gate. Its demotions still record one `session.edits`
//! each. So per scenario the `sta_events` of the three `sta` objects, the
//! `sta.events_per_change` sum and the `sta.events` sum are one number,
//! and the `session.edits` sum equals the phases' edit counters; the
//! `record_agreement` test checks both.
//!
//! Every attribution value is an **integer** (power pre-scaled to
//! nanowatts and rounded at the recording site), so unlike the `*_ns`
//! fields the whole `attr` block is byte-identical across worker counts
//! and timing modes — it never needs zeroing, and the CI smoke asserts
//! the `--jobs 1` vs `--jobs 2` documents match byte for byte with
//! `attr` included. `p50_sites`/`p90_sites` measure concentration: the
//! smallest number of sites (taken in descending value order) covering
//! at least 50% / 90% of the domain's total — a small `p90_sites`
//! against a large `sites` means the cost is concentrated and worth
//! attacking site by site (the CLI's `--attr-summary` prints exactly
//! that view).
//!
//! `v6` added the intra-circuit parallelism fields: each `sta` object's
//! `par_tasks` / `par_batches`, the deterministic work-shape of the
//! parallel paths (Dscale candidate-scoring fan-outs and wavefront
//! power-refresh levels), plus the `pool.batch_items` histogram in the
//! `obs` rollup (one sample per batch, its length; for the wavefront
//! simulator the level-width distribution), whose `count` and `sum` are
//! the batch and task totals. All of them are pure functions of the
//! scenario's network, **not** of the thread count: the [`dvs_pool`]
//! pool records them from the calling thread on every batch, including sequential short-circuits, so a
//! `--circuit-jobs 4` document is byte-identical to a `--circuit-jobs 1`
//! document under `--deterministic` (CI asserts exactly that). The
//! nondeterministic execution split (`pool.tasks_per_worker`) is emitted
//! from the worker threads and therefore never enters a scenario rollup.
//!
//! `v7` is the last version bump: new fields are additive and do not bump
//! the version, and readers ignore unknown keys.
//!
//! All `cpu_s` fields are **per-thread** CPU seconds
//! ([`dvs_core::CpuTimer`]), so a loaded pool reports the same CPU cost as
//! a sequential baseline instead of billing descheduled time.
//!
//! ## Trajectory diffs (`--compare`)
//!
//! [`compare`] joins two sweep documents by scenario id and reports
//! per-scenario power / improvement / CPU deltas (new − old) plus ids
//! present on only one side; when both sides carry `obs` rollups it also
//! diffs the per-phase self-times. The CLI's
//! `--compare OLD.json` prints the rendered table after a sweep and exits
//! nonzero when `OLD.json` has a schema tag other than [`SCHEMA`];
//! `--gate` additionally fails the run when power or improvement moved
//! beyond tolerance ([`Comparison::gate`]) — the committed
//! `BENCH_reference.json` plus this gate is the CI measurement-regression
//! tripwire.
//!
//! ## Example
//!
//! ```
//! use dvs_sweep::{ConfigVariant, Grid};
//!
//! let grid = Grid {
//!     profiles: vec![dvs_synth::mcnc::find("x2").unwrap()],
//!     scales: vec![1, 2],
//!     variants: vec![ConfigVariant::paper()],
//!     seeds: vec![0],
//! };
//! let results = dvs_sweep::run_grid(&grid, 2, |_| {});
//! assert_eq!(results.len(), 2);
//! assert!(results[1].gates > results[0].gates);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod json;

mod compare;
mod grid;
mod progress;
mod runner;

pub use compare::{compare, AlgoDelta, Comparison, PhaseDelta, ScenarioDelta};
pub use dvs_pool::{default_jobs, run_indexed};
pub use grid::{ConfigVariant, Grid, Scenario};
pub use progress::Progress;
pub use runner::{
    mean, run_grid, run_grid_obs, run_scenario, run_scenario_obs, to_json, write_results,
    AlgoSummary, ScenarioResult, SCHEMA,
};
