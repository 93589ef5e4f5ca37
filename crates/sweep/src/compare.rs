//! Trajectory diff between two sweep result documents — the engine behind
//! `dvs-sweep --compare OLD.json`.
//!
//! Joins the scenarios of an old and a new `BENCH_sweep.json` by id and
//! reports per-scenario power / improvement / runtime deltas (new − old),
//! plus ids present on only one side. Both documents must carry a schema
//! tag this crate can read ([`READABLE_SCHEMAS`]) — anything else is an
//! error, which the CLI turns into a nonzero exit.
//!
//! When both sides carry per-scenario `obs` objects, the diff
//! additionally reports per-phase **self-time** deltas
//! from the span rollups, so a "Gscale got 2× slower" regression is
//! visible next to the power columns it did not move. The measurement
//! gate ([`Comparison::gate`]) never consumes those timing deltas — CI
//! machines are too noisy for wall-clock gating — only power and
//! improvement, which are deterministic.

use std::collections::{BTreeMap, HashMap};
use std::fmt::Write as _;

use crate::json::Json;

/// Schema tags [`compare`] can read. `v7` differs from `v6` only in
/// counters the diff does not consume (`sta.hot_rebuilds`,
/// `sta.rebuilds_avoided` and the `session.*` entries of `obs.counters`),
/// so the two mix freely.
pub const READABLE_SCHEMAS: [&str; 2] = ["dvs-sweep/v6", "dvs-sweep/v7"];

/// Per-algorithm deltas of one scenario, new − old.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct AlgoDelta {
    /// Post-algorithm power delta, µW.
    pub power_uw: f64,
    /// Improvement-percentage delta, percentage points.
    pub improvement_pct: f64,
    /// Algorithm CPU-seconds delta.
    pub cpu_s: f64,
}

/// Self-time movement of one span name between two `obs` rollups.
#[derive(Debug, Clone, PartialEq)]
pub struct PhaseDelta {
    /// Span name, e.g. `gscale` or `dscale.iter`.
    pub name: String,
    /// Span-count delta, new − old.
    pub count: i64,
    /// Self-time delta in nanoseconds, new − old. Zero whenever either
    /// document was rendered with `--deterministic` (timing stripped).
    pub self_ns: i64,
}

/// All deltas of one scenario present in both documents, new − old.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioDelta {
    /// Scenario id, e.g. `des.x10/paper/s0`.
    pub id: String,
    /// CVS deltas.
    pub cvs: AlgoDelta,
    /// Dscale deltas.
    pub dscale: AlgoDelta,
    /// Gscale deltas.
    pub gscale: AlgoDelta,
    /// Whole-scenario CPU-seconds delta.
    pub cpu_s: f64,
    /// Per-phase self-time deltas from the `obs` span rollups, sorted by
    /// span name. Empty unless **both** documents carry an `obs` object
    /// for this scenario.
    pub phases: Vec<PhaseDelta>,
}

/// The joined result of [`compare`].
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    /// Schema tag of the old document.
    pub old_schema: String,
    /// Schema tag of the new document.
    pub new_schema: String,
    /// Deltas for scenarios present in both documents, in the new
    /// document's order.
    pub deltas: Vec<ScenarioDelta>,
    /// Scenario ids only the old document has.
    pub only_old: Vec<String>,
    /// Scenario ids only the new document has.
    pub only_new: Vec<String>,
}

impl Comparison {
    /// Largest absolute post-algorithm power delta across all shared
    /// scenarios and algorithms, µW. `0.0` when nothing is shared — the
    /// quick "did the measurements move?" scalar.
    pub fn max_abs_power_delta_uw(&self) -> f64 {
        self.deltas
            .iter()
            .flat_map(|d| [d.cvs.power_uw, d.dscale.power_uw, d.gscale.power_uw])
            .fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Largest absolute improvement-percentage delta (percentage points)
    /// across all shared scenarios and algorithms. `0.0` when nothing is
    /// shared.
    pub fn max_abs_improvement_delta_pp(&self) -> f64 {
        self.deltas
            .iter()
            .flat_map(|d| {
                [
                    d.cvs.improvement_pct,
                    d.dscale.improvement_pct,
                    d.gscale.improvement_pct,
                ]
            })
            .fold(0.0, |m, v| m.max(v.abs()))
    }

    /// Per-phase self-time deltas summed over every shared scenario,
    /// sorted by span name — the cross-run "where did the time move?"
    /// readout. Empty when no scenario pair carried `obs` rollups.
    pub fn phase_totals(&self) -> Vec<PhaseDelta> {
        let mut totals: BTreeMap<&str, (i64, i64)> = BTreeMap::new();
        for d in &self.deltas {
            for p in &d.phases {
                let t = totals.entry(p.name.as_str()).or_insert((0, 0));
                t.0 += p.count;
                t.1 += p.self_ns;
            }
        }
        totals
            .into_iter()
            .map(|(name, (count, self_ns))| PhaseDelta {
                name: name.to_owned(),
                count,
                self_ns,
            })
            .collect()
    }

    /// The measurement-regression gate behind `dvs-sweep --gate`: errs
    /// when any shared scenario moved an algorithm's power by more than
    /// `power_tol_uw` µW or its improvement by more than
    /// `improvement_tol_pp` percentage points, or when the scenario sets
    /// differ at all (a silently dropped scenario must not pass CI).
    /// Timing fields are never gated — only the deterministic
    /// measurements.
    pub fn gate(&self, power_tol_uw: f64, improvement_tol_pp: f64) -> Result<(), String> {
        let mut problems = Vec::new();
        if !self.only_old.is_empty() {
            problems.push(format!(
                "scenarios disappeared: {}",
                self.only_old.join(", ")
            ));
        }
        if !self.only_new.is_empty() {
            problems.push(format!("scenarios appeared: {}", self.only_new.join(", ")));
        }
        let dp = self.max_abs_power_delta_uw();
        if dp > power_tol_uw {
            problems.push(format!(
                "max |dPower| {dp:.6} uW exceeds tolerance {power_tol_uw:.6} uW"
            ));
        }
        let di = self.max_abs_improvement_delta_pp();
        if di > improvement_tol_pp {
            problems.push(format!(
                "max |dImprovement| {di:.6} pp exceeds tolerance {improvement_tol_pp:.6} pp"
            ));
        }
        if problems.is_empty() {
            Ok(())
        } else {
            Err(problems.join("; "))
        }
    }

    /// Renders the diff as an aligned text table (one line per shared
    /// scenario, then the one-sided ids, then the max-|Δpower| summary).
    pub fn render(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "trajectory diff ({} -> {}): {} shared scenario(s)",
            self.old_schema,
            self.new_schema,
            self.deltas.len()
        );
        let _ = writeln!(
            out,
            "  {:<28} {:>9} {:>9} {:>9} {:>13} {:>9}",
            "scenario", "dCVS pp", "dDsc pp", "dGsc pp", "dGsc uW", "dCPU s"
        );
        for d in &self.deltas {
            let _ = writeln!(
                out,
                "  {:<28} {:>+9.3} {:>+9.3} {:>+9.3} {:>+13.3} {:>+9.2}",
                d.id,
                d.cvs.improvement_pct,
                d.dscale.improvement_pct,
                d.gscale.improvement_pct,
                d.gscale.power_uw,
                d.cpu_s,
            );
        }
        for id in &self.only_old {
            let _ = writeln!(out, "  only in old: {id}");
        }
        for id in &self.only_new {
            let _ = writeln!(out, "  only in new: {id}");
        }
        let phases = self.phase_totals();
        if !phases.is_empty() {
            let _ = writeln!(
                out,
                "  phase self-time movement (summed over shared scenarios):"
            );
            for p in &phases {
                let _ = writeln!(
                    out,
                    "    {:<24} d(count) {:>+8} d(self) {:>+12.3} ms",
                    p.name,
                    p.count,
                    p.self_ns as f64 / 1e6,
                );
            }
        }
        let _ = writeln!(
            out,
            "  max |dPower| across shared scenarios: {:.6} uW",
            self.max_abs_power_delta_uw()
        );
        out
    }
}

fn num(obj: &Json, key: &str, ctx: &str) -> Result<f64, String> {
    obj.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("{ctx}: missing numeric `{key}`"))
}

fn algo_delta(old: &Json, new: &Json, name: &str, id: &str) -> Result<AlgoDelta, String> {
    let pick = |doc: &Json, side: &str| -> Result<(f64, f64, f64), String> {
        let ctx = format!("{side} scenario `{id}`.{name}");
        let a = doc
            .get(name)
            .ok_or_else(|| format!("{ctx}: missing object"))?;
        Ok((
            num(a, "power_uw", &ctx)?,
            num(a, "improvement_pct", &ctx)?,
            num(a, "cpu_s", &ctx)?,
        ))
    };
    let o = pick(old, "old")?;
    let n = pick(new, "new")?;
    Ok(AlgoDelta {
        power_uw: n.0 - o.0,
        improvement_pct: n.1 - o.1,
        cpu_s: n.2 - o.2,
    })
}

/// Span-name → `(count, self_ns)` from a scenario's `obs.spans` rollup.
/// `None` when the scenario has no structurally sound `obs` object.
fn phases_of(sc: &Json) -> Option<BTreeMap<String, (i64, i64)>> {
    let spans = sc.get("obs")?.get("spans")?.as_array()?;
    let mut map = BTreeMap::new();
    for s in spans {
        let name = s.get("name").and_then(Json::as_str)?.to_owned();
        let count = s.get("count").and_then(Json::as_f64)? as i64;
        let self_ns = s.get("self_ns").and_then(Json::as_f64)? as i64;
        map.insert(name, (count, self_ns));
    }
    Some(map)
}

fn phase_deltas(old: &Json, new: &Json) -> Vec<PhaseDelta> {
    let (Some(o), Some(n)) = (phases_of(old), phases_of(new)) else {
        return Vec::new();
    };
    let names: std::collections::BTreeSet<&String> = o.keys().chain(n.keys()).collect();
    names
        .into_iter()
        .map(|name| {
            let (oc, os) = o.get(name).copied().unwrap_or((0, 0));
            let (nc, ns) = n.get(name).copied().unwrap_or((0, 0));
            PhaseDelta {
                name: name.clone(),
                count: nc - oc,
                self_ns: ns - os,
            }
        })
        .collect()
}

fn schema_of(doc: &Json, which: &str) -> Result<String, String> {
    let s = doc
        .get("schema")
        .and_then(Json::as_str)
        .ok_or_else(|| format!("{which} document has no `schema` string"))?;
    if !READABLE_SCHEMAS.contains(&s) {
        return Err(format!(
            "{which} document has unsupported schema `{s}` (can read: {})",
            READABLE_SCHEMAS.join(", ")
        ));
    }
    Ok(s.to_owned())
}

fn scenarios_of<'a>(doc: &'a Json, which: &str) -> Result<Vec<(String, &'a Json)>, String> {
    let arr = doc
        .get("scenarios")
        .and_then(Json::as_array)
        .ok_or_else(|| format!("{which} document has no `scenarios` array"))?;
    arr.iter()
        .enumerate()
        .map(|(i, sc)| {
            let id = sc
                .get("id")
                .and_then(Json::as_str)
                .ok_or_else(|| format!("{which} scenario #{i} has no `id` string"))?;
            Ok((id.to_owned(), sc))
        })
        .collect()
}

/// Diffs two parsed sweep documents. Scenarios are joined by id; deltas
/// are new − old in the new document's order. Errs on unreadable schema
/// tags or structurally broken documents.
pub fn compare(old: &Json, new: &Json) -> Result<Comparison, String> {
    let old_schema = schema_of(old, "old")?;
    let new_schema = schema_of(new, "new")?;
    let old_scs = scenarios_of(old, "old")?;
    let new_scs = scenarios_of(new, "new")?;
    let old_by_id: HashMap<&str, &Json> =
        old_scs.iter().map(|(id, sc)| (id.as_str(), *sc)).collect();
    let new_ids: std::collections::HashSet<&str> =
        new_scs.iter().map(|(id, _)| id.as_str()).collect();

    let mut deltas = Vec::new();
    for (id, new_sc) in &new_scs {
        let Some(old_sc) = old_by_id.get(id.as_str()) else {
            continue;
        };
        let ctx = format!("scenario `{id}`");
        deltas.push(ScenarioDelta {
            id: id.clone(),
            cvs: algo_delta(old_sc, new_sc, "cvs", id)?,
            dscale: algo_delta(old_sc, new_sc, "dscale", id)?,
            gscale: algo_delta(old_sc, new_sc, "gscale", id)?,
            cpu_s: num(new_sc, "cpu_s", &ctx)? - num(old_sc, "cpu_s", &ctx)?,
            phases: phase_deltas(old_sc, new_sc),
        });
    }
    Ok(Comparison {
        old_schema,
        new_schema,
        deltas,
        only_old: old_scs
            .iter()
            .filter(|(id, _)| !new_ids.contains(id.as_str()))
            .map(|(id, _)| id.clone())
            .collect(),
        only_new: new_scs
            .iter()
            .filter(|(id, _)| !old_by_id.contains_key(id.as_str()))
            .map(|(id, _)| id.clone())
            .collect(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn algo(power: f64, pct: f64, cpu: f64) -> Json {
        Json::obj(vec![
            ("power_uw", Json::Num(power)),
            ("improvement_pct", Json::Num(pct)),
            ("cpu_s", Json::Num(cpu)),
        ])
    }

    fn scenario(id: &str, power: f64) -> Json {
        Json::obj(vec![
            ("id", Json::Str(id.into())),
            ("cvs", algo(power, 10.0, 0.5)),
            ("dscale", algo(power - 1.0, 11.0, 0.6)),
            ("gscale", algo(power - 2.0, 12.0, 0.7)),
            ("cpu_s", Json::Num(2.0)),
        ])
    }

    fn doc(schema: &str, scenarios: Vec<Json>) -> Json {
        Json::obj(vec![
            ("schema", Json::Str(schema.into())),
            ("scenarios", Json::Arr(scenarios)),
        ])
    }

    #[test]
    fn joins_by_id_and_reports_deltas_and_orphans() {
        let old = doc(
            "dvs-sweep/v6",
            vec![scenario("a/s0", 100.0), scenario("gone/s0", 50.0)],
        );
        let new = doc(
            "dvs-sweep/v7",
            vec![scenario("a/s0", 90.0), scenario("fresh/s0", 10.0)],
        );
        let cmp = compare(&old, &new).expect("well-formed documents");
        assert_eq!(cmp.old_schema, "dvs-sweep/v6");
        assert_eq!(cmp.new_schema, "dvs-sweep/v7");
        assert_eq!(cmp.deltas.len(), 1);
        let d = &cmp.deltas[0];
        assert_eq!(d.id, "a/s0");
        assert!((d.cvs.power_uw + 10.0).abs() < 1e-12);
        assert!((d.gscale.power_uw + 10.0).abs() < 1e-12);
        assert!(d.cvs.improvement_pct.abs() < 1e-12);
        assert!(d.cpu_s.abs() < 1e-12);
        assert_eq!(cmp.only_old, vec!["gone/s0".to_owned()]);
        assert_eq!(cmp.only_new, vec!["fresh/s0".to_owned()]);
        assert!((cmp.max_abs_power_delta_uw() - 10.0).abs() < 1e-12);
        let text = cmp.render();
        assert!(text.contains("a/s0"), "{text}");
        assert!(text.contains("only in old: gone/s0"), "{text}");
        assert!(text.contains("only in new: fresh/s0"), "{text}");
    }

    fn obs(spans: Vec<(&str, u64, u64)>) -> Json {
        Json::obj(vec![(
            "spans",
            Json::Arr(
                spans
                    .into_iter()
                    .map(|(n, c, s)| {
                        Json::obj(vec![
                            ("name", Json::Str(n.into())),
                            ("count", Json::UInt(c)),
                            ("wall_ns", Json::UInt(s)),
                            ("self_ns", Json::UInt(s)),
                            ("cpu_ns", Json::UInt(s)),
                        ])
                    })
                    .collect(),
            ),
        )])
    }

    fn with_obs(mut sc: Json, o: Json) -> Json {
        if let Json::Obj(members) = &mut sc {
            members.push(("obs".to_owned(), o));
        }
        sc
    }

    #[test]
    fn v7_documents_are_readable_and_mix_with_v6() {
        let old = doc("dvs-sweep/v6", vec![scenario("a/s0", 100.0)]);
        let new = doc("dvs-sweep/v7", vec![scenario("a/s0", 99.0)]);
        let cmp = compare(&old, &new).expect("v6 vs v7 must join");
        assert_eq!(cmp.deltas.len(), 1);
        assert_eq!(cmp.new_schema, "dvs-sweep/v7");
        // pre-v6 documents are no longer readable
        let v5 = doc("dvs-sweep/v5", vec![]);
        assert!(compare(&v5, &new).is_err());
    }

    #[test]
    fn obs_documents_diff_phase_self_times() {
        let old = doc(
            "dvs-sweep/v6",
            vec![with_obs(
                scenario("a/s0", 100.0),
                obs(vec![("cvs", 1, 1_000_000), ("gscale", 2, 5_000_000)]),
            )],
        );
        let new = doc(
            "dvs-sweep/v7",
            vec![with_obs(
                scenario("a/s0", 100.0),
                obs(vec![("cvs", 1, 3_000_000), ("dscale", 1, 700_000)]),
            )],
        );
        let cmp = compare(&old, &new).expect("well-formed documents");
        let phases = &cmp.deltas[0].phases;
        let by_name: Vec<(&str, i64, i64)> = phases
            .iter()
            .map(|p| (p.name.as_str(), p.count, p.self_ns))
            .collect();
        assert_eq!(
            by_name,
            [
                ("cvs", 0, 2_000_000),
                ("dscale", 1, 700_000),
                ("gscale", -2, -5_000_000),
            ]
        );
        assert_eq!(cmp.phase_totals(), *phases);
        let text = cmp.render();
        assert!(text.contains("phase self-time movement"), "{text}");
        assert!(text.contains("gscale"), "{text}");
    }

    #[test]
    fn documents_without_obs_yield_empty_phase_deltas() {
        let old = doc("dvs-sweep/v7", vec![scenario("a/s0", 100.0)]);
        let new = doc(
            "dvs-sweep/v7",
            vec![with_obs(scenario("a/s0", 100.0), obs(vec![("cvs", 1, 5)]))],
        );
        let cmp = compare(&old, &new).expect("obs is optional");
        assert!(cmp.deltas[0].phases.is_empty());
        assert!(cmp.phase_totals().is_empty());
        assert!(!cmp.render().contains("phase self-time movement"));
    }

    #[test]
    fn gate_passes_within_tolerance_and_fails_beyond() {
        let old = doc("dvs-sweep/v7", vec![scenario("a/s0", 100.0)]);
        let new = doc("dvs-sweep/v7", vec![scenario("a/s0", 100.5)]);
        let cmp = compare(&old, &new).unwrap();
        assert!(cmp.gate(1.0, 1.0).is_ok());
        let err = cmp.gate(0.1, 1.0).unwrap_err();
        assert!(err.contains("dPower"), "{err}");

        // improvement gating is independent of power gating
        let drifted = doc(
            "dvs-sweep/v7",
            vec![Json::obj(vec![
                ("id", Json::Str("a/s0".into())),
                ("cvs", algo(100.0, 15.0, 0.5)),
                ("dscale", algo(99.0, 11.0, 0.6)),
                ("gscale", algo(98.0, 12.0, 0.7)),
                ("cpu_s", Json::Num(2.0)),
            ])],
        );
        let cmp = compare(&old, &drifted).unwrap();
        let err = cmp.gate(1e9, 1.0).unwrap_err();
        assert!(err.contains("dImprovement"), "{err}");

        // a lost scenario can never pass, whatever the tolerances
        let empty = doc("dvs-sweep/v7", vec![]);
        let cmp = compare(&old, &empty).unwrap();
        let err = cmp.gate(1e9, 1e9).unwrap_err();
        assert!(err.contains("disappeared"), "{err}");
    }

    #[test]
    fn identical_documents_diff_to_zero() {
        let d = doc("dvs-sweep/v7", vec![scenario("a/s0", 100.0)]);
        let cmp = compare(&d, &d).expect("well-formed");
        assert_eq!(cmp.max_abs_power_delta_uw(), 0.0);
        assert!(cmp.only_old.is_empty() && cmp.only_new.is_empty());
    }

    #[test]
    fn unknown_schema_is_an_error() {
        let good = doc("dvs-sweep/v7", vec![]);
        let bad = doc("dvs-sweep/v99", vec![]);
        let err = compare(&bad, &good).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        let err = compare(&good, &bad).unwrap_err();
        assert!(err.contains("unsupported schema"), "{err}");
        let no_tag = Json::obj(vec![("scenarios", Json::Arr(vec![]))]);
        assert!(compare(&no_tag, &good).is_err());
    }

    #[test]
    fn structurally_broken_scenarios_are_errors() {
        let good = doc("dvs-sweep/v7", vec![scenario("a/s0", 1.0)]);
        let missing_algo = doc(
            "dvs-sweep/v7",
            vec![Json::obj(vec![
                ("id", Json::Str("a/s0".into())),
                ("cpu_s", Json::Num(1.0)),
            ])],
        );
        assert!(compare(&good, &missing_algo).is_err());
        let no_id = doc("dvs-sweep/v7", vec![Json::obj(vec![])]);
        assert!(compare(&good, &no_id).is_err());
    }
}
