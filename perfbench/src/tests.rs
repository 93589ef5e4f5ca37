use dvs_sweep::json::{self, Json};
use dvs_synth::mcnc;

use crate::expect::{digest, Checker, Outcome};
use crate::trace::{self, Ledger, PER_LAYER};
use crate::workload::{self, WORKLOADS};
use crate::{json_line, END_TO_END};

/// The first full line of `expected.txt`.
fn recorded_outcome() -> Outcome {
    let text = include_str!("../expected.txt");
    let line = text
        .lines()
        .find(|l| l.split_whitespace().count() > 2)
        .expect("expected.txt has a full line");
    Outcome::parse(line).expect("recorded line parses")
}

fn one_ulp_up(x: f64) -> f64 {
    f64::from_bits(x.to_bits() + 1)
}

#[test]
fn a_perturbed_value_is_a_failure() {
    let want = recorded_outcome();
    let mut checker = Checker::recorded();
    assert!(checker.check(Some(&want)));
    let mut got = want.clone();
    got.algos[1].power_uw = one_ulp_up(got.algos[1].power_uw);
    assert!(!checker.check(Some(&got)));
    let mut got = want.clone();
    got.digest = Some(want.digest.expect("recorded digest") ^ 1);
    assert!(!checker.check(Some(&got)));
    assert!(!checker.check(None), "a panicked scenario fails");
    assert_eq!((checker.attempted, checker.failed), (4, 3));

    // fingerprinted stimuli fail the same way
    let mut checker =
        Checker::from_text(&format!("{} {:016x}", want.id, want.fingerprint())).unwrap();
    assert!(checker.check(Some(&want)));
    let mut got = want.clone();
    got.algos[2].low_gates += 1;
    assert!(!checker.check(Some(&got)));
    assert_eq!(checker.failed, 1);
}

#[test]
fn full_lines_round_trip() {
    let want = recorded_outcome();
    assert_eq!(Outcome::parse(&want.line()).unwrap(), want);
}

#[test]
fn traced_decomposition_equals_prepare_and_run_circuit() {
    let lib = workload::library();
    let variant = workload::variant(0, 1);
    let profile = mcnc::find("x2").unwrap();
    let net = mcnc::generate_scaled(profile, &lib, 1, 0);
    let mut led = Ledger::default();

    let prepared = dvs_synth::prepare(net.clone(), &lib, variant.relax);
    let traced = trace::prepare(net, &lib, variant.relax, &mut led);
    assert_eq!(digest(&traced.network), digest(&prepared.network));
    assert_eq!(traced.tmin_ns, prepared.tmin_ns);
    assert_eq!(traced.tspec_ns, prepared.tspec_ns);

    let run = dvs_core::run_circuit("x2", &prepared, &lib, &variant.config);
    let (traced, _) = trace::run_circuit("x2", &prepared, &lib, &variant.config, &mut led);
    assert_eq!(trace::run_values(&traced), trace::run_values(&run));

    let grid = workload::grid(1, 2, 0, workload::variant(3, 0));
    let grid = dvs_sweep::Grid {
        profiles: vec![profile, mcnc::find("pcle").unwrap()],
        ..grid
    };
    let out = crate::out_path().with_file_name("test-sweep.json");
    let plain = workload::sweep_pass(&grid, &out);
    let (results, _) = trace::sweep_pass(&grid, &out, &mut led);
    let _ = std::fs::remove_file(&out);
    assert_eq!(plain.len(), 4);
    for (u, (t, _)) in plain.iter().zip(&results) {
        let u = u.as_ref().expect("no scenario panics");
        assert_eq!(trace::strip_timing(u), trace::strip_timing(t));
    }
    assert!(led.get("sweep.doc_bytes") > 0.0 && led.get("obs.spans") > 0.0);
}

fn names(doc: &Json, key: &str) -> Vec<(String, Option<String>)> {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json has no `{key}` list"))
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str).unwrap().to_string(),
                m.get("unit").and_then(Json::as_str).map(str::to_string),
            )
        })
        .collect()
}

/// The metric names and units of a printed result line.
fn printed(metrics: &[(&'static str, &'static str, f64)]) -> Vec<(String, Option<String>)> {
    let line = json_line(&Checker::from_text("").unwrap(), metrics);
    let doc = json::parse(&line).expect("the result line is JSON");
    match doc.get("metrics") {
        Some(Json::Obj(members)) => members
            .iter()
            .map(|(name, m)| {
                (
                    name.clone(),
                    m.get("unit").and_then(Json::as_str).map(str::to_string),
                )
            })
            .collect(),
        _ => panic!("no metrics object in {line}"),
    }
}

#[test]
fn printed_metric_names_match_benchmark_json() {
    let doc = json::parse(include_str!("../../BENCHMARK.json")).expect("BENCHMARK.json parses");
    let end_to_end: Vec<_> = END_TO_END.iter().map(|&(n, u)| (n, u, 1.0)).collect();
    assert_eq!(printed(&end_to_end), names(&doc, "end_to_end"));
    let per_layer = Ledger::default().metrics(1, 1.0, 1.0, 1.0);
    assert_eq!(per_layer.len(), PER_LAYER.len());
    assert_eq!(printed(&per_layer), names(&doc, "per_layer"));
    let workloads: Vec<_> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), None))
        .collect();
    assert_eq!(names(&doc, "workloads"), workloads);
}
