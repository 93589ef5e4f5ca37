//! `dvs-sweep` checks every output path before the first scenario runs,
//! so a mistyped path fails at once instead of discarding a finished
//! sweep.

use std::process::{Command, Output};

fn dvs_sweep(args: &[&str]) -> Output {
    Command::new(env!("CARGO_BIN_EXE_dvs-sweep"))
        .args(args)
        .output()
        .expect("dvs-sweep runs")
}

/// The per-scenario result line the CLI logs when the progress meter is
/// off (always the case with stderr captured).
fn ran_a_scenario(stderr: &str) -> bool {
    stderr.lines().any(|l| l.contains(" gates  cvs "))
}

#[test]
fn unwritable_out_fails_before_the_sweep() {
    let out = dvs_sweep(&["--profiles", "smallest", "--out", "/nonexistent-dir/x.json"]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(stderr.contains("/nonexistent-dir/x.json"), "{stderr}");
    assert!(!ran_a_scenario(&stderr), "a scenario ran:\n{stderr}");
}

#[test]
fn unwritable_folded_out_leaves_an_existing_document_intact() {
    let doc = std::env::temp_dir().join(format!("dvs_sweep_cli_{}.json", std::process::id()));
    std::fs::write(&doc, "earlier sweep\n").unwrap();
    let out = dvs_sweep(&[
        "--profiles",
        "smallest",
        "--out",
        doc.to_str().unwrap(),
        "--folded-out",
        "/nonexistent-dir/x.folded",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let kept = std::fs::read_to_string(&doc).unwrap();
    std::fs::remove_file(&doc).ok();
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(stderr.contains("/nonexistent-dir/x.folded"), "{stderr}");
    assert!(!ran_a_scenario(&stderr), "a scenario ran:\n{stderr}");
    assert_eq!(kept, "earlier sweep\n", "probing --out truncated it");
}

#[test]
fn unwritable_folded_out_leaves_no_empty_document() {
    let doc = std::env::temp_dir().join(format!("dvs_sweep_cli_new_{}.json", std::process::id()));
    std::fs::remove_file(&doc).ok();
    let out = dvs_sweep(&[
        "--profiles",
        "smallest",
        "--out",
        doc.to_str().unwrap(),
        "--folded-out",
        "/nonexistent-dir/x.folded",
    ]);
    let stderr = String::from_utf8_lossy(&out.stderr);
    let left = doc.exists();
    std::fs::remove_file(&doc).ok();
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert!(stderr.contains("/nonexistent-dir/x.folded"), "{stderr}");
    assert!(!left, "probing --out left {} behind", doc.display());
}

/// A sweep that aborts leaves an existing trace file as it was: the trace
/// path is probed up front like `--out`, and written only after the sweep.
/// The abort here is a scenario that fails Dscale's timing audit (C499 at
/// scale 10 under salt 1, a known Dscale defect); once that defect is
/// fixed, an injected scenario panic must take its place as the trigger.
#[test]
fn aborted_sweep_leaves_an_existing_trace_intact() {
    let dir = std::env::temp_dir();
    let pid = std::process::id();
    let trace = dir.join(format!("dvs_sweep_cli_trace_{pid}.json"));
    let doc = dir.join(format!("dvs_sweep_cli_abort_{pid}.json"));
    std::fs::write(&trace, "earlier trace\n").unwrap();
    std::fs::remove_file(&doc).ok();
    let out = dvs_sweep(&[
        "--profiles",
        "C499",
        "--scale",
        "10",
        "--seeds",
        "1",
        "--out",
        doc.to_str().unwrap(),
        "--trace-out",
        trace.to_str().unwrap(),
    ]);
    let kept = std::fs::read_to_string(&trace).unwrap();
    std::fs::remove_file(&trace).ok();
    std::fs::remove_file(&doc).ok();
    assert!(!out.status.success(), "exit status {:?}", out.status);
    assert_eq!(
        kept, "earlier trace\n",
        "the aborted sweep truncated --trace-out"
    );
}
