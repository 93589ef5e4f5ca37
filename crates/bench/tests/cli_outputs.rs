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
