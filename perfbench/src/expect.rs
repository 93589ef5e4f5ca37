//! Per-scenario deterministic outcomes and the correctness check against
//! the values recorded in `expected.txt`.
//!
//! The paper's own stimulus (variant `paper`) is recorded in full, one line
//! per scenario id, whitespace-separated:
//!
//! ```text
//! id gates tspec_ns org_pwr_uw digest  (power_uw improvement_pct low_gates converters resized) x {cvs, dscale, gscale}
//! ```
//!
//! Floats are written in Rust's shortest round-trip form, so parsing gives
//! back the exact bits and the check is exact `f64 ==`. `digest` is the
//! prepared network's FNV-1a digest ([`digest`]) in hex, or `-` when the
//! run that produced the outcome never held the prepared network (the
//! untraced sweep passes hand it to `run_grid_obs` only).
//!
//! The other stimuli are recorded as `id fingerprint`: the FNV-1a hash of
//! the full line with the digest written as `-`. Their prepared network is
//! the `paper` variant's, so their digest is checked against that line.

use std::collections::BTreeMap;

use dvs_core::{AlgoReport, CircuitRun};
use dvs_netlist::Network;
use dvs_sweep::{AlgoSummary, ScenarioResult};

/// The recorded values, compiled in so a run reads no files.
const RECORDED: &str = include_str!("../expected.txt");

/// The deterministic part of one algorithm's result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Algo {
    pub power_uw: f64,
    pub improvement_pct: f64,
    pub low_gates: usize,
    pub converters: usize,
    pub resized: usize,
}

impl From<&AlgoSummary> for Algo {
    fn from(a: &AlgoSummary) -> Self {
        Algo {
            power_uw: a.power_uw,
            improvement_pct: a.improvement_pct,
            low_gates: a.low_gates,
            converters: a.converters,
            resized: a.resized,
        }
    }
}

impl From<&AlgoReport> for Algo {
    fn from(a: &AlgoReport) -> Self {
        Algo::from(&AlgoSummary::from(a))
    }
}

/// The deterministic outcome of one scenario.
#[derive(Debug, Clone, PartialEq)]
pub struct Outcome {
    pub id: String,
    pub gates: usize,
    pub tspec_ns: f64,
    pub org_pwr_uw: f64,
    /// Prepared-network digest, when the producing run held the network.
    pub digest: Option<u64>,
    /// CVS, Dscale, Gscale.
    pub algos: [Algo; 3],
}

impl Outcome {
    pub fn from_result(r: &ScenarioResult, digest: Option<u64>) -> Self {
        Outcome {
            id: r.id.clone(),
            gates: r.gates,
            tspec_ns: r.tspec_ns,
            org_pwr_uw: r.org_pwr_uw,
            digest,
            algos: [(&r.cvs).into(), (&r.dscale).into(), (&r.gscale).into()],
        }
    }

    pub fn from_run(id: String, run: &CircuitRun, digest: u64) -> Self {
        Outcome {
            id,
            gates: run.gates,
            tspec_ns: run.tspec_ns,
            org_pwr_uw: run.org_pwr_uw,
            digest: Some(digest),
            algos: [
                (&run.cvs).into(),
                (&run.dscale).into(),
                (&run.gscale).into(),
            ],
        }
    }

    /// The full `expected.txt` line for this outcome.
    pub fn line(&self) -> String {
        let mut s = format!(
            "{} {} {:?} {:?} {}",
            self.id,
            self.gates,
            self.tspec_ns,
            self.org_pwr_uw,
            self.digest.map_or("-".to_string(), |d| format!("{d:016x}")),
        );
        for a in &self.algos {
            s += &format!(
                " {:?} {:?} {} {} {}",
                a.power_uw, a.improvement_pct, a.low_gates, a.converters, a.resized
            );
        }
        s
    }

    /// Hash of every recorded value but the digest.
    pub fn fingerprint(&self) -> u64 {
        let line = Outcome {
            digest: None,
            ..self.clone()
        }
        .line();
        fnv1a(FNV_OFFSET, line.as_bytes())
    }

    pub fn parse(line: &str) -> Result<Self, String> {
        let f: Vec<&str> = line.split_whitespace().collect();
        if f.len() != 5 + 3 * 5 {
            return Err(format!("expected 20 fields, got {}: {line}", f.len()));
        }
        let num = |i: usize| -> Result<f64, String> {
            f[i].parse()
                .map_err(|_| format!("bad number `{}` in: {line}", f[i]))
        };
        let int = |i: usize| -> Result<usize, String> {
            f[i].parse()
                .map_err(|_| format!("bad count `{}` in: {line}", f[i]))
        };
        let digest = match f[4] {
            "-" => None,
            hex => {
                Some(u64::from_str_radix(hex, 16).map_err(|_| format!("bad digest in: {line}"))?)
            }
        };
        let algo = |k: usize| -> Result<Algo, String> {
            let b = 5 + 5 * k;
            Ok(Algo {
                power_uw: num(b)?,
                improvement_pct: num(b + 1)?,
                low_gates: int(b + 2)?,
                converters: int(b + 3)?,
                resized: int(b + 4)?,
            })
        };
        Ok(Outcome {
            id: f[0].to_string(),
            gates: int(1)?,
            tspec_ns: num(2)?,
            org_pwr_uw: num(3)?,
            digest,
            algos: [algo(0)?, algo(1)?, algo(2)?],
        })
    }

    /// `Err` naming the first field where `got` differs from `self`. A
    /// digest is compared only when both sides carry one.
    pub fn check(&self, got: &Outcome) -> Result<(), String> {
        let mismatch = |what: &str, want: String, have: String| {
            Err(format!("{}: {what} is {have}, expected {want}", self.id))
        };
        if self.gates != got.gates {
            return mismatch("gates", self.gates.to_string(), got.gates.to_string());
        }
        if self.tspec_ns != got.tspec_ns {
            return mismatch(
                "tspec_ns",
                format!("{:?}", self.tspec_ns),
                format!("{:?}", got.tspec_ns),
            );
        }
        if self.org_pwr_uw != got.org_pwr_uw {
            return mismatch(
                "org_pwr_uw",
                format!("{:?}", self.org_pwr_uw),
                format!("{:?}", got.org_pwr_uw),
            );
        }
        check_digest(&self.id, self.digest, got.digest)?;
        for (name, (want, have)) in ["cvs", "dscale", "gscale"]
            .iter()
            .zip(self.algos.iter().zip(&got.algos))
        {
            if want != have {
                return mismatch(name, format!("{want:?}"), format!("{have:?}"));
            }
        }
        Ok(())
    }
}

fn check_digest(id: &str, want: Option<u64>, got: Option<u64>) -> Result<(), String> {
    match (want, got) {
        (Some(w), Some(g)) if w != g => Err(format!(
            "{id}: prepared digest is {g:016x}, expected {w:016x}"
        )),
        _ => Ok(()),
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0100_0000_01b3);
    }
    h
}

/// FNV-1a over the cell and drive size of every node, in node order
/// (primary inputs hash as a fixed marker).
pub fn digest(net: &Network) -> u64 {
    net.node_ids().fold(FNV_OFFSET, |h, id| {
        let node = net.node(id);
        if node.is_gate() {
            let h = fnv1a(h, &node.cell().0.to_le_bytes());
            fnv1a(h, &[node.size().0])
        } else {
            fnv1a(h, &[0xff; 5])
        }
    })
}

/// The id of the `paper`-variant scenario that shares `id`'s prepared
/// network: `{circuit}.x{scale}/{variant}/s{salt}` with the variant
/// replaced.
fn paper_id(id: &str) -> Option<String> {
    let mut parts = id.splitn(3, '/');
    let (circuit, _, salt) = (parts.next()?, parts.next()?, parts.next()?);
    Some(format!("{circuit}/paper/{salt}"))
}

/// What an outcome is checked against.
enum Reference {
    Full(Outcome),
    Fingerprint(u64),
}

/// Checks outcomes against their reference: the recorded values when the
/// scenario id is in `expected.txt`, otherwise the first outcome seen for
/// that id in this run (so an unrecorded salt still has to reproduce
/// itself pass after pass, between the traced and untraced runs, and
/// between one and two threads).
pub struct Checker {
    refs: BTreeMap<String, Reference>,
    pub attempted: u64,
    pub failed: u64,
}

impl Checker {
    pub fn recorded() -> Self {
        Self::from_text(RECORDED).expect("expected.txt is well-formed")
    }

    pub fn from_text(text: &str) -> Result<Self, String> {
        let mut refs = BTreeMap::new();
        for line in text.lines().filter(|l| !l.trim().is_empty()) {
            match line.split_whitespace().collect::<Vec<_>>()[..] {
                [id, hex] => {
                    let fp = u64::from_str_radix(hex, 16)
                        .map_err(|_| format!("bad fingerprint in: {line}"))?;
                    refs.insert(id.to_string(), Reference::Fingerprint(fp));
                }
                _ => {
                    let o = Outcome::parse(line)?;
                    refs.insert(o.id.clone(), Reference::Full(o));
                }
            }
        }
        Ok(Checker {
            refs,
            attempted: 0,
            failed: 0,
        })
    }

    pub fn is_recorded(&self, id: &str) -> bool {
        self.refs.contains_key(id)
    }

    fn verdict(&mut self, got: &Outcome) -> Result<(), String> {
        match self.refs.get_mut(&got.id) {
            Some(Reference::Full(want)) => {
                want.check(got)?;
                if want.digest.is_none() {
                    want.digest = got.digest;
                }
                Ok(())
            }
            Some(Reference::Fingerprint(fp)) => {
                if got.fingerprint() != *fp {
                    return Err(format!(
                        "{}: values differ from the recorded fingerprint",
                        got.id
                    ));
                }
                match paper_id(&got.id).and_then(|p| self.refs.get(&p)) {
                    Some(Reference::Full(paper)) => check_digest(&got.id, paper.digest, got.digest),
                    _ => Ok(()),
                }
            }
            None => {
                self.refs
                    .insert(got.id.clone(), Reference::Full(got.clone()));
                Ok(())
            }
        }
    }

    /// Counts one attempted scenario; `None` is a scenario that panicked.
    /// Returns whether it passed.
    pub fn check(&mut self, got: Option<&Outcome>) -> bool {
        self.attempted += 1;
        let verdict = match got {
            None => Err("scenario panicked".to_string()),
            Some(got) => self.verdict(got),
        };
        if let Err(e) = &verdict {
            self.fail(e);
        }
        verdict.is_ok()
    }

    /// Counts a failure found outside [`Checker::check`].
    pub fn fail(&mut self, why: &str) {
        eprintln!("dvs-perfbench: FAILED {why}");
        self.failed += 1;
    }
}
