//! Post-hoc invariant auditing of dual-Vdd assignments.

use std::error::Error;
use std::fmt;

use dvs_celllib::Library;
use dvs_netlist::Network;
use dvs_power::dc_leakage;
use dvs_sta::Timing;

/// An invariant violation found by [`audit`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum AuditError {
    /// The network structure itself is broken.
    Structure(String),
    /// Some primary output misses the timing constraint.
    Timing {
        /// Worst negative slack in picoseconds (rounded).
        worst_slack_ps: i64,
    },
    /// A low-Vdd gate drives a high-Vdd gate without level restoration.
    DrivingIncompatibility {
        /// Number of unrestored crossings.
        crossings: usize,
    },
    /// Converters exist although the regime forbids them (CVS / Gscale).
    UnexpectedConverters {
        /// How many were found.
        count: usize,
    },
}

impl fmt::Display for AuditError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AuditError::Structure(msg) => write!(f, "broken network structure: {msg}"),
            AuditError::Timing { worst_slack_ps } => {
                write!(f, "timing violated: worst slack {worst_slack_ps} ps")
            }
            AuditError::DrivingIncompatibility { crossings } => {
                write!(f, "{crossings} unrestored low-to-high crossings")
            }
            AuditError::UnexpectedConverters { count } => {
                write!(
                    f,
                    "{count} converters in a clustered (converter-free) regime"
                )
            }
        }
    }
}

impl Error for AuditError {}

/// Checks every invariant a dual-Vdd assignment must uphold:
///
/// * structural sanity (acyclic, consistent fanouts, known cells);
/// * the timing constraint at every primary output;
/// * driving compatibility — no low→high edge without a converter;
/// * `allow_converters = false` additionally demands a converter-free
///   network (the CVS/Gscale clustered regime).
///
/// # Errors
///
/// Returns the first violated invariant.
pub fn audit(
    net: &Network,
    lib: &Library,
    tspec_ns: f64,
    allow_converters: bool,
) -> Result<(), AuditError> {
    net.validate(Some(lib))
        .map_err(|e| AuditError::Structure(e.to_string()))?;
    let timing = Timing::analyze(net, lib, tspec_ns);
    let worst = timing.worst_po_slack(net);
    if worst < -1e-6 {
        return Err(AuditError::Timing {
            worst_slack_ps: (worst * 1000.0).round() as i64,
        });
    }
    let crossings = dc_leakage::crossings(net);
    if !crossings.is_empty() {
        return Err(AuditError::DrivingIncompatibility {
            crossings: crossings.len(),
        });
    }
    if !allow_converters && net.converter_count() > 0 {
        return Err(AuditError::UnexpectedConverters {
            count: net.converter_count(),
        });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use dvs_celllib::{compass, VoltagePair};
    use dvs_netlist::Rail;

    fn lib() -> Library {
        compass::compass_library(VoltagePair::default())
    }

    fn two_stage(lib: &Library) -> (Network, dvs_netlist::NodeId, dvs_netlist::NodeId) {
        let inv = lib.find("INV").unwrap();
        let mut net = Network::new("a");
        let a = net.add_input("a");
        let g1 = net.add_gate("g1", inv, &[a]);
        let g2 = net.add_gate("g2", inv, &[g1]);
        net.add_output("y", g2);
        (net, g1, g2)
    }

    #[test]
    fn clean_network_passes() {
        let lib = lib();
        let (net, _, _) = two_stage(&lib);
        assert!(audit(&net, &lib, 10.0, false).is_ok());
    }

    #[test]
    fn timing_violation_detected() {
        let lib = lib();
        let (net, _, _) = two_stage(&lib);
        let err = audit(&net, &lib, 0.01, false).unwrap_err();
        assert!(matches!(err, AuditError::Timing { .. }));
        assert!(err.to_string().contains("timing"));
    }

    #[test]
    fn crossing_detected() {
        let lib = lib();
        let (mut net, g1, _) = two_stage(&lib);
        net.set_rail(g1, Rail::Low);
        let err = audit(&net, &lib, 10.0, true).unwrap_err();
        assert!(matches!(
            err,
            AuditError::DrivingIncompatibility { crossings: 1 }
        ));
    }

    #[test]
    fn restored_crossing_passes_when_converters_allowed() {
        let lib = lib();
        let (mut net, g1, g2) = two_stage(&lib);
        net.set_rail(g1, Rail::Low);
        net.insert_converter(g1, &[g2], false, lib.converter())
            .unwrap();
        assert!(audit(&net, &lib, 10.0, true).is_ok());
        let err = audit(&net, &lib, 10.0, false).unwrap_err();
        assert!(matches!(err, AuditError::UnexpectedConverters { count: 1 }));
    }
}
