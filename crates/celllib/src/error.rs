use std::error::Error;
use std::fmt;

/// Errors raised while assembling a [`crate::Library`].
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum LibraryError {
    /// Two cell families share a name.
    DuplicateCell {
        /// The duplicated family name.
        name: String,
    },
    /// The builder was finalised without a level-converter cell.
    MissingConverter,
    /// A numeric attribute was non-positive or otherwise out of range.
    BadAttribute {
        /// Cell the attribute belongs to.
        cell: String,
        /// Description of the violation.
        message: String,
    },
    /// The low rail does not exceed the alpha-power threshold voltage, so a
    /// low-Vdd gate would never switch.
    RailBelowThreshold {
        /// Description of the violation.
        message: String,
    },
}

impl fmt::Display for LibraryError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LibraryError::DuplicateCell { name } => {
                write!(f, "duplicate cell family `{name}`")
            }
            LibraryError::MissingConverter => {
                write!(f, "library has no level-converter cell")
            }
            LibraryError::BadAttribute { cell, message } => {
                write!(f, "bad attribute on `{cell}`: {message}")
            }
            LibraryError::RailBelowThreshold { message } => write!(f, "{message}"),
        }
    }
}

impl Error for LibraryError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display() {
        let e = LibraryError::DuplicateCell {
            name: "NAND2".into(),
        };
        assert!(e.to_string().contains("NAND2"));
        assert!(LibraryError::MissingConverter
            .to_string()
            .contains("converter"));
    }
}
