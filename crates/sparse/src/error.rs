//! Error type shared by all format constructors and I/O routines.

use std::fmt;

/// Errors raised by format construction, conversion, and Matrix Market I/O.
#[derive(Debug)]
pub enum SparseError {
    /// An entry's row or column index lies outside the declared shape.
    IndexOutOfBounds {
        row: usize,
        col: usize,
        rows: usize,
        cols: usize,
    },
    /// CSR structural invariant violated (offsets not monotone, lengths
    /// inconsistent, ...). The string names the violated invariant.
    InvalidStructure(String),
    /// The target format cannot represent this matrix within the requested
    /// resource bound — e.g. ELL width explosion or DIA diagonal count.
    /// Corresponds to the ∅ cells of the paper's Tables III/IV.
    CapacityExceeded {
        format: &'static str,
        detail: String,
    },
    /// A bounded auto-tuning sweep stopped early because the format can
    /// no longer win: after `trials` of its `space` trials, the charged
    /// preprocessing alone (`lower_bound_s`, a lower bound on the
    /// format's total) already exceeds the incumbent format's modeled
    /// total. The format may well represent the matrix.
    Pruned {
        format: &'static str,
        trials: u32,
        space: usize,
        lower_bound_s: f64,
        incumbent: &'static str,
        incumbent_total_s: f64,
    },
    /// Matrix Market parse failure at `line`.
    Parse { line: usize, detail: String },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::IndexOutOfBounds {
                row,
                col,
                rows,
                cols,
            } => write!(f, "entry ({row}, {col}) outside matrix shape {rows}x{cols}"),
            SparseError::InvalidStructure(s) => write!(f, "invalid sparse structure: {s}"),
            SparseError::CapacityExceeded { format, detail } => {
                write!(f, "{format} cannot represent this matrix: {detail}")
            }
            SparseError::Pruned {
                format,
                trials,
                space,
                lower_bound_s,
                incumbent,
                incumbent_total_s,
            } => write!(
                f,
                "{format} pruned after {trials} of {space} tuning trials: charged \
                 preprocessing {lower_bound_s} s already exceeds {incumbent}'s total \
                 {incumbent_total_s} s"
            ),
            SparseError::Parse { line, detail } => {
                write!(f, "matrix market parse error at line {line}: {detail}")
            }
            SparseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SparseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages_are_informative() {
        let e = SparseError::IndexOutOfBounds {
            row: 9,
            col: 3,
            rows: 4,
            cols: 4,
        };
        let msg = e.to_string();
        assert!(msg.contains("(9, 3)") && msg.contains("4x4"));

        let e = SparseError::CapacityExceeded {
            format: "ELL",
            detail: "width 10000 over budget".into(),
        };
        assert!(e.to_string().contains("ELL"));

        let e = SparseError::Pruned {
            format: "BCCOO",
            trials: 1,
            space: 320,
            lower_bound_s: 2.5,
            incumbent: "ACSR",
            incumbent_total_s: 1.25,
        };
        let msg = e.to_string();
        assert!(msg.starts_with("BCCOO pruned after 1 of 320 tuning trials"));
        assert!(msg.ends_with("preprocessing 2.5 s already exceeds ACSR's total 1.25 s"));
    }

    #[test]
    fn io_error_round_trips_through_source() {
        use std::error::Error;
        let e: SparseError = std::io::Error::new(std::io::ErrorKind::NotFound, "gone").into();
        assert!(e.source().is_some());
    }
}
