//! The unified experiment-driver error type.

use sqip_core::SimError;
use sqip_isa::IsaError;

/// Everything that can go wrong while building, running, or exporting an
/// experiment.
///
/// This is the facade's unified error: workload generation failures
/// ([`IsaError`]), simulation failures ([`SimError`]) tagged with the
/// sweep cell that produced them, experiment-shape mistakes, and
/// import/export problems all flow through it, so drivers handle one type.
#[derive(Debug)]
pub enum SqipError {
    /// A workload failed to build or trace.
    Workload {
        /// The workload's name.
        name: String,
        /// The underlying ISA/trace error.
        source: IsaError,
    },
    /// A sweep cell failed to configure or simulate.
    Sim {
        /// The cell's `workload/design/variant` label.
        cell: String,
        /// The underlying simulation error.
        source: SimError,
    },
    /// The experiment itself is malformed (no workloads, no designs, ...).
    Config(String),
    /// A workload name resolved to nothing: not in the
    /// [`WorkloadRegistry`](sqip_workloads::WorkloadRegistry) and not a
    /// generator-grammar name.
    UnknownWorkload(String),
    /// A design name resolved to nothing in the
    /// [`DesignRegistry`](sqip_core::DesignRegistry).
    UnknownDesign(String),
    /// The sweep was cancelled through its
    /// [`CancelToken`](crate::CancelToken) before this cell finished.
    Cancelled {
        /// The cell's `workload/design/variant` label.
        cell: String,
    },
    /// A sweep cell panicked. The sweep catches the unwind at the cell
    /// boundary, so the worker thread survives and the caller gets this
    /// error instead of a propagated panic.
    Panicked {
        /// The cell's `workload/design/variant` label.
        cell: String,
        /// The panic's message, when it carried one.
        message: String,
    },
    /// A serialized result set failed to parse.
    Parse(serde::Error),
    /// An export could not be written.
    Io(std::io::Error),
}

impl std::fmt::Display for SqipError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SqipError::Workload { name, source } => {
                write!(f, "workload `{name}` failed to trace: {source}")
            }
            SqipError::Sim { cell, source } => write!(f, "cell `{cell}` failed: {source}"),
            SqipError::Config(msg) => write!(f, "malformed experiment: {msg}"),
            SqipError::UnknownWorkload(msg) => f.write_str(msg),
            SqipError::UnknownDesign(msg) => f.write_str(msg),
            SqipError::Cancelled { cell } => write!(f, "cell `{cell}` cancelled"),
            SqipError::Panicked { cell, message } => write!(f, "cell `{cell}` panicked: {message}"),
            SqipError::Parse(e) => write!(f, "result set parse error: {e}"),
            SqipError::Io(e) => write!(f, "export failed: {e}"),
        }
    }
}

impl std::error::Error for SqipError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SqipError::Workload { source, .. } => Some(source),
            SqipError::Sim { source, .. } => Some(source),
            SqipError::Parse(e) => Some(e),
            SqipError::Io(e) => Some(e),
            SqipError::Config(_)
            | SqipError::UnknownWorkload(_)
            | SqipError::UnknownDesign(_)
            | SqipError::Cancelled { .. }
            | SqipError::Panicked { .. } => None,
        }
    }
}

impl From<serde::Error> for SqipError {
    fn from(e: serde::Error) -> SqipError {
        SqipError::Parse(e)
    }
}

impl From<std::io::Error> for SqipError {
    fn from(e: std::io::Error) -> SqipError {
        SqipError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_tags_the_failing_cell() {
        let e = SqipError::Sim {
            cell: "gzip/indexed-3-fwd+dly/base".to_string(),
            source: SimError::InvalidConfig("bad knob".to_string()),
        };
        let text = e.to_string();
        assert!(text.contains("gzip/indexed-3-fwd+dly/base"));
        assert!(text.contains("bad knob"));
    }

    #[test]
    fn sources_are_chained() {
        use std::error::Error;
        let e = SqipError::Workload {
            name: "x".into(),
            source: IsaError::EmptyProgram,
        };
        assert!(e.source().is_some());
    }
}
