//! Typed round-execution errors.
//!
//! A size mismatch used to be an `assert!`, so one bad scheduled graph
//! inside a parallel campaign aborted the whole process. The `try_`
//! round APIs report it as an [`EngineError`] instead, letting drivers
//! fail a single cell with a diagnosable reason.

/// Why a round could not be executed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EngineError {
    /// `actions.len()` differs from the node count.
    ActionArityMismatch {
        /// Nodes in the simulation.
        expected: usize,
        /// Actions supplied.
        got: usize,
    },
    /// A mixing-matrix override's size differs from the node count (e.g. a
    /// scheduled graph generated for the wrong fleet).
    MixingSizeMismatch {
        /// Nodes in the simulation.
        expected: usize,
        /// Rows in the supplied matrix.
        got: usize,
    },
    /// An [`EventEngine`](crate::events::EventEngine) built for a
    /// different fleet size was handed to
    /// [`Simulation::try_run_round`](crate::executor::Simulation::try_run_round).
    EventEngineSizeMismatch {
        /// Nodes in the simulation.
        expected: usize,
        /// Nodes the event engine tracks.
        got: usize,
    },
}

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            EngineError::ActionArityMismatch { expected, got } => write!(
                f,
                "one action per node required: simulation has {expected} nodes, got {got} actions"
            ),
            EngineError::MixingSizeMismatch { expected, got } => write!(
                f,
                "mixing matrix size mismatch: simulation has {expected} nodes, matrix has {got}"
            ),
            EngineError::EventEngineSizeMismatch { expected, got } => write!(
                f,
                "event engine size mismatch: simulation has {expected} nodes, engine tracks {got}"
            ),
        }
    }
}

impl std::error::Error for EngineError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_both_counts() {
        let e = EngineError::MixingSizeMismatch {
            expected: 8,
            got: 6,
        };
        assert!(e.to_string().contains('8'));
        assert!(e.to_string().contains('6'));
        let e = EngineError::ActionArityMismatch {
            expected: 4,
            got: 2,
        };
        assert!(e.to_string().contains("action"));
    }
}
