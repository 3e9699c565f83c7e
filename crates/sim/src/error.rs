//! Error types for the simulation engine.

use pdn_sparse::error::SolveError;
use std::fmt;

/// Result alias for simulator operations.
pub type SimResult<T> = std::result::Result<T, SimError>;

/// Errors produced while assembling or running a simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum SimError {
    /// The underlying linear solver failed (non-SPD stamp, non-convergence).
    Solve(SolveError),
    /// The test vector does not match the grid (wrong load count).
    VectorMismatch {
        /// Loads in the grid.
        expected: usize,
        /// Loads in the vector.
        actual: usize,
    },
    /// The test vector was sampled at another time step than the grid is
    /// simulated at.
    TimeStepMismatch {
        /// The grid's time step, in seconds.
        expected: f64,
        /// The vector's time step, in seconds.
        actual: f64,
    },
    /// The grid has no bumps, so the network floats and has no DC solution.
    NoBumps,
    /// Vectors in one batch must share a step count so the batched solver
    /// can march them in lockstep.
    BatchStepMismatch {
        /// Step count of the first vector in the batch.
        expected: usize,
        /// Step count of the offending vector.
        actual: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Solve(e) => write!(f, "linear solve failed: {e}"),
            SimError::VectorMismatch { expected, actual } => {
                write!(f, "test vector has {actual} loads but the grid has {expected}")
            }
            SimError::TimeStepMismatch { expected, actual } => {
                // Femtosecond resolution: a CSV header's decimal round trip
                // prints as the value that was written.
                let ps = |s: f64| (s * 1e15).round() / 1e3;
                write!(
                    f,
                    "test vector time step is {} ps but the grid steps at {} ps",
                    ps(*actual),
                    ps(*expected)
                )
            }
            SimError::NoBumps => write!(f, "grid has no bumps; network is floating"),
            SimError::BatchStepMismatch { expected, actual } => {
                write!(f, "batched vectors disagree on step count: {actual} vs {expected}")
            }
        }
    }
}

impl std::error::Error for SimError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SimError::Solve(e) => Some(e),
            _ => None,
        }
    }
}

impl From<SolveError> for SimError {
    fn from(e: SolveError) -> SimError {
        SimError::Solve(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error as _;
        let e = SimError::from(SolveError::NotConverged { iterations: 3, residual: 1.0 });
        assert!(e.to_string().contains("linear solve failed"));
        assert!(e.source().is_some());
        assert!(SimError::NoBumps.source().is_none());
    }
}
