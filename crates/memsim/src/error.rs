//! Error type of the simulator crate.

use std::error::Error;
use std::fmt;

/// Errors produced while configuring or running a fault simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimulationError {
    /// A cell address is outside the simulated memory.
    AddressOutOfRange {
        /// The offending address.
        address: usize,
        /// The number of cells of the memory.
        cells: usize,
    },
    /// Two cells of a fault instance that must be distinct coincide.
    OverlappingCells {
        /// The shared address.
        address: usize,
    },
    /// A fault instance does not provide the aggressor cells its topology requires.
    MissingCells(String),
    /// A memory with zero cells was requested.
    EmptyMemory,
    /// A custom initial state does not match the memory size.
    InitialStateSizeMismatch {
        /// Number of values supplied.
        provided: usize,
        /// Number of cells of the memory.
        cells: usize,
    },
    /// A packed simulator was asked to hold an unsupported number of lanes.
    LaneCountOutOfRange {
        /// Number of lanes requested (must be 1..=width of the lane word).
        requested: usize,
    },
    /// The simulated memory is too small to host the placements of a fault
    /// target (e.g. three-cell linked faults need at least 4 cells).
    MemoryTooSmall {
        /// The number of cells of the configured memory.
        cells: usize,
        /// The smallest memory the requested enumeration supports.
        min_cells: usize,
    },
    /// A Monte-Carlo campaign configuration or sample space is degenerate
    /// (zero draws, a confidence level outside `(0, 1)`, an empty space, …).
    InvalidCampaign(String),
    /// A lane set of the simulated memory has more lanes than a `usize`
    /// counts (e.g. every cell triple of a 2^22-cell memory).
    LaneCountOverflow {
        /// The number of cells of the configured memory.
        cells: usize,
    },
    /// The bits of a simulated memory could not be allocated (e.g. a size
    /// beyond the address space).
    MemoryUnavailable {
        /// The number of cells of the requested memory.
        cells: usize,
    },
}

impl fmt::Display for SimulationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimulationError::AddressOutOfRange { address, cells } => {
                write!(
                    f,
                    "cell address {address} out of range for a {cells}-cell memory"
                )
            }
            SimulationError::OverlappingCells { address } => {
                write!(f, "fault instance cells overlap at address {address}")
            }
            SimulationError::MissingCells(reason) => {
                write!(f, "fault instance is missing cell assignments: {reason}")
            }
            SimulationError::EmptyMemory => write!(f, "memory must contain at least one cell"),
            SimulationError::InitialStateSizeMismatch { provided, cells } => write!(
                f,
                "initial state has {provided} values but the memory has {cells} cells"
            ),
            SimulationError::LaneCountOutOfRange { requested } => {
                write!(
                    f,
                    "packed simulators hold at most one word of lanes, got {requested}"
                )
            }
            SimulationError::MemoryTooSmall { cells, min_cells } => {
                write!(
                    f,
                    "memory with {cells} cells is too small for the requested placements \
                     (need at least {min_cells} cells)"
                )
            }
            SimulationError::InvalidCampaign(reason) => {
                write!(f, "invalid campaign configuration: {reason}")
            }
            SimulationError::LaneCountOverflow { cells } => write!(
                f,
                "the lanes of a {cells}-cell memory are more than a usize counts"
            ),
            SimulationError::MemoryUnavailable { cells } => {
                write!(f, "cannot allocate a {cells}-cell memory")
            }
        }
    }
}

impl Error for SimulationError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages() {
        for err in [
            SimulationError::AddressOutOfRange {
                address: 9,
                cells: 4,
            },
            SimulationError::OverlappingCells { address: 2 },
            SimulationError::MissingCells("no aggressor".into()),
            SimulationError::EmptyMemory,
            SimulationError::InitialStateSizeMismatch {
                provided: 3,
                cells: 8,
            },
            SimulationError::LaneCountOutOfRange { requested: 80 },
            SimulationError::MemoryTooSmall {
                cells: 2,
                min_cells: 4,
            },
            SimulationError::InvalidCampaign("zero draws".into()),
            SimulationError::LaneCountOverflow { cells: 1 << 22 },
            SimulationError::MemoryUnavailable { cells: 1 << 60 },
        ] {
            assert!(!err.to_string().is_empty());
        }
    }

    #[test]
    fn is_std_error() {
        fn assert_error<E: Error + Send + Sync + 'static>() {}
        assert_error::<SimulationError>();
    }
}
