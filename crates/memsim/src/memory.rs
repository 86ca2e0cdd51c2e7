//! The simulated SRAM cell array.

use std::fmt;

use sram_fault_model::Bit;

use crate::SimulationError;

/// The content used to initialise the simulated memory before a march test runs.
///
/// March tests must detect their target faults regardless of the memory content at
/// power-up, so coverage measurements typically run the test once per background.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum InitialState {
    /// Every cell starts at `0`.
    AllZero,
    /// Every cell starts at `1` (the conventional worst case for tests that begin
    /// with `⇕(w0)`).
    #[default]
    AllOne,
    /// Cells alternate `0,1,0,1,…` starting from address 0.
    Checkerboard,
    /// An explicit per-cell content.
    Custom(Vec<Bit>),
}

impl InitialState {
    /// Materialises the initial content for a memory of `cells` cells.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InitialStateSizeMismatch`] if a
    /// [`InitialState::Custom`] content has the wrong length.
    pub fn materialise(&self, cells: usize) -> Result<Vec<Bit>, SimulationError> {
        self.check(cells)?;
        Ok(match self {
            InitialState::Custom(content) => content.clone(),
            _ => (0..cells).map(|address| self.bit_at(address)).collect(),
        })
    }

    /// Checks that the content fits a memory of `cells` cells.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InitialStateSizeMismatch`] if a
    /// [`InitialState::Custom`] content has the wrong length.
    pub(crate) fn check(&self, cells: usize) -> Result<(), SimulationError> {
        match self {
            InitialState::Custom(content) if content.len() != cells => {
                Err(SimulationError::InitialStateSizeMismatch {
                    provided: content.len(),
                    cells,
                })
            }
            _ => Ok(()),
        }
    }

    /// `true` for the all-zero and all-one backgrounds: every cell starts
    /// from the same bit.
    pub(crate) fn is_uniform(&self) -> bool {
        matches!(self, InitialState::AllZero | InitialState::AllOne)
    }

    /// The initial value of cell `address`, without materialising the whole
    /// content.
    ///
    /// # Panics
    ///
    /// Panics if a [`InitialState::Custom`] content does not reach `address`
    /// (callers check the content with [`InitialState::check`] first).
    #[inline]
    pub(crate) fn bit_at(&self, address: usize) -> Bit {
        match self {
            InitialState::AllZero => Bit::Zero,
            InitialState::AllOne => Bit::One,
            InitialState::Checkerboard if address.is_multiple_of(2) => Bit::Zero,
            InitialState::Checkerboard => Bit::One,
            InitialState::Custom(content) => content[address],
        }
    }
}

/// Checks every background of a coverage or campaign scope against its
/// `cells`-cell memory, once, before anything is enumerated or simulated.
///
/// # Errors
///
/// Returns [`SimulationError::InitialStateSizeMismatch`] for the first
/// [`InitialState::Custom`] content of the wrong length.
pub(crate) fn check_backgrounds(
    backgrounds: &[InitialState],
    cells: usize,
) -> Result<(), SimulationError> {
    backgrounds
        .iter()
        .try_for_each(|background| background.check(cells))
}

/// A fault-free `n`-cell one-bit memory.
///
/// The faulty behaviour is layered on top of this type by
/// [`FaultSimulator`](crate::FaultSimulator); `Memory` itself always behaves
/// ideally and doubles as the golden reference during simulation.
///
/// # Examples
///
/// ```
/// use sram_fault_model::Bit;
/// use sram_sim::Memory;
///
/// let mut memory = Memory::new(4)?;
/// memory.write(2, Bit::One);
/// assert_eq!(memory.read(2), Bit::One);
/// assert_eq!(memory.read(0), Bit::Zero);
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug, PartialEq, Eq)]
pub struct Memory {
    cells: Vec<Bit>,
}

impl Clone for Memory {
    fn clone(&self) -> Memory {
        Memory {
            cells: self.cells.clone(),
        }
    }

    /// Reuses the existing cell buffer — the snapshot/restore paths of the
    /// redundancy-removal pass restore memories thousands of times per run.
    fn clone_from(&mut self, source: &Memory) {
        self.cells.clone_from(&source.cells);
    }
}

impl Memory {
    /// Creates a memory of `cells` cells, all initialised to `0`.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::EmptyMemory`] if `cells == 0`.
    pub fn new(cells: usize) -> Result<Memory, SimulationError> {
        Memory::with_initial_state(cells, &InitialState::AllZero)
    }

    /// Creates a memory of `cells` cells with the given initial content.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::EmptyMemory`] if `cells == 0`, or propagates the
    /// error of [`InitialState::materialise`].
    pub fn with_initial_state(
        cells: usize,
        initial: &InitialState,
    ) -> Result<Memory, SimulationError> {
        if cells == 0 {
            return Err(SimulationError::EmptyMemory);
        }
        Ok(Memory {
            cells: initial.materialise(cells)?,
        })
    }

    /// The number of cells.
    #[must_use]
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// Always `false`: memories have at least one cell by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Reads the cell at `address`.
    ///
    /// # Panics
    ///
    /// Panics if `address` is out of range.
    #[must_use]
    pub fn read(&self, address: usize) -> Bit {
        self.cells[address]
    }

    /// Writes `value` into the cell at `address`.
    ///
    /// # Panics
    ///
    /// Panics if `address` is out of range.
    pub fn write(&mut self, address: usize, value: Bit) {
        self.cells[address] = value;
    }

    /// The raw cell contents, cell 0 first.
    #[must_use]
    pub fn as_slice(&self) -> &[Bit] {
        &self.cells
    }

    /// Overwrites the whole content.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InitialStateSizeMismatch`] if the length differs
    /// from the memory size.
    pub fn load(&mut self, content: &[Bit]) -> Result<(), SimulationError> {
        if content.len() != self.cells.len() {
            return Err(SimulationError::InitialStateSizeMismatch {
                provided: content.len(),
                cells: self.cells.len(),
            });
        }
        self.cells.copy_from_slice(content);
        Ok(())
    }
}

impl fmt::Display for Memory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for bit in &self.cells {
            write!(f, "{bit}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction() {
        let memory = Memory::new(4).unwrap();
        assert_eq!(memory.len(), 4);
        assert!(!memory.is_empty());
        assert!(memory.as_slice().iter().all(|bit| *bit == Bit::Zero));
        assert!(matches!(Memory::new(0), Err(SimulationError::EmptyMemory)));
    }

    #[test]
    fn initial_states() {
        assert_eq!(
            InitialState::AllOne.materialise(3).unwrap(),
            vec![Bit::One; 3]
        );
        assert_eq!(
            InitialState::Checkerboard.materialise(4).unwrap(),
            vec![Bit::Zero, Bit::One, Bit::Zero, Bit::One]
        );
        assert_eq!(
            InitialState::Custom(vec![Bit::One, Bit::Zero])
                .materialise(2)
                .unwrap(),
            vec![Bit::One, Bit::Zero]
        );
        assert!(InitialState::Custom(vec![Bit::One]).materialise(2).is_err());
        for state in [
            InitialState::AllZero,
            InitialState::AllOne,
            InitialState::Checkerboard,
            InitialState::Custom(vec![Bit::One, Bit::Zero, Bit::Zero]),
        ] {
            let content = state.materialise(3).unwrap();
            let bits: Vec<Bit> = (0..3).map(|address| state.bit_at(address)).collect();
            assert_eq!(bits, content, "{state:?}");
        }
        assert!(check_backgrounds(&[InitialState::Checkerboard], 3).is_ok());
        assert_eq!(
            check_backgrounds(
                &[
                    InitialState::AllOne,
                    InitialState::Custom(vec![Bit::One; 3])
                ],
                8
            ),
            Err(SimulationError::InitialStateSizeMismatch {
                provided: 3,
                cells: 8
            })
        );
        let memory = Memory::with_initial_state(2, &InitialState::AllOne).unwrap();
        assert_eq!(memory.to_string(), "11");
    }

    #[test]
    fn read_write_round_trip() {
        let mut memory = Memory::new(3).unwrap();
        memory.write(1, Bit::One);
        assert_eq!(memory.read(1), Bit::One);
        assert_eq!(memory.read(0), Bit::Zero);
        memory.write(1, Bit::Zero);
        assert_eq!(memory.read(1), Bit::Zero);
    }

    #[test]
    fn load_replaces_content() {
        let mut memory = Memory::new(2).unwrap();
        memory.load(&[Bit::One, Bit::One]).unwrap();
        assert_eq!(memory.to_string(), "11");
        assert!(memory.load(&[Bit::One]).is_err());
    }
}
