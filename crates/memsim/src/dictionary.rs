//! Fault dictionaries: pre-computed syndrome databases for march-test based
//! diagnosis.
//!
//! A fault dictionary maps every fault instance of a fault list (fault × cell
//! assignment) to the failure [`Syndrome`] it produces under a given march test.
//! Dictionaries make repeated diagnosis queries cheap (one set lookup instead of a
//! full simulation sweep) and expose the *diagnostic resolution* of a march test —
//! how many fault instances share the same syndrome and are therefore
//! indistinguishable by that test.

use std::collections::BTreeMap;
use std::fmt;

use march_test::MarchTest;
use sram_fault_model::FaultList;

use crate::diagnose::{enumerate_diagnosis_instances, inject_diagnosis_instance};
use crate::{FaultSimulator, InitialState, InstanceCells, Syndrome, TargetKind};

/// One entry of a fault dictionary: a fault instance and the syndrome it produces.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DictionaryEntry {
    /// The fault (simple primitive or linked fault).
    pub target: TargetKind,
    /// The cell assignment of the instance.
    pub cells: InstanceCells,
    /// The syndrome observed when simulating the instance under the dictionary's
    /// march test; empty for undetected instances.
    pub syndrome: Syndrome,
}

impl fmt::Display for DictionaryEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {} -> {}", self.target, self.cells, self.syndrome)
    }
}

/// The canonical syndrome key of the dictionary index: one
/// `(element, operation, cell, observed)` tuple per failing read.
type SyndromeKey = Vec<(usize, usize, usize, u8)>;

/// A pre-computed fault dictionary for one march test, one fault list and one data
/// background, built and memoised by [`Session::dictionary`](crate::Session::dictionary).
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::{FaultListBuilder, Ffm};
/// use sram_sim::Session;
///
/// let list = FaultListBuilder::new("transition faults")
///     .family(Ffm::TransitionFault)
///     .build()?;
/// let session = Session::default().with_memory_cells(6);
/// let dictionary = session.dictionary(&catalog::march_ss(), &list);
/// assert_eq!(dictionary.len(), 2 * 6);          // 2 primitives × 6 cells
/// assert_eq!(dictionary.undetected().count(), 0);
/// # Ok::<(), sram_fault_model::FaultModelError>(())
/// ```
#[derive(Debug, Clone)]
pub struct FaultDictionary {
    test_name: String,
    entries: Vec<DictionaryEntry>,
    index: BTreeMap<SyndromeKey, Vec<usize>>,
}

impl FaultDictionary {
    /// Builds the dictionary by simulating every fault instance of `list`
    /// under `test` on a `memory_cells` memory initialised to `background`.
    ///
    /// The instances are the diagnosis sweep's own walk (placements
    /// enumerated exhaustively, since diagnosis needs localisation), each
    /// simulated on one scratch simulator reset with `clone_from`.
    pub(crate) fn build(
        test: &MarchTest,
        list: &FaultList,
        memory_cells: usize,
        background: &InitialState,
    ) -> FaultDictionary {
        let pristine = FaultSimulator::new(memory_cells, background)
            .expect("dictionary memory configuration is valid");
        let mut scratch = pristine.clone();
        let entries = enumerate_diagnosis_instances(list, memory_cells)
            .into_iter()
            .map(|(target, cells)| {
                scratch.clone_from(&pristine);
                inject_diagnosis_instance(&mut scratch, &target, cells, memory_cells);
                DictionaryEntry {
                    target,
                    cells,
                    syndrome: Syndrome::observe(test, &mut scratch),
                }
            })
            .collect();
        FaultDictionary::from_parts(test.name().to_string(), entries)
    }

    /// Assembles a dictionary from its entries, deriving the syndrome index —
    /// shared by [`FaultDictionary::build`] and the snapshot loader, so a
    /// round-tripped dictionary answers every lookup identically to a freshly
    /// built one.
    pub(crate) fn from_parts(test_name: String, entries: Vec<DictionaryEntry>) -> FaultDictionary {
        let mut index: BTreeMap<SyndromeKey, Vec<usize>> = BTreeMap::new();
        for (position, entry) in entries.iter().enumerate() {
            index
                .entry(Self::key(&entry.syndrome))
                .or_default()
                .push(position);
        }
        FaultDictionary {
            test_name,
            entries,
            index,
        }
    }

    fn key(syndrome: &Syndrome) -> Vec<(usize, usize, usize, u8)> {
        syndrome
            .entries()
            .map(|entry| {
                (
                    entry.element,
                    entry.cell,
                    entry.operation,
                    entry.observed.as_u8(),
                )
            })
            .collect()
    }

    /// The march test the dictionary was built for.
    #[must_use]
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// Every entry of the dictionary.
    #[must_use]
    pub fn entries(&self) -> &[DictionaryEntry] {
        &self.entries
    }

    /// Number of fault instances in the dictionary.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` for an empty dictionary (empty fault list).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Looks up every fault instance whose syndrome equals `syndrome`.
    #[must_use]
    pub fn lookup(&self, syndrome: &Syndrome) -> Vec<&DictionaryEntry> {
        self.index
            .get(&Self::key(syndrome))
            .map(|positions| {
                positions
                    .iter()
                    .map(|&position| &self.entries[position])
                    .collect()
            })
            .unwrap_or_default()
    }

    /// The fault instances the march test does not detect at all (empty syndrome).
    pub fn undetected(&self) -> impl Iterator<Item = &DictionaryEntry> {
        self.entries
            .iter()
            .filter(|entry| entry.syndrome.is_empty())
    }

    /// Number of distinct non-empty syndromes.
    #[must_use]
    pub fn distinct_syndromes(&self) -> usize {
        self.index.keys().filter(|key| !key.is_empty()).count()
    }

    /// Diagnostic resolution: the fraction of *detected* fault instances whose
    /// syndrome is unique (i.e. the test pinpoints them exactly). `1.0` for an
    /// ideal diagnostic test, `0.0` when every syndrome is ambiguous.
    #[must_use]
    pub fn resolution(&self) -> f64 {
        let detected: Vec<&Vec<usize>> = self
            .index
            .iter()
            .filter(|(key, _)| !key.is_empty())
            .map(|(_, positions)| positions)
            .collect();
        let total: usize = detected.iter().map(|positions| positions.len()).sum();
        if total == 0 {
            return 0.0;
        }
        let unique = detected
            .iter()
            .filter(|positions| positions.len() == 1)
            .count();
        unique as f64 / total as f64
    }
}

impl fmt::Display for FaultDictionary {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "fault dictionary for {}: {} instances, {} distinct syndromes, resolution {:.2}",
            self.test_name,
            self.len(),
            self.distinct_syndromes(),
            self.resolution()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::InjectedFault;
    use march_test::catalog;
    use sram_fault_model::{FaultListBuilder, Ffm};

    /// A dictionary over a 6-cell memory initialised to all ones.
    fn build(test: &MarchTest, list: &FaultList) -> FaultDictionary {
        FaultDictionary::build(test, list, 6, &InitialState::AllOne)
    }

    #[test]
    fn dictionary_over_single_cell_faults() {
        let list = FaultListBuilder::new("single-cell")
            .family(Ffm::TransitionFault)
            .family(Ffm::WriteDestructiveFault)
            .build()
            .unwrap();
        let dictionary = build(&catalog::march_ss(), &list);
        assert_eq!(dictionary.len(), 4 * 6);
        assert_eq!(dictionary.undetected().count(), 0);
        assert!(dictionary.distinct_syndromes() > 0);
        assert!(dictionary.resolution() > 0.0);
        assert!(!dictionary.to_string().is_empty());
        assert!(!dictionary.is_empty());
    }

    #[test]
    fn lookup_recovers_the_injected_instance() {
        let list = FaultListBuilder::new("tf")
            .family(Ffm::TransitionFault)
            .build()
            .unwrap();
        let dictionary = build(&catalog::march_ss(), &list);

        // Simulate an "unknown" device with TF↑ on cell 4 and look its syndrome up.
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let mut device = FaultSimulator::new(6, &InitialState::AllOne).unwrap();
        device.inject(InjectedFault::single_cell(tf.clone(), 4, 6).unwrap());
        let syndrome = Syndrome::observe(&catalog::march_ss(), &mut device);

        let matches = dictionary.lookup(&syndrome);
        assert!(!matches.is_empty());
        assert!(matches.iter().all(|entry| entry.cells.victim == 4));
        assert!(matches.iter().any(|entry| match &entry.target {
            TargetKind::Simple(fp) => fp == &tf,
            _ => false,
        }));

        // A passing syndrome matches only undetected entries (of which there are
        // none for March SS over transition faults).
        assert!(dictionary.lookup(&Syndrome::new()).is_empty());
    }

    #[test]
    fn weak_tests_have_undetected_entries_and_lower_resolution() {
        let list = FaultListBuilder::new("wdf")
            .family(Ffm::WriteDestructiveFault)
            .build()
            .unwrap();
        let weak = build(&catalog::mats_plus(), &list);
        let strong = build(&catalog::march_ss(), &list);
        assert!(weak.undetected().count() > 0);
        assert_eq!(strong.undetected().count(), 0);
        assert!(weak.distinct_syndromes() <= strong.distinct_syndromes());
    }

    #[test]
    fn linked_fault_dictionary_counts_placements() {
        let list = FaultList::list_2();
        let dictionary = build(&catalog::march_abl1(), &list);
        // 32 LF1 faults × 6 victim cells.
        assert_eq!(dictionary.len(), 32 * 6);
        assert_eq!(dictionary.undetected().count(), 0);
    }
}
