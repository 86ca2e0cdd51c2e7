//! March-test based fault diagnosis: from an observed failure syndrome back to the
//! set of fault candidates that explain it.
//!
//! This extends the validation role of the fault simulator (Section 6 of the paper)
//! into the diagnostic direction used in industrial memory test flows: the march
//! test is applied to a device under test, the failing reads form a *syndrome*, and
//! candidate faults are those whose simulation reproduces exactly that syndrome.

use std::collections::BTreeSet;
use std::fmt;

use march_test::MarchTest;
use sram_fault_model::{Bit, FaultList};

use crate::{
    enumerate_decoder_placements, enumerate_placements, run_march, DecoderFaultInstance,
    FaultSimulator, InjectedFault, InstanceCells, LinkedFaultInstance, MarchRun, PlacementStrategy,
    TargetKind,
};

/// One failing read of a syndrome: which element/cell/operation failed and what was
/// read.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct SyndromeEntry {
    /// Index of the march element in which the failure occurred.
    pub element: usize,
    /// The failing cell address.
    pub cell: usize,
    /// Index of the operation within the element.
    pub operation: usize,
    /// The value returned by the device under test.
    pub observed: Bit,
}

impl fmt::Display for SyndromeEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "E{} op{} cell {} read {}",
            self.element, self.operation, self.cell, self.observed
        )
    }
}

/// The failure syndrome of one march-test run: the set of failing reads.
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::Ffm;
/// use sram_sim::{FaultSimulator, InitialState, InjectedFault, Syndrome};
///
/// let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
/// let mut simulator = FaultSimulator::new(8, &InitialState::AllOne)?;
/// simulator.inject(InjectedFault::single_cell(tf, 3, 8)?);
/// let syndrome = Syndrome::observe(&catalog::march_ss(), &mut simulator);
/// assert!(!syndrome.is_empty());
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Syndrome {
    entries: BTreeSet<SyndromeEntry>,
}

impl Syndrome {
    /// An empty (passing) syndrome.
    #[must_use]
    pub fn new() -> Syndrome {
        Syndrome::default()
    }

    /// Builds a syndrome from the failures of a march run.
    #[must_use]
    pub fn from_run(run: &MarchRun) -> Syndrome {
        Syndrome {
            entries: run
                .failures()
                .iter()
                .map(|failure| SyndromeEntry {
                    element: failure.element,
                    cell: failure.cell,
                    operation: failure.operation,
                    observed: failure.observed,
                })
                .collect(),
        }
    }

    /// Runs `test` on the given simulator and collects the resulting syndrome.
    #[must_use]
    pub fn observe(test: &MarchTest, simulator: &mut FaultSimulator) -> Syndrome {
        Syndrome::from_run(&run_march(test, simulator))
    }

    /// Rebuilds a syndrome from an already-validated entry set — the snapshot
    /// loader's constructor.
    pub(crate) fn from_entries(entries: BTreeSet<SyndromeEntry>) -> Syndrome {
        Syndrome { entries }
    }

    /// The failing reads, ordered by (element, cell, operation).
    pub fn entries(&self) -> impl Iterator<Item = &SyndromeEntry> {
        self.entries.iter()
    }

    /// Number of failing reads.
    #[must_use]
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// Returns `true` for a passing run (no failing read).
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The set of failing cell addresses.
    #[must_use]
    pub fn failing_cells(&self) -> BTreeSet<usize> {
        self.entries.iter().map(|entry| entry.cell).collect()
    }
}

impl fmt::Display for Syndrome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.entries.is_empty() {
            return write!(f, "pass");
        }
        write!(
            f,
            "{} failing reads on cells {:?}",
            self.entries.len(),
            self.failing_cells()
        )
    }
}

/// A fault hypothesis consistent with an observed syndrome.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisCandidate {
    /// The fault (simple primitive or linked fault) explaining the syndrome.
    pub target: TargetKind,
    /// The cell assignment under which its simulation reproduces the syndrome.
    pub cells: InstanceCells,
}

impl fmt::Display for DiagnosisCandidate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.target, self.cells)
    }
}

/// Enumerates every fault instance diagnosis simulates on a `memory_cells`
/// memory — simple primitives first, then linked faults, then decoder faults,
/// placements enumerated exhaustively (diagnosis must localise faults) in
/// enumeration order. Both the session's sharded
/// [`diagnose_sweep`](crate::Session::diagnose_sweep) and
/// [`FaultDictionary`](crate::FaultDictionary) construction walk exactly this
/// sequence, which is what keeps their candidate order identical at any
/// worker-thread count.
pub(crate) fn enumerate_diagnosis_instances(
    list: &FaultList,
    memory_cells: usize,
) -> Vec<(TargetKind, InstanceCells)> {
    let placements = |topology| {
        enumerate_placements(topology, memory_cells, PlacementStrategy::Exhaustive)
            .expect("diagnosis memory hosts the placements")
    };
    let mut instances = Vec::new();
    for primitive in list.simple() {
        for cells in placements(primitive.diagnosis_topology()) {
            instances.push((TargetKind::Simple(primitive.clone()), cells));
        }
    }
    for fault in list.linked() {
        for cells in placements(fault.topology()) {
            instances.push((TargetKind::Linked(fault.clone()), cells));
        }
    }
    for fault in list.decoders() {
        for cells in
            enumerate_decoder_placements(*fault, memory_cells, PlacementStrategy::Exhaustive)
                .expect("diagnosis memory hosts the placements")
        {
            instances.push((TargetKind::Decoder(*fault), cells));
        }
    }
    instances
}

/// Injects one enumerated diagnosis instance into a fault-free simulator.
pub(crate) fn inject_diagnosis_instance(
    simulator: &mut FaultSimulator,
    target: &TargetKind,
    cells: InstanceCells,
    memory_cells: usize,
) {
    match target {
        TargetKind::Simple(primitive) => {
            let injected = if primitive.is_coupling() {
                InjectedFault::coupling(
                    primitive.clone(),
                    cells.aggressor_first.expect("pair placement"),
                    cells.victim,
                    memory_cells,
                )
            } else {
                InjectedFault::single_cell(primitive.clone(), cells.victim, memory_cells)
            }
            .expect("enumerated placements are valid");
            simulator.inject(injected);
        }
        TargetKind::Linked(fault) => {
            let instance = LinkedFaultInstance::new(fault.clone(), cells, memory_cells)
                .expect("enumerated placements are valid");
            simulator.inject_linked(&instance);
        }
        TargetKind::Decoder(fault) => {
            let instance = DecoderFaultInstance::new(*fault, cells, memory_cells)
                .expect("enumerated placements are valid");
            simulator.inject_decoder(instance);
        }
    }
}

/// Extension mapping a simple fault primitive onto the placement topology used to
/// enumerate its cell assignments during diagnosis.
pub trait LinkTopologyExt {
    /// The placement topology to use when enumerating cell assignments for this
    /// primitive during diagnosis.
    fn diagnosis_topology(&self) -> sram_fault_model::LinkTopology;
}

impl LinkTopologyExt for sram_fault_model::FaultPrimitive {
    fn diagnosis_topology(&self) -> sram_fault_model::LinkTopology {
        if self.is_coupling() {
            sram_fault_model::LinkTopology::Lf2CouplingThenSingle
        } else {
            sram_fault_model::LinkTopology::Lf1
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{InitialState, Session};
    use march_test::catalog;
    use sram_fault_model::{FaultListBuilder, Ffm};

    /// A 6-cell session simulating diagnosis instances from the all-one
    /// background, like the devices below.
    fn session() -> Session {
        Session::default()
            .with_memory_cells(6)
            .with_backgrounds(vec![InitialState::AllOne])
    }

    #[test]
    fn passing_syndrome_yields_no_candidates() {
        let mut simulator = FaultSimulator::new(6, &InitialState::AllOne).unwrap();
        let syndrome = Syndrome::observe(&catalog::march_ss(), &mut simulator);
        assert!(syndrome.is_empty());
        assert_eq!(syndrome.to_string(), "pass");
        let report = session().diagnose_sweep(
            &catalog::march_ss(),
            &syndrome,
            &FaultList::unlinked_static(),
        );
        assert!(report.candidates().is_empty());
    }

    #[test]
    fn single_cell_fault_is_localised() {
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let mut device = FaultSimulator::new(6, &InitialState::AllOne).unwrap();
        device.inject(InjectedFault::single_cell(tf.clone(), 2, 6).unwrap());
        let syndrome = Syndrome::observe(&catalog::march_ss(), &mut device);
        assert!(!syndrome.is_empty());
        assert!(syndrome.failing_cells().contains(&2));

        let list = FaultListBuilder::new("single-cell space")
            .family(Ffm::TransitionFault)
            .family(Ffm::WriteDestructiveFault)
            .family(Ffm::StateFault)
            .build()
            .unwrap();
        let report = session().diagnose_sweep(&catalog::march_ss(), &syndrome, &list);
        let candidates = report.candidates();
        assert!(!candidates.is_empty());
        // Every candidate that explains the syndrome must involve the failing cell.
        assert!(candidates
            .iter()
            .all(|candidate| candidate.cells.victim == 2));
        // The true fault is among the candidates.
        assert!(candidates.iter().any(|candidate| match &candidate.target {
            TargetKind::Simple(fp) => fp == &tf,
            _ => false,
        }));
    }

    #[test]
    fn coupling_fault_diagnosis_recovers_the_aggressor() {
        let cfds = Ffm::DisturbCoupling
            .fault_primitives()
            .into_iter()
            .find(|fp| fp.notation() == "<0w1;0/1/->")
            .unwrap();
        let mut device = FaultSimulator::new(6, &InitialState::AllOne).unwrap();
        device.inject(InjectedFault::coupling(cfds.clone(), 1, 4, 6).unwrap());
        let syndrome = Syndrome::observe(&catalog::march_ss(), &mut device);
        assert!(!syndrome.is_empty());

        let list = FaultListBuilder::new("cfds space")
            .family(Ffm::DisturbCoupling)
            .build()
            .unwrap();
        let report = session().diagnose_sweep(&catalog::march_ss(), &syndrome, &list);
        let candidates = report.candidates();
        assert!(candidates.iter().any(|candidate| {
            candidate.cells.victim == 4 && candidate.cells.aggressor_first == Some(1)
        }));
        for candidate in candidates {
            assert!(!candidate.to_string().is_empty());
        }
    }

    #[test]
    fn syndrome_round_trip_from_run() {
        let irf = Ffm::IncorrectReadFault.fault_primitives()[0].clone();
        let mut device = FaultSimulator::new(6, &InitialState::AllOne).unwrap();
        device.inject(InjectedFault::single_cell(irf, 3, 6).unwrap());
        let run = run_march(&catalog::march_c_minus(), &mut device);
        let syndrome = Syndrome::from_run(&run);
        assert_eq!(syndrome.len(), run.mismatches());
        let first = syndrome.entries().next().unwrap();
        assert_eq!(first.cell, 3);
        assert!(!first.to_string().is_empty());
    }
}
