//! The fault-simulation engine: a faulty memory simulated in lock-step with a
//! fault-free reference.

use std::fmt;

use sram_fault_model::{Bit, DecoderFault, Operation, SensitizingSite};

use crate::{
    DecoderFaultInstance, InitialState, InjectedFault, LinkedFaultInstance, Memory, SimulationError,
};

/// The outcome of one memory operation applied to the simulated (faulty) memory and
/// to the fault-free reference memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OperationOutcome {
    /// The value returned by the faulty memory, for read operations.
    pub observed: Option<Bit>,
    /// The value returned by the fault-free reference, for read operations.
    pub expected: Option<Bit>,
}

impl OperationOutcome {
    /// Returns `true` if the operation was a read and the faulty memory returned a
    /// value different from the fault-free reference — i.e. the fault was detected
    /// by this operation.
    #[must_use]
    pub fn mismatch(&self) -> bool {
        match (self.observed, self.expected) {
            (Some(observed), Some(expected)) => observed != expected,
            _ => false,
        }
    }
}

impl fmt::Display for OperationOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match (self.observed, self.expected) {
            (Some(observed), Some(expected)) => {
                write!(f, "read {observed} (expected {expected})")
            }
            _ => write!(f, "write/wait"),
        }
    }
}

/// A functional fault simulator for a one-bit-per-cell SRAM.
///
/// The simulator keeps two memories: the *faulty* memory, whose behaviour is
/// perturbed by the injected fault primitives, and a *golden* fault-free reference.
/// Detection is defined as any read operation whose faulty return value differs from
/// the golden one — no assumption is made on the expected-value annotations of the
/// march test.
///
/// # Fault semantics
///
/// For every applied operation the engine, in order:
///
/// 1. determines which injected **operation-sensitized** primitives fire: the
///    operation targets their sensitizing cell, matches their sensitizing operation
///    and every involved cell holds the required initial value (evaluated on the
///    pre-operation faulty state);
/// 2. computes the read return value: the pre-operation content of the addressed
///    cell, unless a fired primitive overrides it with its `R` value;
/// 3. applies the fault-free effect of the operation (writes store their value);
/// 4. applies the `F` effect of every fired primitive to its victim cell;
/// 5. performs one pass over the injected **state-sensitized** primitives (SF,
///    CFst), in injection order, flipping the victim of each primitive whose state
///    condition holds. The same pass runs once right after initialisation.
///
/// Masking between the two components of a linked fault therefore emerges naturally:
/// if the second primitive restores the victim before any read observes it, no
/// mismatch is ever produced.
///
/// # Address-decoder faults
///
/// Injected [`DecoderFaultInstance`]s sit *in front of* the faulty cell array:
/// every operation is first resolved through the perturbed decode (the golden
/// reference always decodes correctly). An operation issued to an instance's
/// [`source`](DecoderFaultInstance::source) address selects no cell
/// (*no cell accessed*: writes are lost, reads return the instance's
/// open-bitline value), the destination cell instead of its own
/// (*no address maps* / *multiple addresses map*), or its own cell **and**
/// the destination (*multiple cells accessed*: writes store into both, reads
/// return the wired-AND of both). When several instances perturb the same
/// address, the first injected one wins. Cell-array fault primitives keep
/// matching on the *issued* address — decoder and array defects are distinct
/// fault sites, and coverage targets inject exactly one of them at a time.
///
/// # Examples
///
/// ```
/// use sram_fault_model::{Bit, Ffm, Operation};
/// use sram_sim::{FaultSimulator, InitialState, InjectedFault};
///
/// // Inject an up-transition fault on cell 2 of an 8-cell memory.
/// let tf = Ffm::TransitionFault
///     .fault_primitives()
///     .into_iter()
///     .find(|fp| fp.notation() == "<0w1/0/->")
///     .expect("realistic primitive");
/// let mut sim = FaultSimulator::new(8, &InitialState::AllZero)?;
/// sim.inject(InjectedFault::single_cell(tf, 2, 8)?);
///
/// sim.apply(2, Operation::W1);                    // the write fails...
/// let outcome = sim.apply(2, Operation::R1);      // ...and the read sees 0.
/// assert!(outcome.mismatch());
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug)]
pub struct FaultSimulator {
    faulty: Memory,
    golden: Memory,
    faults: Vec<InjectedFault>,
    decoders: Vec<DecoderFaultInstance>,
    initial: InitialState,
}

impl Clone for FaultSimulator {
    fn clone(&self) -> FaultSimulator {
        FaultSimulator {
            faulty: self.faulty.clone(),
            golden: self.golden.clone(),
            faults: self.faults.clone(),
            decoders: self.decoders.clone(),
            initial: self.initial.clone(),
        }
    }

    /// Field-wise `clone_from` so the scalar snapshot/restore path of
    /// [`TargetBatch`](crate::TargetBatch) re-uses the memory buffers instead
    /// of reallocating them per removal trial.
    fn clone_from(&mut self, source: &FaultSimulator) {
        self.faulty.clone_from(&source.faulty);
        self.golden.clone_from(&source.golden);
        self.faults.clone_from(&source.faults);
        self.decoders.clone_from(&source.decoders);
        self.initial.clone_from(&source.initial);
    }
}

impl FaultSimulator {
    /// Creates a simulator for a memory of `cells` cells initialised with `initial`.
    ///
    /// # Errors
    ///
    /// Propagates [`Memory::with_initial_state`] errors (empty memory, mismatched
    /// custom content), and returns [`SimulationError::MemoryUnavailable`]
    /// when the faulty memory or its golden copy cannot be allocated.
    pub fn new(cells: usize, initial: &InitialState) -> Result<FaultSimulator, SimulationError> {
        let faulty = Memory::with_initial_state(cells, initial)?;
        let golden = faulty.try_clone()?;
        Ok(FaultSimulator {
            faulty,
            golden,
            faults: Vec::new(),
            decoders: Vec::new(),
            initial: initial.clone(),
        })
    }

    /// The number of cells of the simulated memory.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.faulty.len()
    }

    /// Injects a single fault primitive. State-sensitized primitives are evaluated
    /// immediately against the current content.
    pub fn inject(&mut self, fault: InjectedFault) {
        self.faults.push(fault);
        self.settle_state_faults();
    }

    /// Injects both components of a linked fault instance.
    pub fn inject_linked(&mut self, instance: &LinkedFaultInstance) {
        for component in instance.components() {
            self.faults.push(component.clone());
        }
        self.settle_state_faults();
    }

    /// Injects an address-decoder fault instance: from now on, operations
    /// issued to the instance's source address resolve through the perturbed
    /// decode (see the type-level documentation).
    pub fn inject_decoder(&mut self, instance: DecoderFaultInstance) {
        self.decoders.push(instance);
    }

    /// Removes every injected fault — cell-array primitives and decoder
    /// instances alike (the memory contents are preserved).
    pub fn clear_faults(&mut self) {
        self.faults.clear();
        self.decoders.clear();
    }

    /// The injected fault primitives, in injection order.
    #[must_use]
    pub fn faults(&self) -> &[InjectedFault] {
        &self.faults
    }

    /// The injected address-decoder fault instances, in injection order.
    #[must_use]
    pub fn decoder_faults(&self) -> &[DecoderFaultInstance] {
        &self.decoders
    }

    /// Resets both memories to the configured initial content, keeping the injected
    /// faults.
    pub fn reset(&mut self) {
        let content = self
            .initial
            .materialise(self.faulty.len())
            .expect("initial state was validated at construction");
        self.faulty
            .load(&content)
            .expect("content length matches by construction");
        self.golden
            .load(&content)
            .expect("content length matches by construction");
        self.settle_state_faults();
    }

    /// The current content of the faulty memory.
    #[must_use]
    pub fn faulty_memory(&self) -> &Memory {
        &self.faulty
    }

    /// The current content of the fault-free reference memory.
    #[must_use]
    pub fn golden_memory(&self) -> &Memory {
        &self.golden
    }

    /// Applies one memory operation to cell `address` of both memories and reports
    /// the outcome.
    ///
    /// # Panics
    ///
    /// Panics if `address` is out of range for the simulated memory.
    pub fn apply(&mut self, address: usize, operation: Operation) -> OperationOutcome {
        assert!(
            address < self.faulty.len(),
            "cell address {address} out of range for a {}-cell memory",
            self.faulty.len()
        );

        // 1. Which operation-sensitized primitives fire? (pre-operation state)
        let fired: Vec<usize> = self
            .faults
            .iter()
            .enumerate()
            .filter(|(_, fault)| self.is_sensitized_by(fault, address, operation))
            .map(|(index, _)| index)
            .collect();

        // 2. Read return values.
        let golden_read = if operation.is_read() {
            Some(self.golden.read(address))
        } else {
            None
        };
        let observed = if operation.is_read() {
            let mut value = self.decoded_read(address);
            for index in &fired {
                let fault = &self.faults[*index];
                if fault.victim() == address {
                    if let Some(read_output) = fault.primitive().effect().read_output() {
                        value = read_output;
                    }
                }
            }
            Some(value)
        } else {
            None
        };

        // 3. Fault-free effect of the operation.
        if let Operation::Write(value) = operation {
            self.decoded_write(address, value);
            self.golden.write(address, value);
        }

        // 4. Fault effects of the fired primitives.
        for index in fired {
            let (victim, forced) = {
                let fault = &self.faults[index];
                (
                    fault.victim(),
                    fault.primitive().effect().victim_value().to_bit(),
                )
            };
            if let Some(value) = forced {
                self.faulty.write(victim, value);
            }
        }

        // 5. One pass of state-sensitized primitives.
        self.settle_state_faults();

        OperationOutcome {
            observed,
            expected: golden_read,
        }
    }

    /// The decoder instance perturbing `address`, if any (first injected wins).
    fn decoder_at(&self, address: usize) -> Option<&DecoderFaultInstance> {
        self.decoders
            .iter()
            .find(|instance| instance.source() == address)
    }

    /// The value a read of `address` returns from the faulty array, after
    /// resolving the (possibly perturbed) address decode.
    fn decoded_read(&self, address: usize) -> Bit {
        let Some(instance) = self.decoder_at(address) else {
            return self.faulty.read(address);
        };
        match instance.fault() {
            DecoderFault::NoCellAccessed { open_read } => open_read,
            DecoderFault::NoAddressMaps | DecoderFault::MultipleAddressesMap => self.faulty.read(
                instance
                    .destination()
                    .expect("pair class binds a destination"),
            ),
            DecoderFault::MultipleCellsAccessed => {
                // Wired-AND: either selected cell storing 0 pulls the
                // precharged bitline down.
                let own = self.faulty.read(address);
                let extra = self.faulty.read(
                    instance
                        .destination()
                        .expect("pair class binds a destination"),
                );
                if own == Bit::One && extra == Bit::One {
                    Bit::One
                } else {
                    Bit::Zero
                }
            }
        }
    }

    /// Stores `value` into the cell(s) the (possibly perturbed) decode of
    /// `address` selects.
    fn decoded_write(&mut self, address: usize, value: Bit) {
        let Some(instance) = self.decoder_at(address).copied() else {
            self.faulty.write(address, value);
            return;
        };
        match instance.fault() {
            DecoderFault::NoCellAccessed { .. } => {}
            DecoderFault::NoAddressMaps | DecoderFault::MultipleAddressesMap => {
                let destination = instance
                    .destination()
                    .expect("pair class binds a destination");
                self.faulty.write(destination, value);
            }
            DecoderFault::MultipleCellsAccessed => {
                let destination = instance
                    .destination()
                    .expect("pair class binds a destination");
                self.faulty.write(address, value);
                self.faulty.write(destination, value);
            }
        }
    }

    /// Returns `true` if `fault` is sensitized by applying `operation` to `address`
    /// given the current (pre-operation) faulty memory content.
    fn is_sensitized_by(
        &self,
        fault: &InjectedFault,
        address: usize,
        operation: Operation,
    ) -> bool {
        let primitive = fault.primitive();
        let site_cell = match primitive.sensitizing_site() {
            SensitizingSite::None => return false,
            SensitizingSite::Victim => fault.victim(),
            SensitizingSite::Aggressor => match fault.aggressor() {
                Some(aggressor) => aggressor,
                None => return false,
            },
        };
        if site_cell != address {
            return false;
        }
        let required = primitive
            .sensitizing_operation()
            .expect("operation-sensitized primitive has an operation");
        if !required.matches(operation) {
            return false;
        }
        // Initial-state conditions on every involved cell.
        if !primitive
            .victim()
            .initial()
            .matches(self.faulty.read(fault.victim()))
        {
            return false;
        }
        if let (Some(aggressor_cell), Some(aggressor)) = (fault.aggressor(), primitive.aggressor())
        {
            if !aggressor
                .initial()
                .matches(self.faulty.read(aggressor_cell))
            {
                return false;
            }
        }
        true
    }

    /// Performs a single pass over the state-sensitized primitives (SF, CFst) in
    /// injection order, applying the effect of each one whose condition holds.
    fn settle_state_faults(&mut self) {
        for index in 0..self.faults.len() {
            let (applies, victim, forced) = {
                let fault = &self.faults[index];
                let primitive = fault.primitive();
                if primitive.sensitizing_site() != SensitizingSite::None {
                    (false, 0, None)
                } else {
                    let victim_ok = primitive
                        .victim()
                        .initial()
                        .matches(self.faulty.read(fault.victim()));
                    let aggressor_ok = match (fault.aggressor(), primitive.aggressor()) {
                        (Some(cell), Some(condition)) => {
                            condition.initial().matches(self.faulty.read(cell))
                        }
                        _ => true,
                    };
                    (
                        victim_ok && aggressor_ok,
                        fault.victim(),
                        primitive.effect().victim_value().to_bit(),
                    )
                }
            };
            if applies {
                if let Some(value) = forced {
                    self.faulty.write(victim, value);
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_fault_model::{FaultPrimitive, Ffm};

    fn primitive(ffm: Ffm, notation: &str) -> FaultPrimitive {
        ffm.fault_primitives()
            .into_iter()
            .find(|fp| fp.notation() == notation)
            .unwrap_or_else(|| panic!("primitive {notation} not found"))
    }

    fn simulator(cells: usize) -> FaultSimulator {
        FaultSimulator::new(cells, &InitialState::AllZero).unwrap()
    }

    #[test]
    fn a_memory_past_the_address_space_is_a_typed_error() {
        // 2^60 one-byte cells exceed any 47- or 57-bit address space, so the
        // reservation fails before anything is allocated.
        for initial in [InitialState::AllZero, InitialState::Checkerboard] {
            assert_eq!(
                FaultSimulator::new(1 << 60, &initial).unwrap_err(),
                SimulationError::MemoryUnavailable { cells: 1 << 60 }
            );
        }
        assert!(FaultSimulator::new(16, &InitialState::Checkerboard).is_ok());
    }

    #[test]
    fn fault_free_memory_never_mismatches() {
        let mut sim = simulator(4);
        for address in 0..4 {
            assert!(!sim.apply(address, Operation::W1).mismatch());
            assert!(!sim.apply(address, Operation::R1).mismatch());
            assert!(!sim.apply(address, Operation::W0).mismatch());
            assert!(!sim.apply(address, Operation::R0).mismatch());
            assert!(!sim.apply(address, Operation::Wait).mismatch());
        }
        assert_eq!(sim.faulty_memory(), sim.golden_memory());
    }

    #[test]
    fn transition_fault_detected_by_read_after_write() {
        let tf = primitive(Ffm::TransitionFault, "<0w1/0/->");
        let mut sim = simulator(4);
        sim.inject(InjectedFault::single_cell(tf, 1, 4).unwrap());
        sim.apply(1, Operation::W1);
        let outcome = sim.apply(1, Operation::R1);
        assert_eq!(outcome.observed, Some(Bit::Zero));
        assert_eq!(outcome.expected, Some(Bit::One));
        assert!(outcome.mismatch());
    }

    #[test]
    fn write_destructive_fault_fires_on_non_transition_write() {
        let wdf = primitive(Ffm::WriteDestructiveFault, "<0w0/1/->");
        let mut sim = simulator(2);
        sim.inject(InjectedFault::single_cell(wdf, 0, 2).unwrap());
        // A transition write 1→0 must not trigger it.
        sim.apply(0, Operation::W1);
        sim.apply(0, Operation::W0);
        assert!(!sim.apply(0, Operation::R0).mismatch());
        // A non-transition write 0→0 must.
        sim.apply(0, Operation::W0);
        assert!(sim.apply(0, Operation::R0).mismatch());
    }

    #[test]
    fn read_fault_family_semantics() {
        // RDF: flips the cell and returns the wrong value.
        let rdf = primitive(Ffm::ReadDestructiveFault, "<0r0/1/1>");
        let mut sim = simulator(2);
        sim.inject(InjectedFault::single_cell(rdf, 0, 2).unwrap());
        let outcome = sim.apply(0, Operation::R0);
        assert!(outcome.mismatch());
        assert_eq!(sim.faulty_memory().read(0), Bit::One);

        // DRDF: flips the cell but the first read returns the correct value.
        let drdf = primitive(Ffm::DeceptiveReadDestructiveFault, "<0r0/1/0>");
        let mut sim = simulator(2);
        sim.inject(InjectedFault::single_cell(drdf, 0, 2).unwrap());
        assert!(!sim.apply(0, Operation::R0).mismatch());
        assert!(sim.apply(0, Operation::R0).mismatch());

        // IRF: returns the wrong value but the cell keeps its content.
        let irf = primitive(Ffm::IncorrectReadFault, "<0r0/0/1>");
        let mut sim = simulator(2);
        sim.inject(InjectedFault::single_cell(irf, 0, 2).unwrap());
        assert!(sim.apply(0, Operation::R0).mismatch());
        assert_eq!(sim.faulty_memory().read(0), Bit::Zero);
        assert!(sim.apply(0, Operation::R0).mismatch());
    }

    #[test]
    fn state_fault_flips_spontaneously() {
        let sf = primitive(Ffm::StateFault, "<0/1/->");
        let mut sim = simulator(2);
        sim.inject(InjectedFault::single_cell(sf, 1, 2).unwrap());
        // The cell starts at 0, so the fault fires as soon as it is injected.
        assert!(sim.apply(1, Operation::R0).mismatch());
        // Writing 1 is stable...
        sim.apply(1, Operation::W1);
        assert!(!sim.apply(1, Operation::R1).mismatch());
        // ...but writing 0 immediately flips back to 1.
        sim.apply(1, Operation::W0);
        assert!(sim.apply(1, Operation::R0).mismatch());
    }

    #[test]
    fn disturb_coupling_fires_on_aggressor_operation() {
        let cfds = primitive(Ffm::DisturbCoupling, "<0w1;0/1/->");
        let mut sim = simulator(4);
        sim.inject(InjectedFault::coupling(cfds, 0, 2, 4).unwrap());
        // Writing 1 into the aggressor (from 0) flips the victim.
        sim.apply(0, Operation::W1);
        assert!(sim.apply(2, Operation::R0).mismatch());
        // The same operation with the aggressor already at 1 does nothing further.
        sim.apply(2, Operation::W0);
        sim.apply(0, Operation::W1);
        assert!(!sim.apply(2, Operation::R0).mismatch());
    }

    #[test]
    fn masking_emerges_for_linked_disturb_couplings() {
        // The paper's example (12): <0w1;0/1/-> → <1w0;1/0/-> with different
        // aggressors. Sensitizing FP1 and then FP2 before reading masks the fault.
        let fp1 = primitive(Ffm::DisturbCoupling, "<0w1;0/1/->");
        let fp2 = primitive(Ffm::DisturbCoupling, "<1w0;1/0/->");
        let mut sim = simulator(4);
        sim.inject(InjectedFault::coupling(fp1, 0, 3, 4).unwrap());
        sim.inject(InjectedFault::coupling(fp2, 1, 3, 4).unwrap());
        // Prepare: aggressor 1 at 1, victim at 0.
        sim.apply(1, Operation::W1);
        sim.apply(3, Operation::W0);
        // Sensitize FP1 (victim flips to 1), then FP2 (victim flips back to 0).
        sim.apply(0, Operation::W1);
        sim.apply(1, Operation::W0);
        // The read sees the expected value: the fault is masked.
        assert!(!sim.apply(3, Operation::R0).mismatch());

        // Reading between the two sensitizations detects FP1 in isolation.
        let mut sim = simulator(4);
        let fp1 = primitive(Ffm::DisturbCoupling, "<0w1;0/1/->");
        let fp2 = primitive(Ffm::DisturbCoupling, "<1w0;1/0/->");
        sim.inject(InjectedFault::coupling(fp1, 0, 3, 4).unwrap());
        sim.inject(InjectedFault::coupling(fp2, 1, 3, 4).unwrap());
        sim.apply(1, Operation::W1);
        sim.apply(3, Operation::W0);
        sim.apply(0, Operation::W1);
        assert!(sim.apply(3, Operation::R0).mismatch());
    }

    #[test]
    fn reset_restores_the_initial_content_and_keeps_faults() {
        let tf = primitive(Ffm::TransitionFault, "<0w1/0/->");
        let mut sim = FaultSimulator::new(2, &InitialState::AllOne).unwrap();
        sim.inject(InjectedFault::single_cell(tf, 0, 2).unwrap());
        sim.apply(0, Operation::W0);
        assert_eq!(sim.faulty_memory().read(0), Bit::Zero);
        sim.reset();
        assert_eq!(sim.faulty_memory().read(0), Bit::One);
        assert_eq!(sim.faults().len(), 1);
        sim.clear_faults();
        assert!(sim.faults().is_empty());
    }

    #[test]
    fn state_coupling_follows_the_aggressor() {
        let cfst = primitive(Ffm::StateCoupling, "<1;0/1/->");
        let mut sim = simulator(4);
        sim.inject(InjectedFault::coupling(cfst, 0, 2, 4).unwrap());
        // Aggressor at 0: nothing happens.
        assert!(!sim.apply(2, Operation::R0).mismatch());
        // Aggressor raised to 1: the victim (currently 0) flips.
        sim.apply(0, Operation::W1);
        assert!(sim.apply(2, Operation::R0).mismatch());
    }

    #[test]
    fn no_cell_accessed_loses_writes_and_reads_the_open_value() {
        let mut sim = simulator(4);
        sim.inject_decoder(
            DecoderFaultInstance::new(
                DecoderFault::NoCellAccessed {
                    open_read: Bit::One,
                },
                crate::InstanceCells::single(2),
                4,
            )
            .unwrap(),
        );
        // The write is lost and the read floats to 1 while golden holds 0.
        sim.apply(2, Operation::W0);
        let outcome = sim.apply(2, Operation::R0);
        assert_eq!(outcome.observed, Some(Bit::One));
        assert_eq!(outcome.expected, Some(Bit::Zero));
        assert!(outcome.mismatch());
        // Other addresses are untouched.
        sim.apply(1, Operation::W1);
        assert!(!sim.apply(1, Operation::R1).mismatch());
        assert_eq!(sim.decoder_faults().len(), 1);
        sim.clear_faults();
        assert!(sim.decoder_faults().is_empty());
    }

    #[test]
    fn no_address_maps_redirects_onto_the_partner_cell() {
        let mut sim = simulator(4);
        sim.inject_decoder(
            DecoderFaultInstance::new(
                DecoderFault::NoAddressMaps,
                crate::InstanceCells::pair(3, 1),
                4,
            )
            .unwrap(),
        );
        // A write to address 1 lands in cell 3.
        sim.apply(1, Operation::W1);
        assert_eq!(sim.faulty_memory().read(1), Bit::Zero);
        assert_eq!(sim.faulty_memory().read(3), Bit::One);
        // Reading address 3 (its own, unperturbed address) now mismatches:
        // golden cell 3 still holds 0.
        assert!(sim.apply(3, Operation::R0).mismatch());
        // Reading address 1 returns cell 3's content (1) vs golden 1: no
        // mismatch here.
        assert!(!sim.apply(1, Operation::R1).mismatch());
    }

    #[test]
    fn multiple_cells_accessed_fans_out_and_reads_wired_and() {
        let mut sim = simulator(4);
        sim.inject_decoder(
            DecoderFaultInstance::new(
                DecoderFault::MultipleCellsAccessed,
                crate::InstanceCells::pair(2, 0),
                4,
            )
            .unwrap(),
        );
        // Writing address 0 stores into cells 0 and 2.
        sim.apply(0, Operation::W1);
        assert_eq!(sim.faulty_memory().read(0), Bit::One);
        assert_eq!(sim.faulty_memory().read(2), Bit::One);
        // Cell 2 read through its own address mismatches (golden is 0).
        assert!(sim.apply(2, Operation::R0).mismatch());
        // After writing 0 into cell 2, the wired-AND read of address 0 sees 0
        // although its own cell holds 1.
        sim.apply(2, Operation::W0);
        let outcome = sim.apply(0, Operation::R1);
        assert_eq!(outcome.observed, Some(Bit::Zero));
        assert!(outcome.mismatch());
    }

    #[test]
    fn multiple_addresses_map_aliases_the_partner_onto_the_primary() {
        let mut sim = simulator(4);
        sim.inject_decoder(
            DecoderFaultInstance::new(
                DecoderFault::MultipleAddressesMap,
                crate::InstanceCells::pair(3, 1),
                4,
            )
            .unwrap(),
        );
        // Address 3 (the alias) writes into cell 1; cell 3 is orphaned.
        sim.apply(3, Operation::W1);
        assert_eq!(sim.faulty_memory().read(3), Bit::Zero);
        assert_eq!(sim.faulty_memory().read(1), Bit::One);
        // Reading the primary address 1 sees the aliased write.
        assert!(sim.apply(1, Operation::R0).mismatch());
        // Reading the alias returns cell 1's content.
        let outcome = sim.apply(3, Operation::R1);
        assert_eq!(outcome.observed, Some(Bit::One));
    }

    #[test]
    fn outcome_display() {
        let mut sim = simulator(2);
        let write = sim.apply(0, Operation::W1);
        assert_eq!(write.to_string(), "write/wait");
        let read = sim.apply(0, Operation::R1);
        assert_eq!(read.to_string(), "read 1 (expected 1)");
    }
}
