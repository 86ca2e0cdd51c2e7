//! Fault instances: fault primitives and linked faults bound to concrete cells.

use std::fmt;

use sram_fault_model::{DecoderFault, FaultPrimitive, LinkTopology, LinkedFault, SensitizingSite};

use crate::SimulationError;

/// A fault primitive bound to concrete cell addresses of the simulated memory.
///
/// # Examples
///
/// ```
/// use sram_fault_model::Ffm;
/// use sram_sim::InjectedFault;
///
/// let tf = &Ffm::TransitionFault.fault_primitives()[0];
/// let fault = InjectedFault::single_cell(tf.clone(), 3, 8)?;
/// assert_eq!(fault.victim(), 3);
/// assert_eq!(fault.aggressor(), None);
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct InjectedFault {
    primitive: FaultPrimitive,
    aggressor: Option<usize>,
    victim: usize,
}

impl InjectedFault {
    /// Injects a single-cell primitive on cell `victim` of a memory with `cells`
    /// cells.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::AddressOutOfRange`] if `victim >= cells`;
    /// * [`SimulationError::MissingCells`] if the primitive is a coupling fault.
    pub fn single_cell(
        primitive: FaultPrimitive,
        victim: usize,
        cells: usize,
    ) -> Result<InjectedFault, SimulationError> {
        if primitive.is_coupling() {
            return Err(SimulationError::MissingCells(
                "coupling primitive requires an aggressor cell".to_string(),
            ));
        }
        check_address(victim, cells)?;
        Ok(InjectedFault {
            primitive,
            aggressor: None,
            victim,
        })
    }

    /// Injects a coupling primitive with the given `aggressor` and `victim` cells.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::AddressOutOfRange`] if either address is out of range;
    /// * [`SimulationError::OverlappingCells`] if the addresses coincide;
    /// * [`SimulationError::MissingCells`] if the primitive is single-cell.
    pub fn coupling(
        primitive: FaultPrimitive,
        aggressor: usize,
        victim: usize,
        cells: usize,
    ) -> Result<InjectedFault, SimulationError> {
        if !primitive.is_coupling() {
            return Err(SimulationError::MissingCells(
                "single-cell primitive does not take an aggressor cell".to_string(),
            ));
        }
        check_address(aggressor, cells)?;
        check_address(victim, cells)?;
        if aggressor == victim {
            return Err(SimulationError::OverlappingCells { address: victim });
        }
        Ok(InjectedFault {
            primitive,
            aggressor: Some(aggressor),
            victim,
        })
    }

    /// The injected fault primitive.
    #[must_use]
    pub fn primitive(&self) -> &FaultPrimitive {
        &self.primitive
    }

    /// The aggressor cell address, if the primitive is a coupling fault.
    #[must_use]
    pub fn aggressor(&self) -> Option<usize> {
        self.aggressor
    }

    /// The victim cell address.
    #[must_use]
    pub fn victim(&self) -> usize {
        self.victim
    }

    /// The cell the sensitizing operation must target, or `None` for state faults.
    #[must_use]
    pub fn sensitizing_cell(&self) -> Option<usize> {
        match self.primitive.sensitizing_site() {
            SensitizingSite::Victim => Some(self.victim),
            SensitizingSite::Aggressor => self.aggressor,
            SensitizingSite::None => None,
        }
    }
}

impl fmt::Display for InjectedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.aggressor {
            Some(aggressor) => write!(f, "{} @ a={aggressor}, v={}", self.primitive, self.victim),
            None => write!(f, "{} @ v={}", self.primitive, self.victim),
        }
    }
}

/// The cell assignment of a linked fault instance.
///
/// Which fields are required depends on the [`LinkTopology`]:
///
/// | topology | `aggressor_first` | `aggressor_second` |
/// |----------|-------------------|--------------------|
/// | LF1      | –                 | –                  |
/// | LF2av    | aggressor of FP1  | –                  |
/// | LF2va    | –                 | aggressor of FP2   |
/// | LF2aa    | shared aggressor  | (same as first)    |
/// | LF3      | aggressor of FP1  | aggressor of FP2   |
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct InstanceCells {
    /// The aggressor cell of the first fault primitive, when it is a coupling fault.
    pub aggressor_first: Option<usize>,
    /// The aggressor cell of the second fault primitive, when it is a coupling
    /// fault.
    pub aggressor_second: Option<usize>,
    /// The shared victim cell.
    pub victim: usize,
}

impl InstanceCells {
    /// Cell assignment for a single-cell (LF1) instance.
    #[must_use]
    pub const fn single(victim: usize) -> InstanceCells {
        InstanceCells {
            aggressor_first: None,
            aggressor_second: None,
            victim,
        }
    }

    /// Cell assignment for a two-cell instance with one aggressor used by whichever
    /// component needs it.
    #[must_use]
    pub const fn pair(aggressor: usize, victim: usize) -> InstanceCells {
        InstanceCells {
            aggressor_first: Some(aggressor),
            aggressor_second: Some(aggressor),
            victim,
        }
    }

    /// Cell assignment for a three-cell (LF3) instance.
    #[must_use]
    pub const fn triple(
        aggressor_first: usize,
        aggressor_second: usize,
        victim: usize,
    ) -> InstanceCells {
        InstanceCells {
            aggressor_first: Some(aggressor_first),
            aggressor_second: Some(aggressor_second),
            victim,
        }
    }

    /// All distinct cell addresses used by the assignment.
    #[must_use]
    pub fn cells(&self) -> Vec<usize> {
        let mut cells = vec![self.victim];
        cells.extend(self.aggressor_first);
        cells.extend(self.aggressor_second);
        cells.sort_unstable();
        cells.dedup();
        cells
    }
}

impl fmt::Display for InstanceCells {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "v={}", self.victim)?;
        if let Some(a1) = self.aggressor_first {
            write!(f, ", a1={a1}")?;
        }
        if let Some(a2) = self.aggressor_second {
            write!(f, ", a2={a2}")?;
        }
        Ok(())
    }
}

/// A linked fault bound to concrete cells, ready to be injected into a
/// [`FaultSimulator`](crate::FaultSimulator).
///
/// # Examples
///
/// ```
/// use sram_fault_model::FaultList;
/// use sram_sim::{InstanceCells, LinkedFaultInstance};
///
/// let fault = FaultList::list_2().linked()[0].clone();
/// let instance = LinkedFaultInstance::new(fault, InstanceCells::single(3), 8)?;
/// assert_eq!(instance.components().len(), 2);
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkedFaultInstance {
    fault: LinkedFault,
    cells: InstanceCells,
    components: Vec<InjectedFault>,
}

impl LinkedFaultInstance {
    /// Binds `fault` to the cells given by `cells` on a memory with `memory_cells`
    /// cells.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::MissingCells`] if the assignment does not provide the
    ///   aggressors required by the fault's topology;
    /// * [`SimulationError::OverlappingCells`] if cells that must be distinct
    ///   coincide (aggressors and victim, or the two aggressors of an LF3);
    /// * [`SimulationError::AddressOutOfRange`] for out-of-range addresses.
    pub fn new(
        fault: LinkedFault,
        cells: InstanceCells,
        memory_cells: usize,
    ) -> Result<LinkedFaultInstance, SimulationError> {
        let [first_aggressor, second_aggressor] = component_aggressors(&fault, cells)?;
        let components = vec![
            build_component(
                fault.first().clone(),
                first_aggressor,
                cells.victim,
                memory_cells,
            )?,
            build_component(
                fault.second().clone(),
                second_aggressor,
                cells.victim,
                memory_cells,
            )?,
        ];

        Ok(LinkedFaultInstance {
            fault,
            cells,
            components,
        })
    }

    /// The linked fault being instantiated.
    #[must_use]
    pub fn fault(&self) -> &LinkedFault {
        &self.fault
    }

    /// The cell assignment.
    #[must_use]
    pub fn cells(&self) -> InstanceCells {
        self.cells
    }

    /// The two injected fault primitives (first, second).
    #[must_use]
    pub fn components(&self) -> &[InjectedFault] {
        &self.components
    }
}

impl fmt::Display for LinkedFaultInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} @ {}", self.fault, self.cells)
    }
}

/// An address-decoder fault class bound to concrete addresses of the simulated
/// memory, ready to be injected into a
/// [`FaultSimulator`](crate::FaultSimulator).
///
/// The *primary* address is the anchor of the class (the dead address of
/// *no cell accessed*, the redirected address of *no address maps*, the
/// fanning address of *multiple cells accessed*, the doubly-mapped cell of
/// *multiple addresses map*); the *partner* is the second address of the pair
/// classes. The pair [`source`](DecoderFaultInstance::source) /
/// [`destination`](DecoderFaultInstance::destination) exposes the resulting
/// decode perturbation: operations issued to `source` reach `destination`
/// (instead of, or — for the fan-out class — in addition to, their own cell).
///
/// # Examples
///
/// ```
/// use sram_fault_model::DecoderFault;
/// use sram_sim::{DecoderFaultInstance, InstanceCells};
///
/// // Address 3 is redirected onto cell 5: cell 3 is never accessed.
/// let af = DecoderFaultInstance::new(
///     DecoderFault::NoAddressMaps,
///     InstanceCells::pair(5, 3),
///     8,
/// )?;
/// assert_eq!(af.source(), 3);
/// assert_eq!(af.destination(), Some(5));
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DecoderFaultInstance {
    fault: DecoderFault,
    primary: usize,
    partner: Option<usize>,
}

impl DecoderFaultInstance {
    /// Binds `fault` to the addresses of `cells` (primary = `victim`,
    /// partner = `aggressor_first`) on a memory with `memory_cells` cells.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::AddressOutOfRange`] for out-of-range addresses;
    /// * [`SimulationError::MissingCells`] if a pair class lacks its partner;
    /// * [`SimulationError::OverlappingCells`] if primary and partner coincide.
    pub fn new(
        fault: DecoderFault,
        cells: InstanceCells,
        memory_cells: usize,
    ) -> Result<DecoderFaultInstance, SimulationError> {
        check_address(cells.victim, memory_cells)?;
        let partner = if fault.involves_partner() {
            let partner = cells.aggressor_first.ok_or_else(|| {
                SimulationError::MissingCells(format!(
                    "decoder fault class `{fault}` requires a partner address"
                ))
            })?;
            check_address(partner, memory_cells)?;
            if partner == cells.victim {
                return Err(SimulationError::OverlappingCells {
                    address: cells.victim,
                });
            }
            Some(partner)
        } else {
            None
        };
        Ok(DecoderFaultInstance {
            fault,
            primary: cells.victim,
            partner,
        })
    }

    /// The decoder fault class being instantiated.
    #[must_use]
    pub fn fault(&self) -> DecoderFault {
        self.fault
    }

    /// The primary address of the instance.
    #[must_use]
    pub fn primary(&self) -> usize {
        self.primary
    }

    /// The partner address, for the pair classes.
    #[must_use]
    pub fn partner(&self) -> Option<usize> {
        self.partner
    }

    /// The address assignment, in the [`InstanceCells`] encoding the placement
    /// enumeration produced it in.
    #[must_use]
    pub fn cells(&self) -> InstanceCells {
        match self.partner {
            Some(partner) => InstanceCells::pair(partner, self.primary),
            None => InstanceCells::single(self.primary),
        }
    }

    /// The address whose decode is perturbed: the primary for every class
    /// except *multiple addresses map*, where the alias (partner) address is
    /// the one redirected onto the primary cell.
    #[must_use]
    pub fn source(&self) -> usize {
        match self.fault {
            DecoderFault::MultipleAddressesMap => self.partner.expect("pair class binds a partner"),
            _ => self.primary,
        }
    }

    /// The cell the perturbed address reaches (`None` for *no cell accessed*,
    /// which selects nothing). For *multiple cells accessed* this is the extra
    /// cell selected alongside the source's own cell.
    #[must_use]
    pub fn destination(&self) -> Option<usize> {
        match self.fault {
            DecoderFault::NoCellAccessed { .. } => None,
            DecoderFault::NoAddressMaps | DecoderFault::MultipleCellsAccessed => self.partner,
            DecoderFault::MultipleAddressesMap => Some(self.primary),
        }
    }
}

impl fmt::Display for DecoderFaultInstance {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.partner {
            Some(partner) => write!(f, "{} @ a={}, p={partner}", self.fault, self.primary),
            None => write!(f, "{} @ a={}", self.fault, self.primary),
        }
    }
}

/// The aggressor each component of `fault` is bound to under `cells` (the
/// victim is shared), by the fault's topology: the cell binding of
/// [`LinkedFaultInstance::new`], without building the components.
///
/// # Errors
///
/// [`SimulationError::MissingCells`] when `cells` lacks an aggressor the
/// topology needs, [`SimulationError::OverlappingCells`] when the two
/// aggressors of an LF3 coincide.
pub(crate) fn component_aggressors(
    fault: &LinkedFault,
    cells: InstanceCells,
) -> Result<[Option<usize>; 2], SimulationError> {
    let topology = fault.topology();
    let first_aggressor = match topology {
        LinkTopology::Lf1 | LinkTopology::Lf2SingleThenCoupling => None,
        LinkTopology::Lf2CouplingThenSingle
        | LinkTopology::Lf2SharedAggressor
        | LinkTopology::Lf3 => Some(cells.aggressor_first.ok_or_else(|| {
            SimulationError::MissingCells(format!(
                "topology {topology} requires an aggressor for the first primitive"
            ))
        })?),
    };
    let second_aggressor = match topology {
        LinkTopology::Lf1 | LinkTopology::Lf2CouplingThenSingle => None,
        LinkTopology::Lf2SingleThenCoupling | LinkTopology::Lf3 => {
            Some(cells.aggressor_second.ok_or_else(|| {
                SimulationError::MissingCells(format!(
                    "topology {topology} requires an aggressor for the second primitive"
                ))
            })?)
        }
        LinkTopology::Lf2SharedAggressor => {
            let shared = cells
                .aggressor_first
                .or(cells.aggressor_second)
                .ok_or_else(|| {
                    SimulationError::MissingCells(
                        "shared-aggressor topology requires an aggressor cell".to_string(),
                    )
                })?;
            Some(shared)
        }
    };

    if topology == LinkTopology::Lf3 {
        if let (Some(a1), Some(a2)) = (first_aggressor, second_aggressor) {
            if a1 == a2 {
                return Err(SimulationError::OverlappingCells { address: a1 });
            }
        }
    }
    Ok([first_aggressor, second_aggressor])
}

fn build_component(
    primitive: FaultPrimitive,
    aggressor: Option<usize>,
    victim: usize,
    memory_cells: usize,
) -> Result<InjectedFault, SimulationError> {
    if primitive.is_coupling() {
        let aggressor = aggressor.ok_or_else(|| {
            SimulationError::MissingCells("coupling component needs an aggressor".to_string())
        })?;
        InjectedFault::coupling(primitive, aggressor, victim, memory_cells)
    } else {
        InjectedFault::single_cell(primitive, victim, memory_cells)
    }
}

fn check_address(address: usize, cells: usize) -> Result<(), SimulationError> {
    if address >= cells {
        Err(SimulationError::AddressOutOfRange { address, cells })
    } else {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_fault_model::{FaultList, Ffm, LinkTopology};

    fn first_with_topology(topology: LinkTopology) -> LinkedFault {
        FaultList::list_1()
            .linked()
            .iter()
            .find(|lf| lf.topology() == topology)
            .cloned()
            .expect("list 1 contains every topology")
    }

    #[test]
    fn injected_fault_validation() {
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let cfds = Ffm::DisturbCoupling.fault_primitives()[0].clone();

        assert!(InjectedFault::single_cell(tf.clone(), 2, 4).is_ok());
        assert!(matches!(
            InjectedFault::single_cell(tf.clone(), 4, 4),
            Err(SimulationError::AddressOutOfRange { .. })
        ));
        assert!(matches!(
            InjectedFault::single_cell(cfds.clone(), 2, 4),
            Err(SimulationError::MissingCells(_))
        ));
        assert!(InjectedFault::coupling(cfds.clone(), 0, 3, 4).is_ok());
        assert!(matches!(
            InjectedFault::coupling(cfds.clone(), 3, 3, 4),
            Err(SimulationError::OverlappingCells { .. })
        ));
        assert!(matches!(
            InjectedFault::coupling(tf, 0, 3, 4),
            Err(SimulationError::MissingCells(_))
        ));
        let fault = InjectedFault::coupling(cfds, 0, 3, 4).unwrap();
        assert_eq!(fault.sensitizing_cell(), Some(0));
    }

    #[test]
    fn lf1_instance_uses_single_cell() {
        let fault = first_with_topology(LinkTopology::Lf1);
        let instance = LinkedFaultInstance::new(fault, InstanceCells::single(3), 8).unwrap();
        assert_eq!(instance.components().len(), 2);
        assert!(instance
            .components()
            .iter()
            .all(|component| component.victim() == 3 && component.aggressor().is_none()));
        assert_eq!(instance.cells().cells(), vec![3]);
    }

    #[test]
    fn lf2_instances_resolve_aggressors() {
        let av = first_with_topology(LinkTopology::Lf2CouplingThenSingle);
        let instance = LinkedFaultInstance::new(av, InstanceCells::pair(1, 5), 8).unwrap();
        assert_eq!(instance.components()[0].aggressor(), Some(1));
        assert_eq!(instance.components()[1].aggressor(), None);

        let va = first_with_topology(LinkTopology::Lf2SingleThenCoupling);
        let instance = LinkedFaultInstance::new(va, InstanceCells::pair(1, 5), 8).unwrap();
        assert_eq!(instance.components()[0].aggressor(), None);
        assert_eq!(instance.components()[1].aggressor(), Some(1));

        let aa = first_with_topology(LinkTopology::Lf2SharedAggressor);
        let instance = LinkedFaultInstance::new(aa, InstanceCells::pair(1, 5), 8).unwrap();
        assert_eq!(instance.components()[0].aggressor(), Some(1));
        assert_eq!(instance.components()[1].aggressor(), Some(1));
    }

    #[test]
    fn decoder_instance_validation_and_roles() {
        use sram_fault_model::{Bit, DecoderFault};

        let nca = DecoderFault::NoCellAccessed {
            open_read: Bit::One,
        };
        let instance = DecoderFaultInstance::new(nca, InstanceCells::single(3), 8).unwrap();
        assert_eq!(instance.source(), 3);
        assert_eq!(instance.destination(), None);
        assert_eq!(instance.partner(), None);
        assert_eq!(instance.cells(), InstanceCells::single(3));
        assert!(!instance.to_string().is_empty());
        assert!(matches!(
            DecoderFaultInstance::new(nca, InstanceCells::single(8), 8),
            Err(SimulationError::AddressOutOfRange { .. })
        ));

        let nam =
            DecoderFaultInstance::new(DecoderFault::NoAddressMaps, InstanceCells::pair(5, 3), 8)
                .unwrap();
        assert_eq!((nam.source(), nam.destination()), (3, Some(5)));
        assert_eq!(nam.cells(), InstanceCells::pair(5, 3));

        let mca = DecoderFaultInstance::new(
            DecoderFault::MultipleCellsAccessed,
            InstanceCells::pair(5, 3),
            8,
        )
        .unwrap();
        assert_eq!((mca.source(), mca.destination()), (3, Some(5)));

        // The alias address of the `multiple addresses map` class is the
        // perturbed one; the primary cell is its destination.
        let mam = DecoderFaultInstance::new(
            DecoderFault::MultipleAddressesMap,
            InstanceCells::pair(5, 3),
            8,
        )
        .unwrap();
        assert_eq!((mam.source(), mam.destination()), (5, Some(3)));

        assert!(matches!(
            DecoderFaultInstance::new(DecoderFault::NoAddressMaps, InstanceCells::single(3), 8),
            Err(SimulationError::MissingCells(_))
        ));
        assert!(matches!(
            DecoderFaultInstance::new(DecoderFault::NoAddressMaps, InstanceCells::pair(3, 3), 8),
            Err(SimulationError::OverlappingCells { address: 3 })
        ));
    }

    #[test]
    fn lf3_requires_two_distinct_aggressors() {
        let lf3 = first_with_topology(LinkTopology::Lf3);
        let instance =
            LinkedFaultInstance::new(lf3.clone(), InstanceCells::triple(0, 4, 6), 8).unwrap();
        assert_eq!(instance.components()[0].aggressor(), Some(0));
        assert_eq!(instance.components()[1].aggressor(), Some(4));
        assert_eq!(instance.cells().cells(), vec![0, 4, 6]);

        assert!(matches!(
            LinkedFaultInstance::new(lf3.clone(), InstanceCells::triple(0, 0, 6), 8),
            Err(SimulationError::OverlappingCells { .. })
        ));
        assert!(matches!(
            LinkedFaultInstance::new(lf3, InstanceCells::single(6), 8),
            Err(SimulationError::MissingCells(_))
        ));
    }
}
