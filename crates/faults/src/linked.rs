//! Linked faults (Definitions 6 and 7 of the paper) and their topology taxonomy.

use std::fmt;

use crate::{AddressedFaultPrimitive, CellValue, FaultModelError, FaultPrimitive, SensitizingSite};

/// The structural class of a linked fault, following the taxonomy of Hamdioui et al.
/// ("Linked Faults in Random Access Memories", TCAD 2004) used by the paper's two
/// target fault lists.
///
/// The class determines how many distinct cells the fault involves and therefore how
/// the fault must be instantiated on a concrete memory.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum LinkTopology {
    /// Single-cell linked fault: both fault primitives involve only the victim cell.
    Lf1,
    /// Two-cell linked fault in which the first primitive is a coupling fault
    /// (aggressor → victim) and the second is a single-cell fault on the victim.
    Lf2CouplingThenSingle,
    /// Two-cell linked fault in which the first primitive is a single-cell fault on
    /// the victim and the second is a coupling fault (aggressor → victim).
    Lf2SingleThenCoupling,
    /// Two-cell linked fault in which both primitives are coupling faults sharing
    /// the same aggressor cell.
    Lf2SharedAggressor,
    /// Three-cell linked fault: both primitives are coupling faults with *different*
    /// aggressor cells and a common victim.
    Lf3,
}

impl LinkTopology {
    /// Every topology class, in increasing number of involved cells.
    pub const ALL: [LinkTopology; 5] = [
        LinkTopology::Lf1,
        LinkTopology::Lf2CouplingThenSingle,
        LinkTopology::Lf2SingleThenCoupling,
        LinkTopology::Lf2SharedAggressor,
        LinkTopology::Lf3,
    ];

    /// The number of distinct memory cells involved by a linked fault of this class.
    #[must_use]
    pub const fn cell_count(self) -> usize {
        match self {
            LinkTopology::Lf1 => 1,
            LinkTopology::Lf2CouplingThenSingle
            | LinkTopology::Lf2SingleThenCoupling
            | LinkTopology::Lf2SharedAggressor => 2,
            LinkTopology::Lf3 => 3,
        }
    }

    /// Returns `true` for the two-cell classes.
    #[must_use]
    pub const fn is_two_cell(self) -> bool {
        self.cell_count() == 2
    }

    /// Short label used in reports (`LF1`, `LF2av`, `LF2va`, `LF2aa`, `LF3`).
    #[must_use]
    pub const fn label(self) -> &'static str {
        match self {
            LinkTopology::Lf1 => "LF1",
            LinkTopology::Lf2CouplingThenSingle => "LF2av",
            LinkTopology::Lf2SingleThenCoupling => "LF2va",
            LinkTopology::Lf2SharedAggressor => "LF2aa",
            LinkTopology::Lf3 => "LF3",
        }
    }
}

impl fmt::Display for LinkTopology {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.label())
    }
}

/// A static linked fault `FP1 → FP2` (Definition 6 of the paper).
///
/// The second fault primitive *masks* the first one: its fault value is the
/// complement of the first's (`F2 = ¬F1`) and its sensitization can occur after the
/// first's, on the shared victim cell. Construction is checked; see
/// [`LinkedFault::link`].
///
/// # Examples
///
/// The paper's example (12): a disturb coupling fault linked to a disturb coupling
/// fault, `<0w1; 0/1/-> → <1w0; 1/0/->`:
///
/// ```
/// use sram_fault_model::{Ffm, LinkTopology, LinkedFault};
///
/// let find = |notation: &str| {
///     Ffm::DisturbCoupling
///         .fault_primitives()
///         .into_iter()
///         .find(|fp| fp.notation() == notation)
///         .expect("realistic CFds primitive")
/// };
/// let lf = LinkedFault::link(find("<0w1;0/1/->"), find("<1w0;1/0/->"), LinkTopology::Lf3)?;
/// assert_eq!(lf.to_string(), "<0w1;0/1/-> -> <1w0;1/0/-> [LF3]");
/// # Ok::<(), sram_fault_model::FaultModelError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct LinkedFault {
    first: FaultPrimitive,
    second: FaultPrimitive,
    topology: LinkTopology,
}

impl LinkedFault {
    /// Links two fault primitives into a linked fault of the given topology.
    ///
    /// # Errors
    ///
    /// * [`FaultModelError::InvalidTopology`] if the cell counts of the primitives do
    ///   not match the topology (e.g. an `Lf1` built from a coupling primitive);
    /// * [`FaultModelError::MaskMismatch`] if `F2 ≠ ¬F1` (Definition 6 requires the
    ///   second primitive to mask the first);
    /// * [`FaultModelError::StateIncompatible`] if the second primitive cannot be
    ///   sensitized in the state left behind by the first (its victim initial state
    ///   conflicts with `F1`, or — for a shared aggressor — its aggressor initial
    ///   state conflicts with the aggressor state left by the first primitive).
    pub fn link(
        first: FaultPrimitive,
        second: FaultPrimitive,
        topology: LinkTopology,
    ) -> Result<LinkedFault, FaultModelError> {
        Self::check_topology(&first, &second, topology)?;
        Self::check_masking(&first, &second)?;
        Self::check_state_compatibility(&first, &second, topology)?;
        Ok(LinkedFault {
            first,
            second,
            topology,
        })
    }

    fn check_topology(
        first: &FaultPrimitive,
        second: &FaultPrimitive,
        topology: LinkTopology,
    ) -> Result<(), FaultModelError> {
        let shape = (first.cell_count(), second.cell_count());
        let valid = match topology {
            LinkTopology::Lf1 => shape == (1, 1),
            LinkTopology::Lf2CouplingThenSingle => shape == (2, 1),
            LinkTopology::Lf2SingleThenCoupling => shape == (1, 2),
            LinkTopology::Lf2SharedAggressor | LinkTopology::Lf3 => shape == (2, 2),
        };
        if valid {
            Ok(())
        } else {
            Err(FaultModelError::InvalidTopology(format!(
                "topology {topology} is incompatible with cell counts {shape:?}"
            )))
        }
    }

    fn check_masking(
        first: &FaultPrimitive,
        second: &FaultPrimitive,
    ) -> Result<(), FaultModelError> {
        match (first.fault_value().to_bit(), second.fault_value().to_bit()) {
            (Some(f1), Some(f2)) if f2 == f1.flipped() => Ok(()),
            _ => Err(FaultModelError::MaskMismatch),
        }
    }

    fn check_state_compatibility(
        first: &FaultPrimitive,
        second: &FaultPrimitive,
        topology: LinkTopology,
    ) -> Result<(), FaultModelError> {
        // After FP1 the victim holds F1; FP2 must accept that state on its victim.
        let victim_after_first = first.fault_value();
        if !second.victim().initial().compatible(victim_after_first) {
            return Err(FaultModelError::StateIncompatible);
        }
        // For a shared aggressor the aggressor state left by FP1 must satisfy FP2.
        if topology == LinkTopology::Lf2SharedAggressor {
            let aggressor_after_first = first
                .aggressor()
                .map(|condition| condition.fault_free_final())
                .unwrap_or(CellValue::DontCare);
            let required = second
                .aggressor()
                .map(|condition| condition.initial())
                .unwrap_or(CellValue::DontCare);
            if !required.compatible(aggressor_after_first) {
                return Err(FaultModelError::StateIncompatible);
            }
        }
        Ok(())
    }

    /// The first (masked) fault primitive.
    #[must_use]
    pub fn first(&self) -> &FaultPrimitive {
        &self.first
    }

    /// The second (masking) fault primitive.
    #[must_use]
    pub fn second(&self) -> &FaultPrimitive {
        &self.second
    }

    /// The structural class of the linked fault.
    #[must_use]
    pub fn topology(&self) -> LinkTopology {
        self.topology
    }

    /// The number of distinct memory cells involved.
    #[must_use]
    pub fn cell_count(&self) -> usize {
        self.topology.cell_count()
    }

    /// Returns `true` if at least one component is sensitized by an operation on an
    /// aggressor cell (relevant when choosing march address orders).
    #[must_use]
    pub fn has_aggressor_operation(&self) -> bool {
        [&self.first, &self.second]
            .into_iter()
            .any(|fp| fp.sensitizing_site() == SensitizingSite::Aggressor)
    }
}

impl fmt::Display for LinkedFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {} [{}]", self.first, self.second, self.topology)
    }
}

/// A pair of addressed fault primitives forming a linked fault (Definition 7).
///
/// `AFP1 → AFP2` requires the two AFPs to share the victim address, the state
/// reached by the first to be an admissible initial state for the second
/// (`I2` compatible with `Fv1`) and the second to mask the first
/// (`V(Fv2) = ¬V(Fv1)`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LinkedAfp {
    first: AddressedFaultPrimitive,
    second: AddressedFaultPrimitive,
}

impl LinkedAfp {
    /// Links two addressed fault primitives, validating Definition 7.
    ///
    /// # Errors
    ///
    /// Returns [`FaultModelError::AfpLinkViolation`] describing which condition
    /// failed (different memory sizes, different victims, incompatible states or a
    /// violated masking condition).
    pub fn try_link(
        first: AddressedFaultPrimitive,
        second: AddressedFaultPrimitive,
    ) -> Result<LinkedAfp, FaultModelError> {
        if first.initial().len() != second.initial().len() {
            return Err(FaultModelError::AfpLinkViolation(
                "the two AFPs refer to memories of different sizes".to_string(),
            ));
        }
        if first.victim() != second.victim() {
            return Err(FaultModelError::AfpLinkViolation(
                "the two AFPs do not share the victim cell".to_string(),
            ));
        }
        if !second.initial().compatible(first.faulty()) {
            return Err(FaultModelError::AfpLinkViolation(
                "I2 is not compatible with Fv1".to_string(),
            ));
        }
        let masked = match (
            first.victim_faulty_value().to_bit(),
            second.victim_faulty_value().to_bit(),
        ) {
            (Some(v1), Some(v2)) => v2 == v1.flipped(),
            _ => false,
        };
        if !masked {
            return Err(FaultModelError::AfpLinkViolation(
                "V(Fv2) is not the complement of V(Fv1)".to_string(),
            ));
        }
        Ok(LinkedAfp { first, second })
    }

    /// The first (masked) addressed fault primitive.
    #[must_use]
    pub fn first(&self) -> &AddressedFaultPrimitive {
        &self.first
    }

    /// The second (masking) addressed fault primitive.
    #[must_use]
    pub fn second(&self) -> &AddressedFaultPrimitive {
        &self.second
    }

    /// The shared victim cell address.
    #[must_use]
    pub fn victim(&self) -> usize {
        self.first.victim()
    }
}

impl fmt::Display for LinkedAfp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} -> {}", self.first, self.second)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Ffm, Placement};

    fn find(ffm: Ffm, notation: &str) -> FaultPrimitive {
        ffm.fault_primitives()
            .into_iter()
            .find(|fp| fp.notation() == notation)
            .unwrap_or_else(|| panic!("primitive {notation} not found"))
    }

    #[test]
    fn topology_cell_counts() {
        assert_eq!(LinkTopology::Lf1.cell_count(), 1);
        assert_eq!(LinkTopology::Lf2SharedAggressor.cell_count(), 2);
        assert_eq!(LinkTopology::Lf3.cell_count(), 3);
        assert!(LinkTopology::Lf2CouplingThenSingle.is_two_cell());
        assert!(!LinkTopology::Lf3.is_two_cell());
        assert_eq!(LinkTopology::Lf2SingleThenCoupling.to_string(), "LF2va");
    }

    #[test]
    fn paper_example_links() {
        // <0w1;0/1/-> → <1w0;1/0/-> as a three-cell linked fault (different aggressors).
        let lf = LinkedFault::link(
            find(Ffm::DisturbCoupling, "<0w1;0/1/->"),
            find(Ffm::DisturbCoupling, "<1w0;1/0/->"),
            LinkTopology::Lf3,
        )
        .unwrap();
        assert_eq!(lf.cell_count(), 3);
        assert!(lf.has_aggressor_operation());

        // The same pair with a shared aggressor: after FP1 the aggressor holds 1 and
        // FP2 requires it at 1, so the link is accepted as LF2aa as well.
        let lf2 = LinkedFault::link(
            find(Ffm::DisturbCoupling, "<0w1;0/1/->"),
            find(Ffm::DisturbCoupling, "<1w0;1/0/->"),
            LinkTopology::Lf2SharedAggressor,
        );
        assert!(lf2.is_ok());
    }

    #[test]
    fn masking_is_enforced() {
        // F2 = F1 = 1: not a masking pair.
        let err = LinkedFault::link(
            find(Ffm::DisturbCoupling, "<0w1;0/1/->"),
            find(Ffm::DisturbCoupling, "<1w0;0/1/->"),
            LinkTopology::Lf3,
        )
        .unwrap_err();
        assert_eq!(err, FaultModelError::MaskMismatch);
    }

    #[test]
    fn state_compatibility_is_enforced() {
        // FP1 leaves the victim at 1; FP2 requires the victim at 0 before a w0 on it.
        let first = find(Ffm::DisturbCoupling, "<0w1;0/1/->");
        let incompatible_second = find(Ffm::TransitionCoupling, "<0;0w1/0/->");
        let err = LinkedFault::link(first, incompatible_second, LinkTopology::Lf3).unwrap_err();
        assert_eq!(err, FaultModelError::StateIncompatible);
    }

    #[test]
    fn topology_mismatch_is_rejected() {
        let err = LinkedFault::link(
            find(Ffm::TransitionFault, "<0w1/0/->"),
            find(Ffm::WriteDestructiveFault, "<0w0/1/->"),
            LinkTopology::Lf3,
        )
        .unwrap_err();
        assert!(matches!(err, FaultModelError::InvalidTopology(_)));
    }

    #[test]
    fn single_cell_link() {
        // TF↑ <0w1/0/-> masked by WDF <0w0/1/->.
        let lf = LinkedFault::link(
            find(Ffm::TransitionFault, "<0w1/0/->"),
            find(Ffm::WriteDestructiveFault, "<0w0/1/->"),
            LinkTopology::Lf1,
        )
        .unwrap();
        assert_eq!(lf.topology(), LinkTopology::Lf1);
        assert!(!lf.has_aggressor_operation());
    }

    #[test]
    fn afp_link_paper_example() {
        // (000, w1[0], 101, 100) → (101, w1[1], 110, 111) from equation (7).
        let fp1 = find(Ffm::DisturbCoupling, "<0w1;0/1/->");
        let fp2 = find(Ffm::DisturbCoupling, "<0w1;1/0/->");
        let afp1 =
            AddressedFaultPrimitive::instantiate(&fp1, Placement::coupling(0, 2, 3).unwrap())
                .unwrap();
        let afp2 =
            AddressedFaultPrimitive::instantiate(&fp2, Placement::coupling(1, 2, 3).unwrap())
                .unwrap();
        let linked = LinkedAfp::try_link(afp1, afp2).unwrap();
        assert_eq!(linked.victim(), 2);
        assert_eq!(linked.first().faulty().to_string(), "1-1");
        assert_eq!(linked.second().faulty().to_string(), "-10");
    }

    #[test]
    fn afp_link_rejects_different_victims() {
        let fp1 = find(Ffm::DisturbCoupling, "<0w1;0/1/->");
        let fp2 = find(Ffm::DisturbCoupling, "<0w1;1/0/->");
        let afp1 =
            AddressedFaultPrimitive::instantiate(&fp1, Placement::coupling(0, 2, 3).unwrap())
                .unwrap();
        let afp2 =
            AddressedFaultPrimitive::instantiate(&fp2, Placement::coupling(0, 1, 3).unwrap())
                .unwrap();
        assert!(LinkedAfp::try_link(afp1, afp2).is_err());
    }
}
