//! Projected simulation: coverage and campaign lanes simulated on the at most
//! three cells their fault instance involves, one representative per class.
//!
//! A static fault instance — a simple primitive, a linked fault or an
//! address-decoder class bound to cells — involves at most three cells: the
//! victim and up to two aggressors, or the decoder's primary and partner
//! address ([`InstanceCells`]). Its verdict depends only on the *rank order*
//! of those cells and on the background bit each of them starts from, so the
//! lanes of one target that agree on both form a **class** sharing one
//! verdict: at most 3! orders × 2³ background patterns = 48 classes per
//! target, whatever the memory size.
//!
//! [`Classes`] keys every lane of a lane set by its class and remaps the
//! first lane of each class onto a memory of k ≤ 3 cells (the cells' ranks as
//! addresses, the background cut down to those cells). The partition depends
//! only on the lanes, never on the fault, so it is built **once per
//! [`LaneSet`]** — the lanes every target of one placement shape shares — and
//! memoised there. Verdicts are computed per target: one
//! [`SimulationBackend::lane_verdicts`] call on the caller's backend
//! simulates the target's fault on all the representatives, and every lane
//! takes the verdict of its class. Because a class representative is its
//! class's first lane in enumeration order, the first escaping lane is the
//! representative of the first escaping class — escape reports, escape order
//! and campaign traces are exactly those of the full-memory walk, while the
//! per-lane cost no longer grows with the memory size. A coverage request
//! therefore costs one partition per distinct lane set plus one backend call
//! per target; campaigns partition each shard's drawn lanes per target
//! ([`lane_verdicts`]).
//!
//! Coverage ([`Session::try_coverage`](crate::Session::try_coverage) and
//! everything built on it) and campaigns go through this module. The
//! backends themselves, [`PackedSimulator`](crate::PackedSimulator), the
//! generator's [`TargetBatch`](crate::TargetBatch), the minimiser and the
//! dictionary and diagnosis paths keep the full-memory walk, which serves as
//! the differential reference.
//!
//! [`LaneSet`]: crate::LaneSet
//!
//! # Why the projection is exact
//!
//! Compare a run on the full memory with the run on the projected one:
//!
//! * **An operation on an uninvolved address changes no involved cell.**
//!   Operation-sensitised primitives fire only when their victim or aggressor
//!   is addressed, and a decoder perturbation only redirects its own source
//!   address; every other operation touches just the addressed cell.
//! * **No uninvolved cell ever differs from golden.** Faulty and golden
//!   memories start from the same background and receive the same writes on
//!   uninvolved addresses. Fault effects write only victims, and decoder
//!   perturbations write only the partner. So a read of an uninvolved
//!   address never mismatches.
//! * **The settle pass is idempotent.** The at most two state-sensitised
//!   primitives of an instance share its victim and write nothing else. With
//!   the aggressors fixed, each maps the victim bit either to itself or to a
//!   constant, so one pass — their composition — is an identity or a
//!   constant too, and applying it again changes nothing. The extra settle
//!   passes the full memory runs after operations on uninvolved addresses
//!   are therefore no-ops.
//! * **⇑, ⇓ and ⇕ visit the involved cells in address order.** The projected
//!   addresses are the ranks of the involved cells, so every element visits
//!   them in the same relative order and runs the same operations on them.
//!
//! The projected run therefore applies the same operation sequence to the
//! involved cells, from the same state, with the same read results, as the
//! full-memory run: the verdict is the same.
//!
//! The projection reads each lane's background bit by address, so it relies
//! on the scope checks upstream (a [`InitialState::Custom`] background must
//! match the memory size, see
//! [`SimulationError::InitialStateSizeMismatch`](crate::SimulationError)).

use march_test::MarchTest;
use sram_fault_model::Bit;

use crate::backend::{CoverageLane, SimulationBackend};
use crate::coverage::TargetKind;
use crate::{InitialState, InstanceCells};

/// Number of distinct class codes: how each of the three pairs of
/// [`InstanceCells`] slots (victim, first aggressor, second aggressor)
/// compares, two bits each, plus the background bit under each slot.
const CLASS_CODES: usize = 1 << 9;

/// Marks a class code no lane has produced yet.
const UNSEEN: u16 = u16::MAX;

/// The class code of `lane`. Comparing every pair of slots — less, equal,
/// greater, or absent when a slot is empty — fixes the rank order of the
/// involved cells (two slots may share a cell, like the shared aggressor of a
/// pair placement), and the background bit under each slot fixes their
/// initial content. This runs once per lane, so it avoids sorting.
#[inline]
fn class_code(lane: &CoverageLane) -> usize {
    let slots = slots(&lane.cells);
    let compare = |first: Option<usize>, second: Option<usize>| match (first, second) {
        (Some(first), Some(second)) => (first.cmp(&second) as isize + 1) as usize,
        _ => 3,
    };
    let mut code = compare(slots[0], slots[1])
        | compare(slots[0], slots[2]) << 2
        | compare(slots[1], slots[2]) << 4;
    for (position, slot) in slots.into_iter().enumerate() {
        if slot.is_some_and(|address| lane.background.bit_at(address) == Bit::One) {
            code |= 1 << (6 + position);
        }
    }
    code
}

/// The victim, first-aggressor and second-aggressor slots of `cells`.
fn slots(cells: &InstanceCells) -> [Option<usize>; 3] {
    [
        Some(cells.victim),
        cells.aggressor_first,
        cells.aggressor_second,
    ]
}

/// The cells one lane involves, in address order: their ranks are their
/// addresses on the projected memory.
struct Involved {
    cells: [usize; 3],
    count: usize,
}

impl Involved {
    fn of(cells: &InstanceCells) -> Involved {
        let mut involved = Involved {
            cells: [0; 3],
            count: 0,
        };
        for address in slots(cells).into_iter().flatten() {
            if !involved.addresses().contains(&address) {
                involved.cells[involved.count] = address;
                involved.count += 1;
            }
        }
        involved.cells[..involved.count].sort_unstable();
        involved
    }

    fn addresses(&self) -> &[usize] {
        &self.cells[..self.count]
    }

    /// The rank of an involved `address`.
    fn rank(&self, address: usize) -> usize {
        self.addresses()
            .iter()
            .position(|&cell| cell == address)
            .expect("every slot address is an involved cell")
    }

    /// `lane` remapped onto the projected memory: ranks as addresses, the
    /// background cut down to the involved cells.
    fn project(&self, lane: &CoverageLane) -> CoverageLane {
        CoverageLane {
            cells: InstanceCells {
                victim: self.rank(lane.cells.victim),
                aggressor_first: lane.cells.aggressor_first.map(|cell| self.rank(cell)),
                aggressor_second: lane.cells.aggressor_second.map(|cell| self.rank(cell)),
            },
            background: match &lane.background {
                // Cut down to the involved cells, a uniform background is
                // itself, and keeps the backends' allocation-free fill.
                InitialState::AllZero | InitialState::AllOne => lane.background.clone(),
                background => InitialState::Custom(
                    self.addresses()
                        .iter()
                        .map(|&address| background.bit_at(address))
                        .collect(),
                ),
            },
        }
    }
}

/// The lane classes of one lane set, in first-seen order.
pub(crate) struct Classes {
    /// Class index of each class code ([`UNSEEN`] for codes no lane has).
    index_of_code: [u16; CLASS_CODES],
    /// The index of each class's first lane in the caller's lane slice.
    first_lanes: Vec<usize>,
    /// Each class's first lane, remapped onto the projected memory.
    representatives: Vec<CoverageLane>,
    /// Size of the projected memory: the number of cells each lane involves.
    cells: usize,
}

impl Classes {
    /// Partitions `lanes` into their classes.
    pub(crate) fn of(lanes: &[CoverageLane]) -> Classes {
        let mut classes = Classes {
            index_of_code: [UNSEEN; CLASS_CODES],
            first_lanes: Vec::new(),
            representatives: Vec::new(),
            cells: 0,
        };
        for (index, lane) in lanes.iter().enumerate() {
            let code = class_code(lane);
            if classes.index_of_code[code] != UNSEEN {
                continue;
            }
            classes.index_of_code[code] = classes.first_lanes.len() as u16;
            classes.first_lanes.push(index);
            let involved = Involved::of(&lane.cells);
            // Every lane of a set has the set's placement shape, so every
            // class involves the same number of cells.
            debug_assert!(classes.cells == 0 || classes.cells == involved.count);
            classes.cells = involved.count;
            classes.representatives.push(involved.project(lane));
        }
        classes
    }

    /// The verdict of every class, in class order, from one backend call.
    fn verdicts(
        &self,
        backend: &dyn SimulationBackend,
        test: &MarchTest,
        target: &TargetKind,
    ) -> Vec<bool> {
        backend.lane_verdicts(test, target, &self.representatives, self.cells)
    }

    /// The index of the first partitioned lane on which `test` fails to
    /// detect `target` — the projected equivalent of
    /// [`SimulationBackend::first_undetected`].
    pub(crate) fn first_undetected(
        &self,
        backend: &dyn SimulationBackend,
        test: &MarchTest,
        target: &TargetKind,
    ) -> Option<usize> {
        self.first_lanes
            .iter()
            .zip(self.verdicts(backend, test, target))
            .find(|(_, detected)| !detected)
            .map(|(&lane, _)| lane)
    }
}

/// The detection verdict of `test` for every one of `lanes`, in lane order —
/// the projected equivalent of [`SimulationBackend::lane_verdicts`].
pub(crate) fn lane_verdicts(
    backend: &dyn SimulationBackend,
    test: &MarchTest,
    target: &TargetKind,
    lanes: &[CoverageLane],
) -> Vec<bool> {
    let classes = Classes::of(lanes);
    let verdicts = classes.verdicts(backend, test, target);
    lanes
        .iter()
        .map(|lane| verdicts[usize::from(classes.index_of_code[class_code(lane)])])
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::enumerate_lanes;
    use crate::{BackendKind, LaneWidth, PlacementStrategy};
    use march_test::catalog;
    use sram_fault_model::{DecoderFault, FaultList};

    /// Both uniform backgrounds, the checkerboard and an irregular custom
    /// image of `cells` cells.
    fn backgrounds(cells: usize) -> Vec<InitialState> {
        let custom = (0..cells)
            .map(|address| {
                if (address * 7 + 3) % 5 < 2 {
                    Bit::One
                } else {
                    Bit::Zero
                }
            })
            .collect();
        vec![
            InitialState::AllZero,
            InitialState::AllOne,
            InitialState::Checkerboard,
            InitialState::Custom(custom),
        ]
    }

    fn targets() -> Vec<TargetKind> {
        let list = FaultList::list_1();
        let mut targets: Vec<TargetKind> = list
            .linked()
            .iter()
            .step_by(37)
            .map(|fault| TargetKind::Linked(fault.clone()))
            .collect();
        targets.extend(
            FaultList::unlinked_static()
                .simple()
                .iter()
                .step_by(5)
                .map(|primitive| TargetKind::Simple(primitive.clone())),
        );
        targets.extend(DecoderFault::all().into_iter().map(TargetKind::Decoder));
        targets
    }

    #[test]
    fn projected_verdicts_match_the_full_memory_walk() {
        for target in targets() {
            let lanes = enumerate_lanes(&target, 8, PlacementStrategy::Exhaustive, &backgrounds(8))
                .unwrap();
            for test in [catalog::mats_plus(), catalog::march_c_minus()] {
                for backend in [
                    BackendKind::Scalar.instance(),
                    BackendKind::Packed.instance_with(LaneWidth::W256),
                ] {
                    let full = backend.lane_verdicts(&test, &target, &lanes, 8);
                    assert_eq!(
                        lane_verdicts(backend.as_ref(), &test, &target, &lanes),
                        full,
                        "{target} under {} on {}",
                        test.name(),
                        backend.name()
                    );
                    assert_eq!(
                        Classes::of(&lanes).first_undetected(backend.as_ref(), &test, &target),
                        full.iter().position(|detected| !detected),
                        "{target} under {} on {}",
                        test.name(),
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn classes_are_bounded_by_orders_and_background_patterns() {
        let lf3 = FaultList::list_1()
            .linked()
            .iter()
            .find(|fault| fault.cell_count() == 3)
            .expect("list #1 has three-cell faults")
            .clone();
        let target = TargetKind::Linked(lf3);
        let lanes = enumerate_lanes(
            &target,
            16,
            PlacementStrategy::Exhaustive,
            &backgrounds(16)[..2],
        )
        .unwrap();
        let classes = Classes::of(&lanes);
        // Six orders under two uniform backgrounds; three projected cells.
        assert_eq!(classes.first_lanes.len(), 12);
        assert_eq!(classes.cells, 3);
        assert_eq!(classes.first_lanes[0], 0);
        assert!(classes.first_lanes.windows(2).all(|pair| pair[0] < pair[1]));

        // Patterned backgrounds split the classes by the bits under the
        // involved cells, up to 2^3 patterns per order.
        let lanes =
            enumerate_lanes(&target, 16, PlacementStrategy::Exhaustive, &backgrounds(16)).unwrap();
        assert_eq!(Classes::of(&lanes).first_lanes.len(), 48);
    }

    #[test]
    fn representatives_keep_rank_order_and_background_bits() {
        let lane = CoverageLane {
            cells: InstanceCells::triple(6, 1, 4),
            background: InitialState::Checkerboard,
        };
        let classes = Classes::of(std::slice::from_ref(&lane));
        assert_eq!(
            classes.representatives,
            vec![CoverageLane {
                cells: InstanceCells::triple(2, 0, 1),
                background: InitialState::Custom(vec![Bit::One, Bit::Zero, Bit::Zero]),
            }]
        );
        // A pair placement names its aggressor in both slots but involves
        // two cells.
        assert_eq!(
            Classes::of(&[CoverageLane {
                cells: InstanceCells::pair(5, 2),
                background: InitialState::AllOne,
            }])
            .cells,
            2
        );
        assert!(Classes::of(&[])
            .verdicts(&crate::ScalarBackend, &catalog::march_ss(), &targets()[0])
            .is_empty());
    }
}
