//! Property-based equivalence of the simulation backends: for random march
//! tests × fault targets × placements × backgrounds, the bit-parallel
//! [`PackedBackend`] must produce exactly the detection verdicts and escape
//! sets of the reference [`ScalarBackend`], and session coverage must be
//! byte-identical across backends and thread counts.

use march_test::{AddressOrder, MarchElement, MarchTest};
use proptest::prelude::*;
use sram_fault_model::{FaultList, Ffm, Operation};
use sram_sim::{
    enumerate_lanes, BackendKind, ExecPolicy, InitialState, LaneWidth, PackedBackend,
    PlacementStrategy, ScalarBackend, Session, SimulationBackend, TargetKind,
};

fn arbitrary_operation() -> impl Strategy<Value = Operation> {
    prop_oneof![
        Just(Operation::W0),
        Just(Operation::W1),
        Just(Operation::R0),
        Just(Operation::R1),
        Just(Operation::Read(None)),
        Just(Operation::Wait),
    ]
}

fn arbitrary_element() -> impl Strategy<Value = MarchElement> {
    (
        prop::sample::select(AddressOrder::ALL.to_vec()),
        prop::collection::vec(arbitrary_operation(), 1..8),
    )
        .prop_map(|(order, ops)| MarchElement::new(order, ops).expect("non-empty"))
}

fn arbitrary_test() -> impl Strategy<Value = MarchTest> {
    prop::collection::vec(arbitrary_element(), 1..6)
        .prop_map(|elements| MarchTest::new("prop", elements).expect("non-empty"))
}

fn arbitrary_strategy() -> impl Strategy<Value = PlacementStrategy> {
    prop_oneof![
        Just(PlacementStrategy::Representative),
        Just(PlacementStrategy::Exhaustive),
    ]
}

fn arbitrary_backgrounds() -> impl Strategy<Value = Vec<InitialState>> {
    prop_oneof![
        Just(vec![InitialState::AllOne]),
        Just(vec![InitialState::AllZero]),
        Just(vec![InitialState::AllZero, InitialState::AllOne]),
        Just(vec![
            InitialState::Checkerboard,
            InitialState::AllOne,
            InitialState::AllZero,
        ]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-lane detection verdicts agree between the backends for random march
    /// tests against random linked faults of Fault List #1 (all topologies).
    #[test]
    fn linked_fault_verdicts_are_backend_invariant(
        test in arbitrary_test(),
        fault_index in 0usize..844,
        strategy in arbitrary_strategy(),
        backgrounds in arbitrary_backgrounds(),
        memory_cells in 4usize..9,
    ) {
        let list = FaultList::list_1();
        let fault = &list.linked()[fault_index % list.linked().len()];
        let target = TargetKind::Linked(fault.clone());
        let lanes = enumerate_lanes(&target, memory_cells, strategy, &backgrounds).unwrap();
        let scalar = ScalarBackend.lane_verdicts(&test, &target, &lanes, memory_cells);
        // Every packed lane width must match the scalar reference exactly.
        for width in LaneWidth::ALL {
            let backend = PackedBackend::with_width(width);
            let packed = backend.lane_verdicts(&test, &target, &lanes, memory_cells);
            prop_assert_eq!(&scalar, &packed, "verdicts diverged for {} at width {}", fault, width);
            prop_assert_eq!(
                ScalarBackend.first_undetected(&test, &target, &lanes, memory_cells),
                backend.first_undetected(&test, &target, &lanes, memory_cells)
            );
        }
    }

    /// Same for the 48 unlinked realistic fault primitives.
    #[test]
    fn simple_primitive_verdicts_are_backend_invariant(
        test in arbitrary_test(),
        primitive_index in 0usize..48,
        strategy in arbitrary_strategy(),
        backgrounds in arbitrary_backgrounds(),
        memory_cells in 4usize..9,
    ) {
        let primitives = Ffm::all_fault_primitives();
        let primitive = primitives[primitive_index % primitives.len()].clone();
        let target = TargetKind::Simple(primitive);
        let lanes = enumerate_lanes(&target, memory_cells, strategy, &backgrounds).unwrap();
        let scalar = ScalarBackend.lane_verdicts(&test, &target, &lanes, memory_cells);
        let packed = PackedBackend::default().lane_verdicts(&test, &target, &lanes, memory_cells);
        prop_assert_eq!(scalar, packed);
    }

    /// Full coverage reports — counts, per-topology break-down and the
    /// stable-sorted escape set — are byte-identical across backends and
    /// thread counts for random march tests.
    #[test]
    fn coverage_reports_are_backend_and_thread_invariant(
        test in arbitrary_test(),
        backgrounds in arbitrary_backgrounds(),
        memory_cells in 4usize..9,
    ) {
        let list = FaultList::list_2();
        let session = |policy: ExecPolicy| {
            Session::new(policy)
                .with_memory_cells(memory_cells)
                .with_strategy(PlacementStrategy::Representative)
                .with_backgrounds(backgrounds.clone())
        };
        let reference = session(ExecPolicy::default()).coverage(&test, &list);
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            for threads in [1usize, 3, 0] {
                let policy = ExecPolicy::default().with_backend(backend).with_threads(threads);
                let report = session(policy).coverage(&test, &list);
                prop_assert_eq!(
                    &report,
                    &reference,
                    "report diverged: backend {} threads {}",
                    backend,
                    threads
                );
            }
        }
    }
}

/// Deterministic cross-check on the published catalogue: every catalogue test
/// against every fault list, both backends, equal escape sets.
#[test]
fn catalogue_escape_sets_match_across_backends() {
    let lists = [
        FaultList::unlinked_static(),
        FaultList::list_2(),
        FaultList::list_1(),
    ];
    let scalar_session = Session::new(ExecPolicy::default().with_backend(BackendKind::Scalar));
    let packed_session = Session::new(ExecPolicy::default().with_backend(BackendKind::Packed));
    for test in march_test::catalog::all() {
        for list in &lists {
            let scalar = scalar_session.coverage(&test, list);
            let packed = packed_session.coverage(&test, list);
            assert_eq!(
                scalar.escapes(),
                packed.escapes(),
                "escape sets diverged for {} vs {}",
                test.name(),
                list.name()
            );
            assert_eq!(scalar, packed);
        }
    }
}
