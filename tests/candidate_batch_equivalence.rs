//! Property-based equivalence of batched candidate scoring: for random march
//! prefixes × candidate pools × sets of fault targets × placements ×
//! backgrounds, the scores of one packed [`TargetBatch`] over every target —
//! weighted class representatives of all of them sharing 256-lane words —
//! must be byte-identical to scoring every candidate on its own against the
//! scalar reference batch, however the batch was advanced (the packed batch
//! merges and re-packs pending lanes as it goes), and [`score_candidates`]
//! must return the same scores for every thread count on both backends.

use march_gen::score_candidates;
use march_test::{AddressOrder, MarchElement};
use proptest::prelude::*;
use sram_fault_model::{FaultList, Operation};
use std::sync::Arc;

use sram_sim::{
    enumerate_lanes, BackendKind, ExecPolicy, InitialState, LaneSet, PlacementStrategy, Session,
    TargetBatch, TargetKind, TargetLanes,
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

/// A pool of random shapes, so candidates of mixed lengths and orders run
/// on the same words.
fn arbitrary_pool() -> impl Strategy<Value = Vec<MarchElement>> {
    prop::collection::vec(arbitrary_element(), 1..24)
}

fn arbitrary_prefix() -> impl Strategy<Value = Vec<MarchElement>> {
    prop::collection::vec(arbitrary_element(), 0..4)
}

/// One to four targets mixing single-, two- and three-cell linked faults,
/// unlinked primitives and address-decoder classes, so words hold lanes of
/// several targets of different kinds and cell counts.
fn arbitrary_targets() -> impl Strategy<Value = Vec<TargetKind>> {
    let mut targets: Vec<TargetKind> = FaultList::list_2()
        .linked()
        .iter()
        .take(6)
        .map(|fault| TargetKind::Linked(fault.clone()))
        .collect();
    targets.extend(
        FaultList::list_1()
            .linked()
            .iter()
            .filter(|fault| fault.cell_count() >= 2)
            .take(6)
            .map(|fault| TargetKind::Linked(fault.clone())),
    );
    targets.extend(
        FaultList::unlinked_static()
            .simple()
            .iter()
            .take(6)
            .map(|primitive| TargetKind::Simple(primitive.clone())),
    );
    targets.extend(sram_sim::enumerate_targets(&FaultList::address_decoder()));
    prop::collection::vec(prop::sample::select(targets), 1..5)
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
        Just(vec![InitialState::AllZero, InitialState::AllOne]),
        Just(vec![
            InitialState::Checkerboard,
            InitialState::AllZero,
            InitialState::AllOne,
        ]),
    ]
}

/// Every target with its lanes on 8 cells.
fn lanes_of(
    targets: Vec<TargetKind>,
    strategy: PlacementStrategy,
    backgrounds: &[InitialState],
) -> Arc<TargetLanes> {
    Arc::new(
        targets
            .into_iter()
            .map(|target| {
                let lanes = enumerate_lanes(&target, 8, strategy, backgrounds).unwrap();
                (target, Arc::new(LaneSet::from(lanes)))
            })
            .collect(),
    )
}

/// One batch over every target of `targets`.
fn batch_over(targets: &Arc<TargetLanes>, backend: BackendKind) -> TargetBatch {
    TargetBatch::new(Arc::clone(targets), 8, backend)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_verdicts_match_per_candidate_scoring(
        targets in arbitrary_targets(),
        strategy in arbitrary_strategy(),
        backgrounds in arbitrary_backgrounds(),
        prefix in arbitrary_prefix(),
        pool in arbitrary_pool(),
    ) {
        let targets = lanes_of(targets, strategy, &backgrounds);
        let mut scalar = batch_over(&targets, BackendKind::Scalar);
        let mut packed = batch_over(&targets, BackendKind::Packed);
        for element in &prefix {
            let newly = scalar.advance(element);
            prop_assert_eq!(packed.advance(element), newly);
        }
        prop_assert_eq!(scalar.pending_lanes(), packed.pending_lanes());

        // The reference verdict: every candidate scored on its own against
        // the scalar batch, lane by lane.
        let sequential: Vec<usize> = pool.iter().map(|candidate| scalar.score(candidate)).collect();
        prop_assert_eq!(&scalar.score_pool(&pool), &sequential, "scalar pool");
        prop_assert_eq!(&packed.score_pool(&pool), &sequential, "packed pool");
        let one_by_one: Vec<usize> = pool.iter().map(|candidate| packed.score(candidate)).collect();
        prop_assert_eq!(&one_by_one, &sequential, "packed, one candidate at a time");
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_scoring_is_invariant_in_batch_and_threads(
        prefix in arbitrary_prefix(),
        pool in arbitrary_pool(),
    ) {
        // The merged pool scores are identical for every thread count and
        // across backends: a pool scores the words of the batch one job
        // each and sums them in word order.
        let session = Session::default();
        let targets = session.target_lanes(&FaultList::list_2()).unwrap();
        let mut baseline: Option<Vec<usize>> = None;
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            let mut batch = TargetBatch::new(Arc::clone(&targets), 8, backend);
            for element in &prefix {
                batch.advance(element);
            }
            for threads in [1usize, 2, 0] {
                let session = Session::new(ExecPolicy::default().with_threads(threads));
                let scores = score_candidates(&session, &pool, &batch);
                match &baseline {
                    None => baseline = Some(scores),
                    Some(expected) => prop_assert_eq!(
                        &scores,
                        expected,
                        "backend {}, threads {}",
                        backend,
                        threads
                    ),
                }
            }
        }
    }
}
