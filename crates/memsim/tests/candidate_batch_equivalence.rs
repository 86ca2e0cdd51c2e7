//! Property-based equivalence of batched candidate scoring: for random march
//! prefixes × candidate pools × fault targets × placements × backgrounds, the
//! verdicts of [`TargetBatch::score_pool`] must be byte-identical to scoring
//! every candidate on its own with [`TargetBatch::score`] — across both
//! simulation backends, every pool chunk size, and regardless of how the
//! batch was advanced (the packed path compacts pending lanes as it goes).

use std::sync::Arc;

use march_test::{AddressOrder, MarchElement};
use proptest::prelude::*;
use sram_fault_model::{FaultList, Operation};
use sram_sim::{
    enumerate_lanes, BackendKind, CandidateBatch, InitialState, PlacementStrategy, TargetBatch,
    TargetKind, WorkerPool,
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

/// A pool mixing random shapes with the library-like extremes (1-op and
/// 10-op elements) so padded words always hold heterogeneous lengths.
fn arbitrary_pool() -> impl Strategy<Value = Vec<MarchElement>> {
    prop::collection::vec(arbitrary_element(), 1..24)
}

fn arbitrary_prefix() -> impl Strategy<Value = Vec<MarchElement>> {
    prop::collection::vec(arbitrary_element(), 0..4)
}

fn arbitrary_target() -> impl Strategy<Value = TargetKind> {
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
    prop::sample::select(targets)
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batched_verdicts_match_per_candidate_scoring(
        target in arbitrary_target(),
        strategy in arbitrary_strategy(),
        backgrounds in arbitrary_backgrounds(),
        prefix in arbitrary_prefix(),
        pool in arbitrary_pool(),
    ) {
        let lanes = enumerate_lanes(&target, 8, strategy, &backgrounds).unwrap();
        prop_assume!(!lanes.is_empty());

        let mut scalar = TargetBatch::new(target.clone(), lanes.clone(), 8, BackendKind::Scalar);
        let mut packed = TargetBatch::new(target, lanes, 8, BackendKind::Packed);
        for element in &prefix {
            let newly = scalar.advance(element);
            prop_assert_eq!(packed.advance(element), newly);
        }
        prop_assert_eq!(scalar.pending(), packed.pending());

        // The reference verdict: every candidate scored on its own against the
        // scalar batch.
        let sequential: Vec<usize> = pool.iter().map(|candidate| scalar.score(candidate)).collect();

        // Batched scoring agrees for every backend and pool chunk size (1
        // forces the per-candidate path, 64 the full-word wave path, the rest
        // mix both depending on how many lanes are still pending).
        for chunk in [1usize, 3, 64] {
            let mut batched_scalar = Vec::new();
            let mut batched_packed = Vec::new();
            for pool_chunk in CandidateBatch::chunked(&pool, chunk) {
                batched_scalar.extend(scalar.score_pool(&pool_chunk));
                batched_packed.extend(packed.score_pool(&pool_chunk));
            }
            prop_assert_eq!(&batched_scalar, &sequential, "scalar, chunk size {}", chunk);
            prop_assert_eq!(&batched_packed, &sequential, "packed, chunk size {}", chunk);
        }
    }
}

/// Scores `pool` against `batches` by sharding the (pool chunk × target
/// batch) grid over a `threads`-worker pool and merging in job order — the
/// same shape the generator's scorer uses.
fn sharded_scores(
    pool: &[MarchElement],
    batches: &[TargetBatch],
    chunk: usize,
    threads: usize,
) -> Vec<usize> {
    let pools = Arc::new(CandidateBatch::chunked(pool, chunk));
    let jobs: Vec<(usize, usize)> = (0..pools.len())
        .flat_map(|pool_index| (0..batches.len()).map(move |batch| (pool_index, batch)))
        .collect();
    let results = {
        let pools = Arc::clone(&pools);
        let batches = Arc::new(batches.to_vec());
        WorkerPool::new(threads).map(Arc::new(jobs.clone()), move |&(pool_index, batch)| {
            batches[batch].score_pool(&pools[pool_index])
        })
    };
    let mut offsets = Vec::new();
    let mut offset = 0usize;
    for pool_chunk in pools.iter() {
        offsets.push(offset);
        offset += pool_chunk.len();
    }
    let mut scores = vec![0usize; pool.len()];
    for (&(pool_index, _), chunk_scores) in jobs.iter().zip(results) {
        for (index, score) in chunk_scores.into_iter().enumerate() {
            scores[offsets[pool_index] + index] += score;
        }
    }
    scores
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn sharded_scoring_is_invariant_in_batch_and_threads(
        prefix in arbitrary_prefix(),
        pool in arbitrary_pool(),
    ) {
        // The merged pool scores are identical for every (chunk, threads)
        // combination and across backends.
        let list = FaultList::list_2();
        let backgrounds = [InitialState::AllZero, InitialState::AllOne];
        let mut baseline: Option<Vec<usize>> = None;
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            let mut batches: Vec<TargetBatch> = sram_sim::enumerate_targets(&list)
                .into_iter()
                .map(|target| {
                    let lanes =
                        enumerate_lanes(&target, 8, PlacementStrategy::Representative, &backgrounds).unwrap();
                    TargetBatch::new(target, lanes, 8, backend)
                })
                .collect();
            for element in &prefix {
                for batch in &mut batches {
                    batch.advance(element);
                }
            }
            for (chunk, threads) in [(1usize, 1usize), (0, 1), (5, 2), (0, 0)] {
                let scores = sharded_scores(&pool, &batches, chunk, threads);
                match &baseline {
                    None => baseline = Some(scores),
                    Some(expected) => prop_assert_eq!(
                        &scores,
                        expected,
                        "backend {}, chunk {}, threads {}",
                        backend,
                        chunk,
                        threads
                    ),
                }
            }
        }
    }
}
