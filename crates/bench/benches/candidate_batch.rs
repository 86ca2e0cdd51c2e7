//! Criterion benchmark: batched candidate-pool scoring vs the per-candidate
//! path — the inner loop of the generator's greedy selection and of its
//! exhaustive 4^k repair search.
//!
//! Batched scoring packs up to 64 candidate march elements one per bit-lane
//! and evaluates them against each pending coverage lane in a single
//! bit-parallel pass; per-candidate scoring (batch size 1) is the PR-1
//! behaviour it replaces. The verdicts are byte-identical; only the wall
//! clock differs.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use march_gen::{exhaustive_candidates, library_candidates, score_candidates};
use march_test::{catalog, MarchElement};
use sram_fault_model::FaultList;
use sram_sim::{
    enumerate_lanes, enumerate_targets, BackendKind, ExecPolicy, InitialState, PlacementStrategy,
    Session, TargetBatch,
};

fn advanced_batches(list: &FaultList, prefix: &[MarchElement]) -> Vec<TargetBatch> {
    let backgrounds = [InitialState::AllZero, InitialState::AllOne];
    let mut batches: Vec<TargetBatch> = enumerate_targets(list)
        .into_iter()
        .map(|target| {
            let lanes =
                enumerate_lanes(&target, 8, PlacementStrategy::Representative, &backgrounds)
                    .expect("benchmark scope hosts the placements");
            TargetBatch::new(target, lanes, 8, BackendKind::Packed)
        })
        .collect();
    for element in prefix {
        for batch in &mut batches {
            batch.advance(element);
        }
    }
    batches.retain(|batch| batch.pending() > 0);
    batches
}

fn candidate_batch_benchmarks(c: &mut Criterion) {
    // The repair regime: most lanes already covered, a big exhaustive pool.
    let abl1 = catalog::march_abl1();
    let repair_batches = advanced_batches(&FaultList::list_2(), &abl1.elements()[..2]);
    let repair_pool = exhaustive_candidates(4);
    let mut repair = c.benchmark_group("score_repair_pool4_vs_list_2_tail");
    repair.sample_size(10);
    for (label, batch) in [("per-candidate", 1usize), ("batched", 0usize)] {
        let session = Session::new(ExecPolicy::default().with_batch(batch));
        repair.bench_with_input(BenchmarkId::new("batch", label), &session, |b, session| {
            b.iter(|| {
                score_candidates(session, &repair_pool, &repair_batches)
                    .into_iter()
                    .sum::<usize>()
            })
        });
    }
    repair.finish();

    // The greedy regime: fresh batches, the (small) candidate library.
    let library_batches = advanced_batches(&FaultList::list_2(), &abl1.elements()[..1]);
    let library_pool = library_candidates();
    let mut library = c.benchmark_group("score_library_vs_list_2_fresh");
    library.sample_size(10);
    for (label, batch) in [("per-candidate", 1usize), ("batched", 0usize)] {
        let session = Session::new(ExecPolicy::default().with_batch(batch));
        library.bench_with_input(BenchmarkId::new("batch", label), &session, |b, session| {
            b.iter(|| {
                score_candidates(session, &library_pool, &library_batches)
                    .into_iter()
                    .sum::<usize>()
            })
        });
    }
    library.finish();
}

criterion_group!(benches, candidate_batch_benchmarks);
criterion_main!(benches);
