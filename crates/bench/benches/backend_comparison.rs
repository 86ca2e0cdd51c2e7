//! Criterion benchmark: head-to-head comparison of the scalar and packed
//! simulation backends on the coverage-matrix workload — the inner loop of both
//! the generator's greedy search and the §6 validation step.
//!
//! The packed backend evaluates up to 64 `(placement, background)` lanes per
//! `u64` word, so its advantage grows with the placement enumeration: the
//! exhaustive configuration is its best case, the representative one its worst.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use march_gen::SessionExt;
use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::{BackendKind, ExecPolicy, PlacementStrategy, Session};

fn backend_benchmarks(c: &mut Criterion) {
    let list2 = FaultList::list_2();
    let march_sl = catalog::march_sl();

    // Exhaustive placements on an 8-cell memory: 16 lanes per LF1 target.
    let mut exhaustive = c.benchmark_group("coverage_exhaustive_march_sl_vs_list_2");
    exhaustive.sample_size(10);
    for backend in [BackendKind::Scalar, BackendKind::Packed] {
        let policy = ExecPolicy::default().with_backend(backend);
        exhaustive.bench_with_input(
            BenchmarkId::new("backend", backend),
            &policy,
            |b, &policy| {
                b.iter(|| {
                    let report = Session::new(policy)
                        .with_strategy(PlacementStrategy::Exhaustive)
                        .coverage(&march_sl, &list2);
                    assert!(report.is_complete());
                    report.covered()
                })
            },
        );
    }
    exhaustive.finish();

    // The thorough (representative) configuration used inside generation loops.
    let mut thorough = c.benchmark_group("coverage_thorough_march_sl_vs_list_1");
    thorough.sample_size(10);
    let list1 = FaultList::list_1();
    for backend in [BackendKind::Scalar, BackendKind::Packed] {
        let policy = ExecPolicy::default().with_backend(backend);
        thorough.bench_with_input(
            BenchmarkId::new("backend", backend),
            &policy,
            |b, &policy| b.iter(|| Session::new(policy).coverage(&march_sl, &list1).covered()),
        );
    }
    thorough.finish();

    // Generation end-to-end on both backends.
    let mut generation = c.benchmark_group("generation_list_2");
    generation.sample_size(10);
    for backend in [BackendKind::Scalar, BackendKind::Packed] {
        let policy = ExecPolicy::default().with_backend(backend);
        generation.bench_with_input(
            BenchmarkId::new("backend", backend),
            &policy,
            |b, &policy| b.iter(|| Session::new(policy).generate(&list2).test().complexity()),
        );
    }
    generation.finish();
}

criterion_group!(benches, backend_benchmarks);
criterion_main!(benches);
