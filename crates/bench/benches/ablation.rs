//! Criterion benchmark: ablation of the generator's design knobs on Fault List #2
//! (fast enough to benchmark tightly) — complements the `ablation_report` binary
//! which covers Fault List #1.

use criterion::{criterion_group, criterion_main, Criterion};
use march_gen::{library_candidates, GeneratorConfig, SessionExt};
use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::Session;

fn ablation_benchmarks(c: &mut Criterion) {
    let list2 = FaultList::list_2();

    let mut group = c.benchmark_group("generator_knobs_list_2");
    group.sample_size(10);
    group.bench_function("with_redundancy_removal", |b| {
        b.iter(|| Session::default().generate(&list2).test().complexity())
    });
    group.bench_function("without_redundancy_removal", |b| {
        b.iter(|| {
            Session::default()
                .generate_with_config(&list2, GeneratorConfig::without_redundancy_removal())
                .test()
                .complexity()
        })
    });
    group.bench_function("without_repair_pool", |b| {
        let config = GeneratorConfig {
            repair: false,
            ..GeneratorConfig::default()
        };
        b.iter(|| {
            Session::default()
                .generate_with_config(&list2, config.clone())
                .test()
                .complexity()
        })
    });
    group.finish();

    let mut pieces = c.benchmark_group("generator_pieces");
    pieces.bench_function("library_candidates", |b| {
        b.iter(|| library_candidates().len())
    });
    pieces.sample_size(10);
    pieces.bench_function("minimise_march_sl_against_list_2", |b| {
        b.iter(|| {
            Session::default()
                .minimise(&catalog::march_sl(), &list2)
                .test()
                .complexity()
        })
    });
    pieces.finish();
}

criterion_group!(benches, ablation_benchmarks);
criterion_main!(benches);
