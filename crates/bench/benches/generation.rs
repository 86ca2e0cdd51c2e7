//! Criterion benchmark: march-test generation time for the paper's two fault lists
//! (the "CPU Time (s)" column of Table 1).

use criterion::{criterion_group, criterion_main, Criterion};
use march_gen::{GeneratorConfig, SessionExt};
use sram_fault_model::FaultList;
use sram_sim::Session;

fn generation_benchmarks(c: &mut Criterion) {
    let mut group = c.benchmark_group("generation");
    group.sample_size(10);

    let list2 = FaultList::list_2();
    group.bench_function("fault_list_2_default", |b| {
        b.iter(|| {
            let generated = Session::default().generate(&list2);
            assert!(generated.report().is_complete());
            generated.test().complexity()
        })
    });

    let list1 = FaultList::list_1();
    group.bench_function("fault_list_1_no_removal", |b| {
        b.iter(|| {
            let generated = Session::default()
                .generate_with_config(&list1, GeneratorConfig::without_redundancy_removal());
            assert!(generated.report().is_complete());
            generated.test().complexity()
        })
    });

    group.bench_function("fault_list_1_with_removal", |b| {
        b.iter(|| {
            let generated = Session::default().generate(&list1);
            assert!(generated.report().is_complete());
            generated.test().complexity()
        })
    });

    group.finish();

    let mut setup = c.benchmark_group("fault_list_construction");
    setup.bench_function("enumerate_fault_list_1", |b| {
        b.iter(|| FaultList::list_1().linked().len())
    });
    setup.bench_function("enumerate_fault_list_2", |b| {
        b.iter(|| FaultList::list_2().linked().len())
    });
    setup.finish();
}

criterion_group!(benches, generation_benchmarks);
criterion_main!(benches);
