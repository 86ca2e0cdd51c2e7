//! Criterion benchmark: fault-simulation throughput — the substrate behind both the
//! generator's inner loop and the §6 validation step.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::{
    run_march, FaultSimulator, InitialState, InstanceCells, LinkedFaultInstance, Session,
};

fn simulation_benchmarks(c: &mut Criterion) {
    // March execution on a fault-free memory, across memory sizes.
    let mut group = c.benchmark_group("march_execution_fault_free");
    for cells in [8usize, 64, 256, 1024] {
        group.bench_with_input(BenchmarkId::new("march_ss", cells), &cells, |b, &cells| {
            let test = catalog::march_ss();
            b.iter(|| {
                let mut simulator = FaultSimulator::new(cells, &InitialState::AllOne).unwrap();
                run_march(&test, &mut simulator).operations()
            })
        });
    }
    group.finish();

    // March execution with an injected three-cell linked fault.
    let mut injected = c.benchmark_group("march_execution_linked_fault");
    let list1 = FaultList::list_1();
    let lf3 = list1
        .linked()
        .iter()
        .find(|fault| fault.cell_count() == 3)
        .expect("list #1 contains three-cell linked faults")
        .clone();
    for test in [
        catalog::march_sl(),
        catalog::march_abl(),
        catalog::march_rabl(),
    ] {
        injected.bench_function(test.name().to_string(), |b| {
            b.iter(|| {
                let mut simulator = FaultSimulator::new(16, &InitialState::AllOne).unwrap();
                let instance =
                    LinkedFaultInstance::new(lf3.clone(), InstanceCells::triple(1, 7, 12), 16)
                        .unwrap();
                simulator.inject_linked(&instance);
                run_march(&test, &mut simulator).detected()
            })
        });
    }
    injected.finish();

    // Full coverage measurement of the paper's 9n test over Fault List #2.
    let mut coverage = c.benchmark_group("coverage_measurement");
    coverage.sample_size(20);
    let list2 = FaultList::list_2();
    coverage.bench_function("march_abl1_vs_list_2", |b| {
        b.iter(|| {
            let report = Session::default().coverage(&catalog::march_abl1(), &list2);
            assert!(report.is_complete());
            report.covered()
        })
    });
    coverage.finish();
}

criterion_group!(benches, simulation_benchmarks);
criterion_main!(benches);
