//! The §6 validation claim, extended: fault-simulate every catalogue march test
//! *and* the freshly generated tests against the unlinked static faults and the two
//! linked fault lists, printing a coverage matrix — measured on **both**
//! simulation backends, with per-backend wall-clock columns so the scalar vs
//! packed trajectory is visible run over run.
//!
//! The whole matrix runs through two long-lived [`Session`]s (one per
//! backend), so with `--threads > 1` every cell re-uses the same resident
//! worker pool instead of spawning threads per query.
//!
//! Run with `cargo run --release -p march-bench --bin coverage_matrix`.
//! Pass `--exhaustive` for exhaustive cell placements (slower, more lanes per
//! `u64` word — the packed backend's best case).
//! Pass `--threads N` to fan the fault targets out over N workers (0 = auto).

use std::env;
use std::time::{Duration, Instant};

use march_gen::SessionExt;
use march_test::{catalog, MarchTest};
use sram_fault_model::FaultList;
use sram_sim::{BackendKind, ExecPolicy, PlacementStrategy, Session};

fn main() {
    let exhaustive = env::args().any(|arg| arg == "--exhaustive");
    let threads = march_bench::threads_from_args();
    // The thorough scope, or every placement on a 6-cell memory; both uniform
    // backgrounds either way.
    let session = |backend: BackendKind| {
        let session = Session::new(
            ExecPolicy::default()
                .with_backend(backend)
                .with_threads(threads),
        );
        if exhaustive {
            session
                .with_memory_cells(6)
                .with_strategy(PlacementStrategy::Exhaustive)
        } else {
            session
        }
    };

    // One session per backend serves every cell of the matrix.
    let scalar_session = session(BackendKind::Scalar);
    let packed_session = session(BackendKind::Packed);

    let lists = [
        ("unlinked", FaultList::unlinked_static()),
        ("list #2", FaultList::list_2()),
        ("list #1", FaultList::list_1()),
    ];

    // The catalogue plus the two generated tests. Generation needs the
    // generator's default scope (which may differ from the matrix scope under
    // --exhaustive), so it gets its own session — the third and last pool of
    // the run, shared by both generations.
    let generation_session = Session::new(ExecPolicy::default().with_threads(threads));
    let mut tests: Vec<MarchTest> = catalog::all();
    let generated_l2 = generation_session
        .generate(&FaultList::list_2())
        .into_test()
        .with_name("March GABL1");
    let generated_l1 = generation_session
        .generate(&FaultList::list_1())
        .into_test()
        .with_name("March GRABL");
    tests.push(generated_l2);
    tests.push(generated_l1);

    println!(
        "{:<16} {:>6} | {:>10} {:>10} {:>10} | {:>9} {:>9} {:>8}",
        "march test", "length", lists[0].0, lists[1].0, lists[2].0, "scalar", "packed", "speedup"
    );
    println!("{}", "-".repeat(92));

    let mut total_scalar = Duration::ZERO;
    let mut total_packed = Duration::ZERO;
    for test in &tests {
        let mut cells = Vec::new();
        let mut scalar_time = Duration::ZERO;
        let mut packed_time = Duration::ZERO;
        for (_, list) in &lists {
            let start = Instant::now();
            let scalar_report = scalar_session.coverage(test, list);
            scalar_time += start.elapsed();

            let start = Instant::now();
            let packed_report = packed_session.coverage(test, list);
            packed_time += start.elapsed();

            assert_eq!(
                scalar_report,
                packed_report,
                "backend divergence on {} vs {}",
                test.name(),
                list.name()
            );
            cells.push(format!("{:>9.1}%", scalar_report.percent()));
        }
        total_scalar += scalar_time;
        total_packed += packed_time;
        println!(
            "{:<16} {:>6} | {} {} {} | {:>8.2}ms {:>8.2}ms {:>7.2}x",
            test.name(),
            test.complexity_label(),
            cells[0],
            cells[1],
            cells[2],
            scalar_time.as_secs_f64() * 1e3,
            packed_time.as_secs_f64() * 1e3,
            scalar_time.as_secs_f64() / packed_time.as_secs_f64().max(1e-9),
        );
    }
    println!();
    println!(
        "placements: {}, backgrounds: all-zero and all-one, memory: {} cells, threads: {}",
        if exhaustive {
            "exhaustive"
        } else {
            "representative"
        },
        packed_session.memory_cells(),
        if threads == 0 {
            "auto".to_string()
        } else {
            threads.to_string()
        },
    );
    println!(
        "matrix totals: scalar {:.2}ms, packed {:.2}ms, speedup {:.2}x",
        total_scalar.as_secs_f64() * 1e3,
        total_packed.as_secs_f64() * 1e3,
        total_scalar.as_secs_f64() / total_packed.as_secs_f64().max(1e-9),
    );
}
