//! Reproduction of **Table 1** of the paper: automatically generated march tests
//! for the two target fault lists, with generation CPU time, complexity and the
//! improvement in test length over the published baselines.
//!
//! Run with `cargo run --release -p march-bench --bin table1`.
//! Pass `--exhaustive` to re-verify every generated test under exhaustive cell
//! placements (slower).

use std::env;
use std::time::Instant;

use march_bench::{improvement_percent, table_header, TableRow};
use march_gen::{GeneratedTest, GeneratorConfig, MarchGenerator};
use march_test::{catalog, MarchTest};
use sram_fault_model::FaultList;
use sram_sim::{PlacementStrategy, Session};

fn main() {
    let exhaustive = env::args().any(|arg| arg == "--exhaustive");

    let list1 = FaultList::list_1();
    let list2 = FaultList::list_2();
    println!("{list1}");
    println!("{list2}");
    println!();

    // The three rows of Table 1:
    //   ABL   — Fault List #1, raw greedy output (no redundancy removal);
    //   RABL  — Fault List #1, with the redundancy-removal pass;
    //   ABL1  — Fault List #2, default configuration.
    let rows = vec![
        generate_row(
            "March GABL",
            &list1,
            1,
            GeneratorConfig::without_redundancy_removal(),
            &[catalog::test_43n(), catalog::march_sl()],
            exhaustive,
        ),
        generate_row(
            "March GRABL",
            &list1,
            1,
            GeneratorConfig::default(),
            &[catalog::test_43n(), catalog::march_sl()],
            exhaustive,
        ),
        generate_row(
            "March GABL1",
            &list2,
            2,
            GeneratorConfig::default(),
            &[catalog::march_lf1()],
            exhaustive,
        ),
    ];

    println!("{}", table_header());
    println!("{}", "-".repeat(110));
    for row in &rows {
        println!("{}", row.formatted());
    }
    println!();
    println!("generated march tests:");
    for row in &rows {
        println!("  {:<14} {}", row.name, row.notation);
    }
    println!();

    println!("published Table 1 reference points:");
    for (test, list_label) in [
        (catalog::march_abl(), "#1"),
        (catalog::march_rabl(), "#1"),
        (catalog::march_abl1(), "#2"),
        (catalog::test_43n(), "#1 (subset)"),
        (catalog::march_sl(), "#1"),
        (catalog::march_lf1(), "#2"),
    ] {
        println!(
            "  {:<16} {:>4} targeting fault list {}",
            test.name(),
            test.complexity_label(),
            list_label
        );
    }
}

fn generate_row(
    name: &str,
    list: &FaultList,
    fault_list: usize,
    config: GeneratorConfig,
    baselines: &[MarchTest],
    exhaustive: bool,
) -> TableRow {
    let generator = MarchGenerator::with_config(list.clone(), config).named(name);
    let start = Instant::now();
    let generated: GeneratedTest = generator.generate_with(&Session::default());
    let cpu_time = start.elapsed();

    // The thorough scope, or every placement on a 6-cell memory.
    let verification = if exhaustive {
        Session::default()
            .with_memory_cells(6)
            .with_strategy(PlacementStrategy::Exhaustive)
    } else {
        Session::default()
    };
    let coverage = verification.coverage(generated.test(), list);

    let improvements = baselines
        .iter()
        .map(|baseline| {
            (
                baseline.name().to_string(),
                improvement_percent(generated.test(), baseline),
            )
        })
        .collect();

    TableRow {
        name: name.to_string(),
        notation: generated.test().notation(),
        fault_list,
        cpu_time,
        complexity: generated.test().complexity(),
        coverage_percent: coverage.percent(),
        improvements,
    }
}
