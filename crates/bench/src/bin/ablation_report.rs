//! Ablation study of the generator's design knobs (an extension of the paper's
//! evaluation): redundancy removal, the exhaustive repair pool and the set of data
//! backgrounds used during generation.
//!
//! Run with `cargo run --release -p march-bench --bin ablation_report`.

use std::time::Instant;

use march_gen::{GeneratorConfig, MarchGenerator};
use march_test::AddressOrder;
use sram_fault_model::FaultList;
use sram_sim::{InitialState, Session};

/// One ablation variant: the generator knobs plus the session it generates on.
struct Variant {
    name: &'static str,
    config: GeneratorConfig,
    session: fn() -> Session,
}

fn main() {
    let variants = vec![
        Variant {
            name: "default (removal + repair)",
            config: GeneratorConfig::default(),
            session: Session::default,
        },
        Variant {
            name: "no redundancy removal",
            config: GeneratorConfig::without_redundancy_removal(),
            session: Session::default,
        },
        Variant {
            name: "no repair pool",
            config: GeneratorConfig {
                repair: false,
                ..GeneratorConfig::default()
            },
            session: Session::default,
        },
        Variant {
            name: "single background (all-1)",
            config: GeneratorConfig::default(),
            session: || Session::default().with_backgrounds(vec![InitialState::AllOne]),
        },
        Variant {
            name: "small memory (6 cells)",
            config: GeneratorConfig::default(),
            session: || Session::default().with_memory_cells(6),
        },
        Variant {
            name: "ascending-only elements",
            config: GeneratorConfig::single_order(AddressOrder::Ascending),
            session: Session::default,
        },
    ];

    // Every variant's test is verified under the paper's thorough scope.
    let verification_session = Session::default();
    for (label, list) in [
        ("Fault List #2", FaultList::list_2()),
        ("Fault List #1", FaultList::list_1()),
    ] {
        println!("=== {label} ({} linked faults) ===", list.linked().len());
        println!(
            "{:<28} {:>8} {:>7} {:>10} {:>10}",
            "variant", "O(n)", "CPU", "complete", "verified"
        );
        for variant in &variants {
            let generator =
                MarchGenerator::with_config(list.clone(), variant.config.clone()).named("ablation");
            let start = Instant::now();
            let generated = generator.generate_with(&(variant.session)());
            let elapsed = start.elapsed();
            let verification = verification_session.coverage(generated.test(), &list);
            println!(
                "{:<28} {:>7}n {:>6.2}s {:>10} {:>9.1}%",
                variant.name,
                generated.test().complexity(),
                elapsed.as_secs_f64(),
                generated.report().is_complete(),
                verification.percent()
            );
        }
        println!();
    }
}
