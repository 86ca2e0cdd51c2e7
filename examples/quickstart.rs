//! Quickstart: build one [`Session`], generate a march test for the
//! single-cell static linked faults (the paper's Fault List #2), verify it
//! with the fault simulator and compare it against the published 11n March
//! LF1 baseline — every pipeline stage through the same engine handle.
//!
//! Run with `cargo run --release --example quickstart`.

use march_gen::SessionExt;
use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::{ExecPolicy, Report, Session};

fn main() {
    // 1. One session owns the execution policy (backend, threads)
    //    for the whole pipeline. `ExecPolicy::fast()` uses every core.
    let session = Session::new(ExecPolicy::fast());

    // 2. Pick the target fault list: the realistic single-cell static linked
    //    faults.
    let list = FaultList::list_2();
    println!("target fault list : {list}");

    // 3. Generate a march test for it (simulation-backed greedy + redundancy
    //    removal, as in the paper's Section 5).
    let generated = session.generate(&list);
    println!("generated test    : {}", generated.test());
    println!(
        "complexity        : {}",
        generated.test().complexity_label()
    );
    println!("generation report : {}", generated.report());

    // 4. Verify it with the fault simulator — same session, same worker pool.
    let coverage = session.verify(generated.test(), &list);
    println!("verified coverage : {coverage}");

    // 5. Compare against the published baseline for the same fault list.
    let baseline = catalog::march_lf1();
    let baseline_coverage = session.verify(&baseline, &list);
    println!(
        "baseline          : {} [{}] -> {}",
        baseline.name(),
        baseline.complexity_label(),
        baseline_coverage
    );

    let ours = generated.test().complexity() as f64;
    let theirs = baseline.complexity() as f64;
    println!(
        "test length vs {} : {:+.1}%",
        baseline.name(),
        100.0 * (ours - theirs) / theirs
    );

    // 6. Every session report also serialises to dependency-free JSON for
    //    machine consumers (the CLI exposes the same form behind `--json`).
    println!("machine readable  : {}", coverage.to_json());
}
