//! Catalogue coverage survey: fault-simulate every published march test of the
//! catalogue against the unlinked realistic static faults and the paper's two
//! linked-fault lists, and print a coverage matrix.
//!
//! This extends the validation step of the paper's Section 6 to the whole
//! catalogue: it shows why linked faults need dedicated tests (March C- and even
//! March SS lose coverage on the linked lists) and confirms that the linked-fault
//! tests (March SL, March ABL/RABL/ABL1) keep it.
//!
//! Run with `cargo run --release --example catalog_coverage`.

use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::Session;

fn main() {
    let lists = [
        FaultList::unlinked_static(),
        FaultList::list_2(),
        FaultList::list_1(),
    ];
    // The default session scope is the paper's thorough one.
    let session = Session::default();

    println!(
        "{:<16} {:>6} | {:>10} {:>10} {:>10}",
        "march test", "length", "unlinked", "list #2", "list #1"
    );
    println!("{}", "-".repeat(60));

    for test in catalog::all() {
        let mut cells = Vec::new();
        for list in &lists {
            let report = session.coverage(&test, list);
            cells.push(format!("{:>9.1}%", report.percent()));
        }
        println!(
            "{:<16} {:>6} | {} {} {}",
            test.name(),
            test.complexity_label(),
            cells[0],
            cells[1],
            cells[2]
        );
    }

    println!();
    println!("coverage is measured by fault simulation on an 8-cell memory,");
    println!("representative cell placements, both uniform data backgrounds.");
}
