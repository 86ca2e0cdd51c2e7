//! Diagnosis workflow: build a fault dictionary for a march test, "test" a faulty
//! device, look the observed syndrome up and export the test program that a
//! production flow would run — the downstream-usage path that follows march-test
//! generation.
//!
//! Run with `cargo run --release --example diagnosis_workflow`.

use march_gen::MarchGenerator;
use march_test::export;
use sram_fault_model::{FaultList, Ffm};
use sram_sim::{FaultSimulator, InitialState, InjectedFault, Session, Syndrome};

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Generate a march test for the single-cell static linked faults.
    let list = FaultList::list_2();
    let generated = MarchGenerator::new(list.clone())
        .named("March GEN-LF1")
        .generate_with(&Session::default());
    let test = generated.test().clone();
    println!("generated test : {test}");
    println!();

    // 2. Build a fault dictionary: every (fault, cell) instance of the linked list
    //    plus the unlinked single-cell faults, mapped to its failure syndrome.
    let mut dictionary_space = sram_fault_model::FaultListBuilder::new("diagnosis space")
        .linked_all(list.linked().iter().cloned());
    for family in Ffm::single_cell() {
        dictionary_space = dictionary_space.family(*family);
    }
    let dictionary_space = dictionary_space.build()?;
    //    The dictionary session simulates a 6-cell memory from the all-one
    //    background, like the device below.
    let session = Session::default()
        .with_memory_cells(6)
        .with_backgrounds(vec![InitialState::AllOne]);
    let dictionary = session.dictionary(&test, &dictionary_space);
    println!("dictionary     : {dictionary}");
    println!(
        "undetected     : {} instances",
        dictionary.undetected().count()
    );
    println!();

    // 3. Simulate a "device under test" with a defect the test engineer does not
    //    know about: a deceptive read destructive fault on cell 3.
    let drdf = Ffm::DeceptiveReadDestructiveFault.fault_primitives()[0].clone();
    let mut device = FaultSimulator::new(6, &InitialState::AllOne)?;
    device.inject(InjectedFault::single_cell(drdf.clone(), 3, 6)?);
    let syndrome = Syndrome::observe(&test, &mut device);
    println!("observed       : {syndrome}");
    for entry in syndrome.entries().take(5) {
        println!("  {entry}");
    }
    println!();

    // 4. Look the syndrome up in the dictionary (the dictionary was built for the
    //    *linked* list; the single-cell DRDF appears inside several linked faults,
    //    so candidates localise the victim cell even if the exact defect is
    //    ambiguous).
    let candidates = dictionary.lookup(&syndrome);
    println!(
        "dictionary candidates with an identical syndrome: {}",
        candidates.len()
    );
    for candidate in candidates.iter().take(5) {
        println!("  {candidate}");
    }
    println!(
        "all candidates point at cell {:?}",
        candidates
            .iter()
            .map(|candidate| candidate.cells.victim)
            .collect::<std::collections::BTreeSet<_>>()
    );
    println!();

    // 5. Export the generated test as a C routine for the production test program.
    println!(
        "C export:\n{}",
        export::to_c_function(&test, "march_gen_lf1")
    );
    Ok(())
}
