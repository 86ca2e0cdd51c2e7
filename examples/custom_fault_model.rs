//! Custom fault models: define a user-specific linked fault, build a fault list
//! around it, generate a dedicated march test and validate it — the "possibly add
//! new user-defined faults" workflow the paper's conclusions advertise.
//!
//! Run with `cargo run --release --example custom_fault_model`.

use march_gen::{MarchGenerator, SessionExt};
use sram_fault_model::{
    CellValue, Condition, FaultEffect, FaultListBuilder, FaultPrimitive, Ffm, LinkTopology,
    LinkedFault, Operation,
};
use sram_sim::Session;

fn main() -> Result<(), Box<dyn std::error::Error>> {
    // 1. Define two fault primitives by hand using the <S/F/R> notation helpers.
    //    FP1: an up-transition fault <0w1/0/->.
    let tf_up = FaultPrimitive::single_cell(
        Ffm::TransitionFault,
        Condition::with_operation(CellValue::Zero, Operation::W1),
        FaultEffect::store(CellValue::Zero),
    )?;
    //    FP2: a write-destructive coupling fault <1; 0w0 / 1 / -> that masks FP1
    //    whenever the aggressor cell holds 1.
    let cfwd = FaultPrimitive::coupling(
        Ffm::WriteDestructiveCoupling,
        Condition::state(CellValue::One),
        Condition::with_operation(CellValue::Zero, Operation::W0),
        FaultEffect::store(CellValue::One),
    )?;
    println!("FP1 = {tf_up}");
    println!("FP2 = {cfwd}");

    // 2. Link them: FP2 masks FP1 (F2 = 1 = ¬F1, and FP2 is sensitized on the victim
    //    cell left at 0 by FP1). This is a two-cell linked fault of class LF2va.
    let linked = LinkedFault::link(tf_up.clone(), cfwd, LinkTopology::Lf2SingleThenCoupling)?;
    println!("linked fault: {linked}");

    // 3. Build a custom fault list: the hand-made linked fault plus, for good
    //    measure, every state fault.
    let list = FaultListBuilder::new("custom list")
        .linked(linked)
        .family(Ffm::StateFault)
        .simple(tf_up)
        .build()?;
    println!("fault list: {list}");

    // 4. Generate and verify a march test dedicated to this list, on one session
    //    with the paper's thorough scope (8 cells, both uniform backgrounds).
    let session = Session::default();
    let generated = MarchGenerator::new(list.clone())
        .named("March CUSTOM")
        .generate_with(&session);
    let coverage = session.verify(generated.test(), &list);
    println!("generated: {}", generated.test());
    println!("coverage : {coverage}");
    assert!(
        coverage.is_complete(),
        "the generated test must cover the custom list"
    );

    // 5. Cross-check with an off-the-shelf test: MATS+ is not enough for this list.
    let mats = march_test::catalog::mats_plus();
    let mats_coverage = session.verify(&mats, &list);
    println!("MATS+    : {mats_coverage}");
    Ok(())
}
