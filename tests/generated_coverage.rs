//! End-to-end integration tests: the generator produces complete, verified march
//! tests for the paper's two target fault lists (the §6 validation claim).

use march_gen::{GeneratedTest, GeneratorConfig, MarchGenerator};
use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::{CoverageReport, Session};

/// Generates on a default session and verifies the test under the same
/// thorough scope: 8 cells, representative placements, both uniform
/// backgrounds.
fn generate_and_verify(generator: MarchGenerator) -> (GeneratedTest, CoverageReport) {
    let session = Session::default();
    let generated = generator.generate_with(&session);
    let coverage = session.coverage(generated.test(), generator.fault_list());
    (generated, coverage)
}

#[test]
fn fault_list_2_generation_is_complete_and_short() {
    let list = FaultList::list_2();
    let (generated, coverage) =
        generate_and_verify(MarchGenerator::new(list.clone()).named("March GEN-LF1"));

    assert!(
        generated.report().is_complete(),
        "generation left targets uncovered: {:?}",
        generated.report().uncovered()
    );
    assert!(coverage.is_complete(), "escapes: {:?}", coverage.escapes());

    // Table 1 shape: the generated test must not be longer than the 11n March LF1
    // baseline for the same list.
    assert!(
        generated.test().complexity() <= catalog::march_lf1().complexity(),
        "generated {} vs baseline {}",
        generated.test().complexity(),
        catalog::march_lf1().complexity()
    );
}

#[test]
fn fault_list_2_generation_reported_uncovered_matches_simulation() {
    // The generator's own completeness claim must agree with an independent
    // coverage measurement.
    let list = FaultList::list_2();
    let generated = MarchGenerator::new(list.clone()).generate_with(&Session::default());
    let report = Session::default().coverage(generated.test(), &list);
    assert_eq!(generated.report().is_complete(), report.is_complete());
}

#[test]
fn generation_without_repair_still_covers_list_2() {
    let config = GeneratorConfig {
        repair: false,
        ..GeneratorConfig::default()
    };
    let generated =
        MarchGenerator::with_config(FaultList::list_2(), config).generate_with(&Session::default());
    assert!(generated.report().is_complete());
}

#[test]
fn lf3_subset_generation_is_complete() {
    // The hardest topology class on its own: three-cell linked faults.
    let list = FaultList::list_1().filter_topology(sram_fault_model::LinkTopology::Lf3);
    assert!(!list.is_empty());
    let (generated, coverage) =
        generate_and_verify(MarchGenerator::new(list).named("March GEN-LF3"));
    assert!(
        generated.report().is_complete(),
        "uncovered: {:?}",
        generated.report().uncovered()
    );
    assert!(coverage.is_complete(), "escapes: {:?}", coverage.escapes());
    // March SL covers all static linked faults in 41n; a test generated only for
    // the LF3 subset must not be longer than that.
    assert!(generated.test().complexity() <= catalog::march_sl().complexity());
}

#[test]
fn two_cell_subset_generation_is_complete() {
    let full = FaultList::list_1();
    let mut builder = sram_fault_model::FaultListBuilder::new("static LF2 subset");
    for topology in [
        sram_fault_model::LinkTopology::Lf2CouplingThenSingle,
        sram_fault_model::LinkTopology::Lf2SingleThenCoupling,
        sram_fault_model::LinkTopology::Lf2SharedAggressor,
    ] {
        builder = builder.linked_all(
            full.linked()
                .iter()
                .filter(|lf| lf.topology() == topology)
                .cloned(),
        );
    }
    let list = builder.build().expect("LF2 subset is not empty");
    let (generated, coverage) = generate_and_verify(MarchGenerator::new(list));
    assert!(
        generated.report().is_complete(),
        "uncovered: {:?}",
        generated.report().uncovered()
    );
    assert!(coverage.is_complete(), "escapes: {:?}", coverage.escapes());
}

/// The headline experiment (Table 1 row 1–2): full Fault List #1 generation.
/// It takes about a second in a debug build; `tests/table1_golden.rs` pins
/// the generated notations themselves.
#[test]
fn fault_list_1_generation_is_complete_and_beats_the_baselines() {
    let list = FaultList::list_1();
    let (generated, coverage) =
        generate_and_verify(MarchGenerator::new(list).named("March GEN-L1"));
    assert!(
        generated.report().is_complete(),
        "uncovered: {:?}",
        generated.report().uncovered()
    );
    assert!(coverage.is_complete(), "escapes: {:?}", coverage.escapes());
    assert!(generated.test().complexity() <= catalog::march_sl().complexity());
}
