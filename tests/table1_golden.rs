//! Golden pin of the reproduced Table 1: the three march tests the generator
//! produces for the paper's Fault Lists #1 and #2 on a default [`Session`].
//!
//! GABL is the greedy search on List #1 without redundancy removal, GRABL
//! the same search followed by the minimiser, and GABL1 the full pipeline on
//! List #2. The paper reports 37n / 35n / 9n; this reproduction generates
//! 35n / 29n / 7n. A change to any notation below must be a deliberate,
//! explained golden update: it means the generator, the minimiser or the
//! lanes they simulate (order included) changed.

use march_gen::{GeneratorConfig, SessionExt};
use march_test::{MarchElement, MarchTest};
use sram_fault_model::FaultList;
use sram_sim::{PlacementStrategy, Session};

/// (row, notation, complexity in n).
const EXPECTED: [(&str, &str, usize); 3] = [
    (
        "GABL",
        "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1); ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); \
         ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); ⇓(r0,w0,r0,w1)",
        35,
    ),
    (
        "GRABL",
        "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1); ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); \
         ⇑(r1,w1,w1,r1,w0); ⇓(r0,w0,w1)",
        29,
    ),
    ("GABL1", "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1)", 7),
];

#[test]
fn table_1_generations_match_the_golden_notations() {
    let session = Session::default();
    let (list_1, list_2) = (FaultList::list_1(), FaultList::list_2());
    let generated = [
        (
            session.generate_with_config(&list_1, GeneratorConfig::without_redundancy_removal()),
            &list_1,
        ),
        (session.generate(&list_1), &list_1),
        (session.generate(&list_2), &list_2),
    ];
    let mut total = 0;
    for ((row, notation, complexity), (generated, list)) in EXPECTED.iter().zip(&generated) {
        let test = generated.test();
        assert_eq!(test.notation(), *notation, "{row} notation");
        assert_eq!(test.complexity(), *complexity, "{row} complexity");
        let coverage = session.coverage(test, list);
        assert!(
            coverage.is_complete(),
            "{row} escapes: {:?}",
            coverage.escapes()
        );
        total += test.complexity();
    }
    assert_eq!(total, 71);
}

/// Every test `test` becomes with one operation deleted, the element
/// dropped when it empties out.
fn single_deletions(test: &MarchTest) -> Vec<MarchTest> {
    let elements = test.elements();
    let mut deletions = Vec::new();
    for (element_index, element) in elements.iter().enumerate() {
        for op_index in 0..element.len() {
            let mut operations = element.operations().to_vec();
            operations.remove(op_index);
            let mut shortened = elements.to_vec();
            if operations.is_empty() {
                shortened.remove(element_index);
            } else {
                shortened[element_index] = MarchElement::new(element.order(), operations)
                    .expect("the element keeps an operation");
            }
            deletions
                .push(MarchTest::new(test.name(), shortened).expect("the test keeps an element"));
        }
    }
    deletions
}

#[test]
fn minimised_table_1_tests_are_irredundant() {
    // The minimiser's fixed point: no single operation of GRABL (29n) or
    // GABL1 (7n) can go without losing coverage — on the default session the
    // minimiser ran on, and at the exhaustive 8-cell scope it never saw.
    let session = Session::default();
    let exhaustive = Session::default().with_strategy(PlacementStrategy::Exhaustive);
    for (row, list, complexity) in [
        ("GRABL", FaultList::list_1(), 29),
        ("GABL1", FaultList::list_2(), 7),
    ] {
        let generated = session.generate(&list);
        let deletions = single_deletions(generated.test());
        assert_eq!(deletions.len(), complexity, "{row} deletions");
        for (scope, scoped) in [("default", &session), ("exhaustive", &exhaustive)] {
            for shortened in &deletions {
                assert!(
                    !scoped.coverage(shortened, &list).is_complete(),
                    "{row} stays complete at {scope} scope as {}",
                    shortened.notation()
                );
            }
        }
    }
}
