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
use sram_fault_model::FaultList;
use sram_sim::Session;

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
