//! Property-based tests of the march-test crate: notation round-trips and
//! complexity algebra.

use march_test::{catalog, AddressOrder, MarchElement, MarchTest};
use proptest::prelude::*;
use sram_fault_model::Operation;

fn arbitrary_operation() -> impl Strategy<Value = Operation> {
    prop_oneof![
        Just(Operation::W0),
        Just(Operation::W1),
        Just(Operation::R0),
        Just(Operation::R1),
        Just(Operation::Read(None)),
        Just(Operation::Wait),
    ]
}

fn arbitrary_element() -> impl Strategy<Value = MarchElement> {
    (
        prop::sample::select(AddressOrder::ALL.to_vec()),
        prop::collection::vec(arbitrary_operation(), 1..12),
    )
        .prop_map(|(order, ops)| MarchElement::new(order, ops).expect("non-empty"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Element printing and parsing round-trip.
    #[test]
    fn element_notation_round_trips(element in arbitrary_element()) {
        let printed = element.to_string();
        let reparsed: MarchElement = printed.parse().expect("printed notation parses");
        prop_assert_eq!(reparsed, element);
    }

    /// Test printing and parsing round-trip, including the name.
    #[test]
    fn test_notation_round_trips(elements in prop::collection::vec(arbitrary_element(), 1..8)) {
        let test = MarchTest::new("prop", elements).expect("non-empty");
        let reparsed = MarchTest::parse("prop", &test.notation()).expect("parses");
        prop_assert_eq!(&reparsed, &test);
        prop_assert_eq!(reparsed.complexity(), test.complexity());
    }

    /// Reversing an element twice and complementing twice are both identities, and
    /// they preserve the element length.
    #[test]
    fn element_symmetries(element in arbitrary_element()) {
        prop_assert_eq!(element.reversed().reversed(), element.clone());
        prop_assert_eq!(element.complemented().complemented(), element.clone());
        prop_assert_eq!(element.reversed().len(), element.len());
        prop_assert_eq!(element.complemented().len(), element.len());
        prop_assert_eq!(element.complemented().observes(), element.observes());
    }

    /// Complementing a whole test preserves complexity and read count.
    #[test]
    fn test_complement_preserves_counts(elements in prop::collection::vec(arbitrary_element(), 1..6)) {
        let test = MarchTest::new("prop", elements).expect("non-empty");
        let complemented = test.complemented();
        prop_assert_eq!(complemented.complexity(), test.complexity());
        prop_assert_eq!(complemented.read_count(), test.read_count());
        prop_assert_eq!(complemented.elements().len(), test.elements().len());
    }

    /// The address sequences of ⇑ and ⇓ are reverses of each other for any size.
    #[test]
    fn address_orders_are_reverses(cells in 0usize..100) {
        let up: Vec<usize> = AddressOrder::Ascending.addresses(cells).collect();
        let mut down: Vec<usize> = AddressOrder::Descending.addresses(cells).collect();
        down.reverse();
        prop_assert_eq!(up, down);
    }
}

#[test]
fn catalogue_round_trips_through_the_parser() {
    for test in catalog::all() {
        let reparsed = MarchTest::parse(test.name(), &test.notation()).expect("catalogue parses");
        assert_eq!(reparsed, test);
    }
}

#[test]
fn catalogue_always_initialises_before_reading() {
    // Every catalogue test begins with a write element so that later expected-value
    // annotations are meaningful.
    for test in catalog::all() {
        let first = &test.elements()[0];
        assert!(
            first.operations()[0].is_write(),
            "{} does not start with a write",
            test.name()
        );
    }
}
