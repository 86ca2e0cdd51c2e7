//! Exact optima: the shortest march tests that cover a fault list under this
//! model, pinned where an exhaustive search closes.
//!
//! Fault List #2 holds single-cell linked faults only (LF1), so a test acts
//! on each of them through its flattened operation sequence: address orders
//! and element boundaries do not matter, and one `⇑` element of the sequence
//! stands for every test with it. Enumerating every sequence up to a length
//! over the operations the list can be sensitised by, plus the read that
//! observes them, therefore bounds every march test of that length.

use std::collections::BTreeSet;

use march_test::{AddressOrder, MarchElement, MarchTest};
use sram_fault_model::{FaultList, Operation};
use sram_sim::Session;

/// The operations a sequence over `list` is built from: every sensitising
/// operation of its faults' primitives, reads taken as one unannotated
/// operation (a read is checked against the fault-free memory whatever
/// value it names), plus the read that observes a fault.
fn alphabet(list: &FaultList) -> Vec<Operation> {
    let mut operations: BTreeSet<Operation> = list
        .linked()
        .iter()
        .flat_map(|fault| [fault.first(), fault.second()])
        .filter_map(|primitive| primitive.sensitizing_operation())
        .map(|operation| match operation {
            Operation::Read(_) => Operation::Read(None),
            other => other,
        })
        .collect();
    operations.insert(Operation::Read(None));
    operations.into_iter().collect()
}

/// Every sequence of `length` operations over `alphabet`, as a one-element
/// `⇑` test whose reads name the fault-free value: the last value written,
/// none before the first write.
fn sequences(alphabet: &[Operation], length: usize) -> Vec<MarchTest> {
    let count = alphabet.len().pow(length as u32);
    (0..count)
        .map(|mut index| {
            let mut written = None;
            let operations = (0..length)
                .map(|_| {
                    let operation = alphabet[index % alphabet.len()];
                    index /= alphabet.len();
                    match operation {
                        Operation::Write(value) => {
                            written = Some(value);
                            operation
                        }
                        Operation::Read(_) => Operation::Read(written),
                        other => other,
                    }
                })
                .collect();
            let element = MarchElement::new(AddressOrder::Ascending, operations)
                .expect("sequences are non-empty");
            MarchTest::new("sequence", vec![element]).expect("one element")
        })
        .collect()
}

#[test]
fn no_march_test_shorter_than_7n_covers_fault_list_2() {
    // 3 + 9 + … + 2187 = 3,279 sequences of at most 7 operations over
    // {w0, w1, r}, on one session: the repeated (list, scope) traffic the
    // class image serves. No sequence of 6 or fewer operations covers the
    // list, and exactly two of 7 do: GABL1's flattened ⇕(w0);
    // ⇑(r0,r0,w1,w1,r1,r1) and its complement. The paper published 9n
    // (March ABL1).
    let list = FaultList::list_2();
    let alphabet = alphabet(&list);
    assert_eq!(
        alphabet,
        [Operation::W0, Operation::W1, Operation::Read(None)],
        "List #2 is sensitised by w0, w1 and reads"
    );
    let session = Session::default();
    let mut enumerated = 0;
    let mut complete = Vec::new();
    for length in 1..=7 {
        for test in sequences(&alphabet, length) {
            enumerated += 1;
            if session.coverage(&test, &list).is_complete() {
                complete.push(test.notation());
            }
        }
    }
    assert_eq!(enumerated, 3_279);
    complete.sort();
    assert_eq!(
        complete,
        ["⇑(w0,r0,r0,w1,w1,r1,r1)", "⇑(w1,r1,r1,w0,w0,r0,r0)"],
        "the complete sequences of at most 7 operations"
    );
}
