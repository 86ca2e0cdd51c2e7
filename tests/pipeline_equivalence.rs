//! The cross-backend differential suite: **one harness**
//! ([`march_codex_repro::testkit::assert_pipeline_equivalent`]) asserting
//! coverage / generation / minimisation / verification verdicts are
//! byte-identical across backend × threads × scope, for address-decoder (AF),
//! cell-array (FFM) and mixed fault lists.
//!
//! This replaces the three near-duplicate equivalence suites that previously
//! lived in `crates/memsim/tests/session_equivalence.rs`,
//! `crates/core/tests/session_equivalence.rs` and
//! `crates/core/tests/minimise_equivalence.rs`.

use march_codex_repro::testkit::{assert_pipeline_equivalent, reference_policy};
use march_test::{AddressOrder, MarchElement, MarchTest};
use proptest::prelude::*;
use sram_fault_model::{FaultList, Operation};
use sram_sim::{BackendKind, ExecPolicy, Session};

/// The three fault domains the tentpole opens: decoder-only, FFM-only and the
/// mixed list carrying both.
fn fault_lists() -> Vec<FaultList> {
    vec![
        FaultList::address_decoder(),
        FaultList::list_2(),
        FaultList::list_2().with_address_decoder_faults(),
    ]
}

fn arbitrary_policy() -> impl Strategy<Value = ExecPolicy> {
    (
        prop_oneof![Just(BackendKind::Scalar), Just(BackendKind::Packed)],
        0usize..4,
    )
        .prop_map(|(backend, threads)| {
            ExecPolicy::default()
                .with_backend(backend)
                .with_threads(threads)
        })
}

/// Deterministic sweep: every fault domain × a policy matrix spanning both
/// backends and serial/pooled/auto threads, each anchored to the serial
/// scalar reference.
#[test]
fn af_ffm_and_mixed_lists_are_policy_invariant() {
    let policies = [
        ExecPolicy::default(), // packed, serial
        ExecPolicy::default().with_threads(2),
        ExecPolicy::default()
            .with_backend(BackendKind::Scalar)
            .with_threads(3),
        ExecPolicy::fast(),
    ];
    for list in fault_lists() {
        for policy in policies {
            assert_pipeline_equivalent(reference_policy(), policy, &list, 8);
        }
    }
}

/// The decoder-only domain works on memories too small for linked-fault
/// placements — its pair classes only need 2 cells.
#[test]
fn decoder_only_lists_run_on_tiny_and_odd_sized_memories() {
    let list = FaultList::address_decoder();
    for cells in [4usize, 6, 12] {
        assert_pipeline_equivalent(reference_policy(), ExecPolicy::fast(), &list, cells);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Random policy pairs stay pipeline-equivalent on every fault domain and
    /// on both a small (exhaustive-scoped) and the default memory.
    #[test]
    fn random_policy_pairs_are_pipeline_equivalent(
        policy_a in arbitrary_policy(),
        policy_b in arbitrary_policy(),
        list_index in 0usize..3,
        small in any::<bool>(),
    ) {
        let list = &fault_lists()[list_index];
        let cells = if small { 6 } else { 8 };
        assert_pipeline_equivalent(policy_a, policy_b, list, cells);
    }
}

// ---------------------------------------------------------------------------
// Random-test coverage equivalence (the cheap, high-volume property the old
// memsim suite contributed): arbitrary march tests, not just catalogue ones.
// ---------------------------------------------------------------------------

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
        prop::collection::vec(arbitrary_operation(), 1..8),
    )
        .prop_map(|(order, ops)| MarchElement::new(order, ops).expect("non-empty"))
}

fn arbitrary_test() -> impl Strategy<Value = MarchTest> {
    prop::collection::vec(arbitrary_element(), 1..6)
        .prop_map(|elements| MarchTest::new("prop", elements).expect("non-empty"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Coverage of *random* march tests is byte-identical across policies on
    /// every fault domain — the high-volume lane-level property.
    #[test]
    fn random_tests_have_identical_coverage_across_policies(
        test in arbitrary_test(),
        policy in arbitrary_policy(),
        list_index in 0usize..3,
        memory_cells in 4usize..10,
    ) {
        let list = &fault_lists()[list_index];
        let reference = Session::new(reference_policy())
            .with_memory_cells(memory_cells)
            .try_coverage(&test, list)
            .expect("scope hosts the placements");
        let report = Session::new(policy)
            .with_memory_cells(memory_cells)
            .try_coverage(&test, list)
            .expect("scope hosts the placements");
        prop_assert_eq!(report, reference, "policy {:?}", policy);
    }
}
