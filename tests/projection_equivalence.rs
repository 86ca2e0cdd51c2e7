//! Differential proof of projected simulation.
//!
//! Coverage (and everything built on it) no longer walks the whole memory
//! per lane: each lane is projected onto the at most three cells its fault
//! instance involves, and one representative per lane class is simulated.
//! This suite holds that projection to the full-memory walk the backends
//! still implement ([`march_codex_repro::testkit::assert_projection_exact`]):
//!
//! * over Lists #1 and #2, the unlinked list, the address-decoder (AF) list
//!   and a mixed FFM + AF list;
//! * under both uniform backgrounds, the checkerboard and an irregular custom
//!   image (only the patterned two catch a class key without background
//!   bits);
//! * with incomplete probe tests, so escapes and their order are compared;
//! * across the backend × threads × lane-width matrix.
//!
//! It also pins the consequence that makes the default scope trustworthy:
//! under the two uniform backgrounds a lane's class is its cells' rank order
//! alone, and the representative placements cover every order, so the 8-cell
//! representative scope agrees with the exhaustive one.
//!
//! Sizes stay small enough for a debug build; `large_memory_smoke.rs` runs
//! the same differential at 4096 (AF) and 16 (List #1) cells in release.

use std::collections::BTreeSet;

use march_codex_repro::testkit::{assert_projection_exact, reference_policy};
use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::{BackendKind, CoverageReport, ExecPolicy, LaneWidth, PlacementStrategy, Session};

/// The backend × threads × lane-width matrix the projection must be
/// invariant over.
fn policies() -> Vec<ExecPolicy> {
    vec![
        reference_policy(),
        ExecPolicy::default()
            .with_backend(BackendKind::Scalar)
            .with_threads(2),
        ExecPolicy::default().with_threads(1),
        ExecPolicy::default()
            .with_threads(2)
            .with_lane_width(LaneWidth::W64),
        ExecPolicy::default()
            .with_threads(2)
            .with_lane_width(LaneWidth::W128),
        ExecPolicy::default()
            .with_threads(1)
            .with_lane_width(LaneWidth::W256),
    ]
}

#[test]
fn projection_is_exact_for_fault_list_1() {
    // The three-cell list carries the most lanes. The packed policies rebuild
    // it exhaustively (8 cells at one width, 5 at the others); the scalar
    // full-memory rebuild is too slow for a debug build beyond the
    // representative scope, which the projection keys the same way.
    for policy in policies() {
        let (cells, strategy) = match (policy.backend, policy.lane_width) {
            (BackendKind::Scalar, _) => (8, PlacementStrategy::Representative),
            (_, LaneWidth::W64) => (8, PlacementStrategy::Exhaustive),
            _ => (5, PlacementStrategy::Exhaustive),
        };
        assert_projection_exact(policy, &FaultList::list_1(), cells, strategy);
    }
}

#[test]
fn projection_is_exact_for_fault_list_2_and_the_unlinked_list() {
    for policy in policies() {
        for list in [FaultList::list_2(), FaultList::unlinked_static()] {
            assert_projection_exact(policy, &list, 8, PlacementStrategy::Exhaustive);
            assert_projection_exact(policy, &list, 8, PlacementStrategy::Representative);
        }
    }
}

#[test]
fn projection_is_exact_for_address_decoder_faults() {
    for policy in policies() {
        let list = FaultList::address_decoder();
        // The scalar full-memory rebuild is the slow side of the
        // comparison; it stops at 32 cells.
        let largest = match policy.backend {
            BackendKind::Scalar => 32,
            _ => 64,
        };
        for cells in [8, largest] {
            assert_projection_exact(policy, &list, cells, PlacementStrategy::Exhaustive);
        }
        assert_projection_exact(policy, &list, 64, PlacementStrategy::Representative);
    }
}

#[test]
fn projection_is_exact_for_a_mixed_list() {
    let list = FaultList::list_2().with_address_decoder_faults();
    for policy in policies() {
        for cells in [6, 8] {
            assert_projection_exact(policy, &list, cells, PlacementStrategy::Exhaustive);
        }
        assert_projection_exact(policy, &list, 8, PlacementStrategy::Representative);
    }
}

/// The targets a report leaves uncovered.
fn escaping_targets(report: &CoverageReport) -> BTreeSet<String> {
    report
        .escapes()
        .iter()
        .map(|escape| escape.target.to_string())
        .collect()
}

#[test]
fn representative_scope_agrees_with_exhaustive_under_uniform_backgrounds() {
    let scoped = |strategy: PlacementStrategy| {
        Session::default()
            .with_memory_cells(8)
            .with_strategy(strategy)
    };
    let representative = scoped(PlacementStrategy::Representative);
    let exhaustive = scoped(PlacementStrategy::Exhaustive);
    let lists = [
        FaultList::list_1(),
        FaultList::list_2(),
        FaultList::unlinked_static(),
        FaultList::address_decoder(),
    ];
    let mut escapes_seen = 0;
    for test in catalog::all() {
        for list in &lists {
            let fast = representative.coverage(&test, list);
            let full = exhaustive.coverage(&test, list);
            let label = format!("{} vs {}", test.name(), list.name());
            assert_eq!(fast.covered(), full.covered(), "covered count: {label}");
            assert_eq!(
                escaping_targets(&fast),
                escaping_targets(&full),
                "escaping targets: {label}"
            );
            escapes_seen += full.escapes().len();
        }
    }
    assert!(escapes_seen > 0, "no catalogue test escaped any list");
}
