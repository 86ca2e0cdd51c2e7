//! Differential proof of projected simulation.
//!
//! Coverage (and everything built on it) no longer walks the whole memory
//! per lane: each lane is projected onto the at most three cells its fault
//! instance involves, and one representative per lane class is simulated.
//! The generator's and the minimiser's target batches simulate every lane on
//! its projected memory too. This suite holds both to the full-memory walk
//! the backends still implement
//! ([`march_codex_repro::testkit::assert_projection_exact`]):
//!
//! * over Lists #1 and #2, the unlinked list, the address-decoder (AF) list
//!   and a mixed FFM + AF list;
//! * under both uniform backgrounds, the checkerboard and an irregular custom
//!   image (only the patterned two catch a class key without background
//!   bits);
//! * with incomplete probe tests, so escapes and their order are compared;
//! * with one batch over every target of the list, as the generator takes
//!   it from the session — weighted class representatives that merge as
//!   their states meet — at every prefix of every probe test: pending lanes,
//!   pending counts and pool scores, through words that mix targets of
//!   different cell counts, words that mix decoder and cell-array lanes,
//!   compactions that merge words, merged lanes, re-packs that move lanes
//!   between the limbs of a word and partial last words, at
//!   the representative 8-cell and the exhaustive 6-cell scope and under
//!   patterned backgrounds;
//! * across the backend × threads matrix.
//!
//! It also pins the consequence that makes the default scope trustworthy:
//! under the two uniform backgrounds a lane's class is its cells' rank order
//! alone, and the representative placements cover every order, so the 8-cell
//! representative scope agrees with the exhaustive one.
//!
//! Sizes stay small enough for a debug build; `large_memory_smoke.rs` runs
//! the coverage differential at 4096 (AF) and 16 (List #1) cells and the
//! batch differential on exhaustive 8-cell List #1 in release.

use std::collections::BTreeSet;

use march_codex_repro::testkit::{
    assert_batch_projection_exact, assert_coverage_projection_exact, assert_projection_exact,
    reference_policy, BatchLayouts,
};
use march_gen::{GeneratorConfig, SessionExt};
use march_test::catalog;
use sram_fault_model::{Bit, FaultList};
use sram_sim::{BackendKind, CoverageReport, ExecPolicy, InitialState, PlacementStrategy, Session};

/// The backend × threads matrix the projection must be invariant over.
fn policies() -> Vec<ExecPolicy> {
    vec![
        reference_policy(),
        ExecPolicy::default()
            .with_backend(BackendKind::Scalar)
            .with_threads(2),
        ExecPolicy::default().with_threads(1),
        ExecPolicy::default().with_threads(2),
    ]
}

#[test]
fn projection_is_exact_for_fault_list_1() {
    // The three-cell list carries the most lanes. The packed policies rebuild
    // its coverage exhaustively (8 cells on two threads, 5 serially); the
    // scalar full-memory rebuild is too slow for a debug build beyond the
    // representative scope, which the projection keys the same way.
    for policy in policies() {
        let (cells, strategy) = match (policy.backend, policy.threads) {
            (BackendKind::Scalar, _) => (8, PlacementStrategy::Representative),
            (_, 2) => (8, PlacementStrategy::Exhaustive),
            _ => (5, PlacementStrategy::Exhaustive),
        };
        assert_coverage_projection_exact(policy, &FaultList::list_1(), cells, strategy);
    }
    // Its 844 targets walked on the full memory at every prefix are the
    // slowest check here: the debug build drives them on the Table 1 scope
    // under one policy, the release leg exhaustively.
    let layouts = assert_projection_exact(
        ExecPolicy::default().with_threads(1),
        &FaultList::list_1(),
        8,
        PlacementStrategy::Representative,
    );
    // Its one-, two- and three-cell targets share words, detection thins
    // the words out until they merge, lanes whose states meet merge, and
    // re-packing moves survivors between the limbs of a word.
    assert!(layouts.mixed_cell_counts, "{layouts:?}");
    assert!(layouts.merging_compaction, "{layouts:?}");
    assert!(layouts.partial_last_word, "{layouts:?}");
    assert!(layouts.lanes_merged, "{layouts:?}");
    assert!(layouts.limb_crossing_repack, "{layouts:?}");
}

#[test]
fn weighted_batches_merge_lanes_at_the_exhaustive_and_patterned_scopes() {
    // The batch of weighted class representatives, merging as states meet,
    // against the full-memory walk of every lane: at the CLI's exhaustive
    // 6-cell scope, where every class weighs many lanes, and under both
    // uniform backgrounds plus the checkerboard, which splits the classes
    // unevenly.
    let policy = ExecPolicy::default().with_threads(1);
    let (zero, one) = (InitialState::AllZero, InitialState::AllOne);
    for (cells, strategy, backgrounds) in [
        (
            6,
            PlacementStrategy::Exhaustive,
            vec![zero.clone(), one.clone()],
        ),
        (
            8,
            PlacementStrategy::Representative,
            vec![zero, one, InitialState::Checkerboard],
        ),
    ] {
        let layouts = assert_batch_projection_exact(
            policy,
            &FaultList::list_1(),
            cells,
            strategy,
            backgrounds,
        );
        assert!(
            layouts.lanes_merged,
            "{cells} cells, {strategy:?}: {layouts:?}"
        );
        assert!(
            layouts.merging_compaction,
            "{cells} cells, {strategy:?}: {layouts:?}"
        );
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
    let mut layouts = BatchLayouts::default();
    for policy in policies() {
        for (cells, strategy) in [
            (6, PlacementStrategy::Exhaustive),
            (8, PlacementStrategy::Exhaustive),
            (8, PlacementStrategy::Representative),
        ] {
            let seen = assert_projection_exact(policy, &list, cells, strategy);
            layouts.decoder_and_array |= seen.decoder_and_array;
        }
    }
    assert!(
        layouts.decoder_and_array,
        "no word mixed decoder and array lanes"
    );
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

#[test]
fn cut_short_generations_name_uncovered_lanes_by_their_memory_cells() {
    // Batches simulate on projected cells but keep every lane's original
    // descriptor: a generation stopped after one greedy element reports its
    // uncovered lanes exactly as a full-memory rebuild finds them, with
    // their real addresses and the whole custom background.
    let list = FaultList::list_1();
    let custom = (0..8)
        .map(|address| {
            if address % 3 == 0 {
                Bit::One
            } else {
                Bit::Zero
            }
        })
        .collect();
    let session = Session::default().with_backgrounds(vec![
        InitialState::AllZero,
        InitialState::Checkerboard,
        InitialState::Custom(custom),
    ]);
    let config = GeneratorConfig {
        max_elements: 2,
        ..GeneratorConfig::default()
    };
    let generated = session.generate_with_config(&list, config);
    let test = generated.test();
    assert_eq!(test.elements().len(), 2);

    let backend = session.backend_instance();
    let mut uncovered = Vec::new();
    let mut highest_cell = 0;
    for (target, set) in session.target_lanes(&list).unwrap().iter() {
        let lanes = set.lanes();
        let verdicts = backend.lane_verdicts(test, target, lanes, session.memory_cells());
        for (lane, detected) in lanes.iter().zip(verdicts) {
            if !detected {
                let cells = lane.cells;
                highest_cell = [
                    Some(cells.victim),
                    cells.aggressor_first,
                    cells.aggressor_second,
                ]
                .into_iter()
                .flatten()
                .fold(highest_cell, usize::max);
                uncovered.push(format!("{target} @ {cells} ({:?})", lane.background));
            }
        }
    }
    assert!(!uncovered.is_empty(), "one greedy element covers List #1");
    assert!(
        highest_cell > 2,
        "no uncovered lane beyond the projected ranks"
    );
    assert_eq!(generated.report().uncovered(), &uncovered[..]);
}
