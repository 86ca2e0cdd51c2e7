//! Large-memory smoke tests: 1024-cell coverage and diagnosis through the
//! packed + threaded path — the first workload family where per-candidate
//! scalar simulation is genuinely infeasible — a 2^20-cell campaign, the
//! projected-vs-full-memory coverage differential at 4096 (AF) and 16
//! (List #1) cells, the batch differential on exhaustive 8-cell List #1,
//! exhaustive coverage at 4096 and 2^20 cells against the 16-cell reports,
//! the Table 1 generations at 4096 cells, and exhaustive List #1 generation
//! at 16 cells on weighted classes.
//!
//! `#[ignore]`d by default (they are release-grade workloads); the release CI
//! job runs them with `cargo test --release -- --ignored` under a wall-clock
//! budget, and each test additionally asserts its own in-process budget so a
//! performance regression fails loudly rather than just slowly.

use std::time::{Duration, Instant};

use march_codex_repro::testkit::{assert_coverage_projection_exact, assert_projection_exact};
use march_gen::{GeneratorConfig, SessionExt};
use march_test::{catalog, MarchTest};
use sram_fault_model::{DecoderFault, FaultList};
use sram_sim::{
    CampaignConfig, DecoderFaultInstance, ExecPolicy, FaultSimulator, InitialState, InstanceCells,
    PlacementStrategy, Report, Session, Syndrome, TargetKind,
};

/// Per-test wall-clock budget. Coverage, campaigns and generation simulate
/// projected lanes, so every test here finishes in a few seconds or less in
/// release; a fall-back onto the full-memory plane walk (a 2^20-cell,
/// 100k-draw campaign took about 26 s that way) or onto an `O(cells²)` path
/// fails the suite instead of merely slowing it.
const BUDGET: Duration = Duration::from_secs(15);

// The debug-sized differential of `projection_equivalence.rs` at the memory
// sizes the benchmark measures: every probe test's projected report must
// equal the backend's full-memory walk over every lane. At these sizes the
// full-memory batch walk would blow the budget, so they check coverage; the
// batches get the exhaustive 8-cell List #1 leg below.

#[test]
#[ignore = "release-grade differential at 4096 cells; run with --ignored"]
fn projection_matches_the_full_memory_walk_on_4096_cell_af() {
    let start = Instant::now();
    assert_coverage_projection_exact(
        ExecPolicy::fast(),
        &FaultList::address_decoder(),
        4096,
        PlacementStrategy::Exhaustive,
    );
    assert!(
        start.elapsed() < BUDGET,
        "4096-cell AF projection differential blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade differential at 16 cells; run with --ignored"]
fn projection_matches_the_full_memory_walk_on_16_cell_list_1() {
    let start = Instant::now();
    assert_coverage_projection_exact(
        ExecPolicy::fast(),
        &FaultList::list_1(),
        16,
        PlacementStrategy::Exhaustive,
    );
    assert!(
        start.elapsed() < BUDGET,
        "16-cell List #1 projection differential blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade batch differential; run with --ignored"]
fn target_batches_match_the_full_memory_walk_on_8_cell_list_1() {
    // All 844 targets, every placement and four backgrounds: each batch's
    // pending lanes and pool scores at every prefix of every probe test.
    let start = Instant::now();
    assert_projection_exact(
        ExecPolicy::fast(),
        &FaultList::list_1(),
        8,
        PlacementStrategy::Exhaustive,
    );
    assert!(
        start.elapsed() < BUDGET,
        "8-cell List #1 batch differential blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade exhaustive coverage at 4096 and 2^20 cells; run with --ignored"]
fn exhaustive_coverage_reports_are_memory_size_invariant() {
    // A lane set derives its classes from its shape and scope without
    // listing its lanes, so exhaustive coverage costs the same at any memory
    // size: List #1's triple set alone is 1.37·10^11 lanes at 4096 cells,
    // AF's pair set 41.9M lanes at 2^20. The first lane of every class sits
    // on the lowest addresses, so each report equals the 16-cell one.
    let start = Instant::now();
    let uniform = vec![InitialState::AllZero, InitialState::AllOne];
    let patterned = vec![
        InitialState::AllZero,
        InitialState::AllOne,
        InitialState::Checkerboard,
    ];
    let tests = [
        catalog::mats_plus(),
        catalog::march_c_minus(),
        catalog::march_ss(),
    ];
    for (list, cells) in [
        (FaultList::list_1(), 4096),
        (FaultList::address_decoder(), 1 << 20),
        (FaultList::list_1().with_address_decoder_faults(), 4096),
    ] {
        for backgrounds in [&uniform, &patterned] {
            let report = |cells: usize, test: &MarchTest| {
                Session::new(ExecPolicy::fast())
                    .with_memory_cells(cells)
                    .with_strategy(PlacementStrategy::Exhaustive)
                    .with_backgrounds(backgrounds.clone())
                    .try_coverage(test, &list)
                    .expect("the scope hosts every placement")
                    .to_json()
            };
            for test in &tests {
                assert_eq!(
                    report(cells, test),
                    report(16, test),
                    "{} under {} on {cells} cells, {} backgrounds",
                    list.name(),
                    test.name(),
                    backgrounds.len()
                );
            }
        }
    }
    assert!(
        start.elapsed() < BUDGET,
        "exhaustive coverage at 4096 and 2^20 cells blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade generation at 4096 cells; run with --ignored"]
fn table_1_generations_are_memory_size_invariant_at_4096_cells() {
    // Generation and minimisation simulate every lane on the at most three
    // cells it involves, so the Table 1 runs (GABL, GRABL, GABL1) give the
    // 8-cell tests at 4096 cells, in about the 8-cell time.
    let start = Instant::now();
    let (list_1, list_2) = (FaultList::list_1(), FaultList::list_2());
    let table_1 = |session: &Session| {
        [
            session.generate_with_config(&list_1, GeneratorConfig::without_redundancy_removal()),
            session.generate(&list_1),
            session.generate(&list_2),
        ]
        .map(|generated| (generated.test().notation(), generated.test().complexity()))
    };
    let large = table_1(&Session::new(ExecPolicy::fast()).with_memory_cells(4096));
    let small = table_1(&Session::new(ExecPolicy::fast()));
    assert_eq!(large, small);
    assert_eq!(small.map(|(_, complexity)| complexity), [35, 29, 7]);
    assert!(
        start.elapsed() < BUDGET,
        "4096-cell Table 1 generations blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade exhaustive generation at 16 cells; run with --ignored"]
fn exhaustive_list_1_generation_runs_at_class_cost_at_16_cells() {
    // Under exhaustive placements at 16 cells List #1 has 2,836,864 lanes
    // but 6,448 classes: the session's batch holds one weighted
    // representative per class, so the greedy scores as many words as at
    // the representative scope. Its choices may differ from 6 or 8 cells,
    // since exhaustive weights grow with the memory; the test it yields
    // must verify complete at this scope.
    let start = Instant::now();
    let list = FaultList::list_1();
    let session = Session::new(ExecPolicy::fast())
        .with_memory_cells(16)
        .with_strategy(PlacementStrategy::Exhaustive);
    let generated = session.generate(&list);
    let lanes: usize = session
        .target_lanes(&list)
        .unwrap()
        .iter()
        .map(|(_, set)| set.len())
        .sum();
    assert_eq!(lanes, 2_836_864);
    assert_eq!(generated.report().initial_targets(), lanes);
    assert!(
        generated.report().is_complete(),
        "uncovered: {:?}",
        generated.report().uncovered()
    );
    let verified = session.try_coverage(generated.test(), &list).unwrap();
    assert!(verified.is_complete(), "escapes: {:?}", verified.escapes());
    assert!(
        start.elapsed() < BUDGET,
        "16-cell exhaustive List #1 generation blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade 1k-cell workload; run with --ignored"]
fn af_coverage_at_1024_cells_packed_threaded() {
    let start = Instant::now();
    let session = Session::new(ExecPolicy::fast()).with_memory_cells(1024);
    let report = session.coverage(&catalog::march_ss(), &FaultList::address_decoder());
    assert!(report.is_complete(), "escapes: {:?}", report.escapes());
    assert_eq!(report.total(), 5);
    assert!(
        start.elapsed() < BUDGET,
        "1024-cell AF coverage blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade 1k-cell workload; run with --ignored"]
fn mixed_af_ffm_coverage_at_1024_cells() {
    let start = Instant::now();
    let session = Session::new(ExecPolicy::fast()).with_memory_cells(1024);
    let list = FaultList::unlinked_static().with_address_decoder_faults();
    let report = session.coverage(&catalog::march_ss(), &list);
    assert!(report.is_complete(), "escapes: {:?}", report.escapes());
    assert_eq!(report.total(), 53);
    assert!(
        start.elapsed() < BUDGET,
        "1024-cell mixed coverage blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade 1k-cell workload; run with --ignored"]
fn exhaustive_af_coverage_at_1024_cells_is_complete() {
    // Exhaustive decoder placements at 1024 cells put tens of thousands of
    // lanes on every target; March SS must detect every one of them.
    let start = Instant::now();
    let report = Session::new(ExecPolicy::fast())
        .with_memory_cells(1024)
        .with_strategy(PlacementStrategy::Exhaustive)
        .coverage(&catalog::march_ss(), &FaultList::address_decoder());
    assert!(report.is_complete(), "escapes: {:?}", report.escapes());
    assert_eq!(report.total(), 5);
    assert!(
        start.elapsed() < BUDGET,
        "1024-cell exhaustive AF coverage blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade 1M-cell workload; run with --ignored"]
fn af_campaign_at_a_million_cells_stays_in_budget() {
    // The Session-API twin of
    // `coverage --faults af --cells 1048576 --sample 100000 --seed 7`: the
    // exhaustive decoder space at 2^20 cells is far beyond enumeration in a
    // CI leg, but a seeded 100k-draw campaign must finish inside the budget
    // and report a Wilson interval around its estimate.
    let start = Instant::now();
    let session = Session::new(ExecPolicy::fast())
        .with_memory_cells(1 << 20)
        .with_strategy(PlacementStrategy::Exhaustive)
        .with_backgrounds(vec![InitialState::AllZero, InitialState::AllOne]);
    let config = CampaignConfig::default().with_draws(100_000).with_seed(7);
    let report = session
        .try_campaign(&catalog::march_ss(), &FaultList::address_decoder(), &config)
        .expect("the 2^20-cell decoder space hosts the campaign");
    assert_eq!(report.draws(), 100_000);
    assert!(!report.without_replacement(), "the space dwarfs the sample");
    let (low, high) = report.interval();
    assert!(
        (0.0..=report.estimate()).contains(&low) && (report.estimate()..=1.0).contains(&high),
        "the Wilson interval must bracket the estimate: [{low}, {high}]"
    );
    // March SS covers the whole decoder space, so the draws all detect.
    assert_eq!(report.detected(), report.draws());
    assert!(
        start.elapsed() < BUDGET,
        "2^20-cell AF campaign blew the budget: {:?}",
        start.elapsed()
    );
}

#[test]
#[ignore = "release-grade 1k-cell workload; run with --ignored"]
fn af_diagnosis_at_1024_cells_recovers_the_instance() {
    let start = Instant::now();
    let cells = 1024usize;
    // A decoder defect on address line 6: address 700 redirected onto cell
    // 700 ^ 64 = 764.
    let primary = 700usize;
    let partner = primary ^ 64;
    let instance = DecoderFaultInstance::new(
        DecoderFault::NoAddressMaps,
        InstanceCells::pair(partner, primary),
        cells,
    )
    .unwrap();

    let test = catalog::mats_plus();
    let mut device = FaultSimulator::new(cells, &InitialState::AllZero).unwrap();
    device.inject_decoder(instance);
    let syndrome = Syndrome::observe(&test, &mut device);
    assert!(!syndrome.is_empty(), "MATS+ must flag the decoder defect");

    // Sweep the whole decoder fault space (every class × every address-line
    // placement — ~33k instances at 1024 cells) for candidates reproducing
    // the syndrome exactly.
    let session = Session::new(ExecPolicy::fast()).with_memory_cells(cells);
    let report = session.diagnose_sweep(&test, &syndrome, &FaultList::address_decoder());
    assert!(!report.is_unexplained());
    assert!(
        report.candidates().iter().any(|candidate| {
            matches!(
                candidate.target,
                TargetKind::Decoder(DecoderFault::NoAddressMaps)
            ) && candidate.cells.victim == primary
                && candidate.cells.aggressor_first == Some(partner)
        }),
        "the injected instance must be among the candidates: {:?}",
        report.candidates()
    );
    // Localisation: every candidate touches the faulty address pair.
    assert!(report
        .candidates()
        .iter()
        .all(|candidate| candidate.cells.victim == primary
            || candidate.cells.aggressor_first == Some(primary)
            || candidate.cells.victim == partner
            || candidate.cells.aggressor_first == Some(partner)));
    assert!(
        start.elapsed() < BUDGET,
        "1024-cell AF diagnosis blew the budget: {:?}",
        start.elapsed()
    );
}
