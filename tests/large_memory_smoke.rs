//! Large-memory smoke tests: 1024-cell coverage and diagnosis through the
//! packed + threaded path — the first workload family where per-candidate
//! scalar simulation is genuinely infeasible — a 2^20-cell campaign, and the
//! projected-vs-full-memory differential at 4096 (AF) and 16 (List #1)
//! cells.
//!
//! `#[ignore]`d by default (they are release-grade workloads); the release CI
//! job runs them with `cargo test --release -- --ignored` under a wall-clock
//! budget, and each test additionally asserts its own in-process budget so a
//! performance regression fails loudly rather than just slowly.

use std::time::{Duration, Instant};

use march_codex_repro::testkit::assert_projection_exact;
use march_test::catalog;
use sram_fault_model::{DecoderFault, FaultList};
use sram_sim::{
    CampaignConfig, DecoderFaultInstance, ExecPolicy, FaultSimulator, InitialState, InstanceCells,
    LaneWidth, PlacementStrategy, Session, Syndrome, TargetKind,
};

/// Per-test wall-clock budget. Coverage and campaigns simulate projected lane
/// classes, so every test here finishes in a few seconds or less in release;
/// a fall-back onto the full-memory plane walk (a 2^20-cell, 100k-draw
/// campaign took about 26 s that way) or onto an `O(cells²)` path fails the
/// suite instead of merely slowing it.
const BUDGET: Duration = Duration::from_secs(15);

// The debug-sized differential of `projection_equivalence.rs` at the memory
// sizes the benchmark measures: every probe test's projected report must
// equal the backend's full-memory walk over every lane.

#[test]
#[ignore = "release-grade differential at 4096 cells; run with --ignored"]
fn projection_matches_the_full_memory_walk_on_4096_cell_af() {
    let start = Instant::now();
    assert_projection_exact(
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
    assert_projection_exact(
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
fn af_coverage_at_1024_cells_is_lane_width_invariant() {
    // Exhaustive decoder placements at 1024 cells put tens of thousands of
    // lanes on every target — the workload the 256-lane words exist for. The
    // wide run must be byte-identical to the one-word-per-64-lanes run.
    let start = Instant::now();
    let list = FaultList::address_decoder();
    let scoped = |width: LaneWidth| {
        Session::new(ExecPolicy::fast().with_lane_width(width))
            .with_memory_cells(1024)
            .with_strategy(PlacementStrategy::Exhaustive)
            .coverage(&catalog::march_ss(), &list)
    };
    let narrow = scoped(LaneWidth::W64);
    let wide = scoped(LaneWidth::W256);
    assert_eq!(narrow, wide, "reports diverged between 64 and 256 lanes");
    assert!(wide.is_complete(), "escapes: {:?}", wide.escapes());
    assert!(
        start.elapsed() < BUDGET,
        "1024-cell width-invariance smoke blew the budget: {:?}",
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
