//! Monte-Carlo campaign determinism suite.
//!
//! Three contracts, spanning memsim's sampler and the session's sharded
//! execution path:
//!
//! * **Replay**: the same `--seed` yields a byte-identical [`CampaignReport`]
//!   (including its JSON form and escape trace) across backend × thread
//!   count — the campaign analogue of the pipeline-equivalence suite.
//! * **Seed sensitivity**: different seeds draw observably different
//!   sequences; no two nearby seeds alias to the same draw prefix.
//! * **Degeneration**: a draw budget covering the whole space samples
//!   without replacement in lane order and reproduces the exhaustive
//!   enumeration verdict exactly
//!   ([`march_codex_repro::testkit::assert_campaign_matches_exhaustive`]).

use march_codex_repro::testkit::{assert_campaign_matches_exhaustive, reference_policy};
use march_test::catalog;
use sram_fault_model::FaultList;
use sram_sim::{
    sample_draw_indices, BackendKind, CampaignConfig, ExecPolicy, InitialState, Report, Session,
};

/// The decoder-only, cell-array and mixed fault domains.
fn fault_lists() -> Vec<FaultList> {
    vec![
        FaultList::address_decoder(),
        FaultList::list_2(),
        FaultList::list_2().with_address_decoder_faults(),
    ]
}

/// A policy matrix spanning both backends and serial/pooled/auto threads.
fn policy_matrix() -> Vec<ExecPolicy> {
    vec![
        reference_policy(),
        ExecPolicy::default(),
        ExecPolicy::default().with_threads(2),
        ExecPolicy::default().with_threads(0),
        ExecPolicy::default()
            .with_backend(BackendKind::Scalar)
            .with_threads(3),
    ]
}

fn campaign_session(policy: ExecPolicy, cells: usize) -> Session {
    Session::new(policy)
        .with_memory_cells(cells)
        .with_backgrounds(vec![InitialState::AllZero, InitialState::AllOne])
}

#[test]
fn same_seed_reports_are_byte_identical_across_policies() {
    let list = FaultList::list_2().with_address_decoder_faults();
    let test = catalog::march_c_minus();
    let config = CampaignConfig::default().with_draws(2048).with_seed(42);
    let mut reference = None;
    for policy in policy_matrix() {
        let report = campaign_session(policy, 12)
            .try_campaign(&test, &list, &config)
            .expect("campaign scope hosts the placements");
        let json = report.to_json();
        match &reference {
            None => reference = Some((report, json)),
            Some((expected_report, expected_json)) => {
                assert_eq!(
                    &report, expected_report,
                    "campaign report diverged under {policy:?}"
                );
                assert_eq!(
                    &json, expected_json,
                    "campaign JSON diverged under {policy:?}"
                );
            }
        }
    }
}

#[test]
fn different_seeds_produce_distinct_draw_prefixes() {
    // 16 consecutive seeds over a mid-sized space: every pair of draw-index
    // prefixes must differ — the splitmix64-finalised seeding keeps adjacent
    // seeds from aliasing into overlapping streams.
    const SPACE: u64 = 1 << 20;
    const PREFIX: usize = 32;
    let prefixes: Vec<Vec<u64>> = (0..16u64)
        .map(|seed| {
            let draws = sample_draw_indices(seed, SPACE, 256);
            assert!(draws.iter().all(|&index| index < SPACE));
            draws[..PREFIX].to_vec()
        })
        .collect();
    for (a, prefix_a) in prefixes.iter().enumerate() {
        for (b, prefix_b) in prefixes.iter().enumerate().skip(a + 1) {
            assert_ne!(
                prefix_a, prefix_b,
                "seeds {a} and {b} alias to the same draw prefix"
            );
        }
    }
}

#[test]
fn replaying_a_seed_replays_the_escape_trace() {
    // A weak test with plenty of escapes: the bounded trace itself (draw
    // numbers and decoded lanes) must replay exactly, since `--seed` is the
    // documented reproduction recipe for an escape.
    // Note the budget stays below the space size: a budget covering the
    // whole space degenerates to seed-independent lane order by design.
    let list = FaultList::list_2();
    let test = catalog::mats_plus();
    let config = CampaignConfig::default().with_draws(128).with_seed(7);
    let first = campaign_session(ExecPolicy::default(), 8)
        .try_campaign(&test, &list, &config)
        .expect("campaign scope hosts the placements");
    let replay = campaign_session(ExecPolicy::default().with_threads(2), 8)
        .try_campaign(&test, &list, &config)
        .expect("campaign scope hosts the placements");
    assert!(!first.trace().is_empty(), "MATS+ should leak escapes");
    assert_eq!(first.trace(), replay.trace());
    // And a different seed really does draw a different sample.
    let other = campaign_session(ExecPolicy::default(), 8)
        .try_campaign(
            &test,
            &list,
            &CampaignConfig::default().with_draws(128).with_seed(8),
        )
        .expect("campaign scope hosts the placements");
    assert_ne!(first.trace(), other.trace());
}

#[test]
fn full_space_campaigns_match_exhaustive_enumeration() {
    for list in fault_lists() {
        for policy in [
            reference_policy(),
            ExecPolicy::default().with_threads(2),
            ExecPolicy::default().with_threads(0),
        ] {
            assert_campaign_matches_exhaustive(policy, &list, 6);
        }
    }
}
