//! Cross-backend differential test support: one generic harness asserting the
//! whole pipeline — coverage, generation, minimisation, verification — is
//! **byte-identical** across two execution policies (any combination of
//! backend and thread count).
//!
//! This module replaces the three near-duplicate equivalence suites that used
//! to live in `sram_sim` and `march_gen` (`session_equivalence` ×2 and
//! `minimise_equivalence`): every "policy A and policy B must agree" property
//! now funnels through [`assert_pipeline_equivalent`], so new pipeline stages
//! (and new fault domains, like the address-decoder classes) get differential
//! coverage by being added here once.
//!
//! Coverage simulates projected lane classes rather than every lane on the
//! full memory, and the session's target batches simulate one weighted
//! representative per class on its projected cells, the classes of many
//! targets sharing one word and merging as their states meet.
//! [`assert_projection_exact`]
//! holds both to the full-memory walk: coverage to a rebuild with the
//! backend's own `first_undetected`, a batch over the whole list to the
//! packed engine advanced target by target, element by element, on the
//! whole memory.
//! [`assert_coverage_projection_exact`] checks coverage alone, for scopes
//! where walking every batch on the full memory is too slow.
//!
//! The harness is compiled into the façade crate (not behind `cfg(test)`) so
//! the workspace-level integration tests and any downstream consumer can use
//! it; it is `#[doc(hidden)]`-free because "how do I check a new backend is
//! correct" is a legitimate user question.

use std::sync::Arc;

use march_gen::{minimise_full_resim, SessionExt};
use march_test::{catalog, MarchElement, MarchTest};
use sram_fault_model::{Bit, FaultList};
use sram_sim::{
    BackendKind, CoverageLane, ExecPolicy, InitialState, PlacementStrategy, Session, TargetKind,
};

/// The catalogue probe tests every equivalence run measures coverage under:
/// two strong tests (complete over most lists), one weak one (plenty of
/// escapes, so escape ordering is exercised) and one mid-strength classic.
fn probe_tests() -> Vec<MarchTest> {
    vec![
        catalog::march_ss(),
        catalog::march_sl(),
        catalog::mats_plus(),
        catalog::march_c_minus(),
    ]
}

/// The minimisation inputs, spanning the interesting shapes the removal pass
/// branches on: a padded near-minimal test (a few accepted removals), a
/// heavily redundant catalogue test (many accepted removals and long suffix
/// replays), and a weak test that is incomplete over most lists (the pass
/// must bail out untouched through the completeness precheck).
fn minimisation_probes() -> Vec<MarchTest> {
    vec![
        MarchTest::parse(
            "padded ABL1",
            "⇕(w0); ⇕(w0,r0,r0,w1); ⇕(w1,r1,r1,w0); ⇕(r0,r0)",
        )
        .expect("valid notation"),
        catalog::march_sl(),
        catalog::mats_plus(),
    ]
}

/// A session over `policy` scoped to `cells` with the paper's thorough
/// backgrounds and the given placement strategy.
fn session(policy: ExecPolicy, cells: usize, strategy: PlacementStrategy) -> Session {
    Session::new(policy)
        .with_memory_cells(cells)
        .with_strategy(strategy)
        .with_backgrounds(vec![InitialState::AllZero, InitialState::AllOne])
}

/// Asserts the **whole pipeline is byte-identical** under `policy_a` and
/// `policy_b` for `fault_list` on a `cells`-cell memory:
///
/// * `Session::coverage` / `Session::verify` reports are `==` (counts,
///   per-topology break-down *and* the stable-sorted escape list) for every
///   probe test, under representative placements — and under exhaustive
///   placements too when `cells ≤ 8`;
/// * `Session::generate` produces the same march-test notation, greedy
///   iteration count and completeness verdict;
/// * `Session::minimise` produces the same minimised notation and removal
///   count, and both agree with the legacy full re-simulation oracle
///   ([`march_gen::minimise_full_resim`]) evaluated under `policy_a`.
///
/// Works for any fault-list contents — FFM-only, address-decoder-only, or
/// mixed — which is exactly how the workspace equivalence tests drive it.
///
/// # Panics
///
/// Panics (with a policy-labelled message) on the first divergence, or if
/// `cells` cannot host the list's placements.
pub fn assert_pipeline_equivalent(
    policy_a: ExecPolicy,
    policy_b: ExecPolicy,
    fault_list: &FaultList,
    cells: usize,
) {
    let label = |what: &str| {
        format!(
            "{what} diverged: {policy_a:?} vs {policy_b:?} ({cells} cells, {})",
            fault_list.name()
        )
    };

    // Coverage and verification, representative scope (+ exhaustive on small
    // memories, where all-pairs placement enumeration stays tractable).
    let mut strategies = vec![PlacementStrategy::Representative];
    if cells <= 8 {
        strategies.push(PlacementStrategy::Exhaustive);
    }
    for strategy in strategies {
        let session_a = session(policy_a, cells, strategy);
        let session_b = session(policy_b, cells, strategy);
        for test in probe_tests() {
            let report_a = session_a
                .try_coverage(&test, fault_list)
                .expect("harness scope hosts the fault-list placements");
            let report_b = session_b
                .try_coverage(&test, fault_list)
                .expect("harness scope hosts the fault-list placements");
            assert_eq!(
                report_a,
                report_b,
                "{} [{} under {:?}]",
                label("coverage"),
                test.name(),
                strategy
            );
            // `verify` is defined as coverage; pin that contract too.
            assert_eq!(
                session_a.verify(&test, fault_list),
                report_a,
                "{} [{}]",
                label("verify"),
                test.name()
            );
        }
    }

    let session_a = session(policy_a, cells, PlacementStrategy::Representative);
    let session_b = session(policy_b, cells, PlacementStrategy::Representative);

    // Generation: the greedy search must make identical choices.
    let generated_a = session_a.generate(fault_list);
    let generated_b = session_b.generate(fault_list);
    assert_eq!(
        generated_a.test().notation(),
        generated_b.test().notation(),
        "{}",
        label("generated test")
    );
    assert_eq!(
        generated_a.report().iterations(),
        generated_b.report().iterations(),
        "{}",
        label("greedy iteration count")
    );
    assert_eq!(
        generated_a.report().is_complete(),
        generated_b.report().is_complete(),
        "{}",
        label("generation completeness")
    );

    // Minimisation: policy-invariant for every probe shape (accepted
    // removals, heavy redundancy, incomplete-input bail-out), and equal to
    // the full re-simulation oracle (every trial re-verified from scratch)
    // under policy_a.
    for probe in minimisation_probes() {
        let minimised_a = session_a.minimise(&probe, fault_list);
        let minimised_b = session_b.minimise(&probe, fault_list);
        assert_eq!(
            minimised_a.test().notation(),
            minimised_b.test().notation(),
            "{} [{}]",
            label("minimised test"),
            probe.name()
        );
        assert_eq!(
            minimised_a.removed_operations(),
            minimised_b.removed_operations(),
            "{} [{}]",
            label("removal count"),
            probe.name()
        );
        let (oracle_test, oracle_removed) = minimise_full_resim(&session_a, &probe, fault_list);
        assert_eq!(
            minimised_a.test().notation(),
            oracle_test.notation(),
            "{} [{}]",
            label("suffix-only vs full-resim minimisation"),
            probe.name()
        );
        assert_eq!(
            minimised_a.removed_operations(),
            oracle_removed,
            "{} [{}]",
            label("oracle removal count"),
            probe.name()
        );
    }
}

/// Asserts a **full-space Monte-Carlo campaign is verdict-identical to
/// exhaustive enumeration** under `policy`: a campaign whose draw budget
/// covers the whole `(target, placement, background)` space degenerates to
/// sampling without replacement in lane order, so
///
/// * it must report exactly as many detected lanes as enumeration covers,
/// * the set of escaping targets must match the exhaustive escape list, and
/// * the **first** traced escape of each target must equal the exhaustive
///   report's escape for that target (same placement, same background) —
///   the strongest obtainable statement, since enumeration records only the
///   first failing lane per target.
///
/// Every probe test of the differential harness is swept, so complete and
/// incomplete (escape-carrying) verdicts are both exercised.
///
/// # Panics
///
/// Panics on the first divergence, or if `cells` cannot host the list's
/// placements.
pub fn assert_campaign_matches_exhaustive(
    policy: ExecPolicy,
    fault_list: &FaultList,
    cells: usize,
) {
    use sram_sim::{CampaignConfig, Escape, MAX_CAMPAIGN_DRAWS};
    use std::collections::BTreeMap;

    // The campaign always samples the exhaustive space; give the session the
    // matching strategy so `try_coverage` enumerates the identical lanes.
    let session = session(policy, cells, PlacementStrategy::Exhaustive);
    let config = CampaignConfig::default()
        .with_draws(MAX_CAMPAIGN_DRAWS)
        .with_max_escapes(usize::MAX);
    for test in probe_tests() {
        let exhaustive = session
            .try_coverage(&test, fault_list)
            .expect("harness scope hosts the fault-list placements");
        let campaign = session
            .try_campaign(&test, fault_list, &config)
            .expect("harness scope hosts the fault-list placements");
        let label = |what: &str| {
            format!(
                "{what} diverged: campaign vs exhaustive ({policy:?}, {cells} cells, {}, {})",
                fault_list.name(),
                test.name()
            )
        };
        assert!(
            campaign.without_replacement(),
            "{}",
            label("a full-space budget must sample without replacement")
        );
        assert_eq!(
            campaign.draws(),
            campaign.space(),
            "{}",
            label("draw count")
        );
        // Per-target first escapes, in draw order (= lane order here).
        let mut first_escapes: BTreeMap<String, &Escape> = BTreeMap::new();
        for traced in campaign.trace() {
            first_escapes
                .entry(traced.escape.target.to_string())
                .or_insert(&traced.escape);
        }
        assert_eq!(
            first_escapes.len(),
            exhaustive.total() - exhaustive.covered(),
            "{}",
            label("escaping-target count")
        );
        for escape in exhaustive.escapes() {
            let traced = first_escapes
                .get(&escape.target.to_string())
                .unwrap_or_else(|| panic!("{} [{}]", label("missing escape"), escape.target));
            assert_eq!(*traced, escape, "{}", label("first escape per target"));
        }
    }
}

/// The data backgrounds the projection differential sweeps on a `cells`-cell
/// memory. Under a uniform background every involved cell starts from the
/// same bit, so only the checkerboard and the irregular image catch a
/// lane-class key that drops the background bits.
fn projection_backgrounds(cells: usize) -> Vec<InitialState> {
    let irregular = (0..cells)
        .map(|address| {
            if (address * 7 + 3) % 5 < 2 {
                Bit::One
            } else {
                Bit::Zero
            }
        })
        .collect();
    vec![
        InitialState::AllZero,
        InitialState::AllOne,
        InitialState::Checkerboard,
        InitialState::Custom(irregular),
    ]
}

/// The session a projection differential runs on: `cells` cells, `strategy`
/// placements and the four [`projection_backgrounds`].
fn projection_session(policy: ExecPolicy, cells: usize, strategy: PlacementStrategy) -> Session {
    Session::new(policy)
        .with_memory_cells(cells)
        .with_strategy(strategy)
        .with_backgrounds(projection_backgrounds(cells))
}

/// The probe tests of the projection differentials: the equivalence probes
/// plus MATS, the weakest test of the catalogue.
fn projection_probes() -> Vec<MarchTest> {
    let mut probes = probe_tests();
    probes.push(catalog::mats());
    probes
}

/// The word layouts a packed batch sweep went through: the cases only words
/// shared by several targets produce. Each flag records that some batch of
/// the sweep hit it, so a suite can assert that its differential was not
/// vacuous.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct BatchLayouts {
    /// A word held lanes of two or more targets with different projected
    /// cell counts.
    pub mixed_cell_counts: bool,
    /// A word held both address-decoder and cell-array lanes.
    pub decoder_and_array: bool,
    /// An advance re-packed the pending lanes of two or more words into one.
    pub merging_compaction: bool,
    /// A batch's last word was partial.
    pub partial_last_word: bool,
    /// An advance merged pending lanes of equal state into one weighted
    /// lane.
    pub lanes_merged: bool,
    /// An advance re-packed a pending lane into another 64-lane limb of
    /// its word than the one it sat in.
    pub limb_crossing_repack: bool,
}

impl BatchLayouts {
    fn merge(&mut self, other: BatchLayouts) {
        self.mixed_cell_counts |= other.mixed_cell_counts;
        self.decoder_and_array |= other.decoder_and_array;
        self.merging_compaction |= other.merging_compaction;
        self.partial_last_word |= other.partial_last_word;
        self.lanes_merged |= other.lanes_merged;
        self.limb_crossing_repack |= other.limb_crossing_repack;
    }
}

/// Asserts **projected simulation equals the full-memory walk** under
/// `policy`, for coverage and for the generator's target batch.
///
/// * **Coverage**, as [`assert_coverage_projection_exact`] checks it.
/// * **Batches.** For every probe test, one `TargetBatch` over every target
///   of the list, as the generator takes it from the session
///   (`Session::target_batch`: on the packed backend, weighted class
///   representatives that merge as their states meet), advances element by
///   element next to the packed engine walking every lane of every target
///   on the whole memory. At every prefix the batch's pending lanes — in
///   (target, lane) order, with their original cells and backgrounds — must
///   equal the lanes the walks leave undetected, its pending count their
///   number, and its pool scores must equal, per candidate, the lanes the
///   walks newly detect running that candidate next, summed over the
///   targets. The pool mixes every address order with one to four
///   operations.
///
/// The walk costs every lane a full-memory pass per prefix and candidate,
/// so large scopes check coverage alone. Returns the word layouts the
/// packed batches went through (none on the scalar backend).
///
/// # Panics
///
/// Panics on the first divergence, if `cells` cannot host the list's
/// placements, or if no probe test escaped.
pub fn assert_projection_exact(
    policy: ExecPolicy,
    fault_list: &FaultList,
    cells: usize,
    strategy: PlacementStrategy,
) -> BatchLayouts {
    assert_coverage_projection_exact(policy, fault_list, cells, strategy);
    let session = projection_session(policy, cells, strategy);
    let target_lanes = session
        .target_lanes(fault_list)
        .expect("harness scope hosts the fault-list placements");
    let mut layouts = BatchLayouts::default();
    for test in projection_probes() {
        layouts.merge(assert_batch_exact(
            &session,
            fault_list,
            &test,
            &target_lanes,
        ));
    }
    layouts
}

/// Holds the session's target batch over `fault_list` — `cells` cells,
/// `strategy` placements, `backgrounds` — to the full-memory walk at every
/// prefix of every projection probe, as [`assert_projection_exact`] does for
/// its four backgrounds, and returns the word layouts the batches went
/// through.
///
/// # Panics
///
/// Panics on the first divergence, or if `cells` cannot host the list's
/// placements.
pub fn assert_batch_projection_exact(
    policy: ExecPolicy,
    fault_list: &FaultList,
    cells: usize,
    strategy: PlacementStrategy,
    backgrounds: Vec<InitialState>,
) -> BatchLayouts {
    let session = Session::new(policy)
        .with_memory_cells(cells)
        .with_strategy(strategy)
        .with_backgrounds(backgrounds);
    let target_lanes = session
        .target_lanes(fault_list)
        .expect("harness scope hosts the fault-list placements");
    let mut layouts = BatchLayouts::default();
    for test in projection_probes() {
        layouts.merge(assert_batch_exact(
            &session,
            fault_list,
            &test,
            &target_lanes,
        ));
    }
    layouts
}

/// Asserts **projected coverage equals the full-memory walk** under
/// `policy`: for every probe test, the report of `Session::try_coverage` —
/// which simulates one representative per lane class on at most three cells
/// — must equal a rebuild in which the session's own backend runs its
/// full-memory `first_undetected` over every lane of `Session::target_lanes`.
/// Covered count, total, per-topology counts and the sorted escape list
/// (target, cells and background of each target's first escaping lane) must
/// all match.
///
/// The session scopes `cells` cells, `strategy` placements and four
/// backgrounds: both uniform ones, the checkerboard and an irregular custom
/// image. The probes include incomplete tests (MATS, MATS+, March C-), and
/// the sweep fails unless at least one escape was compared, so the equality
/// is never vacuous.
///
/// # Panics
///
/// Panics on the first divergence, if `cells` cannot host the list's
/// placements, or if no probe test escaped.
pub fn assert_coverage_projection_exact(
    policy: ExecPolicy,
    fault_list: &FaultList,
    cells: usize,
    strategy: PlacementStrategy,
) {
    use sram_fault_model::LinkTopology;
    use sram_sim::Escape;
    use std::collections::BTreeMap;

    let session = projection_session(policy, cells, strategy);
    let backend = session.backend_instance();
    let target_lanes = session
        .target_lanes(fault_list)
        .expect("harness scope hosts the fault-list placements");
    let mut compared_escapes = 0;
    for test in projection_probes() {
        let label = |what: &str| {
            format!(
                "{what} diverged: projected vs full-memory walk ({policy:?}, {cells} cells, \
                 {strategy:?}, {}, {})",
                fault_list.name(),
                test.name()
            )
        };
        let projected = session
            .try_coverage(&test, fault_list)
            .expect("harness scope hosts the fault-list placements");

        // The rebuild fans the targets out over the session's pool, like
        // coverage itself, but walks every lane on the full memory.
        let full_walk = {
            let backend = Arc::clone(&backend);
            let test = test.clone();
            session.execute(Arc::clone(&target_lanes), move |(target, set)| {
                let lanes = set.lanes();
                backend
                    .first_undetected(&test, target, lanes, cells)
                    .map(|index| Escape {
                        target: target.clone(),
                        cells: lanes[index].cells,
                        background: lanes[index].background.clone(),
                    })
            })
        };
        let mut covered = 0;
        let mut by_topology: BTreeMap<LinkTopology, (usize, usize)> = BTreeMap::new();
        let mut escapes = Vec::new();
        for ((target, _), escape) in target_lanes.iter().zip(full_walk) {
            if let TargetKind::Linked(fault) = target {
                let counts = by_topology.entry(fault.topology()).or_insert((0, 0));
                counts.1 += 1;
                if escape.is_none() {
                    counts.0 += 1;
                }
            }
            match escape {
                None => covered += 1,
                Some(escape) => escapes.push(escape),
            }
        }
        escapes.sort_by_cached_key(Escape::sort_key);

        assert_eq!(projected.total(), target_lanes.len(), "{}", label("total"));
        assert_eq!(projected.covered(), covered, "{}", label("covered count"));
        assert_eq!(
            projected.by_topology(),
            &by_topology,
            "{}",
            label("per-topology counts")
        );
        assert_eq!(projected.escapes(), &escapes[..], "{}", label("escapes"));
        compared_escapes += escapes.len();
    }
    assert!(
        compared_escapes > 0,
        "no probe test escaped on {} ({cells} cells): the comparison proved nothing",
        fault_list.name()
    );
}

/// The candidates batches are scored with: every address order, one to four
/// operations, 20 operations in all.
fn scoring_candidates() -> Vec<MarchElement> {
    MarchTest::parse(
        "scoring candidates",
        "⇑(r0); ⇓(r1); ⇕(w1,r1); ⇑(r0,w1); ⇓(r1,w0,r0); ⇕(r0,r0,w1); ⇑(r1,w0,r0,w0); \
         ⇓(r0,w1,r1,w1)",
    )
    .expect("valid notation")
    .elements()
    .to_vec()
}

/// Holds one `TargetBatch` over every target of `target_lanes` to the
/// full-memory walk — the packed engine over every lane of each target on
/// the whole memory — while both advance element by element through `test`.
///
/// The batch is the session's (`Session::target_batch`), so on the packed
/// backend its lanes are class representatives weighted by their lane
/// counts, merged as their states meet. At every prefix the batch's
/// pending lanes must equal the lanes the walks leave undetected,
/// concatenated in (target, lane) order with their original cells and
/// backgrounds, its pending count must equal their number, and its scores
/// over [`scoring_candidates`] must equal, per candidate, the lanes the
/// walks newly detect running that candidate next, summed over the targets.
/// Returns the word layouts the batch went through on the packed backend.
fn assert_batch_exact(
    session: &Session,
    fault_list: &FaultList,
    test: &MarchTest,
    target_lanes: &Arc<sram_sim::TargetLanes>,
) -> BatchLayouts {
    use sram_sim::PackedSimulator;

    const WORD: usize = PackedSimulator::<u64>::MAX_LANES;
    let (policy, cells) = (session.policy(), session.memory_cells());
    let candidates = scoring_candidates();
    let mut batch = session
        .target_batch(fault_list)
        .expect("harness scope hosts the fault-list placements");
    let mut walks: Vec<Vec<PackedSimulator>> = target_lanes
        .iter()
        .map(|(target, lanes)| {
            lanes
                .lanes()
                .chunks(WORD)
                .map(|chunk| {
                    PackedSimulator::new(target, chunk, cells)
                        .expect("harness lanes fit the memory")
                })
                .collect()
        })
        .collect();
    let mut layouts = BatchLayouts::default();
    let packed = policy.backend == BackendKind::Packed;
    if packed {
        layouts.merge(word_layouts(&batch));
        // A word is partial when fewer of its lanes than it carries hold a
        // pending lane: a weighted lane counts many pending lanes at once.
        layouts.partial_last_word = batch.split_words().last().is_some_and(|word| {
            let mut slots = word.pending_slots();
            slots.sort_unstable();
            slots.dedup();
            slots.len() < <sram_sim::W256 as sram_sim::LaneWord>::BITS
        });
    }
    for prefix in 0..=test.elements().len() {
        let label = |what: &str| {
            format!(
                "{what} diverged from the full-memory walk ({policy:?}, {cells} cells, \
                 {:?}, first {prefix} elements of {})",
                session.strategy(),
                test.name()
            )
        };
        let pending: Vec<(&TargetKind, &CoverageLane)> = target_lanes
            .iter()
            .zip(&walks)
            .flat_map(|((target, lanes), walk)| {
                lanes
                    .lanes()
                    .iter()
                    .enumerate()
                    .filter(|(lane, _)| walk[lane / WORD].detected_mask() >> (lane % WORD) & 1 == 0)
                    .map(move |(_, lane)| (target, lane))
            })
            .collect();
        assert_eq!(
            batch.pending_lanes(),
            pending,
            "{}",
            label("batch pending lanes")
        );
        assert_eq!(
            batch.pending(),
            pending.len(),
            "{}",
            label("batch pending count")
        );
        if pending.is_empty() {
            break;
        }

        // Per candidate, the lanes of every walk chunk it newly detects.
        let scores: Vec<usize> = candidates
            .iter()
            .map(|candidate| {
                walks
                    .iter()
                    .flatten()
                    .filter(|simulator| !simulator.all_detected())
                    .map(|simulator| {
                        let mut trial = simulator.clone();
                        trial.apply_element(candidate);
                        (trial.detected_mask() & !simulator.detected_mask()).count_ones() as usize
                    })
                    .sum()
            })
            .collect();
        assert_eq!(
            batch.score_pool(&candidates),
            scores,
            "{}",
            label("batch pool scores")
        );

        let Some(element) = test.elements().get(prefix) else {
            break;
        };
        let before = packed.then(|| (batch.split_words(), lane_limbs(&batch)));
        let merged = batch.merged_lanes();
        batch.advance(element);
        layouts.lanes_merged |= batch.merged_lanes() > merged;
        if let Some((before, limbs)) = before {
            layouts.merging_compaction |= merges_words(&before, &batch);
            layouts.limb_crossing_repack |= lane_limbs(&batch)
                .iter()
                .any(|(lane, limb)| limbs.get(lane).is_some_and(|was| was != limb));
            layouts.merge(word_layouts(&batch));
        }
        for simulator in walks.iter_mut().flatten() {
            simulator.apply_element(element);
        }
    }
    layouts
}

/// The layouts of `batch`'s words: whether one holds pending lanes of two
/// or more targets with different projected cell counts, and whether one
/// holds both decoder and cell-array lanes.
fn word_layouts(batch: &sram_sim::TargetBatch) -> BatchLayouts {
    let mut layouts = BatchLayouts::default();
    for word in batch.split_words() {
        let lanes = word.pending_lanes();
        let differ = |key: &dyn Fn(&(&TargetKind, &CoverageLane)) -> usize| {
            lanes.windows(2).any(|pair| key(&pair[0]) != key(&pair[1]))
        };
        let several_targets = lanes
            .windows(2)
            .any(|pair| !std::ptr::eq(pair[0].0, pair[1].0));
        layouts.mixed_cell_counts |= several_targets && differ(&|(_, lane)| involved_cells(lane));
        layouts.decoder_and_array |=
            differ(&|(target, _)| usize::from(matches!(target, TargetKind::Decoder(_))));
    }
    layouts
}

/// The number of distinct cells `lane` involves: the size of its projected
/// memory.
fn involved_cells(lane: &CoverageLane) -> usize {
    let mut cells: Vec<usize> = [
        Some(lane.cells.victim),
        lane.cells.aggressor_first,
        lane.cells.aggressor_second,
    ]
    .into_iter()
    .flatten()
    .collect();
    cells.sort_unstable();
    cells.dedup();
    cells.len()
}

/// The limb of its word — which 64 of its 256 lanes — that simulates each
/// pending lane of `batch`, keyed by the lane's target and descriptor.
fn lane_limbs(
    batch: &sram_sim::TargetBatch,
) -> std::collections::HashMap<(*const TargetKind, *const CoverageLane), usize> {
    let words = batch.split_words();
    words
        .iter()
        .flat_map(|word| {
            word.pending_lanes()
                .into_iter()
                .zip(word.pending_slots())
                .map(|((target, lane), slot)| {
                    (
                        (std::ptr::from_ref(target), std::ptr::from_ref(lane)),
                        slot / 64,
                    )
                })
                .collect::<Vec<_>>()
        })
        .collect()
}

/// Whether some word of `after` holds pending lanes that sat in two or more
/// words of `before` — a compaction that merged words. Lanes are keyed by
/// their target and descriptor, as in [`lane_limbs`]: every target of one
/// placement shape shares its lane set's descriptors.
fn merges_words(before: &[sram_sim::TargetBatch], after: &sram_sim::TargetBatch) -> bool {
    type LaneKey = (*const TargetKind, *const CoverageLane);
    let key = |(target, lane): (&TargetKind, &CoverageLane)| -> LaneKey {
        (std::ptr::from_ref(target), std::ptr::from_ref(lane))
    };
    let word_of: std::collections::HashMap<LaneKey, usize> = before
        .iter()
        .enumerate()
        .flat_map(|(index, word)| {
            word.pending_lanes()
                .into_iter()
                .map(move |lane| (key(lane), index))
        })
        .collect();
    after.split_words().iter().any(|word| {
        let sources: Vec<usize> = word
            .pending_lanes()
            .into_iter()
            .map(|lane| word_of[&key(lane)])
            .collect();
        sources.windows(2).any(|pair| pair[0] != pair[1])
    })
}

/// The serial scalar reference policy every equivalence sweep anchors to: the
/// original dual-memory engine, one lane and one thread at a time.
#[must_use]
pub fn reference_policy() -> ExecPolicy {
    ExecPolicy::default()
        .with_backend(BackendKind::Scalar)
        .with_threads(1)
}

/// Asserts crash-safe snapshot persistence is **observationally
/// transparent**: the same pipeline queries (coverage plus dictionary-backed
/// diagnosis) answered by
///
/// 1. a cold engine with no snapshot layer at all,
/// 2. an engine *writing* snapshots to a fresh in-memory device, and
/// 3. a post-"restart" engine *replaying* those snapshots from the same
///    device into an empty artifact store
///
/// produce byte-identical report JSON — and the replaying engine really did
/// answer from the snapshot layer (at least one hit, nothing quarantined).
///
/// # Panics
///
/// Panics on the first report divergence, if `cells` cannot host the list's
/// placements, or if the replay engine never touched the snapshot layer.
pub fn assert_snapshot_transparent(policy: ExecPolicy, fault_list: &FaultList, cells: usize) {
    use sram_fault_model::Ffm;
    use sram_sim::{ArtifactStore, InjectedFault, MemIo, Report, SharedEngine, SnapshotStore};

    let test = catalog::march_ss();
    let primitive = Ffm::all_fault_primitives()
        .into_iter()
        .find(|fp| !fp.is_coupling())
        .expect("the FFM space has single-cell primitives");
    let injected = InjectedFault::single_cell(primitive, cells - 1, cells)
        .expect("the victim address is in scope");

    let transcript = |engine: &Arc<SharedEngine>| -> Vec<String> {
        let session = engine.session().with_memory_cells(cells);
        let coverage = session
            .try_coverage(&test, fault_list)
            .expect("harness scope hosts the fault-list placements")
            .to_json();
        let syndrome = session
            .observe(&test, &injected)
            .expect("harness scope hosts the injected fault");
        let dictionary = session.dictionary(&test, fault_list);
        let diagnosis = session.diagnose(&syndrome, &dictionary).to_json();
        vec![coverage, diagnosis]
    };

    let cold = transcript(&SharedEngine::new(policy));

    let device: Arc<MemIo> = Arc::new(MemIo::new());
    let writer_store = Arc::new(ArtifactStore::new());
    writer_store.attach_snapshots(SnapshotStore::with_io(device.clone(), "snaps"));
    let written = transcript(&SharedEngine::with_store(policy, writer_store));

    // "Restart": an empty artifact store over the same snapshot device.
    let replay_snapshots = SnapshotStore::with_io(device, "snaps");
    let replay_store = Arc::new(ArtifactStore::new());
    replay_store.attach_snapshots(Arc::clone(&replay_snapshots));
    let replayed = transcript(&SharedEngine::with_store(policy, replay_store));

    assert_eq!(
        cold,
        written,
        "writing snapshots changed a report ({policy:?}, {cells} cells, {})",
        fault_list.name()
    );
    assert_eq!(
        cold,
        replayed,
        "replaying snapshots changed a report ({policy:?}, {cells} cells, {})",
        fault_list.name()
    );
    let stats = replay_snapshots.stats();
    assert!(
        stats.hits >= 1,
        "the replay engine never answered from the snapshot layer: {stats:?}"
    );
    assert_eq!(stats.quarantined, 0, "a pristine snapshot was quarantined");
}
