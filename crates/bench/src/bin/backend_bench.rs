//! The perf-trajectory benchmark with a machine-readable trail: times the
//! full-memory lane sweep of both simulation backends on the coverage-matrix
//! workloads, the generator's
//! candidate-scoring hot path with batched vs per-candidate pools, the
//! redundancy-removal pass with suffix-only snapshots vs full re-simulation,
//! repeated coverage through one resident [`Session`] vs the
//! spawn-per-call legacy path, the wide-word packed engine (128/256
//! lanes per word vs 64) on exhaustive address-decoder sweeps, projected
//! coverage against the full-memory sweep it replaces, **and** the
//! `march-codex serve` loop replaying a fixed NDJSON script against a cold
//! engine per replay vs one resident engine with a warm artifact store, then
//! writes the speedups to
//! `BENCH_simulation.json` (schema version 2, see [`march_bench::BenchFile`])
//! so the simulation stack's perf trajectory is tracked — and diffed by CI
//! via `bench_diff` — across PRs.
//!
//! Run with `cargo run --release -p march-bench --bin backend_bench`.
//! Pass `--out PATH` to change the JSON location and `--threads N` for the
//! thread fan-out (0 = auto; the resolved count is what lands in the JSON).

use std::env;
use std::sync::Arc;
use std::time::{Duration, Instant};

use march_bench::{BenchFile, BenchRecord};
use march_codex_cli::{serve_lines, ServeMetrics, ServeOptions};
use march_gen::{
    exhaustive_candidates, minimise_full_resim, minimise_with, score_candidates, GeneratorConfig,
};
use march_test::{catalog, MarchElement, MarchTest};
use sram_fault_model::{FaultList, FaultListBuilder};
use sram_sim::{
    effective_threads, enumerate_lanes, enumerate_targets, measure_coverage, ArtifactStore,
    BackendKind, CampaignConfig, CoverageConfig, ExecPolicy, InitialState, LaneWidth, MemIo,
    PlacementStrategy, Report, Session, SharedEngine, SnapshotStore, TargetBatch, TargetLanes,
};

/// One coverage workload: a named test × list × configuration whose
/// full-memory lane sweep ([`full_memory_sweep`]) is timed on the scalar and
/// the packed backend.
struct CoverageWorkload {
    name: &'static str,
    test: MarchTest,
    list: FaultList,
    config: CoverageConfig,
}

fn coverage_workloads() -> Vec<CoverageWorkload> {
    let exhaustive8 = CoverageConfig {
        memory_cells: 8,
        strategy: PlacementStrategy::Exhaustive,
        ..CoverageConfig::thorough()
    };
    vec![
        CoverageWorkload {
            name: "march_sl_vs_list_2_exhaustive",
            test: catalog::march_sl(),
            list: FaultList::list_2(),
            config: exhaustive8.clone(),
        },
        CoverageWorkload {
            name: "march_ss_vs_unlinked_exhaustive",
            test: catalog::march_ss(),
            list: FaultList::unlinked_static(),
            config: exhaustive8,
        },
        CoverageWorkload {
            name: "march_sl_vs_list_1_thorough",
            test: catalog::march_sl(),
            list: FaultList::list_1(),
            config: CoverageConfig::thorough(),
        },
        CoverageWorkload {
            name: "march_c_minus_vs_list_1_exhaustive6",
            test: catalog::march_c_minus(),
            list: FaultList::list_1(),
            config: CoverageConfig::exhaustive(),
        },
    ]
}

/// One generation workload: target batches advanced past a march prefix (the
/// generator's mid-run state), scored against a candidate pool — batched
/// full-word pools vs the per-candidate path of PR 1.
struct ScoringWorkload {
    name: &'static str,
    batches: Vec<TargetBatch>,
    pool: Vec<MarchElement>,
}

/// Builds the packed target batches of `list`, advanced by `prefix` so only
/// the hard-to-cover lanes are still pending — the regime in which the
/// generator leans on the exhaustive 4^k repair pool.
fn advanced_batches(list: &FaultList, prefix: &[MarchElement]) -> Vec<TargetBatch> {
    let backgrounds = [InitialState::AllZero, InitialState::AllOne];
    let mut batches: Vec<TargetBatch> = enumerate_targets(list)
        .into_iter()
        .map(|target| {
            let lanes =
                enumerate_lanes(&target, 8, PlacementStrategy::Representative, &backgrounds)
                    .expect("benchmark scope hosts the placements");
            TargetBatch::new(target, lanes, 8, BackendKind::Packed)
        })
        .collect();
    for element in prefix {
        for batch in &mut batches {
            batch.advance(element);
        }
    }
    batches.retain(|batch| batch.pending() > 0);
    batches
}

fn scoring_workloads() -> Vec<ScoringWorkload> {
    // March ABL1's first two elements cover the easy lanes of list #2; the
    // repair pool of length ≤ 4 then hunts the rest.
    let abl1 = catalog::march_abl1();
    let list2_prefix: Vec<MarchElement> = abl1.elements()[..2].to_vec();
    // March SL's first four elements play the same role for list #1: what is
    // left pending is the hard tail the repair search actually sees.
    let sl = catalog::march_sl();
    let list1_prefix: Vec<MarchElement> = sl.elements()[..4].to_vec();
    vec![
        ScoringWorkload {
            name: "repair_pool4_vs_list_2_tail",
            batches: advanced_batches(&FaultList::list_2(), &list2_prefix),
            pool: exhaustive_candidates(4),
        },
        ScoringWorkload {
            name: "repair_pool4_vs_list_1_tail",
            batches: advanced_batches(&FaultList::list_1(), &list1_prefix),
            pool: exhaustive_candidates(4),
        },
    ]
}

/// One pool-reuse workload: the same coverage query repeated through one
/// resident [`Session`] (contender) versus the legacy free-function path that
/// stands a fresh worker pool up per call (baseline). Runs at a fixed thread
/// count so the record is comparable across `--threads` flags; the two sides
/// produce byte-identical reports.
struct SessionWorkload {
    name: &'static str,
    test: MarchTest,
    list: FaultList,
    config: CoverageConfig,
    threads: usize,
}

fn session_workloads() -> Vec<SessionWorkload> {
    let exhaustive8 = CoverageConfig {
        memory_cells: 8,
        strategy: PlacementStrategy::Exhaustive,
        ..CoverageConfig::thorough()
    };
    vec![
        // Small per-call work: the per-call thread spawn is the dominant cost
        // the session pool removes.
        SessionWorkload {
            name: "repeated_coverage_session_list2_t4",
            test: catalog::march_sl(),
            list: FaultList::list_2(),
            config: exhaustive8,
            threads: 4,
        },
        // Larger per-call work: the pool win shrinks but must not vanish.
        SessionWorkload {
            name: "repeated_coverage_session_list1_t4",
            test: catalog::march_sl(),
            list: FaultList::list_1(),
            config: CoverageConfig::thorough(),
            threads: 4,
        },
    ]
}

/// One large-memory address-decoder workload: the full-memory lane sweep of
/// the canonical AF list at 64 / 256 / 1024 cells — serial scalar simulation
/// (baseline) vs the packed backend on a threaded session (contender). At
/// 1024 cells the scalar side replays the whole march test per lane with
/// per-operation dispatch overhead, while the packed side streams each
/// target's lanes through one bit-plane word and fans targets out over the
/// pool: this is the first workload family where the packed + threaded path
/// is the only viable one.
struct AfWorkload {
    name: &'static str,
    cells: usize,
    reps: u32,
}

fn af_workloads() -> Vec<AfWorkload> {
    vec![
        AfWorkload {
            name: "af_coverage_march_ss_64",
            cells: 64,
            reps: 10,
        },
        AfWorkload {
            name: "af_coverage_march_ss_256",
            cells: 256,
            reps: 5,
        },
        AfWorkload {
            name: "af_coverage_march_ss_1024",
            cells: 1024,
            reps: 3,
        },
    ]
}

/// One lane-width workload: the full-memory sweep of the exhaustive
/// address-decoder lanes (the regime where every target carries thousands of
/// lanes — `cells` placements per decoder class × 2 backgrounds × up to 10
/// sensitizing pairs) timed with 64-lane packed words (baseline) against one
/// wide `[u64; N]` width (contender). Same backend, same thread count, same
/// plan: the only difference is how many coverage lanes one sensitization
/// pass carries.
struct LaneWidthWorkload {
    name: &'static str,
    cells: usize,
    width: LaneWidth,
    reps: u32,
}

fn lane_width_workloads() -> Vec<LaneWidthWorkload> {
    vec![
        LaneWidthWorkload {
            name: "af-sl-xh-256c-w128",
            cells: 256,
            width: LaneWidth::W128,
            reps: 5,
        },
        LaneWidthWorkload {
            name: "af-sl-xh-256c-w256",
            cells: 256,
            width: LaneWidth::W256,
            reps: 5,
        },
        LaneWidthWorkload {
            name: "af-sl-xh-1024c-w128",
            cells: 1024,
            width: LaneWidth::W128,
            reps: 7,
        },
        LaneWidthWorkload {
            name: "af-sl-xh-1024c-w256",
            cells: 1024,
            width: LaneWidth::W256,
            reps: 7,
        },
    ]
}

/// One service workload: a fixed NDJSON request script replayed through the
/// `march-codex serve` loop — a cold [`SharedEngine`] stood up per replay
/// (baseline) versus one resident engine whose artifact store and fault
/// dictionaries stay warm across replays (contender). This is the regime the
/// `serve` subcommand exists for: many clients, one process, every repeated
/// (test, list, scope) key answered from the shared store.
struct ServiceWorkload {
    name: &'static str,
    script: &'static str,
    reps: u32,
}

fn service_workloads() -> Vec<ServiceWorkload> {
    // Mixed coverage + diagnosis traffic over two fault lists. The diagnosis
    // pair shares one dictionary key (same test × list × scope), so a cold
    // replay pays one dictionary build and the warm engine answers both from
    // the index; the coverage lines keep re-simulating but reuse the
    // enumerated target lanes.
    const MIXED: &str = concat!(
        r#"{"op": "coverage", "test": "March SL", "list": "2"}"#,
        "\n",
        r#"{"op": "diagnose", "test": "March SS", "fault": "<0w1;0/1/->", "victim": 4, "aggressor": 1, "cells": 6, "list": "unlinked"}"#,
        "\n",
        r#"{"op": "coverage", "test": "March SS", "list": "unlinked"}"#,
        "\n",
        r#"{"op": "diagnose", "test": "March SS", "fault": "<0w1;0/1/->", "victim": 2, "aggressor": 5, "cells": 6, "list": "unlinked"}"#,
        "\n",
    );
    vec![ServiceWorkload {
        name: "serve_mixed_script_cold_vs_resident",
        script: MIXED,
        reps: 5,
    }]
}

/// One snapshot workload: a simulated process restart answering the same
/// lane-enumeration + fault-dictionary build — a cold start rebuilding both
/// artifacts in memory (baseline) versus a start replaying crash-safe
/// snapshots from a pre-warmed device into an empty artifact store
/// (contender). This is the regime `serve --snapshot-dir` exists for: a
/// restarted service re-answering its steady-state keys from disk instead of
/// re-simulating them.
struct SnapshotWorkload {
    name: &'static str,
    test: MarchTest,
    list: FaultList,
    cells: usize,
    reps: u32,
}

fn snapshot_workloads() -> Vec<SnapshotWorkload> {
    vec![
        // The serve steady state: FFM dictionary + lanes over the paper's
        // three-cell list.
        SnapshotWorkload {
            name: "restart_march_ss_list2_snapshot",
            test: catalog::march_ss(),
            list: FaultList::list_2(),
            cells: 8,
            reps: 5,
        },
        // The decoder domain, where lane enumeration is placement-heavy and
        // the snapshot replay skips the most rebuild work.
        SnapshotWorkload {
            name: "restart_march_ss_af64_snapshot",
            test: catalog::march_ss(),
            list: FaultList::address_decoder(),
            cells: 64,
            reps: 5,
        },
    ]
}

/// One Monte-Carlo campaign workload: address-decoder coverage over the
/// exhaustive placement space — full enumeration of every lane (baseline)
/// versus a seeded campaign drawing a fixed sample through the same packed
/// engine (contender). This is the regime `coverage --sample` exists for:
/// spaces whose lane count grows with the cell count squared, where a
/// bounded draw budget with a Wilson confidence interval replaces an
/// enumeration that no longer fits the time budget.
struct CampaignWorkload {
    name: &'static str,
    cells: usize,
    draws: u64,
    seed: u64,
    reps: u32,
}

fn campaign_workloads() -> Vec<CampaignWorkload> {
    vec![
        CampaignWorkload {
            name: "campaign_af_256c_1024_draws",
            cells: 256,
            draws: 1024,
            seed: 7,
            reps: 5,
        },
        CampaignWorkload {
            name: "campaign_af_1024c_8192_draws",
            cells: 1024,
            draws: 8192,
            seed: 7,
            reps: 3,
        },
    ]
}

/// Times one campaign workload. The campaign report is pinned byte-identical
/// (same seed, same JSON) every repetition, so a sampler or merge bug cannot
/// masquerade as a speedup; the exhaustive side pins its verdict the same
/// way. Both sides run the packed engine at 4 threads — the only variable is
/// enumerate-everything vs draw-a-sample.
fn time_campaign(workload: &CampaignWorkload) -> (Duration, Duration) {
    let test = catalog::march_ss();
    let list = FaultList::address_decoder();
    let session = Session::new(ExecPolicy::default().with_threads(4))
        .with_memory_cells(workload.cells)
        .with_strategy(PlacementStrategy::Exhaustive)
        .with_backgrounds(vec![InitialState::AllZero, InitialState::AllOne]);
    let config = CampaignConfig::default()
        .with_draws(workload.draws)
        .with_seed(workload.seed);

    let exhaustive_reference = session.coverage(&test, &list);
    let campaign_reference = session.campaign(&test, &list, &config).to_json();

    let mut exhaustive_time = Duration::ZERO;
    for _ in 0..workload.reps {
        let start = Instant::now();
        assert_eq!(session.coverage(&test, &list), exhaustive_reference);
        exhaustive_time += start.elapsed();
    }
    let exhaustive = exhaustive_time / workload.reps;

    let mut campaign_time = Duration::ZERO;
    for _ in 0..workload.reps {
        let start = Instant::now();
        assert_eq!(
            session.campaign(&test, &list, &config).to_json(),
            campaign_reference
        );
        campaign_time += start.elapsed();
    }
    let campaign = campaign_time / workload.reps;
    (exhaustive, campaign)
}

/// Times one snapshot workload. Every restart — cold or snapshot-warmed — is
/// pinned byte-identical to a reference dictionary JSON, so a stale or torn
/// snapshot cannot masquerade as a speedup. The device is in-memory
/// ([`MemIo`]), so the measured delta is decode-vs-rebuild, not disk speed.
fn time_snapshot(workload: &SnapshotWorkload) -> (Duration, Duration) {
    let policy = || ExecPolicy::default().with_threads(2);
    let primitive = sram_fault_model::Ffm::all_fault_primitives()
        .into_iter()
        .find(|fp| !fp.is_coupling())
        .expect("the FFM space has single-cell primitives");
    let injected =
        sram_sim::InjectedFault::single_cell(primitive, workload.cells - 1, workload.cells)
            .expect("the victim address is in scope");
    let restart = |store: Arc<ArtifactStore>| -> String {
        let engine = SharedEngine::with_store(policy(), store);
        let session = engine.session().with_memory_cells(workload.cells);
        session
            .target_lanes(&workload.list)
            .expect("benchmark scope hosts the placements");
        let syndrome = session
            .observe(&workload.test, &injected)
            .expect("the injected fault is in scope");
        let dictionary = session.dictionary(&workload.test, &workload.list);
        session.diagnose(&syndrome, &dictionary).to_json()
    };
    let snapshot_store = |device: &Arc<MemIo>| -> Arc<ArtifactStore> {
        let store = Arc::new(ArtifactStore::new());
        store.attach_snapshots(SnapshotStore::with_io(device.clone(), "snaps"));
        store
    };
    // The warm-up restart populates the device; it is also the reference.
    let device: Arc<MemIo> = Arc::new(MemIo::new());
    let reference = restart(snapshot_store(&device));

    let mut cold_time = Duration::ZERO;
    for _ in 0..workload.reps {
        let store = Arc::new(ArtifactStore::new());
        let start = Instant::now();
        assert_eq!(restart(store), reference);
        cold_time += start.elapsed();
    }
    let cold = cold_time / workload.reps;

    let mut warm_time = Duration::ZERO;
    for _ in 0..workload.reps {
        let store = snapshot_store(&device);
        let start = Instant::now();
        assert_eq!(restart(store), reference);
        warm_time += start.elapsed();
    }
    let warm = warm_time / workload.reps;
    (cold, warm)
}

/// Times one service workload. Every replay — cold or warm — is pinned
/// byte-identical to a reference transcript from a fresh engine, so a stale
/// cache entry cannot masquerade as a speedup.
fn time_service(workload: &ServiceWorkload) -> (Duration, Duration) {
    let options = ServeOptions::default();
    let policy = || ExecPolicy::default().with_threads(2);
    let run = |engine: &Arc<SharedEngine>| -> Vec<u8> {
        let metrics = Arc::new(ServeMetrics::default());
        let mut output = Vec::new();
        serve_lines(
            workload.script.as_bytes(),
            &mut output,
            engine,
            &metrics,
            &options,
        )
        .expect("benchmark script is well-formed");
        output
    };
    let reference = run(&SharedEngine::new(policy()));

    let mut cold_time = Duration::ZERO;
    for _ in 0..workload.reps {
        let engine = SharedEngine::new(policy());
        let start = Instant::now();
        assert_eq!(run(&engine), reference);
        cold_time += start.elapsed();
    }
    let cold = cold_time / workload.reps;

    let resident = SharedEngine::new(policy());
    // Warm-up replay populates the resident store; the timed replays are the
    // steady state a long-lived `serve` process answers from.
    assert_eq!(run(&resident), reference);
    let start = Instant::now();
    for _ in 0..workload.reps {
        assert_eq!(run(&resident), reference);
    }
    let warm = start.elapsed() / workload.reps;
    (cold, warm)
}

/// Times one lane-width workload; the narrow and wide sweeps are pinned
/// verdict-identical every repetition (and to the coverage report once), so
/// a wide-word carry bug cannot masquerade as a speedup. Both sides run
/// packed single-worker — the AF
/// decoder space splits into only five targets, so at 4 threads the wall
/// time measures pool scheduling over lumpy work items, not the per-pass
/// width effect under test — and the sweep is timed one decoder class at a
/// time, each side keeping its best repetition per class and summing the
/// minima. Short per-class samples are far less likely to absorb a
/// scheduler interference spike than a whole five-class sweep, and the
/// damping is symmetric across both sides. The width is the only variable.
fn time_lane_width(workload: &LaneWidthWorkload) -> (Duration, Duration) {
    // March SL: the heaviest complete test in the catalog (most operations
    // per cell), so the workload is dominated by sensitization passes — the
    // work the lane width multiplies — rather than per-chunk setup.
    let test = catalog::march_sl();
    let session = |width: LaneWidth| {
        Session::new(ExecPolicy::default().with_threads(1).with_lane_width(width))
            .with_memory_cells(workload.cells)
            .with_strategy(PlacementStrategy::Exhaustive)
    };
    let narrow = session(LaneWidth::W64);
    let wide = session(workload.width);

    let mut narrow_time = Duration::ZERO;
    let mut wide_time = Duration::ZERO;
    for decoder in FaultList::address_decoder().decoders() {
        let list = FaultListBuilder::new(format!("AF class {decoder}"))
            .decoder(*decoder)
            .build()
            .expect("single-decoder list is well-formed");
        let lanes = narrow
            .target_lanes(&list)
            .expect("benchmark scope hosts the placements");
        let reference = full_memory_sweep(&narrow, &test, &lanes);
        assert_eq!(
            covered_targets(&reference),
            narrow.coverage(&test, &list).covered()
        );
        assert_eq!(full_memory_sweep(&wide, &test, &lanes), reference);

        let mut narrow_best = Duration::MAX;
        for _ in 0..workload.reps {
            let start = Instant::now();
            assert_eq!(full_memory_sweep(&narrow, &test, &lanes), reference);
            narrow_best = narrow_best.min(start.elapsed());
        }
        narrow_time += narrow_best;

        let mut wide_best = Duration::MAX;
        for _ in 0..workload.reps {
            let start = Instant::now();
            assert_eq!(full_memory_sweep(&wide, &test, &lanes), reference);
            wide_best = wide_best.min(start.elapsed());
        }
        wide_time += wide_best;
    }
    (narrow_time, wide_time)
}

/// Times one AF workload; the two sides' sweeps are pinned verdict-identical
/// every repetition (and to the coverage report once), so a
/// decode-semantics bug cannot masquerade as a speedup. The contender runs
/// at 4 threads like the session workloads, so records stay comparable
/// across `--threads` flags.
fn time_af(workload: &AfWorkload) -> (Duration, Duration) {
    let reps = workload.reps;
    let list = FaultList::address_decoder();
    let test = catalog::march_ss();
    let scalar = Session::new(
        ExecPolicy::default()
            .with_backend(BackendKind::Scalar)
            .with_threads(1),
    )
    .with_memory_cells(workload.cells);
    let packed =
        Session::new(ExecPolicy::default().with_threads(4)).with_memory_cells(workload.cells);
    let lanes = packed
        .target_lanes(&list)
        .expect("benchmark scope hosts the placements");

    let reference = full_memory_sweep(&scalar, &test, &lanes);
    assert_eq!(
        covered_targets(&reference),
        packed.coverage(&test, &list).covered()
    );
    assert_eq!(full_memory_sweep(&packed, &test, &lanes), reference);

    let start = Instant::now();
    for _ in 0..reps {
        assert_eq!(full_memory_sweep(&scalar, &test, &lanes), reference);
    }
    let scalar_time = start.elapsed() / reps;

    let start = Instant::now();
    for _ in 0..reps {
        assert_eq!(full_memory_sweep(&packed, &test, &lanes), reference);
    }
    let packed_time = start.elapsed() / reps;
    (scalar_time, packed_time)
}

/// The memory size of the projection row: the `coverage_scale` AF request
/// of the repository benchmark.
const PROJECTION_CELLS: usize = 4096;

/// The projection workload: March SS exhaustive AF coverage at 4096 cells
/// on one 4-thread session — the packed backend's full-memory sweep over
/// every enumerated lane (baseline) vs projected [`Session::coverage`],
/// which simulates one representative per lane class on at most three cells
/// (contender). Both sides read the same cached lane enumeration, so the row
/// isolates simulation. Every repetition pins the sweep and the report to
/// the warm-up's, and the warm-up pins the sweep's covered count to the
/// report.
fn time_projection(reps: u32) -> (Duration, Duration) {
    let list = FaultList::address_decoder();
    let test = catalog::march_ss();
    let session = Session::new(ExecPolicy::default().with_threads(4))
        .with_memory_cells(PROJECTION_CELLS)
        .with_strategy(PlacementStrategy::Exhaustive);
    let lanes = session
        .target_lanes(&list)
        .expect("benchmark scope hosts the placements");
    let report = session.coverage(&test, &list);
    let sweep = full_memory_sweep(&session, &test, &lanes);
    assert_eq!(covered_targets(&sweep), report.covered());

    let start = Instant::now();
    for _ in 0..reps {
        assert_eq!(full_memory_sweep(&session, &test, &lanes), sweep);
    }
    let full = start.elapsed() / reps;

    let start = Instant::now();
    for _ in 0..reps {
        assert_eq!(session.coverage(&test, &list), report);
    }
    let projected = start.elapsed() / reps;
    (full, projected)
}

/// One full-memory sweep: the session backend's own `lane_verdicts` over
/// every enumerated lane of `lanes`, targets fanned out over the session's
/// pool. This is the plane walk generation and minimisation still run;
/// coverage itself simulates projected lane classes, so the `coverage`,
/// `af_coverage` and `lane_width` rows time this sweep rather than
/// [`Session::coverage`].
fn full_memory_sweep(
    session: &Session,
    test: &MarchTest,
    lanes: &Arc<TargetLanes>,
) -> Vec<Vec<bool>> {
    let backend = session.backend_instance();
    let test = test.clone();
    let cells = session.memory_cells();
    session.execute(Arc::clone(lanes), move |(target, lanes)| {
        backend.lane_verdicts(&test, target, lanes, cells)
    })
}

/// The number of targets a sweep covers: those detected on every lane.
fn covered_targets(verdicts: &[Vec<bool>]) -> usize {
    verdicts
        .iter()
        .filter(|target| target.iter().all(|&detected| detected))
        .count()
}

/// One redundancy-removal workload: a catalogue test minimised against a
/// fault list — the suffix-only snapshot pass (contender) vs the legacy
/// full re-simulation of every trial (baseline). The two produce
/// byte-identical minimised tests, asserted every repetition.
struct MinimiseWorkload {
    name: &'static str,
    test: MarchTest,
    list: FaultList,
    config: GeneratorConfig,
}

fn minimise_workloads(threads: usize) -> Vec<MinimiseWorkload> {
    vec![
        // The generation pipeline's own regime: a long catalogue test with
        // plenty of redundancy against the three-cell list under the paper's
        // thorough scope.
        MinimiseWorkload {
            name: "minimise_march_sl_vs_list_1_thorough",
            test: catalog::march_sl(),
            list: FaultList::list_1(),
            config: GeneratorConfig::default().with_threads(threads),
        },
        // Exhaustive placements: more lanes per target, so each legacy trial
        // re-simulates far more state than the suffix needs.
        MinimiseWorkload {
            name: "minimise_march_sl_vs_list_2_exhaustive",
            test: catalog::march_sl(),
            list: FaultList::list_2(),
            config: GeneratorConfig {
                strategy: PlacementStrategy::Exhaustive,
                ..GeneratorConfig::default()
            }
            .with_threads(threads),
        },
    ]
}

fn time_minimise(workload: &MinimiseWorkload, reps: u32) -> (Duration, Duration) {
    let session = workload.config.session();
    // Warm-up both paths and pin the minimised tests against each other: a
    // checkpointing bug cannot masquerade as a speedup.
    let reference = minimise_full_resim(&session, &workload.test, &workload.list, &workload.config);
    let snapshot = minimise_with(&session, &workload.test, &workload.list, &workload.config);
    assert_eq!(reference.0.notation(), snapshot.0.notation());
    assert_eq!(reference.1, snapshot.1);

    let start = Instant::now();
    for _ in 0..reps {
        let (test, removed) =
            minimise_full_resim(&session, &workload.test, &workload.list, &workload.config);
        assert_eq!(
            (test.notation(), removed),
            (reference.0.notation(), reference.1)
        );
    }
    let full = start.elapsed() / reps;

    let start = Instant::now();
    for _ in 0..reps {
        let (test, removed) =
            minimise_with(&session, &workload.test, &workload.list, &workload.config);
        assert_eq!(
            (test.notation(), removed),
            (reference.0.notation(), reference.1)
        );
    }
    let suffix = start.elapsed() / reps;
    (full, suffix)
}

fn time_session(workload: &SessionWorkload, reps: u32) -> (Duration, Duration) {
    let config = workload.config.clone().with_threads(workload.threads);
    let session = Session::from_coverage_config(&config);
    // Warm-up both paths and pin the verdicts against each other.
    let reference = session.coverage(&workload.test, &workload.list);
    assert_eq!(
        measure_coverage(&workload.test, &workload.list, &config),
        reference
    );

    let start = Instant::now();
    for _ in 0..reps {
        // The legacy path stands a fresh pool up inside every call.
        let report = measure_coverage(&workload.test, &workload.list, &config);
        assert_eq!(report.covered(), reference.covered());
    }
    let per_call = start.elapsed() / reps;

    let start = Instant::now();
    for _ in 0..reps {
        let report = session.coverage(&workload.test, &workload.list);
        assert_eq!(report.covered(), reference.covered());
    }
    let pooled = start.elapsed() / reps;
    (per_call, pooled)
}

/// Times one coverage workload's full-memory sweep on the scalar and the
/// packed backend. The two sweeps are pinned verdict-identical every
/// repetition, and once to the coverage report's covered count.
fn time_coverage(workload: &CoverageWorkload, threads: usize, reps: u32) -> (Duration, Duration) {
    let session = |backend: BackendKind| {
        Session::from_coverage_config(
            &workload
                .config
                .clone()
                .with_backend(backend)
                .with_threads(threads),
        )
    };
    let scalar = session(BackendKind::Scalar);
    let packed = session(BackendKind::Packed);
    let lanes = packed
        .target_lanes(&workload.list)
        .expect("benchmark scope hosts the placements");
    // Warm-up (also validates the run).
    let reference = full_memory_sweep(&scalar, &workload.test, &lanes);
    assert_eq!(
        covered_targets(&reference),
        packed.coverage(&workload.test, &workload.list).covered()
    );
    assert_eq!(
        full_memory_sweep(&packed, &workload.test, &lanes),
        reference
    );

    let timed = |side: &Session| {
        let start = Instant::now();
        for _ in 0..reps {
            assert_eq!(full_memory_sweep(side, &workload.test, &lanes), reference);
        }
        start.elapsed() / reps
    };
    (timed(&scalar), timed(&packed))
}

fn time_scoring(workload: &ScoringWorkload, batch: usize, threads: usize, reps: u32) -> Duration {
    // Warm-up; also pins the verdicts so a scoring bug cannot masquerade as a
    // speedup.
    let baseline = score_candidates(&workload.pool, &workload.batches, 1, threads);
    let start = Instant::now();
    for _ in 0..reps {
        let scores = score_candidates(&workload.pool, &workload.batches, batch, threads);
        assert_eq!(scores, baseline);
    }
    start.elapsed() / reps
}

#[allow(clippy::cast_possible_truncation)]
fn main() {
    let mut out_path = "BENCH_simulation.json".to_string();
    let threads = march_bench::threads_from_args();
    let mut args = env::args();
    while let Some(arg) = args.next() {
        if arg == "--out" {
            out_path = args.next().expect("--out requires a path");
        }
    }
    // What lands in the JSON is the thread count the run actually used, not
    // the flag: `--threads 0` resolves to the available parallelism here.
    let threads_used = effective_threads(threads, usize::MAX);

    let mut records: Vec<BenchRecord> = Vec::new();
    println!(
        "{:<38} {:>12} {:>12} {:>9}",
        "workload", "baseline", "contender", "speedup"
    );
    println!("{}", "-".repeat(76));
    for workload in coverage_workloads() {
        let (scalar, packed) = time_coverage(&workload, threads, 10);
        let speedup = scalar.as_secs_f64() / packed.as_secs_f64().max(1e-9);
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            workload.name,
            scalar.as_secs_f64() * 1e3,
            packed.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name: workload.name.to_string(),
            kind: "coverage".to_string(),
            baseline: "scalar".to_string(),
            contender: "packed".to_string(),
            baseline_ns: scalar.as_nanos() as u64,
            contender_ns: packed.as_nanos() as u64,
            speedup,
            lane_width: None,
        });
    }
    for workload in scoring_workloads() {
        let sequential = time_scoring(&workload, 1, threads, 10);
        let batched = time_scoring(&workload, 0, threads, 10);
        let speedup = sequential.as_secs_f64() / batched.as_secs_f64().max(1e-9);
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            workload.name,
            sequential.as_secs_f64() * 1e3,
            batched.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name: workload.name.to_string(),
            kind: "generation".to_string(),
            baseline: "per-candidate".to_string(),
            contender: "batched".to_string(),
            baseline_ns: sequential.as_nanos() as u64,
            contender_ns: batched.as_nanos() as u64,
            speedup,
            lane_width: None,
        });
    }
    for workload in minimise_workloads(threads) {
        let (full, suffix) = time_minimise(&workload, 5);
        let speedup = full.as_secs_f64() / suffix.as_secs_f64().max(1e-9);
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            workload.name,
            full.as_secs_f64() * 1e3,
            suffix.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name: workload.name.to_string(),
            kind: "minimise".to_string(),
            baseline: "full-resim".to_string(),
            contender: "snapshot".to_string(),
            baseline_ns: full.as_nanos() as u64,
            contender_ns: suffix.as_nanos() as u64,
            speedup,
            lane_width: None,
        });
    }
    for workload in af_workloads() {
        let (scalar, packed) = time_af(&workload);
        let speedup = scalar.as_secs_f64() / packed.as_secs_f64().max(1e-9);
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            workload.name,
            scalar.as_secs_f64() * 1e3,
            packed.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name: workload.name.to_string(),
            kind: "af_coverage".to_string(),
            baseline: "scalar".to_string(),
            contender: "packed+threaded".to_string(),
            baseline_ns: scalar.as_nanos() as u64,
            contender_ns: packed.as_nanos() as u64,
            speedup,
            lane_width: None,
        });
    }
    for workload in lane_width_workloads() {
        let (narrow, wide) = time_lane_width(&workload);
        let speedup = narrow.as_secs_f64() / wide.as_secs_f64().max(1e-9);
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            workload.name,
            narrow.as_secs_f64() * 1e3,
            wide.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name: workload.name.to_string(),
            kind: "lane_width".to_string(),
            baseline: "packed-w64".to_string(),
            contender: format!("packed-w{}", workload.width.name()),
            baseline_ns: narrow.as_nanos() as u64,
            contender_ns: wide.as_nanos() as u64,
            speedup,
            lane_width: Some(workload.width.name().to_string()),
        });
    }
    {
        let (full, projected) = time_projection(3);
        let speedup = full.as_secs_f64() / projected.as_secs_f64().max(1e-9);
        let name = format!("projection_march_ss_af_{PROJECTION_CELLS}_exhaustive");
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            name,
            full.as_secs_f64() * 1e3,
            projected.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name,
            kind: "projection".to_string(),
            baseline: "full-memory-packed".to_string(),
            contender: "projected-classes".to_string(),
            baseline_ns: full.as_nanos() as u64,
            contender_ns: projected.as_nanos() as u64,
            speedup,
            lane_width: None,
        });
    }
    for workload in service_workloads() {
        let (cold, warm) = time_service(&workload);
        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            workload.name,
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name: workload.name.to_string(),
            kind: "service".to_string(),
            baseline: "cold-engine".to_string(),
            contender: "resident-engine".to_string(),
            baseline_ns: cold.as_nanos() as u64,
            contender_ns: warm.as_nanos() as u64,
            speedup,
            lane_width: None,
        });
    }
    for workload in snapshot_workloads() {
        let (cold, warm) = time_snapshot(&workload);
        let speedup = cold.as_secs_f64() / warm.as_secs_f64().max(1e-9);
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            workload.name,
            cold.as_secs_f64() * 1e3,
            warm.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name: workload.name.to_string(),
            kind: "snapshot".to_string(),
            baseline: "cold-start".to_string(),
            contender: "snapshot-warmed".to_string(),
            baseline_ns: cold.as_nanos() as u64,
            contender_ns: warm.as_nanos() as u64,
            speedup,
            lane_width: None,
        });
    }
    for workload in campaign_workloads() {
        let (exhaustive, campaign) = time_campaign(&workload);
        let speedup = exhaustive.as_secs_f64() / campaign.as_secs_f64().max(1e-9);
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            workload.name,
            exhaustive.as_secs_f64() * 1e3,
            campaign.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name: workload.name.to_string(),
            kind: "campaign".to_string(),
            baseline: "exhaustive-enumeration".to_string(),
            contender: "sampled-campaign".to_string(),
            baseline_ns: exhaustive.as_nanos() as u64,
            contender_ns: campaign.as_nanos() as u64,
            speedup,
            lane_width: None,
        });
    }
    for workload in session_workloads() {
        let (per_call, pooled) = time_session(&workload, 20);
        let speedup = per_call.as_secs_f64() / pooled.as_secs_f64().max(1e-9);
        println!(
            "{:<38} {:>10.2}ms {:>10.2}ms {:>8.2}x",
            workload.name,
            per_call.as_secs_f64() * 1e3,
            pooled.as_secs_f64() * 1e3,
            speedup
        );
        records.push(BenchRecord {
            name: workload.name.to_string(),
            kind: "session".to_string(),
            baseline: "spawn-per-call".to_string(),
            contender: "session-pool".to_string(),
            baseline_ns: per_call.as_nanos() as u64,
            contender_ns: pooled.as_nanos() as u64,
            speedup,
            lane_width: None,
        });
    }

    let file = BenchFile::new(threads_used, records);
    println!("{}", "-".repeat(76));
    println!(
        "geometric-mean speedup: {:.2}x (threads: {threads_used})",
        file.geomean_speedup
    );

    std::fs::write(&out_path, file.to_json()).expect("write benchmark JSON");
    println!("wrote {out_path}");
}
