//! The automatic march-test generator (Section 5 of the paper).

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use march_test::{AddressOrder, MarchElement, MarchTest, MarchTestBuilder};
use sram_fault_model::{Bit, FaultList};
use sram_sim::{
    parallel_map, BackendKind, CandidateBatch, CoverageConfig, CoverageReport, ExecPolicy,
    InitialState, PlacementStrategy, Session, TargetBatch,
};

use crate::optimize::minimise_with;
use crate::{exhaustive_candidates, library_candidates, verify};

/// Configuration of the march-test generator.
///
/// The defaults reproduce the paper's setup: an 8-cell verification memory,
/// representative cell placements, detection required under both uniform data
/// backgrounds, the redundancy-removal pass enabled and the exhaustive repair pool
/// available as a fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorConfig {
    /// Number of cells of the memory used to evaluate candidate elements (≥ 4).
    pub memory_cells: usize,
    /// How exhaustively cell placements are enumerated during generation.
    pub strategy: PlacementStrategy,
    /// Initial memory contents the generated test must detect each fault under.
    pub backgrounds: Vec<InitialState>,
    /// The data value written by the initialisation element `⇕(w·)`.
    pub initial_write: Bit,
    /// Whether to run the operation-level redundancy-removal pass after generation
    /// (this is the pass that turns an "ABL"-style result into the shorter
    /// "RABL"-style one of Table 1).
    pub redundancy_removal: bool,
    /// Whether to search the exhaustive short-sequence pool when the library of
    /// candidate elements stops making progress.
    pub repair: bool,
    /// Maximum length (in operations) of the sequences explored by the repair pool.
    pub repair_max_length: usize,
    /// Safety bound on the number of march elements of the generated test.
    pub max_elements: usize,
    /// The address orders the generated march elements may use (the paper's
    /// future-work constraint: tests restricted to a single address order can be
    /// implemented more efficiently in BIST hardware). The initialisation element
    /// `⇕(w·)` is always allowed.
    pub allowed_orders: Vec<AddressOrder>,
    /// The shared execution policy: backend, worker threads, candidate-batch
    /// width and the wave-vs-per-candidate cost-model factor. Generation and
    /// verification both derive from this single copy
    /// (see [`GeneratorConfig::verification_config`]), so the two can no
    /// longer drift apart. The generated test is identical for every policy.
    pub exec: ExecPolicy,
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
            memory_cells: 8,
            strategy: PlacementStrategy::Representative,
            backgrounds: vec![InitialState::AllZero, InitialState::AllOne],
            initial_write: Bit::Zero,
            redundancy_removal: true,
            repair: true,
            repair_max_length: 4,
            max_elements: 24,
            allowed_orders: vec![
                AddressOrder::Ascending,
                AddressOrder::Descending,
                AddressOrder::Any,
            ],
            exec: ExecPolicy::default(),
        }
    }
}

impl GeneratorConfig {
    /// A faster configuration without the redundancy-removal pass — the analogue of
    /// the paper's "March ABL" row (the raw greedy output), as opposed to the
    /// reduced "March RABL" row produced by the default configuration.
    #[must_use]
    pub fn without_redundancy_removal() -> GeneratorConfig {
        GeneratorConfig {
            redundancy_removal: false,
            ..GeneratorConfig::default()
        }
    }

    /// A configuration restricted to a single address order (plus the
    /// order-agnostic `⇕` initialisation), implementing the address-order
    /// constraint the paper's conclusions list as future work: tests whose elements
    /// all march in the same direction map more efficiently onto BIST address
    /// generators.
    #[must_use]
    pub fn single_order(order: AddressOrder) -> GeneratorConfig {
        GeneratorConfig {
            allowed_orders: vec![order, AddressOrder::Any],
            ..GeneratorConfig::default()
        }
    }

    /// A configuration running the whole pipeline on the bit-parallel packed
    /// backend (now also the default) with automatic thread fan-out — the fast
    /// path for large fault lists. The generated test is identical to the
    /// scalar one.
    #[must_use]
    pub fn fast() -> GeneratorConfig {
        GeneratorConfig {
            exec: ExecPolicy::fast(),
            ..GeneratorConfig::default()
        }
    }

    /// Replaces the whole execution policy.
    #[must_use]
    pub fn with_exec(mut self, exec: ExecPolicy) -> GeneratorConfig {
        self.exec = exec;
        self
    }

    /// Replaces the simulation backend.
    ///
    /// Deprecated shim: prefer building an [`ExecPolicy`] once and passing it
    /// via [`GeneratorConfig::with_exec`] or a [`Session`].
    #[must_use]
    pub fn with_backend(mut self, backend: BackendKind) -> GeneratorConfig {
        self.exec.backend = backend;
        self
    }

    /// Replaces the worker-thread count (`0` = available parallelism).
    ///
    /// Deprecated shim: prefer building an [`ExecPolicy`] once and passing it
    /// via [`GeneratorConfig::with_exec`] or a [`Session`].
    #[must_use]
    pub fn with_threads(mut self, threads: usize) -> GeneratorConfig {
        self.exec.threads = threads;
        self
    }

    /// Replaces the candidate-batch size (`0` = full words of 64 candidates,
    /// `1` = per-candidate scoring).
    ///
    /// Deprecated shim: prefer building an [`ExecPolicy`] once and passing it
    /// via [`GeneratorConfig::with_exec`] or a [`Session`].
    #[must_use]
    pub fn with_batch(mut self, batch: usize) -> GeneratorConfig {
        self.exec.batch = batch;
        self
    }

    /// The coverage configuration used for the final verification of a generated
    /// test (thorough: both uniform backgrounds), derived from the **same**
    /// [`ExecPolicy`] that drives generation — the single source of the
    /// backend/threads knobs, so generation and verification cannot drift.
    #[must_use]
    pub fn verification_config(&self) -> CoverageConfig {
        CoverageConfig {
            memory_cells: self.memory_cells,
            strategy: self.strategy,
            backgrounds: vec![InitialState::AllZero, InitialState::AllOne],
            backend: self.exec.backend,
            threads: self.exec.threads,
            lane_width: self.exec.lane_width,
        }
    }

    /// The session equivalent of this configuration: the execution policy plus
    /// the generator's simulation scope.
    #[must_use]
    pub fn session(&self) -> Session {
        Session::new(self.exec)
            .with_memory_cells(self.memory_cells)
            .with_strategy(self.strategy)
            .with_backgrounds(self.backgrounds.clone())
    }
}

/// Statistics and diagnostics of one generation run.
#[derive(Debug, Clone)]
pub struct GenerationReport {
    elapsed: Duration,
    iterations: usize,
    initial_targets: usize,
    uncovered: Vec<String>,
    element_history: Vec<(String, usize)>,
    removed_operations: usize,
}

impl GenerationReport {
    /// Wall-clock time spent generating (and, when enabled, minimising) the test.
    #[must_use]
    pub fn elapsed(&self) -> Duration {
        self.elapsed
    }

    /// Number of greedy iterations (elements appended).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.iterations
    }

    /// Number of target instances the generator started from.
    #[must_use]
    pub fn initial_targets(&self) -> usize {
        self.initial_targets
    }

    /// Human-readable descriptions of the target instances that could not be
    /// covered (empty when generation succeeded).
    #[must_use]
    pub fn uncovered(&self) -> &[String] {
        &self.uncovered
    }

    /// Returns `true` if every target instance is covered by the generated test.
    #[must_use]
    pub fn is_complete(&self) -> bool {
        self.uncovered.is_empty()
    }

    /// The appended elements together with the number of target instances each one
    /// newly covered.
    #[must_use]
    pub fn element_history(&self) -> &[(String, usize)] {
        &self.element_history
    }

    /// Number of operations removed by the redundancy-removal pass.
    #[must_use]
    pub fn removed_operations(&self) -> usize {
        self.removed_operations
    }
}

impl fmt::Display for GenerationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} targets, {} iterations, {} uncovered, {} ops removed, {:.3}s",
            self.initial_targets,
            self.iterations,
            self.uncovered.len(),
            self.removed_operations,
            self.elapsed.as_secs_f64()
        )
    }
}

/// The result of a generation run: the march test plus its generation report.
#[derive(Debug, Clone)]
pub struct GeneratedTest {
    test: MarchTest,
    report: GenerationReport,
}

impl GeneratedTest {
    /// The generated march test.
    #[must_use]
    pub fn test(&self) -> &MarchTest {
        &self.test
    }

    /// Generation statistics and diagnostics.
    #[must_use]
    pub fn report(&self) -> &GenerationReport {
        &self.report
    }

    /// Consumes the result and returns the march test.
    #[must_use]
    pub fn into_test(self) -> MarchTest {
        self.test
    }
}

impl fmt::Display for GeneratedTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} [{}] ({})",
            self.test,
            self.test.complexity_label(),
            self.report
        )
    }
}

/// The automatic march-test generator.
///
/// The generator follows the structure of the paper's Fig. 5: it repeatedly selects
/// a valid sequence of operations (a candidate march element from
/// [`library_candidates`]), applies it to every memory cell, deletes the target
/// faults it covers and appends the corresponding march element, until the target
/// list is empty. Selection is greedy — the candidate covering the most still
/// uncovered `(fault, placement, background)` instances per operation wins — and
/// every decision is validated with the fault simulator of [`sram_sim`], exactly as
/// the paper validates its tests with its in-house simulator. When the library
/// stalls, an exhaustive pool of short sequences is searched
/// ([`exhaustive_candidates`]); when that stalls too, the remaining targets are
/// reported as uncoverable (the "cannot be covered" branch of Fig. 5).
///
/// # Examples
///
/// ```
/// use march_gen::{GeneratorConfig, MarchGenerator};
/// use sram_fault_model::FaultList;
///
/// let generated = MarchGenerator::new(FaultList::list_2()).generate();
/// assert!(generated.report().is_complete());
/// assert!(generated.test().complexity() <= 11);
/// # let _ = GeneratorConfig::default();
/// ```
#[derive(Debug, Clone)]
pub struct MarchGenerator {
    list: FaultList,
    config: GeneratorConfig,
    name: String,
}

impl MarchGenerator {
    /// Creates a generator targeting `list` with the default configuration.
    #[must_use]
    pub fn new(list: FaultList) -> MarchGenerator {
        MarchGenerator::with_config(list, GeneratorConfig::default())
    }

    /// Creates a generator targeting `list` with an explicit configuration.
    #[must_use]
    pub fn with_config(list: FaultList, config: GeneratorConfig) -> MarchGenerator {
        let name = format!("March GEN[{}]", list.name());
        MarchGenerator { list, config, name }
    }

    /// Overrides the name given to the generated march test.
    #[must_use]
    pub fn named(mut self, name: impl Into<String>) -> MarchGenerator {
        self.name = name.into();
        self
    }

    /// The target fault list.
    #[must_use]
    pub fn fault_list(&self) -> &FaultList {
        &self.list
    }

    /// The generator configuration.
    #[must_use]
    pub fn config(&self) -> &GeneratorConfig {
        &self.config
    }

    /// Runs the generation algorithm and returns the generated march test together
    /// with its report.
    ///
    /// Thin shim over [`MarchGenerator::generate_with`] constructing a
    /// throwaway [`Session`] from the configuration's [`ExecPolicy`]; callers
    /// holding a long-lived session should prefer
    /// [`SessionExt::generate`](crate::SessionExt::generate) or
    /// `generate_with` directly so the worker pool is re-used across runs.
    ///
    /// # Panics
    ///
    /// Panics if the configured memory has fewer than 4 cells (too small to host the
    /// placements of three-cell linked faults).
    #[must_use]
    pub fn generate(&self) -> GeneratedTest {
        self.generate_with(&self.config.session())
    }

    /// Runs the generation algorithm on an existing [`Session`]: **every**
    /// execution knob — backend, worker pool, candidate-batch width and the
    /// wave-vs-per-candidate cost-model factor — comes from the session's
    /// [`ExecPolicy`], never from `config.exec` (the configuration contributes
    /// the simulation scope and the generator-specific knobs only, so a
    /// session/config mismatch cannot silently mix policies). The generated
    /// test is byte-identical to [`MarchGenerator::generate`] for every
    /// policy.
    #[must_use]
    pub fn generate_with(&self, session: &Session) -> GeneratedTest {
        // lint: allow(timing) — generation CPU time is itself a reported
        // quantity (Table 1 of the paper); it never shapes the test.
        let start = Instant::now();
        let policy = session.policy();

        // One batch per fault target: every (placement, background) lane of the
        // target packed behind the session's simulation backend, carrying the
        // simulator state reached after the current march prefix so that
        // scoring a candidate only needs to simulate that element. The
        // enumeration comes from the session's artifact cache, so repeated
        // generate/minimise/verify queries against the same list skip it.
        let mut batches: Vec<TargetBatch> = session
            .target_lanes_scoped(
                &self.list,
                self.config.memory_cells,
                self.config.strategy,
                &self.config.backgrounds,
            )
            .expect("generator scope hosts the fault-list placements")
            .iter()
            .map(|(target, lanes)| {
                TargetBatch::new_with_width(
                    target.clone(),
                    lanes.to_vec(),
                    self.config.memory_cells,
                    policy.backend,
                    policy.lane_width,
                )
                .with_wave_cost_factor(policy.wave_cost_factor)
            })
            .collect();
        let initial_targets: usize = batches.iter().map(TargetBatch::pending).sum();

        // The march test always starts with the initialisation element ⇕(w·).
        let init = MarchElement::initialise(self.config.initial_write);
        let mut elements = vec![init.clone()];

        for batch in &mut batches {
            batch.advance(&init);
        }
        batches.retain(|batch| batch.pending() > 0);

        let library = self.filter_orders(library_candidates());
        let mut element_history = Vec::new();
        let mut iterations = 0usize;

        while !batches.is_empty() && elements.len() < self.config.max_elements {
            let choice = self
                .best_candidate(session, &library, &batches)
                .filter(|(_, covered)| *covered > 0)
                .or_else(|| {
                    if self.config.repair {
                        self.best_candidate(
                            session,
                            &self.filter_orders(exhaustive_candidates(
                                self.config.repair_max_length,
                            )),
                            &batches,
                        )
                        .filter(|(_, covered)| *covered > 0)
                    } else {
                        None
                    }
                });

            let Some((element, covered)) = choice else {
                break;
            };

            for batch in &mut batches {
                batch.advance(&element);
            }
            batches.retain(|batch| batch.pending() > 0);
            element_history.push((element.to_string(), covered));
            elements.push(element);
            iterations += 1;
        }

        let mut pending = Vec::new();
        let mut uncovered: Vec<String> = Vec::new();
        for batch in &batches {
            pending.clear();
            batch.pending_lanes_into(&mut pending);
            uncovered.extend(pending.iter().map(|lane| {
                format!(
                    "{} @ {} ({:?})",
                    batch.target(),
                    lane.cells,
                    lane.background
                )
            }));
        }

        let mut test = MarchTestBuilder::new(&self.name);
        for element in elements {
            test = test.push(element);
        }
        let mut test = test
            .build()
            .expect("the initialisation element is always present");

        let mut removed_operations = 0usize;
        if self.config.redundancy_removal && uncovered.is_empty() {
            let (minimised, removed) = minimise_with(session, &test, &self.list, &self.config);
            test = minimised.with_name(&self.name);
            removed_operations = removed;
        }

        GeneratedTest {
            test,
            report: GenerationReport {
                elapsed: start.elapsed(),
                iterations,
                initial_targets,
                uncovered,
                element_history,
                removed_operations,
            },
        }
    }

    /// Runs [`MarchGenerator::generate`] and then verifies the generated test with
    /// the fault simulator under the thorough verification configuration, returning
    /// both the generated test and the coverage report.
    #[must_use]
    pub fn generate_verified(&self) -> (GeneratedTest, CoverageReport) {
        let generated = self.generate();
        let report = verify(
            generated.test(),
            &self.list,
            &self.config.verification_config(),
        );
        (generated, report)
    }

    /// Restricts a candidate pool to the configured address orders.
    fn filter_orders(&self, pool: Vec<MarchElement>) -> Vec<MarchElement> {
        pool.into_iter()
            .filter(|element| self.config.allowed_orders.contains(&element.order()))
            .collect()
    }

    /// Scores every candidate against the pending target batches and returns the
    /// best `(element, newly covered lanes)` pair: most newly covered lanes
    /// first, fewest operations as the tie-breaker. Scoring is batched and
    /// fans out over the session's worker pool ([`score_candidates_with`]);
    /// the selection scan is sequential and in candidate order, so the result
    /// is independent of the thread count and batch size.
    fn best_candidate(
        &self,
        session: &Session,
        candidates: &[MarchElement],
        batches: &[TargetBatch],
    ) -> Option<(MarchElement, usize)> {
        let scores = score_candidates_with(session, candidates, batches);
        let mut best: Option<(MarchElement, usize)> = None;
        for (candidate, covered) in candidates.iter().zip(scores) {
            let better = match &best {
                None => true,
                Some((current, current_covered)) => {
                    covered > *current_covered
                        || (covered == *current_covered && candidate.len() < current.len())
                }
            };
            if better {
                best = Some((candidate.clone(), covered));
            }
        }
        best
    }
}

/// Scores a whole candidate pool against a set of pending target batches: the
/// number of still-undetected `(placement, background)` lanes each candidate
/// would newly detect, in candidate order.
///
/// This is the batched hot path of the greedy generator and its repair search.
/// The pool is packed into [`CandidateBatch`]es of at most `batch` elements
/// (`0` = full 64-candidate words, `1` = the per-candidate behaviour), after a
/// stable sort by operation count so words hold similar-length programs and
/// padding stays low, and the `(pool, target batch)` grid is sharded over
/// `threads` workers with [`parallel_map`] (`0` = available parallelism).
/// Scores are merged back in pool order — per-candidate `usize` additions —
/// so the result is byte-identical for every batch size and thread count.
///
/// # Examples
///
/// ```
/// use march_gen::{library_candidates, score_candidates};
/// use sram_fault_model::FaultList;
/// use sram_sim::{enumerate_targets, enumerate_lanes, BackendKind, InitialState,
///     PlacementStrategy, TargetBatch};
///
/// let list = FaultList::list_2();
/// let batches: Vec<TargetBatch> = enumerate_targets(&list)
///     .into_iter()
///     .map(|target| {
///         let lanes = enumerate_lanes(
///             &target, 8, PlacementStrategy::Representative, &[InitialState::AllOne])
///             .unwrap();
///         TargetBatch::new(target, lanes, 8, BackendKind::Packed)
///     })
///     .collect();
/// let pool = library_candidates();
/// let batched = score_candidates(&pool, &batches, 0, 1);
/// let sequential = score_candidates(&pool, &batches, 1, 1);
/// assert_eq!(batched, sequential);
/// ```
#[must_use]
pub fn score_candidates(
    candidates: &[MarchElement],
    batches: &[TargetBatch],
    batch: usize,
    threads: usize,
) -> Vec<usize> {
    if candidates.is_empty() || batches.is_empty() {
        return vec![0; candidates.len()];
    }
    let packed = pack_pools(candidates, batches.len(), batch);
    let results: Vec<Vec<usize>> = parallel_map(&packed.jobs, threads, |&(pool, batch)| {
        batches[batch].score_pool(&packed.pools[pool])
    });
    merge_scores(&packed, results, candidates.len())
}

/// The session form of [`score_candidates`]: the candidate-batch width comes
/// from the session's [`ExecPolicy`] and the `(pool × target batch)` grid is
/// sharded over the session's resident worker pool instead of per-call scoped
/// threads. Scores are byte-identical to the legacy path for every policy.
#[must_use]
pub fn score_candidates_with(
    session: &Session,
    candidates: &[MarchElement],
    batches: &[TargetBatch],
) -> Vec<usize> {
    if candidates.is_empty() || batches.is_empty() {
        return vec![0; candidates.len()];
    }
    let packed = pack_pools(candidates, batches.len(), session.policy().batch);
    let results: Vec<Vec<usize>> = if session.is_parallel() {
        // The pool requires `'static` jobs: pools and jobs are already
        // `Arc`'d by `pack_pools`, so only the target batches are snapshotted
        // (one clone per scoring call, amortised by the per-candidate
        // simulator clones scoring itself performs).
        let pools = Arc::clone(&packed.pools);
        let target_batches = Arc::new(batches.to_vec());
        session.execute(Arc::clone(&packed.jobs), move |&(pool, batch)| {
            target_batches[batch].score_pool(&pools[pool])
        })
    } else {
        packed
            .jobs
            .iter()
            .map(|&(pool, batch)| batches[batch].score_pool(&packed.pools[pool]))
            .collect()
    };
    merge_scores(&packed, results, candidates.len())
}

/// The packed scoring grid: candidate pools from length-sorted candidates plus
/// the `(pool, target batch)` job list. Pools and jobs are `Arc`'d so the
/// session path can ship them to the worker pool without copying.
struct PackedPools {
    /// `order[sorted position] = original candidate index`.
    order: Vec<usize>,
    pools: Arc<Vec<CandidateBatch>>,
    pool_offsets: Vec<usize>,
    jobs: Arc<Vec<(usize, usize)>>,
}

/// Packs words from length-sorted candidates (stable, so equal lengths keep
/// pool order) and shards the `(pool × target batch)` grid: coarse enough to
/// amortise the per-job packed setup, fine enough to keep every worker busy
/// even when the pool fits one word.
fn pack_pools(candidates: &[MarchElement], batches: usize, batch: usize) -> PackedPools {
    let mut order: Vec<usize> = (0..candidates.len()).collect();
    order.sort_by_key(|&index| candidates[index].len());
    let sorted: Vec<MarchElement> = order
        .iter()
        .map(|&index| candidates[index].clone())
        .collect();
    let pools = CandidateBatch::chunked(&sorted, batch);
    let jobs: Vec<(usize, usize)> = (0..pools.len())
        .flat_map(|pool| (0..batches).map(move |batch| (pool, batch)))
        .collect();
    let mut pool_offsets = Vec::with_capacity(pools.len());
    let mut offset = 0usize;
    for pool in &pools {
        pool_offsets.push(offset);
        offset += pool.len();
    }
    PackedPools {
        order,
        pools: Arc::new(pools),
        pool_offsets,
        jobs: Arc::new(jobs),
    }
}

/// Merges per-job pool scores back into candidate order — per-candidate
/// `usize` additions, so the result is byte-identical for every batch size
/// and thread count.
fn merge_scores(packed: &PackedPools, results: Vec<Vec<usize>>, candidates: usize) -> Vec<usize> {
    let mut scores = vec![0usize; candidates];
    for (&(pool, _), pool_scores) in packed.jobs.iter().zip(results) {
        for (index, score) in pool_scores.into_iter().enumerate() {
            scores[packed.order[packed.pool_offsets[pool] + index]] += score;
        }
    }
    scores
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_config_is_sensible() {
        let config = GeneratorConfig::default();
        assert_eq!(config.memory_cells, 8);
        assert!(config.redundancy_removal);
        assert!(config.repair);
        let fast = GeneratorConfig::without_redundancy_removal();
        assert!(!fast.redundancy_removal);
        let verification = config.verification_config();
        assert_eq!(verification.backgrounds.len(), 2);
    }

    #[test]
    fn generates_a_complete_test_for_fault_list_2() {
        let generator = MarchGenerator::new(FaultList::list_2()).named("March GEN-LF1");
        let generated = generator.generate();
        assert!(
            generated.report().is_complete(),
            "uncovered: {:?}",
            generated.report().uncovered()
        );
        assert!(generated.test().complexity() <= 11, "{}", generated.test());
        assert_eq!(generated.test().name(), "March GEN-LF1");
        assert!(generated.report().iterations() > 0);
        assert!(!generated.to_string().is_empty());
    }

    #[test]
    fn generated_test_for_list_2_verifies_under_the_thorough_config() {
        let (generated, coverage) = MarchGenerator::new(FaultList::list_2()).generate_verified();
        assert!(coverage.is_complete(), "escapes: {:?}", coverage.escapes());
        assert!(generated.report().is_complete());
    }

    #[test]
    fn redundancy_removal_never_increases_complexity() {
        let list = FaultList::list_2();
        let raw = MarchGenerator::with_config(
            list.clone(),
            GeneratorConfig::without_redundancy_removal(),
        )
        .generate();
        let reduced = MarchGenerator::new(list).generate();
        assert!(reduced.test().complexity() <= raw.test().complexity());
    }

    #[test]
    fn single_order_generation_covers_list_2() {
        // The address-order constraint of the paper's future work: restrict every
        // element to the ascending order and still cover the single-cell LFs.
        let config = GeneratorConfig::single_order(AddressOrder::Ascending);
        let generator = MarchGenerator::with_config(FaultList::list_2(), config);
        let generated = generator.generate();
        assert!(
            generated.report().is_complete(),
            "uncovered: {:?}",
            generated.report().uncovered()
        );
        assert!(generated
            .test()
            .elements()
            .iter()
            .all(|element| element.order() != AddressOrder::Descending));
    }

    #[test]
    fn packed_backend_generates_the_identical_test() {
        let scalar = MarchGenerator::with_config(
            FaultList::list_2(),
            GeneratorConfig::default().with_backend(BackendKind::Scalar),
        )
        .generate();
        let packed =
            MarchGenerator::with_config(FaultList::list_2(), GeneratorConfig::fast()).generate();
        assert_eq!(scalar.test().notation(), packed.test().notation());
        assert_eq!(
            scalar.report().iterations(),
            packed.report().iterations(),
            "greedy choices must not depend on the backend"
        );
        assert!(packed.report().is_complete());
    }

    #[test]
    fn batch_size_and_threads_do_not_change_the_generated_test() {
        let baseline = MarchGenerator::new(FaultList::list_2()).generate();
        for (batch, threads) in [(1, 1), (7, 2), (0, 0)] {
            let config = GeneratorConfig::default()
                .with_batch(batch)
                .with_threads(threads);
            let generated = MarchGenerator::with_config(FaultList::list_2(), config).generate();
            assert_eq!(
                baseline.test().notation(),
                generated.test().notation(),
                "batch {batch}, threads {threads}"
            );
        }
    }

    #[test]
    fn score_candidates_is_invariant_in_batch_and_threads() {
        let list = FaultList::list_2();
        let batches: Vec<TargetBatch> = Session::default()
            .target_lanes_scoped(
                &list,
                8,
                PlacementStrategy::Representative,
                &[InitialState::AllZero, InitialState::AllOne],
            )
            .expect("8 cells host list #2")
            .iter()
            .map(|(target, lanes)| {
                TargetBatch::new(target.clone(), lanes.to_vec(), 8, BackendKind::Packed)
            })
            .collect();
        let pool = crate::exhaustive_candidates(2);
        let baseline = score_candidates(&pool, &batches, 1, 1);
        for (batch, threads) in [(0, 1), (0, 4), (3, 2), (64, 0)] {
            assert_eq!(
                score_candidates(&pool, &batches, batch, threads),
                baseline,
                "batch {batch}, threads {threads}"
            );
        }
        assert!(score_candidates(&[], &batches, 0, 1).is_empty());
        assert_eq!(score_candidates(&pool, &[], 0, 1), vec![0; pool.len()]);
    }

    #[test]
    fn config_builders_set_the_knobs() {
        let config = GeneratorConfig::default()
            .with_backend(BackendKind::Packed)
            .with_threads(4)
            .with_batch(16);
        assert_eq!(config.exec.backend, BackendKind::Packed);
        assert_eq!(config.exec.threads, 4);
        assert_eq!(config.exec.batch, 16);
        assert_eq!(GeneratorConfig::default().exec, ExecPolicy::default());
        let fast = GeneratorConfig::fast();
        assert_eq!(fast.exec.backend, BackendKind::Packed);
        assert_eq!(fast.exec.threads, 0);
        assert_eq!(fast.verification_config().backend, BackendKind::Packed);
    }

    #[test]
    fn verification_config_derives_from_the_shared_policy() {
        // The dedup guarantee: mutating the policy is seen by both generation
        // and verification, so the two can no longer drift apart.
        let config = GeneratorConfig::default().with_exec(
            ExecPolicy::default()
                .with_backend(BackendKind::Scalar)
                .with_threads(3),
        );
        let verification = config.verification_config();
        assert_eq!(verification.backend, config.exec.backend);
        assert_eq!(verification.threads, config.exec.threads);
        let session = config.session();
        assert_eq!(session.policy(), config.exec);
        assert_eq!(session.memory_cells(), config.memory_cells);
    }

    #[test]
    fn report_accessors() {
        let generated = MarchGenerator::new(FaultList::list_2()).generate();
        let report = generated.report();
        assert!(report.initial_targets() >= 32);
        assert!(report.elapsed() > Duration::ZERO);
        assert_eq!(report.uncovered().len(), 0);
        assert!(!report.element_history().is_empty());
        assert!(!report.to_string().is_empty());
        let test = generated.clone().into_test();
        assert_eq!(test.name(), generated.test().name());
    }
}
