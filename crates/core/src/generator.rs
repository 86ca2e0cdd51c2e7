//! The automatic march-test generator (Section 5 of the paper).

use std::fmt;
use std::sync::Arc;
use std::time::{Duration, Instant};

use march_test::{AddressOrder, MarchElement, MarchTest, MarchTestBuilder};
use sram_fault_model::{Bit, FaultList};
use sram_sim::{Session, TargetBatch};

use crate::optimize::minimise_with;
use crate::{exhaustive_candidates, library_candidates};

/// Configuration of the march-test generator: the generator-only knobs.
///
/// The simulation scope (memory size, placements, backgrounds) and the
/// execution policy come from the [`Session`] the generator runs on. The
/// defaults reproduce the paper's setup: the redundancy-removal pass enabled
/// and the exhaustive repair pool available as a fallback.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct GeneratorConfig {
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
}

impl Default for GeneratorConfig {
    fn default() -> Self {
        GeneratorConfig {
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
/// use sram_sim::Session;
///
/// let generator = MarchGenerator::with_config(FaultList::list_2(), GeneratorConfig::default());
/// let generated = generator.generate_with(&Session::default());
/// assert!(generated.report().is_complete());
/// assert!(generated.test().complexity() <= 11);
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

    /// Runs the generation algorithm on `session` and returns the generated
    /// march test together with its report. The session supplies the
    /// simulation scope (memory size, placements, backgrounds) and **every**
    /// execution knob — backend and worker pool; the configuration
    /// contributes the generator-specific knobs only. The generated test is
    /// byte-identical for every execution policy.
    ///
    /// # Panics
    ///
    /// Panics if the session's memory cannot host the list's placements (e.g.
    /// fewer than 4 cells for three-cell linked faults).
    #[must_use]
    pub fn generate_with(&self, session: &Session) -> GeneratedTest {
        // lint: allow(timing) — generation CPU time is itself a reported
        // quantity (Table 1 of the paper); it never shapes the test.
        let start = Instant::now();

        // One batch over every fault target: every (placement, background)
        // lane of the list behind the session's simulation backend, carrying
        // the simulator state reached after the current march prefix so that
        // scoring a candidate only needs to simulate that element, on the at
        // most three cells the lane involves whatever the memory size. On the
        // packed backend the batch is a copy of the list's class image from
        // the session's artifact store — one representative per lane class,
        // weighted by its lane count, in shared 256-lane words — so repeated
        // generate/minimise/verify queries against the same list bind the
        // classes once.
        let mut batch = session
            .target_batch(&self.list)
            .expect("generator scope hosts the fault-list placements");
        let initial_targets = batch.pending();

        // The march test always starts with the initialisation element ⇕(w·).
        let init = MarchElement::initialise(self.config.initial_write);
        let mut elements = vec![init.clone()];
        batch.advance(&init);

        let library = self.filter_orders(library_candidates());
        let mut element_history = Vec::new();
        let mut iterations = 0usize;

        while batch.pending() > 0 && elements.len() < self.config.max_elements {
            let choice = self
                .best_candidate(session, &library, &batch)
                .filter(|(_, covered)| *covered > 0)
                .or_else(|| {
                    if self.config.repair {
                        self.best_candidate(
                            session,
                            &self.filter_orders(exhaustive_candidates(
                                self.config.repair_max_length,
                            )),
                            &batch,
                        )
                        .filter(|(_, covered)| *covered > 0)
                    } else {
                        None
                    }
                });

            let Some((element, covered)) = choice else {
                break;
            };

            batch.advance(&element);
            element_history.push((element.to_string(), covered));
            elements.push(element);
            iterations += 1;
        }

        let uncovered: Vec<String> = batch
            .pending_lanes()
            .into_iter()
            .map(|(target, lane)| format!("{target} @ {} ({:?})", lane.cells, lane.background))
            .collect();

        let mut test = MarchTestBuilder::new(&self.name);
        for element in elements {
            test = test.push(element);
        }
        let mut test = test
            .build()
            .expect("the initialisation element is always present");

        let mut removed_operations = 0usize;
        if self.config.redundancy_removal && uncovered.is_empty() {
            let (minimised, removed) = minimise_with(session, &test, &self.list);
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

    /// Restricts a candidate pool to the configured address orders.
    fn filter_orders(&self, pool: Vec<MarchElement>) -> Vec<MarchElement> {
        pool.into_iter()
            .filter(|element| self.config.allowed_orders.contains(&element.order()))
            .collect()
    }

    /// Scores every candidate against the pending lanes and returns the
    /// best `(element, newly covered lanes)` pair: most newly covered lanes
    /// first, fewest operations as the tie-breaker. Scoring fans out over the
    /// session's worker pool ([`score_candidates`]); the selection scan is
    /// sequential and in candidate order, so the result is independent of
    /// the thread count.
    fn best_candidate(
        &self,
        session: &Session,
        candidates: &[MarchElement],
        batch: &TargetBatch,
    ) -> Option<(MarchElement, usize)> {
        let scores = score_candidates(session, candidates, batch);
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

/// Scores a whole candidate pool against a target batch: the number of
/// still-undetected `(placement, background)` lanes each candidate would
/// newly detect, in candidate order.
///
/// This is the hot path of the greedy generator and its repair search. A
/// serial session scores the batch in place ([`TargetBatch::score_pool`]:
/// every candidate on a copy of each 256-lane word). A parallel session hands
/// the batch's words ([`TargetBatch::split_words`]) to its resident worker
/// pool, each job scoring the whole pool against one word, and sums the
/// per-word scores in word order — `usize` additions, so the result is
/// byte-identical for every thread count.
///
/// # Examples
///
/// ```
/// use march_gen::{library_candidates, score_candidates};
/// use sram_fault_model::FaultList;
/// use sram_sim::{BackendKind, ExecPolicy, Session, TargetBatch};
///
/// let session = Session::default();
/// let targets = session.target_lanes(&FaultList::list_2()).unwrap();
/// let batch = TargetBatch::new(targets, 8, BackendKind::Packed);
/// let pool = library_candidates();
/// let serial = score_candidates(&session, &pool, &batch);
/// let pooled = score_candidates(&Session::new(ExecPolicy::default().with_threads(2)), &pool, &batch);
/// assert_eq!(serial, pooled);
/// ```
#[must_use]
pub fn score_candidates(
    session: &Session,
    candidates: &[MarchElement],
    batch: &TargetBatch,
) -> Vec<usize> {
    if !session.is_parallel() {
        return batch.score_pool(candidates);
    }
    let pool = Arc::new(candidates.to_vec());
    session
        .execute(Arc::new(batch.split_words()), move |word| {
            word.score_pool(&pool)
        })
        .into_iter()
        .fold(vec![0; candidates.len()], |mut scores, word_scores| {
            for (score, word_score) in scores.iter_mut().zip(word_scores) {
                *score += word_score;
            }
            scores
        })
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_sim::{BackendKind, ExecPolicy};

    /// Generates a test for `list` with `config` on a default session.
    fn generate(list: FaultList, config: GeneratorConfig) -> GeneratedTest {
        MarchGenerator::with_config(list, config).generate_with(&Session::default())
    }

    #[test]
    fn default_config_is_sensible() {
        let config = GeneratorConfig::default();
        assert!(config.redundancy_removal);
        assert!(config.repair);
        assert_eq!(config.initial_write, Bit::Zero);
        let fast = GeneratorConfig::without_redundancy_removal();
        assert!(!fast.redundancy_removal);
    }

    #[test]
    fn generates_a_complete_test_for_fault_list_2() {
        let generator = MarchGenerator::new(FaultList::list_2()).named("March GEN-LF1");
        let generated = generator.generate_with(&Session::default());
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
        // The default session scope is the paper's thorough one: both uniform
        // backgrounds.
        let session = Session::default();
        let generated = MarchGenerator::new(FaultList::list_2()).generate_with(&session);
        let coverage = session.coverage(generated.test(), &FaultList::list_2());
        assert!(coverage.is_complete(), "escapes: {:?}", coverage.escapes());
        assert!(generated.report().is_complete());
    }

    #[test]
    fn redundancy_removal_never_increases_complexity() {
        let list = FaultList::list_2();
        let raw = generate(list.clone(), GeneratorConfig::without_redundancy_removal());
        let reduced = generate(list, GeneratorConfig::default());
        assert!(reduced.test().complexity() <= raw.test().complexity());
    }

    #[test]
    fn single_order_generation_covers_list_2() {
        // The address-order constraint of the paper's future work: restrict every
        // element to the ascending order and still cover the single-cell LFs.
        let config = GeneratorConfig::single_order(AddressOrder::Ascending);
        let generated = generate(FaultList::list_2(), config);
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
        let generator = MarchGenerator::new(FaultList::list_2());
        let scalar = generator.generate_with(&Session::new(
            ExecPolicy::default().with_backend(BackendKind::Scalar),
        ));
        let packed = generator.generate_with(&Session::new(ExecPolicy::fast()));
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
        // A serial session scores the whole batch at once; a pool scores it
        // one 256-lane word per job. Neither the batch a job scores nor the
        // thread count changes the test.
        let generator = MarchGenerator::new(FaultList::list_2());
        let baseline = generator.generate_with(&Session::default());
        for threads in [2, 0] {
            let policy = ExecPolicy::default().with_threads(threads);
            let generated = generator.generate_with(&Session::new(policy));
            assert_eq!(
                baseline.test().notation(),
                generated.test().notation(),
                "threads {threads}"
            );
        }
    }

    #[test]
    fn score_candidates_is_invariant_in_batch_and_threads() {
        // One batch over the whole list and one batch per target score
        // alike, serially and sharded word by word over a pool.
        let list = FaultList::list_2();
        let targets = Session::default()
            .target_lanes(&list)
            .expect("8 cells host list #2");
        let pool = crate::exhaustive_candidates(2);
        let session = |threads: usize| Session::new(ExecPolicy::default().with_threads(threads));
        let per_target: Vec<usize> = targets
            .iter()
            .map(|(target, lanes)| {
                let target = Arc::new(vec![(target.clone(), Arc::clone(lanes))]);
                TargetBatch::new(target, 8, BackendKind::Scalar).score_pool(&pool)
            })
            .fold(vec![0; pool.len()], |mut scores, target_scores| {
                for (score, target_score) in scores.iter_mut().zip(target_scores) {
                    *score += target_score;
                }
                scores
            });
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            let batch = TargetBatch::new(Arc::clone(&targets), 8, backend);
            for threads in [1, 2, 0] {
                assert_eq!(
                    score_candidates(&session(threads), &pool, &batch),
                    per_target,
                    "{backend}, threads {threads}"
                );
            }
            assert!(score_candidates(&session(1), &[], &batch).is_empty());
        }
        let empty = TargetBatch::new(Arc::default(), 8, BackendKind::Packed);
        assert_eq!(
            score_candidates(&session(2), &pool, &empty),
            vec![0; pool.len()]
        );
    }

    #[test]
    fn config_builders_set_the_knobs() {
        let config = GeneratorConfig::single_order(AddressOrder::Descending);
        assert_eq!(
            config.allowed_orders,
            vec![AddressOrder::Descending, AddressOrder::Any]
        );
        assert!(config.redundancy_removal);
        let raw = GeneratorConfig::without_redundancy_removal();
        assert!(!raw.redundancy_removal);
        assert_eq!(
            raw.allowed_orders,
            GeneratorConfig::default().allowed_orders
        );
    }

    #[test]
    fn report_accessors() {
        let generated = MarchGenerator::new(FaultList::list_2()).generate_with(&Session::default());
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
