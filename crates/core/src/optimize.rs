//! Redundancy removal: shortening a march test while preserving its coverage.
//!
//! The pass is **suffix-only**: as the minimiser walks the test back-to-front
//! it records one [`BatchSnapshot`] per march element for every 256-lane
//! chunk of the list's lanes, so the trial for "remove operation *i* of
//! element *e*" restores the checkpoint taken before *e* and re-simulates
//! only the suffix — the prefix is untouched by the removal, so every lane it
//! already detected stays detected. This turns the pass from quadratic in
//! test length (every trial re-simulating the whole shortened test) into one
//! bounded by the suffix lengths, while producing byte-identical results to
//! the full re-simulation oracle ([`minimise_full_resim`]).

use std::sync::{Arc, Mutex};

use march_test::{MarchElement, MarchTest, MarchTestBuilder};
use sram_fault_model::FaultList;
use sram_sim::{BatchSnapshot, Session, SimulationBackend, TargetBatch, TargetLanes};

/// Removes redundant operations from `test` while preserving complete coverage of
/// `list` under the session's simulation scope — the engine behind
/// [`SessionExt::minimise`](crate::SessionExt::minimise).
///
/// The pass works at operation granularity, scanning from the last operation of the
/// last element towards the front: each operation is tentatively removed (dropping
/// the whole element when it becomes empty) and the shortened test is re-verified
/// with the fault simulator over every `(fault, placement, background)` instance; the
/// removal is kept only if coverage stays complete. This is the step that turns an
/// "ABL"-style greedy result into the shorter "RABL"-style test of the paper's
/// Table 1.
///
/// Re-verification is *suffix-only*: the session's batch over the list
/// ([`Session::target_batch`]) is cut into 256-lane chunks — one projected
/// word of weighted class representatives each on the packed backend
/// ([`TargetBatch::split_words`]) — and each chunk carries per-element
/// checkpoints of its lane state, so a trial restores the checkpoint before
/// the edited element and re-simulates just the suffix, with an early exit
/// at the first chunk it leaves uncovered. Every lane is simulated on the
/// at most three cells it involves, and the completeness precheck is a
/// projected coverage call, so the pass costs the same on any memory size.
/// The batch and the precheck both start from the list's class image in
/// the session's artifact store, and every removal trial shards its
/// `(chunk × suffix)` re-verifications over the session's resident worker
/// pool. The minimised test is identical
/// for every backend and thread count — and byte-identical to the full
/// re-simulation oracle, see [`minimise_full_resim`].
///
/// Returns the minimised test and the number of operations removed.
///
/// # Panics
///
/// Panics if the session's memory cannot host the list's placements.
pub(crate) fn minimise_with(
    session: &Session,
    test: &MarchTest,
    list: &FaultList,
) -> (MarchTest, usize) {
    // Only minimise tests that are complete to begin with, otherwise
    // "preserving coverage" is ill-defined; with no target there is
    // nothing to preserve. Either way the test comes back untouched.
    // Coverage runs the test on the list's class image, which the batch
    // below starts from too, so an incomplete test builds no batch.
    let report = session
        .try_coverage(test, list)
        .expect("minimisation scope hosts the fault-list placements");
    if report.total() == 0 || !report.is_complete() {
        return (test.clone(), 0);
    }
    let batch = session
        .target_batch(list)
        .expect("minimisation scope hosts the fault-list placements");

    let states: Arc<Vec<Mutex<ChunkState>>> = Arc::new(
        batch
            .split_words()
            .into_iter()
            .map(|chunk| Mutex::new(ChunkState::new(chunk)))
            .collect(),
    );
    // The sharding unit: one index per chunk. Each worker locks its chunk's
    // state (disjoint by construction), restores the checkpoint and runs the
    // trial suffix.
    let indices: Arc<Vec<usize>> = Arc::new((0..states.len()).collect());

    let mut elements: Vec<MarchElement> = test.elements().to_vec();
    // The immutable prefix snapshot the workers advance checkpoints with;
    // re-published whenever a removal is accepted.
    let mut shared: Arc<Vec<MarchElement>> = Arc::new(elements.clone());

    // The serial fast path probes chunks in most-recently-failed-first
    // order: most trials are rejected, and consecutive rejections tend to
    // fail on the same few chunks, so the early exit usually costs one
    // suffix run. The verdict ("do ALL chunks stay covered?") is
    // order-independent, so the minimised test is unaffected.
    let mut probe_order: Vec<usize> = (0..states.len()).collect();

    let mut removed = 0usize;

    // Iterate until a full sweep removes nothing more.
    loop {
        let mut changed = false;
        let mut element_index = elements.len();
        while element_index > 0 {
            element_index -= 1;
            let mut op_index = elements[element_index].len();
            while op_index > 0 {
                op_index -= 1;
                // The tentative edit: operation `op_index` dropped from
                // element `element_index`, the element itself dropped when it
                // empties out. Skip the trial that would empty the whole test.
                let mut operations = elements[element_index].operations().to_vec();
                operations.remove(op_index);
                let edited = (!operations.is_empty()).then(|| {
                    MarchElement::new(elements[element_index].order(), operations)
                        .expect("non-empty operations after removal")
                });
                if edited.is_none() && elements.len() == 1 {
                    continue;
                }
                // The trial suffix: the edited element followed by everything
                // after the edit point — the prefix needs no re-simulation.
                let mut suffix: Vec<MarchElement> =
                    Vec::with_capacity(elements.len() - element_index);
                suffix.extend(edited.iter().cloned());
                suffix.extend_from_slice(&elements[element_index + 1..]);
                let suffix = Arc::new(suffix);
                let covered = trial_all_chunks(
                    session,
                    &states,
                    &indices,
                    &shared,
                    &mut probe_order,
                    element_index,
                    &suffix,
                );
                if covered {
                    match edited {
                        Some(element) => elements[element_index] = element,
                        None => {
                            elements.remove(element_index);
                        }
                    }
                    removed += 1;
                    changed = true;
                    // The accepted trial's own simulation becomes the new
                    // checkpoint trail: chunks that recorded it commit their
                    // staged snapshots, the rest rewind to the last valid
                    // checkpoint and re-advance lazily.
                    for state in states.iter() {
                        state
                            .lock()
                            .expect("chunk state lock")
                            .commit_or_invalidate(element_index);
                    }
                    shared = Arc::new(elements.clone());
                    if element_index >= elements.len() {
                        break;
                    }
                    op_index = op_index.min(elements[element_index].len());
                }
            }
        }
        if !changed {
            break;
        }
    }

    (rebuild(test.name(), &elements), removed)
}

/// Evaluates one removal trial over every chunk: parallel sessions shard the
/// chunks over the resident pool; serial sessions probe chunks in
/// most-recently-failed-first order (`probe_order`) and early-exit at the
/// first failing chunk, moving it to the front. The front probe runs
/// fail-fast without recording; the rest record their suffix simulation as
/// staged checkpoints, so an accepted trial's work is committed instead of
/// re-simulated. The all-chunks verdict is order-independent, so the result
/// is identical either way.
#[allow(clippy::too_many_arguments)]
fn trial_all_chunks(
    session: &Session,
    states: &Arc<Vec<Mutex<ChunkState>>>,
    indices: &Arc<Vec<usize>>,
    elements: &Arc<Vec<MarchElement>>,
    probe_order: &mut [usize],
    at: usize,
    suffix: &Arc<Vec<MarchElement>>,
) -> bool {
    if session.is_parallel() {
        let states = Arc::clone(states);
        let elements = Arc::clone(elements);
        let suffix = Arc::clone(suffix);
        return session
            .execute(Arc::clone(indices), move |&index| {
                let mut state = states[index].lock().expect("chunk state lock");
                state.trial_covers(&elements, at, &suffix, Record::Staged)
            })
            .into_iter()
            .all(|covered| covered);
    }
    for position in 0..probe_order.len() {
        let index = probe_order[position];
        let record = if position == 0 {
            Record::Discarded
        } else {
            Record::Staged
        };
        let covered = {
            let mut state = states[index].lock().expect("chunk state lock");
            state.trial_covers(elements, at, suffix, record)
        };
        if !covered {
            probe_order[..=position].rotate_right(1);
            return false;
        }
    }
    true
}

/// Whether a removal trial stages its suffix simulation as checkpoints.
#[derive(Clone, Copy, PartialEq, Eq)]
enum Record {
    /// Fail-fast probe: run the suffix word-major and keep nothing — the
    /// cheap mode for the chunk expected to reject the trial.
    Discarded,
    /// Record one staged snapshot per suffix element, so an accepted trial
    /// commits its own simulation as the new checkpoint trail.
    Staged,
}

/// One 256-lane chunk of the minimisation run: its lane batch advanced
/// through the current element prefix, the per-element snapshots taken along
/// the way, and a scratch batch trials restore into (buffer-reusing, so
/// repeated trials allocate nothing).
///
/// Once the prefix detects every lane of the chunk, the state stops
/// simulating: detection is monotone and the prefix is never edited by a
/// trial at or after the detection point, so every later checkpoint is
/// trivially pending-free and every later trial answers `true` without a
/// restore.
struct ChunkState {
    /// The lane state after `elements[..simulated]`.
    batch: TargetBatch,
    /// Number of elements `batch` has actually executed.
    simulated: usize,
    /// Number of elements accounted for (`>= simulated`; the gap is the
    /// all-lanes-detected tail that needs no simulation).
    advanced: usize,
    /// `checkpoints[k]` = lane state after elements `0..k`, valid for
    /// `k <= simulated`; later slots are stale but keep their buffers for
    /// in-place refresh.
    checkpoints: Vec<BatchSnapshot>,
    /// `pending_at[k]` = still-undetected lanes after elements `0..k`, valid
    /// for `k <= advanced`.
    pending_at: Vec<usize>,
    /// The scratch batch each trial restores a checkpoint into.
    trial: TargetBatch,
    /// Per-suffix-element snapshots recorded by the latest staged trial
    /// (slot-reused across trials), plus their pending counts.
    staged: Vec<BatchSnapshot>,
    staged_pending: Vec<usize>,
    /// `Some((at, executed))` when `staged[..executed]` holds the trial run
    /// from checkpoint `at`; `None` after any unstaged or failed trial.
    staged_run: Option<(usize, usize)>,
}

impl ChunkState {
    fn new(batch: TargetBatch) -> ChunkState {
        let checkpoints = vec![batch.snapshot()];
        let pending_at = vec![batch.pending()];
        let trial = batch.clone();
        ChunkState {
            batch,
            simulated: 0,
            advanced: 0,
            checkpoints,
            pending_at,
            trial,
            staged: Vec::new(),
            staged_pending: Vec::new(),
            staged_run: None,
        }
    }

    /// Advances the checkpoint trail through `elements[..upto]`. Elements past
    /// the point where every lane detected are accounted without simulation;
    /// stale slots left behind by [`ChunkState::invalidate`] are refreshed in
    /// place with buffer-reusing [`TargetBatch::snapshot_into`].
    fn ensure(&mut self, elements: &[MarchElement], upto: usize) {
        while self.advanced < upto {
            self.advanced += 1;
            if self.batch.pending() == 0 {
                Self::record(&mut self.pending_at, self.advanced, 0);
                continue;
            }
            self.batch.advance(&elements[self.advanced - 1]);
            self.simulated = self.advanced;
            if self.advanced < self.checkpoints.len() {
                self.batch
                    .snapshot_into(&mut self.checkpoints[self.advanced]);
            } else {
                self.checkpoints.push(self.batch.snapshot());
            }
            Self::record(&mut self.pending_at, self.advanced, self.batch.pending());
        }
    }

    /// The suffix-only removal trial: restore the checkpoint before element
    /// `at` and check that `suffix` detects every lane still pending there.
    /// Chunks the prefix already covers answer without restoring anything.
    ///
    /// In [`Record::Staged`] mode the run additionally snapshots the trial
    /// state after each suffix element, so that if the whole removal is
    /// accepted, [`ChunkState::commit_or_invalidate`] promotes the staged
    /// snapshots to the real checkpoint trail instead of re-simulating the
    /// suffix. Both modes return the same verdict.
    fn trial_covers(
        &mut self,
        elements: &[MarchElement],
        at: usize,
        suffix: &[MarchElement],
        record: Record,
    ) -> bool {
        self.staged_run = None;
        self.ensure(elements, at);
        if self.pending_at[at] == 0 {
            return true;
        }
        self.trial.restore(&self.checkpoints[at]);
        if record == Record::Discarded {
            return self.trial.covers_suffix(suffix);
        }
        let mut pending = self.pending_at[at];
        let mut executed = 0usize;
        for element in suffix {
            if pending == 0 {
                break;
            }
            self.trial.advance(element);
            pending = self.trial.pending();
            executed += 1;
            if executed - 1 < self.staged.len() {
                self.trial.snapshot_into(&mut self.staged[executed - 1]);
                self.staged_pending[executed - 1] = pending;
            } else {
                self.staged.push(self.trial.snapshot());
                self.staged_pending.push(pending);
            }
        }
        if pending == 0 {
            self.staged_run = Some((at, executed));
            true
        } else {
            false
        }
    }

    /// After an accepted removal at element `keep`: if this chunk staged the
    /// accepted trial, its snapshots become the checkpoint trail (no
    /// re-simulation); otherwise the stale checkpoints are dropped and the
    /// batch rewinds to the last valid one, to be re-advanced lazily.
    fn commit_or_invalidate(&mut self, keep: usize) {
        if let Some((at, executed)) = self.staged_run.take() {
            if at == keep && executed > 0 {
                for index in 0..executed {
                    let slot = at + 1 + index;
                    if slot < self.checkpoints.len() {
                        std::mem::swap(&mut self.checkpoints[slot], &mut self.staged[index]);
                    } else {
                        self.checkpoints.push(self.staged[index].clone());
                    }
                    Self::record(&mut self.pending_at, slot, self.staged_pending[index]);
                }
                self.simulated = at + executed;
                self.advanced = at + executed;
                self.batch.restore(&self.checkpoints[self.simulated]);
                return;
            }
        }
        self.invalidate(keep);
    }

    /// Marks the checkpoints an accepted removal at element `keep` stales
    /// (everything after it) and rewinds the main batch to the last valid
    /// one. Stale slots stay allocated for [`ChunkState::ensure`] to refresh
    /// in place.
    fn invalidate(&mut self, keep: usize) {
        if self.advanced <= keep {
            return;
        }
        if self.simulated > keep {
            self.batch.restore(&self.checkpoints[keep]);
            self.simulated = keep;
        }
        self.advanced = keep;
    }

    /// Writes `value` at `index`, growing the vector by exactly one slot when
    /// needed (ensure only ever steps one element at a time).
    fn record(values: &mut Vec<usize>, index: usize, value: usize) {
        if index < values.len() {
            values[index] = value;
        } else {
            values.push(value);
        }
    }
}

/// The legacy full re-simulation pass, kept verbatim as the equivalence
/// oracle: every removal trial re-verifies the *whole* shortened test over
/// every `(fault, placement, background)` lane from scratch. Quadratic in
/// test length — superseded by the suffix-only pass behind
/// [`SessionExt::minimise`](crate::SessionExt::minimise), which the pipeline
/// equivalence tests and the `backend_bench` minimise workloads hold
/// byte-identical to this reference. Reads the session's simulation scope.
#[doc(hidden)]
#[must_use]
pub fn minimise_full_resim(
    session: &Session,
    test: &MarchTest,
    list: &FaultList,
) -> (MarchTest, usize) {
    let targets = session
        .target_lanes(list)
        .expect("minimisation scope hosts the fault-list placements");

    if targets.is_empty() {
        return (test.clone(), 0);
    }

    let oracle = CoverageOracle::new(session, targets);

    if !oracle.covers_all(session, test) {
        return (test.clone(), 0);
    }

    let mut elements: Vec<MarchElement> = test.elements().to_vec();
    let mut removed = 0usize;

    loop {
        let mut changed = false;
        let mut element_index = elements.len();
        while element_index > 0 {
            element_index -= 1;
            let mut op_index = elements[element_index].len();
            while op_index > 0 {
                op_index -= 1;
                let candidate = remove_operation(&elements, element_index, op_index);
                if candidate.is_empty() {
                    continue;
                }
                let trial = rebuild(test.name(), &candidate);
                if oracle.covers_all(session, &trial) {
                    elements = candidate;
                    removed += 1;
                    changed = true;
                    if element_index >= elements.len() {
                        break;
                    }
                    op_index = op_index.min(elements[element_index].len());
                }
            }
        }
        if !changed {
            break;
        }
    }

    (rebuild(test.name(), &elements), removed)
}

/// The re-verification oracle of the full re-simulation pass: the session's
/// cached target lanes walked on the full memory, shared by every trial
/// across the session's workers.
struct CoverageOracle {
    targets: Arc<TargetLanes>,
    backend: Arc<dyn SimulationBackend>,
    memory_cells: usize,
}

impl CoverageOracle {
    fn new(session: &Session, targets: Arc<TargetLanes>) -> CoverageOracle {
        CoverageOracle {
            targets,
            backend: session.backend_instance(),
            memory_cells: session.memory_cells(),
        }
    }

    /// Returns `true` if `test` detects every lane of every target. Serial
    /// sessions early-exit at the first uncovered target (which the removal
    /// scan's mostly-covered trials favour); parallel sessions shard the
    /// targets over the resident pool.
    fn covers_all(&self, session: &Session, test: &MarchTest) -> bool {
        if session.is_parallel() {
            let backend = Arc::clone(&self.backend);
            let test = test.clone();
            let memory_cells = self.memory_cells;
            session
                .execute(Arc::clone(&self.targets), move |(target, lanes)| {
                    backend
                        .first_undetected(&test, target, lanes.lanes(), memory_cells)
                        .is_none()
                })
                .into_iter()
                .all(|covered| covered)
        } else {
            self.targets.iter().all(|(target, lanes)| {
                self.backend
                    .first_undetected(test, target, lanes.lanes(), self.memory_cells)
                    .is_none()
            })
        }
    }
}

/// Returns a copy of `elements` with operation `op_index` of element
/// `element_index` removed; the element itself is dropped when it becomes empty.
fn remove_operation(
    elements: &[MarchElement],
    element_index: usize,
    op_index: usize,
) -> Vec<MarchElement> {
    let mut result = Vec::with_capacity(elements.len());
    for (index, element) in elements.iter().enumerate() {
        if index != element_index {
            result.push(element.clone());
            continue;
        }
        let mut operations = element.operations().to_vec();
        operations.remove(op_index);
        if !operations.is_empty() {
            result.push(
                MarchElement::new(element.order(), operations)
                    .expect("non-empty operations after removal"),
            );
        }
    }
    result
}

fn rebuild(name: &str, elements: &[MarchElement]) -> MarchTest {
    let mut builder = MarchTestBuilder::new(name);
    for element in elements {
        builder = builder.push(element.clone());
    }
    builder
        .build()
        .expect("minimised tests keep at least one element")
}

#[cfg(test)]
mod tests {
    use super::*;
    use march_test::catalog;
    use sram_sim::{BackendKind, ExecPolicy, PlacementStrategy};

    /// March ABL1 with two useless extra reads appended.
    fn padded() -> MarchTest {
        MarchTest::parse(
            "padded ABL1",
            "⇕(w0); ⇕(w0,r0,r0,w1); ⇕(w1,r1,r1,w0); ⇕(r0,r0)",
        )
        .unwrap()
    }

    #[test]
    fn removes_padding_operations() {
        // The pass removes the padding.
        let list = FaultList::list_2();
        let (minimised, removed) = minimise_with(&Session::default(), &padded(), &list);
        assert!(removed >= 2, "removed {removed}");
        assert!(minimised.complexity() <= catalog::march_abl1().complexity());
        // The minimised test still covers the list, serially and sharded over
        // a parallel session's pool.
        for threads in [1usize, 4] {
            let session = Session::new(ExecPolicy::default().with_threads(threads));
            let targets = session
                .target_lanes(&list)
                .expect("the default scope hosts list #2");
            let oracle = CoverageOracle::new(&session, targets);
            assert!(oracle.covers_all(&session, &minimised), "threads {threads}");
        }
    }

    #[test]
    fn suffix_pass_matches_the_full_resim_oracle() {
        let list = FaultList::list_2();
        let session = Session::default();
        let suffix = minimise_with(&session, &padded(), &list);
        let full = minimise_full_resim(&session, &padded(), &list);
        assert_eq!(suffix.0.notation(), full.0.notation());
        assert_eq!(suffix.1, full.1);
    }

    #[test]
    fn thread_counts_minimise_identically() {
        let list = FaultList::list_2();
        let serial = minimise_with(&Session::default(), &padded(), &list);
        let sharded = minimise_with(
            &Session::new(ExecPolicy::default().with_threads(0)),
            &padded(),
            &list,
        );
        assert_eq!(serial.0.notation(), sharded.0.notation());
        assert_eq!(serial.1, sharded.1);
    }

    #[test]
    fn backends_minimise_identically() {
        let list = FaultList::list_2();
        let scalar = minimise_with(
            &Session::new(ExecPolicy::default().with_backend(BackendKind::Scalar)),
            &padded(),
            &list,
        );
        let packed = minimise_with(&Session::default(), &padded(), &list);
        assert_eq!(scalar.0.notation(), packed.0.notation());
        assert_eq!(scalar.1, packed.1);
    }

    #[test]
    fn incomplete_tests_are_left_untouched() {
        // Exhaustive List #1 at 2^20 cells has more lanes than a batch
        // counts, yet its coverage runs on the classes: the precheck turns
        // an incomplete test away before any batch is asked for.
        let huge = Session::default()
            .with_memory_cells(1 << 20)
            .with_strategy(PlacementStrategy::Exhaustive);
        assert!(huge.target_batch(&FaultList::list_1()).is_err());
        for (session, test, list) in [
            (
                Session::default(),
                catalog::mats_plus(),
                FaultList::list_2(),
            ),
            (huge, catalog::march_c_minus(), FaultList::list_1()),
        ] {
            let (unchanged, removed) = minimise_with(&session, &test, &list);
            assert_eq!(removed, 0);
            assert_eq!(unchanged, test);
        }
    }

    #[test]
    fn empty_lists_are_a_no_op() {
        let test = catalog::march_abl1();
        let empty = FaultList::new("empty");
        let (unchanged, removed) = minimise_with(&Session::default(), &test, &empty);
        assert_eq!(removed, 0);
        assert_eq!(unchanged.notation(), test.notation());
    }
}
