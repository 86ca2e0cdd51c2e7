//! Incremental, backend-agnostic batches of coverage lanes — the simulation
//! state the greedy generator and the minimiser advance element by element.
//!
//! A [`TargetBatch`] holds the still-undetected `(placement, background)`
//! lanes of any number of fault targets — the generator builds one over every
//! target of a list — together with the simulator state reached after the
//! march prefix built so far. Every lane is simulated on its projected
//! memory: the at most three cells its fault instance involves, their ranks
//! as addresses and the background cut down to them (see `projection.rs`),
//! so a batch costs the same on any memory size. The lane descriptors it
//! reports stay the original ones.
//!
//! On the packed backend a batch starts from a copy of the list's class
//! image: one representative per lane class, in (target, class) order, in
//! shared 256-lane projected words whose lanes carry their own fault as
//! masks. All lanes of a class share every verdict at every prefix, so each
//! representative carries its class's **weight**, its lane count, and a
//! score or a pending count sums weights where a per-lane batch would count
//! lanes. Scoring a candidate march element copies each word and runs the
//! element on the copy. Advancing **merges** the pending lanes whose whole
//! state — memory planes and fault masks — has become equal, since they
//! behave alike from then on: each lane's state is read as one `u64` key by
//! a bit transpose of each limb of its word, the first lane of each key
//! keeps the summed weight and every class of the lanes folded into it, and
//! the survivors are re-packed densely, in order, whenever a merge or a
//! detection frees a word. This is counting by boundary state: a class is
//! a lane set counted by its weight, and a merged lane a set of classes. A
//! batch still names every pending lane, in (target, lane) order. The
//! scalar backend keeps one [`FaultSimulator`] per lane as the differential
//! reference.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use march_test::MarchElement;

use crate::backend::{scalar_lane_simulator, BackendKind, CoverageLane};
use crate::coverage::TargetKind;
use crate::lane::{LaneWord, W256};
use crate::projection::{
    lanes_of, project_lane, projected_cells, ClassImage, ClassRef, ProjectedWord, WORD_LANES,
};
use crate::{FaultSimulator, TargetLanes};

/// A lane of a scalar batch: its target's index in the batch's
/// [`TargetLanes`] and its own index among that target's lanes.
type LaneRef = (usize, usize);

/// One scalar lane and its advanced simulator state.
#[derive(Debug)]
struct ScalarLane {
    lane: LaneRef,
    simulator: FaultSimulator,
}

impl Clone for ScalarLane {
    fn clone(&self) -> ScalarLane {
        ScalarLane {
            lane: self.lane,
            simulator: self.simulator.clone(),
        }
    }

    fn clone_from(&mut self, source: &ScalarLane) {
        self.lane = source.lane;
        self.simulator.clone_from(&source.simulator);
    }
}

/// What the lanes of one packed word stand for, in bit order: the weight of
/// each lane — how many original lanes it counts for — and the classes it
/// holds.
#[derive(Debug)]
struct WordLanes {
    /// Lane `b` of `weight_bits[k]` is bit `k` of lane `b`'s weight, so the
    /// weight of a lane mask is one popcount per weight bit.
    weight_bits: Vec<W256>,
    /// Lane `i` holds `classes[starts[i]..starts[i + 1]]`.
    starts: Vec<u32>,
    classes: Vec<ClassRef>,
}

impl WordLanes {
    /// The lanes `lanes` lists, each as its weight and its classes.
    fn new<'c>(lanes: impl IntoIterator<Item = (usize, &'c [ClassRef])>) -> WordLanes {
        let mut word = WordLanes {
            weight_bits: Vec::new(),
            starts: vec![0],
            classes: Vec::new(),
        };
        for (lane, (weight, classes)) in lanes.into_iter().enumerate() {
            let bits = (usize::BITS - weight.leading_zeros()) as usize;
            if word.weight_bits.len() < bits {
                word.weight_bits.resize(bits, W256::ZERO);
            }
            for (bit, plane) in word.weight_bits.iter_mut().enumerate() {
                *plane.limb_mut(lane / 64) |= ((weight >> bit & 1) as u64) << (lane % 64);
            }
            word.classes.extend_from_slice(classes);
            word.starts.push(word.classes.len() as u32);
        }
        word
    }

    /// The summed weight of the lanes of `lanes`.
    fn weigh(&self, lanes: W256) -> usize {
        self.weight_bits
            .iter()
            .enumerate()
            .map(|(bit, plane)| ((lanes & *plane).count_ones() as usize) << bit)
            .sum()
    }

    /// The classes lane `lane` holds.
    fn classes_of(&self, lane: usize) -> &[ClassRef] {
        &self.classes[self.starts[lane] as usize..self.starts[lane + 1] as usize]
    }
}

/// One packed word and what its lanes stand for. The lane data is
/// `Arc`-shared with every snapshot of the word: it only changes when an
/// advance re-packs, so a snapshot copies the word and bumps a count.
#[derive(Debug, Clone)]
struct BatchWord {
    word: ProjectedWord,
    lanes: Arc<WordLanes>,
}

/// The packed state of a batch: its words, and how many lanes advances have
/// merged into others so far.
#[derive(Debug)]
struct PackedLanes {
    words: Vec<BatchWord>,
    merged: usize,
}

impl Clone for PackedLanes {
    fn clone(&self) -> PackedLanes {
        PackedLanes {
            words: self.words.clone(),
            merged: self.merged,
        }
    }

    /// Re-uses the word buffer already allocated.
    fn clone_from(&mut self, source: &PackedLanes) {
        self.words.clone_from(&source.words);
        self.merged = source.merged;
    }
}

/// The backend-specific simulation state of a batch.
#[derive(Debug)]
enum BatchState {
    /// One dual-memory simulator per undetected lane.
    Scalar(Vec<ScalarLane>),
    /// Projected words of up to 256 weighted lanes; detected lanes are masked
    /// out of the scoring by each word's detection mask until a re-pack
    /// drops them.
    Packed(PackedLanes),
}

impl Clone for BatchState {
    fn clone(&self) -> BatchState {
        match self {
            BatchState::Scalar(lanes) => BatchState::Scalar(lanes.clone()),
            BatchState::Packed(packed) => BatchState::Packed(packed.clone()),
        }
    }

    /// Variant-aware `clone_from`: restoring a snapshot into a batch of the
    /// same backend re-uses every lane and word buffer already allocated.
    fn clone_from(&mut self, source: &BatchState) {
        match (self, source) {
            (BatchState::Scalar(into), BatchState::Scalar(from)) => into.clone_from(from),
            (BatchState::Packed(into), BatchState::Packed(from)) => into.clone_from(from),
            (into, from) => *into = from.clone(),
        }
    }
}

/// A cheap checkpoint of a [`TargetBatch`]'s lane state, taken with
/// [`TargetBatch::snapshot`] and replayed with [`TargetBatch::restore`].
///
/// The redundancy-removal pass records one snapshot per march element as it
/// advances each chunk of lanes, so the trial for "remove operation *i* of
/// element *e*" restores the checkpoint taken before *e* and re-simulates
/// only the suffix — instead of re-running the whole shortened test from
/// scratch.
#[derive(Debug, Clone)]
pub struct BatchSnapshot {
    state: BatchState,
}

/// Every coverage lane of a set of fault targets, advanced in lock-step as
/// march elements are appended.
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::FaultList;
/// use sram_sim::{BackendKind, Session, TargetBatch};
///
/// let session = Session::default();
/// // One batch over every target of the list: one weighted representative
/// // per lane class, packed into shared 256-lane words.
/// let mut batch = TargetBatch::new(
///     session.target_lanes(&FaultList::list_2())?,
///     session.memory_cells(),
///     BackendKind::Packed,
/// );
/// let elements = catalog::march_sl().elements().to_vec();
/// // Scoring a pool agrees with scoring every candidate on its own...
/// let scores = batch.score_pool(&elements);
/// let one_by_one: Vec<usize> = elements.iter().map(|element| batch.score(element)).collect();
/// assert_eq!(scores, one_by_one);
/// // ...and March SL covers every lane.
/// for element in &elements {
///     batch.advance(element);
/// }
/// assert_eq!(batch.pending(), 0);
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TargetBatch {
    targets: Arc<TargetLanes>,
    state: BatchState,
}

impl TargetBatch {
    /// Builds the batch over every lane of `targets` — the lanes of a list
    /// as [`Session::target_lanes`](crate::Session::target_lanes) returns
    /// them, placed on a `memory_cells`-cell memory — simulated with
    /// `backend`. The packed backend binds one representative per lane
    /// class, weighted by the class's lane count, as
    /// [`Session::target_batch`](crate::Session::target_batch) does from the
    /// session's memoised class image; the scalar backend simulates every
    /// lane. Each lane is simulated on the at most three cells it involves;
    /// `memory_cells` only validates the lanes, so the batch's cost does not
    /// depend on it.
    ///
    /// # Panics
    ///
    /// Panics if a lane's placement is invalid for its target (the
    /// enumerated placements of [`enumerate_lanes`](crate::enumerate_lanes)
    /// always are), names a cell at or beyond `memory_cells`, or starts from
    /// a custom background whose length is not `memory_cells`, and if the
    /// targets' lanes together are more than a `usize` counts.
    #[must_use]
    pub fn new(
        targets: Arc<TargetLanes>,
        memory_cells: usize,
        backend: BackendKind,
    ) -> TargetBatch {
        match backend {
            BackendKind::Scalar => {
                let lanes = targets
                    .iter()
                    .enumerate()
                    .flat_map(|(target, (kind, set))| {
                        set.lanes().iter().enumerate().map(move |(lane, placed)| {
                            let projected = project_lane(placed, memory_cells)
                                .expect("lanes fit the memory they are placed on");
                            ScalarLane {
                                lane: (target, lane),
                                simulator: scalar_lane_simulator(
                                    kind,
                                    &projected,
                                    projected_cells(&projected),
                                ),
                            }
                        })
                    })
                    .collect();
                TargetBatch {
                    targets,
                    state: BatchState::Scalar(lanes),
                }
            }
            BackendKind::Packed => {
                let mut lanes = 0usize;
                for (_, set) in targets.iter() {
                    set.check_fits(memory_cells)
                        .expect("lanes fit the memory they are placed on");
                    lanes = lanes
                        .checked_add(set.len())
                        .expect("a batch counts its lanes in a usize");
                }
                TargetBatch::from_image(&ClassImage::new(targets))
            }
        }
    }

    /// The packed batch over every class of `image`: a copy of its words,
    /// each lane weighted by its class's lane count.
    pub(crate) fn from_image(image: &ClassImage) -> TargetBatch {
        let targets = Arc::clone(image.targets());
        let words = image
            .words()
            .iter()
            .zip(image.classes().chunks(WORD_LANES))
            .map(|(word, classes)| BatchWord {
                word: *word,
                lanes: Arc::new(WordLanes::new(classes.iter().map(|class| {
                    let weight = targets[class.target()].1.weights()[class.class()];
                    (weight, std::slice::from_ref(class))
                }))),
            })
            .collect();
        TargetBatch {
            targets,
            state: BatchState::Packed(PackedLanes { words, merged: 0 }),
        }
    }

    /// Number of lanes not yet detected by the march prefix.
    #[must_use]
    pub fn pending(&self) -> usize {
        match &self.state {
            BatchState::Scalar(lanes) => lanes.len(),
            BatchState::Packed(packed) => packed
                .words
                .iter()
                .map(|word| word.lanes.weigh(word.word.pending()))
                .sum(),
        }
    }

    /// How many simulated lanes advances have merged into lanes of equal
    /// state so far (always 0 on the scalar backend, which keeps every lane).
    #[must_use]
    pub fn merged_lanes(&self) -> usize {
        match &self.state {
            BatchState::Scalar(_) => 0,
            BatchState::Packed(packed) => packed.merged,
        }
    }

    /// The targets and original descriptors of the still-undetected lanes,
    /// in (target, lane) order.
    #[must_use]
    pub fn pending_lanes(&self) -> Vec<(&TargetKind, &CoverageLane)> {
        self.pending_with_slots()
            .into_iter()
            .map(|(target, lane, _)| (target, lane))
            .collect()
    }

    /// The lane of its word, `0..256`, that simulates each lane
    /// [`TargetBatch::pending_lanes`] lists, in the same order (on the
    /// scalar backend, its index in its [`TargetBatch::split_words`] part).
    /// Positions change no result; the differential suites read them to see
    /// re-packs move lanes between the limbs of a word.
    #[doc(hidden)]
    #[must_use]
    pub fn pending_slots(&self) -> Vec<usize> {
        self.pending_with_slots()
            .into_iter()
            .map(|(_, _, slot)| slot)
            .collect()
    }

    /// Every pending lane in (target, lane) order, with the lane of its word
    /// that simulates it.
    fn pending_with_slots(&self) -> Vec<(&TargetKind, &CoverageLane, usize)> {
        match &self.state {
            BatchState::Scalar(lanes) => lanes
                .iter()
                .enumerate()
                .map(|(slot, lane)| {
                    let (target, index) = lane.lane;
                    let (kind, set) = &self.targets[target];
                    (kind, &set.lanes()[index], slot % WORD_LANES)
                })
                .collect(),
            BatchState::Packed(packed) => {
                // A class is held by exactly one simulated lane.
                let mut classes: Vec<(ClassRef, usize)> = packed
                    .words
                    .iter()
                    .flat_map(|word| {
                        lanes_of(word.word.pending()).flat_map(|slot| {
                            word.lanes
                                .classes_of(slot)
                                .iter()
                                .map(move |&class| (class, slot))
                        })
                    })
                    .collect();
                classes.sort_unstable();
                let mut lanes = Vec::new();
                for of_target in
                    classes.chunk_by(|(one, _), (other, _)| one.target() == other.target())
                {
                    let (kind, set) = &self.targets[of_target[0].0.target()];
                    let mut slot_of = vec![None; set.classes().len()];
                    for &(class, slot) in of_target {
                        slot_of[class.class()] = Some(slot);
                    }
                    lanes.extend(set.lanes().iter().filter_map(|lane| {
                        slot_of[set.classes().class_of(&lane.cells, &lane.background)]
                            .map(|slot| (kind, lane, slot))
                    }));
                }
                lanes
            }
        }
    }

    /// Takes a checkpoint of the current lane state. Restoring it with
    /// [`TargetBatch::restore`] rewinds the batch to this exact point of the
    /// march prefix, byte-identically.
    #[must_use]
    pub fn snapshot(&self) -> BatchSnapshot {
        BatchSnapshot {
            state: self.state.clone(),
        }
    }

    /// Overwrites an existing snapshot with the current lane state, re-using
    /// its buffers — the cheap way to refresh a checkpoint slot that went
    /// stale after an accepted removal.
    pub fn snapshot_into(&self, snapshot: &mut BatchSnapshot) {
        snapshot.state.clone_from(&self.state);
    }

    /// Rewinds the batch to a previously taken [`BatchSnapshot`] of it. The
    /// restore re-uses the buffers the batch already holds, so trial-restore
    /// loops are cheap.
    pub fn restore(&mut self, snapshot: &BatchSnapshot) {
        self.state.clone_from(&snapshot.state);
    }

    /// Executes `elements` from the current lane state and returns `true` if
    /// every still-pending lane detects its fault instance by the end — the
    /// suffix-only re-verification primitive of the redundancy-removal pass.
    ///
    /// The batch state is consumed by the trial (lane states advance with no
    /// re-packing); callers restore a snapshot before the next trial. The
    /// scan is lane-major with a fail-fast: the first lane (scalar) or word
    /// (packed) the suffix leaves undetected ends the trial, mirroring the
    /// early exit of
    /// [`SimulationBackend::first_undetected`](crate::SimulationBackend).
    pub fn covers_suffix(&mut self, elements: &[MarchElement]) -> bool {
        match &mut self.state {
            BatchState::Scalar(lanes) => lanes.iter_mut().all(|lane| {
                elements
                    .iter()
                    .any(|element| run_element(element, &mut lane.simulator))
            }),
            BatchState::Packed(packed) => packed.words.iter_mut().all(|word| {
                for element in elements {
                    if word.word.pending().is_zero() {
                        return true;
                    }
                    word.word.run_element(element);
                }
                word.word.pending().is_zero()
            }),
        }
    }

    /// How many still-undetected lanes executing `element` next would detect,
    /// without advancing the batch.
    #[must_use]
    pub fn score(&self, element: &MarchElement) -> usize {
        match &self.state {
            BatchState::Scalar(lanes) => {
                let mut scratch: Option<FaultSimulator> = None;
                lanes
                    .iter()
                    .filter(|lane| {
                        let simulator = match scratch.as_mut() {
                            Some(simulator) => {
                                simulator.clone_from(&lane.simulator);
                                simulator
                            }
                            None => scratch.insert(lane.simulator.clone()),
                        };
                        run_element(element, simulator)
                    })
                    .count()
            }
            BatchState::Packed(packed) => packed
                .words
                .iter()
                .filter(|word| !word.word.pending().is_zero())
                .map(|word| word.lanes.weigh(newly_detected(&word.word, element)))
                .sum(),
        }
    }

    /// Scores every candidate of `pool` without advancing the batch,
    /// returning the number of still-undetected lanes each candidate would
    /// newly detect, in candidate order. The packed backend runs every
    /// candidate on a copy of each word, word by word, and sums the weights
    /// of the lanes it detects; the scalar backend scores each candidate
    /// with [`TargetBatch::score`].
    #[must_use]
    pub fn score_pool(&self, pool: &[MarchElement]) -> Vec<usize> {
        match &self.state {
            BatchState::Scalar(_) => pool.iter().map(|candidate| self.score(candidate)).collect(),
            BatchState::Packed(packed) => {
                let mut scores = vec![0usize; pool.len()];
                for word in packed
                    .words
                    .iter()
                    .filter(|word| !word.word.pending().is_zero())
                {
                    for (score, candidate) in scores.iter_mut().zip(pool) {
                        *score += word.lanes.weigh(newly_detected(&word.word, candidate));
                    }
                }
                scores
            }
        }
    }

    /// Advances the batch by executing `element`; returns the number of lanes
    /// it newly detected (those lanes stop being simulated). On the packed
    /// backend a batch of several words then merges its pending lanes of
    /// equal state and re-packs the survivors densely, in order, when that
    /// needs fewer words or a merge happened, so later scoring only pays for
    /// distinct pending states.
    pub fn advance(&mut self, element: &MarchElement) -> usize {
        match &mut self.state {
            BatchState::Scalar(lanes) => {
                let before = lanes.len();
                lanes.retain_mut(|lane| !run_element(element, &mut lane.simulator));
                before - lanes.len()
            }
            BatchState::Packed(packed) => {
                let mut newly = 0usize;
                for word in &mut packed.words {
                    let before = word.word.pending();
                    if before.is_zero() {
                        continue;
                    }
                    word.word.run_element(element);
                    newly += word.lanes.weigh(before & !word.word.pending());
                }
                packed.merged += repack(&mut packed.words);
                newly
            }
        }
    }

    /// Splits the batch into one batch per 256-lane word, in order (on the
    /// scalar backend, one per 256 lanes). The parts share this batch's lane
    /// descriptors, and together they score and advance as the whole and
    /// hold its pending lanes: they are the units a worker pool shards and
    /// the chunks the minimiser checkpoints.
    #[must_use]
    pub fn split_words(&self) -> Vec<TargetBatch> {
        let part = |state| TargetBatch {
            targets: Arc::clone(&self.targets),
            state,
        };
        match &self.state {
            BatchState::Scalar(lanes) => lanes
                .chunks(WORD_LANES)
                .map(|chunk| part(BatchState::Scalar(chunk.to_vec())))
                .collect(),
            BatchState::Packed(packed) => packed
                .words
                .iter()
                .map(|word| {
                    part(BatchState::Packed(PackedLanes {
                        words: vec![word.clone()],
                        merged: 0,
                    }))
                })
                .collect(),
        }
    }
}

/// The lanes `element` would newly detect on `word`, run on a copy.
fn newly_detected(word: &ProjectedWord, element: &MarchElement) -> W256 {
    let mut trial = *word;
    trial.run_element(element);
    word.pending() & !trial.pending()
}

/// Merges and re-packs the pending lanes of `words`, returning how many
/// lanes were merged.
///
/// Merging pays only by freeing words, so a batch of one word is left
/// alone (or emptied once every lane is detected). In a batch of several
/// words, every pending lane whose state equals that of an earlier pending
/// lane folds into it: the earlier lane keeps the summed weight and both
/// lanes' classes. When a lane was merged or a word can be freed, the
/// surviving lanes are packed densely into as few words as hold them, in
/// order: each lane's state is one row of the transposed word
/// ([`ProjectedWord::lane_states`]), so a new word is the transpose of its
/// lanes' rows.
fn repack(words: &mut Vec<BatchWord>) -> usize {
    if words.len() <= 1 {
        words.retain(|word| !word.word.pending().is_zero());
        return 0;
    }
    let pending: usize = words
        .iter()
        .map(|word| word.word.pending().count_ones() as usize)
        .sum();
    // The survivor each pending lane folds into, in lane order; the
    // survivors' states and projected memory sizes, in the order they were
    // met; and the survivor of each state.
    let mut folds_into: Vec<u32> = Vec::with_capacity(pending);
    let mut states: Vec<u64> = Vec::with_capacity(pending);
    let mut cells: Vec<u8> = Vec::with_capacity(pending);
    let mut survivor_of: HashMap<u64, u32> = HashMap::with_capacity(pending);
    for word in words.iter() {
        let pending = word.word.pending();
        if pending.is_zero() {
            continue;
        }
        let lane_states = word.word.lane_states();
        for lane in lanes_of(pending) {
            let state = lane_states[lane];
            let survivor = *survivor_of.entry(state).or_insert_with(|| {
                states.push(state);
                cells.push(word.word.cells() as u8);
                states.len() as u32 - 1
            });
            folds_into.push(survivor);
        }
    }
    let count = states.len();
    let merged = pending - count;
    if merged == 0 && count.div_ceil(WORD_LANES) == words.len() {
        return 0;
    }

    // Each survivor's weight and classes: its own first, then those of the
    // lanes folded into it, in lane order.
    let pending_lanes = || {
        words
            .iter()
            .flat_map(|word| lanes_of(word.word.pending()).map(move |lane| (&*word.lanes, lane)))
            .zip(folds_into.iter().map(|&survivor| survivor as usize))
    };
    let mut weights = vec![0usize; count];
    let mut starts = vec![0usize; count + 1];
    for ((word, lane), survivor) in pending_lanes() {
        weights[survivor] += word.weigh(W256::bit(lane));
        starts[survivor + 1] += word.classes_of(lane).len();
    }
    for survivor in 0..count {
        starts[survivor + 1] += starts[survivor];
    }
    let mut classes = vec![ClassRef::default(); starts[count]];
    let mut cursor = starts.clone();
    for ((word, lane), survivor) in pending_lanes() {
        let of_lane = word.classes_of(lane);
        classes[cursor[survivor]..cursor[survivor] + of_lane.len()].copy_from_slice(of_lane);
        cursor[survivor] += of_lane.len();
    }

    *words = (0..count)
        .step_by(WORD_LANES)
        .map(|first| {
            let held = first..count.min(first + WORD_LANES);
            BatchWord {
                word: ProjectedWord::from_lane_states(
                    &states[held.clone()],
                    usize::from(cells[held.clone()].iter().copied().max().unwrap_or(0)),
                ),
                lanes: Arc::new(WordLanes::new(held.map(|survivor| {
                    (
                        weights[survivor],
                        &classes[starts[survivor]..starts[survivor + 1]],
                    )
                }))),
            }
        })
        .collect();
    merged
}

impl fmt::Display for TargetBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} targets ({} pending lanes)",
            self.targets.len(),
            self.pending()
        )
    }
}

/// Executes one march element against a scalar simulator and reports whether
/// any read mismatched.
fn run_element(element: &MarchElement, simulator: &mut FaultSimulator) -> bool {
    let cells = simulator.cells();
    let mut detected = false;
    for cell in element.order().addresses(cells) {
        for operation in element.operations() {
            if simulator.apply(cell, *operation).mismatch() {
                detected = true;
            }
        }
    }
    detected
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::enumerate_lanes;
    use crate::{InitialState, InstanceCells, LaneSet, PlacementStrategy, SimulationBackend};
    use march_test::{catalog, MarchTest};
    use sram_fault_model::{Bit, FaultList};

    /// `targets` with their lanes, as a batch takes them.
    fn target_lanes(targets: Vec<(TargetKind, Vec<CoverageLane>)>) -> Arc<TargetLanes> {
        Arc::new(
            targets
                .into_iter()
                .map(|(target, lanes)| (target, Arc::new(LaneSet::from(lanes))))
                .collect(),
        )
    }

    /// Every target of `list` with its lanes on 8 cells under both uniform
    /// backgrounds.
    fn targets_of(list: &FaultList, strategy: PlacementStrategy) -> Arc<TargetLanes> {
        target_lanes(
            crate::enumerate_targets(list)
                .into_iter()
                .map(|target| {
                    let lanes = enumerate_lanes(
                        &target,
                        8,
                        strategy,
                        &[InitialState::AllZero, InitialState::AllOne],
                    )
                    .unwrap();
                    (target, lanes)
                })
                .collect(),
        )
    }

    /// One batch over every target of `targets`.
    fn batch_over(targets: &Arc<TargetLanes>, backend: BackendKind) -> TargetBatch {
        TargetBatch::new(Arc::clone(targets), 8, backend)
    }

    /// One batch over every target of List #2 at representative scope.
    fn list_2_batch(backend: BackendKind) -> TargetBatch {
        batch_over(
            &targets_of(&FaultList::list_2(), PlacementStrategy::Representative),
            backend,
        )
    }

    /// A List #1 batch of three words: a two-cell and a single-cell target
    /// under exhaustive placements (112 and 16 lanes, 4 and 2 classes), then
    /// 43 three-cell targets at representative placements (12 lanes and
    /// classes each), 522 classes in all, so words mix targets and cell
    /// counts and fill every limb of the first two.
    fn mixed_targets() -> Arc<TargetLanes> {
        let list = FaultList::list_1();
        let linked = |cells: usize| {
            list.linked()
                .iter()
                .filter(move |fault| fault.cell_count() == cells)
                .cloned()
        };
        let backgrounds = [InitialState::AllZero, InitialState::AllOne];
        let targets = linked(2)
            .take(1)
            .map(|fault| (fault, PlacementStrategy::Exhaustive))
            .chain(
                linked(1)
                    .take(1)
                    .map(|fault| (fault, PlacementStrategy::Exhaustive)),
            )
            .chain(
                linked(3)
                    .step_by(9)
                    .take(43)
                    .map(|fault| (fault, PlacementStrategy::Representative)),
            );
        target_lanes(
            targets
                .map(|(fault, strategy)| {
                    let target = TargetKind::Linked(fault);
                    let lanes = enumerate_lanes(&target, 8, strategy, &backgrounds).unwrap();
                    (target, lanes)
                })
                .collect(),
        )
    }

    #[test]
    fn batch_incremental_execution_matches_full_runs() {
        // March ABL1 covers list #2: advancing element by element detects
        // every lane exactly once, on both backends.
        let abl1 = catalog::march_abl1();
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            let mut batch = list_2_batch(backend);
            let lanes = batch.pending();
            let newly: usize = abl1.iter().map(|(_, element)| batch.advance(element)).sum();
            assert_eq!(newly, lanes, "{backend:?}");
            assert_eq!(batch.pending(), 0);
        }
    }

    #[test]
    fn scalar_and_packed_batches_advance_identically() {
        let mut scalar = list_2_batch(BackendKind::Scalar);
        let mut packed = list_2_batch(BackendKind::Packed);
        for (_, element) in catalog::march_sl().iter() {
            let score = scalar.score(element);
            assert_eq!(packed.score(element), score, "score diverged on {element}");
            assert_eq!(scalar.advance(element), score);
            assert_eq!(packed.advance(element), score);
            assert_eq!(scalar.pending(), packed.pending());
        }
        assert_eq!(scalar.pending(), 0);
    }

    #[test]
    fn pool_scores_match_sequential_scores_on_both_backends() {
        // A pool mixing lengths, orders and kinds, scored at several march
        // prefixes.
        let mut pool = catalog::march_sl().elements().to_vec();
        pool.extend(catalog::march_ss().elements().iter().cloned());
        pool.extend(catalog::mats_plus().elements().iter().cloned());
        let mut scalar = list_2_batch(BackendKind::Scalar);
        let mut packed = list_2_batch(BackendKind::Packed);
        for (_, element) in catalog::march_ss().iter() {
            let sequential: Vec<usize> = pool
                .iter()
                .map(|candidate| scalar.score(candidate))
                .collect();
            assert_eq!(scalar.score_pool(&pool), sequential);
            assert_eq!(packed.score_pool(&pool), sequential);
            scalar.advance(element);
            packed.advance(element);
        }
    }

    #[test]
    fn packed_compaction_preserves_scores_beyond_64_lanes() {
        // Targets of one, two and three cells, 522 classes in three words:
        // advancing detects and merges lanes and re-packs the survivors of
        // all targets into fewer words.
        let targets = mixed_targets();
        let mut scalar = batch_over(&targets, BackendKind::Scalar);
        let mut packed = batch_over(&targets, BackendKind::Packed);
        assert_eq!(packed.split_words().len(), 3);
        let pool = catalog::march_ss().elements().to_vec();
        let mut repacked = false;
        for (_, element) in catalog::march_sl().iter() {
            assert_eq!(scalar.advance(element), packed.advance(element));
            assert_eq!(scalar.pending_lanes(), packed.pending_lanes());
            assert_eq!(scalar.score_pool(&pool), packed.score_pool(&pool));
            repacked |= packed.pending() > 0 && packed.split_words().len() < 3;
        }
        assert_eq!(packed.pending(), 0);
        assert!(repacked, "the survivors were never re-packed");
    }

    #[test]
    fn split_words_score_and_report_as_the_whole() {
        let targets = mixed_targets();
        let pool = catalog::march_ss().elements().to_vec();
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            let mut batch = batch_over(&targets, backend);
            for (_, element) in catalog::mats_plus().iter() {
                let parts = batch.split_words();
                // A packed part is one word of weighted lanes, so its
                // pending count may exceed 256; it never splits further.
                assert!(parts.iter().all(|part| part.split_words().len() <= 1));
                let mut scores = vec![0; pool.len()];
                let mut pending = Vec::new();
                for part in &parts {
                    for (score, part_score) in scores.iter_mut().zip(part.score_pool(&pool)) {
                        *score += part_score;
                    }
                    pending.extend(part.pending_lanes());
                }
                assert_eq!(scores, batch.score_pool(&pool), "{backend:?}");
                assert_eq!(pending, batch.pending_lanes(), "{backend:?}");
                batch.advance(element);
            }
        }
    }

    #[test]
    fn snapshots_restore_byte_identical_state() {
        // Advance through March SL, snapshotting before every element; each
        // restored snapshot must behave exactly like a batch advanced from
        // scratch through the same prefix.
        let elements: Vec<MarchElement> = catalog::march_sl().elements().to_vec();
        let targets = mixed_targets();
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            let mut batch = batch_over(&targets, backend);
            let mut snapshots = vec![batch.snapshot()];
            for element in &elements {
                batch.advance(element);
                snapshots.push(batch.snapshot());
            }
            let mut scratch = batch.clone();
            for (prefix_len, snapshot) in snapshots.iter().enumerate() {
                scratch.restore(snapshot);
                let mut reference = batch_over(&targets, backend);
                for element in &elements[..prefix_len] {
                    reference.advance(element);
                }
                assert_eq!(
                    scratch.pending(),
                    reference.pending(),
                    "prefix {prefix_len}"
                );
                assert_eq!(scratch.pending_lanes(), reference.pending_lanes());
                // The restored state scores candidates identically too.
                assert_eq!(
                    scratch.score_pool(&elements),
                    reference.score_pool(&elements)
                );
            }
        }
    }

    #[test]
    fn covers_suffix_matches_the_full_run_verdict() {
        // From the checkpoint before element k, the suffix covers the batch
        // iff the full test covers it — the invariant the suffix-only
        // redundancy-removal pass is built on.
        let complete: Vec<MarchElement> = catalog::march_sl().elements().to_vec();
        let incomplete: Vec<MarchElement> = catalog::mats_plus().elements().to_vec();
        let targets = targets_of(&FaultList::list_2(), PlacementStrategy::Representative);
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            for elements in [&complete, &incomplete] {
                // The whole list, and every target on its own.
                let batches = std::iter::once(batch_over(&targets, backend)).chain(
                    targets
                        .iter()
                        .map(|target| batch_over(&Arc::new(vec![target.clone()]), backend)),
                );
                for batch in batches {
                    let expected = {
                        let mut probe = batch.clone();
                        elements.iter().for_each(|element| {
                            probe.advance(element);
                        });
                        probe.pending() == 0
                    };
                    let mut advanced = batch.clone();
                    for split in 0..=elements.len() {
                        let mut trial = batch.clone();
                        trial.restore(&advanced.snapshot());
                        assert_eq!(
                            trial.covers_suffix(&elements[split..]),
                            expected,
                            "{batch} split {split} ({backend:?})"
                        );
                        if split < elements.len() {
                            advanced.advance(&elements[split]);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn snapshot_into_reuses_slots_identically() {
        let elements: Vec<MarchElement> = catalog::march_ss().elements().to_vec();
        let mut batch = batch_over(&mixed_targets(), BackendKind::Packed);
        let mut slot = batch.snapshot();
        for element in &elements {
            batch.advance(element);
            batch.snapshot_into(&mut slot);
            let fresh = batch.snapshot();
            let mut restored_slot = batch.clone();
            restored_slot.restore(&slot);
            let mut restored_fresh = batch.clone();
            restored_fresh.restore(&fresh);
            assert_eq!(restored_slot.pending(), restored_fresh.pending());
            assert_eq!(
                restored_slot.pending_lanes(),
                restored_fresh.pending_lanes()
            );
        }
    }

    /// A List #2 batch on 8 cells holding one enumerated lane and `lane`.
    fn batch_with(lane: CoverageLane, backend: BackendKind) -> TargetBatch {
        let target = TargetKind::Linked(FaultList::list_2().linked()[0].clone());
        let mut lanes = enumerate_lanes(
            &target,
            8,
            PlacementStrategy::Representative,
            &[InitialState::AllZero],
        )
        .unwrap();
        lanes.truncate(1);
        lanes.push(lane);
        TargetBatch::new(target_lanes(vec![(target, lanes)]), 8, backend)
    }

    /// A lane on the last cell of a 9-cell memory, one past the batch's.
    fn placed_beyond_the_memory() -> CoverageLane {
        CoverageLane {
            cells: InstanceCells::single(8),
            background: InitialState::AllZero,
        }
    }

    /// A valid placement under a 9-cell custom image: one cell too long.
    fn with_a_longer_custom_background() -> CoverageLane {
        CoverageLane {
            cells: InstanceCells::single(5),
            background: InitialState::Custom(vec![Bit::One; 9]),
        }
    }

    #[test]
    #[should_panic(expected = "AddressOutOfRange")]
    fn scalar_batches_reject_lanes_placed_beyond_the_memory() {
        let _ = batch_with(placed_beyond_the_memory(), BackendKind::Scalar);
    }

    #[test]
    #[should_panic(expected = "AddressOutOfRange")]
    fn packed_batches_reject_lanes_placed_beyond_the_memory() {
        let _ = batch_with(placed_beyond_the_memory(), BackendKind::Packed);
    }

    #[test]
    #[should_panic(expected = "InitialStateSizeMismatch")]
    fn scalar_batches_reject_custom_backgrounds_of_another_size() {
        let _ = batch_with(with_a_longer_custom_background(), BackendKind::Scalar);
    }

    #[test]
    #[should_panic(expected = "InitialStateSizeMismatch")]
    fn packed_batches_reject_custom_backgrounds_of_another_size() {
        let _ = batch_with(with_a_longer_custom_background(), BackendKind::Packed);
    }

    #[test]
    fn lanes_involving_fewer_cells_than_others_are_padded_exactly() {
        // A single-cell primitive ignores the aggressor slot, but the
        // projection keeps the cell it names: these lanes involve one or two
        // cells, so in a packed word the one-cell lanes are padded onto the
        // two-cell memory.
        let primitive = FaultList::unlinked_static()
            .simple()
            .iter()
            .find(|primitive| !primitive.is_coupling())
            .expect("the unlinked list has single-cell primitives")
            .clone();
        let target = TargetKind::Simple(primitive);
        let image = [1, 0, 1, 1, 0, 0, 1, 0].map(|bit| if bit == 1 { Bit::One } else { Bit::Zero });
        let lanes: Vec<CoverageLane> = [
            InstanceCells::single(5),
            InstanceCells::pair(2, 6),
            InstanceCells::single(1),
        ]
        .into_iter()
        .map(|cells| CoverageLane {
            cells,
            background: InitialState::Custom(image.to_vec()),
        })
        .collect();
        let elements = catalog::march_c_minus().elements().to_vec();
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            let mut batch = TargetBatch::new(
                target_lanes(vec![(target.clone(), lanes.clone())]),
                8,
                backend,
            );
            for prefix in 1..=elements.len() {
                batch.advance(&elements[prefix - 1]);
                let test = MarchTest::new("prefix", elements[..prefix].to_vec()).unwrap();
                let full_memory = crate::ScalarBackend.lane_verdicts(&test, &target, &lanes, 8);
                let pending: Vec<(&TargetKind, &CoverageLane)> = lanes
                    .iter()
                    .zip(full_memory)
                    .filter(|(_, detected)| !detected)
                    .map(|(lane, _)| (&target, lane))
                    .collect();
                assert_eq!(
                    batch.pending_lanes(),
                    pending,
                    "{backend:?}, {prefix} elements"
                );
            }
        }
    }

    #[test]
    fn pending_lanes_match_across_backends() {
        let mut scalar = list_2_batch(BackendKind::Scalar);
        let mut packed = list_2_batch(BackendKind::Packed);
        // Advance by an incomplete prefix and compare the surviving lanes.
        let element = catalog::mats_plus().elements()[0].clone();
        scalar.advance(&element);
        packed.advance(&element);
        assert_eq!(scalar.pending_lanes(), packed.pending_lanes());
        assert!(!scalar.pending_lanes().is_empty());
        assert_eq!(scalar.to_string(), packed.to_string());
    }
}
