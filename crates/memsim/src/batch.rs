//! Incremental, backend-agnostic batches of coverage lanes — the simulation
//! state the greedy generator and the minimiser advance element by element.
//!
//! A [`TargetBatch`] holds every still-undetected `(placement, background)`
//! lane of one fault target together with the simulator state reached after
//! the march prefix built so far. Every lane is simulated on its projected
//! memory: the at most three cells its fault instance involves, their ranks
//! as addresses and the background cut down to them (see `projection.rs`),
//! so a batch costs the same on any memory size. The lane descriptors it
//! reports stay the original ones. Scoring a candidate march element only
//! has to simulate that element: on the scalar backend by cloning each
//! lane's [`FaultSimulator`], on the packed backend by cloning a handful of
//! lane-word bit-planes and running all lanes of a chunk at once. The packed
//! chunk word is width-generic ([`LaneWord`]): a `u64` chunk carries 64
//! lanes, the [`W128`]/[`W256`] blocks carry 128/256 — picked per batch by
//! the [`LaneWidth`] policy, with byte-identical scores and pending sets at
//! every width.

use std::fmt;
use std::sync::Arc;

use march_test::MarchElement;
use sram_fault_model::{Bit, Operation};

use crate::backend::{scalar_lane_simulator, BackendKind, CoverageLane, PackedSimulator};
use crate::coverage::TargetKind;
use crate::lane::{LaneWidth, LaneWord, W128, W256};
use crate::projection::project_lanes;
use crate::{FaultSimulator, SimulationError};

/// The wave-vs-per-candidate cost-model factor.
///
/// The packed candidate-wave evaluator pays roughly this many masked group
/// passes per padded operation slot per pending lane, versus one plain pass
/// per operation of every candidate on the per-candidate path (see
/// [`TargetBatch::score_pool`]). The value is calibrated from the committed
/// `BENCH_simulation.json` trajectory: with a factor of 3 the batched
/// repair-pool workloads run 10–12× over per-candidate scoring, and nudging
/// the factor to 2 or 4 flips the switch on pool shapes where the measured
/// times show the other path is cheaper.
pub(crate) const WAVE_COST_FACTOR: usize = 3;

/// One scalar lane: its descriptor plus the advanced simulator state.
#[derive(Debug)]
struct ScalarLane {
    lane: CoverageLane,
    simulator: FaultSimulator,
}

impl Clone for ScalarLane {
    fn clone(&self) -> ScalarLane {
        ScalarLane {
            lane: self.lane.clone(),
            simulator: self.simulator.clone(),
        }
    }

    fn clone_from(&mut self, source: &ScalarLane) {
        self.lane.clone_from(&source.lane);
        self.simulator.clone_from(&source.simulator);
    }
}

/// The backend-specific simulation state of a batch. The packed variants
/// differ only in the lane-word width of their chunks; every operation on
/// them goes through the same width-generic helpers.
#[derive(Debug)]
enum BatchState {
    /// One dual-memory simulator per undetected lane.
    Scalar(Vec<ScalarLane>),
    /// Packed chunks of up to 64 lanes; detected lanes are masked out of the
    /// scoring by each chunk's detection mask.
    Packed(Vec<PackedChunk>),
    /// Packed chunks of up to 128 lanes (`[u64; 2]` words).
    Packed128(Vec<PackedChunk<W128>>),
    /// Packed chunks of up to 256 lanes (`[u64; 4]` words).
    Packed256(Vec<PackedChunk<W256>>),
}

impl Clone for BatchState {
    fn clone(&self) -> BatchState {
        match self {
            BatchState::Scalar(lanes) => BatchState::Scalar(lanes.clone()),
            BatchState::Packed(chunks) => BatchState::Packed(chunks.clone()),
            BatchState::Packed128(chunks) => BatchState::Packed128(chunks.clone()),
            BatchState::Packed256(chunks) => BatchState::Packed256(chunks.clone()),
        }
    }

    /// Variant-aware `clone_from`: restoring a snapshot into a batch of the
    /// same backend (and lane width) re-uses every lane/plane buffer already
    /// allocated.
    fn clone_from(&mut self, source: &BatchState) {
        match (self, source) {
            (BatchState::Scalar(into), BatchState::Scalar(from)) => into.clone_from(from),
            (BatchState::Packed(into), BatchState::Packed(from)) => into.clone_from(from),
            (BatchState::Packed128(into), BatchState::Packed128(from)) => into.clone_from(from),
            (BatchState::Packed256(into), BatchState::Packed256(from)) => into.clone_from(from),
            (into, from) => *into = from.clone(),
        }
    }
}

#[derive(Debug)]
struct PackedChunk<W: LaneWord = u64> {
    /// The lane descriptors, `Arc`-shared with every snapshot of this chunk:
    /// they only change on compaction, so snapshot/restore pays one refcount
    /// bump instead of cloning the whole descriptor vector.
    lanes: Arc<Vec<CoverageLane>>,
    simulator: PackedSimulator<W>,
}

impl<W: LaneWord> Clone for PackedChunk<W> {
    fn clone(&self) -> PackedChunk<W> {
        PackedChunk {
            lanes: self.lanes.clone(),
            simulator: self.simulator.clone(),
        }
    }

    fn clone_from(&mut self, source: &PackedChunk<W>) {
        self.lanes = Arc::clone(&source.lanes);
        self.simulator.clone_from(&source.simulator);
    }
}

impl<W: LaneWord> PackedChunk<W> {
    fn pending_mask(&self) -> W {
        !self.simulator.detected_mask() & self.simulator.lane_mask()
    }

    fn pending(&self) -> usize {
        self.pending_mask().count_ones() as usize
    }

    /// Newly detected lanes of this chunk if `element` were executed next.
    /// The trial runs on `scratch` (rebuilt from this chunk's state with
    /// buffer-reusing `clone_from`), so repeated scoring never reallocates.
    fn score_one_with(&self, element: &MarchElement, scratch: &mut PackedSimulator<W>) -> usize {
        let before = self.simulator.detected_mask();
        if before == self.simulator.lane_mask() {
            return 0;
        }
        scratch.clone_from(&self.simulator);
        scratch.apply_element(element);
        (scratch.detected_mask() & !before).count_ones() as usize
    }
}

/// A cheap checkpoint of a [`TargetBatch`]'s lane state, taken with
/// [`TargetBatch::snapshot`] and replayed with [`TargetBatch::restore`].
///
/// The redundancy-removal pass records one snapshot per march element as it
/// advances each target, so the trial for "remove operation *i* of element
/// *e*" restores the checkpoint taken before *e* and re-simulates only the
/// suffix — instead of re-running the whole shortened test from scratch.
#[derive(Debug, Clone)]
pub struct BatchSnapshot {
    state: BatchState,
}

/// A pool of candidate march elements packed one per bit-lane of a candidate
/// word, ready for single-pass scoring against the pending lanes of a
/// [`TargetBatch`]. The default `u64` word packs up to 64 candidates.
///
/// Per operation slot the pool pre-computes one lane mask per operation kind
/// (`w0` / `w1` / read / wait — the only distinctions the fault semantics make)
/// plus the mask of lanes that march ascending, so the
/// candidate-wave evaluator can execute all candidates with a handful of
/// masked bitwise operations per cell visit.
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::FaultList;
/// use sram_sim::{
///     enumerate_lanes, BackendKind, CandidateBatch, InitialState, PlacementStrategy,
///     TargetBatch, TargetKind,
/// };
///
/// let fault = FaultList::list_2().linked()[0].clone();
/// let target = TargetKind::Linked(fault);
/// let lanes = enumerate_lanes(
///     &target,
///     8,
///     PlacementStrategy::Representative,
///     &[InitialState::AllOne],
/// )?;
/// let batch = TargetBatch::new(target, lanes, 8, BackendKind::Packed);
/// let pool: Vec<_> = catalog::march_sl().elements().to_vec();
/// let packed = CandidateBatch::new(pool.clone())?;
/// // One packed pass scores the whole pool...
/// let batched = batch.score_pool(&packed);
/// // ...and agrees with scoring every candidate on its own.
/// let sequential: Vec<usize> = pool.iter().map(|e| batch.score(e)).collect();
/// assert_eq!(batched, sequential);
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct CandidateBatch<C: LaneWord = u64> {
    candidates: Vec<MarchElement>,
    lane_mask: C,
    ascending: C,
    max_ops: usize,
    total_ops: usize,
    w0: Vec<C>,
    w1: Vec<C>,
    read: Vec<C>,
    wait: Vec<C>,
}

impl CandidateBatch {
    /// The maximum number of candidates one default-width (`u64`) batch
    /// packs. Wider candidate words hold `C::BITS` candidates.
    pub const MAX_CANDIDATES: usize = 64;

    /// Splits a pool of any size into batches of at most `batch` candidates
    /// (`0` = [`CandidateBatch::MAX_CANDIDATES`]; larger values are clamped).
    #[must_use]
    pub fn chunked(pool: &[MarchElement], batch: usize) -> Vec<CandidateBatch> {
        let size = if batch == 0 {
            CandidateBatch::MAX_CANDIDATES
        } else {
            batch.min(CandidateBatch::MAX_CANDIDATES)
        };
        pool.chunks(size)
            .map(|chunk| CandidateBatch::new(chunk.to_vec()).expect("chunk sizes are in range"))
            .collect()
    }
}

impl<C: LaneWord> CandidateBatch<C> {
    /// Packs `candidates` one per bit-lane.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::LaneCountOutOfRange`] if `candidates` is
    /// empty or holds more than one candidate word's worth of elements
    /// (split larger pools with [`CandidateBatch::chunked`]).
    pub fn new(candidates: Vec<MarchElement>) -> Result<CandidateBatch<C>, SimulationError> {
        if candidates.is_empty() || candidates.len() > C::BITS {
            return Err(SimulationError::LaneCountOutOfRange {
                requested: candidates.len(),
            });
        }
        let max_ops = candidates
            .iter()
            .map(MarchElement::len)
            .max()
            .expect("pool is non-empty");
        let total_ops = candidates.iter().map(MarchElement::len).sum();
        let mut batch = CandidateBatch {
            // The shared width-generic boundary helper: no `== 64` special
            // case (see `LaneWord::full_mask`).
            lane_mask: C::full_mask(candidates.len()),
            ascending: C::ZERO,
            max_ops,
            total_ops,
            w0: vec![C::ZERO; max_ops],
            w1: vec![C::ZERO; max_ops],
            read: vec![C::ZERO; max_ops],
            wait: vec![C::ZERO; max_ops],
            candidates,
        };
        for (lane, candidate) in batch.candidates.iter().enumerate() {
            let bit = C::bit(lane);
            // `Any` conventionally executes ascending, as in `run_march`.
            if candidate.order() != march_test::AddressOrder::Descending {
                batch.ascending |= bit;
            }
            for (slot, operation) in candidate.operations().iter().enumerate() {
                match operation {
                    Operation::Write(Bit::Zero) => batch.w0[slot] |= bit,
                    Operation::Write(Bit::One) => batch.w1[slot] |= bit,
                    Operation::Read(_) => batch.read[slot] |= bit,
                    Operation::Wait => batch.wait[slot] |= bit,
                }
            }
        }
        Ok(batch)
    }

    /// The packed candidates, in lane order.
    #[must_use]
    pub fn candidates(&self) -> &[MarchElement] {
        &self.candidates
    }

    /// Number of packed candidates.
    #[must_use]
    pub fn len(&self) -> usize {
        self.candidates.len()
    }

    /// Always `false`: batches are non-empty by construction.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.candidates.is_empty()
    }

    /// The mask with one bit set per packed candidate.
    #[must_use]
    pub fn lane_mask(&self) -> C {
        self.lane_mask
    }

    /// Candidate lanes whose element visits cells in ascending order.
    pub(crate) fn ascending_mask(&self) -> C {
        self.ascending
    }

    /// The longest candidate's operation count (the padded slot count).
    pub(crate) fn max_ops(&self) -> usize {
        self.max_ops
    }

    /// Total operation count over all candidates (the per-candidate
    /// scoring cost, used to decide when the wave pass is cheaper).
    pub(crate) fn total_ops(&self) -> usize {
        self.total_ops
    }

    /// The operation kinds executed at `slot` with their candidate-lane masks
    /// (lanes shorter than `slot` appear in no mask and idle).
    pub(crate) fn slot_ops(&self, slot: usize) -> [(Operation, C); 4] {
        [
            (Operation::W0, self.w0[slot]),
            (Operation::W1, self.w1[slot]),
            (Operation::Read(None), self.read[slot]),
            (Operation::Wait, self.wait[slot]),
        ]
    }
}

/// Every coverage lane of one fault target, advanced in lock-step as march
/// elements are appended.
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::FaultList;
/// use sram_sim::{
///     enumerate_lanes, BackendKind, InitialState, PlacementStrategy, TargetBatch, TargetKind,
/// };
///
/// let fault = FaultList::list_2().linked()[0].clone();
/// let target = TargetKind::Linked(fault);
/// let lanes = enumerate_lanes(
///     &target,
///     8,
///     PlacementStrategy::Representative,
///     &[InitialState::AllOne],
/// )?;
/// let mut batch = TargetBatch::new(target, lanes, 8, BackendKind::Packed);
/// for (_, element) in catalog::march_sl().iter() {
///     batch.advance(element);
/// }
/// assert_eq!(batch.pending(), 0, "March SL covers every lane");
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug, Clone)]
pub struct TargetBatch {
    target: TargetKind,
    state: BatchState,
}

impl TargetBatch {
    /// Builds the batch for `target` over `lanes` placed on a
    /// `memory_cells`-cell memory, simulated with `backend` at the automatic
    /// lane width (the narrowest word holding the lane count; see
    /// [`TargetBatch::new_with_width`]). Each lane is simulated on the at
    /// most three cells it involves; `memory_cells` only validates the lanes,
    /// so the batch's cost does not depend on it.
    ///
    /// # Panics
    ///
    /// Panics if a lane's placement is invalid for the target (the enumerated
    /// placements of [`enumerate_lanes`](crate::enumerate_lanes) always are),
    /// names a cell at or beyond `memory_cells`, or starts from a custom
    /// background whose length is not `memory_cells`.
    #[must_use]
    pub fn new(
        target: TargetKind,
        lanes: Vec<CoverageLane>,
        memory_cells: usize,
        backend: BackendKind,
    ) -> TargetBatch {
        TargetBatch::new_with_width(target, lanes, memory_cells, backend, LaneWidth::Auto)
    }

    /// Builds the batch with an explicit packed lane width. The width only
    /// changes how many lanes share one chunk word (and hence the wall-clock
    /// cost); scores, pending sets and snapshots are byte-identical across
    /// widths. The scalar backend ignores the width. Lanes are projected and
    /// validated against `memory_cells` as in [`TargetBatch::new`].
    ///
    /// # Panics
    ///
    /// Panics if a lane's placement is invalid for the target, names a cell
    /// at or beyond `memory_cells`, or starts from a custom background whose
    /// length is not `memory_cells`.
    #[must_use]
    pub fn new_with_width(
        target: TargetKind,
        lanes: Vec<CoverageLane>,
        memory_cells: usize,
        backend: BackendKind,
        width: LaneWidth,
    ) -> TargetBatch {
        let (projected, cells) =
            project_lanes(&lanes, memory_cells).expect("lanes fit the memory they are placed on");
        let state = match backend {
            BackendKind::Scalar => BatchState::Scalar(
                lanes
                    .into_iter()
                    .zip(&projected)
                    .map(|(lane, projected)| ScalarLane {
                        simulator: scalar_lane_simulator(&target, projected, cells),
                        lane,
                    })
                    .collect(),
            ),
            BackendKind::Packed => match width.resolve(lanes.len()) {
                LaneWidth::W128 => {
                    BatchState::Packed128(build_chunks::<W128>(&target, &lanes, &projected, cells))
                }
                LaneWidth::W256 => {
                    BatchState::Packed256(build_chunks::<W256>(&target, &lanes, &projected, cells))
                }
                _ => BatchState::Packed(build_chunks::<u64>(&target, &lanes, &projected, cells)),
            },
        };
        TargetBatch { target, state }
    }

    /// The fault target the batch instantiates.
    #[must_use]
    pub fn target(&self) -> &TargetKind {
        &self.target
    }

    /// Number of lanes not yet detected by the march prefix.
    #[must_use]
    pub fn pending(&self) -> usize {
        match &self.state {
            BatchState::Scalar(lanes) => lanes.len(),
            BatchState::Packed(chunks) => chunks_pending(chunks),
            BatchState::Packed128(chunks) => chunks_pending(chunks),
            BatchState::Packed256(chunks) => chunks_pending(chunks),
        }
    }

    /// The descriptors of the still-undetected lanes.
    #[must_use]
    pub fn pending_lanes(&self) -> Vec<CoverageLane> {
        let mut lanes = Vec::new();
        self.pending_lanes_into(&mut lanes);
        lanes
    }

    /// Appends the descriptors of the still-undetected lanes to `out` without
    /// allocating a fresh vector — callers looping over many batches (escape
    /// reporting, the minimiser's diagnostics) re-use one buffer.
    pub fn pending_lanes_into(&self, out: &mut Vec<CoverageLane>) {
        match &self.state {
            BatchState::Scalar(lanes) => out.extend(lanes.iter().map(|lane| lane.lane.clone())),
            BatchState::Packed(chunks) => chunks_pending_lanes_into(chunks, out),
            BatchState::Packed128(chunks) => chunks_pending_lanes_into(chunks, out),
            BatchState::Packed256(chunks) => chunks_pending_lanes_into(chunks, out),
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

    /// Rewinds the batch to a previously taken [`BatchSnapshot`]. The restore
    /// re-uses the buffers the batch already holds (no allocation when the
    /// shapes match), so trial-restore loops are cheap.
    pub fn restore(&mut self, snapshot: &BatchSnapshot) {
        self.state.clone_from(&snapshot.state);
    }

    /// Executes `elements` from the current lane state and returns `true` if
    /// every still-pending lane detects its fault instance by the end — the
    /// suffix-only re-verification primitive of the redundancy-removal pass.
    ///
    /// The batch state is consumed by the trial (lane states advance with no
    /// compaction); callers restore a snapshot before the next trial. The
    /// scan is lane-major with a fail-fast: the first lane (scalar) or chunk
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
            BatchState::Packed(chunks) => chunks_covers_suffix(chunks, elements),
            BatchState::Packed128(chunks) => chunks_covers_suffix(chunks, elements),
            BatchState::Packed256(chunks) => chunks_covers_suffix(chunks, elements),
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
            BatchState::Packed(chunks) => chunks_score(chunks, element),
            BatchState::Packed128(chunks) => chunks_score(chunks, element),
            BatchState::Packed256(chunks) => chunks_score(chunks, element),
        }
    }

    /// Scores every candidate of `pool` without advancing the batch, returning
    /// the number of still-undetected lanes each candidate would newly detect,
    /// in candidate order.
    ///
    /// On the scalar backend this is the per-candidate reference loop. On the
    /// packed backend each chunk picks, per pool, the cheaper of two exact
    /// strategies: the classic per-candidate packed pass, or transposing the
    /// problem into a candidate wave — each pending lane's state broadcast
    /// across the pool so one bit-parallel pass scores a whole candidate word
    /// at once. The verdicts are byte-identical either way.
    #[must_use]
    pub fn score_pool(&self, pool: &CandidateBatch) -> Vec<usize> {
        self.score_pool_with_factor(pool, WAVE_COST_FACTOR)
    }

    /// [`TargetBatch::score_pool`] with an explicit cost-model factor: the
    /// candidate wave is chosen when `pending × padded slots × factor ≤ Σ
    /// candidate ops`. Both strategies are exact, so every factor returns
    /// identical scores — the tests force each path through this.
    pub(crate) fn score_pool_with_factor(
        &self,
        pool: &CandidateBatch,
        wave_cost_factor: usize,
    ) -> Vec<usize> {
        match &self.state {
            BatchState::Scalar(_) => pool
                .candidates()
                .iter()
                .map(|candidate| self.score(candidate))
                .collect(),
            BatchState::Packed(chunks) => chunks_score_pool(chunks, pool, wave_cost_factor),
            BatchState::Packed128(chunks) => chunks_score_pool(chunks, pool, wave_cost_factor),
            BatchState::Packed256(chunks) => chunks_score_pool(chunks, pool, wave_cost_factor),
        }
    }

    /// Advances the batch by executing `element`; returns the number of lanes
    /// it newly detected (those lanes stop being simulated). Detected lanes
    /// are compacted away so later scoring only pays for pending ones.
    pub fn advance(&mut self, element: &MarchElement) -> usize {
        match &mut self.state {
            BatchState::Scalar(lanes) => {
                let before = lanes.len();
                lanes.retain_mut(|lane| !run_element(element, &mut lane.simulator));
                before - lanes.len()
            }
            BatchState::Packed(chunks) => chunks_advance(chunks, element),
            BatchState::Packed128(chunks) => chunks_advance(chunks, element),
            BatchState::Packed256(chunks) => chunks_advance(chunks, element),
        }
    }
}

/// Splits `lanes` into packed chunks of one `W` word each, every chunk
/// simulating its share of the `projected` lanes on the `cells`-cell
/// projected memory.
fn build_chunks<W: LaneWord>(
    target: &TargetKind,
    lanes: &[CoverageLane],
    projected: &[CoverageLane],
    cells: usize,
) -> Vec<PackedChunk<W>> {
    lanes
        .chunks(W::BITS)
        .zip(projected.chunks(W::BITS))
        .map(|(chunk, projected)| PackedChunk {
            simulator: PackedSimulator::<W>::new(target, projected, cells)
                .expect("enumerated placements are valid"),
            lanes: Arc::new(chunk.to_vec()),
        })
        .collect()
}

fn chunks_pending<W: LaneWord>(chunks: &[PackedChunk<W>]) -> usize {
    chunks.iter().map(PackedChunk::pending).sum()
}

fn chunks_pending_lanes_into<W: LaneWord>(chunks: &[PackedChunk<W>], out: &mut Vec<CoverageLane>) {
    for chunk in chunks {
        let detected = chunk.simulator.detected_mask();
        out.extend(
            chunk
                .lanes
                .iter()
                .enumerate()
                .filter(|(index, _)| !detected.test_bit(*index))
                .map(|(_, lane)| lane.clone()),
        );
    }
}

fn chunks_covers_suffix<W: LaneWord>(
    chunks: &mut [PackedChunk<W>],
    elements: &[MarchElement],
) -> bool {
    chunks.iter_mut().all(|chunk| {
        for element in elements {
            if chunk.simulator.all_detected() {
                return true;
            }
            chunk.simulator.apply_element(element);
        }
        chunk.pending_mask().is_zero()
    })
}

fn chunks_score<W: LaneWord>(chunks: &[PackedChunk<W>], element: &MarchElement) -> usize {
    let mut scratch: Option<PackedSimulator<W>> = None;
    chunks
        .iter()
        .map(|chunk| {
            let scratch = match scratch.as_mut() {
                Some(scratch) => scratch,
                None => scratch.insert(chunk.simulator.clone()),
            };
            chunk.score_one_with(element, scratch)
        })
        .sum()
}

fn chunks_score_pool<W: LaneWord>(
    chunks: &[PackedChunk<W>],
    pool: &CandidateBatch,
    wave_cost_factor: usize,
) -> Vec<usize> {
    let mut scores = vec![0usize; pool.len()];
    let mut scratch: Option<PackedSimulator<W>> = None;
    for chunk in chunks {
        let pending = chunk.pending_mask();
        if pending.is_zero() {
            continue;
        }
        // The wave pays ~`wave_cost_factor` masked group passes per padded
        // slot per pending lane; the per-candidate pass pays one plain pass
        // per operation of every candidate. Saturating: a pathological
        // factor must degrade to the per-candidate path, not wrap around to
        // a spuriously cheap wave.
        let pending_count = pending.count_ones() as usize;
        let wave_cost = pending_count
            .saturating_mul(pool.max_ops())
            .saturating_mul(wave_cost_factor);
        if wave_cost <= pool.total_ops() {
            let mut lanes = pending;
            while !lanes.is_zero() {
                let lane = lanes.trailing_zeros() as usize;
                lanes.clear_lowest_bit();
                let mut detected = chunk.simulator.candidate_wave(lane).run_pool(pool);
                while detected != 0 {
                    let candidate = detected.trailing_zeros() as usize;
                    detected &= detected - 1;
                    scores[candidate] += 1;
                }
            }
        } else {
            // One scratch simulator serves every candidate of every chunk:
            // the trial state is rebuilt with buffer-reusing `clone_from`
            // instead of a fresh allocation per candidate.
            let scratch = match scratch.as_mut() {
                Some(scratch) => scratch,
                None => scratch.insert(chunk.simulator.clone()),
            };
            for (index, candidate) in pool.candidates().iter().enumerate() {
                scores[index] += chunk.score_one_with(candidate, scratch);
            }
        }
    }
    scores
}

fn chunks_advance<W: LaneWord>(chunks: &mut Vec<PackedChunk<W>>, element: &MarchElement) -> usize {
    let mut newly = 0usize;
    for chunk in chunks.iter_mut() {
        let before = chunk.simulator.detected_mask();
        if before == chunk.simulator.lane_mask() {
            continue;
        }
        chunk.simulator.apply_element(element);
        newly += (chunk.simulator.detected_mask() & !before).count_ones() as usize;
    }
    compact_chunks(chunks);
    newly
}

/// Drops fully-detected packed chunks and, when every pending lane fits in
/// one word, merges the survivors into a single dense chunk — so candidate
/// scoring after a long march prefix clones and simulates one small word
/// instead of many sparse ones. Lane order is preserved, keeping pending
/// reporting and scores byte-identical to the uncompacted state.
fn compact_chunks<W: LaneWord>(chunks: &mut Vec<PackedChunk<W>>) {
    chunks.retain(|chunk| chunk.pending() > 0);
    let total: usize = chunks.iter().map(PackedChunk::pending).sum();
    let compactable = chunks.len() > 1
        || chunks
            .first()
            .is_some_and(|chunk| chunk.lanes.len() > total);
    if total == 0 || total > W::BITS || !compactable {
        return;
    }
    let sources: Vec<(&PackedSimulator<W>, W)> = chunks
        .iter()
        .map(|chunk| (&chunk.simulator, chunk.pending_mask()))
        .collect();
    let merged = PackedSimulator::merge_lanes(&sources)
        .expect("at least one pending lane survives compaction");
    let lanes: Vec<CoverageLane> = chunks
        .iter()
        .flat_map(|chunk| {
            let pending = chunk.pending_mask();
            chunk
                .lanes
                .iter()
                .enumerate()
                .filter(move |(index, _)| pending.test_bit(*index))
                .map(|(_, lane)| lane.clone())
        })
        .collect();
    *chunks = vec![PackedChunk {
        lanes: Arc::new(lanes),
        simulator: merged,
    }];
}

impl fmt::Display for TargetBatch {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} ({} pending lanes)", self.target, self.pending())
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
    use crate::{InitialState, InstanceCells, PlacementStrategy, SimulationBackend};
    use march_test::{catalog, MarchTest};
    use sram_fault_model::FaultList;

    fn batches_for(backend: BackendKind) -> Vec<TargetBatch> {
        let list = FaultList::list_2();
        list.linked()
            .iter()
            .map(|fault| {
                let target = TargetKind::Linked(fault.clone());
                let lanes = enumerate_lanes(
                    &target,
                    8,
                    PlacementStrategy::Representative,
                    &[InitialState::AllZero, InitialState::AllOne],
                )
                .unwrap();
                TargetBatch::new(target, lanes, 8, backend)
            })
            .collect()
    }

    /// The 112-lane linked target the width tests use: chunked at width 64,
    /// one word at 128/256.
    fn wide_target() -> (TargetKind, Vec<CoverageLane>) {
        let fault = FaultList::list_1()
            .linked()
            .iter()
            .find(|fault| fault.cell_count() == 2)
            .expect("list #1 has two-cell faults")
            .clone();
        let target = TargetKind::Linked(fault);
        let lanes = enumerate_lanes(
            &target,
            8,
            PlacementStrategy::Exhaustive,
            &[InitialState::AllZero, InitialState::AllOne],
        )
        .unwrap();
        (target, lanes)
    }

    #[test]
    fn batch_incremental_execution_matches_full_runs() {
        // March ABL1 covers list #2: advancing element by element detects
        // every lane exactly once, on both backends.
        let abl1 = catalog::march_abl1();
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            for mut batch in batches_for(backend) {
                let lanes = batch.pending();
                let newly: usize = abl1.iter().map(|(_, element)| batch.advance(element)).sum();
                assert_eq!(newly, lanes, "{}", batch.target());
                assert_eq!(batch.pending(), 0);
            }
        }
    }

    #[test]
    fn scalar_and_packed_batches_advance_identically() {
        let mut scalar = batches_for(BackendKind::Scalar);
        let mut packed = batches_for(BackendKind::Packed);
        for (_, element) in catalog::march_sl().iter() {
            for (s, p) in scalar.iter_mut().zip(packed.iter_mut()) {
                let score_s = s.score(element);
                let score_p = p.score(element);
                assert_eq!(score_s, score_p, "score diverged on {}", s.target());
                assert_eq!(s.advance(element), score_s);
                assert_eq!(p.advance(element), score_p);
                assert_eq!(s.pending(), p.pending());
            }
        }
        assert!(scalar.iter().all(|batch| batch.pending() == 0));
    }

    #[test]
    fn candidate_batch_construction_and_chunking() {
        let pool = catalog::march_sl().elements().to_vec();
        let batch: CandidateBatch = CandidateBatch::new(pool.clone()).unwrap();
        assert_eq!(batch.len(), pool.len());
        assert!(!batch.is_empty());
        assert_eq!(batch.lane_mask().count_ones() as usize, pool.len());
        assert_eq!(batch.candidates(), &pool[..]);
        assert!(matches!(
            CandidateBatch::<u64>::new(Vec::new()),
            Err(SimulationError::LaneCountOutOfRange { requested: 0 })
        ));
        let big: Vec<MarchElement> = vec![pool[0].clone(); 65];
        assert!(CandidateBatch::<u64>::new(big.clone()).is_err());
        // A wider candidate word packs the same 65-element pool whole.
        let wide = CandidateBatch::<W128>::new(big.clone()).unwrap();
        assert_eq!(wide.len(), 65);
        assert_eq!(wide.lane_mask().count_ones(), 65);
        let chunks = CandidateBatch::chunked(&big, 0);
        assert_eq!(chunks.len(), 2);
        assert_eq!(chunks[0].len(), 64);
        assert_eq!(chunks[1].len(), 1);
        let small = CandidateBatch::chunked(&big, 7);
        assert!(small.iter().all(|chunk| chunk.len() <= 7));
        assert_eq!(small.iter().map(CandidateBatch::len).sum::<usize>(), 65);
        assert!(CandidateBatch::chunked(&[], 0).is_empty());
    }

    #[test]
    fn pool_scores_match_sequential_scores_on_both_backends() {
        // A pool mixing lengths, orders and kinds, scored at several march
        // prefixes so both the wave and the per-candidate paths are exercised.
        let mut pool = catalog::march_sl().elements().to_vec();
        pool.extend(catalog::march_ss().elements().iter().cloned());
        pool.extend(catalog::mats_plus().elements().iter().cloned());
        let packed_pool: CandidateBatch = CandidateBatch::new(pool.clone()).unwrap();
        let mut scalar = batches_for(BackendKind::Scalar);
        let mut packed = batches_for(BackendKind::Packed);
        for (_, element) in catalog::march_ss().iter() {
            for (s, p) in scalar.iter_mut().zip(packed.iter_mut()) {
                let sequential: Vec<usize> =
                    pool.iter().map(|candidate| s.score(candidate)).collect();
                assert_eq!(s.score_pool(&packed_pool), sequential, "{}", s.target());
                assert_eq!(p.score_pool(&packed_pool), sequential, "{}", p.target());
                s.advance(element);
                p.advance(element);
            }
        }
    }

    #[test]
    fn packed_compaction_preserves_scores_beyond_64_lanes() {
        // Exhaustive two-cell placements on 8 cells force multiple chunks at
        // width 64 (pinned: `Auto` would pick one 128-lane word and never
        // chunk); advancing detects lanes and compacts the survivors.
        let (target, lanes) = wide_target();
        assert!(lanes.len() > PackedSimulator::<u64>::MAX_LANES);
        let mut scalar = TargetBatch::new(target.clone(), lanes.clone(), 8, BackendKind::Scalar);
        let mut packed =
            TargetBatch::new_with_width(target, lanes, 8, BackendKind::Packed, LaneWidth::W64);
        let pool: CandidateBatch =
            CandidateBatch::new(catalog::march_ss().elements().to_vec()).unwrap();
        for (_, element) in catalog::march_sl().iter() {
            assert_eq!(scalar.advance(element), packed.advance(element));
            assert_eq!(scalar.pending_lanes(), packed.pending_lanes());
            assert_eq!(scalar.score_pool(&pool), packed.score_pool(&pool));
        }
        assert_eq!(packed.pending(), 0);
    }

    #[test]
    fn lane_widths_advance_and_score_identically() {
        // Every lane width must produce the same scores, pending sets and
        // pool scores at every march prefix — the batch-level byte-identity
        // the pipeline-wide differential harness builds on.
        let (target, lanes) = wide_target();
        let mut reference = TargetBatch::new_with_width(
            target.clone(),
            lanes.clone(),
            8,
            BackendKind::Packed,
            LaneWidth::W64,
        );
        let mut wide: Vec<TargetBatch> = [LaneWidth::Auto, LaneWidth::W128, LaneWidth::W256]
            .into_iter()
            .map(|width| {
                TargetBatch::new_with_width(
                    target.clone(),
                    lanes.clone(),
                    8,
                    BackendKind::Packed,
                    width,
                )
            })
            .collect();
        let pool: CandidateBatch =
            CandidateBatch::new(catalog::march_ss().elements().to_vec()).unwrap();
        for (_, element) in catalog::march_sl().iter() {
            let scores = reference.score_pool(&pool);
            let newly = reference.advance(element);
            for batch in wide.iter_mut() {
                assert_eq!(batch.score_pool(&pool), scores);
                assert_eq!(batch.advance(element), newly);
                assert_eq!(batch.pending_lanes(), reference.pending_lanes());
            }
        }
        assert_eq!(reference.pending(), 0);
    }

    #[test]
    fn wave_cost_factor_is_result_invariant() {
        // Factor 0 forces the wave on every chunk, a huge factor forces the
        // per-candidate pass; the scores must not change either way.
        let mut pool = catalog::march_sl().elements().to_vec();
        pool.extend(catalog::mats_plus().elements().iter().cloned());
        let packed_pool: CandidateBatch = CandidateBatch::new(pool).unwrap();
        let batches = batches_for(BackendKind::Packed);
        for batch in &batches {
            let reference = batch.score_pool(&packed_pool);
            for factor in [0usize, 1, 3, 1_000_000] {
                assert_eq!(
                    batch.score_pool_with_factor(&packed_pool, factor),
                    reference,
                    "factor {factor} changed scores on {}",
                    batch.target()
                );
            }
        }
    }

    #[test]
    fn pathological_wave_cost_factors_degrade_to_per_candidate_scoring() {
        // `usize::MAX`-adjacent factors used to overflow the wave-cost
        // product (wrapping to a spuriously cheap wave in release builds);
        // saturating arithmetic must pin them to the per-candidate path with
        // byte-identical scores.
        let pool: CandidateBatch =
            CandidateBatch::new(catalog::march_ss().elements().to_vec()).unwrap();
        let batches = batches_for(BackendKind::Packed);
        for batch in &batches {
            let reference = batch.score_pool(&pool);
            for factor in [
                usize::MAX,
                usize::MAX - 1,
                usize::MAX / 2,
                usize::MAX / 3 + 1,
            ] {
                assert_eq!(
                    batch.score_pool_with_factor(&pool, factor),
                    reference,
                    "factor {factor} changed scores on {}",
                    batch.target()
                );
            }
        }
    }

    #[test]
    fn snapshots_restore_byte_identical_state() {
        // Advance through March SL, snapshotting before every element; each
        // restored snapshot must behave exactly like a batch advanced from
        // scratch through the same prefix.
        let elements: Vec<MarchElement> = catalog::march_sl().elements().to_vec();
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            for mut batch in batches_for(backend) {
                let mut snapshots = vec![batch.snapshot()];
                for element in &elements {
                    batch.advance(element);
                    snapshots.push(batch.snapshot());
                }
                let mut scratch = batch.clone();
                for (prefix_len, snapshot) in snapshots.iter().enumerate() {
                    scratch.restore(snapshot);
                    let mut reference = batches_for(backend)
                        .into_iter()
                        .find(|candidate| candidate.target() == batch.target())
                        .expect("same target set");
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
                    let probe = &elements[0];
                    assert_eq!(scratch.score(probe), reference.score(probe));
                }
            }
        }
    }

    #[test]
    fn wide_snapshots_restore_byte_identical_state() {
        // The snapshot/restore chain carries the wide chunk variants too:
        // restoring across a compaction boundary must rewind exactly.
        let (target, lanes) = wide_target();
        for width in [LaneWidth::W128, LaneWidth::W256] {
            let mut batch = TargetBatch::new_with_width(
                target.clone(),
                lanes.clone(),
                8,
                BackendKind::Packed,
                width,
            );
            let baseline = batch.snapshot();
            let pending_before = batch.pending_lanes();
            let mut slot = batch.snapshot();
            for (_, element) in catalog::march_sl().iter() {
                batch.advance(element);
                batch.snapshot_into(&mut slot);
            }
            assert_eq!(batch.pending(), 0);
            let mut restored = batch.clone();
            restored.restore(&slot);
            assert_eq!(restored.pending(), 0, "width {width}");
            restored.restore(&baseline);
            assert_eq!(restored.pending_lanes(), pending_before, "width {width}");
        }
    }

    #[test]
    fn covers_suffix_matches_the_full_run_verdict() {
        // From the checkpoint before element k, the suffix covers the batch
        // iff the full test covers it — the invariant the suffix-only
        // redundancy-removal pass is built on.
        let complete: Vec<MarchElement> = catalog::march_sl().elements().to_vec();
        let incomplete: Vec<MarchElement> = catalog::mats_plus().elements().to_vec();
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            for (elements, expected) in [(&complete, true), (&incomplete, false)] {
                for batch in batches_for(backend) {
                    let full_expected = expected || {
                        // Some targets are covered even by MATS+.
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
                            trial.covers_suffix(&elements[split.min(elements.len())..]),
                            full_expected,
                            "{} split {split} ({backend:?})",
                            batch.target()
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
        let mut batch = batches_for(BackendKind::Packed).remove(0);
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
        TargetBatch::new(target, lanes, 8, backend)
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
        // cells, so the one-cell lanes are padded onto the two-cell memory.
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
            let mut batch = TargetBatch::new(target.clone(), lanes.clone(), 8, backend);
            for prefix in 1..=elements.len() {
                batch.advance(&elements[prefix - 1]);
                let test = MarchTest::new("prefix", elements[..prefix].to_vec()).unwrap();
                let full_memory = crate::ScalarBackend.lane_verdicts(&test, &target, &lanes, 8);
                let pending: Vec<CoverageLane> = lanes
                    .iter()
                    .zip(full_memory)
                    .filter(|(_, detected)| !detected)
                    .map(|(lane, _)| lane.clone())
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
        let mut scalar = batches_for(BackendKind::Scalar);
        let mut packed = batches_for(BackendKind::Packed);
        // Advance by an incomplete prefix and compare the surviving lanes.
        let element = catalog::mats_plus().elements()[0].clone();
        for (s, p) in scalar.iter_mut().zip(packed.iter_mut()) {
            s.advance(&element);
            p.advance(&element);
            assert_eq!(s.pending_lanes(), p.pending_lanes());
            assert!(!s.to_string().is_empty());
        }
    }
}
