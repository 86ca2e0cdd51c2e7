//! Simulation backends: the scalar dual-memory engine and the bit-parallel
//! packed engine behind one common [`SimulationBackend`] trait.
//!
//! A *coverage lane* is one `(cell placement, initial background)` pair a march
//! test must detect a fault target under. The scalar backend simulates lanes
//! one at a time with [`FaultSimulator`]; the packed backend pins each lane to
//! one bit of a lane word ([`LaneWord`]: `u64`, or a `[u64; N]` block for 128
//! and 256 lanes) and evaluates a whole word of lanes per memory operation
//! with branch-free bitwise sensitization/effect arithmetic — the hot-path
//! optimisation that makes the generator's simulation-backed greedy search and
//! the coverage matrix fast. The lane width is a policy knob
//! ([`LaneWidth`](crate::LaneWidth)): verdicts are byte-identical across
//! widths, wider words just carry more lanes per pass.

use std::fmt;
use std::str::FromStr;

use march_test::{MarchElement, MarchTest};
use sram_fault_model::{Bit, DecoderFault, FaultPrimitive, Operation, SensitizingSite};

use crate::batch::CandidateBatch;
use crate::coverage::TargetKind;
use crate::lane::{broadcast, condition_mask, LaneWidth, LaneWord, W128, W256};
use crate::placement::{placement_shape, PlacementShape};
use crate::{
    run_march, DecoderFaultInstance, FaultSimulator, InitialState, InjectedFault, InstanceCells,
    LinkedFaultInstance, PlacementStrategy, SimulationError,
};

/// One `(placement, background)` combination a target is simulated under.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CoverageLane {
    /// The cell assignment of the fault instance.
    pub cells: InstanceCells,
    /// The initial memory content of the run.
    pub background: InitialState,
}

/// Enumerates the coverage lanes of `target`: every placement returned by
/// [`enumerate_placements`](crate::enumerate_placements) (cell-array targets)
/// or [`enumerate_decoder_placements`](crate::enumerate_decoder_placements)
/// (address-decoder targets), crossed with every background — placements
/// outermost, matching the scalar engine's historical escape-reporting
/// order. The lanes depend only on the target's placement shape, which is
/// how [`Session::target_lanes`](crate::Session::target_lanes) shares one
/// enumeration between every target of a shape.
///
/// # Errors
///
/// Returns [`SimulationError::MemoryTooSmall`] when the memory cannot host
/// the target's placements.
pub fn enumerate_lanes(
    target: &TargetKind,
    memory_cells: usize,
    strategy: PlacementStrategy,
    backgrounds: &[InitialState],
) -> Result<Vec<CoverageLane>, SimulationError> {
    shape_lanes(placement_shape(target), memory_cells, strategy, backgrounds)
}

/// The coverage lanes of every target of `shape`: see [`enumerate_lanes`].
pub(crate) fn shape_lanes(
    shape: PlacementShape,
    memory_cells: usize,
    strategy: PlacementStrategy,
    backgrounds: &[InitialState],
) -> Result<Vec<CoverageLane>, SimulationError> {
    let placements = shape.placements(memory_cells, strategy)?;
    let mut lanes = Vec::with_capacity(placements.len() * backgrounds.len());
    for cells in placements {
        for background in backgrounds {
            lanes.push(CoverageLane {
                cells,
                background: background.clone(),
            });
        }
    }
    Ok(lanes)
}

/// Which simulation backend a coverage or generation run uses.
///
/// The packed engine is the default everywhere (its verdicts are proven
/// byte-identical to the scalar reference); `Scalar` is the explicit opt-out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum BackendKind {
    /// The dual-memory scalar engine: one fault instance at a time.
    Scalar,
    /// The bit-parallel packed engine: one word of fault instances (64–256
    /// lanes, see [`LaneWidth`](crate::LaneWidth)) per pass.
    #[default]
    Packed,
}

impl BackendKind {
    /// Instantiates the backend with its default lane width
    /// ([`LaneWidth::Auto`]).
    #[must_use]
    pub fn instance(self) -> Box<dyn SimulationBackend> {
        self.instance_with(LaneWidth::default())
    }

    /// Instantiates the backend with an explicit packed lane width (ignored
    /// by the scalar backend, which has no lanes to pack).
    #[must_use]
    pub fn instance_with(self, width: LaneWidth) -> Box<dyn SimulationBackend> {
        match self {
            BackendKind::Scalar => Box::new(ScalarBackend),
            BackendKind::Packed => Box::new(PackedBackend::with_width(width)),
        }
    }

    /// The backend's short name (`scalar` / `packed`).
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Scalar => "scalar",
            BackendKind::Packed => "packed",
        }
    }
}

impl fmt::Display for BackendKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

impl FromStr for BackendKind {
    type Err = SimulationError;

    fn from_str(text: &str) -> Result<BackendKind, SimulationError> {
        match text.trim().to_ascii_lowercase().as_str() {
            "scalar" => Ok(BackendKind::Scalar),
            "packed" => Ok(BackendKind::Packed),
            other => Err(SimulationError::UnknownBackend(other.to_string())),
        }
    }
}

/// A strategy for fault-simulating a march test against every coverage lane of
/// one fault target.
///
/// Both backends implement the *same* detection semantics (see
/// [`FaultSimulator`] for the reference definition); they differ only in how
/// lanes are evaluated. The packed backend is validated against the scalar one
/// by the `backend_equivalence` property tests.
pub trait SimulationBackend: fmt::Debug + Send + Sync {
    /// The backend's short name, for reports and benchmarks.
    fn name(&self) -> &'static str;

    /// The detection verdict of `test` for every lane, in lane order.
    fn lane_verdicts(
        &self,
        test: &MarchTest,
        target: &TargetKind,
        lanes: &[CoverageLane],
        memory_cells: usize,
    ) -> Vec<bool>;

    /// The index of the first lane `test` fails to detect, or `None` when the
    /// target is fully covered. Backends may early-exit here.
    fn first_undetected(
        &self,
        test: &MarchTest,
        target: &TargetKind,
        lanes: &[CoverageLane],
        memory_cells: usize,
    ) -> Option<usize> {
        self.lane_verdicts(test, target, lanes, memory_cells)
            .iter()
            .position(|detected| !detected)
    }
}

/// Builds the scalar simulator for one lane of `target`.
pub(crate) fn scalar_lane_simulator(
    target: &TargetKind,
    lane: &CoverageLane,
    memory_cells: usize,
) -> FaultSimulator {
    let mut simulator = FaultSimulator::new(memory_cells, &lane.background)
        .expect("coverage memory configuration is valid");
    match target {
        TargetKind::Simple(primitive) => {
            let injected = if primitive.is_coupling() {
                InjectedFault::coupling(
                    primitive.clone(),
                    lane.cells.aggressor_first.expect("pair placement"),
                    lane.cells.victim,
                    memory_cells,
                )
            } else {
                InjectedFault::single_cell(primitive.clone(), lane.cells.victim, memory_cells)
            }
            .expect("enumerated placements are valid");
            simulator.inject(injected);
        }
        TargetKind::Linked(fault) => {
            let instance = LinkedFaultInstance::new(fault.clone(), lane.cells, memory_cells)
                .expect("enumerated placements are valid");
            simulator.inject_linked(&instance);
        }
        TargetKind::Decoder(fault) => {
            let instance = DecoderFaultInstance::new(*fault, lane.cells, memory_cells)
                .expect("enumerated placements are valid");
            simulator.inject_decoder(instance);
        }
    }
    simulator
}

/// The original dual-memory engine exposed through the backend trait: each lane
/// is simulated independently with [`FaultSimulator`] + [`run_march`].
#[derive(Debug, Clone, Copy, Default)]
pub struct ScalarBackend;

impl SimulationBackend for ScalarBackend {
    fn name(&self) -> &'static str {
        "scalar"
    }

    fn lane_verdicts(
        &self,
        test: &MarchTest,
        target: &TargetKind,
        lanes: &[CoverageLane],
        memory_cells: usize,
    ) -> Vec<bool> {
        lanes
            .iter()
            .map(|lane| {
                let mut simulator = scalar_lane_simulator(target, lane, memory_cells);
                run_march(test, &mut simulator).detected()
            })
            .collect()
    }

    fn first_undetected(
        &self,
        test: &MarchTest,
        target: &TargetKind,
        lanes: &[CoverageLane],
        memory_cells: usize,
    ) -> Option<usize> {
        lanes.iter().position(|lane| {
            let mut simulator = scalar_lane_simulator(target, lane, memory_cells);
            !run_march(test, &mut simulator).detected()
        })
    }
}

/// The bit-parallel engine exposed through the backend trait: lanes are packed
/// one word per [`PackedSimulator`], with the word width set by the
/// configured [`LaneWidth`] (`Auto` picks the narrowest width holding the
/// lane count, so small targets keep the cheap `u64` word and large decoder
/// spaces pack 256 lanes per pass).
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend {
    width: LaneWidth,
}

impl PackedBackend {
    /// A packed backend pinned to (or auto-selecting) the given lane width.
    #[must_use]
    pub fn with_width(width: LaneWidth) -> PackedBackend {
        PackedBackend { width }
    }

    /// The configured lane width.
    #[must_use]
    pub fn width(&self) -> LaneWidth {
        self.width
    }
}

/// The width-generic body of [`PackedBackend::lane_verdicts`]. One scratch
/// simulator is re-packed per chunk so the plane allocations are paid once
/// per lane set, not once per chunk.
fn packed_verdicts<W: LaneWord>(
    test: &MarchTest,
    target: &TargetKind,
    lanes: &[CoverageLane],
    memory_cells: usize,
) -> Vec<bool> {
    let mut verdicts = Vec::with_capacity(lanes.len());
    let mut scratch: Option<PackedSimulator<W>> = None;
    for chunk in lanes.chunks(W::BITS) {
        let simulator = repacked(&mut scratch, target, chunk, memory_cells);
        let detected = simulator.run_test(test);
        for lane in 0..chunk.len() {
            verdicts.push(detected.test_bit(lane));
        }
    }
    verdicts
}

/// The width-generic body of [`PackedBackend::first_undetected`]. Chunks
/// re-pack one scratch simulator, exactly like [`packed_verdicts`].
fn packed_first_undetected<W: LaneWord>(
    test: &MarchTest,
    target: &TargetKind,
    lanes: &[CoverageLane],
    memory_cells: usize,
) -> Option<usize> {
    let mut scratch: Option<PackedSimulator<W>> = None;
    for (chunk_index, chunk) in lanes.chunks(W::BITS).enumerate() {
        let simulator = repacked(&mut scratch, target, chunk, memory_cells);
        let detected = simulator.run_test(test);
        if detected != simulator.lane_mask() {
            let undetected = !detected & simulator.lane_mask();
            return Some(chunk_index * W::BITS + undetected.trailing_zeros() as usize);
        }
    }
    None
}

/// Builds the scratch simulator on the first chunk and re-packs it (re-using
/// its plane buffers) on every later one.
fn repacked<'scratch, W: LaneWord>(
    scratch: &'scratch mut Option<PackedSimulator<W>>,
    target: &TargetKind,
    chunk: &[CoverageLane],
    memory_cells: usize,
) -> &'scratch mut PackedSimulator<W> {
    match scratch {
        None => scratch.insert(
            PackedSimulator::new(target, chunk, memory_cells)
                .expect("enumerated placements are valid"),
        ),
        Some(simulator) => {
            simulator
                .repack(target, chunk)
                .expect("enumerated placements are valid");
            simulator
        }
    }
}

impl SimulationBackend for PackedBackend {
    fn name(&self) -> &'static str {
        "packed"
    }

    fn lane_verdicts(
        &self,
        test: &MarchTest,
        target: &TargetKind,
        lanes: &[CoverageLane],
        memory_cells: usize,
    ) -> Vec<bool> {
        match self.width.resolve(lanes.len()) {
            LaneWidth::W128 => packed_verdicts::<W128>(test, target, lanes, memory_cells),
            LaneWidth::W256 => packed_verdicts::<W256>(test, target, lanes, memory_cells),
            _ => packed_verdicts::<u64>(test, target, lanes, memory_cells),
        }
    }

    fn first_undetected(
        &self,
        test: &MarchTest,
        target: &TargetKind,
        lanes: &[CoverageLane],
        memory_cells: usize,
    ) -> Option<usize> {
        match self.width.resolve(lanes.len()) {
            LaneWidth::W128 => packed_first_undetected::<W128>(test, target, lanes, memory_cells),
            LaneWidth::W256 => packed_first_undetected::<W256>(test, target, lanes, memory_cells),
            _ => packed_first_undetected::<u64>(test, target, lanes, memory_cells),
        }
    }
}

/// One fault-primitive component of the packed target, with its per-lane cell
/// bindings encoded as bit-plane masks.
#[derive(Debug)]
struct PackedComponent<W: LaneWord> {
    /// The primitive — identical across lanes (lanes vary only placement and
    /// background).
    primitive: FaultPrimitive,
    /// `victim_at[cell]`: lanes whose victim is bound to `cell`.
    victim_at: Vec<W>,
    /// `aggressor_at[cell]`: lanes whose aggressor is bound to `cell` (all-zero
    /// planes for single-cell primitives).
    aggressor_at: Vec<W>,
}

impl<W: LaneWord> Clone for PackedComponent<W> {
    fn clone(&self) -> PackedComponent<W> {
        PackedComponent {
            primitive: self.primitive.clone(),
            victim_at: self.victim_at.clone(),
            aggressor_at: self.aggressor_at.clone(),
        }
    }

    fn clone_from(&mut self, source: &PackedComponent<W>) {
        self.primitive.clone_from(&source.primitive);
        self.victim_at.clone_from(&source.victim_at);
        self.aggressor_at.clone_from(&source.aggressor_at);
    }
}

impl<W: LaneWord> PackedComponent<W> {
    fn new(primitive: FaultPrimitive, cells: usize) -> PackedComponent<W> {
        PackedComponent {
            primitive,
            victim_at: vec![W::ZERO; cells],
            aggressor_at: vec![W::ZERO; cells],
        }
    }

    fn bind(&mut self, lane: usize, victim: usize, aggressor: Option<usize>) {
        *self.victim_at[victim].limb_mut(lane >> 6) |= 1 << (lane & 63);
        if let Some(aggressor) = aggressor {
            *self.aggressor_at[aggressor].limb_mut(lane >> 6) |= 1 << (lane & 63);
        }
    }

    /// Clears every lane binding so the planes can be re-bound to a new chunk.
    fn reset(&mut self) {
        self.victim_at.fill(W::ZERO);
        self.aggressor_at.fill(W::ZERO);
    }
}

/// The packed lane descriptors of an address-decoder target: the fault class
/// (identical across lanes), a bit-plane binding each lane's perturbed
/// *source* address — the decoder analogue of [`PackedComponent`]'s
/// victim/aggressor planes, so AF targets pack exactly like FFM targets —
/// and a dense per-lane *destination* table. The destination is a table
/// rather than a bit-plane on purpose: resolving a redirected access then
/// costs `O(popcount(redirected lanes))` random accesses instead of an
/// `O(cells)` plane scan, which is what keeps the decode perturbation cheap
/// on 1k+-cell memories.
#[derive(Debug)]
struct PackedDecoder<W: LaneWord> {
    fault: DecoderFault,
    /// `source_at[cell]`: lanes whose perturbed address is `cell`.
    source_at: Vec<W>,
    /// `dest_of_lane[lane]`: the destination cell of the lane's instance
    /// (`usize::MAX` for the destination-less *no cell accessed* class, which
    /// never reads the table).
    dest_of_lane: Vec<usize>,
    /// The cells with at least one bit set in `source_at`, so `reset` clears
    /// a handful of plane words instead of sweeping the whole plane. Lanes
    /// cluster by perturbed address (the enumeration orders placements by
    /// primary), so this stays far smaller than the cell count per chunk.
    bound_sources: Vec<usize>,
}

impl<W: LaneWord> Clone for PackedDecoder<W> {
    fn clone(&self) -> PackedDecoder<W> {
        PackedDecoder {
            fault: self.fault,
            source_at: self.source_at.clone(),
            dest_of_lane: self.dest_of_lane.clone(),
            bound_sources: self.bound_sources.clone(),
        }
    }

    fn clone_from(&mut self, source: &PackedDecoder<W>) {
        self.fault = source.fault;
        self.source_at.clone_from(&source.source_at);
        self.dest_of_lane.clone_from(&source.dest_of_lane);
        self.bound_sources.clone_from(&source.bound_sources);
    }
}

impl<W: LaneWord> PackedDecoder<W> {
    fn new(fault: DecoderFault, cells: usize) -> PackedDecoder<W> {
        PackedDecoder {
            fault,
            source_at: vec![W::ZERO; cells],
            dest_of_lane: Vec::new(),
            bound_sources: Vec::new(),
        }
    }

    fn bind(&mut self, lane: usize, instance: &DecoderFaultInstance) {
        let source = instance.source();
        if self.source_at[source].is_zero() {
            self.bound_sources.push(source);
        }
        *self.source_at[source].limb_mut(lane >> 6) |= 1 << (lane & 63);
        if self.dest_of_lane.len() <= lane {
            self.dest_of_lane.resize(lane + 1, usize::MAX);
        }
        self.dest_of_lane[lane] = instance.destination().unwrap_or(usize::MAX);
    }

    /// Clears every lane binding so the planes can be re-bound to a new
    /// chunk. Only the plane words actually bound since the last reset are
    /// touched, so re-packing does not re-sweep the whole plane.
    fn reset(&mut self) {
        for source in self.bound_sources.drain(..) {
            self.source_at[source] = W::ZERO;
        }
        self.dest_of_lane.clear();
    }

    /// The destination cell of `lane`, if its instance has one.
    fn destination(&self, lane: usize) -> Option<usize> {
        self.dest_of_lane
            .get(lane)
            .copied()
            .filter(|&cell| cell != usize::MAX)
    }

    /// Per-lane value of each redirected lane's destination cell, gathered in
    /// lane position. Walks the word limb by limb so the per-lane cost stays
    /// `O(1)` at every width — `O(popcount(lanes))` total, not
    /// `O(popcount · LIMBS)`.
    fn gather_destinations(&self, planes: &[W], lanes: W) -> W {
        let mut values = W::ZERO;
        for index in 0..W::LIMBS {
            let mut pending = lanes.limb(index);
            if pending == 0 {
                continue;
            }
            let base = index * 64;
            let mut gathered = 0u64;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                gathered |= planes[self.dest_of_lane[base + lane]].limb(index) & (1u64 << lane);
            }
            *values.limb_mut(index) = gathered;
        }
        values
    }

    /// Forces the broadcast `bits` into each redirected lane's destination
    /// cell, limb by limb: `O(popcount(lanes))` total at every width. `bits`
    /// is a written value broadcast over every lane, so each limb is all-ones
    /// or all-zeros — the per-lane write is a plain set or clear, picked once
    /// per limb.
    fn scatter_destinations(&self, planes: &mut [W], lanes: W, bits: W) {
        for index in 0..W::LIMBS {
            let mut pending = lanes.limb(index);
            if pending == 0 {
                continue;
            }
            let base = index * 64;
            let ones = bits.limb(index) != 0;
            while pending != 0 {
                let lane = pending.trailing_zeros() as usize;
                pending &= pending - 1;
                let bit = 1u64 << lane;
                let limb = planes[self.dest_of_lane[base + lane]].limb_mut(index);
                if ones {
                    *limb |= bit;
                } else {
                    *limb &= !bit;
                }
            }
        }
    }
}

/// A bit-parallel fault simulator: one word of independent fault instances of
/// the *same* target (one lane per `(placement, background)` pair) simulated
/// simultaneously, one bit per lane. The word type `W` sets the lane capacity:
/// `u64` (the default) carries 64 lanes, the [`W128`]/[`W256`] blocks carry
/// 128/256 — wider words quarter the chunk count on large lane sets while
/// producing bit-identical verdicts.
///
/// The memory is stored as bit-planes: `faulty[cell]` holds the faulty value of
/// `cell` in every lane, `golden[cell]` the fault-free reference. Each march
/// operation is evaluated with pure bitwise arithmetic — sensitization
/// conditions become AND/NOT masks over gathered victim/aggressor planes, fault
/// effects become masked scatter writes — so the per-operation cost is
/// independent of the number of lanes.
///
/// The semantics mirror [`FaultSimulator`] exactly, step for step (fire
/// detection on the pre-operation state, read override, fault-free effect,
/// fault effects in injection order, then one settle pass of the
/// state-sensitized primitives).
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::FaultList;
/// use sram_sim::{
///     enumerate_lanes, PackedSimulator, PlacementStrategy, InitialState, TargetKind, W256,
/// };
///
/// let fault = FaultList::list_2().linked()[0].clone();
/// let target = TargetKind::Linked(fault);
/// let lanes = enumerate_lanes(
///     &target,
///     8,
///     PlacementStrategy::Exhaustive,
///     &[InitialState::AllZero, InitialState::AllOne],
/// )?;
/// // The default word packs 64 lanes ...
/// let mut simulator: PackedSimulator = PackedSimulator::new(&target, &lanes, 8)?;
/// let detected = simulator.run_test(&catalog::march_sl());
/// assert_eq!(detected, simulator.lane_mask(), "March SL covers every lane");
/// // ... and a `[u64; 4]` block packs 256 with identical verdicts.
/// let mut wide = PackedSimulator::<W256>::new(&target, &lanes, 8)?;
/// let wide_detected = wide.run_test(&catalog::march_sl());
/// assert_eq!(wide_detected, wide.lane_mask());
/// # Ok::<(), sram_sim::SimulationError>(())
/// ```
#[derive(Debug)]
pub struct PackedSimulator<W: LaneWord = u64> {
    cells: usize,
    lanes: usize,
    lane_mask: W,
    faulty: Vec<W>,
    golden: Vec<W>,
    components: Vec<PackedComponent<W>>,
    decoder: Option<PackedDecoder<W>>,
    /// Whether any component is state-sensitized (SF, CFst): when `false`,
    /// the per-operation settle pass — an `O(cells)` gather — is skipped
    /// entirely, which matters on large memories and on decoder targets
    /// (whose component list is empty).
    has_state_faults: bool,
    detected: W,
}

impl<W: LaneWord> Clone for PackedSimulator<W> {
    fn clone(&self) -> PackedSimulator<W> {
        PackedSimulator {
            cells: self.cells,
            lanes: self.lanes,
            lane_mask: self.lane_mask,
            faulty: self.faulty.clone(),
            golden: self.golden.clone(),
            components: self.components.clone(),
            decoder: self.decoder.clone(),
            has_state_faults: self.has_state_faults,
            detected: self.detected,
        }
    }

    /// Field-wise `clone_from` so the bit-plane buffers are re-used when a
    /// snapshot is restored into an existing simulator of the same memory size
    /// — the hot restore of the suffix-only redundancy-removal trials.
    fn clone_from(&mut self, source: &PackedSimulator<W>) {
        self.cells = source.cells;
        self.lanes = source.lanes;
        self.lane_mask = source.lane_mask;
        self.faulty.clone_from(&source.faulty);
        self.golden.clone_from(&source.golden);
        self.components.clone_from(&source.components);
        match (&mut self.decoder, &source.decoder) {
            (Some(into), Some(from)) => into.clone_from(from),
            (into, from) => *into = from.clone(),
        }
        self.has_state_faults = source.has_state_faults;
        self.detected = source.detected;
    }
}

impl<W: LaneWord> PackedSimulator<W> {
    /// The maximum number of lanes this simulator's word holds.
    pub const MAX_LANES: usize = W::BITS;

    /// Packs every lane of `target` into one simulator.
    ///
    /// # Errors
    ///
    /// * [`SimulationError::LaneCountOutOfRange`] if `lanes` is empty or holds
    ///   more than [`PackedSimulator::MAX_LANES`] entries (split larger lane
    ///   sets into chunks, as [`PackedBackend`] does);
    /// * otherwise propagates the placement-validation errors of
    ///   [`InjectedFault`] / [`LinkedFaultInstance`] and the
    ///   background-materialisation errors of [`InitialState`].
    pub fn new(
        target: &TargetKind,
        lanes: &[CoverageLane],
        memory_cells: usize,
    ) -> Result<PackedSimulator<W>, SimulationError> {
        // One component per fault primitive, bound lane by lane through the
        // scalar constructors so that validation and aggressor resolution are
        // byte-for-byte the scalar engine's. Decoder targets have no array
        // component; their lane bindings live in the packed decoder planes.
        let components: Vec<PackedComponent<W>> = match target {
            TargetKind::Simple(primitive) => {
                vec![PackedComponent::new(primitive.clone(), memory_cells)]
            }
            TargetKind::Linked(fault) => vec![
                PackedComponent::new(fault.first().clone(), memory_cells),
                PackedComponent::new(fault.second().clone(), memory_cells),
            ],
            TargetKind::Decoder(_) => Vec::new(),
        };
        let decoder = match target {
            TargetKind::Decoder(fault) => Some(PackedDecoder::new(*fault, memory_cells)),
            _ => None,
        };
        let has_state_faults = components
            .iter()
            .any(|component| component.primitive.sensitizing_site() == SensitizingSite::None);
        let mut simulator = PackedSimulator {
            cells: memory_cells,
            lanes: 0,
            lane_mask: W::ZERO,
            faulty: vec![W::ZERO; memory_cells],
            golden: vec![W::ZERO; memory_cells],
            components,
            decoder,
            has_state_faults,
            detected: W::ZERO,
        };
        simulator.pack(target, lanes)?;
        Ok(simulator)
    }

    /// Re-packs this simulator onto a new chunk of lanes of the *same*
    /// `target` it was constructed for, re-using every plane allocation — the
    /// chunk-loop companion of `new` that keeps per-chunk construction free of
    /// allocator traffic when a backend walks a large lane set
    /// (`first_undetected` / `lane_verdicts` re-pack one scratch simulator
    /// per chunk instead of building hundreds of fresh ones).
    ///
    /// # Errors
    ///
    /// Exactly the errors of [`PackedSimulator::new`]. On error the simulator
    /// is left partially re-bound and must not be run until a later `repack`
    /// succeeds.
    pub fn repack(
        &mut self,
        target: &TargetKind,
        lanes: &[CoverageLane],
    ) -> Result<(), SimulationError> {
        for component in &mut self.components {
            component.reset();
        }
        if let Some(decoder) = &mut self.decoder {
            decoder.reset();
        }
        self.pack(target, lanes)
    }

    /// The shared body of `new` and `repack`: binds every lane of `lanes`
    /// into the (cleared) planes and initialises the memory state. `target`
    /// must be the target the component/decoder planes were allocated for.
    fn pack(&mut self, target: &TargetKind, lanes: &[CoverageLane]) -> Result<(), SimulationError> {
        if lanes.is_empty() || lanes.len() > Self::MAX_LANES {
            return Err(SimulationError::LaneCountOutOfRange {
                requested: lanes.len(),
            });
        }
        let memory_cells = self.cells;

        // Lanes sharing a background share one mask. The two uniform
        // backgrounds — by far the common case — collapse into a single word
        // each (`ones`: lanes whose every cell starts at one), so the memory
        // fill below is one `fill` over the planes instead of a per-cell
        // branch per background; only patterned backgrounds (checkerboard,
        // custom images) pay the `O(cells)` materialise-and-scan.
        let mut ones = W::ZERO;
        let mut patterned: Vec<(&InitialState, W)> = Vec::new();
        for (lane, coverage_lane) in lanes.iter().enumerate() {
            match target {
                TargetKind::Simple(primitive) => {
                    let injected = if primitive.is_coupling() {
                        InjectedFault::coupling(
                            primitive.clone(),
                            coverage_lane.cells.aggressor_first.ok_or_else(|| {
                                SimulationError::MissingCells(
                                    "coupling primitive requires an aggressor cell".to_string(),
                                )
                            })?,
                            coverage_lane.cells.victim,
                            memory_cells,
                        )?
                    } else {
                        InjectedFault::single_cell(
                            primitive.clone(),
                            coverage_lane.cells.victim,
                            memory_cells,
                        )?
                    };
                    self.components[0].bind(lane, injected.victim(), injected.aggressor());
                }
                TargetKind::Linked(fault) => {
                    let instance =
                        LinkedFaultInstance::new(fault.clone(), coverage_lane.cells, memory_cells)?;
                    for (component, injected) in
                        self.components.iter_mut().zip(instance.components())
                    {
                        component.bind(lane, injected.victim(), injected.aggressor());
                    }
                }
                TargetKind::Decoder(fault) => {
                    let instance =
                        DecoderFaultInstance::new(*fault, coverage_lane.cells, memory_cells)?;
                    self.decoder
                        .as_mut()
                        .expect("decoder targets allocate decoder planes")
                        .bind(lane, &instance);
                }
            }

            match &coverage_lane.background {
                InitialState::AllZero => {}
                InitialState::AllOne => *ones.limb_mut(lane >> 6) |= 1 << (lane & 63),
                background => {
                    let bit = W::bit(lane);
                    match patterned
                        .iter_mut()
                        .find(|(candidate, _)| *candidate == background)
                    {
                        Some((_, mask)) => *mask |= bit,
                        None => patterned.push((background, bit)),
                    }
                }
            }
        }

        self.faulty.fill(ones);
        if patterned.is_empty() {
            self.golden.fill(ones);
        } else {
            for (background, mask) in patterned {
                let content = background.materialise(memory_cells)?;
                for (cell, bit) in content.iter().enumerate() {
                    if *bit == Bit::One {
                        self.faulty[cell] |= mask;
                    }
                }
            }
            self.golden.clone_from(&self.faulty);
        }

        // One shared width-generic boundary: `full_mask` handles the
        // n == width case that used to be special-cased here and in
        // `merge_lanes`.
        self.lanes = lanes.len();
        self.lane_mask = W::full_mask(lanes.len());
        self.detected = W::ZERO;
        // State-sensitized primitives settle once right after initialisation,
        // exactly like the scalar engine's post-inject pass.
        self.settle_state_faults();
        Ok(())
    }

    /// The number of packed lanes.
    #[must_use]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// The number of memory cells.
    #[must_use]
    pub fn cells(&self) -> usize {
        self.cells
    }

    /// The mask with one bit set per packed lane.
    #[must_use]
    pub fn lane_mask(&self) -> W {
        self.lane_mask
    }

    /// Lanes on which at least one read has mismatched so far.
    #[must_use]
    pub fn detected_mask(&self) -> W {
        self.detected
    }

    /// Returns `true` once every lane has detected its fault instance.
    #[must_use]
    pub fn all_detected(&self) -> bool {
        self.detected == self.lane_mask
    }

    /// Per-lane value of the component's bound cell: OR of the memory planes
    /// masked by the binding planes (each lane has exactly one bound cell).
    #[inline]
    fn gather(planes: &[W], bound_at: &[W]) -> W {
        let mut values = W::ZERO;
        for (plane, bound) in planes.iter().zip(bound_at) {
            values |= *plane & *bound;
        }
        values
    }

    /// Lanes in which `component` is sensitized by applying `operation` to
    /// `address`, evaluated on the pre-operation faulty state.
    fn sensitized_mask(
        &self,
        component: &PackedComponent<W>,
        address: usize,
        operation: Operation,
    ) -> W {
        let primitive = &component.primitive;
        let site_mask = match primitive.sensitizing_site() {
            SensitizingSite::None => return W::ZERO,
            SensitizingSite::Victim => component.victim_at[address],
            SensitizingSite::Aggressor => component.aggressor_at[address],
        };
        if site_mask.is_zero() {
            return W::ZERO;
        }
        let required = primitive
            .sensitizing_operation()
            .expect("operation-sensitized primitive has an operation");
        if !required.matches(operation) {
            return W::ZERO;
        }
        let victim_values = Self::gather(&self.faulty, &component.victim_at);
        let mut mask = site_mask & condition_mask(primitive.victim().initial(), victim_values);
        if let Some(aggressor) = primitive.aggressor() {
            let aggressor_values = Self::gather(&self.faulty, &component.aggressor_at);
            mask &= condition_mask(aggressor.initial(), aggressor_values);
        }
        mask
    }

    /// Masked scatter: forces `bit` into the component's victim cells on the
    /// lanes of `mask`.
    fn scatter_victim(faulty: &mut [W], component: &PackedComponent<W>, bit: Bit, mask: W) {
        if mask.is_zero() {
            return;
        }
        let bits = broadcast::<W>(bit);
        for (plane, victim) in faulty.iter_mut().zip(&component.victim_at) {
            let write = mask & *victim;
            *plane = (*plane & !write) | (bits & write);
        }
    }

    /// One pass over the state-sensitized primitives in injection order,
    /// flipping the victims of every lane whose state condition holds.
    /// Free when the target has no state-sensitized primitive.
    fn settle_state_faults(&mut self) {
        if !self.has_state_faults {
            return;
        }
        for index in 0..self.components.len() {
            let component = &self.components[index];
            let primitive = &component.primitive;
            if primitive.sensitizing_site() != SensitizingSite::None {
                continue;
            }
            let victim_values = Self::gather(&self.faulty, &component.victim_at);
            let mut mask =
                self.lane_mask & condition_mask(primitive.victim().initial(), victim_values);
            if let Some(aggressor) = primitive.aggressor() {
                let aggressor_values = Self::gather(&self.faulty, &component.aggressor_at);
                mask &= condition_mask(aggressor.initial(), aggressor_values);
            }
            if let Some(forced) = primitive.effect().victim_value().to_bit() {
                let component = &self.components[index];
                Self::scatter_victim(&mut self.faulty, component, forced, mask);
            }
        }
    }

    /// Applies one memory operation to cell `address` of every lane.
    ///
    /// # Panics
    ///
    /// Panics if `address` is out of range.
    pub fn apply(&mut self, address: usize, operation: Operation) {
        assert!(
            address < self.cells,
            "cell address {address} out of range for a {}-cell memory",
            self.cells
        );

        // 1. Which operation-sensitized primitives fire, per lane?
        let mut fired = [W::ZERO; 2];
        for (index, component) in self.components.iter().enumerate() {
            fired[index] = self.sensitized_mask(component, address, operation);
        }

        // 2. Read return values and detection. The decoder perturbation (if
        // any) resolves first — it sits in front of the array — then the
        // fired primitives' read overrides, exactly as in the scalar engine.
        if operation.is_read() {
            let golden_read = self.golden[address];
            let mut observed = self.faulty[address];
            if let Some(decoder) = &self.decoder {
                // Detected lanes are dead: their verdict bit is already latched
                // (`detected` only ever ORs), so their redirections no longer
                // need resolving. Masking them out caps the per-lane
                // gather/scatter tail at the *undetected* population — the
                // dominant run-phase cost on exhaustive AF spaces, where most
                // lanes detect within the first elements.
                let redirected = decoder.source_at[address] & !self.detected;
                if !redirected.is_zero() {
                    observed = match decoder.fault {
                        DecoderFault::NoCellAccessed { open_read } => {
                            (observed & !redirected) | (broadcast::<W>(open_read) & redirected)
                        }
                        DecoderFault::NoAddressMaps | DecoderFault::MultipleAddressesMap => {
                            let destination = decoder.gather_destinations(&self.faulty, redirected);
                            (observed & !redirected) | (destination & redirected)
                        }
                        DecoderFault::MultipleCellsAccessed => {
                            // Wired-AND of the own cell and the extra cell on
                            // the redirected lanes.
                            let destination = decoder.gather_destinations(&self.faulty, redirected);
                            observed & (destination | !redirected)
                        }
                    };
                }
            }
            for (index, component) in self.components.iter().enumerate() {
                if let Some(read_output) = component.primitive.effect().read_output() {
                    let lanes = fired[index] & component.victim_at[address];
                    let bits = broadcast::<W>(read_output);
                    observed = (observed & !lanes) | (bits & lanes);
                }
            }
            self.detected |= (observed ^ golden_read) & self.lane_mask;
        }

        // 3. Fault-free effect of the operation, routed through the perturbed
        // decode on the faulty side (the golden reference always decodes
        // correctly).
        if let Operation::Write(value) = operation {
            let bits = broadcast::<W>(value);
            self.golden[address] = bits;
            match &self.decoder {
                None => self.faulty[address] = bits,
                Some(decoder) => {
                    // Dead (detected) lanes are dropped from the perturbed
                    // decode, as in the read path: their array state is never
                    // observed again.
                    let redirected = decoder.source_at[address] & !self.detected;
                    // Lanes whose write still reaches the addressed cell: all
                    // of them for the fan-out class, the unperturbed ones
                    // otherwise.
                    let own_mask = match decoder.fault {
                        DecoderFault::MultipleCellsAccessed => W::ALL,
                        _ => !redirected,
                    };
                    self.faulty[address] = (self.faulty[address] & !own_mask) | (bits & own_mask);
                    if !redirected.is_zero()
                        && !matches!(decoder.fault, DecoderFault::NoCellAccessed { .. })
                    {
                        decoder.scatter_destinations(&mut self.faulty, redirected, bits);
                    }
                }
            }
        }

        // 4. Fault effects of the fired primitives, in injection order.
        for (index, component) in self.components.iter().enumerate() {
            if let Some(forced) = component.primitive.effect().victim_value().to_bit() {
                Self::scatter_victim(&mut self.faulty, component, forced, fired[index]);
            }
        }

        // 5. One pass of the state-sensitized primitives.
        self.settle_state_faults();
    }

    /// Executes one march element on every lane (elements with
    /// [`march_test::AddressOrder::Any`] run in ascending order, as in
    /// [`run_march`]).
    pub fn apply_element(&mut self, element: &MarchElement) {
        for cell in element.order().addresses(self.cells) {
            if self.all_detected() {
                return;
            }
            for operation in element.operations() {
                self.apply(cell, *operation);
            }
        }
    }

    /// Executes a full march test and returns the per-lane detection mask.
    /// Early-exits once every lane has detected its instance.
    pub fn run_test(&mut self, test: &MarchTest) -> W {
        for (_, element) in test.iter() {
            self.apply_element(element);
            if self.all_detected() {
                break;
            }
        }
        self.detected
    }

    /// Re-packs one coverage lane of this simulator as a [`CandidateWave`]: the
    /// lane's memory state broadcast across up to one candidate word of
    /// *candidate* lanes, so a whole [`CandidateBatch`] can be scored against
    /// it in one bit-parallel pass.
    ///
    /// # Panics
    ///
    /// Panics if `lane` is not a packed lane of this simulator.
    #[must_use]
    pub(crate) fn candidate_wave<C: LaneWord>(&self, lane: usize) -> CandidateWave<'_, C> {
        assert!(lane < self.lanes, "lane {lane} out of range");
        let broadcast_lane = |plane: &W| {
            if plane.test_bit(lane) {
                C::ALL
            } else {
                C::ZERO
            }
        };
        CandidateWave {
            cells: self.cells,
            faulty: self.faulty.iter().map(broadcast_lane).collect(),
            golden: self.golden.iter().map(broadcast_lane).collect(),
            components: self
                .components
                .iter()
                .map(|component| WaveComponent {
                    primitive: &component.primitive,
                    victim: component
                        .victim_at
                        .iter()
                        .position(|plane| plane.test_bit(lane))
                        .expect("every packed lane binds a victim cell"),
                    aggressor: component
                        .aggressor_at
                        .iter()
                        .position(|plane| plane.test_bit(lane)),
                })
                .collect(),
            decoder: self.decoder.as_ref().map(|decoder| WaveDecoder {
                fault: decoder.fault,
                source: decoder
                    .source_at
                    .iter()
                    .position(|plane| plane.test_bit(lane))
                    .expect("every packed decoder lane binds a source address"),
                destination: decoder.destination(lane),
            }),
            detected: C::ZERO,
        }
    }

    /// Merges selected lane columns of several same-target simulators into one
    /// dense simulator (used by [`TargetBatch`](crate::TargetBatch) to compact
    /// pending lanes after detected ones drop out). Lane order follows the
    /// source order, so escape/pending reporting stays deterministic.
    ///
    /// Returns `None` when no lanes are selected.
    ///
    /// # Panics
    ///
    /// Panics if more than [`PackedSimulator::MAX_LANES`] lanes are selected or
    /// the sources disagree on memory size / component structure.
    pub(crate) fn merge_lanes(sources: &[(&PackedSimulator<W>, W)]) -> Option<PackedSimulator<W>> {
        let first = sources.iter().find(|(_, mask)| !mask.is_zero())?.0;
        let cells = first.cells;
        let mut merged = PackedSimulator {
            cells,
            lanes: 0,
            lane_mask: W::ZERO,
            faulty: vec![W::ZERO; cells],
            golden: vec![W::ZERO; cells],
            components: first
                .components
                .iter()
                .map(|component| PackedComponent::new(component.primitive.clone(), cells))
                .collect(),
            decoder: first
                .decoder
                .as_ref()
                .map(|decoder| PackedDecoder::new(decoder.fault, cells)),
            has_state_faults: first.has_state_faults,
            detected: W::ZERO,
        };
        let mut dest = 0usize;
        for (source, mask) in sources {
            assert_eq!(source.cells, cells, "merged simulators share the memory");
            assert_eq!(
                source.components.len(),
                merged.components.len(),
                "merged simulators share the target"
            );
            let mut bits = *mask;
            while !bits.is_zero() {
                let lane = bits.trailing_zeros() as usize;
                bits.clear_lowest_bit();
                assert!(
                    dest < Self::MAX_LANES,
                    "compacted more than {} lanes into one word",
                    Self::MAX_LANES
                );
                let dest_bit = W::bit(dest);
                for cell in 0..cells {
                    if source.faulty[cell].test_bit(lane) {
                        merged.faulty[cell] |= dest_bit;
                    }
                    if source.golden[cell].test_bit(lane) {
                        merged.golden[cell] |= dest_bit;
                    }
                }
                for (into, from) in merged.components.iter_mut().zip(&source.components) {
                    for cell in 0..cells {
                        if from.victim_at[cell].test_bit(lane) {
                            into.victim_at[cell] |= dest_bit;
                        }
                        if from.aggressor_at[cell].test_bit(lane) {
                            into.aggressor_at[cell] |= dest_bit;
                        }
                    }
                }
                if let (Some(into), Some(from)) = (merged.decoder.as_mut(), source.decoder.as_ref())
                {
                    for cell in 0..cells {
                        if from.source_at[cell].test_bit(lane) {
                            into.source_at[cell] |= dest_bit;
                        }
                    }
                    if into.dest_of_lane.len() <= dest {
                        into.dest_of_lane.resize(dest + 1, usize::MAX);
                    }
                    into.dest_of_lane[dest] =
                        from.dest_of_lane.get(lane).copied().unwrap_or(usize::MAX);
                }
                if source.detected.test_bit(lane) {
                    merged.detected |= dest_bit;
                }
                dest += 1;
            }
        }
        if dest == 0 {
            return None;
        }
        merged.lanes = dest;
        // The same shared boundary helper as `new`: no width special cases.
        merged.lane_mask = W::full_mask(dest);
        Some(merged)
    }
}

/// One fault-primitive component of a [`CandidateWave`], bound to concrete
/// cells (the wave replicates a *single* coverage lane, so the binding is a
/// scalar address rather than a per-lane bit-plane).
#[derive(Debug)]
struct WaveComponent<'a> {
    primitive: &'a FaultPrimitive,
    victim: usize,
    aggressor: Option<usize>,
}

/// The decoder perturbation of a [`CandidateWave`] (the wave replicates a
/// single coverage lane, so the binding is scalar addresses).
#[derive(Debug, Clone, Copy)]
struct WaveDecoder {
    fault: DecoderFault,
    source: usize,
    destination: Option<usize>,
}

/// A bit-parallel **candidate** evaluator: one still-pending coverage lane's
/// simulator state broadcast across one candidate word of lanes, where each
/// lane executes a *different* candidate march element of a [`CandidateBatch`].
///
/// This is the transpose of [`PackedSimulator`]: instead of a word of fault
/// instances running one program, one fault instance runs a word of programs.
/// Per micro-step (cell visit × operation slot) the lanes are grouped by
/// address order and operation kind — at most two addresses
/// (ascending/descending cursor) and four operation kinds — and each group is
/// applied with masked bitwise arithmetic, so a whole candidate pool is scored
/// in a handful of passes instead of one full simulation per candidate.
///
/// The semantics mirror [`FaultSimulator`](crate::FaultSimulator) exactly: fire
/// detection on the pre-operation state, read override, fault-free effect,
/// fault effects in injection order, then one settle pass of state-sensitized
/// primitives — masked to the lanes that executed an operation this step, just
/// as each scalar simulator settles only after its own operations.
#[derive(Debug)]
pub(crate) struct CandidateWave<'a, C: LaneWord = u64> {
    cells: usize,
    faulty: Vec<C>,
    golden: Vec<C>,
    components: Vec<WaveComponent<'a>>,
    decoder: Option<WaveDecoder>,
    detected: C,
}

impl<C: LaneWord> CandidateWave<'_, C> {
    /// Runs every candidate of `pool` against the replicated lane state and
    /// returns the mask of candidates whose element detects the lane.
    pub(crate) fn run_pool(&mut self, pool: &CandidateBatch<C>) -> C {
        let ascending = pool.ascending_mask();
        let descending = !ascending & pool.lane_mask();
        for index in 0..self.cells {
            let descending_address = self.cells - 1 - index;
            for slot in 0..pool.max_ops() {
                if self.detected == pool.lane_mask() {
                    return self.detected;
                }
                for (operation, kind_mask) in pool.slot_ops(slot) {
                    let up = kind_mask & ascending;
                    if !up.is_zero() {
                        self.apply_masked(index, operation, up);
                    }
                    let down = kind_mask & descending;
                    if !down.is_zero() {
                        self.apply_masked(descending_address, operation, down);
                    }
                }
            }
        }
        self.detected
    }

    /// Applies `operation` to cell `address` on the candidate lanes of
    /// `lanes` only, mirroring [`PackedSimulator::apply`] step for step.
    fn apply_masked(&mut self, address: usize, operation: Operation, lanes: C) {
        // 1. Which operation-sensitized primitives fire, per candidate lane?
        let mut fired = [C::ZERO; 2];
        for (index, component) in self.components.iter().enumerate() {
            fired[index] = self.sensitized_mask(component, address, operation) & lanes;
        }

        // 2. Read return values and detection. The decoder perturbation (if
        // any) resolves first, mirroring the packed engine.
        if operation.is_read() {
            let golden_read = self.golden[address];
            let mut observed = self.faulty[address];
            if let Some(decoder) = self.decoder {
                if decoder.source == address {
                    observed = match decoder.fault {
                        DecoderFault::NoCellAccessed { open_read } => broadcast::<C>(open_read),
                        DecoderFault::NoAddressMaps | DecoderFault::MultipleAddressesMap => {
                            self.faulty
                                [decoder.destination.expect("pair class binds a destination")]
                        }
                        DecoderFault::MultipleCellsAccessed => {
                            observed
                                & self.faulty
                                    [decoder.destination.expect("pair class binds a destination")]
                        }
                    };
                }
            }
            for (index, component) in self.components.iter().enumerate() {
                if component.victim == address {
                    if let Some(read_output) = component.primitive.effect().read_output() {
                        let mask = fired[index];
                        let bits = broadcast::<C>(read_output);
                        observed = (observed & !mask) | (bits & mask);
                    }
                }
            }
            self.detected |= (observed ^ golden_read) & lanes;
        }

        // 3. Fault-free effect of the operation, routed through the perturbed
        // decode on the faulty side.
        if let Operation::Write(value) = operation {
            let bits = broadcast::<C>(value);
            self.golden[address] = (self.golden[address] & !lanes) | (bits & lanes);
            let mut write_own = true;
            if let Some(decoder) = self.decoder {
                if decoder.source == address {
                    match decoder.fault {
                        DecoderFault::NoCellAccessed { .. } => write_own = false,
                        DecoderFault::NoAddressMaps | DecoderFault::MultipleAddressesMap => {
                            write_own = false;
                            let destination =
                                decoder.destination.expect("pair class binds a destination");
                            self.faulty[destination] =
                                (self.faulty[destination] & !lanes) | (bits & lanes);
                        }
                        DecoderFault::MultipleCellsAccessed => {
                            let destination =
                                decoder.destination.expect("pair class binds a destination");
                            self.faulty[destination] =
                                (self.faulty[destination] & !lanes) | (bits & lanes);
                        }
                    }
                }
            }
            if write_own {
                self.faulty[address] = (self.faulty[address] & !lanes) | (bits & lanes);
            }
        }

        // 4. Fault effects of the fired primitives, in injection order.
        for (index, component) in self.components.iter().enumerate() {
            if let Some(forced) = component.primitive.effect().victim_value().to_bit() {
                let mask = fired[index];
                if !mask.is_zero() {
                    let bits = broadcast::<C>(forced);
                    self.faulty[component.victim] =
                        (self.faulty[component.victim] & !mask) | (bits & mask);
                }
            }
        }

        // 5. One settle pass of the state-sensitized primitives, on the lanes
        // that executed this operation.
        self.settle_state_faults(lanes);
    }

    /// Candidate lanes of `component` sensitized by applying `operation` to
    /// `address`, evaluated on the pre-operation faulty state.
    fn sensitized_mask(
        &self,
        component: &WaveComponent<'_>,
        address: usize,
        operation: Operation,
    ) -> C {
        let primitive = component.primitive;
        let site = match primitive.sensitizing_site() {
            SensitizingSite::None => return C::ZERO,
            SensitizingSite::Victim => component.victim,
            SensitizingSite::Aggressor => match component.aggressor {
                Some(aggressor) => aggressor,
                None => return C::ZERO,
            },
        };
        if site != address {
            return C::ZERO;
        }
        let required = primitive
            .sensitizing_operation()
            .expect("operation-sensitized primitive has an operation");
        if !required.matches(operation) {
            return C::ZERO;
        }
        let mut mask = condition_mask(primitive.victim().initial(), self.faulty[component.victim]);
        if let Some(aggressor) = primitive.aggressor() {
            let values = component
                .aggressor
                .map_or(C::ZERO, |aggressor_cell| self.faulty[aggressor_cell]);
            mask &= condition_mask(aggressor.initial(), values);
        }
        mask
    }

    /// One pass over the state-sensitized primitives in injection order,
    /// restricted to the candidate lanes of `lanes`.
    fn settle_state_faults(&mut self, lanes: C) {
        for index in 0..self.components.len() {
            let component = &self.components[index];
            let primitive = component.primitive;
            if primitive.sensitizing_site() != SensitizingSite::None {
                continue;
            }
            let mut mask =
                lanes & condition_mask(primitive.victim().initial(), self.faulty[component.victim]);
            if let Some(aggressor) = primitive.aggressor() {
                let values = component
                    .aggressor
                    .map_or(C::ZERO, |aggressor_cell| self.faulty[aggressor_cell]);
                mask &= condition_mask(aggressor.initial(), values);
            }
            if let Some(forced) = primitive.effect().victim_value().to_bit() {
                let victim = self.components[index].victim;
                let bits = broadcast::<C>(forced);
                self.faulty[victim] = (self.faulty[victim] & !mask) | (bits & mask);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use march_test::catalog;
    use sram_fault_model::FaultList;

    fn both_verdicts(
        test: &MarchTest,
        target: &TargetKind,
        strategy: PlacementStrategy,
        backgrounds: &[InitialState],
    ) -> (Vec<bool>, Vec<bool>) {
        let lanes = enumerate_lanes(target, 8, strategy, backgrounds).unwrap();
        let scalar = ScalarBackend.lane_verdicts(test, target, &lanes, 8);
        let packed = PackedBackend::default().lane_verdicts(test, target, &lanes, 8);
        (scalar, packed)
    }

    #[test]
    fn backends_agree_on_every_linked_fault_of_list_2() {
        let backgrounds = [InitialState::AllZero, InitialState::AllOne];
        for fault in FaultList::list_2().linked() {
            let target = TargetKind::Linked(fault.clone());
            for test in [
                catalog::march_ss(),
                catalog::march_sl(),
                catalog::mats_plus(),
            ] {
                let (scalar, packed) =
                    both_verdicts(&test, &target, PlacementStrategy::Exhaustive, &backgrounds);
                assert_eq!(scalar, packed, "{fault} under {}", test.name());
            }
        }
    }

    #[test]
    fn backends_agree_on_every_unlinked_primitive() {
        let backgrounds = [InitialState::AllZero, InitialState::AllOne];
        for primitive in FaultList::unlinked_static().simple() {
            let target = TargetKind::Simple(primitive.clone());
            for test in [catalog::march_ss(), catalog::march_c_minus()] {
                let (scalar, packed) = both_verdicts(
                    &test,
                    &target,
                    PlacementStrategy::Representative,
                    &backgrounds,
                );
                assert_eq!(scalar, packed, "{primitive} under {}", test.name());
            }
        }
    }

    #[test]
    fn backends_agree_on_three_cell_topologies() {
        let backgrounds = [InitialState::AllZero, InitialState::AllOne];
        let list = FaultList::list_1();
        for fault in list
            .linked()
            .iter()
            .filter(|fault| fault.cell_count() >= 2)
            .take(40)
        {
            let target = TargetKind::Linked(fault.clone());
            let (scalar, packed) = both_verdicts(
                &catalog::march_rabl(),
                &target,
                PlacementStrategy::Representative,
                &backgrounds,
            );
            assert_eq!(scalar, packed, "{fault}");
        }
    }

    #[test]
    fn packed_chunks_split_beyond_64_lanes() {
        // Exhaustive LF2 placements on 8 cells: 56 placements × 2 backgrounds =
        // 112 lanes — forces chunking at width 64 but fits one W128 word.
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
        assert!(lanes.len() > PackedSimulator::<u64>::MAX_LANES);
        assert!(lanes.len() <= PackedSimulator::<W128>::MAX_LANES);
        assert!(matches!(
            PackedSimulator::<u64>::new(&target, &lanes, 8),
            Err(SimulationError::LaneCountOutOfRange { requested }) if requested == lanes.len()
        ));
        assert!(matches!(
            PackedSimulator::<u64>::new(&target, &[], 8),
            Err(SimulationError::LaneCountOutOfRange { requested: 0 })
        ));
        // The whole lane set fits a single wide word.
        let mut wide = PackedSimulator::<W128>::new(&target, &lanes, 8).unwrap();
        assert_eq!(wide.lanes(), lanes.len());
        let scalar = ScalarBackend.lane_verdicts(&catalog::march_sl(), &target, &lanes, 8);
        let packed =
            PackedBackend::default().lane_verdicts(&catalog::march_sl(), &target, &lanes, 8);
        assert_eq!(scalar, packed);
        let wide_detected = wide.run_test(&catalog::march_sl());
        let wide_verdicts: Vec<bool> = (0..lanes.len())
            .map(|lane| wide_detected.test_bit(lane))
            .collect();
        assert_eq!(scalar, wide_verdicts);
        assert_eq!(
            ScalarBackend.first_undetected(&catalog::march_sl(), &target, &lanes, 8),
            PackedBackend::default().first_undetected(&catalog::march_sl(), &target, &lanes, 8),
        );
    }

    #[test]
    fn lane_widths_agree_on_verdicts_and_first_undetected() {
        // 112-lane linked target and 320-lane decoder targets: every width
        // (auto, 64, 128, 256) must report identical verdicts and identical
        // first-escape indices, for complete and incomplete tests alike.
        let backgrounds = [InitialState::AllZero, InitialState::AllOne];
        let linked = FaultList::list_1()
            .linked()
            .iter()
            .find(|fault| fault.cell_count() == 2)
            .expect("list #1 has two-cell faults")
            .clone();
        let mut targets = vec![(TargetKind::Linked(linked), 8usize)];
        for fault in DecoderFault::all() {
            targets.push((TargetKind::Decoder(fault), 32));
        }
        for (target, cells) in targets {
            let lanes =
                enumerate_lanes(&target, cells, PlacementStrategy::Exhaustive, &backgrounds)
                    .unwrap();
            for test in [catalog::march_sl(), catalog::mats_plus()] {
                let reference = PackedBackend::with_width(LaneWidth::W64)
                    .lane_verdicts(&test, &target, &lanes, cells);
                let reference_first = PackedBackend::with_width(LaneWidth::W64)
                    .first_undetected(&test, &target, &lanes, cells);
                for width in LaneWidth::ALL {
                    let backend = PackedBackend::with_width(width);
                    assert_eq!(
                        backend.lane_verdicts(&test, &target, &lanes, cells),
                        reference,
                        "{target:?} verdicts at width {width}"
                    );
                    assert_eq!(
                        backend.first_undetected(&test, &target, &lanes, cells),
                        reference_first,
                        "{target:?} first escape at width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn backends_agree_on_decoder_targets_beyond_64_lanes() {
        use sram_fault_model::DecoderFault;

        // Exhaustive address-line pairs on 32 cells: 32 primaries × 5 strides
        // × 2 backgrounds = 320 lanes — forces chunking, and partial
        // detection exercises the decoder-plane path of `merge_lanes` through
        // `TargetBatch` compaction.
        let backgrounds = [InitialState::AllZero, InitialState::AllOne];
        for fault in DecoderFault::all() {
            let target = TargetKind::Decoder(fault);
            let lanes =
                enumerate_lanes(&target, 32, PlacementStrategy::Exhaustive, &backgrounds).unwrap();
            if fault.involves_partner() {
                assert!(lanes.len() > PackedSimulator::<u64>::MAX_LANES, "{fault}");
            }
            for test in [catalog::mats_plus(), catalog::march_c_minus()] {
                let scalar = ScalarBackend.lane_verdicts(&test, &target, &lanes, 32);
                let packed = PackedBackend::default().lane_verdicts(&test, &target, &lanes, 32);
                assert_eq!(scalar, packed, "{fault} under {}", test.name());
                assert_eq!(
                    ScalarBackend.first_undetected(&test, &target, &lanes, 32),
                    PackedBackend::default().first_undetected(&test, &target, &lanes, 32),
                );
            }

            // Advance the scalar batch and a packed batch of every lane width
            // element by element through a weak test: compaction
            // (decoder-plane lane merging) must not change scores or the
            // surviving lane set at any width.
            for width in LaneWidth::ALL {
                let mut scalar_batch =
                    crate::TargetBatch::new(target.clone(), lanes.clone(), 32, BackendKind::Scalar);
                let mut packed_batch = crate::TargetBatch::new_with_width(
                    target.clone(),
                    lanes.clone(),
                    32,
                    BackendKind::Packed,
                    width,
                );
                for (_, element) in catalog::mats_plus().iter() {
                    assert_eq!(
                        scalar_batch.advance(element),
                        packed_batch.advance(element),
                        "{fault} at width {width}"
                    );
                    assert_eq!(
                        scalar_batch.pending_lanes(),
                        packed_batch.pending_lanes(),
                        "{fault} at width {width}"
                    );
                }
            }
        }
    }

    #[test]
    fn backend_kind_parsing_and_names() {
        assert_eq!(BackendKind::default(), BackendKind::Packed);
        assert_eq!(
            "scalar".parse::<BackendKind>().unwrap(),
            BackendKind::Scalar
        );
        assert_eq!(
            "Packed".parse::<BackendKind>().unwrap(),
            BackendKind::Packed
        );
        assert!("simd".parse::<BackendKind>().is_err());
        assert_eq!(BackendKind::Scalar.to_string(), "scalar");
        assert_eq!(BackendKind::Packed.instance().name(), "packed");
        assert_eq!(
            BackendKind::Packed.instance_with(LaneWidth::W256).name(),
            "packed"
        );
        assert_eq!(
            PackedBackend::with_width(LaneWidth::W128).width(),
            LaneWidth::W128
        );
    }

    #[test]
    fn first_undetected_matches_verdicts_on_incomplete_tests() {
        let backgrounds = [InitialState::AllOne];
        for fault in FaultList::list_2().linked().iter().take(8) {
            let target = TargetKind::Linked(fault.clone());
            let lanes =
                enumerate_lanes(&target, 8, PlacementStrategy::Exhaustive, &backgrounds).unwrap();
            let test = catalog::mats_plus();
            let verdicts = PackedBackend::default().lane_verdicts(&test, &target, &lanes, 8);
            let first = PackedBackend::default().first_undetected(&test, &target, &lanes, 8);
            assert_eq!(first, verdicts.iter().position(|detected| !detected));
        }
    }
}
