//! Simulation backends: the scalar dual-memory engine and the bit-parallel
//! packed engine behind one common [`SimulationBackend`] trait.
//!
//! A *coverage lane* is one `(cell placement, initial background)` pair a march
//! test must detect a fault target under. The scalar backend simulates lanes
//! one at a time with [`FaultSimulator`]; the packed backend pins each lane to
//! one bit of a 256-lane [`W256`] word and evaluates a whole word of lanes per
//! memory operation with branch-free bitwise sensitization/effect
//! arithmetic. These per-target walks over the whole memory are the
//! differential reference; coverage, campaigns, generation and minimisation
//! run on projected words instead ([`SimulationBackend::image_verdicts`],
//! [`TargetBatch`](crate::TargetBatch)).

use std::fmt;
use std::ops::Range;

use march_test::{MarchElement, MarchTest};
use sram_fault_model::{Bit, DecoderFault, FaultPrimitive, Operation, SensitizingSite};

use crate::coverage::TargetKind;
use crate::lane::{broadcast, condition_mask, LaneWord, W256};
use crate::placement::{placement_shape, PlacementShape};
use crate::projection::{projected_cells, ClassImage};
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
    Ok(cross_backgrounds(
        shape.placements(memory_cells, strategy)?,
        backgrounds,
    ))
}

/// Every one of `placements` crossed with every background, placements
/// outermost.
pub(crate) fn cross_backgrounds(
    placements: Vec<InstanceCells>,
    backgrounds: &[InitialState],
) -> Vec<CoverageLane> {
    let mut lanes = Vec::with_capacity(placements.len() * backgrounds.len());
    for cells in placements {
        for background in backgrounds {
            lanes.push(CoverageLane {
                cells,
                background: background.clone(),
            });
        }
    }
    lanes
}

/// Which simulation backend a coverage or generation run uses.
///
/// The packed engine is the one production engine (its verdicts are proven
/// byte-identical to the scalar reference); `Scalar` is the reference the
/// differential suites select.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum BackendKind {
    /// The dual-memory scalar engine: one fault instance at a time.
    Scalar,
    /// The bit-parallel packed engine: one 256-lane word of fault instances
    /// per pass.
    #[default]
    Packed,
}

impl BackendKind {
    /// Instantiates the backend.
    #[must_use]
    pub fn instance(self) -> Box<dyn SimulationBackend> {
        match self {
            BackendKind::Scalar => Box::new(ScalarBackend),
            BackendKind::Packed => Box::new(PackedBackend),
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

    /// The lanes among `lanes` of a class image that `test` detects, as a
    /// mask: lane `i` for lane `lanes.start + i`. `lanes` spans at most 256
    /// lanes. This is the kernel of coverage and campaigns: every class
    /// representative of a list is bound into the image's 256-lane words
    /// once per scope, and each request runs the test on them.
    ///
    /// Each lane of the image is **projected**: its cells are the ranks of
    /// the at most three cells its instance involves and its background is
    /// cut down to them (see `projection.rs` for why its verdict is the
    /// full-memory one). The default simulates each run of consecutive
    /// representatives of one target with
    /// [`SimulationBackend::lane_verdicts`] on a memory of exactly those
    /// cells — the per-target reference the scalar backend keeps. The
    /// packed backend runs a copy of the image's words instead, the lanes
    /// taken from the at most two words they span.
    fn image_verdicts(&self, test: &MarchTest, image: &ClassImage, lanes: Range<usize>) -> W256 {
        let mut detected = W256::ZERO;
        let mut at = 0;
        let representatives = image.representatives(lanes);
        for run in representatives.chunk_by(|(one, _), (other, _)| one == other) {
            let group: Vec<CoverageLane> = run.iter().map(|&(_, lane)| lane.clone()).collect();
            let cells = group.iter().map(projected_cells).max().unwrap_or(0);
            for hit in self.lane_verdicts(test, run[0].0, &group, cells) {
                if hit {
                    detected |= W256::bit(at);
                }
                at += 1;
            }
        }
        detected
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

/// The bit-parallel engine exposed through the backend trait: lanes are
/// packed 256 to a [`W256`] word of one [`PackedSimulator`], chunk by chunk.
#[derive(Debug, Clone, Copy, Default)]
pub struct PackedBackend;

/// Builds the scratch simulator on the first chunk and re-packs it (re-using
/// its plane buffers) on every later one, so the plane allocations are paid
/// once per lane set, not once per chunk.
fn repacked<'scratch>(
    scratch: &'scratch mut Option<PackedSimulator<W256>>,
    target: &TargetKind,
    chunk: &[CoverageLane],
    memory_cells: usize,
) -> &'scratch mut PackedSimulator<W256> {
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
        let mut verdicts = Vec::with_capacity(lanes.len());
        let mut scratch = None;
        for chunk in lanes.chunks(W256::BITS) {
            let simulator = repacked(&mut scratch, target, chunk, memory_cells);
            let detected = simulator.run_test(test);
            verdicts.extend((0..chunk.len()).map(|lane| detected.test_bit(lane)));
        }
        verdicts
    }

    fn first_undetected(
        &self,
        test: &MarchTest,
        target: &TargetKind,
        lanes: &[CoverageLane],
        memory_cells: usize,
    ) -> Option<usize> {
        let mut scratch = None;
        for (chunk_index, chunk) in lanes.chunks(W256::BITS).enumerate() {
            let simulator = repacked(&mut scratch, target, chunk, memory_cells);
            let detected = simulator.run_test(test);
            if detected != simulator.lane_mask() {
                let undetected = !detected & simulator.lane_mask();
                return Some(chunk_index * W256::BITS + undetected.trailing_zeros() as usize);
            }
        }
        None
    }

    fn image_verdicts(&self, test: &MarchTest, image: &ClassImage, lanes: Range<usize>) -> W256 {
        image.word_of(lanes).run(test)
    }
}

/// One fault-primitive component of the packed target, with its per-lane cell
/// bindings encoded as bit-plane masks.
#[derive(Debug, Clone)]
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
#[derive(Debug, Clone)]
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
/// `u64` (the default) carries 64 lanes, the [`W256`] block 256, with
/// bit-identical verdicts. [`PackedBackend`] walks `W256` words; the
/// `u64` word is the cheap full-memory reference test harnesses walk.
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
#[derive(Debug, Clone)]
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
        // n == width case.
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
        let packed = PackedBackend.lane_verdicts(test, target, &lanes, 8);
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

    /// The verdicts of the 64-lane `u64` walk test harnesses use as their
    /// full-memory reference: one fresh simulator per 64-lane chunk.
    fn u64_walk(
        test: &MarchTest,
        target: &TargetKind,
        lanes: &[CoverageLane],
        cells: usize,
    ) -> Vec<bool> {
        lanes
            .chunks(PackedSimulator::<u64>::MAX_LANES)
            .flat_map(|chunk| {
                let detected = PackedSimulator::<u64>::new(target, chunk, cells)
                    .unwrap()
                    .run_test(test);
                (0..chunk.len()).map(move |lane| detected.test_bit(lane))
            })
            .collect()
    }

    #[test]
    fn packed_chunks_split_beyond_64_lanes() {
        // Exhaustive LF2 placements on 8 cells: 56 placements × 2 backgrounds =
        // 112 lanes — two chunks of the u64 walk, one W256 word of the
        // backend. Exhaustive decoder placements on 32 cells: up to 320
        // lanes, two W256 words. Both walks must report the scalar verdicts
        // and first escape, for complete and incomplete tests alike.
        let backgrounds = [InitialState::AllZero, InitialState::AllOne];
        let linked = FaultList::list_1()
            .linked()
            .iter()
            .find(|fault| fault.cell_count() == 2)
            .expect("list #1 has two-cell faults")
            .clone();
        let target = TargetKind::Linked(linked);
        let lanes =
            enumerate_lanes(&target, 8, PlacementStrategy::Exhaustive, &backgrounds).unwrap();
        assert!(lanes.len() > PackedSimulator::<u64>::MAX_LANES);
        assert!(lanes.len() <= PackedSimulator::<W256>::MAX_LANES);
        assert!(matches!(
            PackedSimulator::<u64>::new(&target, &lanes, 8),
            Err(SimulationError::LaneCountOutOfRange { requested }) if requested == lanes.len()
        ));
        assert!(matches!(
            PackedSimulator::<u64>::new(&target, &[], 8),
            Err(SimulationError::LaneCountOutOfRange { requested: 0 })
        ));
        // The whole lane set fits a single wide word.
        let wide = PackedSimulator::<W256>::new(&target, &lanes, 8).unwrap();
        assert_eq!(wide.lanes(), lanes.len());

        let mut targets = vec![(target, 8usize)];
        for fault in DecoderFault::all() {
            targets.push((TargetKind::Decoder(fault), 32));
        }
        for (target, cells) in targets {
            let lanes =
                enumerate_lanes(&target, cells, PlacementStrategy::Exhaustive, &backgrounds)
                    .unwrap();
            for test in [catalog::march_sl(), catalog::mats_plus()] {
                let scalar = ScalarBackend.lane_verdicts(&test, &target, &lanes, cells);
                let first = scalar.iter().position(|detected| !detected);
                assert_eq!(
                    PackedBackend.lane_verdicts(&test, &target, &lanes, cells),
                    scalar,
                    "{target:?} under {}",
                    test.name()
                );
                assert_eq!(
                    u64_walk(&test, &target, &lanes, cells),
                    scalar,
                    "{target:?} under {}",
                    test.name()
                );
                assert_eq!(
                    PackedBackend.first_undetected(&test, &target, &lanes, cells),
                    first,
                    "{target:?} under {}",
                    test.name()
                );
                assert_eq!(
                    ScalarBackend.first_undetected(&test, &target, &lanes, cells),
                    first
                );
            }
        }
    }

    #[test]
    fn backends_agree_on_decoder_targets_beyond_64_lanes() {
        use sram_fault_model::DecoderFault;

        // Exhaustive address-line pairs on 32 cells: 32 primaries × 5 strides
        // × 2 backgrounds = 320 lanes — forces chunking, and partial
        // detection exercises the decoder masks of `TargetBatch` compaction.
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
                let packed = PackedBackend.lane_verdicts(&test, &target, &lanes, 32);
                assert_eq!(scalar, packed, "{fault} under {}", test.name());
                assert_eq!(
                    ScalarBackend.first_undetected(&test, &target, &lanes, 32),
                    PackedBackend.first_undetected(&test, &target, &lanes, 32),
                );
            }

            // Advance a scalar and a packed batch element by element through
            // a weak test: re-packing the survivors across words (decoder
            // masks included) must not change scores or the surviving lanes.
            let targets = std::sync::Arc::new(vec![(
                target.clone(),
                std::sync::Arc::new(crate::LaneSet::from(lanes.clone())),
            )]);
            let mut scalar_batch =
                crate::TargetBatch::new(std::sync::Arc::clone(&targets), 32, BackendKind::Scalar);
            let mut packed_batch = crate::TargetBatch::new(targets, 32, BackendKind::Packed);
            let pool = catalog::march_c_minus().elements().to_vec();
            for (_, element) in catalog::mats_plus().iter() {
                assert_eq!(
                    scalar_batch.score_pool(&pool),
                    packed_batch.score_pool(&pool),
                    "{fault}"
                );
                assert_eq!(
                    scalar_batch.advance(element),
                    packed_batch.advance(element),
                    "{fault}"
                );
                assert_eq!(
                    scalar_batch.pending_lanes(),
                    packed_batch.pending_lanes(),
                    "{fault}"
                );
            }
        }
    }

    #[test]
    fn first_undetected_matches_verdicts_on_incomplete_tests() {
        let backgrounds = [InitialState::AllOne];
        for fault in FaultList::list_2().linked().iter().take(8) {
            let target = TargetKind::Linked(fault.clone());
            let lanes =
                enumerate_lanes(&target, 8, PlacementStrategy::Exhaustive, &backgrounds).unwrap();
            let test = catalog::mats_plus();
            let verdicts = PackedBackend.lane_verdicts(&test, &target, &lanes, 8);
            let first = PackedBackend.first_undetected(&test, &target, &lanes, 8);
            assert_eq!(first, verdicts.iter().position(|detected| !detected));
        }
    }
}
