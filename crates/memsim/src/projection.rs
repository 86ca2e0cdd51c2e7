//! Projected simulation: coverage and campaign lanes simulated on the at most
//! three cells their fault instance involves, one representative per class,
//! the classes of many targets packed into shared 256-lane words.
//!
//! A static fault instance — a simple primitive, a linked fault or an
//! address-decoder class bound to cells — involves at most three cells: the
//! victim and up to two aggressors, or the decoder's primary and partner
//! address ([`InstanceCells`]). Its verdict depends only on the *rank order*
//! of those cells and on the background bit each of them starts from, so the
//! lanes of one target that agree on both form a **class** sharing one
//! verdict: at most 3! orders × 2³ background patterns = 48 classes per
//! target, whatever the memory size.
//!
//! [`Classes`] names each class of a lane set by its first lane in
//! enumeration order and remaps that lane onto a memory of k ≤ 3 cells (the
//! cells' ranks as addresses, the background cut down to those cells). The
//! classes depend only on the lanes, never on the fault, so a [`LaneSet`] —
//! the lanes every target of one placement shape shares — derives them once,
//! from its shape and scope, without listing its lanes (`placement.rs`).
//! `Classes::of`, the lane-by-lane partition, is the test reference they are
//! held to.
//!
//! Verdicts come from one simulation per **word**, not one backend call per
//! target. A [`ProjectedWord`] is a fixed-size, heap-free simulator of up to
//! 256 projected lanes on at most three cells, every mask a [`W256`] of four
//! 64-bit limbs (one AVX2 register), and each of its lanes carries its own
//! fault as per-lane masks: victim, aggressor and sensitising-site planes,
//! one mask per sensitising operation kind, initial-state masks, the read
//! override and the forced value of each array component, and source and
//! destination planes plus class masks for a decoder fault. Sensitisation
//! is mask arithmetic, so one word holds lanes of many targets.
//!
//! A [`ClassImage`] binds every class representative of every target of a
//! list into consecutive words, in (target, class) order, decoding each
//! target's fault once, binding the masks that do not depend on a class's
//! cells as one range of lanes per word, and stamping each class in by its
//! cells and background bits. The session's artifact store keeps one per
//! (list, scope), beside the target lanes, and drops it with them; it is
//! never snapshotted. Coverage runs a test on copies of its words through
//! [`SimulationBackend::image_verdicts`]: the packed backend runs each word
//! ([`ProjectedWord::run`]), the scalar backend simulates the
//! representatives one by one as the differential reference. A campaign
//! binds the classes its draws hit into an image of its own the same way.
//!
//! Because a class representative is its class's first lane in enumeration
//! order, the first escaping lane of a target is the representative of its
//! first escaping class — escape reports, escape order and campaign traces
//! are exactly those of the full-memory walk, while no cost grows with the
//! memory size. A coverage request therefore costs one simulation per word:
//! Fault List #1 at 8 or 16 cells is 6,448 class representatives in 26
//! words, and at 4096 cells too.
//!
//! The generator's and the minimiser's [`TargetBatch`](crate::TargetBatch)
//! starts from a copy of the same image, each lane weighted by its class's
//! lane count ([`LaneSet`]'s weight table), since a greedy score counts
//! lanes. Scoring runs a candidate on a copy of a word
//! ([`ProjectedWord::run_element`]) and sums the weights of the lanes it
//! detects. Advancing merges the pending lanes whose whole state has become
//! equal — their memory planes and fault masks, 63 bits that
//! [`ProjectedWord::lane_states`] reads for all 256 lanes at once with one
//! bit transpose per limb — and packs the survivors densely again
//! ([`ProjectedWord::from_lane_states`]). The argument below holds at every
//! prefix of a march test, so a batch's pending lanes and scores equal the
//! full-memory walk's after every element. The scalar batch projects every
//! lane on its own ([`project_lane`]) as the reference. The backends'
//! per-target methods, [`PackedSimulator`](crate::PackedSimulator), the
//! full re-simulation minimiser and the dictionary and diagnosis paths keep
//! the full-memory walk, which serves as the differential reference.
//!
//! [`LaneSet`]: crate::LaneSet
//! [`SimulationBackend::image_verdicts`]: crate::SimulationBackend::image_verdicts
//!
//! # Why the projection is exact
//!
//! Compare a run on the full memory with the run on the projected one:
//!
//! * **An operation on an uninvolved address changes no involved cell.**
//!   Operation-sensitised primitives fire only when their victim or aggressor
//!   is addressed, and a decoder perturbation only redirects its own source
//!   address; every other operation touches just the addressed cell.
//! * **No uninvolved cell ever differs from golden.** Faulty and golden
//!   memories start from the same background and receive the same writes on
//!   uninvolved addresses. Fault effects write only victims, and decoder
//!   perturbations write only the partner. So a read of an uninvolved
//!   address never mismatches.
//! * **The settle pass is idempotent.** The at most two state-sensitised
//!   primitives of an instance share its victim and write nothing else. With
//!   the aggressors fixed, each maps the victim bit either to itself or to a
//!   constant, so one pass — their composition — is an identity or a
//!   constant too, and applying it again changes nothing. The extra settle
//!   passes the full memory runs after operations on uninvolved addresses
//!   are therefore no-ops.
//! * **⇑, ⇓ and ⇕ visit the involved cells in address order.** The projected
//!   addresses are the ranks of the involved cells, so every element visits
//!   them in the same relative order and runs the same operations on them.
//!
//! The projected run therefore applies the same operation sequence to the
//! involved cells, from the same state, with the same read results, as the
//! full-memory run: the verdict is the same, and so is every read result
//! after every operation. Uninvolved cells on the projected memory (a word
//! pads a lane that involves fewer cells than the others) obey the first two
//! points, so they change nothing either.
//!
//! The projection reads each lane's background bit by address, so it relies
//! on the scope checks upstream (a [`InitialState::Custom`] background must
//! match the memory size, see
//! [`SimulationError::InitialStateSizeMismatch`](crate::SimulationError));
//! [`check_lane`] makes them for lanes a caller brings.

use std::fmt;
use std::ops::Range;
use std::sync::Arc;

use march_test::{MarchElement, MarchTest};
use sram_fault_model::{
    Bit, CellValue, DecoderFault, FaultPrimitive, LinkedFault, Operation, SensitizingSite,
};

use crate::backend::CoverageLane;
use crate::coverage::TargetKind;
use crate::inject::component_aggressors;
use crate::lane::{broadcast, LaneWord, W256};
use crate::session::TargetLanes;
use crate::{DecoderFaultInstance, InitialState, InstanceCells, SimulationError};

/// How many lanes one [`ProjectedWord`] carries: one per bit of a [`W256`].
pub(crate) const WORD_LANES: usize = W256::BITS;

/// The size of the largest projected memory: an instance involves at most
/// three cells.
const MAX_CELLS: usize = 3;

/// Number of distinct class codes: how each of the three pairs of
/// [`InstanceCells`] slots (victim, first aggressor, second aggressor)
/// compares, two bits each, plus the background bit under each slot.
const CLASS_CODES: usize = 1 << 9;

/// The most classes one lane set has: three cells in any of their 3! rank
/// orders, under any of the 2³ patterns of background bits.
pub(crate) const MAX_CLASSES: usize = 48;

/// Marks a class code no lane has produced yet.
const UNSEEN: u16 = u16::MAX;

/// The class code of a lane placed on `cells` under `background`. Comparing
/// every pair of slots — less, equal, greater, or absent when a slot is
/// empty — fixes the rank order of the involved cells (two slots may share a
/// cell, like the shared aggressor of a pair placement), and the background
/// bit under each slot fixes their initial content. This runs once per
/// campaign draw, so it avoids sorting.
#[inline]
pub(crate) fn class_code(cells: &InstanceCells, background: &InitialState) -> usize {
    let slots = slots(cells);
    let compare = |first: Option<usize>, second: Option<usize>| match (first, second) {
        (Some(first), Some(second)) => (first.cmp(&second) as isize + 1) as usize,
        _ => 3,
    };
    let mut code = compare(slots[0], slots[1])
        | compare(slots[0], slots[2]) << 2
        | compare(slots[1], slots[2]) << 4;
    for (position, slot) in slots.into_iter().enumerate() {
        if slot.is_some_and(|address| background.bit_at(address) == Bit::One) {
            code |= 1 << (6 + position);
        }
    }
    code
}

/// The victim, first-aggressor and second-aggressor slots of `cells`.
fn slots(cells: &InstanceCells) -> [Option<usize>; 3] {
    [
        Some(cells.victim),
        cells.aggressor_first,
        cells.aggressor_second,
    ]
}

/// The cells one lane involves, in address order: their ranks are their
/// addresses on the projected memory.
struct Involved {
    cells: [usize; 3],
    count: usize,
}

impl Involved {
    fn of(cells: &InstanceCells) -> Involved {
        let mut involved = Involved {
            cells: [0; 3],
            count: 0,
        };
        for address in slots(cells).into_iter().flatten() {
            if !involved.addresses().contains(&address) {
                involved.cells[involved.count] = address;
                involved.count += 1;
            }
        }
        involved.cells[..involved.count].sort_unstable();
        involved
    }

    fn addresses(&self) -> &[usize] {
        &self.cells[..self.count]
    }

    /// The rank of an involved `address`.
    fn rank(&self, address: usize) -> usize {
        self.addresses()
            .iter()
            .position(|&cell| cell == address)
            .expect("every slot address is an involved cell")
    }

    /// `lane` remapped onto the projected memory of its involved cells:
    /// ranks as addresses, the background cut down to those cells.
    fn project(&self, lane: &CoverageLane) -> CoverageLane {
        CoverageLane {
            cells: InstanceCells {
                victim: self.rank(lane.cells.victim),
                aggressor_first: lane.cells.aggressor_first.map(|cell| self.rank(cell)),
                aggressor_second: lane.cells.aggressor_second.map(|cell| self.rank(cell)),
            },
            background: match &lane.background {
                // Cut down to the involved cells, a uniform background is
                // itself, and keeps the backends' allocation-free fill.
                InitialState::AllZero | InitialState::AllOne => lane.background.clone(),
                background => InitialState::Custom(
                    self.addresses()
                        .iter()
                        .map(|&address| background.bit_at(address))
                        .collect(),
                ),
            },
        }
    }
}

/// One lane class of a lane set.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct LaneClass {
    /// The index of its first lane among the set's lanes.
    pub(crate) first_lane: usize,
    /// Its first lane, as the set enumerates it.
    pub(crate) lane: CoverageLane,
    /// Its first lane remapped onto the projected memory: the lane its
    /// verdict is simulated on.
    pub(crate) representative: CoverageLane,
}

/// The lane classes of one lane set, in the order of their first lanes, and
/// the class of each class code.
#[derive(Clone, PartialEq, Eq)]
pub(crate) struct Classes {
    /// Class index of each class code ([`UNSEEN`] for codes no lane has).
    index_of_code: [u16; CLASS_CODES],
    classes: Vec<LaneClass>,
}

impl Classes {
    /// The classes of a lane set from some of its lanes: `(index, cells,
    /// background)` triples in increasing lane index, among them the first
    /// lane of every class. Each class is named by the first of its lanes
    /// met, so the others are skipped.
    pub(crate) fn first_seen<'b>(
        lanes: impl IntoIterator<Item = (usize, InstanceCells, &'b InitialState)>,
    ) -> Classes {
        let mut classes = Classes {
            index_of_code: [UNSEEN; CLASS_CODES],
            classes: Vec::new(),
        };
        for (first_lane, cells, background) in lanes {
            classes.insert(first_lane, cells, background);
        }
        classes
    }

    /// The index of the class of a lane placed on `cells` under
    /// `background`, named by this lane, the `first_lane`-th of its set,
    /// when it is the first of its class met.
    fn insert(
        &mut self,
        first_lane: usize,
        cells: InstanceCells,
        background: &InitialState,
    ) -> usize {
        let code = class_code(&cells, background);
        if self.index_of_code[code] == UNSEEN {
            self.index_of_code[code] = self.classes.len() as u16;
            let lane = CoverageLane {
                cells,
                background: background.clone(),
            };
            self.classes.push(LaneClass {
                first_lane,
                representative: Involved::of(&cells).project(&lane),
                lane,
            });
        }
        usize::from(self.index_of_code[code])
    }

    /// Partitions `lanes` into their classes, lane by lane: the reference the
    /// closed-form classes of each placement shape are tested against.
    #[cfg(test)]
    pub(crate) fn of(lanes: &[CoverageLane]) -> Classes {
        Classes::counted(lanes).0
    }

    /// [`Classes::of`] and the number of lanes in each class, from one
    /// class code per lane: the reference for the closed-form weights too.
    #[cfg(test)]
    pub(crate) fn counted(lanes: &[CoverageLane]) -> (Classes, Vec<usize>) {
        let mut classes = Classes::first_seen([]);
        let mut counts = Vec::new();
        for (index, lane) in lanes.iter().enumerate() {
            let class = classes.insert(index, lane.cells, &lane.background);
            if class == counts.len() {
                counts.push(0);
            }
            counts[class] += 1;
        }
        (classes, counts)
    }

    /// The number of classes.
    pub(crate) fn len(&self) -> usize {
        self.classes.len()
    }

    /// `class`, by its index in class order.
    pub(crate) fn get(&self, class: usize) -> &LaneClass {
        &self.classes[class]
    }

    /// The index of the class of a lane placed on `cells` under
    /// `background`, which must be one of the set's lanes.
    pub(crate) fn class_of(&self, cells: &InstanceCells, background: &InitialState) -> usize {
        usize::from(self.index_of_code[class_code(cells, background)])
    }
}

impl fmt::Debug for Classes {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_list().entries(&self.classes).finish()
    }
}

/// The size of the projected memory `lane` lives on: its cells are the
/// ranks of the cells it involves, so one past the highest.
pub(crate) fn projected_cells(lane: &CoverageLane) -> usize {
    slots(&lane.cells)
        .into_iter()
        .flatten()
        .max()
        .map_or(0, |rank| rank + 1)
}

/// A class of one target: the target's index in its [`TargetLanes`] and the
/// class's index among its lane set's classes, packed into one word.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, PartialOrd, Ord)]
pub(crate) struct ClassRef(u32);

impl ClassRef {
    /// Bits of the class index: a set of caller-built lanes may have a class
    /// for every class code.
    const CLASS_BITS: u32 = CLASS_CODES.trailing_zeros();

    pub(crate) fn new(target: usize, class: usize) -> ClassRef {
        debug_assert!(class < CLASS_CODES);
        ClassRef(
            u32::try_from(target << Self::CLASS_BITS | class)
                .expect("a list has fewer than 2^23 targets"),
        )
    }

    pub(crate) fn target(self) -> usize {
        (self.0 >> Self::CLASS_BITS) as usize
    }

    pub(crate) fn class(self) -> usize {
        (self.0 & ((1 << Self::CLASS_BITS) - 1)) as usize
    }
}

/// Class representatives of the targets of a list, bound into 256-lane
/// projected words: lane `i` of the image is lane `i % 256` of word
/// `i / 256`, the lanes in (target, class) order.
///
/// The session's artifact store keeps one image of every class per (list,
/// scope), beside the list's target lanes, and drops it with them. Coverage
/// runs a test on copies of its words, one backend call per word
/// ([`SimulationBackend::image_verdicts`]); a
/// [`TargetBatch`](crate::TargetBatch) starts from a copy of it. So a list's
/// classes are bound once per scope however many requests, generations and
/// minimisations read them.
///
/// [`SimulationBackend::image_verdicts`]: crate::SimulationBackend::image_verdicts
pub struct ClassImage {
    targets: Arc<TargetLanes>,
    words: Vec<ProjectedWord>,
    classes: Vec<ClassRef>,
}

impl ClassImage {
    /// The image of every class of every target of `targets`, in (target,
    /// class) order: a target's classes come in the order of their first
    /// lanes.
    #[must_use]
    pub fn new(targets: Arc<TargetLanes>) -> ClassImage {
        let classes = targets
            .iter()
            .enumerate()
            .flat_map(|(index, (_, set))| {
                (0..set.classes().len()).map(move |class| ClassRef::new(index, class))
            })
            .collect();
        ClassImage::bind(targets, classes)
    }

    /// The image of the classes `selected` picks of every target of
    /// `targets`: bit `c` of `selected[t]` picks class `c` of target `t`.
    pub(crate) fn selected(targets: Arc<TargetLanes>, selected: &[u64]) -> ClassImage {
        let mut classes = Vec::new();
        for (index, &picked) in selected.iter().enumerate() {
            let mut picked = picked;
            while picked != 0 {
                classes.push(ClassRef::new(index, picked.trailing_zeros() as usize));
                picked &= picked - 1;
            }
        }
        ClassImage::bind(targets, classes)
    }

    /// Binds the representatives of `classes` into words, decoding each
    /// target's fault once for all of its classes and binding the masks
    /// that do not depend on a class's cells once per word its classes
    /// reach.
    fn bind(targets: Arc<TargetLanes>, classes: Vec<ClassRef>) -> ClassImage {
        let mut words = vec![ProjectedWord::default(); classes.len().div_ceil(WORD_LANES)];
        let mut lane = 0;
        for of_target in classes.chunk_by(|one, other| one.target() == other.target()) {
            let (target, set) = &targets[of_target[0].target()];
            let fault = FaultTemplate::of(target);
            let (mut start, end) = (lane, lane + of_target.len());
            while start < end {
                let word = start / WORD_LANES;
                let stop = end.min((word + 1) * WORD_LANES);
                let first = start % WORD_LANES;
                words[word].bind_fault(first..first + (stop - start), &fault);
                start = stop;
            }
            for class in of_target {
                let representative = &set.classes().get(class.class()).representative;
                words[lane / WORD_LANES].bind(lane % WORD_LANES, &fault, representative);
                lane += 1;
            }
        }
        words.iter_mut().for_each(ProjectedWord::seal);
        ClassImage {
            targets,
            words,
            classes,
        }
    }

    /// The number of lanes: one per class.
    #[must_use]
    pub fn len(&self) -> usize {
        self.classes.len()
    }

    /// `true` when the image has no lanes.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.classes.is_empty()
    }

    /// The targets and lane sets the classes belong to.
    pub(crate) fn targets(&self) -> &Arc<TargetLanes> {
        &self.targets
    }

    /// The words, in lane order.
    pub(crate) fn words(&self) -> &[ProjectedWord] {
        &self.words
    }

    /// The class of every lane, in lane order.
    pub(crate) fn classes(&self) -> &[ClassRef] {
        &self.classes
    }

    /// The target and projected representative of every lane of `lanes`.
    pub(crate) fn representatives(&self, lanes: Range<usize>) -> Vec<(&TargetKind, &CoverageLane)> {
        self.classes[lanes]
            .iter()
            .map(|&class| representative(&self.targets, class))
            .collect()
    }

    /// Lanes `lanes` of the image, at most [`WORD_LANES`], as one word: a
    /// copy when they are one whole word, else taken range by range from
    /// the at most two words they span.
    pub(crate) fn word_of(&self, lanes: Range<usize>) -> ProjectedWord {
        assert!(
            lanes.len() <= WORD_LANES,
            "a word carries {WORD_LANES} lanes"
        );
        if lanes.start.is_multiple_of(WORD_LANES)
            && !lanes.is_empty()
            && (lanes.len() == WORD_LANES || lanes.end == self.classes.len())
        {
            return self.words[lanes.start / WORD_LANES];
        }
        let mut word = ProjectedWord::default();
        let mut at = 0;
        let mut start = lanes.start;
        while start < lanes.end {
            let source = start / WORD_LANES;
            let end = lanes.end.min((source + 1) * WORD_LANES);
            let first = start % WORD_LANES;
            word.take(&self.words[source], first..first + (end - start), at);
            at += end - start;
            start = end;
        }
        word
    }
}

impl fmt::Debug for ClassImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ClassImage")
            .field("targets", &self.targets.len())
            .field("classes", &self.classes.len())
            .field("words", &self.words.len())
            .finish()
    }
}

/// The target of `class` and the representative its verdicts are simulated
/// on.
fn representative(targets: &TargetLanes, class: ClassRef) -> (&TargetKind, &CoverageLane) {
    let (target, set) = &targets[class.target()];
    (target, &set.classes().get(class.class()).representative)
}

/// The index of `operation`'s kind among a component's sensitising
/// operation masks: a required read matches every read, a required write
/// only writes of its value.
fn operation_kind(operation: Operation) -> usize {
    match operation {
        Operation::Write(Bit::Zero) => 0,
        Operation::Write(Bit::One) => 1,
        Operation::Read(_) => 2,
        Operation::Wait => 3,
    }
}

/// One lane of a [`ProjectedWord`], as the limb that holds it and its bit
/// there: binding a lane sets one bit of one limb per mask.
#[derive(Debug, Clone, Copy)]
struct LaneBit {
    limb: usize,
    bit: u64,
}

impl LaneBit {
    fn of(lane: usize) -> LaneBit {
        assert!(lane < WORD_LANES, "a word carries {WORD_LANES} lanes");
        LaneBit {
            limb: lane / 64,
            bit: 1 << (lane % 64),
        }
    }

    /// Adds the lane to `mask`.
    fn set(self, mask: &mut W256) {
        *mask.limb_mut(self.limb) |= self.bit;
    }

    /// Adds the lane to `mask` when `value` is one.
    fn set_to(self, mask: &mut W256, value: Bit) {
        if value == Bit::One {
            self.set(mask);
        }
    }
}

/// Per-lane value of each lane's bound cell: OR of the memory planes masked
/// by the binding planes (a lane binds at most one cell).
#[inline(always)]
fn gather(planes: &[W256; MAX_CELLS], bound: &[W256; MAX_CELLS]) -> W256 {
    (planes[0] & bound[0]) | (planes[1] & bound[1]) | (planes[2] & bound[2])
}

/// Masked scatter: writes each lane's bit of `values` into its bound cell,
/// on the lanes of `lanes`.
#[inline(always)]
fn force(planes: &mut [W256; MAX_CELLS], bound: &[W256; MAX_CELLS], lanes: W256, values: W256) {
    for (plane, bound) in planes.iter_mut().zip(bound) {
        let write = lanes & *bound;
        *plane = (*plane & !write) | (values & write);
    }
}

/// The lanes whose cell values `values` meet their condition: lanes in
/// `zero` need a 0, lanes in `one` a 1, every other lane accepts both.
#[inline(always)]
fn holds(zero: W256, one: W256, values: W256) -> W256 {
    !((zero & values) | (one & !values))
}

/// Records a sensitising condition's initial state for `lanes`.
fn bind_condition(zero: &mut W256, one: &mut W256, initial: CellValue, lanes: W256) {
    match initial {
        CellValue::Zero => *zero |= lanes,
        CellValue::One => *one |= lanes,
        CellValue::DontCare => {}
    }
}

/// One array component's primitive, decoded once per target: everything
/// binding a lane of it needs except the lane's cells.
#[derive(Debug, Clone, Copy)]
struct ComponentTemplate {
    /// Whether the primitive has an aggressor.
    coupling: bool,
    site: SensitizingSite,
    /// The kind of its sensitising operation ([`operation_kind`]), if any.
    operation: Option<usize>,
    /// The initial states its victim and its aggressor must hold (`DontCare`
    /// for the aggressor of a single-cell primitive).
    victim: CellValue,
    aggressor: CellValue,
    /// What its sensitising read returns, when it overrides the cell.
    read: Option<Bit>,
    /// What its effect forces into the victim, if anything.
    forced: Option<Bit>,
}

impl ComponentTemplate {
    fn of(primitive: &FaultPrimitive) -> ComponentTemplate {
        ComponentTemplate {
            coupling: primitive.is_coupling(),
            site: primitive.sensitizing_site(),
            operation: primitive.sensitizing_operation().map(operation_kind),
            victim: primitive.victim().initial(),
            aggressor: primitive
                .aggressor()
                .map_or(CellValue::DontCare, |condition| condition.initial()),
            read: primitive.effect().read_output(),
            forced: primitive.effect().victim_value().to_bit(),
        }
    }
}

/// A target's fault decoded once, so that binding each of its classes only
/// stamps the class's cells and background bits into the word.
enum FaultTemplate<'t> {
    Simple(ComponentTemplate),
    /// The linked fault, whose topology places each component's aggressor,
    /// and its first and second components.
    Linked(&'t LinkedFault, [ComponentTemplate; 2]),
    Decoder(DecoderFault),
}

impl FaultTemplate<'_> {
    fn of(target: &TargetKind) -> FaultTemplate<'_> {
        match target {
            TargetKind::Simple(primitive) => {
                FaultTemplate::Simple(ComponentTemplate::of(primitive))
            }
            TargetKind::Linked(fault) => FaultTemplate::Linked(
                fault,
                [fault.first(), fault.second()].map(ComponentTemplate::of),
            ),
            TargetKind::Decoder(fault) => FaultTemplate::Decoder(*fault),
        }
    }
}

/// One array component — a simple target's primitive, or the first or
/// second primitive of a linked fault — of every lane of a
/// [`ProjectedWord`], as per-lane masks: lane `i` of every field describes
/// lane `i`, so the lanes of one word may carry different primitives.
#[derive(Debug, Clone, Copy, Default)]
struct ComponentPlanes {
    /// `victim[cell]`: lanes whose victim is `cell`.
    victim: [W256; MAX_CELLS],
    /// `aggressor[cell]`: lanes whose aggressor is `cell`.
    aggressor: [W256; MAX_CELLS],
    /// `site[cell]`: lanes sensitised by an operation on `cell` (their
    /// victim or their aggressor).
    site: [W256; MAX_CELLS],
    /// Lanes sensitised by each operation kind ([`operation_kind`]).
    operation: [W256; 4],
    /// Lanes sensitised by a state alone, settled after every operation.
    state: W256,
    /// Lanes whose victim must hold 0, or 1, to sensitise.
    victim_zero: W256,
    victim_one: W256,
    /// Lanes whose aggressor must hold 0, or 1, to sensitise.
    aggressor_zero: W256,
    aggressor_one: W256,
    /// Lanes whose sensitising read returns `read_value` instead of the
    /// cell's content.
    read_override: W256,
    read_value: W256,
    /// Lanes whose effect forces `forced_value` into the victim.
    forces: W256,
    forced_value: W256,
}

impl ComponentPlanes {
    /// Every mask of the component.
    fn masks_mut(&mut self) -> impl Iterator<Item = &mut W256> {
        let ComponentPlanes {
            victim,
            aggressor,
            site,
            operation,
            state,
            victim_zero,
            victim_one,
            aggressor_zero,
            aggressor_one,
            read_override,
            read_value,
            forces,
            forced_value,
        } = self;
        victim
            .iter_mut()
            .chain(aggressor)
            .chain(site)
            .chain(operation)
            .chain([
                state,
                victim_zero,
                victim_one,
                aggressor_zero,
                aggressor_one,
                read_override,
                read_value,
                forces,
                forced_value,
            ])
    }

    /// Binds what the primitive of `template` sets whatever its cells — its
    /// sensitising operation, conditions, read override and forced value —
    /// to every lane of `lanes`.
    fn bind_fault(&mut self, lanes: W256, template: &ComponentTemplate) {
        if template.site == SensitizingSite::None {
            self.state |= lanes;
        }
        if let Some(kind) = template.operation {
            self.operation[kind] |= lanes;
        }
        bind_condition(
            &mut self.victim_zero,
            &mut self.victim_one,
            template.victim,
            lanes,
        );
        bind_condition(
            &mut self.aggressor_zero,
            &mut self.aggressor_one,
            template.aggressor,
            lanes,
        );
        if let Some(read) = template.read {
            self.read_override |= lanes;
            self.read_value |= broadcast::<W256>(read) & lanes;
        }
        if let Some(forced) = template.forced {
            self.forces |= lanes;
            self.forced_value |= broadcast::<W256>(forced) & lanes;
        }
    }

    /// Binds the primitive of `template` on `victim` (and `aggressor`, for
    /// a coupling primitive) to `lane`: its victim, aggressor and
    /// sensitising-site planes.
    fn bind_cells(
        &mut self,
        lane: LaneBit,
        template: &ComponentTemplate,
        victim: usize,
        aggressor: Option<usize>,
    ) {
        let aggressor = aggressor.filter(|_| template.coupling);
        lane.set(&mut self.victim[victim]);
        if let Some(aggressor) = aggressor {
            lane.set(&mut self.aggressor[aggressor]);
        }
        match template.site {
            SensitizingSite::None => {}
            SensitizingSite::Victim => lane.set(&mut self.site[victim]),
            SensitizingSite::Aggressor => lane.set(
                &mut self.site[aggressor.expect("an aggressor-sensitised primitive is a coupling")],
            ),
        }
    }

    /// The lanes whose victim and aggressor conditions hold on `faulty`.
    #[inline(always)]
    fn conditions_hold(&self, faulty: &[W256; MAX_CELLS]) -> W256 {
        holds(
            self.victim_zero,
            self.victim_one,
            gather(faulty, &self.victim),
        ) & holds(
            self.aggressor_zero,
            self.aggressor_one,
            gather(faulty, &self.aggressor),
        )
    }

    /// The lanes sensitised by applying an operation of `kind` to
    /// `address`, on the pre-operation `faulty` state.
    #[inline(always)]
    fn fired(&self, faulty: &[W256; MAX_CELLS], address: usize, kind: usize) -> W256 {
        let sited = self.site[address] & self.operation[kind];
        if sited.is_zero() {
            return W256::ZERO;
        }
        sited & self.conditions_hold(faulty)
    }
}

/// The address-decoder fault of every lane of a [`ProjectedWord`], as
/// per-lane masks — the decoder counterpart of [`ComponentPlanes`].
#[derive(Debug, Clone, Copy, Default)]
struct DecoderPlanes {
    /// `source[cell]`: lanes whose perturbed address is `cell`.
    source: [W256; MAX_CELLS],
    /// `destination[cell]`: lanes whose perturbed address reaches `cell`.
    destination: [W256; MAX_CELLS],
    /// *No cell accessed* lanes, and those of them whose open read returns 1.
    no_cell: W256,
    open_read: W256,
    /// Lanes whose perturbed address reaches its destination instead of its
    /// own cell (*no address maps*, *multiple addresses map*).
    redirect: W256,
    /// Lanes whose perturbed address reaches its destination as well as its
    /// own cell (*multiple cells accessed*).
    fan_out: W256,
}

impl DecoderPlanes {
    /// Every mask of the decoder fault.
    fn masks_mut(&mut self) -> impl Iterator<Item = &mut W256> {
        let DecoderPlanes {
            source,
            destination,
            no_cell,
            open_read,
            redirect,
            fan_out,
        } = self;
        source
            .iter_mut()
            .chain(destination)
            .chain([no_cell, open_read, redirect, fan_out])
    }

    /// Binds the class of `fault` to every lane of `lanes`.
    fn bind_fault(&mut self, lanes: W256, fault: DecoderFault) {
        match fault {
            DecoderFault::NoCellAccessed { open_read } => {
                self.no_cell |= lanes;
                self.open_read |= broadcast::<W256>(open_read) & lanes;
            }
            DecoderFault::NoAddressMaps | DecoderFault::MultipleAddressesMap => {
                self.redirect |= lanes;
            }
            DecoderFault::MultipleCellsAccessed => self.fan_out |= lanes,
        }
    }

    /// Binds `fault` on `cells` to `lane`: its source and destination
    /// planes.
    fn bind_cells(&mut self, lane: LaneBit, fault: DecoderFault, cells: InstanceCells) {
        let instance = DecoderFaultInstance::new(fault, cells, MAX_CELLS)
            .expect("projected lanes fit their decoder class");
        lane.set(&mut self.source[instance.source()]);
        if let Some(destination) = instance.destination() {
            lane.set(&mut self.destination[destination]);
        }
    }
}

/// A bit-parallel simulator of up to [`WORD_LANES`] projected lanes, one
/// lane per bit of a [`W256`] (four 64-bit limbs, one AVX2 register), on the
/// at most three cells of the projected memory. Fixed size and heap-free:
/// its planes are `[W256; 3]` arrays, and each lane carries its own fault as
/// masks ([`ComponentPlanes`], [`DecoderPlanes`]), so a word mixes the lanes
/// of many targets, of every fault kind and every cell count.
///
/// The semantics are [`PackedSimulator`](crate::PackedSimulator)'s, step for
/// step: fire detection on the pre-operation state, decoder perturbation and
/// read overrides, the fault-free effect routed through the decoder, fault
/// effects in injection order, then one settle pass of the state-sensitised
/// components.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct ProjectedWord {
    /// The projected memory's size: the most cells any lane involves.
    cells: usize,
    /// One bit per packed lane.
    lanes: W256,
    faulty: [W256; MAX_CELLS],
    golden: [W256; MAX_CELLS],
    components: [ComponentPlanes; 2],
    decoder: DecoderPlanes,
    /// Lanes with a state-sensitised component; the settle pass is skipped
    /// when there are none.
    settles: W256,
    detected: W256,
}

impl ProjectedWord {
    /// Binds lanes `lanes` of the word to the target `fault` decodes: the
    /// lanes themselves and every mask of the fault that does not depend on
    /// a lane's cells, one range of lanes per mask. [`ProjectedWord::bind`]
    /// then binds each lane's cells.
    ///
    /// # Panics
    ///
    /// Panics when `lanes` is empty or reaches past the word.
    fn bind_fault(&mut self, lanes: Range<usize>, fault: &FaultTemplate) {
        assert!(
            !lanes.is_empty() && lanes.end <= WORD_LANES,
            "a word carries {WORD_LANES} lanes"
        );
        let lanes = W256::full_mask(lanes.len()) << lanes.start;
        self.lanes |= lanes;
        match fault {
            FaultTemplate::Simple(component) => self.components[0].bind_fault(lanes, component),
            FaultTemplate::Linked(_, components) => {
                for (planes, component) in self.components.iter_mut().zip(components) {
                    planes.bind_fault(lanes, component);
                }
            }
            FaultTemplate::Decoder(fault) => self.decoder.bind_fault(lanes, *fault),
        }
    }

    /// Binds lane `lane` of the word, whose fault
    /// [`ProjectedWord::bind_fault`] bound, to `representative`, a lane of
    /// the target `fault` decodes: its cells and its background bits.
    /// [`ProjectedWord::seal`] completes the word once every lane is bound.
    ///
    /// # Panics
    ///
    /// Panics when `lane` is not a lane of the word, or `representative` is
    /// not projected (involves a cell at or beyond three) or does not fit
    /// its target's topology.
    fn bind(&mut self, lane: usize, fault: &FaultTemplate, representative: &CoverageLane) {
        let bit = LaneBit::of(lane);
        let cells = projected_cells(representative);
        assert!(
            cells <= MAX_CELLS,
            "{:?} is not a projected lane",
            representative.cells
        );
        self.cells = self.cells.max(cells);
        for (cell, plane) in self.faulty.iter_mut().enumerate().take(cells) {
            bit.set_to(plane, representative.background.bit_at(cell));
        }
        let placed = representative.cells;
        match fault {
            FaultTemplate::Simple(component) => {
                self.components[0].bind_cells(
                    bit,
                    component,
                    placed.victim,
                    placed.aggressor_first,
                );
            }
            FaultTemplate::Linked(fault, components) => {
                let aggressors = component_aggressors(fault, placed)
                    .expect("projected lanes fit their target's topology");
                for ((planes, component), aggressor) in
                    self.components.iter_mut().zip(components).zip(aggressors)
                {
                    planes.bind_cells(bit, component, placed.victim, aggressor);
                }
            }
            FaultTemplate::Decoder(fault) => self.decoder.bind_cells(bit, *fault, placed),
        }
    }

    /// Starts the golden memory from the bound initial state and settles
    /// it: the last step of binding a word.
    fn seal(&mut self) {
        self.golden = self.faulty;
        self.settles = self.components[0].state | self.components[1].state;
        self.settle();
    }

    /// The lanes that have not detected their fault yet.
    pub(crate) fn pending(&self) -> W256 {
        self.lanes & !self.detected
    }

    /// Every per-lane mask of the word: the lanes, the memory planes and the
    /// fault masks. Lane `i` of the word is lane `i` of each.
    fn masks_mut(&mut self) -> impl Iterator<Item = &mut W256> {
        let ProjectedWord {
            cells: _,
            lanes,
            faulty,
            golden,
            components,
            decoder,
            settles,
            detected,
        } = self;
        [lanes, settles, detected]
            .into_iter()
            .chain(faulty)
            .chain(golden)
            .chain(components.iter_mut().flat_map(ComponentPlanes::masks_mut))
            .chain(decoder.masks_mut())
    }

    /// Moves lanes `lanes` of `source` into this word's lanes `at..`, in
    /// order: each keeps its memory state, its detection bit and its fault.
    /// The destination lanes must be free.
    ///
    /// # Panics
    ///
    /// Panics when the moved lanes do not fit below lane [`WORD_LANES`].
    pub(crate) fn take(&mut self, source: &ProjectedWord, lanes: Range<usize>, at: usize) {
        assert!(
            lanes.end <= WORD_LANES && at + lanes.len() <= WORD_LANES,
            "a word carries {WORD_LANES} lanes"
        );
        if lanes.is_empty() {
            return;
        }
        let kept = W256::full_mask(lanes.len());
        // `masks_mut` lists the masks once for both words; the source side
        // walks a copy.
        let mut source = *source;
        self.cells = self.cells.max(source.cells);
        for (into, from) in self.masks_mut().zip(source.masks_mut()) {
            *into |= ((*from >> lanes.start) & kept) << at;
        }
    }

    /// Executes one march element on every lane. Stops once every lane has
    /// detected its fault.
    pub(crate) fn run_element(&mut self, element: &MarchElement) {
        for address in element.order().addresses(self.cells) {
            if self.detected == self.lanes {
                return;
            }
            for &operation in element.operations() {
                self.apply(address, operation);
            }
        }
    }

    /// One pass over the state-sensitised components in injection order,
    /// forcing the victims of every lane whose state condition holds.
    #[inline(always)]
    fn settle(&mut self) {
        if self.settles.is_zero() {
            return;
        }
        for component in &self.components {
            let lanes = self.lanes & component.state & component.forces;
            if lanes.is_zero() {
                continue;
            }
            let lanes = lanes & component.conditions_hold(&self.faulty);
            force(
                &mut self.faulty,
                &component.victim,
                lanes,
                component.forced_value,
            );
        }
    }

    /// Applies one memory operation to cell `address` of every lane.
    #[inline(always)]
    fn apply(&mut self, address: usize, operation: Operation) {
        // 1. Which components fire, per lane?
        let kind = operation_kind(operation);
        let fired = [
            self.components[0].fired(&self.faulty, address, kind),
            self.components[1].fired(&self.faulty, address, kind),
        ];

        // 2. Read return values and detection: the decoder perturbation
        // resolves first, then the fired components' read overrides.
        let decoder = &self.decoder;
        let source = decoder.source[address];
        if operation.is_read() {
            let mut observed = self.faulty[address];
            if !source.is_zero() {
                let destination = gather(&self.faulty, &decoder.destination);
                let no_cell = source & decoder.no_cell;
                let redirected = source & decoder.redirect;
                observed = (observed & !(no_cell | redirected))
                    | (decoder.open_read & no_cell)
                    | (destination & redirected);
                // Wired-AND of the own cell and the extra cell.
                observed &= destination | !(source & decoder.fan_out);
            }
            for (component, fired) in self.components.iter().zip(fired) {
                let overridden = fired & component.read_override & component.victim[address];
                observed = (observed & !overridden) | (component.read_value & overridden);
            }
            self.detected |= (observed ^ self.golden[address]) & self.lanes;
        }

        // 3. Fault-free effect of the operation, routed through the perturbed
        // decode on the faulty side.
        if let Operation::Write(value) = operation {
            let bits = broadcast::<W256>(value);
            self.golden[address] = bits;
            let own = !(source & (decoder.no_cell | decoder.redirect));
            self.faulty[address] = (self.faulty[address] & !own) | (bits & own);
            let reached = source & (decoder.redirect | decoder.fan_out);
            if !reached.is_zero() {
                force(&mut self.faulty, &decoder.destination, reached, bits);
            }
        }

        // 4. Fault effects of the fired components, in injection order.
        for (component, fired) in self.components.iter().zip(fired) {
            let lanes = fired & component.forces;
            if !lanes.is_zero() {
                force(
                    &mut self.faulty,
                    &component.victim,
                    lanes,
                    component.forced_value,
                );
            }
        }

        // 5. One pass of the state-sensitised components.
        self.settle();
    }

    /// Every lane's whole state — its memory planes and fault masks, one bit
    /// of each mask — as one `u64`, lane `i` at index `i`. Two pending lanes
    /// with equal states run every later operation alike. Each limb of the
    /// masks is read as the rows of a 64 × 64 bit matrix and transposed, so
    /// no lane's masks are walked one by one.
    pub(crate) fn lane_states(&self) -> [u64; WORD_LANES] {
        // Row `r` of limb `l`'s matrix is limb `l` of mask `r`.
        let mut states = [0; WORD_LANES];
        let mut word = *self;
        let mut rows = 0;
        for (row, mask) in word.masks_mut().enumerate() {
            for limb in 0..W256::LIMBS {
                states[limb * 64 + row] = mask.limb(limb);
            }
            rows = row + 1;
        }
        debug_assert!(rows <= 64, "a lane's state fits a u64");
        for matrix in states.as_chunks_mut::<64>().0 {
            transpose(matrix);
        }
        states
    }

    /// The word whose lane `i` has state `states[i]`, as
    /// [`ProjectedWord::lane_states`] reads it, on a projected memory of
    /// `cells` cells: the inverse transpose, limb by limb.
    pub(crate) fn from_lane_states(states: &[u64], cells: usize) -> ProjectedWord {
        let mut rows = [0; WORD_LANES];
        rows[..states.len()].copy_from_slice(states);
        for matrix in rows.as_chunks_mut::<64>().0 {
            transpose(matrix);
        }
        let mut word = ProjectedWord {
            cells,
            ..ProjectedWord::default()
        };
        for (row, mask) in word.masks_mut().enumerate() {
            for limb in 0..W256::LIMBS {
                *mask.limb_mut(limb) = rows[limb * 64 + row];
            }
        }
        word
    }

    /// The size of the projected memory the word simulates.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// Runs `test` on every lane and returns the detected lanes. Stops once
    /// every lane has detected its fault.
    pub(crate) fn run(mut self, test: &MarchTest) -> W256 {
        for (_, element) in test.iter() {
            if self.detected == self.lanes {
                break;
            }
            self.run_element(element);
        }
        self.detected
    }
}

/// The set lanes of `mask`, lowest first, limb by limb.
pub(crate) fn lanes_of(mask: W256) -> impl Iterator<Item = usize> {
    (0..W256::LIMBS).flat_map(move |limb| {
        let mut bits = mask.limb(limb);
        std::iter::from_fn(move || {
            (bits != 0).then(|| {
                let lane = bits.trailing_zeros() as usize;
                bits &= bits - 1;
                limb * 64 + lane
            })
        })
    })
}

/// Transposes the 64 × 64 bit matrix whose row `r` is `rows[r]`: afterwards
/// bit `c` of row `r` is what bit `r` of row `c` was. Each step swaps the
/// off-diagonal blocks of every block of twice its width.
fn transpose(rows: &mut [u64; 64]) {
    let mut width = 32;
    let mut low = u64::MAX >> width;
    while width > 0 {
        for block in (0..64).step_by(2 * width) {
            for row in block..block + width {
                let swap = ((rows[row] >> width) ^ rows[row + width]) & low;
                rows[row] ^= swap << width;
                rows[row + width] ^= swap;
            }
        }
        width /= 2;
        low ^= low << width;
    }
}

/// Checks `lane` against the `memory_cells`-cell memory it was placed on,
/// since its projection would fit whatever the memory size:
/// [`SimulationError::AddressOutOfRange`] for a cell at or beyond
/// `memory_cells`, [`SimulationError::InitialStateSizeMismatch`] for a
/// custom background of another length.
pub(crate) fn check_lane(lane: &CoverageLane, memory_cells: usize) -> Result<(), SimulationError> {
    if let Some(address) = slots(&lane.cells)
        .into_iter()
        .flatten()
        .find(|&address| address >= memory_cells)
    {
        return Err(SimulationError::AddressOutOfRange {
            address,
            cells: memory_cells,
        });
    }
    lane.background.check(memory_cells)
}

/// `lane` remapped onto the projected memory of the cells it involves: their
/// ranks as addresses, the background cut down to them. This is how the
/// scalar [`TargetBatch`](crate::TargetBatch) simulates every lane while it
/// keeps the original descriptor.
///
/// # Errors
///
/// Those of [`check_lane`]: the lane must fit the `memory_cells`-cell
/// memory it was placed on.
pub(crate) fn project_lane(
    lane: &CoverageLane,
    memory_cells: usize,
) -> Result<CoverageLane, SimulationError> {
    check_lane(lane, memory_cells)?;
    Ok(Involved::of(&lane.cells).project(lane))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::enumerate_lanes;
    use crate::{BackendKind, LaneSet, PlacementStrategy, SimulationBackend};
    use march_test::catalog;
    use sram_fault_model::{DecoderFault, FaultList};

    /// Both uniform backgrounds, the checkerboard and an irregular custom
    /// image of `cells` cells.
    fn backgrounds(cells: usize) -> Vec<InitialState> {
        let custom = (0..cells)
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
            InitialState::Custom(custom),
        ]
    }

    fn targets() -> Vec<TargetKind> {
        let list = FaultList::list_1();
        let mut targets: Vec<TargetKind> = list
            .linked()
            .iter()
            .step_by(37)
            .map(|fault| TargetKind::Linked(fault.clone()))
            .collect();
        targets.extend(
            FaultList::unlinked_static()
                .simple()
                .iter()
                .step_by(5)
                .map(|primitive| TargetKind::Simple(primitive.clone())),
        );
        targets.extend(DecoderFault::all().into_iter().map(TargetKind::Decoder));
        targets
    }

    /// The verdict of every one of `lanes` from the image of their classes,
    /// one `image_verdicts` call per word, and the index of the first lane
    /// of the first escaping class.
    fn projected(
        backend: &dyn SimulationBackend,
        test: &MarchTest,
        target: &TargetKind,
        lanes: &[CoverageLane],
    ) -> (Vec<bool>, Option<usize>) {
        let set = Arc::new(LaneSet::from(lanes.to_vec()));
        let image = ClassImage::new(Arc::new(vec![(target.clone(), Arc::clone(&set))]));
        let classes = set.classes();
        let class_verdicts: Vec<bool> = (0..image.len())
            .step_by(WORD_LANES)
            .flat_map(|first| {
                let word = first..image.len().min(first + WORD_LANES);
                let detected = backend.image_verdicts(test, &image, word.clone());
                word.map(move |lane| detected.test_bit(lane - first))
            })
            .collect();
        let verdicts = lanes
            .iter()
            .map(|lane| class_verdicts[classes.class_of(&lane.cells, &lane.background)])
            .collect();
        let first = class_verdicts
            .iter()
            .position(|detected| !detected)
            .map(|class| classes.get(class).first_lane);
        (verdicts, first)
    }

    #[test]
    fn projected_verdicts_match_the_full_memory_walk() {
        for target in targets() {
            let lanes = enumerate_lanes(&target, 8, PlacementStrategy::Exhaustive, &backgrounds(8))
                .unwrap();
            for test in [catalog::mats_plus(), catalog::march_c_minus()] {
                for backend in [
                    BackendKind::Scalar.instance(),
                    BackendKind::Packed.instance(),
                ] {
                    let full = backend.lane_verdicts(&test, &target, &lanes, 8);
                    let (verdicts, first) = projected(backend.as_ref(), &test, &target, &lanes);
                    assert_eq!(
                        verdicts,
                        full,
                        "{target} under {} on {}",
                        test.name(),
                        backend.name()
                    );
                    assert_eq!(
                        first,
                        full.iter().position(|detected| !detected),
                        "{target} under {} on {}",
                        test.name(),
                        backend.name()
                    );
                }
            }
        }
    }

    #[test]
    fn classes_are_bounded_by_orders_and_background_patterns() {
        let lf3 = FaultList::list_1()
            .linked()
            .iter()
            .find(|fault| fault.cell_count() == 3)
            .expect("list #1 has three-cell faults")
            .clone();
        let target = TargetKind::Linked(lf3);
        let lanes = enumerate_lanes(
            &target,
            16,
            PlacementStrategy::Exhaustive,
            &backgrounds(16)[..2],
        )
        .unwrap();
        let classes = Classes::of(&lanes);
        // Six orders under two uniform backgrounds; three projected cells.
        assert_eq!(classes.len(), 12);
        assert!(classes
            .classes
            .iter()
            .all(|class| projected_cells(&class.representative) == 3));
        let first_lanes: Vec<usize> = classes
            .classes
            .iter()
            .map(|class| class.first_lane)
            .collect();
        assert_eq!(first_lanes[0], 0);
        assert!(first_lanes.windows(2).all(|pair| pair[0] < pair[1]));

        // Patterned backgrounds split the classes by the bits under the
        // involved cells, up to 2^3 patterns per order.
        let lanes =
            enumerate_lanes(&target, 16, PlacementStrategy::Exhaustive, &backgrounds(16)).unwrap();
        assert_eq!(Classes::of(&lanes).len(), MAX_CLASSES);
    }

    #[test]
    fn representatives_keep_rank_order_and_background_bits() {
        let lane = CoverageLane {
            cells: InstanceCells::triple(6, 1, 4),
            background: InitialState::Checkerboard,
        };
        let classes = Classes::of(std::slice::from_ref(&lane));
        assert_eq!(classes.len(), 1);
        assert_eq!(
            classes.get(0).representative,
            CoverageLane {
                cells: InstanceCells::triple(2, 0, 1),
                background: InitialState::Custom(vec![Bit::One, Bit::Zero, Bit::Zero]),
            }
        );
        assert_eq!(classes.get(0).lane, lane);
        // A pair placement names its aggressor in both slots but involves
        // two cells.
        assert_eq!(
            projected_cells(
                &Classes::of(&[CoverageLane {
                    cells: InstanceCells::pair(5, 2),
                    background: InitialState::AllOne,
                }])
                .get(0)
                .representative
            ),
            2
        );
        let empty = Classes::of(&[]);
        assert_eq!(empty.len(), 0);
        let image = ClassImage::new(Arc::new(Vec::new()));
        assert!(image.is_empty());
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            assert_eq!(
                backend
                    .instance()
                    .image_verdicts(&catalog::march_ss(), &image, 0..0),
                W256::ZERO
            );
        }
    }

    #[test]
    fn transpose_swaps_rows_and_columns() {
        let mut rows = [0u64; 64];
        for (index, row) in rows.iter_mut().enumerate() {
            *row = (index as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ (1 << index);
        }
        let original = rows;
        transpose(&mut rows);
        for (row, bits) in rows.iter().enumerate() {
            for (column, source) in original.iter().enumerate() {
                assert_eq!(bits >> column & 1, source >> row & 1, "{row}, {column}");
            }
        }
        transpose(&mut rows);
        assert_eq!(rows, original);
    }

    /// One word of `lanes`, lane `i` bound to `lanes[i]`, each lane's target
    /// decoded on its own.
    fn pack(lanes: &[(TargetKind, CoverageLane)]) -> ProjectedWord {
        let mut word = ProjectedWord::default();
        for (lane, (target, representative)) in lanes.iter().enumerate() {
            let fault = FaultTemplate::of(target);
            word.bind_fault(lane..lane + 1, &fault);
            word.bind(lane, &fault, representative);
        }
        word.seal();
        word
    }

    /// A full word of mixed targets — linked, simple and decoder lanes of
    /// one, two and three cells in every limb — after the first two
    /// elements of MATS+, so some lanes have detected their fault.
    fn mixed_word() -> ProjectedWord {
        let target_lanes: Vec<(TargetKind, CoverageLane)> = targets()
            .into_iter()
            .flat_map(|target| {
                enumerate_lanes(
                    &target,
                    8,
                    PlacementStrategy::Representative,
                    &backgrounds(8),
                )
                .unwrap()
                .into_iter()
                .take(8)
                .map(move |lane| (target.clone(), Involved::of(&lane.cells).project(&lane)))
            })
            .take(WORD_LANES)
            .collect();
        assert_eq!(target_lanes.len(), WORD_LANES);
        let mut word = pack(&target_lanes);
        for element in catalog::mats_plus().elements().iter().take(2) {
            word.run_element(element);
        }
        for limb in 0..W256::LIMBS {
            let detected = word.detected.limb(limb);
            assert!(detected != 0 && detected != u64::MAX, "limb {limb}");
        }
        word
    }

    /// Lane `lane` of every mask of `word`, in mask order.
    fn lane_bits(word: &ProjectedWord, lane: usize) -> Vec<bool> {
        let mut word = *word;
        word.masks_mut().map(|mask| mask.test_bit(lane)).collect()
    }

    #[test]
    fn lane_states_rebuild_the_word_they_were_read_from() {
        // A full word of mixed targets after a few elements: reading each
        // lane's state and packing the states back gives the same word, and
        // the states of two lanes are equal exactly when every mask agrees
        // on them, in every limb.
        let word = mixed_word();
        let states = word.lane_states();
        let rebuilt = ProjectedWord::from_lane_states(&states, word.cells);
        let (mut word_masks, mut rebuilt_masks) = (word, rebuilt);
        assert!(word_masks.masks_mut().eq(rebuilt_masks.masks_mut()));
        let bits: Vec<Vec<bool>> = (0..WORD_LANES).map(|lane| lane_bits(&word, lane)).collect();
        for first in 0..WORD_LANES {
            for second in 0..WORD_LANES {
                assert_eq!(
                    states[first] == states[second],
                    bits[first] == bits[second],
                    "{first}, {second}"
                );
            }
        }
        // Each state is its lane's bits, read in mask order.
        for (lane, bits) in bits.iter().enumerate() {
            let state = bits
                .iter()
                .enumerate()
                .fold(0u64, |state, (row, &bit)| state | u64::from(bit) << row);
            assert_eq!(states[lane], state, "lane {lane}");
        }
    }

    #[test]
    fn take_moves_lane_ranges_across_limbs() {
        // Ranges that start, end or sit at limb edges, moved within a limb,
        // across limbs and to the top of the word: every moved lane keeps
        // every mask bit, and no other lane is set.
        let source = mixed_word();
        for (lanes, at) in [
            (0..WORD_LANES, 0),
            (0..1, 255),
            (63..65, 0),
            (63..65, 127),
            (60..130, 10),
            (64..192, 64),
            (190..256, 0),
            (1..256, 0),
            (200..201, 63),
            (5..5, 0),
        ] {
            let mut word = ProjectedWord::default();
            word.take(&source, lanes.clone(), at);
            let cells = if lanes.is_empty() { 0 } else { source.cells() };
            assert_eq!(word.cells(), cells, "{lanes:?} to {at}");
            for lane in 0..WORD_LANES {
                let expected = if (at..at + lanes.len()).contains(&lane) {
                    lane_bits(&source, lanes.start + lane - at)
                } else {
                    vec![false; lane_bits(&source, 0).len()]
                };
                assert_eq!(
                    lane_bits(&word, lane),
                    expected,
                    "{lanes:?} to {at}, lane {lane}"
                );
            }
        }
    }
}
