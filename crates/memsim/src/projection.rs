//! Projected simulation: coverage and campaign lanes simulated on the at most
//! three cells their fault instance involves, one representative per class,
//! the classes of many targets packed into shared 64-lane words.
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
//! 64 projected lanes on at most three cells, and each of its lanes carries
//! its own fault as per-lane masks: victim, aggressor and sensitising-site
//! planes, one mask per sensitising operation kind, initial-state masks, the
//! read override and the forced value of each array component, and source
//! and destination planes plus class masks for a decoder fault.
//! Sensitisation is mask arithmetic, so one word holds lanes of many targets.
//!
//! A [`ClassImage`] binds every class representative of every target of a
//! list into consecutive words, in (target, class) order. The session's
//! artifact store keeps one per (list, scope), beside the target lanes, and
//! drops it with them; it is never snapshotted. Coverage runs a test on
//! copies of its words through
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
//! Fault List #1 at 8 or 16 cells is 6,448 class representatives in 101
//! words, and at 4096 cells too.
//!
//! The generator's and the minimiser's [`TargetBatch`](crate::TargetBatch)
//! starts from a copy of the same image, each lane weighted by its class's
//! lane count ([`LaneSet`]'s weight table), since a greedy score counts
//! lanes. Scoring runs a candidate on a copy of a word
//! ([`ProjectedWord::run_element`]) and sums the weights of the lanes it
//! detects. Advancing merges the pending lanes whose whole state has become
//! equal — their memory planes and fault masks, 63 bits that
//! [`ProjectedWord::lane_states`] reads for all 64 lanes at once with a bit
//! transpose — and packs the survivors densely again
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
use sram_fault_model::{Bit, CellValue, DecoderFault, FaultPrimitive, Operation, SensitizingSite};

use crate::backend::CoverageLane;
use crate::coverage::TargetKind;
use crate::inject::component_aggressors;
use crate::session::TargetLanes;
use crate::{DecoderFaultInstance, InitialState, InstanceCells, SimulationError};

/// How many lanes one [`ProjectedWord`] carries.
pub(crate) const WORD_LANES: usize = 64;

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
            let code = class_code(&cells, background);
            if classes.index_of_code[code] != UNSEEN {
                continue;
            }
            classes.index_of_code[code] = classes.classes.len() as u16;
            let lane = CoverageLane {
                cells,
                background: background.clone(),
            };
            classes.classes.push(LaneClass {
                first_lane,
                representative: Involved::of(&cells).project(&lane),
                lane,
            });
        }
        classes
    }

    /// Partitions `lanes` into their classes, lane by lane: the reference the
    /// closed-form classes of each placement shape are tested against.
    #[cfg(test)]
    pub(crate) fn of(lanes: &[CoverageLane]) -> Classes {
        Classes::first_seen(
            lanes
                .iter()
                .enumerate()
                .map(|(index, lane)| (index, lane.cells, &lane.background)),
        )
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

/// Class representatives of the targets of a list, bound into 64-lane
/// projected words: lane `i` of the image is lane `i % 64` of word
/// `i / 64`, the lanes in (target, class) order.
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

    /// Binds the representatives of `classes` into words.
    fn bind(targets: Arc<TargetLanes>, classes: Vec<ClassRef>) -> ClassImage {
        let words = classes
            .chunks(WORD_LANES)
            .map(|word| {
                ProjectedWord::pack(word.iter().map(|&class| representative(&targets, class)))
            })
            .collect();
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
    /// copy when they are one whole word, else taken run by run from the at
    /// most two words they span.
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
            let (low, high) = (start % WORD_LANES, (end - 1) % WORD_LANES + 1);
            let mask = (u64::MAX >> (WORD_LANES - high)) & (u64::MAX << low);
            word.take(&self.words[source], mask, at);
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

/// `lanes` where `bit` is one, no lane where it is zero.
fn lanes_holding(bit: Bit, lanes: u64) -> u64 {
    match bit {
        Bit::Zero => 0,
        Bit::One => lanes,
    }
}

/// The runs of consecutive lanes of a lane mask, as `(first lane, length)`
/// pairs in bit order: gathering any mask's bits at those lanes into
/// consecutive low bits costs one shift per run, not one per lane.
struct Runs {
    runs: [(u32, u32); WORD_LANES / 2],
    count: usize,
}

impl Runs {
    fn of(mut lanes: u64) -> Runs {
        let mut runs = Runs {
            runs: [(0, 0); WORD_LANES / 2],
            count: 0,
        };
        while lanes != 0 {
            let first = lanes.trailing_zeros();
            let length = (lanes >> first).trailing_ones();
            runs.runs[runs.count] = (first, length);
            runs.count += 1;
            lanes &= !(low_bits(length) << first);
        }
        runs
    }

    /// `bits` at the lanes of the runs, packed into consecutive low bits.
    fn gather(&self, bits: u64) -> u64 {
        let mut gathered = 0;
        let mut at = 0;
        for &(first, length) in &self.runs[..self.count] {
            gathered |= (bits >> first & low_bits(length)) << at;
            at += length;
        }
        gathered
    }
}

/// The mask of the lowest `count` bits, `count` in `1..=64`.
fn low_bits(count: u32) -> u64 {
    u64::MAX >> (64 - count)
}

/// Per-lane value of each lane's bound cell: OR of the memory planes masked
/// by the binding planes (a lane binds at most one cell).
fn gather(planes: &[u64; MAX_CELLS], bound: &[u64; MAX_CELLS]) -> u64 {
    (planes[0] & bound[0]) | (planes[1] & bound[1]) | (planes[2] & bound[2])
}

/// Masked scatter: writes each lane's bit of `values` into its bound cell,
/// on the lanes of `lanes`.
fn force(planes: &mut [u64; MAX_CELLS], bound: &[u64; MAX_CELLS], lanes: u64, values: u64) {
    for (plane, bound) in planes.iter_mut().zip(bound) {
        let write = lanes & bound;
        *plane = (*plane & !write) | (values & write);
    }
}

/// The lanes whose cell values `values` meet their condition: lanes in
/// `zero` need a 0, lanes in `one` a 1, every other lane accepts both.
fn holds(zero: u64, one: u64, values: u64) -> u64 {
    !((zero & values) | (one & !values))
}

/// Records a sensitising condition's initial state for the lanes of `bit`.
fn bind_condition(zero: &mut u64, one: &mut u64, initial: CellValue, bit: u64) {
    match initial {
        CellValue::Zero => *zero |= bit,
        CellValue::One => *one |= bit,
        CellValue::DontCare => {}
    }
}

/// One array component — a simple target's primitive, or the first or
/// second primitive of a linked fault — of every lane of a
/// [`ProjectedWord`], as per-lane masks: bit `i` of every field describes
/// lane `i`, so the lanes of one word may carry different primitives.
#[derive(Debug, Clone, Copy, Default)]
struct ComponentPlanes {
    /// `victim[cell]`: lanes whose victim is `cell`.
    victim: [u64; MAX_CELLS],
    /// `aggressor[cell]`: lanes whose aggressor is `cell`.
    aggressor: [u64; MAX_CELLS],
    /// `site[cell]`: lanes sensitised by an operation on `cell` (their
    /// victim or their aggressor).
    site: [u64; MAX_CELLS],
    /// Lanes sensitised by each operation kind ([`operation_kind`]).
    operation: [u64; 4],
    /// Lanes sensitised by a state alone, settled after every operation.
    state: u64,
    /// Lanes whose victim must hold 0, or 1, to sensitise.
    victim_zero: u64,
    victim_one: u64,
    /// Lanes whose aggressor must hold 0, or 1, to sensitise.
    aggressor_zero: u64,
    aggressor_one: u64,
    /// Lanes whose sensitising read returns `read_value` instead of the
    /// cell's content.
    read_override: u64,
    read_value: u64,
    /// Lanes whose effect forces `forced_value` into the victim.
    forces: u64,
    forced_value: u64,
}

impl ComponentPlanes {
    /// Every mask of the component.
    fn masks_mut(&mut self) -> impl Iterator<Item = &mut u64> {
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

    /// Binds `primitive` on `victim` (and `aggressor`, for a coupling
    /// primitive) to the lanes of `bit`.
    fn bind(
        &mut self,
        bit: u64,
        primitive: &FaultPrimitive,
        victim: usize,
        aggressor: Option<usize>,
    ) {
        let aggressor = aggressor.filter(|_| primitive.is_coupling());
        self.victim[victim] |= bit;
        if let Some(aggressor) = aggressor {
            self.aggressor[aggressor] |= bit;
        }
        match primitive.sensitizing_site() {
            SensitizingSite::None => self.state |= bit,
            SensitizingSite::Victim => self.site[victim] |= bit,
            SensitizingSite::Aggressor => {
                self.site[aggressor.expect("an aggressor-sensitised primitive is a coupling")] |=
                    bit;
            }
        }
        if let Some(operation) = primitive.sensitizing_operation() {
            self.operation[operation_kind(operation)] |= bit;
        }
        bind_condition(
            &mut self.victim_zero,
            &mut self.victim_one,
            primitive.victim().initial(),
            bit,
        );
        if let Some(condition) = primitive.aggressor() {
            bind_condition(
                &mut self.aggressor_zero,
                &mut self.aggressor_one,
                condition.initial(),
                bit,
            );
        }
        if let Some(read) = primitive.effect().read_output() {
            self.read_override |= bit;
            self.read_value |= lanes_holding(read, bit);
        }
        if let Some(forced) = primitive.effect().victim_value().to_bit() {
            self.forces |= bit;
            self.forced_value |= lanes_holding(forced, bit);
        }
    }

    /// The lanes whose victim and aggressor conditions hold on `faulty`.
    fn conditions_hold(&self, faulty: &[u64; MAX_CELLS]) -> u64 {
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
    fn fired(&self, faulty: &[u64; MAX_CELLS], address: usize, kind: usize) -> u64 {
        let sited = self.site[address] & self.operation[kind];
        if sited == 0 {
            return 0;
        }
        sited & self.conditions_hold(faulty)
    }
}

/// The address-decoder fault of every lane of a [`ProjectedWord`], as
/// per-lane masks — the decoder counterpart of [`ComponentPlanes`].
#[derive(Debug, Clone, Copy, Default)]
struct DecoderPlanes {
    /// `source[cell]`: lanes whose perturbed address is `cell`.
    source: [u64; MAX_CELLS],
    /// `destination[cell]`: lanes whose perturbed address reaches `cell`.
    destination: [u64; MAX_CELLS],
    /// *No cell accessed* lanes, and those of them whose open read returns 1.
    no_cell: u64,
    open_read: u64,
    /// Lanes whose perturbed address reaches its destination instead of its
    /// own cell (*no address maps*, *multiple addresses map*).
    redirect: u64,
    /// Lanes whose perturbed address reaches its destination as well as its
    /// own cell (*multiple cells accessed*).
    fan_out: u64,
}

impl DecoderPlanes {
    /// Every mask of the decoder fault.
    fn masks_mut(&mut self) -> impl Iterator<Item = &mut u64> {
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

    /// Binds `fault` on `cells` to the lanes of `bit`.
    fn bind(&mut self, bit: u64, fault: DecoderFault, cells: InstanceCells) {
        let instance = DecoderFaultInstance::new(fault, cells, MAX_CELLS)
            .expect("projected lanes fit their decoder class");
        self.source[instance.source()] |= bit;
        if let Some(destination) = instance.destination() {
            self.destination[destination] |= bit;
        }
        match fault {
            DecoderFault::NoCellAccessed { open_read } => {
                self.no_cell |= bit;
                self.open_read |= lanes_holding(open_read, bit);
            }
            DecoderFault::NoAddressMaps | DecoderFault::MultipleAddressesMap => {
                self.redirect |= bit;
            }
            DecoderFault::MultipleCellsAccessed => self.fan_out |= bit,
        }
    }
}

/// A bit-parallel simulator of up to [`WORD_LANES`] projected lanes, one
/// lane per bit, on the at most three cells of the projected memory. Fixed
/// size and heap-free: its planes are `[u64; 3]` arrays, and each lane
/// carries its own fault as masks ([`ComponentPlanes`], [`DecoderPlanes`]),
/// so a word mixes the lanes of many targets, of every fault kind and every
/// cell count.
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
    lanes: u64,
    faulty: [u64; MAX_CELLS],
    golden: [u64; MAX_CELLS],
    components: [ComponentPlanes; 2],
    decoder: DecoderPlanes,
    /// Lanes with a state-sensitised component; the settle pass is skipped
    /// when there are none.
    settles: u64,
    detected: u64,
}

impl ProjectedWord {
    /// Packs `lanes` (at most [`WORD_LANES`]), lane `i` in bit `i`, and
    /// settles the initial state.
    ///
    /// # Panics
    ///
    /// Panics when a lane is not projected (involves a cell at or beyond
    /// three) or does not fit its target's topology.
    pub(crate) fn pack<'t, 'l>(
        lanes: impl IntoIterator<Item = (&'t TargetKind, &'l CoverageLane)>,
    ) -> ProjectedWord {
        let mut word = ProjectedWord::default();
        for (index, (target, lane)) in lanes.into_iter().enumerate() {
            assert!(index < WORD_LANES, "a word carries {WORD_LANES} lanes");
            let bit = 1u64 << index;
            let cells = projected_cells(lane);
            assert!(
                cells <= MAX_CELLS,
                "{:?} is not a projected lane",
                lane.cells
            );
            word.cells = word.cells.max(cells);
            word.lanes |= bit;
            for (cell, plane) in word.faulty.iter_mut().enumerate().take(cells) {
                *plane |= lanes_holding(lane.background.bit_at(cell), bit);
            }
            let victim = lane.cells.victim;
            match target {
                TargetKind::Simple(primitive) => {
                    word.components[0].bind(bit, primitive, victim, lane.cells.aggressor_first);
                }
                TargetKind::Linked(fault) => {
                    let aggressors = component_aggressors(fault, lane.cells)
                        .expect("projected lanes fit their target's topology");
                    let primitives = [fault.first(), fault.second()];
                    for ((component, primitive), aggressor) in
                        word.components.iter_mut().zip(primitives).zip(aggressors)
                    {
                        component.bind(bit, primitive, victim, aggressor);
                    }
                }
                TargetKind::Decoder(fault) => word.decoder.bind(bit, *fault, lane.cells),
            }
        }
        word.golden = word.faulty;
        word.settles = word.components[0].state | word.components[1].state;
        word.settle();
        word
    }

    /// The lanes that have not detected their fault yet.
    pub(crate) fn pending(&self) -> u64 {
        self.lanes & !self.detected
    }

    /// Every per-lane mask of the word: the lanes, the memory planes and the
    /// fault masks. Lane `i` of the word is bit `i` of each.
    fn masks_mut(&mut self) -> impl Iterator<Item = &mut u64> {
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

    /// Moves the lanes of `lanes`, a mask of `source`'s lanes, into this
    /// word's lanes `at..`, in bit order: each keeps its memory state, its
    /// detection bit and its fault. The destination lanes must be free.
    ///
    /// # Panics
    ///
    /// Panics when the moved lanes do not fit below bit [`WORD_LANES`].
    pub(crate) fn take(&mut self, source: &ProjectedWord, lanes: u64, at: usize) {
        assert!(
            at + lanes.count_ones() as usize <= WORD_LANES,
            "a word carries {WORD_LANES} lanes"
        );
        if lanes == 0 {
            return;
        }
        let runs = Runs::of(lanes);
        // `masks_mut` lists the masks once for both words; the source side
        // walks a copy.
        let mut source = *source;
        self.cells = self.cells.max(source.cells);
        for (into, from) in self.masks_mut().zip(source.masks_mut()) {
            *into |= runs.gather(*from) << at;
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
    fn settle(&mut self) {
        if self.settles == 0 {
            return;
        }
        for component in &self.components {
            let lanes = self.lanes & component.state & component.forces;
            if lanes == 0 {
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
            if source != 0 {
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
            let bits = lanes_holding(value, u64::MAX);
            self.golden[address] = bits;
            let own = !(source & (decoder.no_cell | decoder.redirect));
            self.faulty[address] = (self.faulty[address] & !own) | (bits & own);
            let reached = source & (decoder.redirect | decoder.fan_out);
            if reached != 0 {
                force(&mut self.faulty, &decoder.destination, reached, bits);
            }
        }

        // 4. Fault effects of the fired components, in injection order.
        for (component, fired) in self.components.iter().zip(fired) {
            let lanes = fired & component.forces;
            if lanes != 0 {
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
    /// with equal states run every later operation alike. The masks are
    /// read as the rows of a 64 × 64 bit matrix and transposed, so no lane's
    /// masks are walked one by one.
    pub(crate) fn lane_states(&self) -> [u64; WORD_LANES] {
        let mut rows = [0; WORD_LANES];
        let mut word = *self;
        let mut masks = word.masks_mut();
        for (row, mask) in rows.iter_mut().zip(&mut masks) {
            *row = *mask;
        }
        debug_assert!(masks.next().is_none(), "a lane's state fits a u64");
        transpose(&mut rows);
        rows
    }

    /// The word whose lane `i` has state `states[i]`, as
    /// [`ProjectedWord::lane_states`] reads it, on a projected memory of
    /// `cells` cells: the inverse transpose.
    pub(crate) fn from_lane_states(states: &[u64], cells: usize) -> ProjectedWord {
        let mut rows = [0; WORD_LANES];
        rows[..states.len()].copy_from_slice(states);
        transpose(&mut rows);
        let mut word = ProjectedWord {
            cells,
            ..ProjectedWord::default()
        };
        for (mask, row) in word.masks_mut().zip(rows) {
            *mask = row;
        }
        word
    }

    /// The size of the projected memory the word simulates.
    pub(crate) fn cells(&self) -> usize {
        self.cells
    }

    /// Runs `test` on every lane and returns the detected lanes. Stops once
    /// every lane has detected its fault.
    pub(crate) fn run(mut self, test: &MarchTest) -> u64 {
        for (_, element) in test.iter() {
            if self.detected == self.lanes {
                break;
            }
            self.run_element(element);
        }
        self.detected
    }
}

/// Transposes the 64 × 64 bit matrix whose row `r` is `rows[r]`: afterwards
/// bit `c` of row `r` is what bit `r` of row `c` was. Each step swaps the
/// off-diagonal blocks of every block of twice its width.
fn transpose(rows: &mut [u64; WORD_LANES]) {
    let mut width = WORD_LANES / 2;
    let mut low = u64::MAX >> width;
    while width > 0 {
        for block in (0..WORD_LANES).step_by(2 * width) {
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
    use crate::{BackendKind, LaneSet, LaneWidth, PlacementStrategy, SimulationBackend};
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
                word.map(move |lane| detected >> (lane - first) & 1 == 1)
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
                    BackendKind::Packed.instance_with(LaneWidth::W256),
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
                0
            );
        }
    }

    #[test]
    fn transpose_swaps_rows_and_columns() {
        let mut rows = [0u64; WORD_LANES];
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

    #[test]
    fn lane_states_rebuild_the_word_they_were_read_from() {
        // A word of mixed targets after a few elements: reading each lane's
        // state and packing the states back gives the same word, and the
        // states of two lanes are equal exactly when every mask agrees on
        // them.
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
                .take(6)
                .map(move |lane| (target.clone(), Involved::of(&lane.cells).project(&lane)))
            })
            .take(WORD_LANES)
            .collect();
        let mut word =
            ProjectedWord::pack(target_lanes.iter().map(|(target, lane)| (target, lane)));
        for element in catalog::mats_plus().elements().iter().take(2) {
            word.run_element(element);
        }
        let states = word.lane_states();
        let rebuilt = ProjectedWord::from_lane_states(&states[..target_lanes.len()], word.cells);
        let (mut word_masks, mut rebuilt_masks) = (word, rebuilt);
        assert!(word_masks.masks_mut().eq(rebuilt_masks.masks_mut()));
        for first in 0..target_lanes.len() {
            for second in 0..target_lanes.len() {
                let agree = word_masks
                    .masks_mut()
                    .all(|mask| (*mask >> first & 1) == (*mask >> second & 1));
                assert_eq!(states[first] == states[second], agree, "{first}, {second}");
            }
        }
    }

    #[test]
    fn runs_gather_the_lanes_of_a_mask_in_bit_order() {
        // Lane masks at the word's edges: none, all, the top lane alone, a
        // run ending at the top lane, and alternating lanes (32 runs).
        let masks = [
            0,
            u64::MAX,
            1 << 63,
            u64::MAX << 10,
            0x5555_5555_5555_5555,
            0x8000_0000_0000_0001,
            0x00ff_0f00_f0f0_0001,
        ];
        let bits = [0, u64::MAX, 0x0123_4567_89ab_cdef, 0xaaaa_aaaa_aaaa_aaaa];
        for lanes in masks {
            let runs = Runs::of(lanes);
            for value in bits {
                // One lane at a time, lowest first.
                let mut expected = 0;
                for (at, lane) in (0..64).filter(|lane| lanes >> lane & 1 == 1).enumerate() {
                    expected |= (value >> lane & 1) << at;
                }
                assert_eq!(runs.gather(value), expected, "{lanes:#x} of {value:#x}");
            }
        }
    }
}
