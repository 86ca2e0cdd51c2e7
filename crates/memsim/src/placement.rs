//! Cell placements of fault instances: their enumeration, the count, rank
//! and unrank arithmetic of each placement shape's exhaustive space, and the
//! lane classes a shape yields under a simulation scope without listing its
//! lanes.
//!
//! A target's lanes cross its placements with the scope's backgrounds,
//! placements outermost, and the lanes of one class agree on the rank order
//! of their involved cells and on the background bit under each
//! (`projection.rs`). So the first lane of a class is the first placement,
//! in enumeration order, that has the class's order and bits under some
//! background. [`PlacementShape::class_first_lanes`] finds those lanes
//! without building the others:
//!
//! * Representative placements are few, so it walks them.
//! * Exhaustive single cells, pairs and triples are enumerated in
//!   lexicographic order of their slots. For given bits in address order,
//!   the *leftmost embedding* — the first cell holding the lowest bit, then
//!   the first cell after it holding the next, and so on — puts each
//!   involved cell at the lowest address any placement with those bits can
//!   give it. So every assignment of its cells to the slots is the first
//!   placement of its class. Under a uniform or checkerboard background each
//!   step is closed form; under a custom image it is a scan onwards from the
//!   previous cell, at most 24 scans per image.
//! * Exhaustive decoder pairs are enumerated stride by stride. A uniform or
//!   checkerboard background shows all its classes on at most eight pairs
//!   of the two smallest strides; a custom image is walked stride by stride
//!   until every class has shown, at most one pass over its cells per
//!   address line.
//!
//! The classes therefore cost the same at any memory size under a
//! repeating background, and a bounded number of passes over a custom image.

use sram_fault_model::{Bit, DecoderFault, LinkTopology};

use crate::coverage::TargetKind;
use crate::projection::class_code;
use crate::{InitialState, InstanceCells, SimulationError};

/// The smallest memory linked-fault placement enumeration supports: three
/// distinct cells with distinct relative positions need at least 4 cells.
pub const MIN_PLACEMENT_CELLS: usize = 4;

/// How exhaustively a coverage measurement enumerates the possible cell assignments
/// of each fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
#[non_exhaustive]
pub enum PlacementStrategy {
    /// A small set of representative placements covering every relative address
    /// ordering of the involved cells (aggressors below/above the victim, both
    /// orderings of the two aggressors of an LF3). Fast; used inside generation
    /// loops.
    #[default]
    Representative,
    /// Every assignment of distinct cell addresses (all pairs / triples). Slow but
    /// complete; used for final verification.
    Exhaustive,
}

/// The placement shape of a fault target: how many cells its instances
/// involve and how they are addressed. A target's placements — and so its
/// coverage lanes under one simulation scope — depend only on its shape, so
/// every target of one shape shares one lane enumeration (see
/// [`LaneSet`](crate::LaneSet)).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum PlacementShape {
    /// One victim cell (LF1 and non-coupling simples).
    Single,
    /// An ordered `(aggressor, victim)` pair of distinct cells (LF2
    /// topologies and coupling simples).
    Pair,
    /// An ordered `(a1, a2, v)` triple of distinct cells (LF3).
    Triple,
    /// One address (single-address decoder classes).
    DecoderSingle,
    /// A `(primary, partner = primary ^ stride)` address pair per
    /// power-of-two stride (partner-address decoder classes).
    DecoderPair,
}

/// The placement shape of `target`.
pub(crate) fn placement_shape(target: &TargetKind) -> PlacementShape {
    match target {
        TargetKind::Simple(primitive) if primitive.is_coupling() => PlacementShape::Pair,
        TargetKind::Simple(_) => PlacementShape::Single,
        TargetKind::Linked(fault) => topology_shape(fault.topology()),
        TargetKind::Decoder(fault) => decoder_shape(*fault),
    }
}

fn topology_shape(topology: LinkTopology) -> PlacementShape {
    match topology {
        LinkTopology::Lf1 => PlacementShape::Single,
        LinkTopology::Lf2CouplingThenSingle
        | LinkTopology::Lf2SingleThenCoupling
        | LinkTopology::Lf2SharedAggressor => PlacementShape::Pair,
        LinkTopology::Lf3 => PlacementShape::Triple,
    }
}

fn decoder_shape(fault: DecoderFault) -> PlacementShape {
    if fault.involves_partner() {
        PlacementShape::DecoderPair
    } else {
        PlacementShape::DecoderSingle
    }
}

impl PlacementShape {
    /// The smallest memory hosting this shape's placements.
    pub(crate) fn min_cells(self) -> usize {
        match self {
            PlacementShape::Single | PlacementShape::Pair | PlacementShape::Triple => {
                MIN_PLACEMENT_CELLS
            }
            PlacementShape::DecoderSingle => 1,
            PlacementShape::DecoderPair => 2,
        }
    }

    /// Checks that a `cells`-cell memory hosts this shape's placements.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MemoryTooSmall`] below
    /// [`PlacementShape::min_cells`].
    pub(crate) fn check(self, cells: usize) -> Result<(), SimulationError> {
        let min_cells = self.min_cells();
        if cells < min_cells {
            return Err(SimulationError::MemoryTooSmall { cells, min_cells });
        }
        Ok(())
    }

    /// The placements of this shape on a `cells`-cell memory, in enumeration
    /// order — what [`enumerate_placements`] and
    /// [`enumerate_decoder_placements`] return for targets of this shape.
    pub(crate) fn placements(
        self,
        cells: usize,
        strategy: PlacementStrategy,
    ) -> Result<Vec<InstanceCells>, SimulationError> {
        self.check(cells)?;
        Ok(self.enumerate(cells, strategy))
    }

    /// [`PlacementShape::placements`] on a memory already checked to host
    /// them.
    pub(crate) fn enumerate(self, cells: usize, strategy: PlacementStrategy) -> Vec<InstanceCells> {
        match (self, strategy) {
            (PlacementShape::Single, PlacementStrategy::Representative) => {
                vec![InstanceCells::single(cells / 2)]
            }
            (
                PlacementShape::Single | PlacementShape::DecoderSingle,
                PlacementStrategy::Exhaustive,
            ) => (0..cells).map(InstanceCells::single).collect(),
            (PlacementShape::Pair, _) => pair_placements(cells, strategy),
            (PlacementShape::Triple, _) => triple_placements(cells, strategy),
            (PlacementShape::DecoderSingle, PlacementStrategy::Representative) => {
                representative_addresses(cells)
            }
            (PlacementShape::DecoderPair, _) => decoder_pair_placements(cells, strategy),
        }
    }

    /// How many placements of this shape a memory of at least
    /// [`PlacementShape::min_cells`] cells holds under `strategy`, or `None`
    /// when the count exceeds `u64`: the exhaustive triples of a
    /// 2^22-cell memory are about 7.4·10^19.
    pub(crate) fn count(self, cells: usize, strategy: PlacementStrategy) -> Option<u64> {
        if strategy == PlacementStrategy::Representative {
            return u64::try_from(self.enumerate(cells, strategy).len()).ok();
        }
        let n = cells as u64;
        match self {
            PlacementShape::Single | PlacementShape::DecoderSingle => Some(n),
            PlacementShape::Pair => n.checked_mul(n - 1),
            PlacementShape::Triple => n.checked_mul(n - 1)?.checked_mul(n - 2),
            PlacementShape::DecoderPair => Some(
                address_strides(cells)
                    .map(|stride| decoder_stride_count(cells, stride))
                    .sum(),
            ),
        }
    }

    /// How many exhaustive placements of a `cells`-cell memory put the
    /// involved cells in any one rank order: each shape's placements split
    /// evenly over its orders (one for a single address, two for a pair,
    /// six for a triple). The memory must hold a countable number of them.
    pub(crate) fn placements_per_order(self, cells: usize) -> usize {
        let orders = match self {
            PlacementShape::Single | PlacementShape::DecoderSingle => 1,
            PlacementShape::Pair | PlacementShape::DecoderPair => 2,
            PlacementShape::Triple => 6,
        };
        let placements = self
            .count(cells, PlacementStrategy::Exhaustive)
            .expect("the set's lanes were counted");
        usize::try_from(placements / orders).expect("the set's lanes were counted")
    }

    /// The `index`-th placement of the exhaustive enumeration order —
    /// `enumerate_placements(…, Exhaustive)[index]` (or the decoder
    /// counterpart) without materialising the space.
    pub(crate) fn unrank(self, cells: usize, index: u64) -> InstanceCells {
        match self {
            PlacementShape::Single | PlacementShape::DecoderSingle => {
                InstanceCells::single(index as usize)
            }
            PlacementShape::Pair => {
                let others = (cells - 1) as u64;
                let aggressor = (index / others) as usize;
                let slot = (index % others) as usize;
                let victim = if slot < aggressor { slot } else { slot + 1 };
                InstanceCells::pair(aggressor, victim)
            }
            PlacementShape::Triple => {
                let block = ((cells - 1) * (cells - 2)) as u64;
                let a1 = (index / block) as usize;
                let rest = index % block;
                let a2_slot = (rest / (cells - 2) as u64) as usize;
                let a2 = if a2_slot < a1 { a2_slot } else { a2_slot + 1 };
                let mut v = (rest % (cells - 2) as u64) as usize;
                let (lo, hi) = if a1 < a2 { (a1, a2) } else { (a2, a1) };
                if v >= lo {
                    v += 1;
                }
                if v >= hi {
                    v += 1;
                }
                InstanceCells::triple(a1, a2, v)
            }
            PlacementShape::DecoderPair => {
                let mut remaining = index;
                for stride in address_strides(cells) {
                    let count = decoder_stride_count(cells, stride);
                    if remaining < count {
                        let primary = decoder_stride_unrank(cells, stride, remaining);
                        return decoder_pair(primary, primary ^ stride);
                    }
                    remaining -= count;
                }
                unreachable!("decoder placement index out of range");
            }
        }
    }

    /// The index of `placement` in the exhaustive enumeration order: the
    /// inverse of [`PlacementShape::unrank`].
    pub(crate) fn rank(self, cells: usize, placement: &InstanceCells) -> u64 {
        let n = cells as u64;
        let v = placement.victim;
        let a1 = placement.aggressor_first.unwrap_or(v);
        let a2 = placement.aggressor_second.unwrap_or(v);
        match self {
            PlacementShape::Single | PlacementShape::DecoderSingle => v as u64,
            PlacementShape::Pair => a1 as u64 * (n - 1) + position_among_others(v, &[a1]),
            PlacementShape::Triple => {
                (a1 as u64 * (n - 1) + position_among_others(a2, &[a1])) * (n - 2)
                    + position_among_others(v, &[a1, a2])
            }
            PlacementShape::DecoderPair => {
                let stride = v ^ a1;
                address_strides(cells)
                    .take_while(|&smaller| smaller < stride)
                    .map(|smaller| decoder_stride_count(cells, smaller))
                    .sum::<u64>()
                    + decoder_stride_rank(cells, stride, v)
            }
        }
    }

    /// Lanes of this shape under `strategy` and `backgrounds` that include
    /// the first lane of every lane class, in lane order, each as its index
    /// among the lanes, its placement and its background's index. The lanes
    /// cross the placements with the backgrounds, placements outermost.
    ///
    /// Representative placements are few, so they are all walked. Under
    /// exhaustive placements each background contributes the first placement
    /// of each class it has (see the module docs), so the list holds at most
    /// 48 lanes per background however large the memory is.
    pub(crate) fn class_first_lanes(
        self,
        cells: usize,
        strategy: PlacementStrategy,
        backgrounds: &[InitialState],
    ) -> Vec<(usize, InstanceCells, usize)> {
        let per_placement = backgrounds.len();
        let mut lanes: Vec<(usize, InstanceCells, usize)> = match strategy {
            PlacementStrategy::Representative => self
                .enumerate(cells, strategy)
                .into_iter()
                .enumerate()
                .flat_map(|(index, placement)| {
                    (0..per_placement).map(move |background| {
                        (index * per_placement + background, placement, background)
                    })
                })
                .collect(),
            PlacementStrategy::Exhaustive => backgrounds
                .iter()
                .enumerate()
                .flat_map(|(index, background)| {
                    self.first_placements(cells, background)
                        .into_iter()
                        .map(move |placement| {
                            let rank = self.rank(cells, &placement) as usize;
                            (rank * per_placement + index, placement, index)
                        })
                })
                .collect(),
        };
        lanes.sort_unstable_by_key(|&(index, ..)| index);
        lanes
    }

    /// Exhaustive placements including, for every class `background` has,
    /// its first placement in enumeration order.
    fn first_placements(self, cells: usize, background: &InitialState) -> Vec<InstanceCells> {
        match self {
            PlacementShape::Single | PlacementShape::DecoderSingle => [Bit::Zero, Bit::One]
                .into_iter()
                .filter_map(|bit| next_with(background, bit, 0, cells))
                .map(InstanceCells::single)
                .collect(),
            PlacementShape::Pair => bit_patterns()
                .filter_map(|bits| leftmost(background, bits, cells))
                .flat_map(|[low, high]| {
                    [
                        InstanceCells::pair(low, high),
                        InstanceCells::pair(high, low),
                    ]
                })
                .collect(),
            PlacementShape::Triple => bit_patterns()
                .filter_map(|bits| leftmost(background, bits, cells))
                .flat_map(|[low, middle, high]| {
                    [
                        (low, middle, high),
                        (low, high, middle),
                        (middle, low, high),
                        (middle, high, low),
                        (high, low, middle),
                        (high, middle, low),
                    ]
                    .map(|(a1, a2, v)| InstanceCells::triple(a1, a2, v))
                })
                .collect(),
            PlacementShape::DecoderPair => decoder_first_pairs(cells, background),
        }
    }
}

/// The position of `address` among the cells other than `taken`.
fn position_among_others(address: usize, taken: &[usize]) -> u64 {
    (address - taken.iter().filter(|&&cell| cell < address).count()) as u64
}

/// Every assignment of bits to `K` cells.
fn bit_patterns<const K: usize>() -> impl Iterator<Item = [Bit; K]> {
    (0..1usize << K).map(|pattern| std::array::from_fn(|cell| Bit::from(pattern >> cell & 1 == 1)))
}

/// The leftmost embedding of `bits` in `background`: the first cell holding
/// the first bit, then the first cell after it holding the second, and so
/// on. No placement whose cells, in address order, hold `bits` has a cell
/// below the embedding's, so every assignment of the embedding's cells to
/// the slots is the first placement of its class.
fn leftmost<const K: usize>(
    background: &InitialState,
    bits: [Bit; K],
    cells: usize,
) -> Option<[usize; K]> {
    let mut embedding = [0; K];
    let mut from = 0;
    for (cell, bit) in embedding.iter_mut().zip(bits) {
        *cell = next_with(background, bit, from, cells)?;
        from = *cell + 1;
    }
    Some(embedding)
}

/// The first address in `from..cells` whose bit under `background` is
/// `bit`: one of the next two addresses for a background repeating every
/// cell or every other one, a scan of a custom image.
fn next_with(background: &InitialState, bit: Bit, from: usize, cells: usize) -> Option<usize> {
    let at = match background {
        InitialState::Custom(image) => {
            from + image.get(from..)?.iter().position(|&cell| cell == bit)?
        }
        repeating => (from..from + 2).find(|&address| repeating.bit_at(address) == bit)?,
    };
    (at < cells).then_some(at)
}

/// How many cells `background` repeats after: 1 for a uniform background,
/// 2 for the checkerboard, `None` for a custom image.
fn period(background: &InitialState) -> Option<usize> {
    match background {
        InitialState::AllZero | InitialState::AllOne => Some(1),
        InitialState::Checkerboard => Some(2),
        InitialState::Custom(_) => None,
    }
}

/// How many classes decoder pairs have at most: two relative orders times
/// the bits under the primary and the partner.
const DECODER_PAIR_CLASSES: usize = 8;

/// Exhaustive decoder pairs including the first of each class under
/// `background`, found by walking the pairs in enumeration order — stride
/// by stride, primary by primary — until every class has shown.
///
/// The bits under a primary and its partner depend only on their residues
/// modulo the background's period, so a repeating background shows all its
/// classes on the primaries below twice the period, both orders included,
/// of the strides up to the period: a larger stride pairs the same residues
/// as the period's own stride, on fewer valid primaries. That is at most
/// eight pairs. A custom image is walked one stride at a time, which takes
/// one pass over its cells per address line when a class never shows.
fn decoder_first_pairs(cells: usize, background: &InitialState) -> Vec<InstanceCells> {
    let (last_stride, primaries) = match period(background) {
        Some(period) => (period, (2 * period).min(cells)),
        None => (cells, cells),
    };
    let mut codes = Vec::with_capacity(DECODER_PAIR_CLASSES);
    let mut first = Vec::with_capacity(DECODER_PAIR_CLASSES);
    for stride in address_strides(cells).take_while(|&stride| stride <= last_stride) {
        for primary in 0..primaries {
            let partner = primary ^ stride;
            if partner >= cells {
                continue;
            }
            let placement = decoder_pair(primary, partner);
            let code = class_code(&placement, background);
            if !codes.contains(&code) {
                codes.push(code);
                first.push(placement);
                if codes.len() == DECODER_PAIR_CLASSES {
                    return first;
                }
            }
        }
    }
    first
}

/// Enumerates the cell assignments used to instantiate a linked fault of the given
/// topology on a memory with `cells` cells.
///
/// Representative placements always include every *relative ordering* of the
/// involved cells, because march-test detection depends only on the relative address
/// order (which cells are visited first in ⇑ / ⇓ elements), not on the absolute
/// addresses.
///
/// # Errors
///
/// Returns [`SimulationError::MemoryTooSmall`] if `cells` is smaller than
/// [`MIN_PLACEMENT_CELLS`] (too small to host three distinct cells with
/// distinct relative positions).
pub fn enumerate_placements(
    topology: LinkTopology,
    cells: usize,
    strategy: PlacementStrategy,
) -> Result<Vec<InstanceCells>, SimulationError> {
    topology_shape(topology).placements(cells, strategy)
}

/// Every ordered `(aggressor, victim)` pair on a memory of at least
/// [`MIN_PLACEMENT_CELLS`] cells, or both relative orders of one pair.
fn pair_placements(cells: usize, strategy: PlacementStrategy) -> Vec<InstanceCells> {
    let (low, high) = (1, cells - 2);
    match strategy {
        PlacementStrategy::Representative => vec![
            InstanceCells::pair(low, high),
            InstanceCells::pair(high, low),
        ],
        PlacementStrategy::Exhaustive => {
            let mut placements = Vec::with_capacity(cells * (cells - 1));
            for aggressor in 0..cells {
                for victim in 0..cells {
                    if aggressor != victim {
                        placements.push(InstanceCells::pair(aggressor, victim));
                    }
                }
            }
            placements
        }
    }
}

/// Every ordered `(a1, a2, v)` triple on a memory of at least
/// [`MIN_PLACEMENT_CELLS`] cells, or every relative ordering of one triple.
fn triple_placements(cells: usize, strategy: PlacementStrategy) -> Vec<InstanceCells> {
    let addresses: Vec<usize> = match strategy {
        // Every relative ordering of (a1, a2, v) over three fixed cells.
        PlacementStrategy::Representative => vec![1, cells / 2, cells - 2],
        PlacementStrategy::Exhaustive => (0..cells).collect(),
    };
    let n = addresses.len();
    let mut placements = Vec::with_capacity(n * (n - 1) * (n - 2));
    for &a1 in &addresses {
        for &a2 in &addresses {
            for &v in &addresses {
                if a1 != a2 && a1 != v && a2 != v {
                    placements.push(InstanceCells::triple(a1, a2, v));
                }
            }
        }
    }
    placements
}

/// Enumerates the address assignments used to instantiate an address-decoder
/// fault on a memory with `cells` cells. The primary address is carried as the
/// placement's `victim`, the partner address (for the pair classes) as
/// `aggressor_first` — so decoder targets pack through the same
/// [`InstanceCells`] lane descriptors as cell-array targets.
///
/// The instance space is the **address-line fault space**: a decoder defect
/// shorts or opens one decoded address line, so the two addresses of a pair
/// instance differ in exactly one address bit. This keeps the enumeration
/// `O(cells · log cells)` under [`PlacementStrategy::Exhaustive`] — tractable
/// at 1k+ cells, where all-pairs enumeration would not be — and lets
/// [`PlacementStrategy::Representative`] pick one relative-order class per
/// address bit (partner above and below the primary, mirroring the
/// relative-order classes of [`enumerate_placements`]) instead of absolute
/// addresses.
///
/// # Errors
///
/// Returns [`SimulationError::MemoryTooSmall`] when the memory cannot host an
/// instance (single-address classes need 1 cell, pair classes 2).
pub fn enumerate_decoder_placements(
    fault: DecoderFault,
    cells: usize,
    strategy: PlacementStrategy,
) -> Result<Vec<InstanceCells>, SimulationError> {
    decoder_shape(fault).placements(cells, strategy)
}

/// The representative addresses of the single-address decoder classes (no
/// cell accessed): both ends, the middle and every power-of-two stride.
fn representative_addresses(cells: usize) -> Vec<InstanceCells> {
    let mut addresses: Vec<usize> = vec![0, 1, cells / 2, cells - 1];
    addresses.extend(address_strides(cells));
    addresses.retain(|&address| address < cells);
    addresses.sort_unstable();
    addresses.dedup();
    addresses.into_iter().map(InstanceCells::single).collect()
}

/// The placements of the partner-address decoder classes on a memory of at
/// least 2 cells: `(primary, partner = primary ^ stride)` for each
/// address-bit stride, in both relative orders.
fn decoder_pair_placements(cells: usize, strategy: PlacementStrategy) -> Vec<InstanceCells> {
    let mut placements = Vec::new();
    match strategy {
        PlacementStrategy::Representative => {
            for stride in address_strides(cells) {
                // Partner above the primary, partner below, and one
                // non-boundary base — the relative-order classes march-test
                // detection distinguishes.
                let mut bases = vec![0, stride];
                let mid = cells / 2;
                if mid != 0 && mid != stride {
                    bases.push(mid);
                }
                for base in bases {
                    let partner = base ^ stride;
                    if base < cells && partner < cells && partner != base {
                        placements.push(decoder_pair(base, partner));
                    }
                }
            }
        }
        PlacementStrategy::Exhaustive => {
            for stride in address_strides(cells) {
                for primary in 0..cells {
                    let partner = primary ^ stride;
                    if partner < cells {
                        placements.push(decoder_pair(primary, partner));
                    }
                }
            }
        }
    }
    placements.dedup();
    placements
}

/// The single-bit address strides `1, 2, 4, …` below `cells` — the address
/// lines a decoder defect can short or open.
fn address_strides(cells: usize) -> impl Iterator<Item = usize> {
    (0..usize::BITS)
        .map(|bit| 1usize << bit)
        .take_while(move |&stride| stride < cells)
}

/// A decoder pair placement: primary address as the victim slot, partner
/// address as the (first) aggressor slot.
fn decoder_pair(primary: usize, partner: usize) -> InstanceCells {
    InstanceCells::pair(partner, primary)
}

/// How many primaries `p` in `0..cells` have `p ^ stride < cells`: every
/// primary of each full `2·stride` block, plus the mirrored pairs of the
/// partial tail block.
fn decoder_stride_count(cells: usize, stride: usize) -> u64 {
    let block = 2 * stride;
    let full = (cells / block) * block;
    let tail = cells % block;
    (full + 2 * tail.saturating_sub(stride)) as u64
}

/// The `index`-th valid primary of the stride's enumeration order (primary
/// ascending, skipping primaries whose partner falls outside the memory).
fn decoder_stride_unrank(cells: usize, stride: usize, index: u64) -> usize {
    let block = 2 * stride;
    let full = ((cells / block) * block) as u64;
    if index < full {
        return index as usize;
    }
    // Tail block: primaries `full + r` are valid for `r < tail - stride`
    // (partner above) and `stride <= r < tail` (partner below).
    let tail_pairs = (cells % block - stride) as u64;
    let offset = index - full;
    let r = if offset < tail_pairs {
        offset
    } else {
        stride as u64 + (offset - tail_pairs)
    };
    full as usize + r as usize
}

/// The index of the valid `primary` in the stride's enumeration order: the
/// inverse of [`decoder_stride_unrank`].
fn decoder_stride_rank(cells: usize, stride: usize, primary: usize) -> u64 {
    let block = 2 * stride;
    let full = (cells / block) * block;
    if primary < full {
        return primary as u64;
    }
    let tail_pairs = cells % block - stride;
    let r = primary - full;
    let offset = if r < tail_pairs {
        r
    } else {
        tail_pairs + (r - stride)
    };
    (full + offset) as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn representative_counts() {
        assert_eq!(
            enumerate_placements(LinkTopology::Lf1, 8, PlacementStrategy::Representative)
                .unwrap()
                .len(),
            1
        );
        assert_eq!(
            enumerate_placements(
                LinkTopology::Lf2SharedAggressor,
                8,
                PlacementStrategy::Representative
            )
            .unwrap()
            .len(),
            2
        );
        assert_eq!(
            enumerate_placements(LinkTopology::Lf3, 8, PlacementStrategy::Representative)
                .unwrap()
                .len(),
            6
        );
    }

    #[test]
    fn exhaustive_counts() {
        assert_eq!(
            enumerate_placements(LinkTopology::Lf1, 6, PlacementStrategy::Exhaustive)
                .unwrap()
                .len(),
            6
        );
        assert_eq!(
            enumerate_placements(
                LinkTopology::Lf2CouplingThenSingle,
                6,
                PlacementStrategy::Exhaustive
            )
            .unwrap()
            .len(),
            30
        );
        assert_eq!(
            enumerate_placements(LinkTopology::Lf3, 6, PlacementStrategy::Exhaustive)
                .unwrap()
                .len(),
            120
        );
    }

    #[test]
    fn representative_lf2_covers_both_orderings() {
        let placements = enumerate_placements(
            LinkTopology::Lf2CouplingThenSingle,
            8,
            PlacementStrategy::Representative,
        )
        .unwrap();
        assert!(placements
            .iter()
            .any(|p| p.aggressor_first.unwrap() < p.victim));
        assert!(placements
            .iter()
            .any(|p| p.aggressor_first.unwrap() > p.victim));
    }

    #[test]
    fn tiny_memories_yield_a_typed_error() {
        // The small-memory edge is a typed `Err`, not a panic.
        assert!(matches!(
            enumerate_placements(LinkTopology::Lf1, 2, PlacementStrategy::Representative),
            Err(SimulationError::MemoryTooSmall {
                cells: 2,
                min_cells: MIN_PLACEMENT_CELLS
            })
        ));
        assert!(matches!(
            enumerate_placements(LinkTopology::Lf3, 3, PlacementStrategy::Exhaustive),
            Err(SimulationError::MemoryTooSmall { cells: 3, .. })
        ));
        assert!(matches!(
            enumerate_decoder_placements(
                DecoderFault::NoAddressMaps,
                1,
                PlacementStrategy::Representative
            ),
            Err(SimulationError::MemoryTooSmall {
                cells: 1,
                min_cells: 2
            })
        ));
        assert!(enumerate_decoder_placements(
            DecoderFault::NoCellAccessed {
                open_read: Bit::Zero
            },
            1,
            PlacementStrategy::Representative
        )
        .is_ok());
    }

    #[test]
    fn decoder_pairs_differ_in_one_address_bit_and_cover_both_orders() {
        for fault in [
            DecoderFault::NoAddressMaps,
            DecoderFault::MultipleCellsAccessed,
            DecoderFault::MultipleAddressesMap,
        ] {
            for strategy in [
                PlacementStrategy::Representative,
                PlacementStrategy::Exhaustive,
            ] {
                let placements = enumerate_decoder_placements(fault, 16, strategy).unwrap();
                assert!(!placements.is_empty());
                for placement in &placements {
                    let partner = placement.aggressor_first.unwrap();
                    let xor = placement.victim ^ partner;
                    assert!(xor.is_power_of_two(), "{placement}");
                }
                // Both relative orders appear.
                assert!(placements
                    .iter()
                    .any(|p| p.aggressor_first.unwrap() > p.victim));
                assert!(placements
                    .iter()
                    .any(|p| p.aggressor_first.unwrap() < p.victim));
            }
        }
    }

    #[test]
    fn decoder_enumeration_scales_logarithmically() {
        // Exhaustive pairs are O(cells · log cells): tractable at 1k+ cells.
        let placements = enumerate_decoder_placements(
            DecoderFault::NoAddressMaps,
            1024,
            PlacementStrategy::Exhaustive,
        )
        .unwrap();
        assert_eq!(placements.len(), 1024 * 10);
        let representative = enumerate_decoder_placements(
            DecoderFault::NoAddressMaps,
            1024,
            PlacementStrategy::Representative,
        )
        .unwrap();
        assert!(representative.len() <= 3 * 10);
        let singles = enumerate_decoder_placements(
            DecoderFault::NoCellAccessed {
                open_read: Bit::One,
            },
            1024,
            PlacementStrategy::Representative,
        )
        .unwrap();
        assert!(singles.len() <= 16);
        assert!(singles.iter().any(|p| p.victim == 1023));
    }

    #[test]
    fn unranking_matches_exhaustive_cell_array_enumeration() {
        for cells in [4usize, 5, 6, 7, 8, 12] {
            for (topology, shape) in [
                (LinkTopology::Lf1, PlacementShape::Single),
                (LinkTopology::Lf2SharedAggressor, PlacementShape::Pair),
                (LinkTopology::Lf3, PlacementShape::Triple),
            ] {
                let reference =
                    enumerate_placements(topology, cells, PlacementStrategy::Exhaustive).unwrap();
                assert_eq!(
                    shape.count(cells, PlacementStrategy::Exhaustive),
                    Some(reference.len() as u64),
                    "{cells} cells"
                );
                for (index, expected) in reference.iter().enumerate() {
                    assert_eq!(
                        shape.unrank(cells, index as u64),
                        *expected,
                        "{shape:?} index {index} on {cells} cells"
                    );
                    assert_eq!(shape.rank(cells, expected), index as u64, "{expected}");
                }
            }
        }
    }

    #[test]
    fn unranking_matches_exhaustive_decoder_enumeration() {
        for cells in [2usize, 3, 5, 6, 7, 8, 12, 16, 1024] {
            let singles = enumerate_decoder_placements(
                DecoderFault::NoCellAccessed {
                    open_read: Bit::Zero,
                },
                cells,
                PlacementStrategy::Exhaustive,
            )
            .unwrap();
            assert_eq!(
                PlacementShape::DecoderSingle.count(cells, PlacementStrategy::Exhaustive),
                Some(singles.len() as u64)
            );
            let pairs = enumerate_decoder_placements(
                DecoderFault::NoAddressMaps,
                cells,
                PlacementStrategy::Exhaustive,
            )
            .unwrap();
            assert_eq!(
                PlacementShape::DecoderPair.count(cells, PlacementStrategy::Exhaustive),
                Some(pairs.len() as u64),
                "{cells} cells"
            );
            for (index, expected) in pairs.iter().enumerate() {
                assert_eq!(
                    PlacementShape::DecoderPair.unrank(cells, index as u64),
                    *expected,
                    "index {index} on {cells} cells"
                );
                assert_eq!(
                    PlacementShape::DecoderPair.rank(cells, expected),
                    index as u64,
                    "{expected} on {cells} cells"
                );
            }
        }
    }

    #[test]
    fn placement_counts_beyond_u64_are_none() {
        // 2^22 cells: about 7.4·10^19 triples, beyond u64; 1.8·10^13 pairs.
        let cells = 1usize << 22;
        let exhaustive = PlacementStrategy::Exhaustive;
        assert_eq!(PlacementShape::Triple.count(cells, exhaustive), None);
        assert_eq!(
            PlacementShape::Pair.count(cells, exhaustive),
            Some((cells * (cells - 1)) as u64)
        );
        // The largest memory whose triples still fit.
        assert!(PlacementShape::Triple
            .count(2_642_246, exhaustive)
            .is_some());
        assert_eq!(PlacementShape::Triple.count(2_642_247, exhaustive), None);
        assert_eq!(
            PlacementShape::Triple.count(cells, PlacementStrategy::Representative),
            Some(6)
        );
    }
}
