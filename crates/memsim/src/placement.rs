//! Enumeration of cell placements for coverage measurement.

use sram_fault_model::{DecoderFault, LinkTopology};

use crate::coverage::TargetKind;
use crate::{InstanceCells, SimulationError};

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

    /// The placements of this shape on a `cells`-cell memory, in enumeration
    /// order — what [`enumerate_placements`] and
    /// [`enumerate_decoder_placements`] return for targets of this shape.
    pub(crate) fn placements(
        self,
        cells: usize,
        strategy: PlacementStrategy,
    ) -> Result<Vec<InstanceCells>, SimulationError> {
        let min_cells = self.min_cells();
        if cells < min_cells {
            return Err(SimulationError::MemoryTooSmall { cells, min_cells });
        }
        Ok(match (self, strategy) {
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
        })
    }
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

#[cfg(test)]
mod tests {
    use super::*;
    use sram_fault_model::Bit;

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
}
