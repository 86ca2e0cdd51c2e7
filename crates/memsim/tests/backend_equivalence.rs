//! Property-based equivalence of the simulation backends: for random march
//! tests × fault targets × placements × backgrounds, the bit-parallel
//! [`PackedBackend`] must produce exactly the detection verdicts and escape
//! sets of the reference [`ScalarBackend`], and session coverage must be
//! byte-identical across backends and thread counts.

use std::ops::Range;
use std::sync::Arc;

use march_test::{catalog, AddressOrder, MarchElement, MarchTest};
use proptest::prelude::*;
use sram_fault_model::{Bit, FaultList, Ffm, Operation};
use sram_sim::{
    enumerate_lanes, enumerate_targets, BackendKind, ClassImage, CoverageLane, ExecPolicy,
    InitialState, InstanceCells, LaneSet, LaneWord, PackedBackend, PlacementStrategy,
    ScalarBackend, Session, SimulationBackend, TargetKind, W256,
};

fn arbitrary_operation() -> impl Strategy<Value = Operation> {
    prop_oneof![
        Just(Operation::W0),
        Just(Operation::W1),
        Just(Operation::R0),
        Just(Operation::R1),
        Just(Operation::Read(None)),
        Just(Operation::Wait),
    ]
}

fn arbitrary_element() -> impl Strategy<Value = MarchElement> {
    (
        prop::sample::select(AddressOrder::ALL.to_vec()),
        prop::collection::vec(arbitrary_operation(), 1..8),
    )
        .prop_map(|(order, ops)| MarchElement::new(order, ops).expect("non-empty"))
}

fn arbitrary_test() -> impl Strategy<Value = MarchTest> {
    prop::collection::vec(arbitrary_element(), 1..6)
        .prop_map(|elements| MarchTest::new("prop", elements).expect("non-empty"))
}

fn arbitrary_strategy() -> impl Strategy<Value = PlacementStrategy> {
    prop_oneof![
        Just(PlacementStrategy::Representative),
        Just(PlacementStrategy::Exhaustive),
    ]
}

fn arbitrary_backgrounds() -> impl Strategy<Value = Vec<InitialState>> {
    prop_oneof![
        Just(vec![InitialState::AllOne]),
        Just(vec![InitialState::AllZero]),
        Just(vec![InitialState::AllZero, InitialState::AllOne]),
        Just(vec![
            InitialState::Checkerboard,
            InitialState::AllOne,
            InitialState::AllZero,
        ]),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Per-lane detection verdicts agree between the backends for random march
    /// tests against random linked faults of Fault List #1 (all topologies).
    #[test]
    fn linked_fault_verdicts_are_backend_invariant(
        test in arbitrary_test(),
        fault_index in 0usize..844,
        strategy in arbitrary_strategy(),
        backgrounds in arbitrary_backgrounds(),
        memory_cells in 4usize..9,
    ) {
        let list = FaultList::list_1();
        let fault = &list.linked()[fault_index % list.linked().len()];
        let target = TargetKind::Linked(fault.clone());
        let lanes = enumerate_lanes(&target, memory_cells, strategy, &backgrounds).unwrap();
        let scalar = ScalarBackend.lane_verdicts(&test, &target, &lanes, memory_cells);
        let packed = PackedBackend.lane_verdicts(&test, &target, &lanes, memory_cells);
        prop_assert_eq!(&scalar, &packed, "verdicts diverged for {}", fault);
        prop_assert_eq!(
            ScalarBackend.first_undetected(&test, &target, &lanes, memory_cells),
            PackedBackend.first_undetected(&test, &target, &lanes, memory_cells)
        );
    }

    /// Same for the 48 unlinked realistic fault primitives.
    #[test]
    fn simple_primitive_verdicts_are_backend_invariant(
        test in arbitrary_test(),
        primitive_index in 0usize..48,
        strategy in arbitrary_strategy(),
        backgrounds in arbitrary_backgrounds(),
        memory_cells in 4usize..9,
    ) {
        let primitives = Ffm::all_fault_primitives();
        let primitive = primitives[primitive_index % primitives.len()].clone();
        let target = TargetKind::Simple(primitive);
        let lanes = enumerate_lanes(&target, memory_cells, strategy, &backgrounds).unwrap();
        let scalar = ScalarBackend.lane_verdicts(&test, &target, &lanes, memory_cells);
        let packed = PackedBackend.lane_verdicts(&test, &target, &lanes, memory_cells);
        prop_assert_eq!(scalar, packed);
    }

    /// Full coverage reports — counts, per-topology break-down and the
    /// stable-sorted escape set — are byte-identical across backends and
    /// thread counts for random march tests.
    #[test]
    fn coverage_reports_are_backend_and_thread_invariant(
        test in arbitrary_test(),
        backgrounds in arbitrary_backgrounds(),
        memory_cells in 4usize..9,
    ) {
        let list = FaultList::list_2();
        let session = |policy: ExecPolicy| {
            Session::new(policy)
                .with_memory_cells(memory_cells)
                .with_strategy(PlacementStrategy::Representative)
                .with_backgrounds(backgrounds.clone())
        };
        let reference = session(ExecPolicy::default()).coverage(&test, &list);
        for backend in [BackendKind::Scalar, BackendKind::Packed] {
            for threads in [1usize, 3, 0] {
                let policy = ExecPolicy::default().with_backend(backend).with_threads(threads);
                let report = session(policy).coverage(&test, &list);
                prop_assert_eq!(
                    &report,
                    &reference,
                    "report diverged: backend {} threads {}",
                    backend,
                    threads
                );
            }
        }
    }
}

/// Deterministic cross-check on the published catalogue: every catalogue test
/// against every fault list, both backends, equal escape sets.
#[test]
fn catalogue_escape_sets_match_across_backends() {
    let lists = [
        FaultList::unlinked_static(),
        FaultList::list_2(),
        FaultList::list_1(),
    ];
    let scalar_session = Session::new(ExecPolicy::default().with_backend(BackendKind::Scalar));
    let packed_session = Session::new(ExecPolicy::default().with_backend(BackendKind::Packed));
    for test in catalog::all() {
        for list in &lists {
            let scalar = scalar_session.coverage(&test, list);
            let packed = packed_session.coverage(&test, list);
            assert_eq!(
                scalar.escapes(),
                packed.escapes(),
                "escape sets diverged for {} vs {}",
                test.name(),
                list.name()
            );
            assert_eq!(scalar, packed);
        }
    }
}

/// The first lane of each class of `lanes`, with its projection: the lane
/// remapped onto its involved cells (their ranks as addresses, its
/// background cut down to them). Two lanes share a class exactly when their
/// projections are equal. Written here from the definition, independently
/// of the simulator's own partition.
fn class_representatives(
    lanes: &[CoverageLane],
    memory_cells: usize,
) -> Vec<(CoverageLane, CoverageLane)> {
    let mut classes: Vec<(CoverageLane, CoverageLane)> = Vec::new();
    for lane in lanes {
        let cells = lane.cells;
        let mut involved: Vec<usize> = [
            Some(cells.victim),
            cells.aggressor_first,
            cells.aggressor_second,
        ]
        .into_iter()
        .flatten()
        .collect();
        involved.sort_unstable();
        involved.dedup();
        let rank = |cell: usize| involved.iter().position(|&other| other == cell).unwrap();
        let content = lane.background.materialise(memory_cells).unwrap();
        let projected = CoverageLane {
            cells: InstanceCells {
                victim: rank(cells.victim),
                aggressor_first: cells.aggressor_first.map(rank),
                aggressor_second: cells.aggressor_second.map(rank),
            },
            background: InitialState::Custom(involved.iter().map(|&cell| content[cell]).collect()),
        };
        if !classes.iter().any(|(_, seen)| *seen == projected) {
            classes.push((lane.clone(), projected));
        }
    }
    classes
}

/// A seeded random test over every operation kind — waits and unannotated
/// reads included — so wait- and read-sensitised lanes are told apart.
fn seeded_test(seed: u64) -> MarchTest {
    let mut state = seed;
    let mut next = move |bound: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % bound as u64) as usize
    };
    let operations = [
        Operation::W0,
        Operation::W1,
        Operation::R0,
        Operation::R1,
        Operation::Read(None),
        Operation::Wait,
    ];
    let elements = (0..5)
        .map(|_| {
            let order = AddressOrder::ALL[next(3)];
            let ops = (0..1 + next(6)).map(|_| operations[next(6)]).collect();
            MarchElement::new(order, ops).expect("non-empty")
        })
        .collect();
    MarchTest::new("seeded", elements).expect("non-empty")
}

/// Every target of `list`, keeping one linked fault in `step`.
fn domain(list: &FaultList, step: usize) -> Vec<TargetKind> {
    let mut linked = 0;
    enumerate_targets(list)
        .into_iter()
        .filter(|target| {
            let TargetKind::Linked(_) = target else {
                return true;
            };
            linked += 1;
            (linked - 1) % step == 0
        })
        .collect()
}

/// The verdict of every lane of `image` under `test`, from one
/// `image_verdicts` call per range of `ranges`, which cut the image's lanes
/// in order.
fn image_verdicts(
    backend: &dyn SimulationBackend,
    test: &MarchTest,
    image: &ClassImage,
    ranges: &[Range<usize>],
) -> Vec<bool> {
    ranges
        .iter()
        .flat_map(|lanes| {
            let detected = backend.image_verdicts(test, image, lanes.clone());
            (0..lanes.len()).map(move |lane| detected.test_bit(lane))
        })
        .collect()
}

/// `0..lanes` cut into ranges of at most 256 lanes, the first `first`
/// lanes long and the others `size`.
fn cut(lanes: usize, first: usize, size: usize) -> Vec<Range<usize>> {
    let mut ranges = Vec::new();
    let mut start = 0;
    while start < lanes {
        let end = lanes.min(start + if start == 0 { first } else { size });
        ranges.push(start..end);
        start = end;
    }
    ranges
}

/// Class images hold to per-target calls: binding the class representatives
/// of many targets into shared words must give, lane for lane, the scalar
/// backend's per-target verdicts and the full-memory verdict of each
/// class's first lane — across fault domains, scopes, backgrounds and tests,
/// across image layouts where a target's classes straddle two words, the
/// last word is partial, and one word mixes shapes of different cell counts,
/// and across lane ranges that copy a whole word of the image, take lanes
/// from within one 64-lane limb of a word, take them across a limb boundary
/// inside one word, start on a limb edge, or take them from two words.
#[test]
fn mixed_target_words_match_per_target_verdicts() {
    let generated = MarchTest::parse(
        "35n",
        "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1); ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); \
         ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); ⇓(r0,w0,r0,w1)",
    )
    .unwrap();
    let tests = [
        catalog::mats_plus(),
        catalog::march_c_minus(),
        catalog::march_ss(),
        catalog::march_sl(),
        generated,
        seeded_test(7),
    ];
    let domains = [
        domain(&FaultList::unlinked_static(), 1),
        domain(&FaultList::list_1(), 29),
        domain(&FaultList::list_2(), 1),
        domain(&FaultList::address_decoder(), 1),
        domain(&FaultList::list_1().with_address_decoder_faults(), 53),
    ];
    let (mut straddles, mut partial, mut mixed) = (false, false, false);
    let (mut within_one_limb, mut across_limbs, mut across_two_words) = (false, false, false);
    let mut from_a_limb_edge = false;
    const WORD: usize = W256::BITS;
    for (strategy, cells) in [
        (PlacementStrategy::Representative, 8),
        (PlacementStrategy::Exhaustive, 6),
    ] {
        let irregular = InitialState::Custom(
            (0..cells)
                .map(|cell| Bit::from((cell * 7 + 3) % 5 < 2))
                .collect(),
        );
        let uniform = vec![InitialState::AllZero, InitialState::AllOne];
        let patterned = [uniform.clone(), vec![InitialState::Checkerboard, irregular]].concat();
        for backgrounds in [uniform, patterned] {
            for targets in &domains {
                let lanes: Vec<Vec<CoverageLane>> = targets
                    .iter()
                    .map(|target| enumerate_lanes(target, cells, strategy, &backgrounds).unwrap())
                    .collect();
                let classes: Vec<Vec<(CoverageLane, CoverageLane)>> = lanes
                    .iter()
                    .map(|lanes| class_representatives(lanes, cells))
                    .collect();
                let image = ClassImage::new(Arc::new(
                    targets
                        .iter()
                        .cloned()
                        .zip(
                            lanes
                                .into_iter()
                                .map(|lanes| Arc::new(LaneSet::from(lanes))),
                        )
                        .collect(),
                ));
                let representatives: Vec<&CoverageLane> = classes
                    .iter()
                    .flatten()
                    .map(|(_, projected)| projected)
                    .collect();
                assert_eq!(image.len(), representatives.len(), "class count");
                let mut first = 0;
                for target_classes in &classes {
                    let last = first + target_classes.len() - 1;
                    straddles |= first / WORD != last / WORD;
                    first = last + 1;
                }
                partial |= !image.len().is_multiple_of(WORD);
                mixed |= representatives.chunks(WORD).any(|word| {
                    let size = |lane: &CoverageLane| {
                        [lane.cells.aggressor_first, lane.cells.aggressor_second]
                            .into_iter()
                            .flatten()
                            .fold(lane.cells.victim, usize::max)
                    };
                    word.iter().any(|lane| size(lane) != size(word[0]))
                });
                let words = cut(image.len(), WORD, WORD);
                // Ranges of 23 then 256 lanes, of 41, and of 64 then 128,
                // which start on limb edges: each takes lanes from within
                // one limb, across a limb boundary inside one word, or from
                // two words.
                let taken = [
                    cut(image.len(), 23, WORD),
                    cut(image.len(), 41, 41),
                    cut(image.len(), 64, 128),
                ];
                for lanes in taken.iter().flatten() {
                    let last = lanes.end - 1;
                    let one_word = lanes.start / WORD == last / WORD;
                    across_two_words |= !one_word;
                    within_one_limb |= lanes.start / 64 == last / 64;
                    across_limbs |= one_word && lanes.start / 64 != last / 64;
                    from_a_limb_edge |= lanes.start % WORD != 0 && lanes.start % 64 == 0;
                }
                for test in &tests {
                    let scalar = image_verdicts(&ScalarBackend, test, &image, &words);
                    let full: Vec<bool> = targets
                        .iter()
                        .zip(&classes)
                        .flat_map(|(target, classes)| {
                            let firsts: Vec<CoverageLane> =
                                classes.iter().map(|(lane, _)| lane.clone()).collect();
                            ScalarBackend.lane_verdicts(test, target, &firsts, cells)
                        })
                        .collect();
                    let context = format!("{} at {cells} cells, {backgrounds:?}", test.name());
                    assert_eq!(scalar, full, "per-target projection: {context}");
                    for ranges in std::iter::once(&words).chain(&taken) {
                        let packed = image_verdicts(&PackedBackend, test, &image, ranges);
                        assert_eq!(packed, scalar, "mixed words, ranges {ranges:?}: {context}");
                    }
                }
            }
        }
    }
    assert!(straddles, "no target's classes straddled a word boundary");
    assert!(partial, "no sweep ended on a partial word");
    assert!(mixed, "no word mixed shapes of different cell counts");
    assert!(within_one_limb, "no range took lanes from within one limb");
    assert!(
        across_limbs,
        "no range crossed a limb boundary inside one word"
    );
    assert!(across_two_words, "no range took lanes from two words");
    assert!(
        from_a_limb_edge,
        "no range started on a limb edge inside a word"
    );
}

/// The targets a random word mixes: every linked fault of List #1, every
/// unlinked realistic primitive and every address-decoder class — one, two
/// and three cells, array and decoder lanes.
fn mixable_targets() -> Vec<TargetKind> {
    [
        FaultList::list_1(),
        FaultList::unlinked_static(),
        FaultList::address_decoder(),
    ]
    .iter()
    .flat_map(enumerate_targets)
    .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The classes of a random mix of targets, filling 1..=256 lanes of a
    /// word, detect lane for lane what the scalar reference simulates one
    /// target at a time, for random short march tests.
    #[test]
    fn random_target_mixes_in_one_word_match_the_scalar_kernel(
        test in arbitrary_test(),
        picks in prop::collection::vec(0usize..1_000_000, 1..257),
        lanes in 1usize..257,
        strategy in arbitrary_strategy(),
        backgrounds in arbitrary_backgrounds(),
    ) {
        let pool = mixable_targets();
        let mut targets = Vec::new();
        let mut classes = 0;
        for pick in picks {
            if classes >= lanes {
                break;
            }
            let target = pool[pick % pool.len()].clone();
            let set = Arc::new(LaneSet::from(
                enumerate_lanes(&target, 8, strategy, &backgrounds).unwrap(),
            ));
            classes += ClassImage::new(Arc::new(vec![(target.clone(), Arc::clone(&set))])).len();
            targets.push((target, set));
        }
        let image = ClassImage::new(Arc::new(targets));
        prop_assert_eq!(image.len(), classes);
        let word = 0..lanes.min(image.len());
        let word_len = word.len();
        prop_assert_eq!(
            PackedBackend.image_verdicts(&test, &image, word.clone()),
            ScalarBackend.image_verdicts(&test, &image, word),
            "{} lanes of {} classes", word_len, classes
        );
    }
}
