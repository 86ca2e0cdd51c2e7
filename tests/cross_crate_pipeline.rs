//! Cross-crate integration tests: fault model → march notation → pattern graph →
//! simulator → generator, exercised together.

use march_gen::{MemoryGraph, PatternGraph, SequenceOfOperations};
use march_test::{AddressOrder, MarchTest};
use sram_fault_model::{
    AddressedFaultPrimitive, Bit, FaultList, FaultListBuilder, Ffm, LinkTopology, LinkedAfp,
    LinkedFault, Operation, Placement, TestPattern,
};
use sram_sim::{
    run_march, FaultSimulator, InitialState, InstanceCells, LinkedFaultInstance, PlacementStrategy,
    Session,
};

fn cfds(notation: &str) -> sram_fault_model::FaultPrimitive {
    Ffm::DisturbCoupling
        .fault_primitives()
        .into_iter()
        .find(|fp| fp.notation() == notation)
        .expect("realistic CFds primitive")
}

#[test]
fn paper_running_example_from_notation_to_detection() {
    // Section 3 of the paper: <0w1;0/1/-> → <0w1;1/0/-> as AFPs on a 3-cell memory.
    let fp1 = cfds("<0w1;0/1/->");
    let fp2 = cfds("<0w1;1/0/->");

    let afp1 =
        AddressedFaultPrimitive::instantiate(&fp1, Placement::coupling(0, 2, 3).unwrap()).unwrap();
    let afp2 =
        AddressedFaultPrimitive::instantiate(&fp2, Placement::coupling(1, 2, 3).unwrap()).unwrap();
    let linked_afp = LinkedAfp::try_link(afp1.clone(), afp2).unwrap();
    assert_eq!(linked_afp.victim(), 2);

    // The same pair as an (abstract) linked fault, injected into the simulator.
    let linked = LinkedFault::link(fp1, fp2, LinkTopology::Lf3).unwrap();
    let instance =
        LinkedFaultInstance::new(linked.clone(), InstanceCells::triple(0, 1, 2), 4).unwrap();

    // A march test that sensitizes FP1 and FP2 back to back without reading in
    // between does NOT detect the fault (masking)…
    let masked = MarchTest::parse("masking", "⇕(w0); ⇑(w1); ⇕(r0)").unwrap();
    let mut simulator = FaultSimulator::new(4, &InitialState::AllZero).unwrap();
    simulator.inject_linked(&instance);
    assert!(!run_march(&masked, &mut simulator).detected());

    // …while a test whose descending element sensitizes FP1 on the lowest aggressor
    // last (so FP2 cannot re-mask it) and then reads the victim does detect it.
    let detecting = MarchTest::parse("detecting", "⇕(w0); ⇓(r0,w1,r1,w0); ⇕(r0)").unwrap();
    let mut simulator = FaultSimulator::new(4, &InitialState::AllZero).unwrap();
    simulator.inject_linked(&instance);
    assert!(run_march(&detecting, &mut simulator).detected());
}

#[test]
fn masked_test_pattern_has_matching_faulty_edges() {
    // The pattern-graph view of the same example: both components appear as faulty
    // edges, linked via the partner field.
    let lf = LinkedFault::link(
        cfds("<0w1;0/1/->"),
        cfds("<1w0;1/0/->"),
        LinkTopology::Lf2SharedAggressor,
    )
    .unwrap();
    let list = FaultListBuilder::new("pair").linked(lf).build().unwrap();
    let pg = PatternGraph::from_fault_list(&list).unwrap();
    let first = &pg.faulty_edges()[0];
    let second = &pg.faulty_edges()[first.partner.unwrap()];
    // FP2 starts exactly in the state FP1 leaves behind (Definition 7: I2 = Fv1).
    assert_eq!(second.from, first.to);
    assert_eq!(second.to, first.from);
}

#[test]
fn sequence_of_operations_detects_its_target_when_marched() {
    // Build an SO on cell j (the highest address of the 2-cell model), translate it
    // into a march element and check it detects a disturb coupling fault whose
    // aggressor sits above its victim.
    let so =
        SequenceOfOperations::with_operations(1, vec![Operation::R0, Operation::W1, Operation::R1]);
    let element = so.to_march_element(2).unwrap();
    assert_eq!(element.order(), AddressOrder::Descending);

    let test = MarchTest::new(
        "so test",
        vec![march_test::MarchElement::initialise(Bit::Zero), element],
    )
    .unwrap();

    let fp = cfds("<0w1;0/1/->");
    let mut simulator = FaultSimulator::new(6, &InitialState::AllOne).unwrap();
    simulator.inject(sram_sim::InjectedFault::coupling(fp, 4, 1, 6).unwrap());
    assert!(run_march(&test, &mut simulator).detected());
}

#[test]
fn memory_graph_agrees_with_the_simulator_on_fault_free_behaviour() {
    // Walk a random-ish operation sequence on both the explicit state graph and the
    // simulator's golden memory; they must stay in lock-step.
    let graph = MemoryGraph::new(3).unwrap();
    let mut state = 0usize;
    let mut simulator = FaultSimulator::new(3, &InitialState::AllZero).unwrap();
    let script = [
        (0, Operation::W1),
        (2, Operation::W1),
        (1, Operation::R0),
        (0, Operation::W0),
        (2, Operation::R1),
        (1, Operation::W1),
        (0, Operation::Read(None)),
    ];
    for (cell, operation) in script {
        let (next, output) = graph.successor(state, cell, operation);
        let outcome = simulator.apply(cell, operation);
        assert_eq!(outcome.expected, output);
        state = next;
        let golden: Vec<Bit> = simulator.golden_memory().as_slice().to_vec();
        assert_eq!(graph.state_of(&golden), state);
    }
}

#[test]
fn coverage_of_a_derived_test_pattern_list() {
    // Derive test patterns for every transition fault, then check that the march
    // test assembled from their operations detects them all.
    let mut list = FaultListBuilder::new("transition faults");
    for fp in Ffm::TransitionFault.fault_primitives() {
        list = list.simple(fp);
    }
    let list = list.build().unwrap();

    // Assemble a march test by hand following the TP structure (write, then read).
    let test = MarchTest::parse("tp test", "⇕(w0); ⇑(r0,w1,r1); ⇑(r1,w0,r0)").unwrap();
    let report = Session::default().coverage(&test, &list);
    assert!(report.is_complete(), "escapes: {:?}", report.escapes());

    // Sanity-check one TP explicitly.
    let tf = &Ffm::TransitionFault.fault_primitives()[0];
    let afp =
        AddressedFaultPrimitive::instantiate(tf, Placement::single_cell(0, 2).unwrap()).unwrap();
    let tp = TestPattern::new(afp);
    assert_eq!(tp.observe().cell(), 0);
}

#[test]
fn fault_list_statistics_match_between_crates() {
    // The pattern graph, the simulator's lane enumeration and the fault list
    // itself must agree on the number of linked faults.
    let list = FaultList::list_2();
    let pg = PatternGraph::from_fault_list(&list).unwrap();
    // Each LF1 expands its two components over the unconstrained second cell of the
    // 2-cell canonical graph: 2 components × 2 expansions = 4 edges per fault.
    assert_eq!(pg.faulty_edges().len(), 4 * list.linked().len());

    // Representative placements: one placement per linked fault, so one
    // instance per fault and background.
    for backgrounds in [
        vec![InitialState::AllOne],
        vec![InitialState::AllZero, InitialState::AllOne],
    ] {
        let per_fault = backgrounds.len();
        let lanes = Session::default()
            .with_strategy(PlacementStrategy::Representative)
            .with_backgrounds(backgrounds)
            .target_lanes(&list)
            .unwrap();
        let instances: usize = lanes.iter().map(|(_, lanes)| lanes.len()).sum();
        assert_eq!(lanes.len(), list.linked().len());
        assert_eq!(instances, per_fault * list.linked().len());
    }
}
