//! Scenario and property-based tests of the fault simulator: per-family detection
//! conditions, masking behaviour and coverage-report consistency.

use march_test::{catalog, MarchTest};
use proptest::prelude::*;
use sram_fault_model::{FaultList, Ffm, LinkTopology, Operation};
use sram_sim::{
    run_march, FaultSimulator, InitialState, InjectedFault, InstanceCells, LinkedFaultInstance,
    PlacementStrategy, Session,
};

fn simulator_with(primitive: sram_fault_model::FaultPrimitive, victim: usize) -> FaultSimulator {
    let mut simulator = FaultSimulator::new(8, &InitialState::AllOne).unwrap();
    simulator.inject(InjectedFault::single_cell(primitive, victim, 8).unwrap());
    simulator
}

#[test]
fn detection_conditions_per_single_cell_family() {
    // The textbook detection conditions, checked against well-known tests:
    //  - MATS+ detects SF and TF but misses WDF, DRDF (no non-transition writes /
    //    double reads);
    //  - March C- additionally misses WDF and DRDF;
    //  - March SS detects everything single-cell.
    let families_missed_by_mats = [
        Ffm::WriteDestructiveFault,
        Ffm::DeceptiveReadDestructiveFault,
    ];
    for family in families_missed_by_mats {
        let mut any_missed = false;
        for fp in family.fault_primitives() {
            let mut sim = simulator_with(fp, 3);
            if !run_march(&catalog::mats_plus(), &mut sim).detected() {
                any_missed = true;
            }
        }
        assert!(any_missed, "MATS+ unexpectedly detects every {family}");
    }
    for family in Ffm::single_cell() {
        for fp in family.fault_primitives() {
            let mut sim = simulator_with(fp.clone(), 5);
            assert!(
                run_march(&catalog::march_ss(), &mut sim).detected(),
                "March SS must detect {fp}"
            );
        }
    }
}

#[test]
fn coupling_faults_require_both_address_orders() {
    // A single ascending element cannot detect a disturb coupling fault whose
    // aggressor sits *above* the victim when the disturbance is re-written before
    // the victim is ever read again; the descending pass of March C- handles it.
    let cfds = Ffm::DisturbCoupling
        .fault_primitives()
        .into_iter()
        .find(|fp| fp.notation() == "<0w1;0/1/->")
        .unwrap();

    let ascending_only = MarchTest::parse("up only", "⇕(w0); ⇑(r0,w1); ⇕(r1)").unwrap();
    let mut sim = FaultSimulator::new(8, &InitialState::AllOne).unwrap();
    sim.inject(InjectedFault::coupling(cfds.clone(), 6, 1, 8).unwrap());
    assert!(
        !run_march(&ascending_only, &mut sim).detected(),
        "an ascending-only test should miss an aggressor-above-victim CFds whose victim is rewritten"
    );

    let mut sim = FaultSimulator::new(8, &InitialState::AllOne).unwrap();
    sim.inject(InjectedFault::coupling(cfds, 6, 1, 8).unwrap());
    assert!(run_march(&catalog::march_c_minus(), &mut sim).detected());
}

#[test]
fn linked_fault_masking_defeats_march_ss_but_not_march_sl_on_lf1() {
    // Find a single-cell linked fault that March SS misses (the motivation of the
    // paper) and confirm the linked-fault tests still catch it.
    let list = FaultList::list_2();
    let session = Session::default();
    let ss_report = session.coverage(&catalog::march_ss(), &list);
    let sl_report = session.coverage(&catalog::march_sl(), &list);
    let abl1_report = session.coverage(&catalog::march_abl1(), &list);
    assert!(sl_report.is_complete());
    assert!(abl1_report.is_complete());
    // March SS might or might not cover every LF1 under our semantics, but it must
    // never do better than March SL.
    assert!(ss_report.covered() <= sl_report.covered());
}

#[test]
fn coverage_report_escape_accounting_is_consistent() {
    let list = FaultList::list_1();
    let report = Session::default()
        .with_backgrounds(vec![InitialState::AllOne])
        .coverage(&catalog::march_c_minus(), &list);
    assert_eq!(report.total(), list.linked().len());
    assert_eq!(report.covered() + report.escapes().len(), report.total());
    let by_topology: usize = report.by_topology().values().map(|(_, total)| *total).sum();
    assert_eq!(by_topology, list.linked().len());
    let covered_by_topology: usize = report
        .by_topology()
        .values()
        .map(|(covered, _)| *covered)
        .sum();
    assert_eq!(covered_by_topology, report.covered());
}

#[test]
fn exhaustive_placements_agree_with_representative_on_complete_tests() {
    // March SL covers list #2 under representative placements; exhaustive placement
    // enumeration must agree (completeness is placement-independent for it).
    let list = FaultList::list_2();
    let representative = Session::default().coverage(&catalog::march_sl(), &list);
    let exhaustive = Session::default()
        .with_memory_cells(6)
        .with_strategy(PlacementStrategy::Exhaustive)
        .coverage(&catalog::march_sl(), &list);
    assert!(representative.is_complete());
    assert!(exhaustive.is_complete());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Waiting (the `t` operation) never changes the memory content and never
    /// produces detections on its own for operation-sensitized faults.
    #[test]
    fn wait_operations_are_inert(cell in 0usize..8, fault_index in 0usize..48) {
        let primitives = Ffm::all_fault_primitives();
        let primitive = primitives[fault_index % primitives.len()].clone();
        let mut simulator = FaultSimulator::new(8, &InitialState::AllOne).unwrap();
        let injected = if primitive.is_coupling() {
            InjectedFault::coupling(primitive, 0, 4, 8).unwrap()
        } else {
            InjectedFault::single_cell(primitive, 4, 8).unwrap()
        };
        simulator.inject(injected);
        let before: Vec<_> = simulator.faulty_memory().as_slice().to_vec();
        let outcome = simulator.apply(cell, Operation::Wait);
        prop_assert!(!outcome.mismatch());
        prop_assert_eq!(simulator.faulty_memory().as_slice(), &before[..]);
    }

    /// Every linked fault of list #1, instantiated anywhere, is detected by at
    /// least one of the linked-fault tests of the catalogue (March SL or the
    /// paper's ABL) — i.e. nothing in our fault lists is untestable.
    #[test]
    fn every_linked_fault_is_testable(index in 0usize..844, seed in 0usize..16) {
        let list = FaultList::list_1();
        let fault = &list.linked()[index % list.linked().len()];
        let placements = sram_sim::enumerate_placements(
            fault.topology(),
            8,
            PlacementStrategy::Representative,
        )
        .unwrap();
        let cells = placements[seed % placements.len()];
        let background = if seed % 2 == 0 { InitialState::AllZero } else { InitialState::AllOne };

        let mut detected = false;
        for test in [catalog::march_sl(), catalog::march_abl(), catalog::march_rabl()] {
            let mut simulator = FaultSimulator::new(8, &background).unwrap();
            let instance = LinkedFaultInstance::new(fault.clone(), cells, 8).unwrap();
            simulator.inject_linked(&instance);
            if run_march(&test, &mut simulator).detected() {
                detected = true;
                break;
            }
        }
        prop_assert!(detected, "{fault} escaped every linked-fault test at {cells}");
    }

    /// Single-cell linked-fault instances behave identically on every victim cell
    /// (translation invariance of the simulator).
    #[test]
    fn lf1_detection_is_translation_invariant(index in 0usize..32, a in 0usize..8, b in 0usize..8) {
        let list = FaultList::list_2();
        let fault = &list.linked()[index % list.linked().len()];
        prop_assume!(fault.topology() == LinkTopology::Lf1);
        let test = catalog::march_lf1();
        let mut outcomes = Vec::new();
        for victim in [a, b] {
            let mut simulator = FaultSimulator::new(8, &InitialState::AllOne).unwrap();
            let instance =
                LinkedFaultInstance::new(fault.clone(), InstanceCells::single(victim), 8).unwrap();
            simulator.inject_linked(&instance);
            outcomes.push(run_march(&test, &mut simulator).detected());
        }
        prop_assert_eq!(outcomes[0], outcomes[1]);
    }
}
