//! Cross-crate integration of the session execution API: the paper's whole
//! pipeline — fault list → greedy generation → verification → redundancy
//! removal → dictionary-based diagnosis — through **one** engine handle, with
//! every stage returning a typed report that serialises to JSON.

use march_codex_repro::march_gen::SessionExt;
use march_codex_repro::march_test::{catalog, MarchTest};
use march_codex_repro::sram_fault_model::{FaultList, Ffm};
use march_codex_repro::sram_sim::{ExecPolicy, InjectedFault, Report, Session, Syndrome};

#[test]
fn the_whole_pipeline_runs_through_one_session() {
    let session = Session::new(ExecPolicy::default().with_threads(2));
    let spawned = session.workers_spawned();
    let list = FaultList::list_2();

    // 1. Generate a march test for the single-cell static linked faults.
    let generated = session.generate(&list);
    assert!(generated.report().is_complete());
    assert!(generated.test().complexity() <= 11);
    assert!(generated
        .to_json()
        .starts_with("{\"report\": \"generation\""));

    // 2. Verify it with the fault simulator through the same session.
    let coverage = session.verify(generated.test(), &list);
    assert!(coverage.is_complete(), "escapes: {:?}", coverage.escapes());
    assert!(coverage.to_json().contains("\"complete\": true"));

    // 3. Redundancy removal on a padded catalogue test.
    let padded = MarchTest::parse(
        "padded ABL1",
        "⇕(w0); ⇕(w0,r0,r0,w1); ⇕(w1,r1,r1,w0); ⇕(r0,r0)",
    )
    .unwrap();
    let minimised = session.minimise(&padded, &list);
    assert!(minimised.removed_operations() >= 2);
    assert!(minimised
        .to_json()
        .starts_with("{\"report\": \"minimisation\""));

    // 4. Diagnose a faulty device with a dictionary built by the session.
    let dictionary = session.dictionary(generated.test(), &list);
    let fault_free = session
        .observe(generated.test(), &sample_fault(&session))
        .unwrap();
    let report = session.diagnose(&fault_free, &dictionary);
    assert!(report.to_json().starts_with("{\"report\": \"diagnosis\""));

    // 5. Run a single injected fault end to end.
    let run = session
        .run(&catalog::march_ss(), &sample_fault(&session))
        .unwrap();
    assert!(run.detected());
    assert!(run.to_json().starts_with("{\"report\": \"run\""));

    // Every stage above shared the one worker pool: nothing was respawned.
    assert_eq!(session.workers_spawned(), spawned);
}

fn sample_fault(session: &Session) -> InjectedFault {
    let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
    InjectedFault::single_cell(tf, 3, session.memory_cells()).unwrap()
}

#[test]
fn session_syndromes_match_the_simulator_primitives() {
    let session = Session::default();
    let fault = sample_fault(&session);
    let syndrome = session.observe(&catalog::march_ss(), &fault).unwrap();
    let run = session.run(&catalog::march_ss(), &fault).unwrap();
    assert_eq!(syndrome, Syndrome::from_run(&run));
    assert_eq!(syndrome.len(), run.mismatches());
}
