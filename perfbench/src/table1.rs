//! `table1`: the paper's three Table 1 generations, closed loop, one client.
//!
//! Each op builds a cold [`Session`] at the default 8-cell thorough scope
//! (one thread, as the CLI resolves for ≤ 64 cells), enumerates both lists'
//! lanes, and generates the three rows — GABL (Fault List #1, no redundancy
//! removal), GRABL (List #1) and GABL1 (List #2) — in a seeded order. Each
//! row is verified by the session and encoded as its JSON report. The greedy
//! search and the minimiser are called separately (`generate_with_config`
//! without redundancy removal, then `SessionExt::minimise`) so the trace can
//! split them; set-up asserts that the pair yields the same test as the
//! single `generate` call, and falls back to the single call if it does not.

use std::collections::HashMap;

use march_gen::{GeneratedTest, GeneratorConfig, SessionExt};
use march_test::MarchTest;
use sram_fault_model::FaultList;
use sram_sim::{ExecPolicy, Report, Session};

use crate::rng::Rng;
use crate::trace::Tracer;
use crate::ClosedLoop;

/// The generated notations the output check pins: GABL (35n), GRABL (29n)
/// and GABL1 (7n), 71n in total.
const EXPECTED: [&str; 3] = [
    "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1); ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); \
     ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); ⇓(r0,w0,r0,w1)",
    "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1,w0,w0,r0,w1); ⇑(r1,r1,w0,w0,r0,r0,w1,w1,r1,w0); \
     ⇑(r1,w1,w1,r1,w0); ⇓(r0,w0,w1)",
    "⇕(w0); ⇑(r0,r0,w1,w1,r1,r1)",
];

/// Total complexity of the three pinned notations, in n.
pub const COMPLEXITY: u64 = 71;

/// Latency limit of `goodput_per_s`.
pub const LATENCY_LIMIT_MS: f64 = 400.0;

pub struct Table1 {
    rng: Rng,
    lists: [FaultList; 2],
    /// Whether greedy search and minimisation run as separate calls.
    split_minimise: bool,
    /// Verdicts of the separate `Session::coverage` confirmation, per
    /// `(row, notation)`.
    confirmed: HashMap<(usize, String), bool>,
    /// Total complexity of the last op's three tests.
    pub complexity: u64,
}

/// One op's output: the three tests in row order and whether the session
/// verified each complete.
pub struct Output {
    tests: Vec<MarchTest>,
    verified: bool,
}

pub fn setup(seed: u64) -> Result<Table1, String> {
    let lists = [FaultList::list_1(), FaultList::list_2()];
    let session = cold_session();
    let mut split_minimise = true;
    for list in &lists {
        let single = session.generate(list);
        let greedy =
            session.generate_with_config(list, GeneratorConfig::without_redundancy_removal());
        let pair = session.minimise(greedy.test(), list);
        if pair.test().notation() != single.test().notation()
            || pair.removed_operations() != single.report().removed_operations()
        {
            eprintln!("table1: generate + minimise differs from generate; timing the single call");
            split_minimise = false;
        }
    }
    Ok(Table1 {
        rng: Rng::new(seed),
        lists,
        split_minimise,
        confirmed: HashMap::new(),
        complexity: 0,
    })
}

fn cold_session() -> Session {
    Session::new(ExecPolicy::default())
}

/// Greedy generation without redundancy removal.
fn greedy(session: &Session, list: &FaultList, tracer: &mut Tracer) -> GeneratedTest {
    let generated = tracer.span("core.greedy", || {
        session.generate_with_config(list, GeneratorConfig::without_redundancy_removal())
    });
    tracer.count(
        "core.greedy.iterations",
        generated.report().iterations() as f64,
    );
    generated
}

impl Table1 {
    /// Generates one row (0 = GABL, 1 = GRABL, 2 = GABL1), verifies it and
    /// encodes its report. Returns the test and the session's verdict.
    fn row(&self, session: &Session, row: usize, tracer: &mut Tracer) -> (MarchTest, bool) {
        let list = &self.lists[usize::from(row == 2)];
        let (test, json) = if row == 0 {
            let generated = greedy(session, list, tracer);
            let json = tracer.span("memsim.report.encode", || generated.to_json());
            (generated.into_test(), json)
        } else if self.split_minimise {
            let generated = greedy(session, list, tracer);
            let minimised =
                tracer.span("core.minimise", || session.minimise(generated.test(), list));
            tracer.count(
                "core.minimise.removed_ops",
                minimised.removed_operations() as f64,
            );
            let json = tracer.span("memsim.report.encode", || minimised.to_json());
            (minimised.into_test(), json)
        } else {
            let generated = tracer.span("core.greedy", || session.generate(list));
            tracer.count(
                "core.greedy.iterations",
                generated.report().iterations() as f64,
            );
            let json = tracer.span("memsim.report.encode", || generated.to_json());
            (generated.into_test(), json)
        };
        let verified = tracer.span("core.verify", || session.verify(&test, list));
        (test, verified.is_complete() && !json.is_empty())
    }

    /// Confirms `test` complete for row `row` with a separate session.
    fn confirm(&mut self, row: usize, test: &MarchTest) -> bool {
        let list = &self.lists[usize::from(row == 2)];
        *self
            .confirmed
            .entry((row, test.notation()))
            .or_insert_with(|| cold_session().coverage(test, list).is_complete())
    }
}

impl ClosedLoop for Table1 {
    type Output = Output;

    fn op(&mut self, tracer: &mut Tracer) -> Result<Output, String> {
        let mut order = [0usize, 1, 2];
        self.rng.shuffle(&mut order);
        let session = cold_session();
        tracer.span("core.lanes", || -> Result<(), String> {
            for list in &self.lists {
                session.target_lanes(list).map_err(|e| e.to_string())?;
            }
            Ok(())
        })?;
        let mut tests: Vec<Option<MarchTest>> = vec![None, None, None];
        let mut verified = true;
        for row in order {
            let (test, complete) = self.row(&session, row, tracer);
            verified &= complete;
            tests[row] = Some(test);
        }
        tracer.count("memsim.store.hits", session.cache_hits() as f64);
        tracer.count(
            "memsim.store.enumerations",
            session.store().enumerations() as f64,
        );
        tracer.count("memsim.pool.jobs", session.jobs_executed() as f64);
        tracer.count(
            "memsim.pool.workers_spawned",
            session.workers_spawned() as f64,
        );
        Ok(Output {
            tests: tests.into_iter().flatten().collect(),
            verified,
        })
    }

    fn check(&mut self, output: &Output) -> bool {
        self.complexity = output.tests.iter().map(|t| t.complexity() as u64).sum();
        output.verified
            && output.tests.len() == 3
            && output
                .tests
                .iter()
                .enumerate()
                .all(|(row, test)| test.notation() == EXPECTED[row] && self.confirm(row, test))
    }
}

/// Regenerates Table 1 once on a cold session and returns its total
/// complexity — the `table1_complexity_n` every other workload reports.
pub fn regenerate() -> u64 {
    let session = cold_session();
    let (list1, list2) = (FaultList::list_1(), FaultList::list_2());
    let gabl = session.generate_with_config(&list1, GeneratorConfig::without_redundancy_removal());
    [gabl, session.generate(&list1), session.generate(&list2)]
        .iter()
        .map(|generated| generated.test().complexity() as u64)
        .sum()
}
