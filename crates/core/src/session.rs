//! Session-based entry points of the generation pipeline: [`SessionExt`]
//! extends [`sram_sim::Session`] with `generate`, `minimise` and `verify`, so
//! the whole paper pipeline — fault list → coverage → greedy generation →
//! redundancy removal → diagnosis — runs through **one** engine handle, its
//! simulation scope and its [`ExecPolicy`](sram_sim::ExecPolicy).

use std::fmt;

use march_test::MarchTest;
use sram_fault_model::FaultList;
use sram_sim::{CoverageReport, JsonObject, Report, Session};

use crate::optimize::minimise_with;
use crate::{GeneratedTest, GeneratorConfig, MarchGenerator};

/// The result of a session minimisation: the shortened march test plus the
/// number of operations removed, with the common [`Report`] surface.
#[derive(Debug, Clone)]
pub struct MinimisationReport {
    test: MarchTest,
    removed: usize,
}

impl MinimisationReport {
    /// The minimised march test.
    #[must_use]
    pub fn test(&self) -> &MarchTest {
        &self.test
    }

    /// Number of operations the removal pass deleted.
    #[must_use]
    pub fn removed_operations(&self) -> usize {
        self.removed
    }

    /// Consumes the report and returns the minimised test.
    #[must_use]
    pub fn into_test(self) -> MarchTest {
        self.test
    }
}

impl fmt::Display for MinimisationReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "removed {} operations -> {} [{}]",
            self.removed,
            self.test,
            self.test.complexity_label()
        )
    }
}

impl Report for MinimisationReport {
    fn kind(&self) -> &'static str {
        "minimisation"
    }

    fn summary(&self) -> String {
        self.to_string()
    }

    fn detail_lines(&self) -> Vec<String> {
        vec![self.test.notation()]
    }

    fn to_json(&self) -> String {
        JsonObject::new()
            .string("report", self.kind())
            .string("name", self.test.name())
            .string("notation", &self.test.notation())
            .number("complexity", self.test.complexity() as u64)
            .number("removed_operations", self.removed as u64)
            .build()
    }
}

impl Report for GeneratedTest {
    fn kind(&self) -> &'static str {
        "generation"
    }

    fn summary(&self) -> String {
        self.to_string()
    }

    fn detail_lines(&self) -> Vec<String> {
        self.report()
            .element_history()
            .iter()
            .map(|(element, covered)| format!("{element} -> {covered} newly covered"))
            .chain(
                self.report()
                    .uncovered()
                    .iter()
                    .map(|target| format!("uncovered: {target}")),
            )
            .collect()
    }

    fn to_json(&self) -> String {
        let history = self
            .report()
            .element_history()
            .iter()
            .map(|(element, covered)| {
                JsonObject::new()
                    .string("element", element)
                    .number("covered", *covered as u64)
                    .build()
            });
        JsonObject::new()
            .string("report", self.kind())
            .string("name", self.test().name())
            .string("notation", &self.test().notation())
            .number("complexity", self.test().complexity() as u64)
            .boolean("complete", self.report().is_complete())
            .number("initial_targets", self.report().initial_targets() as u64)
            .number("iterations", self.report().iterations() as u64)
            .number(
                "removed_operations",
                self.report().removed_operations() as u64,
            )
            .float("elapsed_s", self.report().elapsed().as_secs_f64())
            .strings("uncovered", self.report().uncovered().iter().cloned())
            .raw_array("element_history", history)
            .build()
    }
}

/// Pipeline entry points on [`Session`]: march-test generation, redundancy
/// removal and simulator-backed verification, all inheriting the session's
/// [`ExecPolicy`](sram_sim::ExecPolicy) and simulation scope.
pub trait SessionExt {
    /// Generates a march test for `list` with the paper's default generator
    /// setup, scoring candidates and re-verifying removals on this session's
    /// worker pool — [`MarchGenerator::generate_with`] on this session. The
    /// generated test is byte-identical under every policy.
    ///
    /// # Examples
    ///
    /// ```
    /// use march_gen::SessionExt;
    /// use sram_fault_model::FaultList;
    /// use sram_sim::{ExecPolicy, Session};
    ///
    /// let session = Session::new(ExecPolicy::fast());
    /// let generated = session.generate(&FaultList::list_2());
    /// assert!(generated.report().is_complete());
    /// ```
    fn generate(&self, list: &FaultList) -> GeneratedTest;

    /// Like [`SessionExt::generate`] with an explicit generator configuration
    /// (orders, repair pool, redundancy removal, …); the session supplies the
    /// simulation scope and the execution policy.
    fn generate_with_config(&self, list: &FaultList, config: GeneratorConfig) -> GeneratedTest;

    /// Removes redundant operations from `test` while preserving complete
    /// coverage of `list` under the session's scope, returning a typed
    /// [`MinimisationReport`]. The suffix-only pass is byte-identical to the
    /// full re-simulation oracle [`minimise_full_resim`](crate::minimise_full_resim).
    ///
    /// # Examples
    ///
    /// ```
    /// use march_gen::SessionExt;
    /// use march_test::MarchTest;
    /// use sram_fault_model::FaultList;
    /// use sram_sim::Session;
    ///
    /// let session = Session::default();
    /// let padded = MarchTest::parse("padded", "⇕(w0); ⇕(w0,r0,r0,w1); ⇕(w1,r1,r1,w0); ⇕(r0,r0)")?;
    /// let report = session.minimise(&padded, &FaultList::list_2());
    /// assert!(report.removed_operations() >= 2);
    /// # Ok::<(), march_test::ParseMarchError>(())
    /// ```
    fn minimise(&self, test: &MarchTest, list: &FaultList) -> MinimisationReport;

    /// Verifies `test` against `list` by fault simulation under the session's
    /// scope, exactly as the paper validates its generated tests — identical
    /// to [`Session::coverage`].
    ///
    /// # Examples
    ///
    /// ```
    /// use march_gen::SessionExt;
    /// use march_test::catalog;
    /// use sram_fault_model::FaultList;
    /// use sram_sim::Session;
    ///
    /// let session = Session::default();
    /// let report = session.verify(&catalog::march_sl(), &FaultList::list_2());
    /// assert!(report.is_complete());
    /// ```
    fn verify(&self, test: &MarchTest, list: &FaultList) -> CoverageReport;
}

impl SessionExt for Session {
    fn generate(&self, list: &FaultList) -> GeneratedTest {
        self.generate_with_config(list, GeneratorConfig::default())
    }

    fn generate_with_config(&self, list: &FaultList, config: GeneratorConfig) -> GeneratedTest {
        MarchGenerator::with_config(list.clone(), config).generate_with(self)
    }

    fn minimise(&self, test: &MarchTest, list: &FaultList) -> MinimisationReport {
        let (test, removed) = minimise_with(self, test, list);
        MinimisationReport { test, removed }
    }

    fn verify(&self, test: &MarchTest, list: &FaultList) -> CoverageReport {
        self.coverage(test, list)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sram_sim::{BackendKind, ExecPolicy};

    #[test]
    fn session_generate_matches_the_legacy_generator() {
        let list = FaultList::list_2();
        let legacy = MarchGenerator::new(list.clone()).generate_with(&Session::default());
        for policy in [
            ExecPolicy::default(),
            ExecPolicy::default().with_threads(2),
            ExecPolicy::default().with_backend(BackendKind::Scalar),
        ] {
            let session = Session::new(policy);
            let generated = session.generate(&list);
            assert_eq!(
                generated.test().notation(),
                legacy.test().notation(),
                "policy {policy:?}"
            );
            assert_eq!(
                generated.report().iterations(),
                legacy.report().iterations()
            );
        }
    }

    #[test]
    fn session_minimise_matches_the_legacy_pass() {
        let padded = MarchTest::parse(
            "padded ABL1",
            "⇕(w0); ⇕(w0,r0,r0,w1); ⇕(w1,r1,r1,w0); ⇕(r0,r0)",
        )
        .unwrap();
        let list = FaultList::list_2();
        let session = Session::default();
        let (legacy_test, legacy_removed) = crate::minimise_full_resim(&session, &padded, &list);
        let report = session.minimise(&padded, &list);
        assert_eq!(report.test().notation(), legacy_test.notation());
        assert_eq!(report.removed_operations(), legacy_removed);
        assert!(report.summary().contains("removed"));
        assert!(report
            .to_json()
            .starts_with("{\"report\": \"minimisation\""));
        assert_eq!(report.detail_lines(), vec![legacy_test.notation()]);
        assert_eq!(
            report.clone().into_test().notation(),
            legacy_test.notation()
        );
    }

    #[test]
    fn engine_sessions_share_artifacts_across_generator_runs() {
        let engine = sram_sim::SharedEngine::new(ExecPolicy::default().with_threads(2));
        let list = FaultList::list_2();
        let baseline = Session::new(ExecPolicy::default()).generate(&list);

        let first = engine.session().generate(&list);
        let hits_after_first = engine.cache_hits();
        let second = engine.session().generate(&list);

        assert_eq!(first.test().notation(), baseline.test().notation());
        assert_eq!(second.test().notation(), baseline.test().notation());
        // The generator re-simulates candidate tests but enumerates the fault
        // lanes once per scope: the second run over a fresh handle must be all
        // hits on the shared store, with no new enumeration work.
        assert_eq!(engine.store().enumerations(), 1);
        assert!(engine.cache_hits() > hits_after_first);
        assert_eq!(engine.workers_spawned(), 1);
    }

    #[test]
    fn generated_test_report_serialises() {
        let generated = Session::default().generate(&FaultList::list_2());
        let json = generated.to_json();
        assert!(json.starts_with("{\"report\": \"generation\""));
        assert!(json.contains("\"complete\": true"));
        assert!(json.contains("\"element_history\": ["));
        assert!(!generated.detail_lines().is_empty());
        assert_eq!(generated.summary(), generated.to_string());
    }
}
