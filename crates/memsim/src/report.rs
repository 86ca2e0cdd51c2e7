//! The common report surface of the session API: every pipeline result can
//! summarise itself, enumerate per-item detail and serialise to JSON without
//! any dependency — the same hand-rolled writer approach as the benchmark
//! trajectory file (`march-bench`'s `trajectory.rs`), whose escaping rules
//! live here so both crates share one implementation.

use std::fmt::{self, Write as _};

use crate::coverage::CoverageReport;
use crate::diagnose::DiagnosisCandidate;
use crate::run::MarchRun;
use crate::Syndrome;

/// A machine- and human-readable pipeline result.
///
/// Implemented by every report a [`Session`](crate::Session) method returns:
/// coverage reports, march runs, diagnosis reports and (in `march_gen`) the
/// generation and minimisation reports.
pub trait Report {
    /// The report family tag, also the `"report"` field of the JSON form
    /// (`"coverage"`, `"run"`, `"diagnosis"`, `"generation"`,
    /// `"minimisation"`).
    fn kind(&self) -> &'static str;

    /// One human-readable summary line.
    fn summary(&self) -> String;

    /// Per-item detail lines (escapes, failing reads, candidates, …), in the
    /// report's deterministic order.
    fn detail_lines(&self) -> Vec<String>;

    /// Dependency-free JSON serialisation of the report. Always a single
    /// object with a `"report"` tag equal to [`Report::kind`].
    fn to_json(&self) -> String;
}

/// Escapes a string for embedding in a JSON string literal — the shared
/// implementation behind every JSON writer in the workspace.
#[must_use]
pub fn json_escape(text: &str) -> String {
    let mut escaped = String::with_capacity(text.len());
    let _ = JsonEscaped(&mut escaped).write_str(text);
    escaped
}

/// A [`fmt::Write`] sink that JSON-escapes everything written to it into
/// the wrapped buffer: [`json_escape`] for `Display` values, without an
/// intermediate string.
struct JsonEscaped<'a>(&'a mut String);

impl fmt::Write for JsonEscaped<'_> {
    fn write_str(&mut self, text: &str) -> fmt::Result {
        for c in text.chars() {
            match c {
                '"' => self.0.push_str("\\\""),
                '\\' => self.0.push_str("\\\\"),
                '\n' => self.0.push_str("\\n"),
                '\t' => self.0.push_str("\\t"),
                '\r' => self.0.push_str("\\r"),
                control if (control as u32) < 0x20 => {
                    write!(self.0, "\\u{:04x}", control as u32)?;
                }
                other => self.0.push(other),
            }
        }
        Ok(())
    }
}

/// A minimal JSON object writer: fields are emitted in insertion order, so the
/// output is deterministic.
#[derive(Debug, Default)]
pub struct JsonObject {
    fields: Vec<(String, String)>,
}

impl JsonObject {
    /// An empty object.
    #[must_use]
    pub fn new() -> JsonObject {
        JsonObject::default()
    }

    /// Adds a string field.
    #[must_use]
    pub fn string(mut self, key: &str, value: &str) -> JsonObject {
        self.fields
            .push((key.to_string(), format!("\"{}\"", json_escape(value))));
        self
    }

    /// Adds an integer field.
    #[must_use]
    pub fn number(mut self, key: &str, value: u64) -> JsonObject {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a float field (3 decimal places, matching the trajectory writer).
    #[must_use]
    pub fn float(mut self, key: &str, value: f64) -> JsonObject {
        self.fields.push((key.to_string(), format!("{value:.3}")));
        self
    }

    /// Adds a boolean field.
    #[must_use]
    pub fn boolean(mut self, key: &str, value: bool) -> JsonObject {
        self.fields.push((key.to_string(), value.to_string()));
        self
    }

    /// Adds a pre-serialised JSON value (object, array, …) verbatim.
    #[must_use]
    pub fn raw(mut self, key: &str, value: String) -> JsonObject {
        self.fields.push((key.to_string(), value));
        self
    }

    /// Adds an array of strings.
    #[must_use]
    pub fn strings(self, key: &str, values: impl IntoIterator<Item = String>) -> JsonObject {
        let items: Vec<String> = values
            .into_iter()
            .map(|value| format!("\"{}\"", json_escape(&value)))
            .collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    /// Adds an array of pre-serialised JSON values.
    #[must_use]
    pub fn raw_array(self, key: &str, values: impl IntoIterator<Item = String>) -> JsonObject {
        let items: Vec<String> = values.into_iter().collect();
        self.raw(key, format!("[{}]", items.join(", ")))
    }

    /// Serialises the object.
    #[must_use]
    pub fn build(self) -> String {
        let fields: Vec<String> = self
            .fields
            .into_iter()
            .map(|(key, value)| format!("\"{}\": {}", json_escape(&key), value))
            .collect();
        format!("{{{}}}", fields.join(", "))
    }
}

impl Report for CoverageReport {
    fn kind(&self) -> &'static str {
        "coverage"
    }

    fn summary(&self) -> String {
        self.to_string()
    }

    fn detail_lines(&self) -> Vec<String> {
        self.escapes().iter().map(ToString::to_string).collect()
    }

    fn to_json(&self) -> String {
        let topology = self
            .by_topology()
            .iter()
            .map(|(topology, (covered, total))| {
                JsonObject::new()
                    .string("topology", &topology.to_string())
                    .number("covered", *covered as u64)
                    .number("total", *total as u64)
                    .build()
            });
        // The escapes are written straight into one buffer: a long escape
        // list would otherwise pay an object and three strings per escape.
        let mut escapes = String::from("[");
        for (index, escape) in self.escapes().iter().enumerate() {
            if index > 0 {
                escapes.push_str(", ");
            }
            escapes.push_str("{\"target\": \"");
            let _ = write!(JsonEscaped(&mut escapes), "{}", escape.target);
            escapes.push_str("\", \"cells\": \"");
            let _ = write!(JsonEscaped(&mut escapes), "{}", escape.cells);
            escapes.push_str("\", \"background\": \"");
            let _ = write!(JsonEscaped(&mut escapes), "{:?}", escape.background);
            escapes.push_str("\"}");
        }
        escapes.push(']');
        JsonObject::new()
            .string("report", self.kind())
            .string("test", self.test_name())
            .string("list", self.list_name())
            .number("total", self.total() as u64)
            .number("covered", self.covered() as u64)
            .float("percent", self.percent())
            .boolean("complete", self.is_complete())
            .raw_array("by_topology", topology)
            .raw("escapes", escapes)
            .build()
    }
}

impl Report for MarchRun {
    fn kind(&self) -> &'static str {
        "run"
    }

    fn summary(&self) -> String {
        self.to_string()
    }

    fn detail_lines(&self) -> Vec<String> {
        self.failures().iter().map(ToString::to_string).collect()
    }

    fn to_json(&self) -> String {
        let failures = self.failures().iter().map(|failure| {
            JsonObject::new()
                .number("element", failure.element as u64)
                .number("operation", failure.operation as u64)
                .number("cell", failure.cell as u64)
                .number("observed", u64::from(failure.observed.as_u8()))
                .number("expected", u64::from(failure.expected.as_u8()))
                .build()
        });
        JsonObject::new()
            .string("report", self.kind())
            .boolean("detected", self.detected())
            .number("operations", self.operations() as u64)
            .number("mismatches", self.mismatches() as u64)
            .raw_array("failures", failures)
            .build()
    }
}

/// The result of a diagnosis query: the fault hypotheses whose simulated
/// syndrome matches the observed one, plus the context of the query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiagnosisReport {
    test_name: String,
    syndrome: Syndrome,
    candidates: Vec<DiagnosisCandidate>,
}

impl DiagnosisReport {
    /// Assembles a report (used by the session's diagnosis methods).
    #[must_use]
    pub fn new(
        test_name: impl Into<String>,
        syndrome: Syndrome,
        candidates: Vec<DiagnosisCandidate>,
    ) -> DiagnosisReport {
        DiagnosisReport {
            test_name: test_name.into(),
            syndrome,
            candidates,
        }
    }

    /// The march test the syndrome was observed under.
    #[must_use]
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// The observed syndrome being explained.
    #[must_use]
    pub fn syndrome(&self) -> &Syndrome {
        &self.syndrome
    }

    /// The fault hypotheses consistent with the syndrome.
    #[must_use]
    pub fn candidates(&self) -> &[DiagnosisCandidate] {
        &self.candidates
    }

    /// Returns `true` when no single fault of the searched space explains the
    /// syndrome.
    #[must_use]
    pub fn is_unexplained(&self) -> bool {
        self.candidates.is_empty() && !self.syndrome.is_empty()
    }
}

impl std::fmt::Display for DiagnosisReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} candidates explain {} under {}",
            self.candidates.len(),
            self.syndrome,
            self.test_name
        )
    }
}

impl Report for DiagnosisReport {
    fn kind(&self) -> &'static str {
        "diagnosis"
    }

    fn summary(&self) -> String {
        self.to_string()
    }

    fn detail_lines(&self) -> Vec<String> {
        self.candidates.iter().map(ToString::to_string).collect()
    }

    fn to_json(&self) -> String {
        let syndrome = self.syndrome.entries().map(|entry| {
            JsonObject::new()
                .number("element", entry.element as u64)
                .number("operation", entry.operation as u64)
                .number("cell", entry.cell as u64)
                .number("observed", u64::from(entry.observed.as_u8()))
                .build()
        });
        let candidates = self.candidates.iter().map(|candidate| {
            JsonObject::new()
                .string("target", &candidate.target.to_string())
                .string("cells", &candidate.cells.to_string())
                .build()
        });
        JsonObject::new()
            .string("report", self.kind())
            .string("test", &self.test_name)
            .number("failing_reads", self.syndrome.len() as u64)
            .raw_array("syndrome", syndrome)
            .number("candidate_count", self.candidates.len() as u64)
            .raw_array("candidates", candidates)
            .build()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{run_march, FaultSimulator, InitialState, InjectedFault, Session};
    use march_test::catalog;
    use sram_fault_model::{FaultList, Ffm};

    #[test]
    fn json_escape_covers_the_specials() {
        assert_eq!(json_escape("a\"b\\c\nd\te\rf"), "a\\\"b\\\\c\\nd\\te\\rf");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_escape("⇕(w0)"), "⇕(w0)");
    }

    #[test]
    fn json_object_builder_is_deterministic() {
        let json = JsonObject::new()
            .string("name", "x")
            .number("count", 3)
            .float("ratio", 0.5)
            .boolean("ok", true)
            .strings("tags", vec!["a".to_string(), "b".to_string()])
            .build();
        assert_eq!(
            json,
            "{\"name\": \"x\", \"count\": 3, \"ratio\": 0.500, \"ok\": true, \
             \"tags\": [\"a\", \"b\"]}"
        );
    }

    #[test]
    fn coverage_report_serialises() {
        let report = Session::default().coverage(&catalog::mats_plus(), &FaultList::list_2());
        let json = report.to_json();
        assert!(json.starts_with("{\"report\": \"coverage\""));
        assert!(json.contains("\"complete\": false"));
        assert!(json.contains("\"escapes\": ["));
        assert_eq!(report.detail_lines().len(), report.escapes().len());
        assert_eq!(report.summary(), report.to_string());
    }

    #[test]
    fn streamed_escapes_match_per_escape_objects() {
        // The escape list is written straight into the buffer; it must stay
        // byte-identical to one JsonObject per escape.
        let custom = InitialState::Custom(
            (0..8)
                .map(|cell| sram_fault_model::Bit::from(cell % 3 == 0))
                .collect(),
        );
        let report = Session::default()
            .with_backgrounds(vec![InitialState::Checkerboard, custom])
            .coverage(&catalog::mats_plus(), &FaultList::list_1());
        assert!(report.escapes().len() > 100);
        let objects: Vec<String> = report
            .escapes()
            .iter()
            .map(|escape| {
                JsonObject::new()
                    .string("target", &escape.target.to_string())
                    .string("cells", &escape.cells.to_string())
                    .string("background", &format!("{:?}", escape.background))
                    .build()
            })
            .collect();
        let expected = format!("\"escapes\": [{}]}}", objects.join(", "));
        assert!(report.to_json().ends_with(&expected));
    }

    #[test]
    fn march_run_serialises() {
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let mut simulator = FaultSimulator::new(8, &InitialState::AllOne).unwrap();
        simulator.inject(InjectedFault::single_cell(tf, 3, 8).unwrap());
        let run = run_march(&catalog::march_ss(), &mut simulator);
        let json = run.to_json();
        assert!(json.starts_with("{\"report\": \"run\""));
        assert!(json.contains("\"detected\": true"));
        assert!(!run.detail_lines().is_empty());
    }

    #[test]
    fn diagnosis_report_serialises() {
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let mut device = FaultSimulator::new(6, &InitialState::AllOne).unwrap();
        device.inject(InjectedFault::single_cell(tf, 2, 6).unwrap());
        let syndrome = Syndrome::observe(&catalog::march_ss(), &mut device);
        let session = Session::default()
            .with_memory_cells(6)
            .with_backgrounds(vec![InitialState::AllOne]);
        let report = session.diagnose_sweep(
            &catalog::march_ss(),
            &syndrome,
            &FaultList::unlinked_static(),
        );
        assert!(!report.is_unexplained());
        assert!(report.summary().contains("March SS"));
        let json = report.to_json();
        assert!(json.starts_with("{\"report\": \"diagnosis\""));
        assert!(json.contains("\"candidates\": ["));
    }
}
