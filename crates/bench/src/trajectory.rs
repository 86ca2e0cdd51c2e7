//! The perf-trajectory file format and its CI differ.
//!
//! `backend_bench` writes `BENCH_simulation.json` (schema below); the
//! `bench_diff` binary re-reads the committed baseline and a freshly measured
//! file and fails when the geometric-mean speedup regresses by more than a
//! threshold. Comparisons are made on *speedup ratios* (contender vs baseline
//! timings of the same run), which are stable across machines, rather than on
//! absolute nanoseconds, which are not.
//!
//! Schema (version 2):
//!
//! ```json
//! {
//!   "benchmark": "simulation_backends",
//!   "version": 2,
//!   "threads": 1,
//!   "geomean_speedup": 12.3,
//!   "workloads": [
//!     {"name": "...", "kind": "coverage", "baseline": "scalar",
//!      "contender": "packed", "baseline_ns": 10, "contender_ns": 1,
//!      "speedup": 10.0}
//!   ]
//! }
//! ```
//!
//! Everything here is dependency-free: the parser below covers exactly the
//! JSON subset the schema uses (objects, arrays, strings, numbers).

use std::fmt;

use crate::json_escape;

/// The schema version this crate reads and writes.
pub const SCHEMA_VERSION: u64 = 2;

/// One timed workload of the trajectory file: a named baseline-vs-contender
/// pair (scalar vs packed backends, or full re-simulation vs suffix-only
/// minimisation).
#[derive(Debug, Clone, PartialEq)]
pub struct BenchRecord {
    /// Workload name (test × list × configuration); the differ matches
    /// baseline and current files by this key.
    pub name: String,
    /// Workload family: `"coverage"`, `"minimise"`, `"session"`,
    /// `"af_coverage"` (the large-memory address-decoder workloads),
    /// `"projection"`, `"service"`, `"snapshot"` or `"campaign"`.
    pub kind: String,
    /// What the slow side is (`"scalar"`, `"full-resim"`, …).
    pub baseline: String,
    /// What the fast side is (`"packed"`, `"snapshot"`, …).
    pub contender: String,
    /// Mean baseline wall time, nanoseconds.
    pub baseline_ns: u64,
    /// Mean contender wall time, nanoseconds.
    pub contender_ns: u64,
    /// `baseline_ns / contender_ns`.
    pub speedup: f64,
}

/// A parsed (or to-be-written) `BENCH_simulation.json`.
#[derive(Debug, Clone, PartialEq)]
pub struct BenchFile {
    /// Schema version (always [`SCHEMA_VERSION`] for files this crate writes).
    pub version: u64,
    /// The worker-thread count the run actually used (the resolved value, not
    /// the requested `--threads` flag: `0` is resolved to the available
    /// parallelism before it gets here).
    pub threads: usize,
    /// Geometric mean of the per-workload speedups.
    pub geomean_speedup: f64,
    /// The timed workloads.
    pub workloads: Vec<BenchRecord>,
}

impl BenchFile {
    /// Assembles a file from measured records, computing the geomean.
    #[must_use]
    pub fn new(threads: usize, workloads: Vec<BenchRecord>) -> BenchFile {
        let geomean_speedup = geomean(workloads.iter().map(|record| record.speedup));
        BenchFile {
            version: SCHEMA_VERSION,
            threads,
            geomean_speedup,
            workloads,
        }
    }

    /// Serialises the file in the version-2 schema.
    #[must_use]
    pub fn to_json(&self) -> String {
        let mut json = String::from("{\n  \"benchmark\": \"simulation_backends\",\n");
        json.push_str(&format!("  \"version\": {},\n", self.version));
        json.push_str(&format!("  \"threads\": {},\n", self.threads));
        json.push_str(&format!(
            "  \"geomean_speedup\": {:.3},\n",
            self.geomean_speedup
        ));
        json.push_str("  \"workloads\": [\n");
        for (index, record) in self.workloads.iter().enumerate() {
            json.push_str(&format!(
                "    {{\"name\": \"{}\", \"kind\": \"{}\", \"baseline\": \"{}\", \
                 \"contender\": \"{}\", \"baseline_ns\": {}, \"contender_ns\": {}, \
                 \"speedup\": {:.3}}}{}\n",
                json_escape(&record.name),
                json_escape(&record.kind),
                json_escape(&record.baseline),
                json_escape(&record.contender),
                record.baseline_ns,
                record.contender_ns,
                record.speedup,
                if index + 1 == self.workloads.len() {
                    ""
                } else {
                    ","
                }
            ));
        }
        json.push_str("  ]\n}\n");
        json
    }

    /// Parses and validates a trajectory file.
    ///
    /// # Errors
    ///
    /// Returns a description of the first schema violation: malformed JSON, a
    /// missing or mistyped field, or a version other than [`SCHEMA_VERSION`].
    pub fn parse(text: &str) -> Result<BenchFile, String> {
        let value = parse_json(text)?;
        let top = value.as_object("top level")?;
        let version = get(top, "version")?.as_u64("version")?;
        if version != SCHEMA_VERSION {
            return Err(format!(
                "unsupported trajectory schema version {version} (expected {SCHEMA_VERSION}); \
                 regenerate the file with backend_bench"
            ));
        }
        #[allow(clippy::cast_possible_truncation)]
        let threads = get(top, "threads")?.as_u64("threads")? as usize;
        let geomean_speedup = get(top, "geomean_speedup")?.as_f64("geomean_speedup")?;
        let mut workloads = Vec::new();
        for (index, entry) in get(top, "workloads")?
            .as_array("workloads")?
            .iter()
            .enumerate()
        {
            let record = entry.as_object(&format!("workloads[{index}]"))?;
            let speedup = get(record, "speedup")?.as_f64("speedup")?;
            if !(speedup.is_finite() && speedup > 0.0) {
                return Err(format!("workloads[{index}]: speedup must be positive"));
            }
            workloads.push(BenchRecord {
                name: get(record, "name")?.as_string("name")?,
                kind: get(record, "kind")?.as_string("kind")?,
                baseline: get(record, "baseline")?.as_string("baseline")?,
                contender: get(record, "contender")?.as_string("contender")?,
                baseline_ns: get(record, "baseline_ns")?.as_u64("baseline_ns")?,
                contender_ns: get(record, "contender_ns")?.as_u64("contender_ns")?,
                speedup,
            });
        }
        if workloads.is_empty() {
            return Err("trajectory file holds no workloads".to_string());
        }
        Ok(BenchFile {
            version,
            threads,
            geomean_speedup,
            workloads,
        })
    }
}

/// The result of diffing a current trajectory against the committed baseline.
#[derive(Debug, Clone)]
pub struct TrajectoryDiff {
    /// Workload names present in both files, with `(baseline, current)`
    /// speedups.
    pub compared: Vec<(String, f64, f64)>,
    /// Per-kind `(kind, baseline geomean, current geomean)` over the compared
    /// workloads, in first-seen order — so a regression confined to one
    /// workload family (e.g. the `af_coverage` large-memory runs) is visible
    /// even when the overall geomean stays inside the gate.
    pub per_kind: Vec<(String, f64, f64)>,
    /// Baseline workloads missing from the current run.
    pub missing: Vec<String>,
    /// Current workloads the baseline does not know yet.
    pub added: Vec<String>,
    /// Geomean speedup of the baseline file over the compared workloads.
    pub baseline_geomean: f64,
    /// Geomean speedup of the current file over the compared workloads.
    pub current_geomean: f64,
}

impl TrajectoryDiff {
    /// The relative geomean regression: `0.30` means the current run's
    /// geomean speedup is 30% below the baseline's; negative values are
    /// improvements.
    #[must_use]
    pub fn regression(&self) -> f64 {
        1.0 - self.current_geomean / self.baseline_geomean
    }

    /// Returns `true` when the regression exceeds `threshold` (e.g. `0.25`
    /// for the CI gate's 25%).
    #[must_use]
    pub fn regressed(&self, threshold: f64) -> bool {
        self.regression() > threshold
    }
}

impl fmt::Display for TrajectoryDiff {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<42} {:>10} {:>10} {:>8}",
            "workload", "baseline", "current", "ratio"
        )?;
        for (name, baseline, current) in &self.compared {
            writeln!(
                f,
                "{name:<42} {baseline:>9.2}x {current:>9.2}x {:>7.2}",
                current / baseline
            )?;
        }
        for (kind, baseline, current) in &self.per_kind {
            writeln!(
                f,
                "{:<42} {baseline:>9.2}x {current:>9.2}x {:>7.2}",
                format!("[geomean: {kind}]"),
                current / baseline
            )?;
        }
        for name in &self.missing {
            writeln!(f, "{name:<42} {:>10} {:>10}", "(baseline)", "missing")?;
        }
        for name in &self.added {
            writeln!(f, "{name:<42} {:>10} {:>10}", "-", "new")?;
        }
        write!(
            f,
            "geomean speedup: baseline {:.2}x, current {:.2}x ({:+.1}%)",
            self.baseline_geomean,
            self.current_geomean,
            -100.0 * self.regression()
        )
    }
}

/// Diffs two trajectory files on the workloads they share.
///
/// # Errors
///
/// Returns an error when the files share no workload — a renamed-everything
/// current file must not silently pass the gate.
pub fn diff_trajectories(
    baseline: &BenchFile,
    current: &BenchFile,
) -> Result<TrajectoryDiff, String> {
    let mut compared = Vec::new();
    let mut missing = Vec::new();
    let mut kinds: Vec<(String, Vec<(f64, f64)>)> = Vec::new();
    for record in &baseline.workloads {
        match current
            .workloads
            .iter()
            .find(|candidate| candidate.name == record.name)
        {
            Some(matching) => {
                compared.push((record.name.clone(), record.speedup, matching.speedup));
                match kinds.iter_mut().find(|(kind, _)| *kind == record.kind) {
                    Some((_, pairs)) => pairs.push((record.speedup, matching.speedup)),
                    None => kinds.push((
                        record.kind.clone(),
                        vec![(record.speedup, matching.speedup)],
                    )),
                }
            }
            None => missing.push(record.name.clone()),
        }
    }
    let added = current
        .workloads
        .iter()
        .filter(|record| {
            baseline
                .workloads
                .iter()
                .all(|known| known.name != record.name)
        })
        .map(|record| record.name.clone())
        .collect();
    if compared.is_empty() {
        return Err(
            "baseline and current trajectories share no workload; refusing to compare".to_string(),
        );
    }
    let baseline_geomean = geomean(compared.iter().map(|(_, baseline, _)| *baseline));
    let current_geomean = geomean(compared.iter().map(|(_, _, current)| *current));
    let per_kind = kinds
        .into_iter()
        .map(|(kind, pairs)| {
            let baseline = geomean(pairs.iter().map(|(baseline, _)| *baseline));
            let current = geomean(pairs.iter().map(|(_, current)| *current));
            (kind, baseline, current)
        })
        .collect();
    Ok(TrajectoryDiff {
        compared,
        per_kind,
        missing,
        added,
        baseline_geomean,
        current_geomean,
    })
}

/// Geometric mean of strictly positive values (`0.0` for an empty iterator).
#[must_use]
pub fn geomean(values: impl Iterator<Item = f64>) -> f64 {
    let mut sum = 0.0f64;
    let mut count = 0usize;
    for value in values {
        sum += value.ln();
        count += 1;
    }
    if count == 0 {
        0.0
    } else {
        (sum / count as f64).exp()
    }
}

// ---------------------------------------------------------------------------
// A minimal JSON reader for the schema above.
// ---------------------------------------------------------------------------

#[derive(Debug, Clone, PartialEq)]
enum Json {
    Object(Vec<(String, Json)>),
    Array(Vec<Json>),
    String(String),
    Number(f64),
    Bool(bool),
    Null,
}

impl Json {
    fn as_object(&self, context: &str) -> Result<&[(String, Json)], String> {
        match self {
            Json::Object(entries) => Ok(entries),
            other => Err(format!("{context}: expected an object, found {other:?}")),
        }
    }

    fn as_array(&self, context: &str) -> Result<&[Json], String> {
        match self {
            Json::Array(items) => Ok(items),
            other => Err(format!("{context}: expected an array, found {other:?}")),
        }
    }

    fn as_string(&self, context: &str) -> Result<String, String> {
        match self {
            Json::String(text) => Ok(text.clone()),
            other => Err(format!("{context}: expected a string, found {other:?}")),
        }
    }

    fn as_f64(&self, context: &str) -> Result<f64, String> {
        match self {
            Json::Number(value) => Ok(*value),
            other => Err(format!("{context}: expected a number, found {other:?}")),
        }
    }

    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    fn as_u64(&self, context: &str) -> Result<u64, String> {
        let value = self.as_f64(context)?;
        if value < 0.0 || value.fract() != 0.0 {
            return Err(format!(
                "{context}: expected a non-negative integer, found {value}"
            ));
        }
        Ok(value as u64)
    }
}

fn get<'a>(entries: &'a [(String, Json)], key: &str) -> Result<&'a Json, String> {
    entries
        .iter()
        .find(|(name, _)| name == key)
        .map(|(_, value)| value)
        .ok_or_else(|| format!("missing field `{key}`"))
}

fn parse_json(text: &str) -> Result<Json, String> {
    let mut parser = Parser {
        bytes: text.as_bytes(),
        pos: 0,
    };
    let value = parser.value()?;
    parser.skip_whitespace();
    if parser.pos != parser.bytes.len() {
        return Err(format!("trailing content at byte {}", parser.pos));
    }
    Ok(value)
}

struct Parser<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn skip_whitespace(&mut self) {
        while self
            .bytes
            .get(self.pos)
            .is_some_and(|byte| byte.is_ascii_whitespace())
        {
            self.pos += 1;
        }
    }

    fn peek(&mut self) -> Result<u8, String> {
        self.skip_whitespace();
        self.bytes
            .get(self.pos)
            .copied()
            .ok_or_else(|| "unexpected end of input".to_string())
    }

    fn expect(&mut self, byte: u8) -> Result<(), String> {
        if self.peek()? == byte {
            self.pos += 1;
            Ok(())
        } else {
            Err(format!(
                "expected `{}` at byte {}",
                char::from(byte),
                self.pos
            ))
        }
    }

    fn literal(&mut self, text: &str, value: Json) -> Result<Json, String> {
        if self.bytes[self.pos..].starts_with(text.as_bytes()) {
            self.pos += text.len();
            Ok(value)
        } else {
            Err(format!("invalid literal at byte {}", self.pos))
        }
    }

    fn value(&mut self) -> Result<Json, String> {
        match self.peek()? {
            b'{' => self.object(),
            b'[' => self.array(),
            b'"' => Ok(Json::String(self.string()?)),
            b't' => self.literal("true", Json::Bool(true)),
            b'f' => self.literal("false", Json::Bool(false)),
            b'n' => self.literal("null", Json::Null),
            _ => self.number(),
        }
    }

    fn object(&mut self) -> Result<Json, String> {
        self.expect(b'{')?;
        let mut entries = Vec::new();
        if self.peek()? == b'}' {
            self.pos += 1;
            return Ok(Json::Object(entries));
        }
        loop {
            let key = self.string()?;
            self.expect(b':')?;
            entries.push((key, self.value()?));
            match self.peek()? {
                b',' => self.pos += 1,
                b'}' => {
                    self.pos += 1;
                    return Ok(Json::Object(entries));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `}}` at byte {}, found `{}`",
                        self.pos,
                        char::from(other)
                    ))
                }
            }
        }
    }

    fn array(&mut self) -> Result<Json, String> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        if self.peek()? == b']' {
            self.pos += 1;
            return Ok(Json::Array(items));
        }
        loop {
            items.push(self.value()?);
            match self.peek()? {
                b',' => self.pos += 1,
                b']' => {
                    self.pos += 1;
                    return Ok(Json::Array(items));
                }
                other => {
                    return Err(format!(
                        "expected `,` or `]` at byte {}, found `{}`",
                        self.pos,
                        char::from(other)
                    ))
                }
            }
        }
    }

    fn string(&mut self) -> Result<String, String> {
        self.expect(b'"')?;
        let mut text = String::new();
        loop {
            let byte = *self
                .bytes
                .get(self.pos)
                .ok_or("unterminated string literal")?;
            self.pos += 1;
            match byte {
                b'"' => return Ok(text),
                b'\\' => {
                    let escape = *self.bytes.get(self.pos).ok_or("unterminated escape")?;
                    self.pos += 1;
                    match escape {
                        b'"' => text.push('"'),
                        b'\\' => text.push('\\'),
                        b'/' => text.push('/'),
                        b'n' => text.push('\n'),
                        b't' => text.push('\t'),
                        b'r' => text.push('\r'),
                        b'u' => {
                            let digits = self
                                .bytes
                                .get(self.pos..self.pos + 4)
                                .ok_or("truncated \\u escape")?;
                            let code = u32::from_str_radix(
                                std::str::from_utf8(digits).map_err(|_| "bad \\u escape")?,
                                16,
                            )
                            .map_err(|_| "bad \\u escape")?;
                            self.pos += 4;
                            text.push(char::from_u32(code).ok_or("bad \\u code point")?);
                        }
                        other => {
                            return Err(format!("unsupported escape `\\{}`", char::from(other)))
                        }
                    }
                }
                other => {
                    // Re-assemble multi-byte UTF-8 sequences.
                    if other.is_ascii() {
                        text.push(char::from(other));
                    } else {
                        let start = self.pos - 1;
                        let len = match other {
                            0xC0..=0xDF => 2,
                            0xE0..=0xEF => 3,
                            _ => 4,
                        };
                        let slice = self
                            .bytes
                            .get(start..start + len)
                            .ok_or("truncated UTF-8 sequence")?;
                        let chunk =
                            std::str::from_utf8(slice).map_err(|_| "invalid UTF-8 in string")?;
                        text.push_str(chunk);
                        self.pos = start + len;
                    }
                }
            }
        }
    }

    fn number(&mut self) -> Result<Json, String> {
        self.skip_whitespace();
        let start = self.pos;
        while self.bytes.get(self.pos).is_some_and(|byte| {
            byte.is_ascii_digit() || matches!(byte, b'-' | b'+' | b'.' | b'e' | b'E')
        }) {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .map_err(|_| "invalid number".to_string())?;
        text.parse::<f64>()
            .map(Json::Number)
            .map_err(|_| format!("invalid number `{text}` at byte {start}"))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(name: &str, speedup: f64) -> BenchRecord {
        BenchRecord {
            name: name.to_string(),
            kind: "coverage".to_string(),
            baseline: "scalar".to_string(),
            contender: "packed".to_string(),
            baseline_ns: (speedup * 1000.0) as u64,
            contender_ns: 1000,
            speedup,
        }
    }

    #[test]
    fn json_round_trips_through_the_parser() {
        let file = BenchFile::new(
            4,
            vec![record("a \"quoted\" × name", 8.0), record("b", 2.0)],
        );
        let parsed = BenchFile::parse(&file.to_json()).unwrap();
        assert_eq!(parsed, file);
        assert!((parsed.geomean_speedup - 4.0).abs() < 1e-9);
        assert_eq!(parsed.threads, 4);
        assert_eq!(parsed.version, SCHEMA_VERSION);
    }

    #[test]
    fn schema_violations_are_rejected() {
        assert!(BenchFile::parse("not json").is_err());
        assert!(BenchFile::parse("{}").is_err());
        let wrong_version = BenchFile {
            version: 1,
            ..BenchFile::new(1, vec![record("a", 2.0)])
        };
        let message = BenchFile::parse(&wrong_version.to_json()).unwrap_err();
        assert!(message.contains("version 1"), "{message}");
        // The PR-1 era schema (no version, no kind/baseline fields) is refused.
        let legacy = r#"{"benchmark": "simulation_backends", "threads": 1,
            "geomean_speedup": 2.0,
            "workloads": [{"name": "x", "scalar_ns": 2, "packed_ns": 1, "speedup": 2.0}]}"#;
        assert!(BenchFile::parse(legacy).is_err());
        let no_workloads = r#"{"version": 2, "threads": 1, "geomean_speedup": 1.0,
            "workloads": []}"#;
        assert!(BenchFile::parse(no_workloads)
            .unwrap_err()
            .contains("no workloads"));
        let negative = r#"{"version": 2, "threads": 1, "geomean_speedup": 1.0,
            "workloads": [{"name": "x", "kind": "coverage", "baseline": "scalar",
            "contender": "packed", "baseline_ns": 1, "contender_ns": 1, "speedup": -1.0}]}"#;
        assert!(BenchFile::parse(negative).unwrap_err().contains("positive"));
    }

    #[test]
    fn diff_passes_within_threshold_and_fails_beyond_it() {
        let baseline = BenchFile::new(1, vec![record("a", 10.0), record("b", 20.0)]);
        // 20% slower geomean: inside the 25% gate.
        let current = BenchFile::new(1, vec![record("a", 8.0), record("b", 16.0)]);
        let diff = diff_trajectories(&baseline, &current).unwrap();
        assert!((diff.regression() - 0.2).abs() < 1e-9);
        assert!(!diff.regressed(0.25));
        assert!(diff.regressed(0.1));
        assert!(diff.to_string().contains("geomean"));

        // A synthetic >25% regression trips the gate.
        let regressed = BenchFile::new(1, vec![record("a", 5.0), record("b", 10.0)]);
        let diff = diff_trajectories(&baseline, &regressed).unwrap();
        assert!(diff.regressed(0.25));
        assert!((diff.regression() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn diff_tracks_workload_set_changes() {
        let baseline = BenchFile::new(1, vec![record("kept", 4.0), record("gone", 4.0)]);
        let current = BenchFile::new(1, vec![record("kept", 4.0), record("new", 4.0)]);
        let diff = diff_trajectories(&baseline, &current).unwrap();
        assert_eq!(diff.compared.len(), 1);
        assert_eq!(diff.missing, vec!["gone".to_string()]);
        assert_eq!(diff.added, vec!["new".to_string()]);
        assert!(!diff.regressed(0.25));

        let disjoint = BenchFile::new(1, vec![record("other", 4.0)]);
        assert!(diff_trajectories(&baseline, &disjoint).is_err());
    }

    #[test]
    fn geomean_edge_cases() {
        assert_eq!(geomean(std::iter::empty()), 0.0);
        assert!((geomean([4.0, 16.0].into_iter()) - 8.0).abs() < 1e-9);
    }
}
