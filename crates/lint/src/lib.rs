//! # `march-lint`
//!
//! Dependency-free invariant scanner for the march-codex workspace, in the
//! spirit of the repository's other single-purpose tools (`bench_diff`). It
//! enforces five repo-wide rules that `rustc`/`clippy` cannot express:
//!
//! * **`forbid-unsafe`** — every non-compat crate root carries
//!   `#![forbid(unsafe_code)]`.
//! * **`unwrap`** — no `.unwrap()` / `.expect(` in non-test code on the serve
//!   path (`cli/src/serve.rs`, the request decoder and executor in
//!   `cli/src/request.rs`, the JSON reader in `cli/src/json.rs`,
//!   `memsim/src/store.rs`, `memsim/src/parallel.rs`, `memsim/src/session.rs`,
//!   `memsim/src/snapshot.rs`): a panic there poisons locks shared by resident
//!   workers. Recover (`unwrap_or_else(PoisonError::into_inner)`), propagate,
//!   or justify the site with an allow marker.
//! * **`timing`** — no ambient clock reads or ad-hoc thread spawns
//!   (`Instant::now(`, `SystemTime`, `thread::spawn(`) outside the sanctioned
//!   sites (`memsim/src/parallel.rs`, the `sync` façades, `crates/bench`,
//!   `crates/interleave`, `crates/compat`): wall-clock values perturb report
//!   bytes and unmanaged threads escape the schedule explorer.
//! * **`json`** — no hand-rolled JSON object literals (a string literal
//!   containing `{"`) outside `memsim/src/report.rs`, `cli/src/json.rs` and
//!   the benchmarks: report bytes must flow through `JsonObject` so escaping
//!   and key order stay canonical.
//! * **`snapshot-io`** — no direct `std::fs` access (`std::fs`,
//!   `File::create(`, `File::open(`, `OpenOptions`, `fs::write(`,
//!   `fs::rename(`, `fs::remove_file(`) in snapshot-path code
//!   (`memsim/src/snapshot.rs`, `memsim/src/store.rs`,
//!   `memsim/src/session.rs`) outside the sanctioned `SnapshotIo` impl:
//!   every byte the snapshot layer persists must flow through the trait so
//!   the chaos suites can interpose fault injection, and so atomicity
//!   (temp + fsync + rename) cannot be bypassed by a stray write.
//!
//! ## Allow markers
//!
//! A finding can be blessed in place with a comment marker carrying a
//! **mandatory justification**:
//!
//! ```text
//! // lint: allow(unwrap) — OS-level spawn failure at pool construction is
//! // unrecoverable and happens before any request is in flight.
//! .expect("spawn simulation worker")
//! ```
//!
//! A marker on a comment-only line covers the next line that contains code
//! (intervening comment lines are skipped); a trailing marker covers its own
//! line. `// lint: allow-file(<rule>) — why` exempts the whole file from one
//! rule. A marker whose justification is missing is itself a finding.
//!
//! Test code is exempt everywhere: `#[cfg(test)]` / `#[cfg(all(test, …))]`
//! module bodies are skipped by brace tracking, and files under `tests/`,
//! `benches/`, `examples/` or `fixtures/` directories are not scanned.
//!
//! The scanner is a line/token pass over a comment/string-aware cleaner — it
//! never parses Rust — so tokens inside string literals, doc comments or
//! block comments never trigger findings.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::fmt;
use std::fs;
use std::io;
use std::path::{Path, PathBuf};

/// One rule violation at a source location.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Finding {
    /// Workspace-relative path, forward slashes.
    pub file: String,
    /// 1-based line number.
    pub line: usize,
    /// Rule identifier: `forbid-unsafe`, `unwrap`, `timing`, `json`, `marker`.
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Files on the serve path where the `unwrap` rule applies.
pub const SERVE_PATH_FILES: &[&str] = &[
    "crates/cli/src/serve.rs",
    "crates/cli/src/request.rs",
    "crates/cli/src/json.rs",
    "crates/memsim/src/store.rs",
    "crates/memsim/src/parallel.rs",
    "crates/memsim/src/session.rs",
    "crates/memsim/src/snapshot.rs",
];

/// Files on the snapshot persistence path where the `snapshot-io` rule
/// applies: everything that participates in loading or storing snapshot
/// artifacts. Only the sanctioned `SnapshotIo` impl (`FsIo`, which carries
/// per-line allow markers) may touch `std::fs` here.
pub const SNAPSHOT_PATH_FILES: &[&str] = &[
    "crates/memsim/src/snapshot.rs",
    "crates/memsim/src/store.rs",
    "crates/memsim/src/session.rs",
];

/// Path prefixes exempt from the `timing` rule: the worker-pool module that
/// owns thread lifecycles, the cfg-switched `sync` façades (the sanctioned
/// doorways to the real clock), the benchmarks (whose whole purpose is
/// timing), the instrumentation crate itself, and the compat shims.
const TIMING_EXEMPT: &[&str] = &[
    "crates/bench/",
    "crates/compat/",
    "crates/interleave/",
    "crates/memsim/src/parallel.rs",
    "crates/memsim/src/sync.rs",
    "crates/cli/src/sync.rs",
];

/// Path prefixes allowed to assemble JSON text by hand: the `JsonObject`
/// serialiser, the CLI's JSON reader, and the benchmarks (which script the
/// serve protocol with hand-written *request* lines — the rule guards report
/// emission, not test traffic).
const JSON_EXEMPT: &[&str] = &[
    "crates/memsim/src/report.rs",
    "crates/cli/src/json.rs",
    "crates/bench/",
    "crates/compat/",
];

/// Directory segments whose files are never scanned (test/bench/example
/// code, lint fixtures, build output).
const SKIP_SEGMENTS: &[&str] = &[
    "/tests/",
    "/benches/",
    "/examples/",
    "/fixtures/",
    "/target/",
];

/// Crates exempt from the `forbid-unsafe` crate-root check.
const UNSAFE_EXEMPT_CRATES: &[&str] = &["compat"];

/// Which token rules apply to one file.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FileRules {
    /// Apply the serve-path `unwrap` rule.
    pub unwrap: bool,
    /// Apply the ambient-`timing` rule.
    pub timing: bool,
    /// Apply the hand-rolled-`json` rule.
    pub json: bool,
    /// Apply the snapshot-path `snapshot-io` rule.
    pub snapshot_io: bool,
}

/// Classifies a workspace-relative path. `None` means the file is not
/// scanned at all.
#[must_use]
pub fn rules_for(rel: &str) -> Option<FileRules> {
    let slashed = format!("/{rel}");
    if SKIP_SEGMENTS.iter().any(|seg| slashed.contains(seg)) {
        return None;
    }
    Some(FileRules {
        unwrap: SERVE_PATH_FILES.contains(&rel),
        timing: !TIMING_EXEMPT.iter().any(|prefix| rel.starts_with(prefix)),
        json: !JSON_EXEMPT.iter().any(|prefix| rel.starts_with(prefix)),
        snapshot_io: SNAPSHOT_PATH_FILES.contains(&rel),
    })
}

/// Checks a crate-root source file for `#![forbid(unsafe_code)]`.
#[must_use]
pub fn check_crate_root(rel: &str, source: &str) -> Option<Finding> {
    if source
        .lines()
        .any(|line| line.trim() == "#![forbid(unsafe_code)]")
    {
        None
    } else {
        Some(Finding {
            file: rel.to_owned(),
            line: 1,
            rule: "forbid-unsafe",
            message: "crate root is missing `#![forbid(unsafe_code)]`".to_owned(),
        })
    }
}

/// One source line after cleaning: executable code with comments removed and
/// string bodies blanked, plus the comment text and string-literal bodies
/// that started on the line.
#[derive(Debug, Default)]
struct LineInfo {
    code: String,
    strings: Vec<String>,
    comments: Vec<String>,
}

/// Comment/string-aware cleaner. Understands line comments (`//`, `///`,
/// `//!`), nested block comments, escaped strings, raw strings (any hash
/// count), byte strings, char literals and lifetimes.
fn clean(source: &str) -> Vec<LineInfo> {
    #[derive(Debug)]
    enum Mode {
        Code,
        LineComment,
        BlockComment(usize),
        Str,
        RawStr(usize),
    }

    let chars: Vec<char> = source.chars().collect();
    let mut lines: Vec<LineInfo> = vec![LineInfo::default()];
    let mut mode = Mode::Code;
    // (line, index) of the string literal currently being accumulated; a
    // multi-line literal keeps appending to the entry on its opening line.
    let mut open_string: Option<(usize, usize)> = None;
    let mut i = 0;

    while i < chars.len() {
        let ch = chars[i];
        let next = chars.get(i + 1).copied();
        if ch == '\n' {
            if matches!(mode, Mode::LineComment) {
                mode = Mode::Code;
            }
            if let Some((line, string)) = open_string {
                lines[line].strings[string].push('\n');
            }
            lines.push(LineInfo::default());
            i += 1;
            continue;
        }
        let line = lines.len() - 1;
        match mode {
            Mode::Code => {
                if ch == '/' && next == Some('/') {
                    mode = Mode::LineComment;
                    lines[line].comments.push(String::new());
                    i += 2;
                } else if ch == '/' && next == Some('*') {
                    mode = Mode::BlockComment(1);
                    lines[line].comments.push(String::new());
                    i += 2;
                } else if ch == '"' {
                    mode = Mode::Str;
                    lines[line].strings.push(String::new());
                    open_string = Some((line, lines[line].strings.len() - 1));
                    lines[line].code.push('"');
                    i += 1;
                } else if is_raw_string_start(&chars, i) {
                    let mut j = i + 1;
                    if chars[i] == 'b' {
                        j += 1;
                    }
                    let mut hashes = 0;
                    while chars.get(j) == Some(&'#') {
                        hashes += 1;
                        j += 1;
                    }
                    mode = Mode::RawStr(hashes);
                    lines[line].strings.push(String::new());
                    open_string = Some((line, lines[line].strings.len() - 1));
                    lines[line].code.push('"');
                    i = j + 1;
                } else if ch == '\'' {
                    // Char literal vs lifetime: a backslash or a closing
                    // quote two characters on means a char literal.
                    if next == Some('\\') {
                        let mut j = i + 2;
                        if j < chars.len() {
                            j += 1; // the escaped character itself
                        }
                        while j < chars.len() && chars[j] != '\'' {
                            j += 1; // \u{...} digits
                        }
                        i = j + 1;
                    } else if chars.get(i + 2) == Some(&'\'') && next != Some('\'') {
                        i += 3;
                    } else {
                        lines[line].code.push('\'');
                        i += 1;
                    }
                } else {
                    lines[line].code.push(ch);
                    i += 1;
                }
            }
            Mode::LineComment => {
                if let Some(comment) = lines[line].comments.last_mut() {
                    comment.push(ch);
                } else {
                    // First character of a comment continuing past a line
                    // break cannot happen for `//`, but stay total anyway.
                    lines[line].comments.push(ch.to_string());
                }
                i += 1;
            }
            Mode::BlockComment(depth) => {
                if lines[line].comments.is_empty() {
                    lines[line].comments.push(String::new());
                }
                if ch == '*' && next == Some('/') {
                    mode = if depth == 1 {
                        Mode::Code
                    } else {
                        Mode::BlockComment(depth - 1)
                    };
                    i += 2;
                } else if ch == '/' && next == Some('*') {
                    mode = Mode::BlockComment(depth + 1);
                    i += 2;
                } else {
                    if let Some(comment) = lines[line].comments.last_mut() {
                        comment.push(ch);
                    }
                    i += 1;
                }
            }
            Mode::Str => {
                let (string_line, string) = match open_string {
                    Some(pair) => pair,
                    None => (line, 0),
                };
                if ch == '\\' {
                    lines[string_line].strings[string].push(ch);
                    // A `\`-newline continuation: leave the newline for the
                    // top-of-loop handler so line numbering stays true.
                    if next == Some('\n') {
                        i += 1;
                    } else {
                        if let Some(escaped) = next {
                            lines[string_line].strings[string].push(escaped);
                        }
                        i += 2;
                    }
                } else if ch == '"' {
                    mode = Mode::Code;
                    open_string = None;
                    lines[line].code.push('"');
                    i += 1;
                } else {
                    lines[string_line].strings[string].push(ch);
                    i += 1;
                }
            }
            Mode::RawStr(hashes) => {
                let (string_line, string) = match open_string {
                    Some(pair) => pair,
                    None => (line, 0),
                };
                if ch == '"' && (0..hashes).all(|h| chars.get(i + 1 + h) == Some(&'#')) {
                    mode = Mode::Code;
                    open_string = None;
                    lines[line].code.push('"');
                    i += 1 + hashes;
                } else {
                    lines[string_line].strings[string].push(ch);
                    i += 1;
                }
            }
        }
    }
    lines
}

/// True when `chars[i]` starts a raw (or raw byte) string literal.
fn is_raw_string_start(chars: &[char], i: usize) -> bool {
    let prev_is_ident = i > 0 && (chars[i - 1].is_alphanumeric() || chars[i - 1] == '_');
    if prev_is_ident {
        return false;
    }
    let mut j = i;
    if chars[j] == 'b' {
        j += 1;
    }
    if chars.get(j) != Some(&'r') {
        return false;
    }
    j += 1;
    while chars.get(j) == Some(&'#') {
        j += 1;
    }
    chars.get(j) == Some(&'"')
}

/// A parsed `lint: allow(...)` / `lint: allow-file(...)` marker.
#[derive(Debug)]
struct Marker {
    line: usize,
    rule: String,
    whole_file: bool,
    justified: bool,
}

fn parse_markers(lines: &[LineInfo]) -> Vec<Marker> {
    let mut markers = Vec::new();
    for (index, info) in lines.iter().enumerate() {
        for comment in &info.comments {
            let Some(at) = comment.find("lint: allow") else {
                continue;
            };
            let rest = &comment[at + "lint: allow".len()..];
            let (whole_file, rest) = match rest.strip_prefix("-file") {
                Some(stripped) => (true, stripped),
                None => (false, rest),
            };
            let Some(rest) = rest.strip_prefix('(') else {
                continue;
            };
            let Some(close) = rest.find(')') else {
                continue;
            };
            let rule = rest[..close].trim().to_owned();
            let justification = &rest[close + 1..];
            let justified = justification
                .chars()
                .filter(|c| c.is_alphanumeric())
                .count()
                >= 3;
            markers.push(Marker {
                line: index,
                rule,
                whole_file,
                justified,
            });
        }
    }
    markers
}

/// Scans one file's source against the given rules. `rel` is only used to
/// label findings.
#[must_use]
pub fn scan_source(rel: &str, source: &str, rules: &FileRules) -> Vec<Finding> {
    let lines = clean(source);
    let markers = parse_markers(&lines);
    let mut findings = Vec::new();

    let mut file_allows: Vec<&str> = Vec::new();
    // (0-based line, rule) pairs blessed by a marker.
    let mut line_allows: Vec<(usize, &str)> = Vec::new();
    for marker in &markers {
        if !marker.justified {
            findings.push(Finding {
                file: rel.to_owned(),
                line: marker.line + 1,
                rule: "marker",
                message: format!(
                    "`lint: allow({})` marker is missing its justification",
                    marker.rule
                ),
            });
        }
        if marker.whole_file {
            file_allows.push(&marker.rule);
            continue;
        }
        line_allows.push((marker.line, &marker.rule));
        // A marker on a comment-only line covers the next line holding code.
        if lines[marker.line].code.trim().is_empty() {
            if let Some((covered, _)) = lines
                .iter()
                .enumerate()
                .skip(marker.line + 1)
                .find(|(_, info)| !info.code.trim().is_empty())
            {
                line_allows.push((covered, &marker.rule));
            }
        }
    }
    let allowed = |line: usize, rule: &str| {
        file_allows.contains(&rule) || line_allows.iter().any(|&(l, r)| l == line && r == rule)
    };

    // Brace-tracked `#[cfg(test)]` region skipping.
    let mut depth = 0usize;
    let mut armed = false; // test-cfg attribute seen, body brace pending
    let mut skip_floor: Option<usize> = None;

    for (index, info) in lines.iter().enumerate() {
        let code = info.code.as_str();
        if code.contains("#[cfg(test)]") || code.contains("#[cfg(all(test") {
            armed = true;
        }
        let in_skip_before = skip_floor.is_some();
        for ch in code.chars() {
            match ch {
                '{' => {
                    if armed && skip_floor.is_none() {
                        skip_floor = Some(depth);
                        armed = false;
                    }
                    depth += 1;
                }
                '}' => {
                    depth = depth.saturating_sub(1);
                    if skip_floor == Some(depth) {
                        skip_floor = None;
                    }
                }
                // `#[cfg(test)] mod tests;` or a cfg'd `use`: no body here.
                ';' if armed && skip_floor.is_none() => {
                    armed = false;
                }
                _ => {}
            }
        }
        if in_skip_before || skip_floor.is_some() {
            continue;
        }

        if rules.unwrap
            && (code.contains(".unwrap()") || code.contains(".expect("))
            && !allowed(index, "unwrap")
        {
            findings.push(Finding {
                file: rel.to_owned(),
                line: index + 1,
                rule: "unwrap",
                message: "`.unwrap()`/`.expect()` on the serve path: recover \
                          (`unwrap_or_else(PoisonError::into_inner)`), propagate, or \
                          justify with `// lint: allow(unwrap) — why`"
                    .to_owned(),
            });
        }
        if rules.timing
            && ["Instant::now(", "SystemTime", "thread::spawn("]
                .iter()
                .any(|token| code.contains(token))
            && !allowed(index, "timing")
        {
            findings.push(Finding {
                file: rel.to_owned(),
                line: index + 1,
                rule: "timing",
                message: "ambient clock read or ad-hoc thread spawn outside the \
                          sanctioned sites: route it through the `sync` façade or \
                          justify with `// lint: allow(timing) — why`"
                    .to_owned(),
            });
        }
        if rules.snapshot_io
            && [
                "std::fs",
                "File::create(",
                "File::open(",
                "OpenOptions",
                "fs::write(",
                "fs::rename(",
                "fs::remove_file(",
            ]
            .iter()
            .any(|token| code.contains(token))
            && !allowed(index, "snapshot-io")
        {
            findings.push(Finding {
                file: rel.to_owned(),
                line: index + 1,
                rule: "snapshot-io",
                message: "direct filesystem access on the snapshot path: route the \
                          bytes through the `SnapshotIo` trait, or justify with \
                          `// lint: allow(snapshot-io) — why`"
                    .to_owned(),
            });
        }
        // Escape sequences are kept verbatim by the cleaner, so an escaped
        // literal spells the opening brace-quote with a backslash between.
        // The needles are assembled from chars so they cannot flag the
        // scanner's own source.
        let brace_quote: String = ['{', '"'].iter().collect();
        let brace_escaped_quote: String = ['{', '\\', '"'].iter().collect();
        if rules.json
            && info
                .strings
                .iter()
                .any(|s| s.contains(&brace_quote) || s.contains(&brace_escaped_quote))
            && !allowed(index, "json")
        {
            findings.push(Finding {
                file: rel.to_owned(),
                line: index + 1,
                rule: "json",
                message: "hand-rolled JSON object literal: route report bytes through \
                          `JsonObject`, or justify with `// lint: allow(json) — why`"
                    .to_owned(),
            });
        }
    }
    findings
}

/// A completed workspace scan.
#[derive(Debug)]
pub struct Summary {
    /// Number of `.rs` files token-scanned (crate-root checks not counted).
    pub files: usize,
    /// Number of crate roots checked for `#![forbid(unsafe_code)]`.
    pub crates: usize,
    /// Every finding, in path/line order.
    pub findings: Vec<Finding>,
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> io::Result<()> {
    for entry in fs::read_dir(dir)? {
        let entry = entry?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy().into_owned();
        if path.is_dir() {
            if name == "target" || name == ".git" {
                continue;
            }
            collect_rs(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}

/// Scans the workspace rooted at `root` (the directory holding `crates/`).
///
/// # Errors
///
/// Propagates I/O errors from walking the tree or reading sources.
pub fn run_at(root: &Path) -> io::Result<Summary> {
    let mut findings = Vec::new();
    let mut crates = 0;

    let crates_dir = root.join("crates");
    let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
        .filter_map(Result::ok)
        .map(|entry| entry.path())
        .filter(|path| path.is_dir())
        .collect();
    crate_dirs.sort();
    for dir in &crate_dirs {
        let name = dir
            .file_name()
            .map(|n| n.to_string_lossy().into_owned())
            .unwrap_or_default();
        if UNSAFE_EXEMPT_CRATES.contains(&name.as_str()) {
            continue;
        }
        let lib = dir.join("src/lib.rs");
        let main = dir.join("src/main.rs");
        let root_file = if lib.exists() {
            lib
        } else if main.exists() {
            main
        } else {
            continue;
        };
        let source = fs::read_to_string(&root_file)?;
        crates += 1;
        if let Some(finding) = check_crate_root(&relative(root, &root_file), &source) {
            findings.push(finding);
        }
    }

    let mut paths = Vec::new();
    collect_rs(&crates_dir, &mut paths)?;
    let src_dir = root.join("src");
    if src_dir.is_dir() {
        collect_rs(&src_dir, &mut paths)?;
    }
    paths.sort();
    let mut files = 0;
    for path in &paths {
        let rel = relative(root, path);
        let Some(rules) = rules_for(&rel) else {
            continue;
        };
        files += 1;
        let source = fs::read_to_string(path)?;
        findings.extend(scan_source(&rel, &source, &rules));
    }

    findings.sort_by(|a, b| (&a.file, a.line).cmp(&(&b.file, b.line)));
    Ok(Summary {
        files,
        crates,
        findings,
    })
}

fn relative(root: &Path, path: &Path) -> String {
    path.strip_prefix(root)
        .unwrap_or(path)
        .to_string_lossy()
        .replace('\\', "/")
}

/// Entry point for the `march-lint` binary: scans the workspace at the
/// first argument (default `.`), prints findings, and returns the process
/// exit code (0 clean, 1 findings, 2 I/O error).
#[must_use]
pub fn run() -> i32 {
    let root = std::env::args().nth(1).unwrap_or_else(|| String::from("."));
    match run_at(Path::new(&root)) {
        Ok(summary) => {
            for finding in &summary.findings {
                println!("{finding}");
            }
            if summary.findings.is_empty() {
                println!(
                    "march-lint: OK ({} files scanned, {} crate roots checked)",
                    summary.files, summary.crates
                );
                0
            } else {
                println!("march-lint: {} finding(s)", summary.findings.len());
                1
            }
        }
        Err(error) => {
            eprintln!("march-lint: error: {error}");
            2
        }
    }
}
