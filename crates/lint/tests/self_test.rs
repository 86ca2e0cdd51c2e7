//! `march-lint` self-tests: the known-bad fixtures under `tests/fixtures/`
//! must each produce exactly the expected findings, the known-good ones none,
//! and the workspace this crate ships in must scan clean.

use std::path::Path;

use march_lint::{check_crate_root, rules_for, run_at, scan_source, FileRules, Finding};

const ALL_RULES: FileRules = FileRules {
    unwrap: true,
    timing: true,
    json: true,
    snapshot_io: true,
};

fn scan(fixture: &str, source: &str) -> Vec<Finding> {
    scan_source(fixture, source, &ALL_RULES)
}

fn rules_of(findings: &[Finding]) -> Vec<&'static str> {
    findings.iter().map(|f| f.rule).collect()
}

#[test]
fn flags_bare_unwrap_and_expect() {
    let findings = scan("unwrap_bad.rs", include_str!("fixtures/unwrap_bad.rs"));
    assert_eq!(rules_of(&findings), ["unwrap", "unwrap"]);
    assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [4, 5]);
}

#[test]
fn flags_ambient_clocks_and_spawns() {
    let findings = scan("timing_bad.rs", include_str!("fixtures/timing_bad.rs"));
    assert_eq!(rules_of(&findings), ["timing", "timing", "timing"]);
    assert_eq!(
        findings.iter().map(|f| f.line).collect::<Vec<_>>(),
        [4, 5, 6]
    );
}

#[test]
fn flags_hand_rolled_json_in_escaped_and_raw_strings() {
    let findings = scan("json_bad.rs", include_str!("fixtures/json_bad.rs"));
    assert_eq!(rules_of(&findings), ["json", "json"]);
    assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [4, 5]);
}

#[test]
fn flags_direct_fs_access_on_the_snapshot_path() {
    let findings = scan(
        "snapshot_io_bad.rs",
        include_str!("fixtures/snapshot_io_bad.rs"),
    );
    assert_eq!(rules_of(&findings), ["snapshot-io", "snapshot-io"]);
    assert_eq!(findings.iter().map(|f| f.line).collect::<Vec<_>>(), [4, 5]);
}

#[test]
fn sanctioned_snapshot_io_impl_is_clean() {
    let findings = scan(
        "snapshot_io_ok.rs",
        include_str!("fixtures/snapshot_io_ok.rs"),
    );
    assert_eq!(
        findings,
        [],
        "trait-routed I/O and the marked SnapshotIo impl must pass"
    );
}

#[test]
fn flags_missing_forbid_unsafe() {
    let finding = check_crate_root(
        "missing_forbid.rs",
        include_str!("fixtures/missing_forbid.rs"),
    )
    .expect("fixture lacks the attribute");
    assert_eq!(finding.rule, "forbid-unsafe");

    // And the real attribute satisfies the check.
    assert!(check_crate_root("ok.rs", "#![forbid(unsafe_code)]\npub fn f() {}\n").is_none());
}

#[test]
fn justified_markers_suppress_findings() {
    let findings = scan("allow_ok.rs", include_str!("fixtures/allow_ok.rs"));
    assert_eq!(findings, [], "justified markers must silence every rule");
}

#[test]
fn marker_without_justification_is_flagged() {
    let findings = scan(
        "allow_missing_justification.rs",
        include_str!("fixtures/allow_missing_justification.rs"),
    );
    assert_eq!(rules_of(&findings), ["marker"]);
    assert_eq!(findings[0].line, 5);
}

#[test]
fn test_modules_are_exempt() {
    let findings = scan("test_mod_ok.rs", include_str!("fixtures/test_mod_ok.rs"));
    assert_eq!(findings, [], "cfg(test) bodies must be skipped");
}

#[test]
fn tokens_in_strings_and_comments_are_inert() {
    let findings = scan(
        "strings_comments_ok.rs",
        include_str!("fixtures/strings_comments_ok.rs"),
    );
    assert_eq!(findings, [], "the cleaner must strip comments and strings");
}

#[test]
fn classification_matches_the_config() {
    let serve = rules_for("crates/cli/src/serve.rs").expect("serve path is scanned");
    assert!(serve.unwrap && serve.timing && serve.json && !serve.snapshot_io);
    // The serve workers run the shared decoder and executor, and the reader
    // parses every line with the JSON reader: both are on the serve path.
    let request = rules_for("crates/cli/src/request.rs").expect("request model is scanned");
    assert!(request.unwrap && request.timing && request.json && !request.snapshot_io);
    let json = rules_for("crates/cli/src/json.rs").expect("JSON reader is scanned");
    assert!(json.unwrap && json.timing && !json.json && !json.snapshot_io);
    let args = rules_for("crates/cli/src/args.rs").expect("argv parser is scanned");
    assert!(
        !args.unwrap,
        "the argv parser runs once per process, never in a worker"
    );

    let snapshot = rules_for("crates/memsim/src/snapshot.rs").expect("snapshot path is scanned");
    assert!(
        snapshot.unwrap && snapshot.snapshot_io,
        "the snapshot layer sits on both the serve and persistence paths"
    );
    let session = rules_for("crates/memsim/src/session.rs").expect("session is scanned");
    assert!(session.snapshot_io);

    let core = rules_for("crates/core/src/generator.rs").expect("library code is scanned");
    assert!(!core.unwrap && core.timing && core.json && !core.snapshot_io);

    let bench = rules_for("crates/bench/src/bin/table1.rs").expect("bench code is scanned");
    assert!(!bench.unwrap && !bench.timing && !bench.json);

    let facade = rules_for("crates/memsim/src/sync.rs").expect("façade is scanned");
    assert!(!facade.timing, "the sync façade is the sanctioned doorway");

    assert_eq!(rules_for("crates/cli/tests/golden.rs"), None);
    assert_eq!(rules_for("crates/lint/tests/fixtures/unwrap_bad.rs"), None);
}

#[test]
fn the_workspace_scans_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .parent()
        .and_then(Path::parent)
        .expect("crates/lint sits two levels under the workspace root");
    let summary = run_at(root).expect("workspace scan succeeds");
    assert!(
        summary.findings.is_empty(),
        "march-lint findings in the workspace:\n{}",
        summary
            .findings
            .iter()
            .map(ToString::to_string)
            .collect::<Vec<_>>()
            .join("\n")
    );
    assert!(summary.files > 50, "scan walked the whole workspace");
    assert!(summary.crates >= 8, "scan checked every crate root");
}
