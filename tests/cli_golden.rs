//! Golden transcript of the `march-codex` command line.
//!
//! Each argv line of [`CASES`] runs through `run_from_args`, and its stdout
//! (or its `error: …` line) is held to `tests/cli_smoke/golden.txt`, with
//! the generator's wall-clock time masked. A change to any output byte of
//! these commands shows up as a diff of that file.
//!
//! After an intended output change, rewrite the golden and review its diff:
//!
//! ```text
//! CLI_GOLDEN_BLESS=1 cargo test --test cli_golden
//! ```

use march_codex_cli::run_from_args;

const GOLDEN: &str = "tests/cli_smoke/golden.txt";

const CASES: &[&[&str]] = &[
    &["coverage", "--test", "March C-", "--list", "1"],
    &["coverage", "--test", "March C-", "--list", "1", "--json"],
    &[
        "coverage",
        "--test",
        "March C-",
        "--list",
        "1",
        "--exhaustive",
    ],
    &[
        "coverage",
        "--test",
        "March C-",
        "--list",
        "1",
        "--exhaustive",
        "--json",
    ],
    &[
        "coverage", "--test", "March SS", "--list", "unlinked", "--sample", "200", "--seed", "7",
    ],
    &[
        "coverage", "--test", "March SS", "--list", "unlinked", "--sample", "200", "--seed", "7",
        "--json",
    ],
    &["coverage", "--faults", "af", "--cells", "1024"],
    &["coverage", "--faults", "af", "--cells", "1024", "--json"],
    &["generate", "--list", "2"],
    &["generate", "--list", "2", "--json"],
    &["generate", "--list", "2", "--exhaustive"],
    &["generate", "--list", "2", "--exhaustive", "--json"],
    &["generate", "--list", "2", "--order", "down"],
    &["generate", "--list", "2", "--no-removal"],
    &["generate", "--list", "2", "--cells", "128", "--json"],
    &["minimise", "--test", "March SL", "--list", "2"],
    &["minimise", "--test", "March SL", "--list", "2", "--json"],
    &[
        "diagnose",
        "--test",
        "March SS",
        "--fault",
        "<0w1;0/1/->",
        "--victim",
        "4",
        "--aggressor",
        "1",
        "--list",
        "unlinked",
    ],
    &[
        "diagnose",
        "--test",
        "March SS",
        "--fault",
        "<0w1;0/1/->",
        "--victim",
        "4",
        "--aggressor",
        "1",
        "--list",
        "unlinked",
        "--json",
    ],
    &[
        "simulate",
        "--test",
        "March SS",
        "--fault",
        "<0w1;0/1/->",
        "--victim",
        "5",
        "--aggressor",
        "2",
    ],
    &["catalog"],
    &["show", "March", "SL"],
    &[
        "coverage", "--test", "March SS", "--list", "2", "--bogus", "1",
    ],
    &["coverage", "--test", "March XYZ", "--list", "2"],
    &[
        "coverage", "--test", "March SS", "--list", "2", "--cells", "2",
    ],
];

/// Quotes an argument the way a shell user would type it.
fn shell_word(arg: &str) -> String {
    if arg.contains([' ', '<', '>', ';']) {
        format!("\"{arg}\"")
    } else {
        arg.to_string()
    }
}

/// Replaces the digits of every number that follows `marker` with `0`.
fn mask_after(text: &str, marker: &str) -> String {
    let mut masked = String::with_capacity(text.len());
    let mut rest = text;
    while let Some(at) = rest.find(marker) {
        let (head, tail) = rest.split_at(at + marker.len());
        masked.push_str(head);
        let digits = tail
            .find(|c: char| !(c.is_ascii_digit() || c == '.'))
            .unwrap_or(tail.len());
        masked.push('0');
        rest = &tail[digits..];
    }
    masked.push_str(rest);
    masked
}

/// The generator's wall-clock time, in the JSON report and the text line.
fn mask_elapsed(text: &str) -> String {
    mask_after(&mask_after(text, "\"elapsed_s\": "), " ops removed, ")
}

fn transcript() -> String {
    let mut transcript = String::new();
    for argv in CASES {
        let words: Vec<String> = argv.iter().map(|arg| shell_word(arg)).collect();
        transcript.push_str(&format!("$ march-codex {}\n", words.join(" ")));
        match run_from_args(argv.iter().copied()) {
            Ok(output) => transcript.push_str(&mask_elapsed(&output)),
            Err(error) => transcript.push_str(&format!("error: {error}\n")),
        }
        transcript.push('\n');
    }
    transcript
}

#[test]
fn cli_output_matches_the_golden_transcript() {
    let path = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join(GOLDEN);
    let actual = transcript();
    if std::env::var_os("CLI_GOLDEN_BLESS").is_some() {
        std::fs::write(&path, &actual).expect("write the golden transcript");
        return;
    }
    let golden = std::fs::read_to_string(&path).expect("read the golden transcript");
    for (index, (want, got)) in golden.lines().zip(actual.lines()).enumerate() {
        assert_eq!(got, want, "line {} of {GOLDEN} differs", index + 1);
    }
    assert_eq!(
        actual.lines().count(),
        golden.lines().count(),
        "{GOLDEN} and the transcript differ in length"
    );
}

#[test]
fn masking_replaces_only_the_elapsed_numbers() {
    assert_eq!(
        mask_elapsed("{\"elapsed_s\": 0.0123, \"x\": 5}\n7 ops removed, 0.004s\n"),
        "{\"elapsed_s\": 0, \"x\": 5}\n7 ops removed, 0s\n"
    );
}
