//! Command implementations of the `march-codex` binary.
//!
//! The pipeline sub-commands run through the executor `serve` shares
//! ([`execute`]); this module adds what is the command line's own: the
//! text view of each report, the `--json` wrappers with the session
//! counters, the verification step of `generate`, and the sub-commands
//! `serve` has no op for.

use std::error::Error;
use std::fmt;
use std::sync::Arc;

use march_test::catalog;
use sram_fault_model::{FaultList, FaultPrimitive};
use sram_sim::{
    ArtifactStore, CampaignReport, CoverageReport, ExecPolicy, FaultSimulator, InitialState,
    JsonObject, Report, Session, SharedEngine, SnapshotStore, Syndrome,
};

use crate::args::{usage, Command, ParseArgsError};
use crate::request::{
    build_injection, execute, find_primitive, lookup, scoped, validate_scope, Request, Response,
};

/// Errors produced by the command-line front end.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CliError {
    /// The arguments could not be parsed.
    Arguments(String),
    /// A referenced march test does not exist in the catalogue.
    UnknownTest(String),
    /// A fault primitive notation does not match any realistic primitive.
    UnknownFault(String),
    /// A simulation could not be configured (bad addresses, memory size, …).
    Simulation(String),
}

impl fmt::Display for CliError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CliError::Arguments(message) => write!(f, "{message}"),
            CliError::UnknownTest(name) => {
                write!(f, "unknown march test `{name}` (see `march-codex catalog`)")
            }
            CliError::UnknownFault(notation) => write!(
                f,
                "`{notation}` does not match any realistic static fault primitive"
            ),
            CliError::Simulation(message) => write!(f, "{message}"),
        }
    }
}

impl Error for CliError {}

impl From<ParseArgsError> for CliError {
    fn from(error: ParseArgsError) -> Self {
        CliError::Arguments(error.to_string())
    }
}

/// Executes a parsed command and returns the text to print on stdout.
///
/// # Errors
///
/// Returns a [`CliError`] describing the failure; the caller is expected to print
/// it to stderr and exit non-zero.
pub fn run(command: &Command) -> Result<String, CliError> {
    match command {
        Command::Help => Ok(usage()),
        Command::Catalog => Ok(render_catalog()),
        Command::Show { name } => {
            let test = lookup(name)?;
            Ok(format!("{test}\ncomplexity: {}\n", test.complexity_label()))
        }
        Command::Pipeline {
            request,
            verify_exhaustive,
            threads,
            json,
        } => pipeline(
            request,
            *verify_exhaustive,
            ExecPolicy::default().with_threads(*threads),
            *json,
        ),
        Command::Simulate {
            test,
            fault,
            victim,
            aggressor,
            cells,
        } => simulate(test, fault, *victim, *aggressor, *cells),
        Command::Serve {
            threads,
            max_in_flight,
            timeout_ms,
            read_timeout_ms,
            snapshot_dir,
            tcp,
        } => {
            // The serve engine sits on the process-wide store, so repeated
            // serve invocations in one process (and every client of one
            // invocation) share the same warm cache.
            let store = ArtifactStore::global();
            if let Some(dir) = snapshot_dir {
                // Attaching is write-once per process; a second serve in the
                // same process keeps the first snapshot layer (the cache is
                // shared anyway), so a failed attach is not an error.
                let _ = store.attach_snapshots(SnapshotStore::open(dir));
            }
            let engine =
                SharedEngine::with_store(ExecPolicy::default().with_threads(*threads), store);
            let options = crate::serve::ServeOptions {
                max_in_flight: *max_in_flight,
                timeout: std::time::Duration::from_millis(*timeout_ms),
                read_timeout: read_timeout_ms.map(std::time::Duration::from_millis),
            };
            crate::serve::run_serve(&engine, options, tcp.as_deref())
                .map_err(|error| CliError::Simulation(format!("serve: {error}")))?;
            Ok(String::new())
        }
        Command::Snapshot {
            dir,
            warm,
            test,
            cells,
        } => snapshot(dir, warm.as_ref(), test.as_deref(), *cells),
    }
}

/// Runs one pipeline request through the executor `serve` shares, on an
/// engine of its own, and renders the report: its text form, or its JSON
/// under `--json`.
fn pipeline(
    request: &Request,
    verify_exhaustive: bool,
    policy: ExecPolicy,
    json: bool,
) -> Result<String, CliError> {
    let engine = SharedEngine::new(policy);
    Ok(match execute(engine.session(), request)? {
        Response::Coverage(report) => view(json, &report, coverage_text),
        Response::Campaign(report) => view(json, &report, campaign_text),
        Response::Generate {
            list,
            cells,
            generated,
        } => {
            // The command line verifies what it generated. Exhaustive
            // verification runs on a session of its own, so the session
            // counters count the generation alone.
            let verification = if verify_exhaustive {
                scoped(Session::new(policy), cells, true)
                    .try_coverage(generated.test(), list)
                    .map_err(|error| CliError::Simulation(error.to_string()))?
            } else {
                scoped(engine.session(), cells, false).coverage(generated.test(), list)
            };
            if json {
                return Ok(format!(
                    "{}\n",
                    JsonObject::new()
                        .raw("generation", generated.to_json())
                        .raw("verification", verification.to_json())
                        .raw("session", session_stats(&engine))
                        .build()
                ));
            }
            let mut output = format!("target        : {list}\n");
            output.push_str(&format!("generated     : {}\n", generated.test()));
            output.push_str(&format!(
                "complexity    : {}\n",
                generated.test().complexity_label()
            ));
            output.push_str(&format!("generation    : {}\n", generated.report()));
            output.push_str(&format!("verification  : {verification}\n"));
            if !verification.is_complete() {
                for escape in verification.escapes().iter().take(5) {
                    output.push_str(&format!("  escape: {escape}\n"));
                }
            }
            output
        }
        Response::Minimise {
            list,
            input,
            report,
        } => {
            if json {
                return Ok(format!(
                    "{}\n",
                    JsonObject::new()
                        .raw("minimisation", report.to_json())
                        .raw("session", session_stats(&engine))
                        .build()
                ));
            }
            let mut output = format!("input         : {input}\n");
            output.push_str(&format!("target        : {list}\n"));
            output.push_str(&format!("minimised     : {}\n", report.test()));
            output.push_str(&format!(
                "complexity    : {} -> {}\n",
                input.complexity_label(),
                report.test().complexity_label()
            ));
            output.push_str(&format!(
                "removed       : {} operations\n",
                report.removed_operations()
            ));
            output
        }
        Response::Diagnose {
            list,
            primitive,
            victim,
            aggressor,
            cells,
            report,
        } => view(json, &report, |report| {
            let mut output = format!(
                "device fault  : {}\n",
                fault_on(&primitive, victim, aggressor, cells)
            );
            output.push_str(&format!("syndrome      : {}\n", report.syndrome()));
            output.push_str(&format!("searched space: {list}\n"));
            output.push_str(&format!("diagnosis     : {}\n", report.summary()));
            for line in report.detail_lines().iter().take(15) {
                output.push_str(&format!("  candidate: {line}\n"));
            }
            if report.is_unexplained() {
                output.push_str("no single fault of the searched space explains the syndrome\n");
            }
            output
        }),
    })
}

/// The report's JSON line under `--json`, its `text` form otherwise.
fn view<R: Report>(json: bool, report: &R, text: impl FnOnce(&R) -> String) -> String {
    if json {
        format!("{}\n", report.to_json())
    } else {
        text(report)
    }
}

fn coverage_text(report: &CoverageReport) -> String {
    let mut output = format!("{report}\n");
    for (topology, (covered, total)) in report.by_topology() {
        output.push_str(&format!("  {topology}: {covered}/{total}\n"));
    }
    if !report.is_complete() {
        output.push_str(&format!(
            "escapes ({} shown of {}):\n",
            report.escapes().len().min(10),
            report.escapes().len()
        ));
        for escape in report.escapes().iter().take(10) {
            output.push_str(&format!("  {escape}\n"));
        }
    }
    output
}

fn campaign_text(report: &CampaignReport) -> String {
    let mut output = format!("{report}\n");
    output.push_str(&format!(
        "  replay: --sample {} --seed {}{}\n",
        report.draws(),
        report.seed(),
        if report.without_replacement() {
            " (covers the full space, without replacement)"
        } else {
            ""
        }
    ));
    if !report.trace().is_empty() {
        output.push_str(&format!(
            "escape trace ({} shown{}):\n",
            report.trace().len(),
            if report.trace_truncated() {
                ", truncated"
            } else {
                ""
            }
        ));
        for line in report.detail_lines() {
            output.push_str(&format!("  {line}\n"));
        }
    }
    output
}

/// The engine's observability counters as a JSON fragment: how many worker
/// threads were spawned for the whole invocation and how often the
/// target-lane artifact cache answered a query without re-enumerating.
fn session_stats(engine: &SharedEngine) -> String {
    JsonObject::new()
        .number("workers_spawned", engine.workers_spawned() as u64)
        .number("jobs_executed", engine.jobs_executed() as u64)
        .number("cache_hits", engine.cache_hits() as u64)
        .number("cached_artifacts", engine.cached_artifacts() as u64)
        .number("cached_dictionaries", engine.cached_dictionaries() as u64)
        .build()
}

/// "`primitive` (victim V, aggressor A) on a N-cell memory".
fn fault_on(
    primitive: &FaultPrimitive,
    victim: usize,
    aggressor: Option<usize>,
    cells: usize,
) -> String {
    let aggressor = aggressor.map_or(String::new(), |aggressor| {
        format!(", aggressor {aggressor}")
    });
    format!("{primitive} (victim {victim}{aggressor}) on a {cells}-cell memory")
}

/// The `snapshot` subcommand: pre-warms a snapshot directory (with `--warm`)
/// and reports its contents — names, sizes, kinds and integrity of every
/// file, so operators can audit what a `serve --snapshot-dir` will replay.
fn snapshot(
    dir: &str,
    warm: Option<&FaultList>,
    test: Option<&str>,
    cells: Option<usize>,
) -> Result<String, CliError> {
    let snapshots = SnapshotStore::open(dir);
    let mut output = String::new();
    if let Some(list) = warm {
        // A private store keeps the warm run isolated from the process-wide
        // cache: everything it builds lands in the snapshot directory.
        let artifacts = Arc::new(ArtifactStore::new());
        artifacts.attach_snapshots(Arc::clone(&snapshots));
        let engine = SharedEngine::with_store(ExecPolicy::default(), artifacts);
        let session = scoped(engine.session(), cells, false);
        validate_scope(&session, list)?;
        if let Some(test) = test {
            let test = lookup(test)?;
            // Building the dictionary is the warming side effect; the handle
            // itself is not needed here.
            let _ = session.dictionary(&test, list);
        }
        let stats = snapshots.stats();
        output.push_str(&format!(
            "warmed        : {} new snapshot(s), {} replayed from disk\n",
            stats.writes, stats.hits
        ));
        if stats.degraded {
            output.push_str("warning       : directory is unwritable; nothing was persisted\n");
        }
    }
    output.push_str(&format!("snapshot dir  : {dir}\n"));
    let files = snapshots.inspect();
    if files.is_empty() {
        output.push_str("(no snapshot files)\n");
    }
    for file in &files {
        output.push_str(&format!(
            "  {:<28} {:>8} bytes  {:<10} {}\n",
            file.name, file.bytes, file.kind, file.status
        ));
    }
    output.push_str(&format!("total         : {} file(s)\n", files.len()));
    Ok(output)
}

fn render_catalog() -> String {
    let mut output = format!("{:<16} {:>6}  notation\n", "name", "length");
    for test in catalog::all() {
        output.push_str(&format!(
            "{:<16} {:>6}  {}\n",
            test.name(),
            test.complexity_label(),
            test.notation()
        ));
    }
    output
}

fn simulate(
    test: &str,
    fault: &str,
    victim: usize,
    aggressor: Option<usize>,
    cells: usize,
) -> Result<String, CliError> {
    let test = lookup(test)?;
    let primitive = find_primitive(fault)?;
    let injected = build_injection(&primitive, victim, aggressor, cells)?;

    let mut output = String::new();
    for background in [InitialState::AllZero, InitialState::AllOne] {
        let mut simulator = FaultSimulator::new(cells, &background)
            .map_err(|error| CliError::Simulation(error.to_string()))?;
        simulator.inject(injected.clone());
        let syndrome = Syndrome::observe(&test, &mut simulator);
        output.push_str(&format!("background {background:?}: {syndrome}\n"));
        for entry in syndrome.entries().take(10) {
            output.push_str(&format!("  {entry}\n"));
        }
    }
    output.push_str(&format!(
        "injected fault: {} under {}\n",
        fault_on(&primitive, victim, aggressor, cells),
        test.name()
    ));
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_from_args;
    use march_gen::MarchGenerator;
    use sram_sim::{BackendKind, CampaignConfig, PlacementStrategy};

    fn cli(args: &[&str]) -> Result<String, CliError> {
        run_from_args(args.iter().copied())
    }

    /// An explicitly scoped session: `cells` cells, exhaustive placements,
    /// both uniform backgrounds.
    fn exhaustive_session(cells: usize) -> Session {
        Session::default()
            .with_memory_cells(cells)
            .with_strategy(PlacementStrategy::Exhaustive)
            .with_backgrounds(vec![InitialState::AllZero, InitialState::AllOne])
    }

    /// `base`, plus `--cells N` when `cells` is given.
    fn with_cells(base: &[&str], cells: Option<usize>) -> Result<String, CliError> {
        let cells = cells.map(|cells| cells.to_string());
        let mut argv = base.to_vec();
        if let Some(cells) = &cells {
            argv.extend(["--cells", cells]);
        }
        cli(&argv)
    }

    #[test]
    fn coverage_exhaustive_runs_on_eight_cells_unless_cells_is_given() {
        let test = catalog::march_ss();
        let list = FaultList::unlinked_static();
        let base = [
            "coverage",
            "--test",
            "March SS",
            "--list",
            "unlinked",
            "--exhaustive",
            "--json",
        ];
        for (cells, scope) in [(None, 8), (Some(7), 7)] {
            let output = with_cells(&base, cells).unwrap();
            let expected = exhaustive_session(scope).coverage(&test, &list).to_json();
            assert_eq!(output, format!("{expected}\n"), "--cells {cells:?}");
        }
    }

    #[test]
    fn coverage_sample_runs_on_eight_cells_unless_cells_is_given() {
        let test = catalog::march_ss();
        let list = FaultList::unlinked_static();
        let campaign = CampaignConfig::default().with_draws(200).with_seed(7);
        let base = [
            "coverage", "--test", "March SS", "--list", "unlinked", "--sample", "200", "--seed",
            "7", "--json",
        ];
        // The session's 8 cells sample a 4,224-lane space, like the serve
        // op; 6 cells sample 2,304 lanes.
        for (cells, scope, space) in [(None, 8, 4224), (Some(6), 6, 2304)] {
            let output = with_cells(&base, cells).unwrap();
            let expected = exhaustive_session(scope)
                .campaign(&test, &list, &campaign)
                .to_json();
            assert_eq!(output, format!("{expected}\n"), "--cells {cells:?}");
            assert!(
                output.contains(&format!("\"space\": {space}, ")),
                "{output}"
            );
        }
    }

    #[test]
    fn generate_exhaustive_verifies_on_eight_cells_unless_cells_is_given() {
        let list = FaultList::list_2();
        let base = ["generate", "--list", "2", "--exhaustive", "--json"];
        for (cells, scope) in [(None, 8), (Some(7), 7)] {
            let output = with_cells(&base, cells).unwrap();
            // Generation runs on the representative scope at `--cells` (8 by
            // default); only the verification switches to the exhaustive one.
            let generation = Session::default().with_memory_cells(cells.unwrap_or(8));
            let generated = MarchGenerator::new(list.clone())
                .named("March GEN")
                .generate_with(&generation);
            let expected = exhaustive_session(scope)
                .coverage(generated.test(), &list)
                .to_json();
            assert!(
                output.contains(&format!("\"verification\": {expected}, \"session\": ")),
                "--cells {cells:?}: {output}"
            );
        }
    }

    #[test]
    fn catalog_and_show() {
        let catalog_output = run(&Command::Catalog).unwrap();
        assert!(catalog_output.contains("March SL"));
        assert!(catalog_output.contains("41n"));

        let show = run(&Command::Show {
            name: "march abl1".into(),
        })
        .unwrap();
        assert!(show.contains("9n"));
        assert!(run(&Command::Show {
            name: "no such test".into()
        })
        .is_err());
    }

    #[test]
    fn coverage_command_reports_percentages() {
        let output = cli(&["coverage", "--test", "March ABL1", "--list", "2"]).unwrap();
        assert!(output.contains("100.0%"));
        assert!(output.contains("LF1"));
        assert!(!output.contains("backend"), "{output}");
    }

    #[test]
    fn coverage_command_agrees_across_backends() {
        // The command renders the scalar reference's report exactly like the
        // packed engine's, at one thread and on a pool.
        let request = Request::Coverage {
            test: "March C-".into(),
            list: FaultList::list_1(),
            cells: None,
            exhaustive: false,
        };
        let render = |policy: ExecPolicy| pipeline(&request, false, policy, false).unwrap();
        let scalar = render(ExecPolicy::default().with_backend(BackendKind::Scalar));
        assert_eq!(scalar, render(ExecPolicy::default()));
        assert_eq!(scalar, render(ExecPolicy::default().with_threads(0)));
    }

    #[test]
    fn coverage_sample_runs_a_campaign() {
        let base = [
            "coverage", "--test", "March C-", "--list", "1", "--sample", "256", "--seed", "9",
        ];
        let json = [&base[..], &["--json"]].concat();
        let output = cli(&json).unwrap();
        assert!(output.starts_with("{\"report\": \"campaign\""));
        assert!(output.contains("\"seed\": 9"));
        assert!(output.contains("\"confidence\": 0.950"));
        // Identical seeds replay byte-identically on another thread count.
        let replay = [&json[..], &["--threads", "0"]].concat();
        assert_eq!(output, cli(&replay).unwrap());
        // The text form carries the interval and the replay recipe.
        let rendered = cli(&base).unwrap();
        assert!(rendered.contains("CI ["));
        assert!(rendered.contains("replay: --sample 256 --seed 9"));
    }

    #[test]
    fn generate_command_produces_a_complete_test() {
        let output = cli(&[
            "generate",
            "--list",
            "2",
            "--name",
            "March CLI",
            "--threads",
            "0",
        ])
        .unwrap();
        assert!(output.contains("March CLI"));
        assert!(output.contains("100.0%"));
        assert!(!output.contains("backend"), "{output}");
    }

    #[test]
    fn minimise_command_shortens_a_padded_catalogue_test() {
        // March SL is heavily redundant against the single-cell list #2.
        let output = cli(&["minimise", "--test", "March SL", "--list", "2"]).unwrap();
        assert!(output.contains("removed"));
        assert!(output.contains("41n ->"));

        let json = cli(&[
            "minimise",
            "--test",
            "March SL",
            "--list",
            "2",
            "--threads",
            "0",
            "--json",
        ])
        .unwrap();
        assert!(json.starts_with("{\"minimisation\": {\"report\": \"minimisation\""));
        assert!(json.contains("\"removed_operations\": "));
        assert!(json.contains("\"cache_hits\": "));
        assert!(matches!(
            cli(&["minimise", "--test", "no such test", "--list", "2"]),
            Err(CliError::UnknownTest(_))
        ));
    }

    #[test]
    fn simulate_command_prints_a_syndrome() {
        let simulate = |fault: &str, aggressor: Option<usize>| {
            run(&Command::Simulate {
                test: "March SS".into(),
                fault: fault.into(),
                victim: 5,
                aggressor,
                cells: 8,
            })
        };
        assert!(simulate("<0w1;0/1/->", Some(2))
            .unwrap()
            .contains("failing reads"));
        assert!(simulate("<0w1;0/1/->", None).is_err());
        assert!(simulate("<bogus>", None).is_err());
        // A memory past the address space is a typed error, not an abort.
        let error = run(&Command::Simulate {
            test: "March SS".into(),
            fault: "<0w1;0/1/->".into(),
            victim: 5,
            aggressor: Some(2),
            cells: 1 << 60,
        })
        .unwrap_err();
        assert!(matches!(error, CliError::Simulation(_)), "{error}");
    }

    #[test]
    fn diagnose_command_recovers_the_injected_fault() {
        let base = [
            "diagnose",
            "--test",
            "March SS",
            "--victim",
            "4",
            "--aggressor",
            "1",
            "--list",
            "unlinked",
            "--cells",
            "6",
        ];
        let output = cli(&[&base[..], &["--fault", "<0w1;0/1/->"]].concat()).unwrap();
        assert!(output.contains("syndrome"));
        assert!(output.contains("candidates explain"));
        assert!(output.contains("candidate: "));
        assert!(matches!(
            cli(&[&base[..], &["--fault", "<bogus>"]].concat()),
            Err(CliError::UnknownFault(_))
        ));
    }

    #[test]
    fn json_flag_emits_machine_readable_reports() {
        let coverage = cli(&["coverage", "--test", "March ABL1", "--list", "2", "--json"]).unwrap();
        assert!(coverage.starts_with("{\"report\": \"coverage\""));
        assert!(coverage.contains("\"complete\": true"));

        let generate = cli(&["generate", "--list", "2", "--name", "March JSON", "--json"]).unwrap();
        assert!(generate.starts_with("{\"generation\": {\"report\": \"generation\""));
        assert!(generate.contains("\"verification\": {\"report\": \"coverage\""));
        assert!(generate.contains("March JSON"));

        let diagnose = cli(&[
            "diagnose",
            "--test",
            "March SS",
            "--fault",
            "<0w1;0/1/->",
            "--victim",
            "4",
            "--aggressor",
            "1",
            "--cells",
            "6",
            "--list",
            "unlinked",
            "--json",
        ])
        .unwrap();
        assert!(diagnose.starts_with("{\"report\": \"diagnosis\""));
        assert!(diagnose.contains("\"candidates\": ["));
    }

    #[test]
    fn coverage_over_the_decoder_domain() {
        let output = cli(&["coverage", "--faults", "af", "--cells", "64"]).unwrap();
        assert!(output.contains("Address-decoder faults"));
        assert!(output.contains("100.0%"));

        // The combined domain extends the list with the decoder classes.
        let combined = cli(&["coverage", "--list", "2", "--faults", "all"]).unwrap();
        assert!(combined.contains("+ AF"));
        assert!(combined.contains("37"));
    }

    #[test]
    fn undersized_memories_surface_a_typed_error() {
        // coverage, generate, minimise and diagnose report the same typed
        // error, not a panic.
        for argv in [
            &["coverage", "--test", "March SS", "--list", "2"][..],
            &["generate", "--list", "2"],
            &["minimise", "--test", "March SL", "--list", "2"],
            &[
                "diagnose", "--test", "MATS+", "--fault", "<1/0/->", "--victim", "1", "--list", "2",
            ],
        ] {
            let error = cli(&[argv, &["--cells", "2"]].concat()).unwrap_err();
            assert!(matches!(error, CliError::Simulation(_)), "{argv:?}");
            assert!(error.to_string().contains("too small"), "{argv:?}: {error}");
        }
    }

    #[test]
    fn snapshot_command_warms_and_inspects_a_directory() {
        let dir = std::env::temp_dir().join(format!(
            "march-codex-snapshot-cli-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let dir = dir.to_string_lossy().to_string();
        let warmed = run(&Command::Snapshot {
            dir: dir.clone(),
            warm: Some(FaultList::list_2()),
            test: Some("March SS".into()),
            cells: Some(8),
        })
        .unwrap();
        assert!(warmed.contains("warmed"), "{warmed}");
        assert!(warmed.contains("2 new snapshot(s)"), "{warmed}");
        assert!(warmed.contains("lanes"), "{warmed}");
        assert!(warmed.contains("dictionary"), "{warmed}");
        assert!(warmed.contains("2 file(s)"), "{warmed}");

        // Inspect-only over the same directory sees the persisted files.
        let inspected = run(&Command::Snapshot {
            dir: dir.clone(),
            warm: None,
            test: None,
            cells: None,
        })
        .unwrap();
        assert!(inspected.contains("2 file(s)"), "{inspected}");
        assert!(inspected.contains("ok"), "{inspected}");

        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn end_to_end_argument_handling() {
        let output = run_from_args(["show", "MATS+"]).unwrap();
        assert!(output.contains("5n"));
        let err = run_from_args(["bogus"]).unwrap_err();
        assert!(matches!(err, CliError::Arguments(_)));
        let help = run_from_args(Vec::<String>::new()).unwrap();
        assert!(help.contains("USAGE"));
    }
}
