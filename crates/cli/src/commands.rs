//! Command implementations of the `march-codex` binary.

use std::error::Error;
use std::fmt;

use march_gen::{GeneratorConfig, MarchGenerator, SessionExt};
use march_test::{catalog, AddressOrder, MarchTest};
use sram_fault_model::{FaultList, FaultPrimitive, Ffm};
use sram_sim::{
    ArtifactStore, CampaignConfig, ExecPolicy, FaultSimulator, InitialState, InjectedFault,
    JsonObject, PlacementStrategy, Report, Session, SharedEngine, SnapshotStore, Syndrome,
};

use crate::args::{usage, Command, CoverageTarget, FaultDomain, ParseArgsError};

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
        Command::Generate {
            list,
            faults,
            cells,
            no_removal,
            order,
            name,
            exhaustive,
            threads,
            json,
        } => generate(
            resolve_list(*list, *faults)?,
            *cells,
            *no_removal,
            *order,
            name.as_deref(),
            *exhaustive,
            ExecPolicy::default().with_threads(*threads),
            *json,
        ),
        Command::Coverage {
            test,
            list,
            faults,
            cells,
            exhaustive,
            sample,
            seed,
            confidence,
            threads,
            json,
        } => {
            let policy = ExecPolicy::default().with_threads(*threads);
            let list = resolve_list(*list, *faults)?;
            match sample {
                Some(draws) => campaign(
                    test,
                    list,
                    *cells,
                    *draws,
                    *seed,
                    *confidence,
                    policy,
                    *json,
                ),
                None => coverage(test, list, *cells, *exhaustive, policy, *json),
            }
        }
        Command::Minimise {
            test,
            list,
            faults,
            cells,
            threads,
            json,
        } => minimise(
            test,
            resolve_list(*list, *faults)?,
            *cells,
            ExecPolicy::default().with_threads(*threads),
            *json,
        ),
        Command::Diagnose {
            test,
            fault,
            victim,
            aggressor,
            cells,
            list,
            threads,
            json,
        } => diagnose(
            test,
            fault,
            *victim,
            *aggressor,
            *cells,
            *list,
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
            list,
            faults,
            test,
            cells,
        } => snapshot(dir, *warm, *list, *faults, test.as_deref(), *cells),
    }
}

/// The `snapshot` subcommand: pre-warms a snapshot directory (with `--warm`)
/// and reports its contents — names, sizes, kinds and integrity of every
/// file, so operators can audit what a `serve --snapshot-dir` will replay.
fn snapshot(
    dir: &str,
    warm: bool,
    list: Option<CoverageTarget>,
    faults: FaultDomain,
    test: Option<&str>,
    cells: Option<usize>,
) -> Result<String, CliError> {
    let snapshots = SnapshotStore::open(dir);
    let mut output = String::new();
    if warm {
        let list = resolve_list(list, faults)?;
        // A private store keeps the warm run isolated from the process-wide
        // cache: everything it builds lands in the snapshot directory.
        let artifacts = std::sync::Arc::new(ArtifactStore::new());
        artifacts.attach_snapshots(std::sync::Arc::clone(&snapshots));
        let engine = SharedEngine::with_store(ExecPolicy::default(), artifacts);
        let mut session = engine.session();
        if let Some(cells) = cells {
            session = session.with_memory_cells(cells);
        }
        validate_scope(&session, &list)?;
        if let Some(test) = test {
            let test = lookup(test)?;
            // Building the dictionary is the warming side effect; the handle
            // itself is not needed here.
            let _ = session.dictionary(&test, &list);
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

pub(crate) fn lookup(name: &str) -> Result<MarchTest, CliError> {
    catalog::by_name(name).ok_or_else(|| CliError::UnknownTest(name.to_string()))
}

fn fault_list(target: CoverageTarget) -> FaultList {
    match target {
        CoverageTarget::List1 => FaultList::list_1(),
        CoverageTarget::List2 => FaultList::list_2(),
        CoverageTarget::Unlinked => FaultList::unlinked_static(),
    }
}

/// The fault list of a `--list`/`--faults` pair: the selected cell-array list,
/// the decoder-only list, or the selected list extended with the decoder
/// classes. The parser guarantees `list` is present exactly when the domain
/// needs it (and absent under `--faults af`, which would otherwise drop it).
pub(crate) fn resolve_list(
    target: Option<CoverageTarget>,
    faults: FaultDomain,
) -> Result<FaultList, CliError> {
    match faults {
        FaultDomain::Af => Ok(FaultList::address_decoder()),
        FaultDomain::Ffm | FaultDomain::All => {
            let base = fault_list(target.ok_or_else(|| {
                CliError::Arguments("a fault list is required outside --faults af".to_string())
            })?);
            Ok(match faults {
                FaultDomain::All => base.with_address_decoder_faults(),
                _ => base,
            })
        }
    }
}

/// Pre-validates that `session`'s scope can host `list`'s placements, turning
/// the would-be panic of the infallible generation/minimisation paths into
/// the same typed error `coverage` reports. The enumeration lands in the
/// session's artifact cache, so the later pipeline run pays nothing extra.
pub(crate) fn validate_scope(session: &Session, list: &FaultList) -> Result<(), CliError> {
    session
        .target_lanes(list)
        .map(|_| ())
        .map_err(|error| CliError::Simulation(error.to_string()))
}

/// The memory size of the exhaustive scope: `coverage --exhaustive`,
/// `coverage --sample` and the verification step of `generate --exhaustive`
/// enumerate every placement on this many cells unless `--cells` is given.
const EXHAUSTIVE_CELLS: usize = 6;

/// The session of a `coverage` or `generate` run: the thorough scope (8
/// cells, representative placements), or every placement on
/// [`EXHAUSTIVE_CELLS`] cells under `exhaustive`, with both uniform
/// backgrounds either way and an explicit `--cells` taking precedence.
fn scoped_session(policy: ExecPolicy, cells: Option<usize>, exhaustive: bool) -> Session {
    let session = Session::new(policy);
    if exhaustive {
        session
            .with_memory_cells(cells.unwrap_or(EXHAUSTIVE_CELLS))
            .with_strategy(PlacementStrategy::Exhaustive)
    } else {
        match cells {
            Some(cells) => session.with_memory_cells(cells),
            None => session,
        }
    }
}

#[allow(clippy::fn_params_excessive_bools, clippy::too_many_arguments)]
fn generate(
    list: FaultList,
    cells: Option<usize>,
    no_removal: bool,
    order: Option<AddressOrder>,
    name: Option<&str>,
    exhaustive: bool,
    policy: ExecPolicy,
    json: bool,
) -> Result<String, CliError> {
    let mut config = if no_removal {
        GeneratorConfig::without_redundancy_removal()
    } else {
        GeneratorConfig::default()
    };
    if let Some(order) = order {
        config.allowed_orders = vec![order, AddressOrder::Any];
    }

    // One session serves the whole invocation: generation, redundancy removal
    // and the final verification all share its policy and worker pool.
    let session = scoped_session(policy, cells, false);
    validate_scope(&session, &list)?;
    let generator = MarchGenerator::with_config(list.clone(), config)
        .named(name.unwrap_or("March GEN").to_string());
    let generated = generator.generate_with(&session);
    let report = if exhaustive {
        // Exhaustive verification changes the simulation scope, not the
        // policy — but it must still honour an explicit --cells.
        scoped_session(policy, cells, true)
            .try_coverage(generated.test(), &list)
            .map_err(|error| CliError::Simulation(error.to_string()))?
    } else {
        session.coverage(generated.test(), &list)
    };

    if json {
        return Ok(format!(
            "{}\n",
            JsonObject::new()
                .raw("generation", generated.to_json())
                .raw("verification", report.to_json())
                .raw("session", session_stats(&session))
                .build()
        ));
    }

    let mut output = String::new();
    output.push_str(&format!("target        : {list}\n"));
    let threads_label = if policy.threads == 0 {
        "auto threads".to_string()
    } else {
        format!("{} threads", policy.threads)
    };
    output.push_str(&format!(
        "backend       : {} ({threads_label})\n",
        policy.backend
    ));
    output.push_str(&format!("generated     : {}\n", generated.test()));
    output.push_str(&format!(
        "complexity    : {}\n",
        generated.test().complexity_label()
    ));
    output.push_str(&format!("generation    : {}\n", generated.report()));
    output.push_str(&format!("verification  : {report}\n"));
    if !report.is_complete() {
        for escape in report.escapes().iter().take(5) {
            output.push_str(&format!("  escape: {escape}\n"));
        }
    }
    Ok(output)
}

/// The session's observability counters as a JSON fragment: how many worker
/// threads were spawned for the whole invocation and how often the
/// target-lane artifact cache answered a query without re-enumerating.
fn session_stats(session: &Session) -> String {
    JsonObject::new()
        .number("workers_spawned", session.workers_spawned() as u64)
        .number("jobs_executed", session.jobs_executed() as u64)
        .number("cache_hits", session.cache_hits() as u64)
        .number("cached_artifacts", session.cached_artifacts() as u64)
        .number("cached_dictionaries", session.cached_dictionaries() as u64)
        .build()
}

/// Runs the suffix-only redundancy-removal pass on a catalogue test and
/// reports the shortened test — the CLI surface of
/// [`SessionExt::minimise`].
fn minimise(
    test: &str,
    list: FaultList,
    cells: Option<usize>,
    policy: ExecPolicy,
    json: bool,
) -> Result<String, CliError> {
    let test = lookup(test)?;
    let mut session = Session::new(policy);
    if let Some(cells) = cells {
        session = session.with_memory_cells(cells);
    }
    validate_scope(&session, &list)?;
    let report = session.minimise(&test, &list);

    if json {
        return Ok(format!(
            "{}\n",
            JsonObject::new()
                .raw("minimisation", report.to_json())
                .raw("session", session_stats(&session))
                .build()
        ));
    }

    let mut output = String::new();
    output.push_str(&format!("input         : {test}\n"));
    output.push_str(&format!("target        : {list}\n"));
    output.push_str(&format!("minimised     : {}\n", report.test()));
    output.push_str(&format!(
        "complexity    : {} -> {}\n",
        test.complexity_label(),
        report.test().complexity_label()
    ));
    output.push_str(&format!(
        "removed       : {} operations\n",
        report.removed_operations()
    ));
    Ok(output)
}

fn coverage(
    test: &str,
    list: FaultList,
    cells: Option<usize>,
    exhaustive: bool,
    policy: ExecPolicy,
    json: bool,
) -> Result<String, CliError> {
    let test = lookup(test)?;
    let session = scoped_session(policy, cells, exhaustive);
    // The fallible form surfaces undersized memories (e.g. `--cells 2`) as a
    // typed report error instead of a panic.
    let report = session
        .try_coverage(&test, &list)
        .map_err(|error| CliError::Simulation(error.to_string()))?;
    if json {
        return Ok(format!("{}\n", report.to_json()));
    }
    let mut output = format!("{report} [{} backend]\n", policy.backend);
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
    Ok(output)
}

/// The Monte-Carlo leg of the `coverage` subcommand: `--sample N` draws a
/// seeded campaign over the exhaustive `(placement, background)` space
/// instead of enumerating it.
#[allow(clippy::too_many_arguments)]
fn campaign(
    test: &str,
    list: FaultList,
    cells: Option<usize>,
    draws: u64,
    seed: u64,
    confidence: f64,
    policy: ExecPolicy,
    json: bool,
) -> Result<String, CliError> {
    let test = lookup(test)?;
    // Campaigns always draw from the exhaustive placement space, so the
    // session scope mirrors `--exhaustive` (both uniform backgrounds): a
    // full-space `--sample` then reproduces the exhaustive verdict exactly.
    let session = scoped_session(policy, cells, true);
    let campaign = CampaignConfig::default()
        .with_draws(draws)
        .with_seed(seed)
        .with_confidence(confidence);
    let report = session
        .try_campaign(&test, &list, &campaign)
        .map_err(|error| CliError::Simulation(error.to_string()))?;
    if json {
        return Ok(format!("{}\n", report.to_json()));
    }
    let mut output = format!("{report} [{} backend]\n", policy.backend);
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
    Ok(output)
}

/// Simulates a device carrying the given fault, observes its syndrome under
/// `test` and sweeps `list` for every candidate instance reproducing it — all
/// through one session.
#[allow(clippy::too_many_arguments)]
fn diagnose(
    test: &str,
    fault: &str,
    victim: usize,
    aggressor: Option<usize>,
    cells: usize,
    target: CoverageTarget,
    policy: ExecPolicy,
    json: bool,
) -> Result<String, CliError> {
    let test = lookup(test)?;
    let list = fault_list(target);
    let primitive = find_primitive(fault)?;
    let injected = build_injection(&primitive, victim, aggressor, cells)?;

    let session = Session::new(policy).with_memory_cells(cells);
    validate_scope(&session, &list)?;
    let syndrome = session
        .observe(&test, &injected)
        .map_err(|error| CliError::Simulation(error.to_string()))?;
    let report = session.diagnose_sweep(&test, &syndrome, &list);

    if json {
        return Ok(format!("{}\n", report.to_json()));
    }

    let mut output = String::new();
    output.push_str(&format!("device fault  : {primitive} (victim {victim}"));
    if let Some(aggressor) = aggressor {
        output.push_str(&format!(", aggressor {aggressor}"));
    }
    output.push_str(&format!(") on a {cells}-cell memory\n"));
    output.push_str(&format!("syndrome      : {syndrome}\n"));
    output.push_str(&format!("searched space: {list}\n"));
    output.push_str(&format!("diagnosis     : {}\n", report.summary()));
    for line in report.detail_lines().iter().take(15) {
        output.push_str(&format!("  candidate: {line}\n"));
    }
    if report.is_unexplained() {
        output.push_str("no single fault of the searched space explains the syndrome\n");
    }
    Ok(output)
}

/// Builds the fault injection shared by `simulate` and `diagnose`.
pub(crate) fn build_injection(
    primitive: &FaultPrimitive,
    victim: usize,
    aggressor: Option<usize>,
    cells: usize,
) -> Result<InjectedFault, CliError> {
    if primitive.is_coupling() {
        let aggressor = aggressor.ok_or_else(|| {
            CliError::Simulation("coupling primitives require --aggressor".to_string())
        })?;
        InjectedFault::coupling(primitive.clone(), aggressor, victim, cells)
    } else {
        InjectedFault::single_cell(primitive.clone(), victim, cells)
    }
    .map_err(|error| CliError::Simulation(error.to_string()))
}

pub(crate) fn find_primitive(notation: &str) -> Result<FaultPrimitive, CliError> {
    Ffm::all_fault_primitives()
        .into_iter()
        .find(|fp| fp.notation() == notation.trim())
        .ok_or_else(|| CliError::UnknownFault(notation.to_string()))
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
    output.push_str(&format!("injected fault: {primitive} (victim {victim}"));
    if let Some(aggressor) = aggressor {
        output.push_str(&format!(", aggressor {aggressor}"));
    }
    output.push_str(&format!(
        ") on a {cells}-cell memory under {}\n",
        test.name()
    ));
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::run_from_args;
    use sram_sim::BackendKind;

    /// An explicitly scoped session: `cells` cells, exhaustive placements,
    /// both uniform backgrounds.
    fn exhaustive_session(cells: usize) -> Session {
        Session::default()
            .with_memory_cells(cells)
            .with_strategy(PlacementStrategy::Exhaustive)
            .with_backgrounds(vec![InitialState::AllZero, InitialState::AllOne])
    }

    /// A `coverage --json` request for March SS over the unlinked list.
    fn coverage_request(cells: Option<usize>, exhaustive: bool, sample: Option<u64>) -> Command {
        Command::Coverage {
            test: "March SS".into(),
            list: Some(CoverageTarget::Unlinked),
            faults: FaultDomain::Ffm,
            cells,
            exhaustive,
            sample,
            seed: 7,
            confidence: 0.95,
            threads: 1,
            json: true,
        }
    }

    #[test]
    fn coverage_exhaustive_runs_on_six_cells_unless_cells_is_given() {
        let test = catalog::march_ss();
        let list = FaultList::unlinked_static();
        for (cells, scope) in [(None, 6), (Some(7), 7)] {
            let output = run(&coverage_request(cells, true, None)).unwrap();
            let expected = exhaustive_session(scope).coverage(&test, &list).to_json();
            assert_eq!(output, format!("{expected}\n"), "--cells {cells:?}");
        }
    }

    #[test]
    fn coverage_sample_runs_on_six_cells_unless_cells_is_given() {
        let test = catalog::march_ss();
        let list = FaultList::unlinked_static();
        let campaign = CampaignConfig::default().with_draws(200).with_seed(7);
        // 6 cells sample a 2,304-lane space; the serve op's 8 cells sample
        // 4,224 lanes, which `--cells 8` reproduces.
        for (cells, scope, space) in [(None, 6, 2304), (Some(8), 8, 4224)] {
            let output = run(&coverage_request(cells, false, Some(200))).unwrap();
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
    fn generate_exhaustive_verifies_on_six_cells_unless_cells_is_given() {
        let list = FaultList::list_2();
        for (cells, scope) in [(None, 6), (Some(7), 7)] {
            let output = run(&Command::Generate {
                list: Some(CoverageTarget::List2),
                faults: FaultDomain::Ffm,
                cells,
                no_removal: false,
                order: None,
                name: None,
                exhaustive: true,
                threads: 1,
                json: true,
            })
            .unwrap();
            // Generation runs on the thorough scope at `--cells` (8 by
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
        let output = run(&Command::Coverage {
            test: "March ABL1".into(),
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: None,
            exhaustive: false,
            sample: None,
            seed: 0,
            confidence: 0.95,
            threads: 1,
            json: false,
        })
        .unwrap();
        assert!(output.contains("100.0%"));
        assert!(output.contains("LF1"));
    }

    #[test]
    fn coverage_command_agrees_across_backends() {
        // The command renders the scalar reference's report exactly like the
        // packed engine's, up to the backend tag on the first line.
        let render = |policy: ExecPolicy| {
            coverage("March C-", FaultList::list_1(), None, false, policy, false).unwrap()
        };
        let scalar = render(ExecPolicy::default().with_backend(BackendKind::Scalar));
        let packed = render(ExecPolicy::default().with_threads(0));
        assert!(scalar.contains(" [scalar backend]\n"), "{scalar}");
        assert!(packed.contains(" [packed backend]\n"), "{packed}");
        let strip = |text: &str| {
            text.replacen(" [scalar backend]", "", 1)
                .replacen(" [packed backend]", "", 1)
        };
        assert_eq!(strip(&scalar), strip(&packed));
    }

    #[test]
    fn coverage_sample_runs_a_campaign() {
        let base = Command::Coverage {
            test: "March C-".into(),
            list: Some(CoverageTarget::List1),
            faults: FaultDomain::Ffm,
            cells: None,
            exhaustive: false,
            sample: Some(256),
            seed: 9,
            confidence: 0.95,
            threads: 1,
            json: true,
        };
        let output = run(&base).unwrap();
        assert!(output.starts_with("{\"report\": \"campaign\""));
        assert!(output.contains("\"seed\": 9"));
        assert!(output.contains("\"confidence\": 0.950"));
        // Identical seeds replay byte-identically on another thread count.
        let mut replay = base.clone();
        if let Command::Coverage { threads, .. } = &mut replay {
            *threads = 0;
        }
        assert_eq!(output, run(&replay).unwrap());
        // The text form carries the interval and the replay recipe.
        let mut text = base;
        if let Command::Coverage { json, .. } = &mut text {
            *json = false;
        }
        let rendered = run(&text).unwrap();
        assert!(rendered.contains("CI ["));
        assert!(rendered.contains("replay: --sample 256 --seed 9"));
    }

    #[test]
    fn generate_command_produces_a_complete_test() {
        let output = run(&Command::Generate {
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: None,
            no_removal: false,
            order: None,
            name: Some("March CLI".into()),
            exhaustive: false,
            threads: 0,
            json: false,
        })
        .unwrap();
        assert!(output.contains("March CLI"));
        assert!(output.contains("100.0%"));
        assert!(output.contains("packed"));
    }

    #[test]
    fn minimise_command_shortens_a_padded_catalogue_test() {
        // March SL is heavily redundant against the single-cell list #2.
        let output = run(&Command::Minimise {
            test: "March SL".into(),
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: None,
            threads: 1,
            json: false,
        })
        .unwrap();
        assert!(output.contains("removed"));
        assert!(output.contains("41n ->"));

        let json = run(&Command::Minimise {
            test: "March SL".into(),
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: None,
            threads: 0,
            json: true,
        })
        .unwrap();
        assert!(json.starts_with("{\"minimisation\": {\"report\": \"minimisation\""));
        assert!(json.contains("\"removed_operations\": "));
        assert!(json.contains("\"cache_hits\": "));
        assert!(run(&Command::Minimise {
            test: "no such test".into(),
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: None,
            threads: 1,
            json: false,
        })
        .is_err());
    }

    #[test]
    fn simulate_command_prints_a_syndrome() {
        let output = run(&Command::Simulate {
            test: "March SS".into(),
            fault: "<0w1;0/1/->".into(),
            victim: 5,
            aggressor: Some(2),
            cells: 8,
        })
        .unwrap();
        assert!(output.contains("failing reads"));
        assert!(run(&Command::Simulate {
            test: "March SS".into(),
            fault: "<0w1;0/1/->".into(),
            victim: 5,
            aggressor: None,
            cells: 8,
        })
        .is_err());
        assert!(run(&Command::Simulate {
            test: "March SS".into(),
            fault: "<bogus>".into(),
            victim: 5,
            aggressor: None,
            cells: 8,
        })
        .is_err());
    }

    #[test]
    fn diagnose_command_recovers_the_injected_fault() {
        let output = run(&Command::Diagnose {
            test: "March SS".into(),
            fault: "<0w1;0/1/->".into(),
            victim: 4,
            aggressor: Some(1),
            cells: 6,
            list: CoverageTarget::Unlinked,
            threads: 1,
            json: false,
        })
        .unwrap();
        assert!(output.contains("syndrome"));
        assert!(output.contains("candidates explain"));
        assert!(output.contains("candidate: "));
        assert!(run(&Command::Diagnose {
            test: "March SS".into(),
            fault: "<bogus>".into(),
            victim: 4,
            aggressor: None,
            cells: 6,
            list: CoverageTarget::Unlinked,
            threads: 1,
            json: false,
        })
        .is_err());
    }

    #[test]
    fn json_flag_emits_machine_readable_reports() {
        let coverage = run(&Command::Coverage {
            test: "March ABL1".into(),
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: None,
            exhaustive: false,
            sample: None,
            seed: 0,
            confidence: 0.95,
            threads: 1,
            json: true,
        })
        .unwrap();
        assert!(coverage.starts_with("{\"report\": \"coverage\""));
        assert!(coverage.contains("\"complete\": true"));

        let generate = run(&Command::Generate {
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: None,
            no_removal: false,
            order: None,
            name: Some("March JSON".into()),
            exhaustive: false,
            threads: 1,
            json: true,
        })
        .unwrap();
        assert!(generate.starts_with("{\"generation\": {\"report\": \"generation\""));
        assert!(generate.contains("\"verification\": {\"report\": \"coverage\""));
        assert!(generate.contains("March JSON"));

        let diagnose = run(&Command::Diagnose {
            test: "March SS".into(),
            fault: "<0w1;0/1/->".into(),
            victim: 4,
            aggressor: Some(1),
            cells: 6,
            list: CoverageTarget::Unlinked,
            threads: 1,
            json: true,
        })
        .unwrap();
        assert!(diagnose.starts_with("{\"report\": \"diagnosis\""));
        assert!(diagnose.contains("\"candidates\": ["));
    }

    #[test]
    fn coverage_over_the_decoder_domain() {
        let output = run(&Command::Coverage {
            test: "March SS".into(),
            list: None,
            faults: FaultDomain::Af,
            cells: Some(64),
            exhaustive: false,
            sample: None,
            seed: 0,
            confidence: 0.95,
            threads: 1,
            json: false,
        })
        .unwrap();
        assert!(output.contains("Address-decoder faults"));
        assert!(output.contains("100.0%"));

        // The combined domain extends the list with the decoder classes.
        let combined = run(&Command::Coverage {
            test: "March SS".into(),
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::All,
            cells: None,
            exhaustive: false,
            sample: None,
            seed: 0,
            confidence: 0.95,
            threads: 1,
            json: false,
        })
        .unwrap();
        assert!(combined.contains("+ AF"));
        assert!(combined.contains("37"));
    }

    #[test]
    fn undersized_memories_surface_a_typed_error() {
        let error = run(&Command::Coverage {
            test: "March SS".into(),
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: Some(2),
            exhaustive: false,
            sample: None,
            seed: 0,
            confidence: 0.95,
            threads: 1,
            json: false,
        })
        .unwrap_err();
        assert!(matches!(error, CliError::Simulation(_)));
        assert!(error.to_string().contains("too small"));

        // generate and minimise report the same typed error, not a panic.
        let error = run(&Command::Generate {
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: Some(2),
            no_removal: false,
            order: None,
            name: None,
            exhaustive: false,
            threads: 1,
            json: false,
        })
        .unwrap_err();
        assert!(matches!(error, CliError::Simulation(_)));
        assert!(error.to_string().contains("too small"));

        let error = run(&Command::Minimise {
            test: "March SL".into(),
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
            cells: Some(2),
            threads: 1,
            json: false,
        })
        .unwrap_err();
        assert!(matches!(error, CliError::Simulation(_)));
        assert!(error.to_string().contains("too small"));

        let error = run(&Command::Diagnose {
            test: "MATS+".into(),
            fault: "<1/0/->".into(),
            victim: 1,
            aggressor: None,
            cells: 2,
            list: CoverageTarget::List2,
            threads: 1,
            json: false,
        })
        .unwrap_err();
        assert!(matches!(error, CliError::Simulation(_)));
        assert!(error.to_string().contains("too small"));
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
            warm: true,
            list: Some(CoverageTarget::List2),
            faults: FaultDomain::Ffm,
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
            warm: false,
            list: None,
            faults: FaultDomain::Ffm,
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
