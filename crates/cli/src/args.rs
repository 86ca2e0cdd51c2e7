//! Hand-rolled argument parsing for the `march-codex` binary.

use std::error::Error;
use std::fmt;

use march_test::AddressOrder;

/// Errors produced while parsing command-line arguments.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub(crate) String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseArgsError {}

/// Which fault list a coverage or generation command targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CoverageTarget {
    /// The paper's Fault List #1 (single-, two- and three-cell static linked
    /// faults).
    List1,
    /// The paper's Fault List #2 (single-cell static linked faults).
    List2,
    /// The 48 unlinked realistic static fault primitives.
    Unlinked,
}

impl CoverageTarget {
    pub(crate) fn parse(text: &str) -> Result<CoverageTarget, ParseArgsError> {
        match text {
            "1" | "list1" | "#1" => Ok(CoverageTarget::List1),
            "2" | "list2" | "#2" => Ok(CoverageTarget::List2),
            "unlinked" | "simple" | "static" => Ok(CoverageTarget::Unlinked),
            other => Err(ParseArgsError(format!(
                "unknown fault list `{other}` (expected 1, 2 or unlinked)"
            ))),
        }
    }

    /// A human-readable label for reports.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            CoverageTarget::List1 => "Fault List #1",
            CoverageTarget::List2 => "Fault List #2",
            CoverageTarget::Unlinked => "unlinked static faults",
        }
    }
}

/// Which fault domain a coverage/generation/minimisation command targets:
/// the cell-array FFM lists, the address-decoder fault classes, or both.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum FaultDomain {
    /// Cell-array faults only (the selected `--list`). The default.
    #[default]
    Ffm,
    /// Address-decoder faults only (`--list` is not required).
    Af,
    /// The selected `--list` extended with the address-decoder fault classes.
    All,
}

impl FaultDomain {
    pub(crate) fn parse(text: &str) -> Result<FaultDomain, ParseArgsError> {
        match text.trim().to_ascii_lowercase().as_str() {
            "ffm" => Ok(FaultDomain::Ffm),
            "af" => Ok(FaultDomain::Af),
            "all" => Ok(FaultDomain::All),
            other => Err(ParseArgsError(format!(
                "unknown fault domain `{other}` (expected ffm, af or all)"
            ))),
        }
    }
}

/// One parsed `march-codex` invocation.
///
/// (`PartialEq` only: `Coverage::confidence` is an `f64`.)
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `catalog` — list the catalogue of published march tests.
    Catalog,
    /// `show <name>` — print one march test.
    Show {
        /// The (case-insensitive) catalogue name.
        name: String,
    },
    /// `generate [--list <1|2>] [--faults ffm|af|all] [--cells N] [--no-removal]
    /// [--order up|down] [--name NAME] [--exhaustive] [--threads N] [--json]`.
    Generate {
        /// The target fault list (required unless `--faults af`).
        list: Option<CoverageTarget>,
        /// The fault domain: cell-array FFMs, address-decoder faults, or both.
        faults: FaultDomain,
        /// Memory size in cells (`None` = the scope default).
        cells: Option<usize>,
        /// Disable the redundancy-removal pass.
        no_removal: bool,
        /// Restrict every element to a single address order.
        order: Option<AddressOrder>,
        /// Name of the generated test.
        name: Option<String>,
        /// Verify with exhaustive placements after generation.
        exhaustive: bool,
        /// Worker threads for scoring/verification (0 = auto).
        threads: usize,
        /// Emit the machine-readable `Report` JSON instead of the text form.
        json: bool,
    },
    /// `coverage [--test <name>] [--list <1|2|unlinked>] [--faults ffm|af|all]
    /// [--cells N] [--exhaustive] [--sample N --seed S --confidence C]
    /// [--threads N] [--json]`.
    ///
    /// Without an explicit `--threads`, memories larger than 64 cells fan out
    /// over every available core (`--threads 0`): large-memory coverage is
    /// exactly the workload the packed + threaded path exists for.
    ///
    /// `--sample N` switches from enumeration to a seeded Monte-Carlo
    /// campaign over the exhaustive placement space; the report carries a
    /// Wilson-score confidence interval instead of an exact verdict.
    Coverage {
        /// Catalogue name of the march test to evaluate (default: March SS).
        test: String,
        /// The target fault list (required unless `--faults af`).
        list: Option<CoverageTarget>,
        /// The fault domain: cell-array FFMs, address-decoder faults, or both.
        faults: FaultDomain,
        /// Memory size in cells (`None` = the scope default).
        cells: Option<usize>,
        /// Use exhaustive cell placements.
        exhaustive: bool,
        /// Monte-Carlo draw count: `Some(n)` runs a seeded campaign over the
        /// exhaustive `(placement, background)` space instead of enumerating
        /// it. `None` (no `--sample`) keeps the enumeration path.
        sample: Option<u64>,
        /// Campaign PRNG seed; identical seeds replay identical draws.
        seed: u64,
        /// Confidence level of the campaign's Wilson-score interval,
        /// strictly inside `(0, 1)`.
        confidence: f64,
        /// Worker threads the fault targets fan out over (0 = auto).
        threads: usize,
        /// Emit the machine-readable `Report` JSON instead of the text form.
        json: bool,
    },
    /// `minimise --test <name> --list <1|2|unlinked> [--faults ffm|af|all]
    /// [--cells N] [--threads N] [--json]`.
    ///
    /// Runs the suffix-only redundancy-removal pass on a catalogue march test:
    /// every operation whose removal keeps the fault list fully covered is
    /// deleted, re-verifying only the suffix after each edit from per-element
    /// simulation snapshots.
    Minimise {
        /// Catalogue name of the march test to shorten.
        test: String,
        /// The fault list whose coverage must be preserved (required unless
        /// `--faults af`).
        list: Option<CoverageTarget>,
        /// The fault domain: cell-array FFMs, address-decoder faults, or both.
        faults: FaultDomain,
        /// Memory size in cells (`None` = the scope default).
        cells: Option<usize>,
        /// Worker threads the `(target × suffix)` trials shard over (0 = auto).
        threads: usize,
        /// Emit the machine-readable `Report` JSON instead of the text form.
        json: bool,
    },
    /// `diagnose --test <name> --fault <notation> --victim <cell> --list <1|2|unlinked>
    /// [--aggressor <cell>] [--cells <n>] [--threads N] [--json]`.
    ///
    /// Simulates a device carrying the given fault, observes its failure
    /// syndrome under the march test, then sweeps the fault list for every
    /// candidate instance whose simulated syndrome matches.
    Diagnose {
        /// Catalogue name of the march test the syndrome is observed under.
        test: String,
        /// The `<S/F/R>` notation of the fault primitive injected into the
        /// simulated device.
        fault: String,
        /// The victim cell address.
        victim: usize,
        /// The aggressor cell address, for coupling primitives.
        aggressor: Option<usize>,
        /// Memory size in cells.
        cells: usize,
        /// The fault space searched for matching candidates.
        list: CoverageTarget,
        /// Worker threads of the session (0 = auto).
        threads: usize,
        /// Emit the machine-readable `Report` JSON instead of the text form.
        json: bool,
    },
    /// `simulate --test <name> --fault <notation> --victim <cell> [--aggressor <cell>]
    /// [--cells <n>]`.
    Simulate {
        /// Catalogue name of the march test to run.
        test: String,
        /// The `<S/F/R>` notation of the fault primitive to inject.
        fault: String,
        /// The victim cell address.
        victim: usize,
        /// The aggressor cell address, for coupling primitives.
        aggressor: Option<usize>,
        /// Memory size in cells.
        cells: usize,
    },
    /// `serve [--threads N] [--max-in-flight N] [--timeout-ms N]
    /// [--read-timeout-ms N] [--snapshot-dir DIR] [--tcp ADDR]`.
    ///
    /// Runs the resident service loop: newline-delimited JSON requests
    /// (coverage / generate / minimise / diagnose / stats / shutdown) from
    /// stdin — or from every client of a TCP listener under `--tcp` —
    /// multiplexed over one shared engine whose artifact store and worker
    /// pool stay warm across requests and clients.
    Serve {
        /// Worker threads of the resident pool (0 = auto; the default, since
        /// a server wants every core).
        threads: usize,
        /// Maximum concurrently executing requests; further requests apply
        /// backpressure to the client.
        max_in_flight: usize,
        /// Per-request deadline in milliseconds before a typed `timeout`
        /// error is answered in its slot.
        timeout_ms: u64,
        /// Per-connection idle read timeout in milliseconds; an idle TCP
        /// client is answered with a typed `timeout` error and closed.
        /// `None` waits indefinitely.
        read_timeout_ms: Option<u64>,
        /// Crash-safe snapshot directory: cached target-lane enumerations and
        /// fault dictionaries persist here across restarts. `None` keeps the
        /// cache memory-only.
        snapshot_dir: Option<String>,
        /// TCP listen address (e.g. `127.0.0.1:7777`; port 0 picks a free
        /// one). Stdin/stdout when absent.
        tcp: Option<String>,
    },
    /// `snapshot --dir DIR [--warm --list <1|2|unlinked> [--faults ffm|af|all]
    /// [--test <name>] [--cells N]]`.
    ///
    /// Inspects a snapshot directory (file names, sizes, kinds and
    /// integrity), and with `--warm` pre-populates it: enumerates the target
    /// lanes of the selected fault list (and, with `--test`, builds that
    /// test's fault dictionary) so a later `serve --snapshot-dir DIR` starts
    /// warm.
    Snapshot {
        /// The snapshot directory to inspect or pre-warm.
        dir: String,
        /// Pre-populate the directory instead of only inspecting it.
        warm: bool,
        /// The fault list to warm (required with `--warm` unless
        /// `--faults af`).
        list: Option<CoverageTarget>,
        /// The fault domain of the warmed list.
        faults: FaultDomain,
        /// Also build and persist this march test's fault dictionary.
        test: Option<String>,
        /// Memory size in cells for the warmed artifacts (`None` = the scope
        /// default).
        cells: Option<usize>,
    },
    /// `help` — print the usage text.
    Help,
}

impl Command {
    /// Parses the arguments following the program name.
    ///
    /// # Errors
    ///
    /// Returns [`ParseArgsError`] describing the first offending argument.
    pub fn parse(args: impl Iterator<Item = String>) -> Result<Command, ParseArgsError> {
        let mut args = args.peekable();
        let Some(subcommand) = args.next() else {
            return Ok(Command::Help);
        };
        match subcommand.as_str() {
            "help" | "--help" | "-h" => Ok(Command::Help),
            "catalog" => Ok(Command::Catalog),
            "show" => {
                let name: Vec<String> = args.collect();
                if name.is_empty() {
                    return Err(ParseArgsError("show requires a march test name".into()));
                }
                Ok(Command::Show {
                    name: name.join(" "),
                })
            }
            "generate" => {
                let mut list = None;
                let mut faults = FaultDomain::Ffm;
                let mut cells = None;
                let mut no_removal = false;
                let mut order = None;
                let mut name = None;
                let mut exhaustive = false;
                let mut threads = None;
                let mut json = false;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "--list" => {
                            list = Some(CoverageTarget::parse(&required(&mut args, "--list")?)?)
                        }
                        "--faults" => {
                            faults = FaultDomain::parse(&required(&mut args, "--faults")?)?
                        }
                        "--cells" => cells = Some(parse_number(&required(&mut args, "--cells")?)?),
                        "--no-removal" => no_removal = true,
                        "--exhaustive" => exhaustive = true,
                        "--order" => {
                            let value = required(&mut args, "--order")?;
                            order = Some(value.parse::<AddressOrder>().map_err(|_| {
                                ParseArgsError(format!("unknown address order `{value}`"))
                            })?);
                        }
                        "--name" => name = Some(required(&mut args, "--name")?),
                        "--threads" => {
                            threads = Some(parse_threads(&required(&mut args, "--threads")?)?);
                        }
                        "--json" => json = true,
                        other => return Err(unknown_flag(other)),
                    }
                }
                require_list(list, faults, "generate")?;
                Ok(Command::Generate {
                    list,
                    faults,
                    cells,
                    no_removal,
                    order,
                    name,
                    exhaustive,
                    threads: resolve_threads(threads, cells),
                    json,
                })
            }
            "coverage" => {
                let mut test = None;
                let mut list = None;
                let mut faults = FaultDomain::Ffm;
                let mut cells = None;
                let mut exhaustive = false;
                let mut sample = None;
                let mut seed = None;
                let mut confidence = None;
                let mut threads = None;
                let mut json = false;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "--test" => test = Some(required(&mut args, "--test")?),
                        "--list" => {
                            list = Some(CoverageTarget::parse(&required(&mut args, "--list")?)?)
                        }
                        "--faults" => {
                            faults = FaultDomain::parse(&required(&mut args, "--faults")?)?
                        }
                        "--cells" => cells = Some(parse_number(&required(&mut args, "--cells")?)?),
                        "--exhaustive" => exhaustive = true,
                        "--sample" => {
                            sample = Some(parse_sample(&required(&mut args, "--sample")?)?)
                        }
                        "--seed" => seed = Some(parse_seed(&required(&mut args, "--seed")?)?),
                        "--confidence" => {
                            confidence =
                                Some(parse_confidence(&required(&mut args, "--confidence")?)?);
                        }
                        "--threads" => {
                            threads = Some(parse_threads(&required(&mut args, "--threads")?)?);
                        }
                        "--json" => json = true,
                        other => return Err(unknown_flag(other)),
                    }
                }
                require_list(list, faults, "coverage")?;
                if sample.is_some() && exhaustive {
                    return Err(ParseArgsError(
                        "--sample draws from the exhaustive space at random; combining it \
                         with --exhaustive is ambiguous — pick one"
                            .into(),
                    ));
                }
                if sample.is_none() {
                    if seed.is_some() {
                        return Err(ParseArgsError(
                            "--seed only applies to Monte-Carlo campaigns; add --sample N".into(),
                        ));
                    }
                    if confidence.is_some() {
                        return Err(ParseArgsError(
                            "--confidence only applies to Monte-Carlo campaigns; add --sample N"
                                .into(),
                        ));
                    }
                }
                Ok(Command::Coverage {
                    // March SS is the canonical thorough catalogue test; it is
                    // the default so `coverage --faults af --cells 1024` works
                    // out of the box.
                    test: test.unwrap_or_else(|| "March SS".to_string()),
                    list,
                    faults,
                    cells,
                    exhaustive,
                    sample,
                    seed: seed.unwrap_or(0),
                    confidence: confidence.unwrap_or(0.95),
                    threads: resolve_threads(threads, cells),
                    json,
                })
            }
            "minimise" | "minimize" => {
                let mut test = None;
                let mut list = None;
                let mut faults = FaultDomain::Ffm;
                let mut cells = None;
                let mut threads = None;
                let mut json = false;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "--test" => test = Some(required(&mut args, "--test")?),
                        "--list" => {
                            list = Some(CoverageTarget::parse(&required(&mut args, "--list")?)?)
                        }
                        "--faults" => {
                            faults = FaultDomain::parse(&required(&mut args, "--faults")?)?
                        }
                        "--cells" => cells = Some(parse_number(&required(&mut args, "--cells")?)?),
                        "--threads" => {
                            threads = Some(parse_threads(&required(&mut args, "--threads")?)?);
                        }
                        "--json" => json = true,
                        other => return Err(unknown_flag(other)),
                    }
                }
                require_list(list, faults, "minimise")?;
                Ok(Command::Minimise {
                    test: test.ok_or_else(|| ParseArgsError("minimise requires --test".into()))?,
                    list,
                    faults,
                    cells,
                    threads: resolve_threads(threads, cells),
                    json,
                })
            }
            "diagnose" => {
                let mut test = None;
                let mut fault = None;
                let mut victim = None;
                let mut aggressor = None;
                let mut cells = 8usize;
                let mut list = None;
                let mut threads = None;
                let mut json = false;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "--test" => test = Some(required(&mut args, "--test")?),
                        "--fault" => fault = Some(required(&mut args, "--fault")?),
                        "--victim" => {
                            victim = Some(parse_number(&required(&mut args, "--victim")?)?)
                        }
                        "--aggressor" => {
                            aggressor = Some(parse_number(&required(&mut args, "--aggressor")?)?);
                        }
                        "--cells" => cells = parse_number(&required(&mut args, "--cells")?)?,
                        "--list" => {
                            list = Some(CoverageTarget::parse(&required(&mut args, "--list")?)?)
                        }
                        "--threads" => {
                            threads = Some(parse_threads(&required(&mut args, "--threads")?)?);
                        }
                        "--json" => json = true,
                        other => return Err(unknown_flag(other)),
                    }
                }
                Ok(Command::Diagnose {
                    test: test.ok_or_else(|| ParseArgsError("diagnose requires --test".into()))?,
                    fault: fault
                        .ok_or_else(|| ParseArgsError("diagnose requires --fault".into()))?,
                    victim: victim
                        .ok_or_else(|| ParseArgsError("diagnose requires --victim".into()))?,
                    aggressor,
                    cells,
                    list: list.ok_or_else(|| ParseArgsError("diagnose requires --list".into()))?,
                    threads: resolve_threads(threads, Some(cells)),
                    json,
                })
            }
            "simulate" => {
                let mut test = None;
                let mut fault = None;
                let mut victim = None;
                let mut aggressor = None;
                let mut cells = 8usize;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "--test" => test = Some(required(&mut args, "--test")?),
                        "--fault" => fault = Some(required(&mut args, "--fault")?),
                        "--victim" => {
                            victim = Some(parse_number(&required(&mut args, "--victim")?)?)
                        }
                        "--aggressor" => {
                            aggressor = Some(parse_number(&required(&mut args, "--aggressor")?)?);
                        }
                        "--cells" => cells = parse_number(&required(&mut args, "--cells")?)?,
                        other => return Err(unknown_flag(other)),
                    }
                }
                Ok(Command::Simulate {
                    test: test.ok_or_else(|| ParseArgsError("simulate requires --test".into()))?,
                    fault: fault
                        .ok_or_else(|| ParseArgsError("simulate requires --fault".into()))?,
                    victim: victim
                        .ok_or_else(|| ParseArgsError("simulate requires --victim".into()))?,
                    aggressor,
                    cells,
                })
            }
            "serve" => {
                let mut threads = None;
                let mut max_in_flight = 4usize;
                let mut timeout_ms = 30_000u64;
                let mut read_timeout_ms = None;
                let mut snapshot_dir = None;
                let mut tcp = None;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "--threads" => {
                            threads = Some(parse_threads(&required(&mut args, "--threads")?)?);
                        }
                        "--max-in-flight" => {
                            let value = required(&mut args, "--max-in-flight")?;
                            max_in_flight = value.parse::<usize>().ok().filter(|n| *n > 0).ok_or_else(|| {
                                ParseArgsError(format!(
                                    "`{value}` is not a valid in-flight limit (need a positive integer)"
                                ))
                            })?;
                        }
                        "--timeout-ms" => {
                            let value = required(&mut args, "--timeout-ms")?;
                            timeout_ms = value.parse::<u64>().map_err(|_| {
                                ParseArgsError(format!(
                                    "`{value}` is not a valid timeout in milliseconds"
                                ))
                            })?;
                        }
                        "--read-timeout-ms" => {
                            let value = required(&mut args, "--read-timeout-ms")?;
                            read_timeout_ms =
                                Some(value.parse::<u64>().ok().filter(|n| *n > 0).ok_or_else(
                                    || {
                                        ParseArgsError(format!(
                                            "`{value}` is not a valid read timeout in milliseconds \
                                             (need a positive integer)"
                                        ))
                                    },
                                )?);
                        }
                        "--snapshot-dir" => {
                            snapshot_dir = Some(required(&mut args, "--snapshot-dir")?);
                        }
                        "--tcp" => tcp = Some(required(&mut args, "--tcp")?),
                        other => return Err(unknown_flag(other)),
                    }
                }
                Ok(Command::Serve {
                    // A resident service defaults to every core, unlike the
                    // serial one-shot commands.
                    threads: threads.unwrap_or(0),
                    max_in_flight,
                    timeout_ms,
                    read_timeout_ms,
                    snapshot_dir,
                    tcp,
                })
            }
            "snapshot" => {
                let mut dir = None;
                let mut warm = false;
                let mut list = None;
                let mut faults = FaultDomain::Ffm;
                let mut test = None;
                let mut cells = None;
                while let Some(arg) = args.next() {
                    match arg.as_str() {
                        "--dir" => dir = Some(required(&mut args, "--dir")?),
                        "--warm" => warm = true,
                        "--list" => {
                            list = Some(CoverageTarget::parse(&required(&mut args, "--list")?)?)
                        }
                        "--faults" => {
                            faults = FaultDomain::parse(&required(&mut args, "--faults")?)?
                        }
                        "--test" => test = Some(required(&mut args, "--test")?),
                        "--cells" => cells = Some(parse_number(&required(&mut args, "--cells")?)?),
                        other => return Err(unknown_flag(other)),
                    }
                }
                if warm {
                    require_list(list, faults, "snapshot --warm")?;
                } else if list.is_some() || test.is_some() || cells.is_some() {
                    return Err(ParseArgsError(
                        "snapshot only uses --list/--test/--cells together with --warm".into(),
                    ));
                }
                Ok(Command::Snapshot {
                    dir: dir.ok_or_else(|| ParseArgsError("snapshot requires --dir".into()))?,
                    warm,
                    list,
                    faults,
                    test,
                    cells,
                })
            }
            other => Err(ParseArgsError(format!(
                "unknown sub-command `{other}` (try `march-codex help`)"
            ))),
        }
    }
}

fn required(
    args: &mut std::iter::Peekable<impl Iterator<Item = String>>,
    flag: &str,
) -> Result<String, ParseArgsError> {
    args.next()
        .ok_or_else(|| ParseArgsError(format!("{flag} requires a value")))
}

/// `--list` is mandatory unless the fault domain is decoder-only — and
/// conversely the decoder-only domain rejects an explicit `--list`, so a
/// cell-array list can never be silently dropped from the run.
pub(crate) fn require_list(
    list: Option<CoverageTarget>,
    faults: FaultDomain,
    command: &str,
) -> Result<(), ParseArgsError> {
    match faults {
        FaultDomain::Af if list.is_some() => Err(ParseArgsError(format!(
            "{command} --faults af targets only the decoder classes and would ignore \
             --list; drop --list or use --faults all to combine the two domains"
        ))),
        FaultDomain::Ffm | FaultDomain::All if list.is_none() => Err(ParseArgsError(format!(
            "{command} requires --list (or --faults af for the decoder-only domain)"
        ))),
        _ => Ok(()),
    }
}

/// Resolves the worker-thread count: an explicit `--threads` wins; otherwise
/// memories beyond 64 cells default to the available parallelism and small
/// memories stay serial. The diagnosis sweep still simulates every fault
/// instance on the whole memory, sharded over the pool, so its cost grows
/// with the cell count; coverage, campaigns, generation and minimisation
/// simulate projected classes, whose cost does not.
fn resolve_threads(threads: Option<usize>, cells: Option<usize>) -> usize {
    match (threads, cells) {
        (Some(threads), _) => threads,
        (None, Some(cells)) if cells > 64 => 0,
        (None, _) => 1,
    }
}

fn parse_number(text: &str) -> Result<usize, ParseArgsError> {
    text.parse::<usize>()
        .map_err(|_| ParseArgsError(format!("`{text}` is not a valid cell count/address")))
}

/// Parses a campaign draw count. Scientific notation is accepted
/// (`--sample 1e6`), but the value must be a finite positive integer no
/// larger than 2^53 — the largest f64-exact integer — so a notation like
/// `1e999` (infinite) or `2.5e3.1` can never silently truncate through an
/// `as` cast.
fn parse_sample(text: &str) -> Result<u64, ParseArgsError> {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    let value = text.trim().parse::<f64>().map_err(|_| {
        ParseArgsError(format!(
            "`{text}` is not a valid sample count (e.g. 100000 or 1e6)"
        ))
    })?;
    if !value.is_finite() || value < 1.0 || value.fract() != 0.0 || value > MAX_EXACT {
        return Err(ParseArgsError(format!(
            "`{text}` is not a valid sample count (a positive integer up to 2^53; \
             scientific notation like 1e6 is fine)"
        )));
    }
    // lint: allow(cast) — guarded above: finite, integral, within 2^53.
    Ok(value as u64)
}

fn parse_seed(text: &str) -> Result<u64, ParseArgsError> {
    text.trim()
        .parse::<u64>()
        .map_err(|_| ParseArgsError(format!("`{text}` is not a valid campaign seed (a u64)")))
}

fn parse_confidence(text: &str) -> Result<f64, ParseArgsError> {
    let value = text
        .trim()
        .parse::<f64>()
        .map_err(|_| ParseArgsError(format!("`{text}` is not a valid confidence level")))?;
    if !value.is_finite() || value <= 0.0 || value >= 1.0 {
        return Err(ParseArgsError(format!(
            "confidence levels are strictly between 0 and 1 (e.g. 0.95), got `{text}`"
        )));
    }
    Ok(value)
}

fn parse_threads(text: &str) -> Result<usize, ParseArgsError> {
    text.parse::<usize>().map_err(|_| {
        ParseArgsError(format!(
            "`{text}` is not a valid thread count (use 0 for auto)"
        ))
    })
}

fn unknown_flag(flag: &str) -> ParseArgsError {
    ParseArgsError(format!("unknown flag `{flag}`"))
}

/// The usage text printed by `march-codex help`.
#[must_use]
pub fn usage() -> String {
    // lint: allow(json) — help text showing an example serve request line;
    // not report output.
    "march-codex — automatic march test generation for static linked faults in SRAMs\n\
     \n\
     USAGE:\n\
     \x20 march-codex catalog\n\
     \x20 march-codex show <name>\n\
     \x20 march-codex generate [--list <1|2>] [--faults ffm|af|all] [--cells N] [--no-removal]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--order up|down] [--name NAME] [--exhaustive] [--threads N] [--json]\n\
     \x20 march-codex coverage [--test <name>] [--list <1|2|unlinked>] [--faults ffm|af|all]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--cells N] [--exhaustive] [--sample N [--seed S] [--confidence C]]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--threads N] [--json]\n\
     \x20 march-codex minimise --test <name> [--list <1|2|unlinked>] [--faults ffm|af|all]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--cells N] [--threads N] [--json]\n\
     \x20 march-codex diagnose --test <name> --fault <notation> --victim <cell> --list <1|2|unlinked>\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--aggressor <cell>] [--cells <n>] [--threads N] [--json]\n\
     \x20 march-codex simulate --test <name> --fault <notation> --victim <cell> [--aggressor <cell>] [--cells <n>]\n\
     \x20 march-codex serve [--threads N] [--max-in-flight N] [--timeout-ms N] [--read-timeout-ms N]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--snapshot-dir DIR] [--tcp ADDR]\n\
     \x20 march-codex snapshot --dir DIR [--warm --list <1|2|unlinked> [--faults ffm|af|all]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--test <name>] [--cells N]]\n\
     \x20 march-codex help\n\
     \n\
     Every invocation builds one sram_sim::Session, whose one execution option is\n\
     --threads; --json emits the session report's machine-readable form.\n\
     --faults selects the fault domain: ffm (the cell-array --list, the default), af\n\
     (the four address-decoder classes; --list must be omitted) or all (--list plus\n\
     the decoder classes). --cells sets the simulated memory size; above 64 cells\n\
     --threads defaults to the available parallelism. Reports are byte-identical at\n\
     every thread count. coverage --test defaults to March SS.\n\
     coverage --sample N replaces enumeration with a seeded Monte-Carlo campaign\n\
     over the exhaustive (placement, background) space: N draws (1e6 notation is\n\
     accepted), a Wilson-score confidence interval at --confidence (default 0.95),\n\
     and a bounded escape trace. Identical --seed values replay identical draws at\n\
     every thread count; draw counts covering the whole space degenerate to\n\
     sampling without replacement and match --exhaustive verdicts exactly.\n\
     serve keeps one engine resident and answers newline-delimited JSON requests\n\
     ({\"op\": \"coverage\"|\"generate\"|\"minimise\"|\"diagnose\"|\"stats\"|\"shutdown\", ...}) on\n\
     stdin or a --tcp socket; all clients share its artifact store and worker pool,\n\
     at most --max-in-flight requests execute concurrently (excess requests see\n\
     backpressure), and requests beyond --timeout-ms answer a typed timeout error.\n\
     --snapshot-dir persists the cache crash-safely across restarts (checksummed,\n\
     written atomically; corrupt files are quarantined and rebuilt in memory);\n\
     --read-timeout-ms bounds idle connections; a shutdown request drains the\n\
     service gracefully. snapshot inspects such a directory, or pre-warms it with\n\
     --warm so the next serve starts hot.\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Command, ParseArgsError> {
        Command::parse(args.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_catalog_show_and_help() {
        assert_eq!(parse(&["catalog"]).unwrap(), Command::Catalog);
        assert_eq!(
            parse(&["show", "March", "SL"]).unwrap(),
            Command::Show {
                name: "March SL".into()
            }
        );
        assert_eq!(parse(&["help"]).unwrap(), Command::Help);
        assert_eq!(parse(&[]).unwrap(), Command::Help);
        assert!(parse(&["show"]).is_err());
        assert!(parse(&["frobnicate"]).is_err());
    }

    #[test]
    fn parses_generate() {
        let command = parse(&[
            "generate",
            "--list",
            "1",
            "--no-removal",
            "--order",
            "up",
            "--name",
            "March X",
        ])
        .unwrap();
        assert_eq!(
            command,
            Command::Generate {
                list: Some(CoverageTarget::List1),
                faults: FaultDomain::Ffm,
                cells: None,
                no_removal: true,
                order: Some(AddressOrder::Ascending),
                name: Some("March X".into()),
                exhaustive: false,
                threads: 1,
                json: false,
            }
        );
        assert!(parse(&["generate"]).is_err());
        assert!(parse(&["generate", "--list", "7"]).is_err());
        assert!(parse(&["generate", "--list", "1", "--order", "sideways"]).is_err());
    }

    #[test]
    fn parses_minimise() {
        let command = parse(&[
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
        assert_eq!(
            command,
            Command::Minimise {
                test: "March SL".into(),
                list: Some(CoverageTarget::List2),
                faults: FaultDomain::Ffm,
                cells: None,
                threads: 0,
                json: true,
            }
        );
        // The American spelling is accepted too.
        assert_eq!(
            parse(&["minimize", "--test", "MATS+", "--list", "unlinked"]).unwrap(),
            Command::Minimise {
                test: "MATS+".into(),
                list: Some(CoverageTarget::Unlinked),
                faults: FaultDomain::Ffm,
                cells: None,
                threads: 1,
                json: false,
            }
        );
        assert!(parse(&["minimise", "--test", "March SL"]).is_err());
        assert!(parse(&["minimise", "--list", "2"]).is_err());
        assert!(parse(&["minimise", "--test", "x", "--list", "2", "--bogus"]).is_err());
    }

    #[test]
    fn parses_backend_threads_and_batch() {
        assert!(matches!(
            parse(&["generate", "--list", "2", "--threads", "4"]).unwrap(),
            Command::Generate { threads: 4, .. }
        ));
        assert!(matches!(
            parse(&[
                "coverage",
                "--test",
                "March SL",
                "--list",
                "1",
                "--threads",
                "0"
            ])
            .unwrap(),
            Command::Coverage { threads: 0, .. }
        ));
        assert!(parse(&["generate", "--list", "2", "--threads", "many"]).is_err());
        // The candidate-batch, backend and lane width knobs are gone from
        // every session-building sub-command: each is an unknown flag, so a
        // script passing one fails instead of running.
        let commands: [&[&str]; 5] = [
            &["generate", "--list", "2"],
            &["coverage", "--test", "March SL", "--list", "1"],
            &["minimise", "--test", "March SL", "--list", "2"],
            &[
                "diagnose",
                "--test",
                "March SS",
                "--fault",
                "<0w1;0/1/->",
                "--victim",
                "4",
                "--list",
                "unlinked",
            ],
            &["serve"],
        ];
        for command in commands {
            assert!(parse(command).is_ok(), "{command:?}");
            for (flag, value) in [
                ("--batch", "16"),
                ("--backend", "packed"),
                ("--lane-width", "256"),
            ] {
                let argv = [command, &[flag, value]].concat();
                assert_eq!(
                    parse(&argv),
                    Err(ParseArgsError(format!("unknown flag `{flag}`"))),
                    "{argv:?}"
                );
            }
        }
    }

    #[test]
    fn parses_coverage_and_simulate() {
        let coverage = parse(&[
            "coverage",
            "--test",
            "March SL",
            "--list",
            "unlinked",
            "--exhaustive",
        ])
        .unwrap();
        assert_eq!(
            coverage,
            Command::Coverage {
                test: "March SL".into(),
                list: Some(CoverageTarget::Unlinked),
                faults: FaultDomain::Ffm,
                cells: None,
                exhaustive: true,
                sample: None,
                seed: 0,
                confidence: 0.95,
                threads: 1,
                json: false,
            }
        );
        let simulate = parse(&[
            "simulate",
            "--test",
            "March SS",
            "--fault",
            "<0w1;0/1/->",
            "--victim",
            "5",
            "--aggressor",
            "2",
            "--cells",
            "16",
        ])
        .unwrap();
        assert_eq!(
            simulate,
            Command::Simulate {
                test: "March SS".into(),
                fault: "<0w1;0/1/->".into(),
                victim: 5,
                aggressor: Some(2),
                cells: 16,
            }
        );
        assert!(parse(&["simulate", "--test", "March SS"]).is_err());
        // coverage without --list still errors in the default ffm domain...
        assert!(parse(&["coverage", "--test", "March SS"]).is_err());
        // ...and without --test defaults to March SS in the af domain.
        assert!(matches!(
            parse(&["coverage", "--faults", "af"]).unwrap(),
            Command::Coverage { test, .. } if test == "March SS"
        ));
        assert!(parse(&["simulate", "--test", "x", "--fault", "y", "--victim", "abc"]).is_err());
    }

    #[test]
    fn parses_diagnose_and_json_flags() {
        let diagnose = parse(&[
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
            "--cells",
            "6",
            "--json",
        ])
        .unwrap();
        assert_eq!(
            diagnose,
            Command::Diagnose {
                test: "March SS".into(),
                fault: "<0w1;0/1/->".into(),
                victim: 4,
                aggressor: Some(1),
                cells: 6,
                list: CoverageTarget::Unlinked,
                threads: 1,
                json: true,
            }
        );
        assert!(parse(&["diagnose", "--test", "March SS"]).is_err());
        assert!(parse(&["diagnose", "--fault", "x", "--victim", "1", "--list", "2"]).is_err());
        assert!(matches!(
            parse(&["coverage", "--test", "x", "--list", "1", "--json"]).unwrap(),
            Command::Coverage { json: true, .. }
        ));
        assert!(matches!(
            parse(&["generate", "--list", "2", "--json"]).unwrap(),
            Command::Generate { json: true, .. }
        ));
    }

    #[test]
    fn parses_faults_and_cells() {
        // Decoder-only domain: --list becomes optional and large memories
        // default to auto threads.
        let af = parse(&[
            "coverage", "--test", "March SS", "--faults", "af", "--cells", "1024",
        ])
        .unwrap();
        assert_eq!(
            af,
            Command::Coverage {
                test: "March SS".into(),
                list: None,
                faults: FaultDomain::Af,
                cells: Some(1024),
                exhaustive: false,
                sample: None,
                seed: 0,
                confidence: 0.95,
                threads: 0,
                json: false,
            }
        );
        // Small memories stay serial by default; explicit --threads always wins.
        assert!(matches!(
            parse(&["coverage", "--test", "x", "--faults", "af", "--cells", "64"]).unwrap(),
            Command::Coverage { threads: 1, .. }
        ));
        assert!(matches!(
            parse(&[
                "coverage",
                "--test",
                "x",
                "--faults",
                "af",
                "--cells",
                "1024",
                "--threads",
                "2"
            ])
            .unwrap(),
            Command::Coverage { threads: 2, .. }
        ));
        // The combined domain still needs a cell-array list...
        assert!(parse(&["coverage", "--test", "x", "--faults", "all"]).is_err());
        // ...and the decoder-only domain rejects one rather than dropping it.
        assert!(parse(&["coverage", "--test", "x", "--list", "2", "--faults", "af"]).is_err());
        assert!(parse(&["generate", "--list", "1", "--faults", "af"]).is_err());
        assert!(matches!(
            parse(&["generate", "--list", "2", "--faults", "all", "--cells", "16"]).unwrap(),
            Command::Generate {
                faults: FaultDomain::All,
                cells: Some(16),
                ..
            }
        ));
        assert!(matches!(
            parse(&["minimise", "--test", "March SS", "--faults", "af"]).unwrap(),
            Command::Minimise {
                list: None,
                faults: FaultDomain::Af,
                ..
            }
        ));
        assert!(parse(&["coverage", "--test", "x", "--faults", "bogus"]).is_err());
        assert!(parse(&["coverage", "--test", "x", "--list", "2", "--cells", "many"]).is_err());
    }

    #[test]
    fn parses_campaign_flags() {
        // Full campaign spelling, with scientific notation for the draws.
        assert!(matches!(
            parse(&[
                "coverage",
                "--faults",
                "af",
                "--cells",
                "1024",
                "--sample",
                "1e6",
                "--seed",
                "7",
                "--confidence",
                "0.99",
            ])
            .unwrap(),
            Command::Coverage {
                sample: Some(1_000_000),
                seed: 7,
                confidence,
                ..
            } if (confidence - 0.99).abs() < 1e-12
        ));
        // Defaults: seed 0, confidence 0.95.
        assert!(matches!(
            parse(&["coverage", "--list", "1", "--sample", "4096"]).unwrap(),
            Command::Coverage {
                sample: Some(4096),
                seed: 0,
                confidence,
                ..
            } if (confidence - 0.95).abs() < 1e-12
        ));
        // --seed / --confidence are campaign-only knobs.
        assert!(parse(&["coverage", "--list", "1", "--seed", "7"]).is_err());
        assert!(parse(&["coverage", "--list", "1", "--confidence", "0.9"]).is_err());
        // --sample and --exhaustive are mutually exclusive.
        assert!(parse(&["coverage", "--list", "1", "--sample", "10", "--exhaustive"]).is_err());
        // Degenerate numerics are typed errors, never silent truncation:
        // infinite notation, fractional counts, zero/negative, and overflow
        // past 2^53 all reject.
        for bad in ["1e999", "2.5", "0", "-3", "1e300", "nan", "inf", "lots"] {
            assert!(
                parse(&["coverage", "--list", "1", "--sample", bad]).is_err(),
                "--sample {bad} should be rejected"
            );
        }
        for bad in ["0", "1", "1.5", "-0.5", "nan", "inf", "many"] {
            assert!(
                parse(&[
                    "coverage",
                    "--list",
                    "1",
                    "--sample",
                    "10",
                    "--confidence",
                    bad
                ])
                .is_err(),
                "--confidence {bad} should be rejected"
            );
        }
        assert!(parse(&["coverage", "--list", "1", "--sample", "10", "--seed", "-1"]).is_err());
        assert!(parse(&["coverage", "--list", "1", "--sample", "10", "--seed", "1e3"]).is_err());
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&["serve"]).unwrap(),
            Command::Serve {
                threads: 0,
                max_in_flight: 4,
                timeout_ms: 30_000,
                read_timeout_ms: None,
                snapshot_dir: None,
                tcp: None,
            }
        );
        assert_eq!(
            parse(&[
                "serve",
                "--threads",
                "2",
                "--max-in-flight",
                "8",
                "--timeout-ms",
                "500",
                "--read-timeout-ms",
                "250",
                "--snapshot-dir",
                "/tmp/snaps",
                "--tcp",
                "127.0.0.1:0",
            ])
            .unwrap(),
            Command::Serve {
                threads: 2,
                max_in_flight: 8,
                timeout_ms: 500,
                read_timeout_ms: Some(250),
                snapshot_dir: Some("/tmp/snaps".into()),
                tcp: Some("127.0.0.1:0".into()),
            }
        );
        assert!(parse(&["serve", "--max-in-flight", "0"]).is_err());
        assert!(parse(&["serve", "--max-in-flight", "lots"]).is_err());
        assert!(parse(&["serve", "--timeout-ms", "soon"]).is_err());
        assert!(parse(&["serve", "--read-timeout-ms", "0"]).is_err());
        assert!(parse(&["serve", "--read-timeout-ms", "never"]).is_err());
        assert!(parse(&["serve", "--snapshot-dir"]).is_err());
        assert!(parse(&["serve", "--bogus"]).is_err());
        assert!(parse(&["serve", "--tcp"]).is_err());
    }

    #[test]
    fn parses_snapshot() {
        assert_eq!(
            parse(&["snapshot", "--dir", "/tmp/snaps"]).unwrap(),
            Command::Snapshot {
                dir: "/tmp/snaps".into(),
                warm: false,
                list: None,
                faults: FaultDomain::Ffm,
                test: None,
                cells: None,
            }
        );
        assert_eq!(
            parse(&[
                "snapshot",
                "--dir",
                "/tmp/snaps",
                "--warm",
                "--list",
                "2",
                "--test",
                "March SS",
                "--cells",
                "8",
            ])
            .unwrap(),
            Command::Snapshot {
                dir: "/tmp/snaps".into(),
                warm: true,
                list: Some(CoverageTarget::List2),
                faults: FaultDomain::Ffm,
                test: Some("March SS".into()),
                cells: Some(8),
            }
        );
        // --dir is mandatory; warm-only flags are rejected without --warm;
        // --warm inherits the usual list/domain presence rules.
        assert!(parse(&["snapshot"]).is_err());
        assert!(parse(&["snapshot", "--dir", "/tmp/snaps", "--list", "2"]).is_err());
        assert!(parse(&["snapshot", "--dir", "/tmp/snaps", "--warm"]).is_err());
        assert!(matches!(
            parse(&["snapshot", "--dir", "d", "--warm", "--faults", "af"]).unwrap(),
            Command::Snapshot {
                warm: true,
                list: None,
                faults: FaultDomain::Af,
                ..
            }
        ));
    }

    #[test]
    fn target_labels() {
        assert_eq!(CoverageTarget::List1.label(), "Fault List #1");
        assert_eq!(
            CoverageTarget::parse("unlinked").unwrap(),
            CoverageTarget::Unlinked
        );
        assert!(CoverageTarget::parse("3").is_err());
        assert!(!usage().is_empty());
    }
}
