//! Hand-rolled argument parsing for the `march-codex` binary.
//!
//! A sub-command's flags form one [`Flags`] map. The pipeline sub-commands
//! decode it into the [`Request`] `serve` decodes from JSON; the others
//! read their own flags from it. A flag nothing reads is an `unknown flag`
//! error.

use std::error::Error;
use std::fmt;

use sram_fault_model::FaultList;

use crate::json::JsonValue;
use crate::request::{decode_list, required, Fields, Request};

/// Errors produced while parsing command-line arguments or request fields.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseArgsError(pub(crate) String);

impl fmt::Display for ParseArgsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.0)
    }
}

impl Error for ParseArgsError {}

/// One parsed `march-codex` invocation.
///
/// (`PartialEq` only: a campaign request's confidence is an `f64`.)
#[derive(Debug, Clone, PartialEq)]
pub enum Command {
    /// `catalog` — list the catalogue of published march tests.
    Catalog,
    /// `show <name>` — print one march test.
    Show {
        /// The (case-insensitive) catalogue name.
        name: String,
    },
    /// `coverage`, `generate`, `minimise` or `diagnose`: one pipeline
    /// request, decoded from the flags exactly as `serve` decodes it from a
    /// JSON line (`coverage --sample N` is the campaign request).
    Pipeline {
        /// The request the executor runs.
        request: Request,
        /// `generate --exhaustive`: verify the generated test on every cell
        /// placement instead of the representative ones.
        verify_exhaustive: bool,
        /// Worker threads of the session (`--threads`, default 1; 0 = every
        /// core).
        threads: usize,
        /// Emit the machine-readable JSON instead of the text form.
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
    /// (coverage / campaign / generate / minimise / diagnose / stats /
    /// shutdown) from stdin — or from every client of a TCP listener under
    /// `--tcp` — multiplexed over one shared engine whose artifact store and
    /// worker pool stay warm across requests and clients.
    Serve {
        /// Worker threads of the resident pool (default 1; 0 = every core).
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
        /// The fault list `--warm` pre-populates; `None` only inspects.
        warm: Option<FaultList>,
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
    pub fn parse(mut args: impl Iterator<Item = String>) -> Result<Command, ParseArgsError> {
        let Some(subcommand) = args.next() else {
            return Ok(Command::Help);
        };
        let mut flags = match subcommand.as_str() {
            "help" | "--help" | "-h" => return Ok(Command::Help),
            "catalog" => return Ok(Command::Catalog),
            "show" => {
                let name: Vec<String> = args.collect();
                if name.is_empty() {
                    return Err(ParseArgsError("show requires a march test name".into()));
                }
                return Ok(Command::Show {
                    name: name.join(" "),
                });
            }
            _ => Flags::parse(args),
        };
        let command = match subcommand.as_str() {
            "coverage" | "generate" | "minimise" | "minimize" | "diagnose" => {
                pipeline(&subcommand, &mut flags)?
            }
            "simulate" => Command::Simulate {
                test: required(flags.string("test")?, "simulate", &flags, "test")?,
                fault: required(flags.string("fault")?, "simulate", &flags, "fault")?,
                victim: required(flags.usize("victim")?, "simulate", &flags, "victim")?,
                aggressor: flags.usize("aggressor")?,
                cells: flags.usize("cells")?.unwrap_or(8),
            },
            "serve" => Command::Serve {
                threads: flags.usize("threads")?.unwrap_or(1),
                max_in_flight: positive(flags.usize("max_in_flight")?, &flags, "max_in_flight")?
                    .unwrap_or(4),
                timeout_ms: flags.u64("timeout_ms")?.unwrap_or(30_000),
                read_timeout_ms: positive(
                    flags.u64("read_timeout_ms")?,
                    &flags,
                    "read_timeout_ms",
                )?,
                snapshot_dir: flags.string("snapshot_dir")?,
                tcp: flags.string("tcp")?,
            },
            "snapshot" => {
                let dir = required(flags.string("dir")?, "snapshot", &flags, "dir")?;
                let warm = if flags.switch("warm")? {
                    Some(decode_list(&mut flags, "snapshot --warm")?)
                } else if ["list", "faults", "test", "cells"]
                    .iter()
                    .any(|key| flags.has(key))
                {
                    return Err(ParseArgsError(
                        "snapshot only uses --list/--faults/--test/--cells together with --warm"
                            .into(),
                    ));
                } else {
                    None
                };
                Command::Snapshot {
                    dir,
                    warm,
                    test: flags.string("test")?,
                    cells: flags.usize("cells")?,
                }
            }
            other => {
                return Err(ParseArgsError(format!(
                    "unknown sub-command `{other}` (try `march-codex help`)"
                )))
            }
        };
        flags.finish()?;
        Ok(command)
    }
}

/// A pipeline sub-command: its flags decode into the [`Request`] of the op,
/// and the command line's own `--threads`, `--json` and `generate
/// --exhaustive` ride along.
fn pipeline(subcommand: &str, flags: &mut Flags) -> Result<Command, ParseArgsError> {
    // `coverage --sample N` is the command line's spelling of the campaign op.
    let op = match subcommand {
        "coverage" if flags.has("sample") => {
            if flags.has("exhaustive") {
                return Err(ParseArgsError(
                    "--sample draws from the exhaustive space at random; combining it with \
                     --exhaustive is ambiguous — pick one"
                        .into(),
                ));
            }
            "campaign"
        }
        "coverage" if flags.has("seed") || flags.has("confidence") => {
            return Err(ParseArgsError(
                "--seed and --confidence only apply to Monte-Carlo campaigns; add --sample N"
                    .into(),
            ))
        }
        other => other,
    };
    let request = Request::decode(op, flags)?
        .ok_or_else(|| ParseArgsError(format!("unknown sub-command `{subcommand}`")))?;
    Ok(Command::Pipeline {
        request,
        verify_exhaustive: subcommand == "generate" && flags.switch("exhaustive")?,
        threads: flags.usize("threads")?.unwrap_or(1),
        json: flags.switch("json")?,
    })
}

/// `value`, unless it is zero.
fn positive<T: PartialEq + Default>(
    value: Option<T>,
    flags: &Flags,
    key: &str,
) -> Result<Option<T>, ParseArgsError> {
    if value == Some(T::default()) {
        return Err(ParseArgsError(format!(
            "{} must be at least 1",
            flags.name(key)
        )));
    }
    Ok(value)
}

/// The flags that take no value.
const SWITCHES: [&str; 4] = ["--exhaustive", "--json", "--no-removal", "--warm"];

/// One command-line flag and its value.
#[derive(Debug)]
struct Flag {
    flag: String,
    value: Option<String>,
    read: bool,
}

/// The flags of one sub-command as a map from field names to values:
/// `--no-removal` is the field `no_removal`. Every token that is not a
/// switch takes the next one as its value; a repeated flag keeps its last.
#[derive(Debug)]
pub(crate) struct Flags {
    entries: Vec<Flag>,
}

impl Flags {
    fn parse(mut args: impl Iterator<Item = String>) -> Flags {
        let mut entries: Vec<Flag> = Vec::new();
        while let Some(flag) = args.next() {
            let value = if flag.starts_with("--") && !SWITCHES.contains(&flag.as_str()) {
                args.next()
            } else {
                None
            };
            entries.retain(|entry| entry.flag != flag);
            entries.push(Flag {
                flag,
                value,
                read: false,
            });
        }
        Flags { entries }
    }

    fn find(&self, key: &str) -> Option<usize> {
        let flag = self.name(key);
        self.entries.iter().position(|entry| entry.flag == flag)
    }

    /// `true` when the flag of `key` was given, without reading it.
    pub(crate) fn has(&self, key: &str) -> bool {
        self.find(key).is_some()
    }

    /// Reads the value of `key`'s flag.
    fn value(&mut self, key: &str) -> Result<Option<String>, ParseArgsError> {
        let Some(index) = self.find(key) else {
            return Ok(None);
        };
        let entry = &mut self.entries[index];
        entry.read = true;
        match &entry.value {
            Some(value) => Ok(Some(value.clone())),
            None => Err(ParseArgsError(format!("{} requires a value", entry.flag))),
        }
    }

    fn parsed<T>(
        &mut self,
        key: &str,
        parse: impl FnOnce(&str) -> Option<T>,
        expected: &str,
    ) -> Result<Option<T>, ParseArgsError> {
        let Some(text) = self.value(key)? else {
            return Ok(None);
        };
        parse(&text).map(Some).ok_or_else(|| {
            ParseArgsError(format!(
                "{} expects {expected}, got `{text}`",
                self.name(key)
            ))
        })
    }

    /// Fails on the first flag nothing read.
    fn finish(self) -> Result<(), ParseArgsError> {
        match self.entries.into_iter().find(|entry| !entry.read) {
            Some(entry) => Err(ParseArgsError(format!("unknown flag `{}`", entry.flag))),
            None => Ok(()),
        }
    }
}

/// An exact non-negative integer, in decimal or — like a number in a JSON
/// request — in scientific notation up to 2^53 (`--sample 1e6`).
fn count(text: &str) -> Option<u64> {
    text.parse::<u64>()
        .ok()
        .or_else(|| JsonValue::Number(text.trim().parse().ok()?).as_u64())
}

impl Fields for Flags {
    fn name(&self, key: &str) -> String {
        format!("--{}", key.replace('_', "-"))
    }

    fn string(&mut self, key: &str) -> Result<Option<String>, ParseArgsError> {
        self.value(key)
    }

    fn usize(&mut self, key: &str) -> Result<Option<usize>, ParseArgsError> {
        self.parsed(
            key,
            |text| count(text).and_then(|value| usize::try_from(value).ok()),
            "a non-negative integer",
        )
    }

    fn u64(&mut self, key: &str) -> Result<Option<u64>, ParseArgsError> {
        self.parsed(key, count, "a non-negative integer")
    }

    fn f64(&mut self, key: &str) -> Result<Option<f64>, ParseArgsError> {
        self.parsed(
            key,
            |text| {
                text.trim()
                    .parse::<f64>()
                    .ok()
                    .filter(|value| value.is_finite())
            },
            "a finite number",
        )
    }

    fn switch(&mut self, key: &str) -> Result<bool, ParseArgsError> {
        match self.find(key) {
            Some(index) => {
                self.entries[index].read = true;
                Ok(true)
            }
            None => Ok(false),
        }
    }
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
     \x20 march-codex generate [--list <1|2|unlinked>] [--faults ffm|af|all] [--cells N] [--no-removal]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--order up|down] [--name NAME] [--exhaustive] [--threads N] [--json]\n\
     \x20 march-codex coverage [--test <name>] [--list <1|2|unlinked>] [--faults ffm|af|all]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--cells N] [--exhaustive] [--sample N [--seed S] [--confidence C]]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--threads N] [--json]\n\
     \x20 march-codex minimise --test <name> [--list <1|2|unlinked>] [--faults ffm|af|all]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--cells N] [--threads N] [--json]\n\
     \x20 march-codex diagnose --test <name> --fault <notation> --victim <cell> [--aggressor <cell>]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--list <1|2|unlinked>] [--faults ffm|af|all] [--cells N] [--threads N] [--json]\n\
     \x20 march-codex simulate --test <name> --fault <notation> --victim <cell> [--aggressor <cell>] [--cells N]\n\
     \x20 march-codex serve [--threads N] [--max-in-flight N] [--timeout-ms N] [--read-timeout-ms N]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--snapshot-dir DIR] [--tcp ADDR]\n\
     \x20 march-codex snapshot --dir DIR [--warm --list <1|2|unlinked> [--faults ffm|af|all]\n\
     \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20 \x20[--test <name>] [--cells N]]\n\
     \x20 march-codex help\n\
     \n\
     coverage, generate, minimise and diagnose are the requests serve answers, with\n\
     one field per flag (--no-removal is \"no_removal\"; coverage --sample N is the\n\
     campaign op), decoded and run by the same code. Each runs on one\n\
     sram_sim::Session: an 8-cell memory unless --cells N is given, and one worker\n\
     thread unless --threads N is (0 = every core). Reports are byte-identical at\n\
     every thread count; --json emits the report's machine-readable form.\n\
     --faults selects the fault domain: ffm (the cell-array --list, the default), af\n\
     (the four address-decoder classes; --list must be omitted) or all (--list plus\n\
     the decoder classes). coverage --test defaults to March SS. --exhaustive\n\
     enumerates every cell placement (generate --exhaustive verifies the generated\n\
     test that way). coverage --sample N replaces enumeration with a seeded\n\
     Monte-Carlo campaign over the exhaustive (placement, background) space: N draws\n\
     (1e6 notation is accepted), a Wilson-score confidence interval at --confidence\n\
     (default 0.95), and a bounded escape trace. Identical --seed values replay\n\
     identical draws at every thread count; draw counts covering the whole space\n\
     degenerate to sampling without replacement and match --exhaustive verdicts\n\
     exactly. diagnose looks the observed syndrome up in the memoised fault\n\
     dictionary of the test, list and memory.\n\
     serve keeps one engine resident and answers newline-delimited JSON requests\n\
     ({\"op\": \"coverage\"|\"campaign\"|\"generate\"|\"minimise\"|\"diagnose\"|\"stats\"|\"shutdown\", ...})\n\
     on stdin or a --tcp socket; all clients share its artifact store and worker\n\
     pool, at most --max-in-flight requests execute concurrently (excess requests\n\
     see backpressure), and requests beyond --timeout-ms answer a typed timeout\n\
     error. --snapshot-dir persists the cache crash-safely across restarts\n\
     (checksummed, written atomically; corrupt files are quarantined and rebuilt in\n\
     memory); --read-timeout-ms bounds idle connections; a shutdown request drains\n\
     the service gracefully. snapshot inspects such a directory, or pre-warms it\n\
     with --warm so the next serve starts hot.\n"
        .to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::named_list;
    use march_test::AddressOrder;

    fn parse(args: &[&str]) -> Result<Command, ParseArgsError> {
        Command::parse(args.iter().map(|s| s.to_string()))
    }

    /// The request of a pipeline sub-command, with its command-line options.
    fn pipeline(args: &[&str]) -> (Request, bool, usize, bool) {
        match parse(args).unwrap() {
            Command::Pipeline {
                request,
                verify_exhaustive,
                threads,
                json,
            } => (request, verify_exhaustive, threads, json),
            other => panic!("{args:?} parsed to {other:?}"),
        }
    }

    fn error(args: &[&str]) -> String {
        parse(args).unwrap_err().to_string()
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
        // The campaign op is `coverage --sample` on the command line.
        assert!(parse(&["campaign", "--list", "1", "--sample", "10"]).is_err());
    }

    #[test]
    fn parses_generate() {
        let parsed = pipeline(&[
            "generate",
            "--list",
            "1",
            "--no-removal",
            "--order",
            "up",
            "--name",
            "March X",
        ]);
        assert_eq!(
            parsed,
            (
                Request::Generate {
                    list: FaultList::list_1(),
                    cells: None,
                    no_removal: true,
                    order: Some(AddressOrder::Ascending),
                    name: Some("March X".into()),
                },
                false,
                1,
                false
            )
        );
        // `--exhaustive` picks the verification scope, not the request's.
        let (request, verify_exhaustive, _, _) =
            pipeline(&["generate", "--list", "2", "--exhaustive"]);
        assert!(verify_exhaustive);
        assert!(matches!(request, Request::Generate { .. }));
        assert!(parse(&["generate"]).is_err());
        assert!(parse(&["generate", "--list", "7"]).is_err());
        assert!(parse(&["generate", "--list", "1", "--order", "sideways"]).is_err());
    }

    #[test]
    fn parses_minimise() {
        let parsed = pipeline(&[
            "minimise",
            "--test",
            "March SL",
            "--list",
            "2",
            "--threads",
            "0",
            "--json",
        ]);
        let march_sl = Request::Minimise {
            test: "March SL".into(),
            list: FaultList::list_2(),
            cells: None,
        };
        assert_eq!(parsed, (march_sl, false, 0, true));
        // The American spelling is accepted too.
        assert_eq!(
            pipeline(&["minimize", "--test", "MATS+", "--list", "unlinked"]),
            (
                Request::Minimise {
                    test: "MATS+".into(),
                    list: FaultList::unlinked_static(),
                    cells: None,
                },
                false,
                1,
                false
            )
        );
        assert_eq!(
            error(&["minimise", "--list", "2"]),
            "minimise requires --test"
        );
        assert!(parse(&["minimise", "--test", "March SL"]).is_err());
        assert_eq!(
            error(&["minimise", "--test", "x", "--list", "2", "--bogus"]),
            "unknown flag `--bogus`"
        );
        // Only `generate` has a verification scope to set.
        assert_eq!(
            error(&["minimise", "--test", "x", "--list", "2", "--exhaustive"]),
            "unknown flag `--exhaustive`"
        );
    }

    #[test]
    fn parses_backend_threads_and_batch() {
        assert_eq!(
            pipeline(&["generate", "--list", "2", "--threads", "4"]).2,
            4
        );
        assert_eq!(
            pipeline(&[
                "coverage",
                "--test",
                "March SL",
                "--list",
                "1",
                "--threads",
                "0"
            ])
            .2,
            0
        );
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
        let coverage = pipeline(&[
            "coverage",
            "--test",
            "March SL",
            "--list",
            "unlinked",
            "--exhaustive",
        ]);
        assert_eq!(
            coverage,
            (
                Request::Coverage {
                    test: "March SL".into(),
                    list: FaultList::unlinked_static(),
                    cells: None,
                    exhaustive: true,
                },
                false,
                1,
                false
            )
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
        assert_eq!(
            error(&["simulate", "--test", "March SS"]),
            "simulate requires --fault"
        );
        // coverage without --list still errors in the default ffm domain...
        assert!(parse(&["coverage", "--test", "March SS"]).is_err());
        // ...and without --test defaults to March SS in the af domain.
        assert!(matches!(
            pipeline(&["coverage", "--faults", "af"]).0,
            Request::Coverage { test, .. } if test == "March SS"
        ));
        assert_eq!(
            error(&["simulate", "--test", "x", "--fault", "y", "--victim", "abc"]),
            "--victim expects a non-negative integer, got `abc`"
        );
        assert_eq!(
            error(&["simulate", "--test", "x", "--fault", "y", "--victim"]),
            "--victim requires a value"
        );
        assert_eq!(
            error(&["simulate", "--test", "x", "--fault", "y", "--victim", "1", "extra"]),
            "unknown flag `extra`"
        );
    }

    #[test]
    fn parses_diagnose_and_json_flags() {
        let diagnose = pipeline(&[
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
        ]);
        assert_eq!(
            diagnose,
            (
                Request::Diagnose {
                    test: "March SS".into(),
                    fault: "<0w1;0/1/->".into(),
                    victim: 4,
                    aggressor: Some(1),
                    cells: 6,
                    list: FaultList::unlinked_static(),
                },
                false,
                1,
                true
            )
        );
        // The decoder domain needs no --list, like every other pipeline op.
        assert!(matches!(
            pipeline(&[
                "diagnose", "--test", "March SS", "--fault", "<1/0/->", "--victim", "1",
                "--faults", "af",
            ])
            .0,
            Request::Diagnose { cells: 8, list, .. } if list == FaultList::address_decoder()
        ));
        assert_eq!(
            error(&["diagnose", "--test", "March SS"]),
            "diagnose requires --fault"
        );
        assert_eq!(
            error(&["diagnose", "--fault", "x", "--victim", "1", "--list", "2"]),
            "diagnose requires --test"
        );
        assert!(pipeline(&["coverage", "--test", "x", "--list", "1", "--json"]).3);
        assert!(pipeline(&["generate", "--list", "2", "--json"]).3);
    }

    #[test]
    fn parses_faults_and_cells() {
        // Decoder-only domain: --list becomes optional. One thread is the
        // default at every memory size.
        let af = pipeline(&[
            "coverage", "--test", "March SS", "--faults", "af", "--cells", "1024",
        ]);
        assert_eq!(
            af,
            (
                Request::Coverage {
                    test: "March SS".into(),
                    list: FaultList::address_decoder(),
                    cells: Some(1024),
                    exhaustive: false,
                },
                false,
                1,
                false
            )
        );
        // An explicit --threads always wins.
        assert_eq!(
            pipeline(&[
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
            .2,
            2
        );
        // The combined domain still needs a cell-array list...
        assert!(parse(&["coverage", "--test", "x", "--faults", "all"]).is_err());
        // ...and the decoder-only domain rejects one rather than dropping it.
        assert!(parse(&["coverage", "--test", "x", "--list", "2", "--faults", "af"]).is_err());
        assert!(parse(&["generate", "--list", "1", "--faults", "af"]).is_err());
        assert!(matches!(
            pipeline(&["generate", "--list", "2", "--faults", "all", "--cells", "16"]).0,
            Request::Generate {
                cells: Some(16),
                list,
                ..
            } if list == FaultList::list_2().with_address_decoder_faults()
        ));
        assert!(matches!(
            pipeline(&["minimise", "--test", "March SS", "--faults", "af"]).0,
            Request::Minimise { list, .. } if list == FaultList::address_decoder()
        ));
        assert!(parse(&["coverage", "--test", "x", "--faults", "bogus"]).is_err());
        assert!(parse(&["coverage", "--test", "x", "--list", "2", "--cells", "many"]).is_err());
    }

    #[test]
    fn parses_campaign_flags() {
        // Full campaign spelling, with scientific notation for the draws.
        assert!(matches!(
            pipeline(&[
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
            .0,
            Request::Campaign {
                sample: 1_000_000,
                seed: 7,
                confidence,
                ..
            } if (confidence - 0.99).abs() < 1e-12
        ));
        // Defaults: seed 0, confidence 0.95.
        assert!(matches!(
            pipeline(&["coverage", "--list", "1", "--sample", "4096"]).0,
            Request::Campaign {
                sample: 4096,
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
        assert!(parse(&["coverage", "--list", "1", "--sample", "10", "--seed", "2.5"]).is_err());
        // A seed in scientific notation parses the way a JSON request's
        // `1e3` does; an exact integer seed keeps all 64 bits.
        for (seed, expected) in [("1e3", 1000), ("18446744073709551615", u64::MAX)] {
            assert!(matches!(
                pipeline(&["coverage", "--list", "1", "--sample", "10", "--seed", seed]).0,
                Request::Campaign { seed, .. } if seed == expected
            ));
        }
    }

    #[test]
    fn parses_serve() {
        assert_eq!(
            parse(&["serve"]).unwrap(),
            Command::Serve {
                threads: 1,
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
                warm: None,
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
                warm: Some(FaultList::list_2()),
                test: Some("March SS".into()),
                cells: Some(8),
            }
        );
        // --dir is mandatory; warm-only flags are rejected without --warm;
        // --warm inherits the usual list/domain presence rules.
        assert!(parse(&["snapshot"]).is_err());
        assert!(parse(&["snapshot", "--dir", "/tmp/snaps", "--list", "2"]).is_err());
        assert!(parse(&["snapshot", "--dir", "/tmp/snaps", "--faults", "af"]).is_err());
        assert!(parse(&["snapshot", "--dir", "/tmp/snaps", "--warm"]).is_err());
        assert!(matches!(
            parse(&["snapshot", "--dir", "d", "--warm", "--faults", "af"]).unwrap(),
            Command::Snapshot {
                warm: Some(list),
                ..
            } if list == FaultList::address_decoder()
        ));
    }

    #[test]
    fn target_labels() {
        // Every spelling of each list, and nothing else.
        for (spellings, list) in [
            (["1", "list1", "#1"], FaultList::list_1()),
            (["2", "list2", "#2"], FaultList::list_2()),
            (
                ["unlinked", "simple", "static"],
                FaultList::unlinked_static(),
            ),
        ] {
            for spelling in spellings {
                assert_eq!(named_list(spelling).as_ref(), Ok(&list), "{spelling}");
            }
        }
        assert!(named_list("3").is_err());
        assert!(!usage().is_empty());
    }
}
