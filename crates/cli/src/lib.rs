//! # `march-codex-cli`
//!
//! Library backing the `march-codex` command-line tool: a thin, dependency-free
//! argument parser plus the command implementations that tie together the fault
//! model, the march-test catalogue, the fault simulator and the generator.
//!
//! The binary exposes six sub-commands:
//!
//! * `catalog` — list the catalogue of published march tests;
//! * `show <name>` — print one march test in the standard notation;
//! * `generate --list <1|2>` — run the automatic generator of the DATE 2006 paper;
//! * `coverage --test <name> --list <1|2|unlinked>` — fault-simulate a march test
//!   against a fault list;
//! * `diagnose --test <name> --fault <notation> --victim <cell> --list <…>` —
//!   observe a faulty device's syndrome and search the fault space for the
//!   instances that explain it;
//! * `simulate --test <name> --fault <notation> --victim <cell>` — inject a single
//!   fault primitive and show the failure syndrome;
//! * `serve` — keep one shared engine resident and answer newline-delimited
//!   JSON requests (coverage / generate / minimise / diagnose / stats) from
//!   stdin or a TCP socket, all clients sharing its warm artifact store and
//!   worker pool (see [`serve_lines`]).
//!
//! Every invocation builds **one** [`sram_sim::Session`], whose one execution
//! option is `--threads`, and routes the pipeline through it; `--json` swaps
//! the text output of `coverage`/`generate`/`diagnose` for the session
//! report's machine-readable [`Report`](sram_sim::Report) serialisation.
//!
//! Everything is also usable programmatically; see [`run`] and [`Command`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod json;
mod serve;
pub(crate) mod sync;

pub use args::{Command, CoverageTarget, ParseArgsError};
pub use commands::{run, CliError};
pub use json::{JsonError, JsonValue};
pub use serve::{run_serve, serve_lines, LatencyCounter, ServeMetrics, ServeOptions};

/// Parses command-line arguments (without the program name) and executes the
/// resulting command, returning the rendered output.
///
/// # Errors
///
/// Returns a [`CliError`] when parsing or execution fails; the error message is
/// intended to be printed to stderr verbatim.
pub fn run_from_args<I, S>(args: I) -> Result<String, CliError>
where
    I: IntoIterator<Item = S>,
    S: Into<String>,
{
    let command = Command::parse(args.into_iter().map(Into::into))?;
    run(&command)
}
