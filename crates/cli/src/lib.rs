//! # `march-codex-cli`
//!
//! Library backing the `march-codex` command-line tool: a thin, dependency-free
//! argument parser plus the command implementations that tie together the fault
//! model, the march-test catalogue, the fault simulator and the generator.
//!
//! The binary exposes ten sub-commands:
//!
//! * `catalog` — list the catalogue of published march tests;
//! * `show <name>` — print one march test in the standard notation;
//! * `generate --list <1|2>` — run the automatic generator of the DATE 2006 paper;
//! * `coverage --test <name> --list <1|2|unlinked>` — fault-simulate a march test
//!   against a fault list (with `--sample N`, a seeded Monte-Carlo campaign);
//! * `minimise --test <name> --list <…>` — delete the operations of a
//!   catalogue test that the list's coverage does not need;
//! * `diagnose --test <name> --fault <notation> --victim <cell> --list <…>` —
//!   observe a faulty device's syndrome and look up the instances of the
//!   fault space that explain it;
//! * `simulate --test <name> --fault <notation> --victim <cell>` — inject a single
//!   fault primitive and show the failure syndrome;
//! * `serve` — keep one shared engine resident and answer newline-delimited
//!   JSON requests (coverage / campaign / generate / minimise / diagnose /
//!   stats / shutdown) from stdin or a TCP socket, all clients sharing its
//!   warm artifact store and worker pool (see [`serve_lines`]);
//! * `snapshot --dir DIR` — inspect a snapshot directory, or pre-warm it
//!   with `--warm`;
//! * `help` — print the usage text.
//!
//! `coverage`, `generate`, `minimise` and `diagnose` decode into the same
//! [`Request`] a `serve` line decodes into, and one executor runs it for
//! both. Each invocation builds **one** [`sram_sim::Session`], whose one
//! execution option is `--threads` (default 1); `--json` swaps the text
//! output for the report's machine-readable [`Report`](sram_sim::Report)
//! serialisation.
//!
//! Everything is also usable programmatically; see [`run`] and [`Command`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod args;
mod commands;
mod json;
mod request;
mod serve;
pub(crate) mod sync;

pub use args::{Command, ParseArgsError};
pub use commands::{run, CliError};
pub use json::{JsonError, JsonValue};
pub use request::Request;
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
