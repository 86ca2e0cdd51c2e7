//! The request model the command line and `serve` share.
//!
//! A pipeline op (coverage, campaign, generate, minimise, diagnose) is one
//! [`Request`]. [`Request::decode`] reads its typed fields through a
//! [`Fields`] source, implemented once over an argv flag map
//! (`--no-removal` ↔ `no_removal`) and once over a JSON request object, so
//! both front ends apply the same defaults, presence rules and range checks.
//! [`execute`] then runs the request on a [`Session`] handle: `march-codex
//! coverage …` and `{"op": "coverage", …}` take the same path and produce
//! the same report.

use march_gen::{GeneratedTest, GeneratorConfig, MarchGenerator, MinimisationReport, SessionExt};
use march_test::{catalog, AddressOrder, MarchTest};
use sram_fault_model::{FaultList, FaultPrimitive, Ffm};
use sram_sim::{
    CampaignConfig, CampaignReport, CoverageReport, DiagnosisReport, InjectedFault,
    PlacementStrategy, Report, Session,
};

use crate::args::ParseArgsError;
use crate::commands::CliError;
use crate::json::JsonValue;

/// The cell-array fault list a request's `list` field names: the paper's
/// Fault List #1 (single-, two- and three-cell static linked faults), its
/// Fault List #2 (single-cell static linked faults), or the 48 unlinked
/// realistic static fault primitives.
pub(crate) fn named_list(text: &str) -> Result<FaultList, ParseArgsError> {
    match text {
        "1" | "list1" | "#1" => Ok(FaultList::list_1()),
        "2" | "list2" | "#2" => Ok(FaultList::list_2()),
        "unlinked" | "simple" | "static" => Ok(FaultList::unlinked_static()),
        other => Err(ParseArgsError(format!(
            "unknown fault list `{other}` (expected 1, 2 or unlinked)"
        ))),
    }
}

/// The typed fields of one request, as a front end supplies them. A field
/// that is absent (or JSON `null`) reads as `None`; one that is present but
/// malformed is a typed error naming it.
pub(crate) trait Fields {
    /// How error messages name the field `key` (`--no-removal` on the
    /// command line, ``field `no_removal` `` in a JSON request).
    fn name(&self, key: &str) -> String;
    /// A text field.
    fn string(&mut self, key: &str) -> Result<Option<String>, ParseArgsError>;
    /// A cell count or address.
    fn usize(&mut self, key: &str) -> Result<Option<usize>, ParseArgsError>;
    /// A draw count or seed.
    fn u64(&mut self, key: &str) -> Result<Option<u64>, ParseArgsError>;
    /// A finite number.
    fn f64(&mut self, key: &str) -> Result<Option<f64>, ParseArgsError>;
    /// A switch: `true` when given (a bare flag, or JSON `true`).
    fn switch(&mut self, key: &str) -> Result<bool, ParseArgsError>;
}

/// Reads `key` of a JSON request object through `read`; a value `read`
/// refuses is the error ``field `key` must be <expected>``.
fn json_field<'a, T>(
    object: &'a JsonValue,
    key: &str,
    read: impl FnOnce(&'a JsonValue) -> Option<T>,
    expected: &str,
) -> Result<Option<T>, ParseArgsError> {
    match object.get(key) {
        None | Some(JsonValue::Null) => Ok(None),
        Some(field) => read(field)
            .map(Some)
            .ok_or_else(|| ParseArgsError(format!("field `{key}` must be {expected}"))),
    }
}

/// A JSON request object. Fields no op reads are ignored, as they always
/// were on the wire.
impl Fields for JsonValue {
    fn name(&self, key: &str) -> String {
        format!("field `{key}`")
    }

    fn string(&mut self, key: &str) -> Result<Option<String>, ParseArgsError> {
        json_field(self, key, JsonValue::as_str, "a string").map(|text| text.map(str::to_string))
    }

    fn usize(&mut self, key: &str) -> Result<Option<usize>, ParseArgsError> {
        json_field(self, key, JsonValue::as_usize, "a non-negative integer")
    }

    /// Fractions, negatives, values past 2^53 and the infinities `1e999`
    /// parses to are all typed errors, never a silent `as`-cast truncation.
    fn u64(&mut self, key: &str) -> Result<Option<u64>, ParseArgsError> {
        json_field(
            self,
            key,
            JsonValue::as_u64,
            "a non-negative integer (at most 2^53)",
        )
    }

    fn f64(&mut self, key: &str) -> Result<Option<f64>, ParseArgsError> {
        json_field(self, key, JsonValue::as_finite_f64, "a finite number")
    }

    fn switch(&mut self, key: &str) -> Result<bool, ParseArgsError> {
        json_field(self, key, JsonValue::as_bool, "a boolean").map(Option::unwrap_or_default)
    }
}

/// One pipeline request, decoded from the command line or from a `serve`
/// request line. (`PartialEq` only: `Campaign::confidence` is an `f64`.)
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Fault-simulates a catalogue test against a fault list.
    Coverage {
        /// Catalogue name of the march test (default: March SS).
        test: String,
        /// The target fault list, from the `list` and `faults` fields.
        list: FaultList,
        /// Memory size in cells (`None` = the session's 8).
        cells: Option<usize>,
        /// Enumerate every cell placement instead of the representative ones.
        exhaustive: bool,
    },
    /// A seeded Monte-Carlo campaign over the exhaustive `(placement,
    /// background)` space (`coverage --sample N` on the command line).
    Campaign {
        /// Catalogue name of the march test (default: March SS).
        test: String,
        /// The target fault list, from the `list` and `faults` fields.
        list: FaultList,
        /// Memory size in cells (`None` = the session's 8).
        cells: Option<usize>,
        /// Number of draws, at least 1.
        sample: u64,
        /// PRNG seed; identical seeds replay identical draws (default 0).
        seed: u64,
        /// Confidence level of the Wilson-score interval, strictly inside
        /// `(0, 1)` (default 0.95).
        confidence: f64,
    },
    /// Runs the paper's automatic generator.
    Generate {
        /// The target fault list, from the `list` and `faults` fields.
        list: FaultList,
        /// Memory size in cells (`None` = the session's 8).
        cells: Option<usize>,
        /// Skip the redundancy-removal pass.
        no_removal: bool,
        /// Restrict every element to this address order (plus `⇕`).
        order: Option<AddressOrder>,
        /// Name of the generated test (default: March GEN).
        name: Option<String>,
    },
    /// Runs the suffix-only redundancy-removal pass on a catalogue test.
    Minimise {
        /// Catalogue name of the march test to shorten.
        test: String,
        /// The fault list whose coverage must be preserved.
        list: FaultList,
        /// Memory size in cells (`None` = the session's 8).
        cells: Option<usize>,
    },
    /// Observes a faulty device's syndrome and looks up the fault-list
    /// instances that explain it in the memoised fault dictionary.
    Diagnose {
        /// Catalogue name of the march test the syndrome is observed under.
        test: String,
        /// The `<S/F/R>` notation of the primitive injected into the device.
        fault: String,
        /// The victim cell address.
        victim: usize,
        /// The aggressor cell address, for coupling primitives.
        aggressor: Option<usize>,
        /// Memory size in cells (default 8).
        cells: usize,
        /// The fault space searched for candidates.
        list: FaultList,
    },
}

/// `value`, or the error "`op` requires `<the field's name>`".
pub(crate) fn required<T>(
    value: Option<T>,
    op: &str,
    fields: &impl Fields,
    key: &str,
) -> Result<T, ParseArgsError> {
    value.ok_or_else(|| ParseArgsError(format!("{op} requires {}", fields.name(key))))
}

/// The fault list of the `faults` and `list` fields of `op`. The `faults`
/// domain is `ffm` (the cell-array `list`, the default), `af` (the
/// address-decoder classes alone) or `all` (`list` plus the decoder
/// classes). `list` is mandatory unless the domain is decoder-only, and the
/// decoder-only domain rejects one, so a cell-array list is never silently
/// dropped from the run.
pub(crate) fn decode_list(fields: &mut impl Fields, op: &str) -> Result<FaultList, ParseArgsError> {
    let domain = fields.string("faults")?.map_or_else(
        || "ffm".to_string(),
        |text| text.trim().to_ascii_lowercase(),
    );
    if !matches!(domain.as_str(), "ffm" | "af" | "all") {
        return Err(ParseArgsError(format!(
            "unknown fault domain `{domain}` (expected ffm, af or all)"
        )));
    }
    let list = fields
        .string("list")?
        .map(|text| named_list(&text))
        .transpose()?;
    match (domain.as_str(), list) {
        ("af", None) => Ok(FaultList::address_decoder()),
        ("af", Some(_)) => Err(ParseArgsError(format!(
            "{op} --faults af targets only the decoder classes and would ignore \
             --list; drop --list or use --faults all to combine the two domains"
        ))),
        (_, None) => Err(ParseArgsError(format!(
            "{op} requires --list (or --faults af for the decoder-only domain)"
        ))),
        ("all", Some(list)) => Ok(list.with_address_decoder_faults()),
        (_, Some(list)) => Ok(list),
    }
}

impl Request {
    /// Decodes the request of pipeline op `op` from `fields`; `None` when
    /// `op` is not a pipeline op. The fields are read in a fixed order, so
    /// the first malformed one names the error on either front end.
    ///
    /// # Errors
    ///
    /// Returns a [`ParseArgsError`] for a missing required field, a
    /// malformed value, an unknown list, domain or address order, a
    /// `list`/`faults` pair the domain rules reject, zero draws or a
    /// confidence level outside `(0, 1)`.
    pub(crate) fn decode(
        op: &str,
        fields: &mut impl Fields,
    ) -> Result<Option<Request>, ParseArgsError> {
        let request = match op {
            "coverage" => Request::Coverage {
                test: test_or_march_ss(fields)?,
                list: decode_list(fields, op)?,
                cells: fields.usize("cells")?,
                exhaustive: fields.switch("exhaustive")?,
            },
            "campaign" => {
                let sample = required(fields.u64("sample")?, op, fields, "sample")?;
                if sample == 0 {
                    return Err(ParseArgsError(format!(
                        "{} must be at least 1",
                        fields.name("sample")
                    )));
                }
                let confidence = fields.f64("confidence")?.unwrap_or(0.95);
                if confidence <= 0.0 || confidence >= 1.0 {
                    return Err(ParseArgsError(format!(
                        "{} must lie strictly between 0 and 1",
                        fields.name("confidence")
                    )));
                }
                Request::Campaign {
                    test: test_or_march_ss(fields)?,
                    list: decode_list(fields, op)?,
                    cells: fields.usize("cells")?,
                    sample,
                    seed: fields.u64("seed")?.unwrap_or(0),
                    confidence,
                }
            }
            "generate" => Request::Generate {
                list: decode_list(fields, op)?,
                cells: fields.usize("cells")?,
                no_removal: fields.switch("no_removal")?,
                order: fields
                    .string("order")?
                    .map(|text| {
                        text.parse::<AddressOrder>()
                            .map_err(|_| ParseArgsError(format!("unknown address order `{text}`")))
                    })
                    .transpose()?,
                name: fields.string("name")?,
            },
            "minimise" | "minimize" => Request::Minimise {
                test: required(fields.string("test")?, "minimise", fields, "test")?,
                list: decode_list(fields, "minimise")?,
                cells: fields.usize("cells")?,
            },
            "diagnose" => Request::Diagnose {
                test: required(fields.string("test")?, op, fields, "test")?,
                fault: required(fields.string("fault")?, op, fields, "fault")?,
                victim: required(fields.usize("victim")?, op, fields, "victim")?,
                aggressor: fields.usize("aggressor")?,
                cells: fields.usize("cells")?.unwrap_or(8),
                list: decode_list(fields, op)?,
            },
            _ => return Ok(None),
        };
        Ok(Some(request))
    }

    /// The op name: the `op` of the request line and of its response.
    pub(crate) fn op(&self) -> &'static str {
        match self {
            Request::Coverage { .. } => "coverage",
            Request::Campaign { .. } => "campaign",
            Request::Generate { .. } => "generate",
            Request::Minimise { .. } => "minimise",
            Request::Diagnose { .. } => "diagnose",
        }
    }
}

/// March SS is the canonical thorough catalogue test; it is the default, so
/// `coverage --faults af --cells 1024` works out of the box.
fn test_or_march_ss(fields: &mut impl Fields) -> Result<String, ParseArgsError> {
    Ok(fields
        .string("test")?
        .unwrap_or_else(|| "March SS".to_string()))
}

/// What the executor answers: each op's report, together with the parts of
/// the request its text form prints.
pub(crate) enum Response<'a> {
    /// A `coverage` report.
    Coverage(CoverageReport),
    /// A `campaign` report.
    Campaign(CampaignReport),
    /// The generated test, with the list and scope it was generated for.
    Generate {
        list: &'a FaultList,
        cells: Option<usize>,
        generated: GeneratedTest,
    },
    /// The minimised test, with the catalogue test it started from.
    Minimise {
        list: &'a FaultList,
        input: MarchTest,
        report: MinimisationReport,
    },
    /// The diagnosis, with the device fault it was observed on.
    Diagnose {
        list: &'a FaultList,
        primitive: FaultPrimitive,
        victim: usize,
        aggressor: Option<usize>,
        cells: usize,
        report: DiagnosisReport,
    },
}

impl Response<'_> {
    /// The report's JSON: the `report` payload of a `serve` response.
    pub(crate) fn to_json(&self) -> String {
        match self {
            Response::Coverage(report) => report.to_json(),
            Response::Campaign(report) => report.to_json(),
            Response::Generate { generated, .. } => generated.to_json(),
            Response::Minimise { report, .. } => report.to_json(),
            Response::Diagnose { report, .. } => report.to_json(),
        }
    }
}

/// The session `request` runs on: `session` with its memory size replaced
/// when `cells` is given, and every placement enumerated under `exhaustive`.
pub(crate) fn scoped(session: Session, cells: Option<usize>, exhaustive: bool) -> Session {
    let session = match cells {
        Some(cells) => session.with_memory_cells(cells),
        None => session,
    };
    if exhaustive {
        session.with_strategy(PlacementStrategy::Exhaustive)
    } else {
        session
    }
}

/// Runs `request` on `session`, a handle whose execution policy, worker pool
/// and artifact store the caller chose; the request supplies the scope.
///
/// # Errors
///
/// Returns [`CliError::UnknownTest`] or [`CliError::UnknownFault`] for a
/// name that matches nothing, and [`CliError::Simulation`] when the scope
/// cannot host the list or the device (an undersized or unallocatable
/// memory, an out-of-range cell, a coupling primitive without aggressor).
pub(crate) fn execute(session: Session, request: &Request) -> Result<Response<'_>, CliError> {
    match request {
        Request::Coverage {
            test,
            list,
            cells,
            exhaustive,
        } => {
            let test = lookup(test)?;
            // The fallible form surfaces undersized memories (e.g. `cells`
            // 2) as a typed error instead of a panic.
            scoped(session, *cells, *exhaustive)
                .try_coverage(&test, list)
                .map(Response::Coverage)
                .map_err(simulation)
        }
        Request::Campaign {
            test,
            list,
            cells,
            sample,
            seed,
            confidence,
        } => {
            let test = lookup(test)?;
            let config = CampaignConfig::default()
                .with_draws(*sample)
                .with_seed(*seed)
                .with_confidence(*confidence);
            // Campaigns always draw from the exhaustive placement space.
            scoped(session, *cells, false)
                .try_campaign(&test, list, &config)
                .map(Response::Campaign)
                .map_err(simulation)
        }
        Request::Generate {
            list,
            cells,
            no_removal,
            order,
            name,
        } => {
            let session = scoped(session, *cells, false);
            validate_scope(&session, list)?;
            let mut config = if *no_removal {
                GeneratorConfig::without_redundancy_removal()
            } else {
                GeneratorConfig::default()
            };
            if let Some(order) = order {
                config.allowed_orders = vec![*order, AddressOrder::Any];
            }
            let generator = MarchGenerator::with_config(list.clone(), config)
                .named(name.as_deref().unwrap_or("March GEN"));
            Ok(Response::Generate {
                list,
                cells: *cells,
                generated: generator.generate_with(&session),
            })
        }
        Request::Minimise { test, list, cells } => {
            let input = lookup(test)?;
            let session = scoped(session, *cells, false);
            validate_scope(&session, list)?;
            let report = session.minimise(&input, list);
            Ok(Response::Minimise {
                list,
                input,
                report,
            })
        }
        Request::Diagnose {
            test,
            fault,
            victim,
            aggressor,
            cells,
            list,
        } => {
            let test = lookup(test)?;
            let primitive = find_primitive(fault)?;
            let injected = build_injection(&primitive, *victim, *aggressor, *cells)?;
            let session = session.with_memory_cells(*cells);
            // The device first: a memory too large to allocate fails before
            // the list is enumerated (and persisted) at its size.
            let syndrome = session.observe(&test, &injected).map_err(simulation)?;
            validate_scope(&session, list)?;
            // The memoised dictionary makes a repeated query over the same
            // (test, list, scope) one index lookup.
            let dictionary = session.dictionary(&test, list);
            Ok(Response::Diagnose {
                list,
                primitive,
                victim: *victim,
                aggressor: *aggressor,
                cells: *cells,
                report: session.diagnose(&syndrome, &dictionary),
            })
        }
    }
}

fn simulation(error: sram_sim::SimulationError) -> CliError {
    CliError::Simulation(error.to_string())
}

pub(crate) fn lookup(name: &str) -> Result<MarchTest, CliError> {
    catalog::by_name(name).ok_or_else(|| CliError::UnknownTest(name.to_string()))
}

/// Pre-validates that `session`'s scope can host `list`'s placements, turning
/// the would-be panic of the infallible generation/minimisation paths into
/// the same typed error `coverage` reports. The enumeration lands in the
/// session's artifact cache, so the later pipeline run pays nothing extra.
pub(crate) fn validate_scope(session: &Session, list: &FaultList) -> Result<(), CliError> {
    session.target_lanes(list).map(|_| ()).map_err(simulation)
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
    .map_err(simulation)
}

pub(crate) fn find_primitive(notation: &str) -> Result<FaultPrimitive, CliError> {
    Ffm::all_fault_primitives()
        .into_iter()
        .find(|fp| fp.notation() == notation.trim())
        .ok_or_else(|| CliError::UnknownFault(notation.to_string()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Command;
    use sram_sim::{ExecPolicy, SharedEngine};

    /// The request `argv` decodes into on the command line.
    fn from_argv(argv: &[&str]) -> Request {
        match Command::parse(argv.iter().map(|arg| arg.to_string())) {
            Ok(Command::Pipeline { request, .. }) => request,
            other => panic!("{argv:?} parsed to {other:?}"),
        }
    }

    /// The request a serve line decodes into.
    fn from_json(line: &str) -> Result<Request, ParseArgsError> {
        let mut object = JsonValue::parse(line).map_err(|error| ParseArgsError(error.0))?;
        let op = object.string("op")?.unwrap_or_default();
        Ok(Request::decode(&op, &mut object)?.unwrap_or_else(|| panic!("{line}: no op")))
    }

    /// The report JSON of `request` on a fresh engine, with the generator's
    /// wall-clock time cut out.
    fn report(request: &Request) -> String {
        let engine = SharedEngine::new(ExecPolicy::default());
        let json = execute(engine.session(), request)
            .unwrap_or_else(|error| panic!("{request:?}: {error}"))
            .to_json();
        match json.split_once("\"elapsed_s\": ") {
            Some((head, tail)) => format!("{head}{}", &tail[tail.find(',').unwrap_or(0)..]),
            None => json,
        }
    }

    #[test]
    fn argv_and_json_decode_to_the_same_request_and_report() {
        let pairs: [(&[&str], &str); 8] = [
            (
                &[
                    "coverage", "--test", "March C-", "--list", "1", "--cells", "6",
                ],
                r#"{"op": "coverage", "test": "March C-", "list": "1", "cells": 6}"#,
            ),
            (
                &["coverage", "--list", "unlinked", "--exhaustive"],
                r#"{"op": "coverage", "list": "unlinked", "exhaustive": true}"#,
            ),
            (
                &[
                    "coverage",
                    "--test",
                    "March SS",
                    "--list",
                    "unlinked",
                    "--sample",
                    "200",
                    "--seed",
                    "1e3",
                    "--confidence",
                    "0.9",
                ],
                r#"{"op": "campaign", "test": "March SS", "list": "unlinked", "sample": 200, "seed": 1000, "confidence": 0.9}"#,
            ),
            (
                &[
                    "generate",
                    "--list",
                    "2",
                    "--order",
                    "down",
                    "--no-removal",
                    "--name",
                    "March EQ",
                ],
                r#"{"op": "generate", "list": "2", "order": "down", "no_removal": true, "name": "March EQ"}"#,
            ),
            (
                &["minimise", "--test", "March SL", "--list", "2"],
                r#"{"op": "minimise", "test": "March SL", "list": "2"}"#,
            ),
            (
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
                    "--cells",
                    "6",
                    "--list",
                    "unlinked",
                ],
                r#"{"op": "diagnose", "test": "March SS", "fault": "<0w1;0/1/->", "victim": 4, "aggressor": 1, "cells": 6, "list": "unlinked"}"#,
            ),
            (
                &[
                    "diagnose", "--test", "MATS+", "--fault", "<1/0/->", "--victim", "2",
                    "--cells", "6", "--faults", "af",
                ],
                r#"{"op": "diagnose", "test": "MATS+", "fault": "<1/0/->", "victim": 2, "cells": 6, "faults": "af"}"#,
            ),
            (
                &[
                    "diagnose", "--test", "March SS", "--fault", "<1/0/->", "--victim", "2",
                    "--cells", "6", "--list", "2", "--faults", "all",
                ],
                r#"{"op": "diagnose", "test": "March SS", "fault": "<1/0/->", "victim": 2, "cells": 6, "list": "2", "faults": "all"}"#,
            ),
        ];
        for (argv, json) in pairs {
            let request = from_argv(argv);
            assert_eq!(from_json(json), Ok(request.clone()), "{argv:?} vs {json}");
            assert_eq!(
                report(&request),
                report(&from_json(json).unwrap()),
                "{json}"
            );
        }
    }

    #[test]
    fn both_front_ends_reject_the_same_malformed_fields() {
        // (argv, JSON line, the JSON error): each pair is refused by both.
        let pairs: [(&[&str], &str, &str); 7] = [
            (
                &["minimise", "--list", "2"],
                r#"{"op": "minimise", "list": "2"}"#,
                "minimise requires field `test`",
            ),
            (
                &["coverage", "--list", "2", "--faults", "af"],
                r#"{"op": "coverage", "list": "2", "faults": "af"}"#,
                "coverage --faults af targets only the decoder classes and would ignore --list; \
                 drop --list or use --faults all to combine the two domains",
            ),
            (
                &["coverage", "--list", "1", "--sample", "0"],
                r#"{"op": "campaign", "list": "1", "sample": 0}"#,
                "field `sample` must be at least 1",
            ),
            (
                &["coverage", "--list", "1", "--sample", "2.5"],
                r#"{"op": "campaign", "list": "1", "sample": 2.5}"#,
                "field `sample` must be a non-negative integer (at most 2^53)",
            ),
            (
                &[
                    "coverage",
                    "--list",
                    "1",
                    "--sample",
                    "9",
                    "--confidence",
                    "1",
                ],
                r#"{"op": "campaign", "list": "1", "sample": 9, "confidence": 1}"#,
                "field `confidence` must lie strictly between 0 and 1",
            ),
            (
                &["generate", "--list", "2", "--order", "sideways"],
                r#"{"op": "generate", "list": "2", "order": "sideways"}"#,
                "unknown address order `sideways`",
            ),
            (
                &[
                    "diagnose", "--test", "March SS", "--fault", "<1/0/->", "--list", "2",
                ],
                r#"{"op": "diagnose", "test": "March SS", "fault": "<1/0/->", "list": "2"}"#,
                "diagnose requires field `victim`",
            ),
        ];
        for (argv, json, message) in pairs {
            assert!(
                Command::parse(argv.iter().map(|arg| arg.to_string())).is_err(),
                "{argv:?}"
            );
            assert_eq!(
                from_json(json),
                Err(ParseArgsError(message.into())),
                "{json}"
            );
        }
    }
}
