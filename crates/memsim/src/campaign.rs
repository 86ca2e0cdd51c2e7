//! Monte-Carlo fault-injection campaigns: seeded sampling over the
//! `(target, placement, background)` instance space.
//!
//! A *campaign* draws a seeded, reproducible sample of instance lanes from
//! the exhaustive space without materialising it: every draw index is
//! **unranked** directly into its [`InstanceCells`] / background pair with
//! the closed-form arithmetic of the placement shapes (`placement.rs`),
//! which mirrors [`enumerate_placements`](crate::enumerate_placements) and
//! [`enumerate_decoder_placements`](crate::enumerate_decoder_placements).
//! Each draw then takes the verdict of its lane class: the session simulates
//! every (target, class) pair the draws hit once, projected onto at most
//! three cells and packed into shared words exactly like coverage, and
//! reports a point estimate of the detected share of lanes with a
//! Wilson-score confidence interval.
//!
//! Exhaustive coverage derives the same classes in closed form at any
//! memory size, so a campaign no longer reaches memories coverage cannot.
//! It answers a different question: coverage says which targets escape
//! under some lane, a campaign estimates what share of all lanes is
//! detected.
//!
//! The draw sequence is a pure function of the seed, so campaigns are
//! replayable: the same `(seed, scope, list)` triple visits the same lanes in
//! the same order on every backend and thread count. When the
//! requested sample covers the whole space, the campaign degenerates to an
//! exhaustive sweep (sampling without replacement, in lane order) and its
//! verdicts match exhaustive enumeration exactly.

use std::fmt;

use sram_fault_model::FaultList;

use crate::coverage::{enumerate_targets, Escape, TargetKind};
use crate::memory::check_backgrounds;
use crate::placement::{placement_shape, PlacementShape};
use crate::report::{JsonObject, Report};
use crate::{CoverageLane, InitialState, InstanceCells, PlacementStrategy, SimulationError};

/// One fault target of a campaign space: its identity, placement shape and
/// the number of `(placement, background)` lanes it contributes.
#[derive(Debug, Clone)]
struct SpaceTarget {
    target: TargetKind,
    shape: PlacementShape,
    /// Exclusive prefix sum of lane counts — the first global lane index of
    /// this target.
    first_lane: u64,
}

/// The exhaustive `(target, placement, background)` instance space of a fault
/// list on a given memory, addressable by a single `u64` lane index without
/// ever being materialised.
///
/// Lane indices follow the exhaustive enumeration order end to end: targets
/// in [`enumerate_targets`] order, placements outermost within each target,
/// backgrounds innermost — so lane `i` of the space is exactly lane `i` of
/// the concatenated [`enumerate_lanes`](crate::enumerate_lanes) output.
#[derive(Debug, Clone)]
pub struct CampaignSpace {
    targets: Vec<SpaceTarget>,
    backgrounds: Vec<InitialState>,
    memory_cells: usize,
    total: u64,
}

impl CampaignSpace {
    /// Builds the space descriptor for `list` on a `memory_cells`-cell memory
    /// under the given backgrounds.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MemoryTooSmall`] when the memory cannot
    /// host a target's placements,
    /// [`SimulationError::InitialStateSizeMismatch`] when a custom
    /// background does not match the memory size, and
    /// [`SimulationError::InvalidCampaign`] when the list or the background
    /// set is empty (an empty space cannot be sampled) or the space exceeds
    /// `u64` addressing.
    pub fn build(
        list: &FaultList,
        memory_cells: usize,
        backgrounds: &[InitialState],
    ) -> Result<CampaignSpace, SimulationError> {
        if backgrounds.is_empty() {
            return Err(SimulationError::InvalidCampaign(
                "campaigns need at least one data background".to_string(),
            ));
        }
        check_backgrounds(backgrounds, memory_cells)?;
        let mut targets = Vec::new();
        let mut total: u128 = 0;
        for target in enumerate_targets(list) {
            let shape = placement_shape(&target);
            shape.check(memory_cells)?;
            let too_large = || {
                SimulationError::InvalidCampaign(format!(
                    "the campaign space of `{}` on {memory_cells} cells exceeds 2^64 lanes",
                    list.name()
                ))
            };
            let placements = shape
                .count(memory_cells, PlacementStrategy::Exhaustive)
                .ok_or_else(too_large)?;
            let lanes = u128::from(placements) * backgrounds.len() as u128;
            if total + lanes > u128::from(u64::MAX) {
                return Err(too_large());
            }
            targets.push(SpaceTarget {
                target,
                shape,
                first_lane: total as u64,
            });
            total += lanes;
        }
        if total == 0 {
            return Err(SimulationError::InvalidCampaign(format!(
                "fault list `{}` yields an empty campaign space",
                list.name()
            )));
        }
        Ok(CampaignSpace {
            targets,
            backgrounds: backgrounds.to_vec(),
            memory_cells,
            total: total as u64,
        })
    }

    /// Total number of `(target, placement, background)` lanes of the space.
    #[must_use]
    pub fn total(&self) -> u64 {
        self.total
    }

    /// Number of fault targets contributing lanes.
    #[must_use]
    pub fn target_count(&self) -> usize {
        self.targets.len()
    }

    /// The fault target owning lanes of the `index`-th slot.
    pub(crate) fn target(&self, target_index: usize) -> &TargetKind {
        &self.targets[target_index].target
    }

    /// Decodes a global lane index into its owning target slot and concrete
    /// coverage lane.
    ///
    /// # Panics
    ///
    /// Panics when `index >= self.total()` — campaign draws are always
    /// sampled below the total.
    #[must_use]
    pub fn decode(&self, index: u64) -> (usize, CoverageLane) {
        let (slot, cells, background) = self.locate(index);
        (
            slot,
            CoverageLane {
                cells,
                background: background.clone(),
            },
        )
    }

    /// [`CampaignSpace::decode`] without cloning the background: the target
    /// slot, the placement and the background of lane `index`.
    pub(crate) fn locate(&self, index: u64) -> (usize, InstanceCells, &InitialState) {
        assert!(index < self.total, "lane index {index} out of space");
        // The last target whose first lane is <= index.
        let slot = match self.targets.binary_search_by(|t| t.first_lane.cmp(&index)) {
            Ok(exact) => exact,
            Err(insertion) => insertion - 1,
        };
        let entry = &self.targets[slot];
        let local = index - entry.first_lane;
        let n_backgrounds = self.backgrounds.len() as u64;
        let placement = entry.shape.unrank(self.memory_cells, local / n_backgrounds);
        let background = &self.backgrounds[(local % n_backgrounds) as usize];
        (slot, placement, background)
    }
}

/// A xorshift64 generator behind a splitmix64-style seed scrambler, so that
/// adjacent seeds (0, 1, 2, …) produce unrelated streams. Dependency-free and
/// byte-identical on every platform.
#[derive(Debug, Clone)]
struct Xorshift64 {
    state: u64,
}

impl Xorshift64 {
    fn new(seed: u64) -> Xorshift64 {
        // splitmix64 finaliser; xorshift must never sit at the all-zero
        // fixed point.
        let mut z = seed.wrapping_add(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        Xorshift64 {
            state: if z == 0 { 0x9E37_79B9_7F4A_7C15 } else { z },
        }
    }

    fn next(&mut self) -> u64 {
        let mut x = self.state;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.state = x;
        x
    }

    /// An unbiased draw in `0..bound` by rejection sampling: the lowest
    /// `2^64 mod bound` raw values are rejected so every residue is equally
    /// likely.
    fn next_below(&mut self, bound: u64) -> u64 {
        debug_assert!(bound > 0);
        let reject_below = bound.wrapping_neg() % bound;
        loop {
            let value = self.next();
            if value >= reject_below {
                return value % bound;
            }
        }
    }
}

/// The seeded draw sequence of a campaign over a `space_total`-lane space:
/// `draws` lane indices sampled uniformly **with replacement** — except when
/// the request covers the whole space, where the campaign degenerates to the
/// full lane sequence in order (sampling without replacement), making it
/// verdict-identical to exhaustive enumeration.
///
/// Pure function of its arguments: this is the replayability contract behind
/// `--seed`.
#[must_use]
pub fn sample_draw_indices(seed: u64, space_total: u64, draws: u64) -> Vec<u64> {
    if draws >= space_total {
        return (0..space_total).collect();
    }
    let mut rng = Xorshift64::new(seed);
    (0..draws).map(|_| rng.next_below(space_total)).collect()
}

/// The largest sample size a campaign accepts — a guard against a typo'd
/// `--sample` exhausting memory on the draw-index buffer (2^32 draws ≈ 32 GiB
/// of indices), far above what the statistics ever need.
pub const MAX_CAMPAIGN_DRAWS: u64 = 1 << 32;

/// Configuration of a Monte-Carlo coverage campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignConfig {
    /// Number of lanes to draw. Requests at or above the space size
    /// degenerate to a full exhaustive sweep (sampling without replacement).
    pub draws: u64,
    /// The xorshift seed fixing the draw sequence.
    pub seed: u64,
    /// The confidence level of the Wilson-score interval, strictly inside
    /// `(0, 1)`.
    pub confidence: f64,
    /// At most this many escape draws are kept in the replayable trace.
    pub max_escapes: usize,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            draws: 4096,
            seed: 0,
            confidence: 0.95,
            max_escapes: 32,
        }
    }
}

impl CampaignConfig {
    /// Replaces the number of draws.
    #[must_use]
    pub fn with_draws(mut self, draws: u64) -> CampaignConfig {
        self.draws = draws;
        self
    }

    /// Replaces the seed.
    #[must_use]
    pub fn with_seed(mut self, seed: u64) -> CampaignConfig {
        self.seed = seed;
        self
    }

    /// Replaces the confidence level.
    #[must_use]
    pub fn with_confidence(mut self, confidence: f64) -> CampaignConfig {
        self.confidence = confidence;
        self
    }

    /// Replaces the escape-trace bound.
    #[must_use]
    pub fn with_max_escapes(mut self, max_escapes: usize) -> CampaignConfig {
        self.max_escapes = max_escapes;
        self
    }

    /// Checks the configuration is sane.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidCampaign`] for zero draws, draw
    /// counts above [`MAX_CAMPAIGN_DRAWS`], or a confidence level that is not
    /// a finite number strictly inside `(0, 1)`.
    pub fn validate(&self) -> Result<(), SimulationError> {
        if self.draws == 0 {
            return Err(SimulationError::InvalidCampaign(
                "campaigns need at least one draw".to_string(),
            ));
        }
        if self.draws > MAX_CAMPAIGN_DRAWS {
            return Err(SimulationError::InvalidCampaign(format!(
                "campaign draw count {} exceeds the {MAX_CAMPAIGN_DRAWS} cap",
                self.draws
            )));
        }
        if !self.confidence.is_finite() || self.confidence <= 0.0 || self.confidence >= 1.0 {
            return Err(SimulationError::InvalidCampaign(format!(
                "confidence level {} is not strictly inside (0, 1)",
                self.confidence
            )));
        }
        Ok(())
    }
}

/// One undetected draw of a campaign: the position in the seeded draw
/// sequence (so `--seed` replays land on the same lane) plus the escaping
/// instance itself.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CampaignEscape {
    /// Zero-based position in the draw sequence.
    pub draw: u64,
    /// The escaping `(target, placement, background)` instance.
    pub escape: Escape,
}

/// The result of a Monte-Carlo coverage campaign: a point estimate of the
/// detected fraction of the instance space with a Wilson-score confidence
/// interval, plus a bounded replayable trace of the escapes found.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignReport {
    test_name: String,
    list_name: String,
    space: u64,
    draws: u64,
    detected: u64,
    seed: u64,
    confidence: f64,
    without_replacement: bool,
    estimate: f64,
    ci_low: f64,
    ci_high: f64,
    trace: Vec<CampaignEscape>,
    trace_truncated: bool,
}

impl CampaignReport {
    /// Assembles a report from the campaign outcome (used by
    /// `Session::campaign`).
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn new(
        test_name: &str,
        list_name: &str,
        space: u64,
        draws: u64,
        detected: u64,
        seed: u64,
        confidence: f64,
        without_replacement: bool,
        trace: Vec<CampaignEscape>,
        trace_truncated: bool,
    ) -> CampaignReport {
        let estimate = detected as f64 / draws as f64;
        let (ci_low, ci_high) = wilson_interval(detected, draws, confidence);
        CampaignReport {
            test_name: test_name.to_string(),
            list_name: list_name.to_string(),
            space,
            draws,
            detected,
            seed,
            confidence,
            without_replacement,
            estimate,
            ci_low,
            ci_high,
            trace,
            trace_truncated,
        }
    }

    /// The march test that was evaluated.
    #[must_use]
    pub fn test_name(&self) -> &str {
        &self.test_name
    }

    /// The fault list whose instance space was sampled.
    #[must_use]
    pub fn list_name(&self) -> &str {
        &self.list_name
    }

    /// Total number of `(target, placement, background)` lanes of the
    /// exhaustive space the campaign sampled from.
    #[must_use]
    pub fn space(&self) -> u64 {
        self.space
    }

    /// Number of lanes drawn and simulated.
    #[must_use]
    pub fn draws(&self) -> u64 {
        self.draws
    }

    /// Number of drawn lanes the test detected.
    #[must_use]
    pub fn detected(&self) -> u64 {
        self.detected
    }

    /// Number of drawn lanes the test missed.
    #[must_use]
    pub fn escapes_found(&self) -> u64 {
        self.draws - self.detected
    }

    /// The seed that replays this campaign's draw sequence.
    #[must_use]
    pub fn seed(&self) -> u64 {
        self.seed
    }

    /// The confidence level of [`CampaignReport::interval`].
    #[must_use]
    pub fn confidence(&self) -> f64 {
        self.confidence
    }

    /// `true` when the campaign covered the whole space in lane order
    /// (sampling without replacement) — its verdict then equals exhaustive
    /// enumeration.
    #[must_use]
    pub fn without_replacement(&self) -> bool {
        self.without_replacement
    }

    /// The point estimate of the detected fraction, in `0..=1`.
    #[must_use]
    pub fn estimate(&self) -> f64 {
        self.estimate
    }

    /// The Wilson-score confidence interval `(low, high)` of the detected
    /// fraction at [`CampaignReport::confidence`].
    #[must_use]
    pub fn interval(&self) -> (f64, f64) {
        (self.ci_low, self.ci_high)
    }

    /// The bounded escape trace, in draw order.
    #[must_use]
    pub fn trace(&self) -> &[CampaignEscape] {
        &self.trace
    }

    /// `true` when more escapes were drawn than the trace bound kept.
    #[must_use]
    pub fn trace_truncated(&self) -> bool {
        self.trace_truncated
    }
}

impl fmt::Display for CampaignReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} vs {}: {}/{} draws detected ({:.2}%), {:.0}% CI [{:.2}%, {:.2}%] over {} lanes",
            self.test_name,
            self.list_name,
            self.detected,
            self.draws,
            100.0 * self.estimate,
            100.0 * self.confidence,
            100.0 * self.ci_low,
            100.0 * self.ci_high,
            self.space
        )
    }
}

impl Report for CampaignReport {
    fn kind(&self) -> &'static str {
        "campaign"
    }

    fn summary(&self) -> String {
        self.to_string()
    }

    fn detail_lines(&self) -> Vec<String> {
        self.trace
            .iter()
            .map(|entry| format!("draw {}: {}", entry.draw, entry.escape))
            .collect()
    }

    fn to_json(&self) -> String {
        let trace = self.trace.iter().map(|entry| {
            JsonObject::new()
                .number("draw", entry.draw)
                .string("target", &entry.escape.target.to_string())
                .string("cells", &entry.escape.cells.to_string())
                .string("background", &format!("{:?}", entry.escape.background))
                .build()
        });
        JsonObject::new()
            .string("report", self.kind())
            .string("test", &self.test_name)
            .string("list", &self.list_name)
            .number("space", self.space)
            .number("draws", self.draws)
            .number("detected", self.detected)
            .number("escapes", self.escapes_found())
            .float("estimate_percent", 100.0 * self.estimate)
            .float("confidence", self.confidence)
            .float("ci_low_percent", 100.0 * self.ci_low)
            .float("ci_high_percent", 100.0 * self.ci_high)
            .number("seed", self.seed)
            .boolean("without_replacement", self.without_replacement)
            .boolean("trace_truncated", self.trace_truncated)
            .raw_array("trace", trace)
            .build()
    }
}

/// The Wilson-score interval `(low, high)` for `detected` successes out of
/// `draws` Bernoulli trials at the given confidence level — well-behaved at
/// the 0%/100% boundaries where the naive normal interval collapses.
#[must_use]
pub fn wilson_interval(detected: u64, draws: u64, confidence: f64) -> (f64, f64) {
    if draws == 0 {
        return (0.0, 1.0);
    }
    let n = draws as f64;
    let p = detected as f64 / n;
    let z = probit(1.0 - (1.0 - confidence) / 2.0);
    let z2 = z * z;
    let denominator = 1.0 + z2 / n;
    let center = (p + z2 / (2.0 * n)) / denominator;
    let half = (z / denominator) * (p * (1.0 - p) / n + z2 / (4.0 * n * n)).sqrt();
    ((center - half).max(0.0), (center + half).min(1.0))
}

/// The standard normal quantile function (inverse CDF), via Acklam's
/// rational approximation — relative error below `1.15e-9` over `(0, 1)`,
/// plenty for confidence-interval z-scores, and dependency-free.
fn probit(p: f64) -> f64 {
    const A: [f64; 6] = [
        -3.969_683_028_665_376e1,
        2.209_460_984_245_205e2,
        -2.759_285_104_469_687e2,
        1.383_577_518_672_69e2,
        -3.066_479_806_614_716e1,
        2.506_628_277_459_239,
    ];
    const B: [f64; 5] = [
        -5.447_609_879_822_406e1,
        1.615_858_368_580_409e2,
        -1.556_989_798_598_866e2,
        6.680_131_188_771_972e1,
        -1.328_068_155_288_572e1,
    ];
    const C: [f64; 6] = [
        -7.784_894_002_430_293e-3,
        -3.223_964_580_411_365e-1,
        -2.400_758_277_161_838,
        -2.549_732_539_343_734,
        4.374_664_141_464_968,
        2.938_163_982_698_783,
    ];
    const D: [f64; 4] = [
        7.784_695_709_041_462e-3,
        3.224_671_290_700_398e-1,
        2.445_134_137_142_996,
        3.754_408_661_907_416,
    ];
    const P_LOW: f64 = 0.02425;

    debug_assert!(p > 0.0 && p < 1.0);
    if p < P_LOW {
        let q = (-2.0 * p.ln()).sqrt();
        (((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0)
    } else if p <= 1.0 - P_LOW {
        let q = p - 0.5;
        let r = q * q;
        (((((A[0] * r + A[1]) * r + A[2]) * r + A[3]) * r + A[4]) * r + A[5]) * q
            / (((((B[0] * r + B[1]) * r + B[2]) * r + B[3]) * r + B[4]) * r + 1.0)
    } else {
        let q = (-2.0 * (1.0 - p).ln()).sqrt();
        -((((((C[0] * q + C[1]) * q + C[2]) * q + C[3]) * q + C[4]) * q + C[5])
            / ((((D[0] * q + D[1]) * q + D[2]) * q + D[3]) * q + 1.0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::enumerate_lanes;

    fn both_backgrounds() -> Vec<InitialState> {
        vec![InitialState::AllZero, InitialState::AllOne]
    }

    #[test]
    fn space_decode_walks_the_concatenated_lane_order() {
        for (list, cells) in [
            (FaultList::list_2(), 6usize),
            (FaultList::address_decoder(), 6),
            (FaultList::list_1().with_address_decoder_faults(), 5),
        ] {
            let backgrounds = both_backgrounds();
            let space = CampaignSpace::build(&list, cells, &backgrounds).unwrap();
            let mut reference = Vec::new();
            for (slot, target) in enumerate_targets(&list).iter().enumerate() {
                let lanes =
                    enumerate_lanes(target, cells, PlacementStrategy::Exhaustive, &backgrounds)
                        .unwrap();
                for lane in lanes {
                    reference.push((slot, lane));
                }
            }
            assert_eq!(space.total(), reference.len() as u64, "{}", list.name());
            assert_eq!(space.target_count(), enumerate_targets(&list).len());
            for (index, expected) in reference.iter().enumerate() {
                let (slot, lane) = space.decode(index as u64);
                assert_eq!(slot, expected.0, "slot at index {index} of {}", list.name());
                assert_eq!(lane, expected.1, "lane at index {index} of {}", list.name());
            }
        }
    }

    #[test]
    fn space_build_rejects_degenerate_inputs() {
        assert!(matches!(
            CampaignSpace::build(&FaultList::list_2(), 3, &both_backgrounds()),
            Err(SimulationError::MemoryTooSmall { cells: 3, .. })
        ));
        assert!(matches!(
            CampaignSpace::build(&FaultList::list_2(), 8, &[]),
            Err(SimulationError::InvalidCampaign(_))
        ));
        assert!(matches!(
            CampaignSpace::build(&FaultList::new("empty"), 8, &both_backgrounds()),
            Err(SimulationError::InvalidCampaign(_))
        ));
    }

    #[test]
    fn draw_sequences_are_seed_deterministic_and_in_range() {
        let space = 1_000_003u64;
        let first = sample_draw_indices(7, space, 256);
        let replay = sample_draw_indices(7, space, 256);
        assert_eq!(first, replay);
        assert_eq!(first.len(), 256);
        assert!(first.iter().all(|&index| index < space));
        // Adjacent seeds must not alias (the raw xorshift state is scrambled).
        for other_seed in [0u64, 1, 2, 6, 8, u64::MAX] {
            if other_seed == 7 {
                continue;
            }
            let other = sample_draw_indices(other_seed, space, 256);
            assert_ne!(first, other, "seed {other_seed} aliased seed 7");
        }
    }

    #[test]
    fn full_space_requests_degenerate_to_lane_order() {
        let full = sample_draw_indices(42, 100, 100);
        assert_eq!(full, (0..100).collect::<Vec<u64>>());
        let beyond = sample_draw_indices(42, 100, 1000);
        assert_eq!(beyond, full);
    }

    #[test]
    fn rejection_sampling_is_unbiased_over_tiny_bounds() {
        let mut rng = Xorshift64::new(3);
        let mut buckets = [0usize; 3];
        for _ in 0..30_000 {
            buckets[rng.next_below(3) as usize] += 1;
        }
        for bucket in buckets {
            assert!((9_000..11_000).contains(&bucket), "{buckets:?}");
        }
    }

    #[test]
    fn probit_matches_tabulated_quantiles() {
        for (p, expected) in [
            (0.975, 1.959_964),
            (0.995, 2.575_829),
            (0.5, 0.0),
            (0.025, -1.959_964),
            (0.01, -2.326_348),
        ] {
            assert!(
                (probit(p) - expected).abs() < 1e-5,
                "probit({p}) = {}",
                probit(p)
            );
        }
    }

    #[test]
    fn wilson_interval_brackets_the_estimate() {
        let (low, high) = wilson_interval(90, 100, 0.95);
        assert!(low < 0.9 && 0.9 < high);
        assert!(low > 0.8 && high < 0.97);
        // Boundaries stay inside [0, 1] even at p = 0 and p = 1.
        let (zero_low, zero_high) = wilson_interval(0, 50, 0.95);
        assert!(zero_low == 0.0 && zero_high > 0.0 && zero_high < 0.2);
        let (one_low, one_high) = wilson_interval(50, 50, 0.95);
        assert!(one_high > 0.999_999 && one_low < 1.0 && one_low > 0.8);
        // Higher confidence widens the interval.
        let (wide_low, wide_high) = wilson_interval(90, 100, 0.99);
        assert!(wide_low < low && wide_high > high);
        assert_eq!(wilson_interval(0, 0, 0.95), (0.0, 1.0));
    }

    #[test]
    fn config_validation_rejects_degenerate_values() {
        assert!(CampaignConfig::default().validate().is_ok());
        for bad in [
            CampaignConfig::default().with_draws(0),
            CampaignConfig::default().with_draws(MAX_CAMPAIGN_DRAWS + 1),
            CampaignConfig::default().with_confidence(0.0),
            CampaignConfig::default().with_confidence(1.0),
            CampaignConfig::default().with_confidence(f64::NAN),
            CampaignConfig::default().with_confidence(f64::INFINITY),
            CampaignConfig::default().with_confidence(-0.5),
        ] {
            assert!(
                matches!(bad.validate(), Err(SimulationError::InvalidCampaign(_))),
                "{bad:?}"
            );
        }
    }
}
