//! The session execution API: one long-lived engine handle for the whole
//! pipeline.
//!
//! A [`Session`] is built **once** from an [`ExecPolicy`] and owns everything
//! execution-related: the simulation backend instance, the candidate-batching
//! and cost-model knobs, and — when the policy asks for more than one worker
//! thread — a persistent [`WorkerPool`] that outlives individual queries, so
//! repeated coverage / generation / diagnosis calls stop paying per-call
//! thread spawn. Every result is byte-identical to the legacy free functions
//! (`measure_coverage`, `run_march`, `diagnose`), which are now thin shims
//! constructing a throwaway session.
//!
//! A session built with [`Session::new`] owns a *private*
//! [`ArtifactStore`](crate::ArtifactStore) and pool; sessions handed out by a
//! [`SharedEngine`](crate::SharedEngine) are cheap handles onto one shared
//! store and one resident pool, so many concurrent sessions amortise the same
//! warm cache.

use std::collections::BTreeMap;
use std::fmt;
use std::ops::Deref;
use std::sync::Arc;

use march_test::MarchTest;
use sram_fault_model::FaultList;

use crate::backend::{shape_lanes, SimulationBackend};
use crate::campaign::{sample_draw_indices, CampaignConfig, CampaignEscape, CampaignReport};
use crate::coverage::{
    assemble_coverage_report, enumerate_targets, lane_escape, Escape, TargetKind,
};
use crate::diagnose::{enumerate_diagnosis_instances, inject_diagnosis_instance};
use crate::memory::check_backgrounds;
use crate::parallel::WorkerPool;
use crate::placement::{placement_shape, PlacementShape};
use crate::projection::{self, Classes};
use crate::report::DiagnosisReport;
use crate::run::run_march;
use crate::store::{ArtifactKey, ArtifactStore, DictionaryKey};
use crate::sync::OnceLock;
use crate::{
    CampaignSpace, CoverageConfig, CoverageLane, CoverageReport, DiagnosisCandidate, ExecPolicy,
    FaultDictionary, FaultSimulator, InitialState, InjectedFault, InstanceCells,
    LinkedFaultInstance, MarchRun, PlacementStrategy, Result, Syndrome,
};

/// How many diagnosis instances one sweep shard simulates: large enough to
/// amortise the per-shard fault-free simulator, small enough that the shards
/// of a representative sweep still spread over every worker.
const DIAGNOSIS_SHARD: usize = 256;

/// How many campaign draws one shard decodes and simulates: a multiple of
/// the widest packed lane word (256), so each shard's per-target lane groups
/// fill whole simulation waves, while typical sample sizes still shard over
/// every worker.
const CAMPAIGN_SHARD: usize = 2048;

/// Every fault target of a list, in [`enumerate_targets`] order, with the
/// coverage lanes it is simulated under — the session-cached setup artifact
/// shared by coverage measurement, the greedy generator and the
/// redundancy-removal pass.
///
/// A target's lanes depend only on its placement shape (single cell, cell
/// pair, cell triple, decoder single address or decoder pair), so the
/// targets of one shape hold the **same** [`LaneSet`]: a list has at most
/// five distinct sets however many targets it has. Compare entries with
/// [`Arc::ptr_eq`] to see the sharing.
pub type TargetLanes = Vec<(TargetKind, Arc<LaneSet>)>;

/// The coverage lanes shared by every target of one placement shape under
/// one simulation scope: every placement crossed with every background,
/// placements outermost.
///
/// A set derefs to `[CoverageLane]`, so it reads like the lane vector it
/// wraps. It also memoises its partition into projected lane classes (see
/// `projection.rs`), built on first use: the class codes, first lanes and
/// projected representatives depend only on the lanes, so every target
/// sharing the set reuses them and coverage only simulates each target's
/// fault on the representatives.
pub struct LaneSet {
    lanes: Vec<CoverageLane>,
    classes: OnceLock<Classes>,
}

impl LaneSet {
    pub(crate) fn new(lanes: Vec<CoverageLane>) -> LaneSet {
        LaneSet {
            lanes,
            classes: OnceLock::new(),
        }
    }

    /// The set's lane classes, partitioned on first use.
    pub(crate) fn classes(&self) -> &Classes {
        self.classes.get_or_init(|| Classes::of(&self.lanes))
    }
}

impl Deref for LaneSet {
    type Target = [CoverageLane];

    fn deref(&self) -> &[CoverageLane] {
        &self.lanes
    }
}

impl PartialEq for LaneSet {
    fn eq(&self, other: &LaneSet) -> bool {
        self.lanes == other.lanes
    }
}

impl fmt::Debug for LaneSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.lanes.fmt(f)
    }
}

/// Pairs every one of `targets` with the lane set of its placement shape.
/// `set_of` runs once per distinct shape, in the order the shapes first
/// appear among the targets, and every target of that shape shares its set.
pub(crate) fn share_by_shape<E>(
    targets: Vec<TargetKind>,
    mut set_of: impl FnMut(PlacementShape) -> std::result::Result<LaneSet, E>,
) -> std::result::Result<TargetLanes, E> {
    let mut sets: Vec<(PlacementShape, Arc<LaneSet>)> = Vec::new();
    let mut entries = Vec::with_capacity(targets.len());
    for target in targets {
        let shape = placement_shape(&target);
        let set = match sets.iter().find(|(seen, _)| *seen == shape) {
            Some((_, set)) => Arc::clone(set),
            None => {
                let set = Arc::new(set_of(shape)?);
                sets.push((shape, Arc::clone(&set)));
                set
            }
        };
        entries.push((target, set));
    }
    Ok(entries)
}

/// A reusable engine handle owning the execution policy and the resident
/// worker pool of the simulation pipeline.
///
/// The session also carries the *simulation scope* — memory size, placement
/// strategy and data backgrounds — defaulting to the paper's thorough
/// verification setup (8 cells, representative placements, both uniform
/// backgrounds). Execution policy is fixed at construction; the scope is
/// adjustable with the builder methods.
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::FaultList;
/// use sram_sim::{ExecPolicy, Session};
///
/// let session = Session::new(ExecPolicy::default().with_threads(2));
/// // Repeated queries re-use the same worker pool...
/// let ss = session.coverage(&catalog::march_ss(), &FaultList::unlinked_static());
/// let sl = session.coverage(&catalog::march_sl(), &FaultList::list_2());
/// assert!(ss.is_complete() && sl.is_complete());
/// // ...no new workers were spawned between the calls.
/// assert_eq!(session.workers_spawned(), 1);
/// ```
#[derive(Debug)]
pub struct Session {
    policy: ExecPolicy,
    memory_cells: usize,
    strategy: PlacementStrategy,
    backgrounds: Vec<InitialState>,
    backend: Arc<dyn SimulationBackend>,
    /// `Arc`'d so sessions handed out by one
    /// [`SharedEngine`](crate::SharedEngine) multiplex over a single resident
    /// pool instead of spawning per handle.
    pool: Option<Arc<WorkerPool>>,
    /// The artifact store backing the session: memoised per-`(list, scope)`
    /// target-lane enumerations and per-`(test, list contents, scope)` fault
    /// dictionaries under immutable content-fingerprint keys. Private per
    /// session by default; shared process-wide behind a
    /// [`SharedEngine`](crate::SharedEngine).
    store: Arc<ArtifactStore>,
}

impl Default for Session {
    fn default() -> Self {
        Session::new(ExecPolicy::default())
    }
}

impl Session {
    /// Builds a session from `policy`, spawning the resident worker pool when
    /// the policy resolves to more than one thread. The simulation scope
    /// defaults to [`CoverageConfig::thorough`]: an 8-cell memory,
    /// representative placements, detection required under both uniform
    /// backgrounds.
    #[must_use]
    pub fn new(policy: ExecPolicy) -> Session {
        let pool = match policy.threads {
            1 => None,
            threads => Some(Arc::new(WorkerPool::new(threads))),
        };
        Session::with_shared(policy, pool, Arc::new(ArtifactStore::new()))
    }

    /// Builds a cheap handle over already-shared state: the pool and store
    /// are `Arc` bumps, not fresh resources. This is how
    /// [`SharedEngine::session`](crate::SharedEngine::session) stamps out
    /// handles.
    pub(crate) fn with_shared(
        policy: ExecPolicy,
        pool: Option<Arc<WorkerPool>>,
        store: Arc<ArtifactStore>,
    ) -> Session {
        let scope = CoverageConfig::thorough();
        Session {
            policy,
            memory_cells: scope.memory_cells,
            strategy: scope.strategy,
            backgrounds: scope.backgrounds,
            backend: Arc::from(policy.backend.instance_with(policy.lane_width)),
            pool,
            store,
        }
    }

    /// Builds a session whose scope *and* policy mirror a legacy
    /// [`CoverageConfig`] — the bridge the deprecated free functions use.
    #[must_use]
    pub fn from_coverage_config(config: &CoverageConfig) -> Session {
        Session::new(
            ExecPolicy::default()
                .with_backend(config.backend)
                .with_threads(config.threads)
                .with_lane_width(config.lane_width),
        )
        .with_memory_cells(config.memory_cells)
        .with_strategy(config.strategy)
        .with_backgrounds(config.backgrounds.clone())
    }

    /// Replaces the simulated memory size (≥ 4 cells).
    #[must_use]
    pub fn with_memory_cells(mut self, memory_cells: usize) -> Session {
        self.memory_cells = memory_cells;
        self
    }

    /// Replaces the placement-enumeration strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: PlacementStrategy) -> Session {
        self.strategy = strategy;
        self
    }

    /// Replaces the data backgrounds each fault must be detected under.
    #[must_use]
    pub fn with_backgrounds(mut self, backgrounds: Vec<InitialState>) -> Session {
        self.backgrounds = backgrounds;
        self
    }

    /// The execution policy the session was built from.
    #[must_use]
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// The simulated memory size in cells.
    #[must_use]
    pub fn memory_cells(&self) -> usize {
        self.memory_cells
    }

    /// The placement-enumeration strategy.
    #[must_use]
    pub fn strategy(&self) -> PlacementStrategy {
        self.strategy
    }

    /// The data backgrounds each fault must be detected under.
    #[must_use]
    pub fn backgrounds(&self) -> &[InitialState] {
        &self.backgrounds
    }

    /// The session's backend instance (shared, stateless).
    #[must_use]
    pub fn backend_instance(&self) -> Arc<dyn SimulationBackend> {
        Arc::clone(&self.backend)
    }

    /// The legacy [`CoverageConfig`] equivalent of this session — what the
    /// deprecated free-function path would have been called with.
    #[must_use]
    pub fn coverage_config(&self) -> CoverageConfig {
        CoverageConfig {
            memory_cells: self.memory_cells,
            strategy: self.strategy,
            backgrounds: self.backgrounds.clone(),
            backend: self.policy.backend,
            threads: self.policy.threads,
            lane_width: self.policy.lane_width,
        }
    }

    /// Returns `true` when the session owns a worker pool (resolved thread
    /// count > 1); `false` means every query runs serially on the caller.
    #[must_use]
    pub fn is_parallel(&self) -> bool {
        self.pool.is_some()
    }

    /// Total worker threads spawned since the session was built. Stays
    /// constant across queries — the observable pool-reuse guarantee.
    #[must_use]
    pub fn workers_spawned(&self) -> usize {
        self.pool.as_ref().map_or(0, |pool| pool.workers_spawned())
    }

    /// Number of fan-out jobs the session's pool has executed.
    #[must_use]
    pub fn jobs_executed(&self) -> usize {
        self.pool.as_ref().map_or(0, |pool| pool.generation())
    }

    /// Number of times a query was answered from the session's artifact store
    /// instead of re-enumerating target lanes — the observable caching
    /// guarantee, mirroring [`Session::workers_spawned`] for the pool. When
    /// the store is shared, this counts hits **across** every attached
    /// session.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.store.hits()
    }

    /// Number of distinct `(list, scope)` enumerations the session's store
    /// has cached.
    #[must_use]
    pub fn cached_artifacts(&self) -> usize {
        self.store.cached_artifacts()
    }

    /// Number of distinct `(test, list, scope)` fault dictionaries the
    /// session's store has cached.
    #[must_use]
    pub fn cached_dictionaries(&self) -> usize {
        self.store.cached_dictionaries()
    }

    /// The artifact store backing the session — shared with every other
    /// session handle of the same [`SharedEngine`](crate::SharedEngine).
    #[must_use]
    pub fn store(&self) -> Arc<ArtifactStore> {
        Arc::clone(&self.store)
    }

    /// Every fault target of `list` with its coverage lanes under the
    /// session's scope, memoised for the session's lifetime: the first call
    /// per `(list, scope)` enumerates, every later one returns the shared
    /// [`Arc`] (observable through [`Session::cache_hits`]).
    ///
    /// The enumeration runs once per placement shape, not once per target:
    /// every target of one shape holds the same [`LaneSet`], so exhaustive
    /// Fault List #1 at 16 cells (844 targets, 2.84M lanes when counted per
    /// target) enumerates 7,232 distinct lanes in three sets. A snapshot
    /// replay restores the same sharing.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MemoryTooSmall`](crate::SimulationError)
    /// when the session's memory cannot host the list's placements, and
    /// [`SimulationError::InitialStateSizeMismatch`](crate::SimulationError)
    /// when a custom background does not match the memory size.
    ///
    /// # Examples
    ///
    /// ```
    /// use sram_fault_model::FaultList;
    /// use sram_sim::Session;
    ///
    /// let session = Session::default();
    /// let first = session.target_lanes(&FaultList::list_2()).unwrap();
    /// let second = session.target_lanes(&FaultList::list_2()).unwrap();
    /// assert!(std::sync::Arc::ptr_eq(&first, &second));
    /// assert_eq!(session.cache_hits(), 1);
    /// // List #2 holds only single-cell linked faults: one shared lane set.
    /// assert!(first.iter().all(|(_, lanes)| std::sync::Arc::ptr_eq(lanes, &first[0].1)));
    /// ```
    pub fn target_lanes(&self, list: &FaultList) -> Result<Arc<TargetLanes>> {
        self.target_lanes_scoped(list, self.memory_cells, self.strategy, &self.backgrounds)
    }

    /// Like [`Session::target_lanes`] with an explicit simulation scope —
    /// the entry point for pipeline stages (generator, minimiser) whose
    /// configuration may override the session's own scope. The cache is
    /// shared: entries are keyed by `(list contents, scope)`.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MemoryTooSmall`](crate::SimulationError)
    /// when `memory_cells` cannot host the list's placements, and
    /// [`SimulationError::InitialStateSizeMismatch`](crate::SimulationError)
    /// when a custom background does not match `memory_cells`.
    pub fn target_lanes_scoped(
        &self,
        list: &FaultList,
        memory_cells: usize,
        strategy: PlacementStrategy,
        backgrounds: &[InitialState],
    ) -> Result<Arc<TargetLanes>> {
        check_backgrounds(backgrounds, memory_cells)?;
        let key = ArtifactKey::new(list, memory_cells, strategy, backgrounds);
        let snapshots = self.store.snapshots();
        self.store.target_lanes(&key, || {
            // Replay the crash-safe snapshot first, when one is attached: a
            // valid file short-circuits the whole enumeration, anything else
            // (miss, corruption, I/O failure) degrades to the build below.
            if let Some(snapshots) = &snapshots {
                if let Some(lanes) = snapshots.load_lanes(&key, list) {
                    return Ok(Arc::new(lanes));
                }
            }
            let entries = share_by_shape(enumerate_targets(list), |shape| {
                shape_lanes(shape, memory_cells, strategy, backgrounds).map(LaneSet::new)
            })?;
            let built = Arc::new(entries);
            if let Some(snapshots) = &snapshots {
                snapshots.store_lanes(&key, &built);
            }
            Ok(built)
        })
    }

    /// Fans `map` out over the session's resident workers, returning results
    /// in item order (serially on the caller when the session is not
    /// parallel). This is the deterministic-merge primitive the downstream
    /// crates (generator, minimiser) build their sharding on.
    pub fn execute<T, R, F>(&self, items: Arc<Vec<T>>, map: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        match &self.pool {
            Some(pool) => pool.map(items, map),
            None => items.iter().map(map).collect(),
        }
    }

    /// Measures the coverage of `test` over `list` under the session's scope
    /// and policy — the session form of
    /// [`measure_coverage`](crate::measure_coverage), byte-identical to it for
    /// every backend and thread count.
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::catalog;
    /// use sram_fault_model::FaultList;
    /// use sram_sim::Session;
    ///
    /// let session = Session::default();
    /// let report = session.coverage(&catalog::march_ss(), &FaultList::unlinked_static());
    /// assert!(report.is_complete());
    /// ```
    #[must_use]
    pub fn coverage(&self, test: &MarchTest, list: &FaultList) -> CoverageReport {
        // lint: allow(unwrap) — the infallible convenience wrapper; callers
        // that can see scope errors use `try_coverage` instead.
        self.try_coverage(test, list).expect(
            "session scope hosts the fault-list placements (try_coverage surfaces the error)",
        )
    }

    /// Fallible form of [`Session::coverage`]: the byte-identical report, or
    /// a typed error when the session's memory scope cannot host the list's
    /// placements (e.g. fewer than 4 cells for linked faults) or a custom
    /// background does not match the memory size.
    ///
    /// Each target's lanes are projected onto the at most three cells they
    /// involve and simulated once per lane class (see the crate docs), so
    /// the cost per lane does not grow with the memory size. The partition
    /// into classes is memoised per [`LaneSet`], so a request costs one
    /// partition per distinct set plus one backend call per target.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::MemoryTooSmall`](crate::SimulationError)
    /// for undersized memories and
    /// [`SimulationError::InitialStateSizeMismatch`](crate::SimulationError)
    /// for mis-sized custom backgrounds.
    pub fn try_coverage(&self, test: &MarchTest, list: &FaultList) -> Result<CoverageReport> {
        let target_lanes = self.target_lanes(list)?;
        let first_escapes: Vec<Option<Escape>> = match &self.pool {
            Some(pool) => {
                let test = test.clone();
                let backend = Arc::clone(&self.backend);
                pool.map(Arc::clone(&target_lanes), move |(target, lanes)| {
                    lane_escape(backend.as_ref(), &test, target, lanes)
                })
            }
            None => target_lanes
                .iter()
                .map(|(target, lanes)| lane_escape(self.backend.as_ref(), test, target, lanes))
                .collect(),
        };
        let targets: Vec<TargetKind> = target_lanes
            .iter()
            .map(|(target, _)| target.clone())
            .collect();
        Ok(assemble_coverage_report(
            test.name(),
            list.name(),
            &targets,
            first_escapes,
        ))
    }

    /// Runs a seeded Monte-Carlo coverage campaign of `test` over `list`:
    /// `config.draws` lanes are sampled from the **exhaustive**
    /// `(target, placement, background)` instance space (regardless of the
    /// session's placement strategy — sampling only makes sense over the full
    /// space), projected onto their involved cells and simulated once per
    /// lane class by the session's backend, like coverage, and summarised as
    /// a point estimate with a Wilson-score confidence interval.
    ///
    /// The draw sequence is a pure function of `config.seed` and the space,
    /// and shards merge deterministically in draw order, so the report is
    /// byte-identical across backends, thread counts and lane widths. A
    /// request covering the whole space degenerates to sampling without
    /// replacement in lane order — verdict-identical to
    /// [`Session::try_coverage`] under exhaustive placements.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError::InvalidCampaign`](crate::SimulationError)
    /// for a degenerate configuration or an empty space,
    /// [`SimulationError::MemoryTooSmall`](crate::SimulationError) when the
    /// session's memory cannot host the list's placements, and
    /// [`SimulationError::InitialStateSizeMismatch`](crate::SimulationError)
    /// for mis-sized custom backgrounds.
    pub fn try_campaign(
        &self,
        test: &MarchTest,
        list: &FaultList,
        config: &CampaignConfig,
    ) -> Result<CampaignReport> {
        config.validate()?;
        let space = Arc::new(CampaignSpace::build(
            list,
            self.memory_cells,
            &self.backgrounds,
        )?);
        let without_replacement = config.draws >= space.total();
        let indices = sample_draw_indices(config.seed, space.total(), config.draws);
        let draws = indices.len() as u64;
        let shards: Vec<Vec<u64>> = indices.chunks(CAMPAIGN_SHARD).map(<[_]>::to_vec).collect();
        let verdict_shards: Vec<Vec<bool>> = {
            let test = test.clone();
            let backend = Arc::clone(&self.backend);
            let space = Arc::clone(&space);
            self.execute(Arc::new(shards), move |shard| {
                campaign_shard_verdicts(backend.as_ref(), &test, &space, shard)
            })
        };
        let verdicts: Vec<bool> = verdict_shards.into_iter().flatten().collect();
        let detected = verdicts.iter().filter(|&&lane| lane).count() as u64;
        let mut trace = Vec::new();
        let mut truncated = false;
        for (position, (&index, _)) in indices
            .iter()
            .zip(&verdicts)
            .enumerate()
            .filter(|(_, (_, &detected_lane))| !detected_lane)
        {
            if trace.len() >= config.max_escapes {
                truncated = true;
                break;
            }
            let (slot, lane) = space.decode(index);
            trace.push(CampaignEscape {
                draw: position as u64,
                escape: Escape {
                    target: space.target(slot).clone(),
                    cells: lane.cells,
                    background: lane.background,
                },
            });
        }
        Ok(CampaignReport::new(
            test.name(),
            list.name(),
            space.total(),
            draws,
            detected,
            config.seed,
            config.confidence,
            without_replacement,
            trace,
            truncated,
        ))
    }

    /// Infallible form of [`Session::try_campaign`] for validated
    /// configurations.
    ///
    /// # Panics
    ///
    /// Panics when the configuration or the session scope is degenerate —
    /// callers that can see those errors use [`Session::try_campaign`].
    #[must_use]
    pub fn campaign(
        &self,
        test: &MarchTest,
        list: &FaultList,
        config: &CampaignConfig,
    ) -> CampaignReport {
        self.try_campaign(test, list, config)
            // lint: allow(unwrap) — the infallible convenience wrapper; callers
            // that can see configuration errors use `try_campaign` instead.
            .expect("campaign configuration is valid (try_campaign surfaces the error)")
    }

    /// Executes `test` against a memory with `fault` injected, under the
    /// session's memory size and first background — the session form of
    /// [`run_march`](crate::run_march).
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`](crate::SimulationError) when the session's
    /// memory scope cannot host the fault instance.
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::catalog;
    /// use sram_fault_model::Ffm;
    /// use sram_sim::{InjectedFault, Session};
    ///
    /// let session = Session::default();
    /// let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
    /// let fault = InjectedFault::single_cell(tf, 3, session.memory_cells())?;
    /// let run = session.run(&catalog::march_ss(), &fault)?;
    /// assert!(run.detected());
    /// # Ok::<(), sram_sim::SimulationError>(())
    /// ```
    pub fn run(&self, test: &MarchTest, fault: &InjectedFault) -> Result<MarchRun> {
        let mut simulator = self.device()?;
        simulator.inject(fault.clone());
        Ok(run_march(test, &mut simulator))
    }

    /// Like [`Session::run`] for a linked-fault instance.
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`](crate::SimulationError) when the session's
    /// memory scope cannot host the instance.
    pub fn run_linked(&self, test: &MarchTest, fault: &LinkedFaultInstance) -> Result<MarchRun> {
        let mut simulator = self.device()?;
        simulator.inject_linked(fault);
        Ok(run_march(test, &mut simulator))
    }

    /// Builds a [`FaultDictionary`] for `test` over `list` under the session's
    /// scope — the pre-computed syndrome database
    /// [`Session::diagnose`] looks candidates up in.
    ///
    /// Dictionaries are memoised per `(test, list contents, scope)` through
    /// the session's artifact cache: the first call per key simulates the
    /// whole fault space, every later one returns the shared [`Arc`]
    /// (observable through [`Session::cache_hits`], exactly like the
    /// target-lane cache). Keys are immutable, so entries are never
    /// invalidated.
    #[must_use]
    pub fn dictionary(&self, test: &MarchTest, list: &FaultList) -> Arc<FaultDictionary> {
        // Dictionaries always enumerate placements exhaustively (diagnosis
        // needs localisation) and simulate only the first data background, so
        // the key carries exactly that scope: sessions differing only in
        // coverage strategy or trailing backgrounds share one entry.
        let background = self
            .backgrounds
            .first()
            .cloned()
            .unwrap_or(InitialState::AllOne);
        let key = DictionaryKey::new(test, list, self.memory_cells, background);
        let snapshots = self.store.snapshots();
        self.store.dictionary(&key, || {
            if let Some(snapshots) = &snapshots {
                if let Some(dictionary) = snapshots.load_dictionary(&key, list) {
                    return Arc::new(dictionary);
                }
            }
            let built = Arc::new(FaultDictionary::build(test, list, &self.coverage_config()));
            if let Some(snapshots) = &snapshots {
                snapshots.store_dictionary(&key, &built, list);
            }
            built
        })
    }

    /// Diagnoses an observed `syndrome` against a pre-computed fault
    /// `dictionary`: the returned report holds every fault instance whose
    /// recorded syndrome equals the observed one (one index lookup — the fast
    /// path for repeated queries against the same test and fault space).
    ///
    /// # Examples
    ///
    /// ```
    /// use march_test::catalog;
    /// use sram_fault_model::{FaultListBuilder, Ffm};
    /// use sram_sim::{InjectedFault, Report, Session, Syndrome};
    ///
    /// let session = Session::default().with_memory_cells(6);
    /// let list = FaultListBuilder::new("tf").family(Ffm::TransitionFault).build()?;
    /// let dictionary = session.dictionary(&catalog::march_ss(), &list);
    ///
    /// // A device with an (unknown to us) transition fault on cell 4.
    /// let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
    /// let fault = InjectedFault::single_cell(tf, 4, 6)?;
    /// let syndrome = session.observe(&catalog::march_ss(), &fault)?;
    ///
    /// let report = session.diagnose(&syndrome, &dictionary);
    /// assert!(report.candidates().iter().all(|c| c.cells.victim == 4));
    /// println!("{}", report.to_json());
    /// # Ok::<(), Box<dyn std::error::Error>>(())
    /// ```
    #[must_use]
    pub fn diagnose(&self, syndrome: &Syndrome, dictionary: &FaultDictionary) -> DiagnosisReport {
        let candidates = dictionary
            .lookup(syndrome)
            .into_iter()
            .filter(|entry| !entry.syndrome.is_empty())
            .map(|entry| crate::DiagnosisCandidate {
                target: entry.target.clone(),
                cells: entry.cells,
            })
            .collect();
        DiagnosisReport::new(dictionary.test_name(), syndrome.clone(), candidates)
    }

    /// Diagnoses `syndrome` by a full simulation sweep of `list` under `test`
    /// — the session form of [`diagnose`](crate::diagnose()), for one-off
    /// queries where building a dictionary would not amortise.
    ///
    /// The sweep shards its instance space over the session's resident worker
    /// pool in fixed-size ranges; each shard re-uses one scratch simulator
    /// (reset per instance with `clone_from`, so the memory buffers are
    /// allocated once per shard, not once per instance). Shard results are
    /// concatenated in enumeration order, so the report is byte-identical to
    /// the free function at every thread count.
    #[must_use]
    pub fn diagnose_sweep(
        &self,
        test: &MarchTest,
        syndrome: &Syndrome,
        list: &FaultList,
    ) -> DiagnosisReport {
        if syndrome.is_empty() {
            return DiagnosisReport::new(test.name(), syndrome.clone(), Vec::new());
        }
        let instances = enumerate_diagnosis_instances(list, &self.coverage_config());
        let shards: Vec<Vec<(TargetKind, InstanceCells)>> = instances
            .chunks(DIAGNOSIS_SHARD)
            .map(<[_]>::to_vec)
            .collect();
        let test_owned = test.clone();
        let observed = syndrome.clone();
        let memory_cells = self.memory_cells;
        let background = self
            .backgrounds
            .first()
            .cloned()
            .unwrap_or(InitialState::AllOne);
        let matches: Vec<Vec<DiagnosisCandidate>> = self.execute(Arc::new(shards), move |shard| {
            let pristine = FaultSimulator::new(memory_cells, &background)
                // lint: allow(unwrap) — the same scope was validated when the
                // session enumerated the fault list; a failure here means the
                // validation upstream regressed.
                .expect("diagnosis memory configuration is valid");
            let mut scratch = pristine.clone();
            let mut found = Vec::new();
            for (target, cells) in shard {
                scratch.clone_from(&pristine);
                inject_diagnosis_instance(&mut scratch, target, *cells, memory_cells);
                if Syndrome::observe(&test_owned, &mut scratch) == observed {
                    found.push(DiagnosisCandidate {
                        target: target.clone(),
                        cells: *cells,
                    });
                }
            }
            found
        });
        DiagnosisReport::new(
            test.name(),
            syndrome.clone(),
            matches.into_iter().flatten().collect(),
        )
    }

    /// Runs `test` on a device carrying `fault` and returns the observed
    /// syndrome — the input to [`Session::diagnose`].
    ///
    /// # Errors
    ///
    /// Returns [`SimulationError`](crate::SimulationError) when the session's
    /// memory scope cannot host the fault instance.
    pub fn observe(&self, test: &MarchTest, fault: &InjectedFault) -> Result<Syndrome> {
        let mut simulator = self.device()?;
        simulator.inject(fault.clone());
        Ok(Syndrome::observe(test, &mut simulator))
    }

    /// A fresh fault-free simulator with the session's memory size and first
    /// background (all-zero under the default thorough scope).
    fn device(&self) -> Result<FaultSimulator> {
        let background = self
            .backgrounds
            .first()
            .cloned()
            .unwrap_or(InitialState::AllOne);
        FaultSimulator::new(self.memory_cells, &background)
    }
}

/// The detection verdicts of one campaign shard, in draw order: the shard's
/// draws are decoded, grouped per target (remembering each draw's slot), and
/// every group is projected onto its lane classes, whose representatives the
/// backend simulates in one call, before the verdicts scatter back to their
/// draw positions.
fn campaign_shard_verdicts(
    backend: &dyn SimulationBackend,
    test: &MarchTest,
    space: &CampaignSpace,
    shard: &[u64],
) -> Vec<bool> {
    let mut groups: BTreeMap<usize, (Vec<usize>, Vec<CoverageLane>)> = BTreeMap::new();
    for (position, &index) in shard.iter().enumerate() {
        let (slot, lane) = space.decode(index);
        let entry = groups.entry(slot).or_default();
        entry.0.push(position);
        entry.1.push(lane);
    }
    let mut verdicts = vec![false; shard.len()];
    for (slot, (positions, lanes)) in groups {
        let group = projection::lane_verdicts(backend, test, space.target(slot), &lanes);
        for (position, verdict) in positions.into_iter().zip(group) {
            verdicts[position] = verdict;
        }
    }
    verdicts
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{diagnose, measure_coverage, BackendKind, LaneWidth, Report as _};
    use march_test::catalog;
    use sram_fault_model::Ffm;

    #[test]
    fn session_coverage_matches_the_legacy_path() {
        let list = FaultList::list_2();
        let test = catalog::march_c_minus();
        let legacy = measure_coverage(&test, &list, &CoverageConfig::thorough());
        for threads in [1usize, 2, 0] {
            for backend in [BackendKind::Scalar, BackendKind::Packed] {
                let session = Session::new(
                    ExecPolicy::default()
                        .with_backend(backend)
                        .with_threads(threads),
                );
                assert_eq!(
                    session.coverage(&test, &list),
                    legacy,
                    "backend {backend}, {threads} threads"
                );
            }
        }
    }

    #[test]
    fn two_sequential_calls_share_the_pool() {
        let session = Session::new(ExecPolicy::default().with_threads(4));
        assert!(session.is_parallel());
        let spawned = session.workers_spawned();
        assert_eq!(spawned, 3);
        let list = FaultList::list_1();
        let _ = session.coverage(&catalog::march_sl(), &list);
        assert_eq!(session.workers_spawned(), spawned);
        let _ = session.coverage(&catalog::march_ss(), &list);
        assert_eq!(session.workers_spawned(), spawned);
        assert_eq!(session.jobs_executed(), 2);
    }

    #[test]
    fn serial_sessions_spawn_nothing() {
        let session = Session::default();
        assert!(!session.is_parallel());
        assert_eq!(session.workers_spawned(), 0);
        let _ = session.coverage(&catalog::march_ss(), &FaultList::unlinked_static());
        assert_eq!(session.workers_spawned(), 0);
        assert_eq!(session.jobs_executed(), 0);
    }

    #[test]
    fn run_and_observe_match_the_manual_simulator() {
        let session = Session::default();
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let fault = InjectedFault::single_cell(tf, 3, 8).unwrap();
        let run = session.run(&catalog::march_ss(), &fault).unwrap();

        let mut manual = FaultSimulator::new(8, &InitialState::AllZero).unwrap();
        manual.inject(fault.clone());
        let reference = run_march(&catalog::march_ss(), &mut manual);
        assert_eq!(run, reference);
        assert_eq!(
            session.observe(&catalog::march_ss(), &fault).unwrap(),
            Syndrome::from_run(&reference)
        );
    }

    #[test]
    fn dictionary_diagnosis_round_trip() {
        let session = Session::default().with_memory_cells(6);
        let list = FaultList::list_2();
        let dictionary = session.dictionary(&catalog::march_abl1(), &list);
        let fault = list.linked()[0].clone();
        let cells =
            crate::enumerate_placements(fault.topology(), 6, PlacementStrategy::Representative)
                .unwrap()[0];
        let instance = LinkedFaultInstance::new(fault, cells, 6).unwrap();
        let run = session
            .run_linked(&catalog::march_abl1(), &instance)
            .unwrap();
        let syndrome = Syndrome::from_run(&run);
        assert!(!syndrome.is_empty());
        let report = session.diagnose(&syndrome, &dictionary);
        assert!(!report.is_unexplained());
        assert!(report
            .candidates()
            .iter()
            .any(|candidate| candidate.cells == cells));
    }

    #[test]
    fn sweep_diagnosis_matches_the_free_function() {
        let session = Session::default().with_memory_cells(6);
        let tf = Ffm::TransitionFault.fault_primitives()[0].clone();
        let fault = InjectedFault::single_cell(tf, 2, 6).unwrap();
        let syndrome = session.observe(&catalog::march_ss(), &fault).unwrap();
        let list = FaultList::unlinked_static();
        let report = session.diagnose_sweep(&catalog::march_ss(), &syndrome, &list);
        let reference = diagnose(
            &catalog::march_ss(),
            &syndrome,
            &list,
            &session.coverage_config(),
        );
        assert_eq!(report.candidates(), &reference[..]);
        assert_eq!(report.test_name(), "March SS");

        // The sharded parallel sweep is byte-identical to the serial one,
        // and an empty syndrome short-circuits to an unexplained report.
        for threads in [2usize, 0] {
            let parallel =
                Session::new(ExecPolicy::default().with_threads(threads)).with_memory_cells(6);
            let sharded = parallel.diagnose_sweep(&catalog::march_ss(), &syndrome, &list);
            assert_eq!(sharded, report, "{threads} threads");
        }
        let passing = session.diagnose_sweep(&catalog::march_ss(), &Syndrome::new(), &list);
        assert!(passing.candidates().is_empty());
        assert!(!passing.is_unexplained());
    }

    #[test]
    fn lane_width_threads_through_the_session() {
        let list = FaultList::list_2();
        let test = catalog::march_sl();
        let baseline = Session::default().coverage(&test, &list);
        for width in LaneWidth::ALL {
            let session = Session::new(ExecPolicy::default().with_lane_width(width));
            assert_eq!(session.coverage_config().lane_width, width);
            assert_eq!(session.coverage(&test, &list), baseline, "width {width}");
            let rebuilt = Session::from_coverage_config(&session.coverage_config());
            assert_eq!(rebuilt.policy().lane_width, width);
        }
    }

    #[test]
    fn artifact_cache_memoises_target_lanes_per_list_and_scope() {
        let session = Session::default();
        assert_eq!(session.cache_hits(), 0);
        assert_eq!(session.cached_artifacts(), 0);

        // Same list, same scope: one enumeration, then hits sharing the Arc.
        let first = session.target_lanes(&FaultList::list_2()).unwrap();
        assert_eq!(session.cache_hits(), 0);
        assert_eq!(session.cached_artifacts(), 1);
        let second = session.target_lanes(&FaultList::list_2()).unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(session.cache_hits(), 1);

        // A different scope keys a different entry.
        let exhaustive = session
            .target_lanes_scoped(
                &FaultList::list_2(),
                6,
                PlacementStrategy::Exhaustive,
                session.backgrounds(),
            )
            .unwrap();
        assert!(!Arc::ptr_eq(&first, &exhaustive));
        assert_eq!(session.cache_hits(), 1);
        assert_eq!(session.cached_artifacts(), 2);

        // A different list under the same scope keys a third entry, and the
        // content fingerprint distinguishes lists sharing a name.
        let other = session.target_lanes(&FaultList::unlinked_static()).unwrap();
        assert_eq!(session.cached_artifacts(), 3);
        assert_ne!(other.len(), first.len());
        let renamed = FaultList::new("Fault List #2 (single-cell linked faults)");
        let empty = session.target_lanes(&renamed).unwrap();
        assert!(empty.is_empty());
        assert_eq!(session.cached_artifacts(), 4);
    }

    /// The distinct lane sets among `lanes`, by pointer.
    fn distinct_sets(lanes: &TargetLanes) -> Vec<&Arc<LaneSet>> {
        let mut sets: Vec<&Arc<LaneSet>> = Vec::new();
        for (_, set) in lanes {
            if !sets.iter().any(|seen| Arc::ptr_eq(seen, set)) {
                sets.push(set);
            }
        }
        sets
    }

    #[test]
    fn targets_of_one_placement_shape_share_one_lane_set() {
        // (list, cells, targets, distinct sets, logical lanes, distinct lanes)
        // under exhaustive placements and both uniform backgrounds.
        for (list, cells, targets, set_count, logical, distinct) in [
            (FaultList::list_1(), 16, 844, 3, 2_836_864, 7_232),
            (FaultList::address_decoder(), 4096, 5, 2, 311_296, 106_496),
        ] {
            let session = Session::default()
                .with_memory_cells(cells)
                .with_strategy(PlacementStrategy::Exhaustive);
            let lanes = session.target_lanes(&list).unwrap();
            let sets = distinct_sets(&lanes);
            assert_eq!(lanes.len(), targets, "{}", list.name());
            assert_eq!(sets.len(), set_count, "{}", list.name());
            let logical_lanes: usize = lanes.iter().map(|(_, set)| set.len()).sum();
            assert_eq!(logical_lanes, logical, "{}", list.name());
            let distinct_lanes: usize = sets.iter().map(|set| set.len()).sum();
            assert_eq!(distinct_lanes, distinct, "{}", list.name());
            // Every target holds the set of the first target of its shape.
            for (target, set) in lanes.iter() {
                let (_, first) = lanes
                    .iter()
                    .find(|(other, _)| placement_shape(other) == placement_shape(target))
                    .unwrap();
                assert!(Arc::ptr_eq(set, first), "{target}");
            }
        }
    }

    #[test]
    fn lane_classes_are_partitioned_once_per_set() {
        let session = Session::default();
        let list = FaultList::list_1();
        let lanes = session.target_lanes(&list).unwrap();
        let set = &lanes[0].1;
        assert!(set.classes.get().is_none(), "partitioned before first use");
        let first: *const Classes = set.classes();
        assert!(std::ptr::eq(first, set.classes()));
        // Coverage partitions every set on first use and reuses the same
        // partition on every later query.
        let _ = session.coverage(&catalog::march_sl(), &list);
        assert!(std::ptr::eq(first, set.classes()));
        assert!(lanes.iter().all(|(_, set)| set.classes.get().is_some()));
    }

    #[test]
    fn dictionary_cache_memoises_per_test_list_and_scope() {
        let session = Session::default().with_memory_cells(6);
        assert_eq!(session.cached_dictionaries(), 0);
        let list = FaultList::list_2();

        // First build populates the cache; the repeat is a hit sharing the Arc.
        let first = session.dictionary(&catalog::march_abl1(), &list);
        assert_eq!(session.cache_hits(), 0);
        assert_eq!(session.cached_dictionaries(), 1);
        let second = session.dictionary(&catalog::march_abl1(), &list);
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!(session.cache_hits(), 1);
        assert_eq!(session.cached_dictionaries(), 1);

        // A different test keys a different entry...
        let other_test = session.dictionary(&catalog::march_ss(), &list);
        assert!(!Arc::ptr_eq(&first, &other_test));
        assert_eq!(session.cached_dictionaries(), 2);
        assert_eq!(session.cache_hits(), 1);

        // ...as does a test sharing the name but not the notation.
        let renamed = catalog::march_ss().with_name("March ABL1");
        let aliased = session.dictionary(&renamed, &list);
        assert!(!Arc::ptr_eq(&first, &aliased));
        assert_eq!(session.cached_dictionaries(), 3);

        // The cached dictionary is byte-identical to an uncached build.
        let fresh =
            FaultDictionary::build(&catalog::march_abl1(), &list, &session.coverage_config());
        assert_eq!(first.len(), fresh.len());
        assert_eq!(first.entries(), fresh.entries());

        // The dictionary cache and the target-lane cache share the hit
        // counter but not the entries.
        assert_eq!(session.cached_artifacts(), 0);
    }

    #[test]
    fn repeated_queries_share_the_enumeration() {
        // generate/minimise/verify all funnel through the cache: repeated
        // coverage of the same list re-enumerates nothing.
        let session = Session::default();
        let list = FaultList::list_2();
        let baseline = session.coverage(&catalog::march_sl(), &list);
        assert_eq!(session.cache_hits(), 0);
        let repeat = session.coverage(&catalog::march_sl(), &list);
        assert_eq!(repeat, baseline);
        assert_eq!(session.cache_hits(), 1);
        let other_test = session.coverage(&catalog::march_ss(), &list);
        assert_eq!(session.cache_hits(), 2);
        assert_eq!(other_test.total(), baseline.total());
        // The cached enumeration yields the same report as a fresh session.
        assert_eq!(
            Session::default().coverage(&catalog::march_sl(), &list),
            baseline
        );
    }

    #[test]
    fn full_space_campaign_matches_exhaustive_coverage() {
        let session = Session::default()
            .with_memory_cells(6)
            .with_strategy(PlacementStrategy::Exhaustive);
        let list = FaultList::list_1();
        let test = catalog::mats_plus();
        let exhaustive = session.try_coverage(&test, &list).unwrap();
        let config = CampaignConfig::default()
            .with_draws(crate::MAX_CAMPAIGN_DRAWS)
            .with_max_escapes(usize::MAX);
        let report = session.try_campaign(&test, &list, &config).unwrap();
        assert!(report.without_replacement());
        assert_eq!(report.draws(), report.space());
        assert_eq!(report.detected() + report.escapes_found(), report.draws());
        assert!(!report.trace_truncated());
        // The set of escaping targets is exactly the exhaustive escape set.
        let campaign_targets: std::collections::BTreeSet<String> = report
            .trace()
            .iter()
            .map(|entry| entry.escape.target.to_string())
            .collect();
        let exhaustive_targets: std::collections::BTreeSet<String> = exhaustive
            .escapes()
            .iter()
            .map(|escape| escape.target.to_string())
            .collect();
        assert_eq!(campaign_targets, exhaustive_targets);
        assert_eq!(
            exhaustive.total() - exhaustive.covered(),
            campaign_targets.len()
        );
    }

    #[test]
    fn campaign_reports_are_identical_across_policies() {
        let list = FaultList::list_2().with_address_decoder_faults();
        let test = catalog::march_c_minus();
        let config = CampaignConfig::default().with_draws(512).with_seed(11);
        let baseline = Session::new(ExecPolicy::default().with_threads(1))
            .with_memory_cells(16)
            .try_campaign(&test, &list, &config)
            .unwrap()
            .to_json();
        for threads in [2usize, 0] {
            for backend in [BackendKind::Scalar, BackendKind::Packed] {
                let report = Session::new(
                    ExecPolicy::default()
                        .with_backend(backend)
                        .with_threads(threads),
                )
                .with_memory_cells(16)
                .try_campaign(&test, &list, &config)
                .unwrap();
                assert_eq!(
                    report.to_json(),
                    baseline,
                    "backend {backend}, {threads} threads"
                );
            }
        }
        // A different seed draws a different prefix.
        let other = Session::new(ExecPolicy::default().with_threads(1))
            .with_memory_cells(16)
            .try_campaign(&test, &list, &config.clone().with_seed(12))
            .unwrap();
        assert_ne!(other.to_json(), baseline);
    }

    #[test]
    fn campaign_surfaces_typed_configuration_errors() {
        let session = Session::default();
        let list = FaultList::list_2();
        let bad = CampaignConfig::default().with_confidence(2.0);
        assert!(matches!(
            session.try_campaign(&catalog::march_ss(), &list, &bad),
            Err(crate::SimulationError::InvalidCampaign(_))
        ));
        let small = Session::default().with_memory_cells(2);
        assert!(matches!(
            small.try_campaign(&catalog::march_ss(), &list, &CampaignConfig::default()),
            Err(crate::SimulationError::MemoryTooSmall { .. })
        ));
    }

    #[test]
    fn mis_sized_custom_backgrounds_are_typed_errors() {
        // A 3-cell image on the default 8-cell scope used to panic inside
        // the simulator; it is now rejected before anything is enumerated.
        let session =
            Session::new(ExecPolicy::default()).with_backgrounds(vec![InitialState::Custom(
                vec![sram_fault_model::Bit::One; 3],
            )]);
        let mismatch = crate::SimulationError::InitialStateSizeMismatch {
            provided: 3,
            cells: 8,
        };
        let list = FaultList::list_2();
        assert_eq!(
            session.try_coverage(&catalog::march_ss(), &list),
            Err(mismatch.clone())
        );
        assert_eq!(
            session
                .try_campaign(&catalog::march_ss(), &list, &CampaignConfig::default())
                .map(|report| report.to_json()),
            Err(mismatch)
        );
        assert_eq!(session.cached_artifacts(), 0);
    }

    #[test]
    fn scope_builders_and_accessors() {
        let session = Session::default()
            .with_memory_cells(6)
            .with_strategy(PlacementStrategy::Exhaustive)
            .with_backgrounds(vec![InitialState::AllOne]);
        assert_eq!(session.memory_cells(), 6);
        assert_eq!(session.strategy(), PlacementStrategy::Exhaustive);
        assert_eq!(session.backgrounds(), &[InitialState::AllOne]);
        let config = session.coverage_config();
        assert_eq!(config.memory_cells, 6);
        assert_eq!(config.backend, BackendKind::Packed);
        let rebuilt = Session::from_coverage_config(&config);
        assert_eq!(rebuilt.coverage_config(), config);
        assert_eq!(session.policy().batch, 0);
        assert_eq!(session.backend_instance().name(), "packed");
    }
}
