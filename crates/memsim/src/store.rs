//! The process-wide concurrent artifact store and the resident shared engine.
//!
//! PR 4 gave each [`Session`] a private artifact cache; this module promotes
//! that cache to a **shareable concurrent store** so many sessions — and, via
//! the CLI's `serve` front end, many concurrent clients — amortise one warm
//! cache. Keys are content fingerprints (fault-list contents × simulation
//! scope), so entries are immutable and never invalidated: the store only ever
//! grows, and a cached entry can be handed out as a shared [`Arc`] forever.
//!
//! Concurrency model:
//!
//! * the key → entry maps are **sharded** ([`STORE_SHARDS`] shards selected by
//!   a compact key digest), so concurrent lookups on different keys contend
//!   only on a per-shard mutex held for one probe;
//! * each entry is a per-key slot built **exactly once**: the first requester
//!   of a key builds while holding only that key's slot lock, concurrent
//!   requesters of the *same* key block on the slot and then score a cache
//!   hit, and requesters of other keys proceed undisturbed. A failed build
//!   (for example [`MemoryTooSmall`](crate::SimulationError::MemoryTooSmall))
//!   leaves the slot empty so the typed error is re-surfaced per query
//!   instead of being cached.
//!
//! [`SharedEngine`] bundles the store with one resident [`WorkerPool`] and an
//! [`ExecPolicy`]; [`SharedEngine::session`] then stamps out cheap [`Session`]
//! handles (a handful of `Arc` bumps) that all read and populate the same
//! store and multiplex over the same pool. [`SharedEngine::global`] is the
//! process-wide instance behind `march-codex serve`.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{Arc, Mutex, OnceLock, PoisonError};
use std::borrow::Cow;
use std::collections::hash_map::DefaultHasher;
use std::collections::BTreeMap;
use std::hash::{Hash, Hasher};

use march_test::MarchTest;
use sram_fault_model::FaultList;

use crate::parallel::WorkerPool;
use crate::projection::ClassImage;
use crate::session::{Session, TargetLanes};
use crate::snapshot::{SnapshotStats, SnapshotStore};
use crate::{ExecPolicy, FaultDictionary, InitialState, PlacementStrategy, Result, TargetBatch};

/// How many shards the store's key → entry maps split into. Shards are
/// selected by key digest; 16 is plenty for the handful of cores one process
/// serves while keeping the empty-store footprint trivial.
const STORE_SHARDS: usize = 16;

/// Feeds the compact digest of `list` — its name and its three lengths —
/// into `hasher`. Equal lists have equal digests, which is all a store probe
/// needs: the digest picks a bucket, and the full comparison decides.
fn hash_list(list: &FaultList, hasher: &mut DefaultHasher) {
    list.name().hash(hasher);
    list.simple().len().hash(hasher);
    list.linked().len().hash(hasher);
    list.decoders().len().hash(hasher);
}

/// The immutable key of one cached target-lane enumeration: the fault list's
/// contents crossed with the full simulation scope it was enumerated under
/// (memory size, placement strategy and every data background, all of which
/// change the enumerated lanes). Entries are never invalidated — a different
/// list or scope simply keys a different entry.
///
/// The key compares the list's structured contents, not just its name: two
/// lists that share a name but differ in a primitive key different entries.
/// A probe borrows the caller's list and backgrounds; only the key of a new
/// entry owns copies of them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct ArtifactKey<'a> {
    pub(crate) list: Cow<'a, FaultList>,
    pub(crate) memory_cells: usize,
    pub(crate) strategy: PlacementStrategy,
    pub(crate) backgrounds: Cow<'a, [InitialState]>,
}

impl<'a> ArtifactKey<'a> {
    pub(crate) fn new(
        list: &'a FaultList,
        memory_cells: usize,
        strategy: PlacementStrategy,
        backgrounds: &'a [InitialState],
    ) -> ArtifactKey<'a> {
        ArtifactKey {
            list: Cow::Borrowed(list),
            memory_cells,
            strategy,
            backgrounds: Cow::Borrowed(backgrounds),
        }
    }

    /// The key owning copies of everything it borrows.
    pub(crate) fn owned(&self) -> ArtifactKey<'static> {
        ArtifactKey {
            list: Cow::Owned(self.list.clone().into_owned()),
            memory_cells: self.memory_cells,
            strategy: self.strategy,
            backgrounds: Cow::Owned(self.backgrounds.to_vec()),
        }
    }

    fn digest(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        hash_list(&self.list, &mut hasher);
        self.memory_cells.hash(&mut hasher);
        self.strategy.hash(&mut hasher);
        self.backgrounds.hash(&mut hasher);
        hasher.finish()
    }
}

/// The cache key of one memoised fault dictionary: the march test (name
/// *and* elements, so a renamed or edited test can never alias) crossed with
/// the list's contents and **only the scope a dictionary actually depends
/// on**. [`FaultDictionary::build`] always enumerates placements
/// exhaustively and simulates only the first background, so the key pins
/// the exhaustive strategy and carries a single background — two sessions
/// whose scopes differ only in coverage strategy or trailing backgrounds
/// share one dictionary entry instead of recomputing it. Like
/// [`ArtifactKey`], a probe borrows and a new entry's key owns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct DictionaryKey<'a> {
    pub(crate) test: Cow<'a, MarchTest>,
    pub(crate) list: Cow<'a, FaultList>,
    pub(crate) memory_cells: usize,
    pub(crate) background: InitialState,
}

impl<'a> DictionaryKey<'a> {
    pub(crate) fn new(
        test: &'a MarchTest,
        list: &'a FaultList,
        memory_cells: usize,
        background: InitialState,
    ) -> DictionaryKey<'a> {
        DictionaryKey {
            test: Cow::Borrowed(test),
            list: Cow::Borrowed(list),
            memory_cells,
            background,
        }
    }

    /// The key owning copies of everything it borrows.
    pub(crate) fn owned(&self) -> DictionaryKey<'static> {
        DictionaryKey {
            test: Cow::Owned(self.test.clone().into_owned()),
            list: Cow::Owned(self.list.clone().into_owned()),
            memory_cells: self.memory_cells,
            background: self.background.clone(),
        }
    }

    fn digest(&self) -> u64 {
        let mut hasher = DefaultHasher::new();
        self.test.name().hash(&mut hasher);
        self.test.elements().len().hash(&mut hasher);
        hash_list(&self.list, &mut hasher);
        self.memory_cells.hash(&mut hasher);
        self.background.hash(&mut hasher);
        hasher.finish()
    }
}

/// One build-once entry slot: `None` until the first successful build, then
/// the shared value forever. The slot mutex doubles as the per-key build
/// rendezvous.
type Slot<V> = Arc<Mutex<Option<Arc<V>>>>;

/// One shard of a [`ShardedMap`]: key digest → the keys sharing it.
type Shard<K, V> = Mutex<BTreeMap<u64, Vec<(K, Slot<V>)>>>;

/// A sharded key → build-once-entry map. Keys are located by a compact
/// digest consistent with their `Eq` (see [`ArtifactKey`]): the digest
/// selects the shard and a bucket, and only the bucket's keys are compared
/// in full.
#[derive(Debug)]
struct ShardedMap<K, V> {
    shards: Vec<Shard<K, V>>,
}

impl<K, V> ShardedMap<K, V> {
    fn new() -> ShardedMap<K, V> {
        ShardedMap {
            shards: (0..STORE_SHARDS)
                .map(|_| Mutex::new(BTreeMap::new()))
                .collect(),
        }
    }

    /// The entry slot of the key with `digest` that `matches`, created empty
    /// on first sight under the key `owned` returns — the only time a key is
    /// copied. Only the shard mutex is held, and only for the probe — never
    /// across a build.
    fn slot(
        &self,
        digest: u64,
        matches: impl Fn(&K) -> bool,
        owned: impl FnOnce() -> K,
    ) -> Slot<V> {
        // Poison recovery: the shard lock only guards the map probe (no user
        // code runs under it), so a panicked builder elsewhere leaves the map
        // consistent and the resident service keeps answering.
        let mut shard = self.shards[(digest as usize) % STORE_SHARDS]
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        let bucket = shard.entry(digest).or_default();
        if let Some((_, slot)) = bucket.iter().find(|(key, _)| matches(key)) {
            return Arc::clone(slot);
        }
        let slot = Slot::default();
        bucket.push((owned(), Arc::clone(&slot)));
        slot
    }
}

/// One memoised target-lane enumeration and, built on first use, the class
/// image of its targets — every class representative bound into 256-lane
/// words — and the packed batch over them, each lane weighted by its
/// class's lane count. Coverage, `verify` and minimiser prechecks of one
/// (list, scope) run on copies of the image, generation and minimisation
/// on copies of the batch; both live and die with the entry and are never
/// snapshotted, and coverage never builds the batch.
#[derive(Debug)]
pub(crate) struct TargetEntry {
    lanes: Arc<TargetLanes>,
    image: OnceLock<Arc<ClassImage>>,
    batch: OnceLock<TargetBatch>,
}

impl TargetEntry {
    fn new(lanes: Arc<TargetLanes>) -> TargetEntry {
        TargetEntry {
            lanes,
            image: OnceLock::new(),
            batch: OnceLock::new(),
        }
    }

    /// A copy of the packed batch over every class of the image, bound on
    /// the first call. Copying it skips the per-word weight tables a batch
    /// built afresh from the image pays for.
    pub(crate) fn batch(&self) -> TargetBatch {
        self.batch
            .get_or_init(|| TargetBatch::from_image(&self.image()))
            .clone()
    }

    /// The enumerated targets with their lane sets.
    pub(crate) fn lanes(&self) -> &Arc<TargetLanes> {
        &self.lanes
    }

    /// The class image of the targets, bound on the first call.
    pub(crate) fn image(&self) -> Arc<ClassImage> {
        Arc::clone(
            self.image
                .get_or_init(|| Arc::new(ClassImage::new(Arc::clone(&self.lanes)))),
        )
    }
}

/// The concurrent artifact store: target-lane enumerations and fault
/// dictionaries, memoised under immutable content-fingerprint keys and shared
/// by every [`Session`] handle attached to it.
///
/// Observability counters mirror the per-session counters of PR 4/5, but at
/// store granularity so hits are counted **across** sessions:
///
/// * [`ArtifactStore::hits`] — queries answered from the store;
/// * [`ArtifactStore::enumerations`] — entries built (exactly one per unique
///   key, however many sessions race on it);
/// * [`ArtifactStore::cached_artifacts`] / [`ArtifactStore::cached_dictionaries`]
///   — distinct populated entries per family.
#[derive(Debug)]
pub struct ArtifactStore {
    artifacts: ShardedMap<ArtifactKey<'static>, TargetEntry>,
    dictionaries: ShardedMap<DictionaryKey<'static>, FaultDictionary>,
    hits: AtomicUsize,
    enumerations: AtomicUsize,
    artifact_entries: AtomicUsize,
    dictionary_entries: AtomicUsize,
    /// The optional crash-safe persistence layer: when attached, build
    /// closures first try to replay a snapshot and persist what they build.
    /// Write-once so racing attachers cannot split the store over two
    /// directories mid-flight.
    snapshots: OnceLock<Arc<SnapshotStore>>,
}

impl Default for ArtifactStore {
    fn default() -> Self {
        ArtifactStore::new()
    }
}

impl ArtifactStore {
    /// An empty store. Wrap it in an [`Arc`] (or use
    /// [`SharedEngine::with_store`]) to share it between sessions.
    #[must_use]
    pub fn new() -> ArtifactStore {
        ArtifactStore {
            artifacts: ShardedMap::new(),
            dictionaries: ShardedMap::new(),
            hits: AtomicUsize::new(0),
            enumerations: AtomicUsize::new(0),
            artifact_entries: AtomicUsize::new(0),
            dictionary_entries: AtomicUsize::new(0),
            snapshots: OnceLock::new(),
        }
    }

    /// Attaches a crash-safe [`SnapshotStore`] to this store: from now on
    /// every artifact build first tries to replay a snapshot, and everything
    /// built is persisted. Returns `false` (and leaves the existing layer in
    /// place) when a snapshot store is already attached — the layer is
    /// write-once per store.
    pub fn attach_snapshots(&self, snapshots: Arc<SnapshotStore>) -> bool {
        self.snapshots.set(snapshots).is_ok()
    }

    /// The attached snapshot layer, if any.
    #[must_use]
    pub fn snapshots(&self) -> Option<Arc<SnapshotStore>> {
        self.snapshots.get().map(Arc::clone)
    }

    /// The snapshot layer's counters, when one is attached.
    #[must_use]
    pub fn snapshot_stats(&self) -> Option<SnapshotStats> {
        self.snapshots.get().map(|snapshots| snapshots.stats())
    }

    /// The process-wide store: one lazily-created instance shared by every
    /// caller of this function for the lifetime of the process.
    #[must_use]
    pub fn global() -> Arc<ArtifactStore> {
        static GLOBAL: OnceLock<Arc<ArtifactStore>> = OnceLock::new();
        Arc::clone(GLOBAL.get_or_init(|| Arc::new(ArtifactStore::new())))
    }

    /// Queries answered from a populated entry instead of building — the
    /// cross-session caching guarantee. A requester that blocked on a
    /// concurrent build of the same key counts as a hit: it did not build.
    #[must_use]
    pub fn hits(&self) -> usize {
        self.hits.load(Ordering::Relaxed)
    }

    /// Successful entry builds. After any number of concurrent queries this
    /// equals the number of distinct keys queried — the exactly-once
    /// guarantee the multi-client stress test pins down.
    #[must_use]
    pub fn enumerations(&self) -> usize {
        self.enumerations.load(Ordering::Relaxed)
    }

    /// Distinct populated target-lane entries.
    #[must_use]
    pub fn cached_artifacts(&self) -> usize {
        self.artifact_entries.load(Ordering::Relaxed)
    }

    /// Distinct populated dictionary entries.
    #[must_use]
    pub fn cached_dictionaries(&self) -> usize {
        self.dictionary_entries.load(Ordering::Relaxed)
    }

    /// Build-once resolution of one slot: a populated slot is a hit; an empty
    /// one runs `build` while holding only this key's lock, so concurrent
    /// same-key requesters block here and then hit, while other keys proceed.
    fn get_or_build<V, F>(&self, slot: &Slot<V>, entries: &AtomicUsize, build: F) -> Result<Arc<V>>
    where
        F: FnOnce() -> Result<Arc<V>>,
    {
        // Poison recovery: a builder that panicked under this lock never
        // published (the slot is written only after `build` returns), so the
        // slot is either still empty — the next requester simply rebuilds —
        // or was populated by an earlier successful build. Propagating the
        // poison instead would permanently wedge this key for the resident
        // service.
        let mut guard = slot.lock().unwrap_or_else(PoisonError::into_inner);
        if let Some(value) = guard.as_ref() {
            self.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(Arc::clone(value));
        }
        let built = build()?;
        *guard = Some(Arc::clone(&built));
        self.enumerations.fetch_add(1, Ordering::Relaxed);
        entries.fetch_add(1, Ordering::Relaxed);
        Ok(built)
    }

    /// The target lanes of `key`, built at most once via `build`.
    #[cfg(test)]
    pub(crate) fn target_lanes<F>(
        &self,
        key: &ArtifactKey<'_>,
        build: F,
    ) -> Result<Arc<TargetLanes>>
    where
        F: FnOnce() -> Result<Arc<TargetLanes>>,
    {
        Ok(Arc::clone(self.target_entry(key, build)?.lanes()))
    }

    /// The target-lane entry of `key`, its lanes built at most once via
    /// `build`: one counted query, a hit or a build.
    pub(crate) fn target_entry<F>(
        &self,
        key: &ArtifactKey<'_>,
        build: F,
    ) -> Result<Arc<TargetEntry>>
    where
        F: FnOnce() -> Result<Arc<TargetLanes>>,
    {
        let slot = self
            .artifacts
            .slot(key.digest(), |stored| stored == key, || key.owned());
        self.get_or_build(&slot, &self.artifact_entries, || {
            Ok(Arc::new(TargetEntry::new(build()?)))
        })
    }

    /// The dictionary entry of `key`, built at most once via `build`.
    pub(crate) fn dictionary<F>(&self, key: &DictionaryKey<'_>, build: F) -> Arc<FaultDictionary>
    where
        F: FnOnce() -> Arc<FaultDictionary>,
    {
        let slot = self
            .dictionaries
            .slot(key.digest(), |stored| stored == key, || key.owned());
        self.get_or_build(&slot, &self.dictionary_entries, || Ok(build()))
            // lint: allow(unwrap) — the build closure is wrapped in Ok just
            // above; no error value can reach this expect.
            .expect("dictionary builds are infallible")
    }
}

/// The resident shared engine: one [`ArtifactStore`], one [`WorkerPool`] and
/// one [`ExecPolicy`], stamping out cheap [`Session`] handles that share all
/// three. This is the "many concurrent clients, one shared engine" shape the
/// `serve` front end multiplexes requests over: every handle reads and
/// populates the same warm cache, and every parallel query multiplexes over
/// the same resident workers.
///
/// # Examples
///
/// ```
/// use march_test::catalog;
/// use sram_fault_model::FaultList;
/// use sram_sim::{ExecPolicy, SharedEngine};
///
/// let engine = SharedEngine::new(ExecPolicy::default().with_threads(2));
/// let first = engine.session().coverage(&catalog::march_ss(), &FaultList::list_2());
/// // A brand-new handle hits the cache the first handle populated...
/// let second = engine.session().coverage(&catalog::march_ss(), &FaultList::list_2());
/// assert_eq!(first, second);
/// assert_eq!(engine.cache_hits(), 1);
/// // ...and both handles multiplexed over the same resident workers.
/// assert_eq!(engine.workers_spawned(), 1);
/// ```
#[derive(Debug)]
pub struct SharedEngine {
    policy: ExecPolicy,
    store: Arc<ArtifactStore>,
    pool: Option<Arc<WorkerPool>>,
}

impl SharedEngine {
    /// Builds an engine with a fresh private store, spawning the resident
    /// worker pool when `policy` resolves to more than one thread.
    #[must_use]
    pub fn new(policy: ExecPolicy) -> Arc<SharedEngine> {
        SharedEngine::with_store(policy, Arc::new(ArtifactStore::new()))
    }

    /// Builds an engine on an existing (possibly already warm) store.
    #[must_use]
    pub fn with_store(policy: ExecPolicy, store: Arc<ArtifactStore>) -> Arc<SharedEngine> {
        let pool = match policy.threads {
            1 => None,
            threads => Some(Arc::new(WorkerPool::new(threads))),
        };
        Arc::new(SharedEngine {
            policy,
            store,
            pool,
        })
    }

    /// The process-wide engine: every available core multiplexed over the
    /// [`ArtifactStore::global`] store. Created on first use, shared by every
    /// later caller for the lifetime of the process.
    #[must_use]
    pub fn global() -> Arc<SharedEngine> {
        static GLOBAL: OnceLock<Arc<SharedEngine>> = OnceLock::new();
        Arc::clone(
            GLOBAL.get_or_init(|| {
                SharedEngine::with_store(ExecPolicy::fast(), ArtifactStore::global())
            }),
        )
    }

    /// The policy every session handle inherits.
    #[must_use]
    pub fn policy(&self) -> ExecPolicy {
        self.policy
    }

    /// The engine's store — attach it to another engine to share the cache
    /// across policies.
    #[must_use]
    pub fn store(&self) -> Arc<ArtifactStore> {
        Arc::clone(&self.store)
    }

    /// A cheap session handle onto the engine: shares the store, the worker
    /// pool and the policy; scope builders ([`Session::with_memory_cells`],
    /// …) adjust the handle without touching the shared state.
    #[must_use]
    pub fn session(&self) -> Session {
        Session::with_shared(
            self.policy,
            self.pool.as_ref().map(Arc::clone),
            Arc::clone(&self.store),
        )
    }

    /// Worker threads spawned by the engine's pool — constant across any
    /// number of handles and queries.
    #[must_use]
    pub fn workers_spawned(&self) -> usize {
        self.pool.as_ref().map_or(0, |pool| pool.workers_spawned())
    }

    /// Fan-out jobs executed on the engine's pool across every handle.
    #[must_use]
    pub fn jobs_executed(&self) -> usize {
        self.pool.as_ref().map_or(0, |pool| pool.generation())
    }

    /// Store queries answered from cache across every handle.
    #[must_use]
    pub fn cache_hits(&self) -> usize {
        self.store.hits()
    }

    /// Distinct target-lane enumerations the store holds.
    #[must_use]
    pub fn cached_artifacts(&self) -> usize {
        self.store.cached_artifacts()
    }

    /// Distinct fault dictionaries the store holds.
    #[must_use]
    pub fn cached_dictionaries(&self) -> usize {
        self.store.cached_dictionaries()
    }

    /// The snapshot layer's counters, when the engine's store persists to
    /// disk — what the `serve` stats op surfaces as the `snapshot` object.
    #[must_use]
    pub fn snapshot_stats(&self) -> Option<SnapshotStats> {
        self.store.snapshot_stats()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::BackendKind;
    use march_test::catalog;

    #[test]
    fn engine_handles_share_store_and_pool() {
        let engine = SharedEngine::new(ExecPolicy::default().with_threads(2));
        let list = FaultList::list_2();
        let test = catalog::march_sl();
        let first = engine.session();
        let second = engine.session();
        let a = first.coverage(&test, &list);
        let b = second.coverage(&test, &list);
        assert_eq!(a, b);
        // The second handle's query was answered from the shared store...
        assert_eq!(engine.cache_hits(), 1);
        assert_eq!(engine.cached_artifacts(), 1);
        assert_eq!(engine.store().enumerations(), 1);
        // ...and both handles ran on the one resident pool.
        assert_eq!(engine.workers_spawned(), 1);
        assert_eq!(engine.jobs_executed(), 2);
        assert_eq!(first.workers_spawned(), second.workers_spawned());
    }

    #[test]
    fn sessions_differing_only_in_policy_share_artifacts() {
        // The artifact key carries no execution-policy fields: handles with
        // different backends and thread counts hit the same entry.
        let store = Arc::new(ArtifactStore::new());
        let packed = SharedEngine::with_store(ExecPolicy::default(), Arc::clone(&store));
        let scalar = SharedEngine::with_store(
            ExecPolicy::default()
                .with_backend(BackendKind::Scalar)
                .with_threads(2),
            Arc::clone(&store),
        );
        let list = FaultList::list_2();
        let a = packed.session().target_lanes(&list).unwrap();
        let b = scalar.session().target_lanes(&list).unwrap();
        assert!(Arc::ptr_eq(&a, &b));
        assert_eq!(store.hits(), 1);
        assert_eq!(store.enumerations(), 1);
    }

    #[test]
    fn dictionary_key_ignores_strategy_and_trailing_backgrounds() {
        // FaultDictionary::build always enumerates exhaustively and simulates
        // only the first background; the key must not fracture on scope
        // fields the dictionary ignores. (Regression: the PR 4 per-session
        // key carried the full backgrounds vector and the coverage strategy,
        // so otherwise-identical sessions rebuilt identical dictionaries.)
        let store = Arc::new(ArtifactStore::new());
        let engine = SharedEngine::with_store(ExecPolicy::default(), Arc::clone(&store));
        let list = FaultList::list_2();
        let test = catalog::march_abl1();

        let thorough = engine.session().with_memory_cells(6);
        let exhaustive = engine
            .session()
            .with_memory_cells(6)
            .with_strategy(PlacementStrategy::Exhaustive)
            .with_backgrounds(vec![InitialState::AllZero]);
        let a = thorough.dictionary(&test, &list);
        let b = exhaustive.dictionary(&test, &list);
        assert!(
            Arc::ptr_eq(&a, &b),
            "scope fields the dictionary ignores must not fracture the key"
        );
        assert_eq!(store.hits(), 1);
        assert_eq!(store.cached_dictionaries(), 1);

        // The *first* background does change the dictionary: different key.
        let flipped = engine
            .session()
            .with_memory_cells(6)
            .with_backgrounds(vec![InitialState::AllOne]);
        let c = flipped.dictionary(&test, &list);
        assert!(!Arc::ptr_eq(&a, &c));
        assert_eq!(store.cached_dictionaries(), 2);
    }

    #[test]
    fn target_lane_scope_still_keys_distinct_entries() {
        // Unlike dictionaries, target lanes depend on the whole scope: every
        // component must keep keying its own entry.
        let engine = SharedEngine::new(ExecPolicy::default());
        let list = FaultList::list_2();
        let base = engine.session().target_lanes(&list).unwrap();
        let other_cells = engine
            .session()
            .with_memory_cells(6)
            .target_lanes(&list)
            .unwrap();
        let other_strategy = engine
            .session()
            .with_strategy(PlacementStrategy::Exhaustive)
            .target_lanes(&list)
            .unwrap();
        let other_backgrounds = engine
            .session()
            .with_backgrounds(vec![InitialState::AllZero])
            .target_lanes(&list)
            .unwrap();
        assert!(!Arc::ptr_eq(&base, &other_cells));
        assert!(!Arc::ptr_eq(&base, &other_strategy));
        assert!(!Arc::ptr_eq(&base, &other_backgrounds));
        assert_eq!(engine.cache_hits(), 0);
        assert_eq!(engine.cached_artifacts(), 4);
    }

    #[test]
    fn failed_builds_are_not_cached() {
        let engine = SharedEngine::new(ExecPolicy::default());
        let tiny = engine.session().with_memory_cells(2);
        assert!(tiny.target_lanes(&FaultList::list_2()).is_err());
        assert_eq!(engine.cached_artifacts(), 0);
        // The error is re-surfaced (not cached, not a hit) on the retry...
        assert!(tiny.target_lanes(&FaultList::list_2()).is_err());
        assert_eq!(engine.cache_hits(), 0);
        // ...and a valid scope under the same store still populates.
        assert!(engine.session().target_lanes(&FaultList::list_2()).is_ok());
        assert_eq!(engine.cached_artifacts(), 1);
    }

    #[test]
    fn global_engine_is_one_instance() {
        let a = SharedEngine::global();
        let b = SharedEngine::global();
        assert!(Arc::ptr_eq(&a, &b));
        assert!(Arc::ptr_eq(&a.store(), &ArtifactStore::global()));
        assert_eq!(a.policy().threads, 0);
    }

    #[test]
    fn panicked_builder_leaves_the_slot_reusable() {
        // The PR 8 interleave model proves the lock protocol; this pins the
        // poison-recovery behaviour under a *real* panic: a builder that
        // unwinds inside its build slot must leave the slot empty and
        // unpoisoned-in-effect, so the next requester simply rebuilds.
        let store = Arc::new(ArtifactStore::new());
        let key = ArtifactKey::new(
            &FaultList::list_2(),
            8,
            PlacementStrategy::Representative,
            &[InitialState::AllOne],
        )
        .owned();
        let panicked = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            store.target_lanes(&key, || panic!("builder exploded mid-enumeration"))
        }));
        assert!(panicked.is_err(), "the panic must propagate to the caller");
        assert_eq!(store.enumerations(), 0);
        assert_eq!(store.cached_artifacts(), 0);

        // The same key is immediately buildable again...
        let rebuilt = store
            .target_lanes(&key, || Ok(Arc::new(Vec::new())))
            .expect("slot must be reusable after a panicked build");
        assert!(rebuilt.is_empty());
        assert_eq!(store.enumerations(), 1);
        // ...and later requesters hit the published value as usual.
        let hit = store
            .target_lanes(&key, || {
                panic!("a populated slot must never re-run the builder")
            })
            .expect("populated slot answers");
        assert!(Arc::ptr_eq(&rebuilt, &hit));
        assert_eq!(store.hits(), 1);
    }

    #[test]
    fn snapshot_layer_is_write_once() {
        let store = ArtifactStore::new();
        assert!(store.snapshots().is_none());
        assert!(store.snapshot_stats().is_none());
        let first = crate::SnapshotStore::with_io(Arc::new(crate::MemIo::new()), "a");
        let second = crate::SnapshotStore::with_io(Arc::new(crate::MemIo::new()), "b");
        assert!(store.attach_snapshots(Arc::clone(&first)));
        assert!(!store.attach_snapshots(second));
        let attached = store.snapshots().expect("layer attached");
        assert_eq!(attached.dir(), "a");
        assert_eq!(store.snapshot_stats().expect("stats").dir, "a");
    }

    #[test]
    fn engine_matches_legacy_reports() {
        let engine = SharedEngine::new(ExecPolicy::default());
        let list = FaultList::list_1();
        let test = catalog::march_c_minus();
        // A standalone session with a private store is the reference.
        let legacy = Session::default().coverage(&test, &list);
        assert_eq!(engine.session().coverage(&test, &list), legacy);
        assert_eq!(engine.session().coverage(&test, &list), legacy);
    }
}
