//! Schedule-exploration model tests of this crate's two lock-step protocols:
//! the [`ArtifactStore`] build-slot exactly-once protocol and the
//! [`WorkerPool`] job lifecycle.
//!
//! Compiled only under `--cfg interleave` (plus `cfg(test)`), where the
//! [`sync`](crate::sync) façade resolves to the instrumented primitives, so
//! every `Mutex`/`Condvar`/atomic/thread operation below is a scheduler yield
//! point and the explorer can drive the protocols through every bounded
//! interleaving. Run with:
//!
//! ```text
//! RUSTFLAGS="--cfg interleave" cargo test -p sram_sim --lib models::
//! ```
//!
//! Alongside the positive proofs sits a mutation test: a copy of the
//! build-slot protocol with the publication bug deliberately injected (slot
//! lock dropped before publishing), asserting the explorer *finds* the
//! double-enumeration — evidence the checker has teeth, not just that the
//! protocols are quiet.

// lint: allow-file(timing) — model tests spawn through the instrumented
// façade `thread`; the whole module compiles only under
// cfg(all(test, interleave)).

use interleave::{check, explore, Config};
use sram_fault_model::FaultList;

use crate::snapshot::{MemIo, SnapshotStore};
use crate::store::{ArtifactKey, ArtifactStore};
use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::{thread, Arc, Mutex, PoisonError};
use crate::{InitialState, PlacementStrategy, WorkerPool};

fn key(name: &str) -> ArtifactKey<'static> {
    ArtifactKey::new(
        &FaultList::new(name),
        64,
        PlacementStrategy::Exhaustive,
        &[InitialState::AllZero],
    )
    .owned()
}

/// Exactly-once builds: two sessions racing `target_lanes` on the same key
/// must run the build closure once, and both must observe the built value.
#[test]
fn store_builds_each_key_exactly_once() {
    let outcome = check(&Config::exhaustive(2, 8192), || {
        let store = Arc::new(ArtifactStore::new());
        let builds = Arc::new(AtomicUsize::new(0));
        let racer = {
            let store = Arc::clone(&store);
            let builds = Arc::clone(&builds);
            thread::spawn(move || {
                let lanes = store
                    .target_lanes(&key("race"), || {
                        builds.fetch_add(1, Ordering::SeqCst);
                        Ok(Arc::new(Vec::new()))
                    })
                    .expect("build is infallible");
                assert!(lanes.is_empty());
            })
        };
        let lanes = store
            .target_lanes(&key("race"), || {
                builds.fetch_add(1, Ordering::SeqCst);
                Ok(Arc::new(Vec::new()))
            })
            .expect("build is infallible");
        assert!(lanes.is_empty());
        racer.join().expect("racing session panicked");
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "the build-slot protocol ran a duplicate enumeration"
        );
        assert_eq!(store.enumerations(), 1, "store counted duplicate builds");
        assert_eq!(store.hits(), 1, "the blocked requester must count as a hit");
    });
    assert!(outcome.complete, "DFS frontier not exhausted");
    assert!(outcome.schedules > 1, "no schedule diversity explored");
}

/// Distinct keys must not serialise on each other's builds, and each still
/// builds exactly once.
#[test]
fn store_keys_are_independent() {
    let outcome = check(&Config::exhaustive(2, 8192), || {
        let store = Arc::new(ArtifactStore::new());
        let other = {
            let store = Arc::clone(&store);
            thread::spawn(move || {
                store
                    .target_lanes(&key("left"), || Ok(Arc::new(Vec::new())))
                    .expect("build is infallible");
            })
        };
        store
            .target_lanes(&key("right"), || Ok(Arc::new(Vec::new())))
            .expect("build is infallible");
        other.join().expect("other session panicked");
        assert_eq!(store.enumerations(), 2);
        assert_eq!(store.hits(), 0);
    });
    assert!(outcome.complete, "DFS frontier not exhausted");
}

/// Mutation test: the build-slot protocol with the publication bug injected —
/// the slot lock is dropped after the emptiness check and reacquired to
/// publish, so two racing requesters can both see `None` and both build. The
/// explorer must find the double-enumeration; if it ever stops finding this,
/// the checker has lost its teeth.
#[test]
fn checker_detects_broken_build_slot_protocol() {
    let outcome = explore(&Config::exhaustive(2, 8192), || {
        let slot: Arc<Mutex<Option<Arc<u32>>>> = Arc::new(Mutex::new(None));
        let builds = Arc::new(AtomicUsize::new(0));
        let broken_get_or_build = |slot: &Mutex<Option<Arc<u32>>>, builds: &AtomicUsize| {
            // BUG under test: check-then-act across a lock release. The
            // correct protocol (ArtifactStore::get_or_build) holds the slot
            // lock from the emptiness check through the publication.
            let populated = slot
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .is_some();
            if !populated {
                builds.fetch_add(1, Ordering::SeqCst);
                let built = Arc::new(42u32);
                *slot.lock().unwrap_or_else(PoisonError::into_inner) = Some(built);
            }
        };
        let racer = {
            let slot = Arc::clone(&slot);
            let builds = Arc::clone(&builds);
            thread::spawn(move || broken_get_or_build(&slot, &builds))
        };
        broken_get_or_build(&slot, &builds);
        racer.join().expect("racing requester panicked");
        assert_eq!(
            builds.load(Ordering::SeqCst),
            1,
            "duplicate enumeration slipped through"
        );
    });
    let failure = outcome
        .failure
        .expect("the model checker failed to detect the broken slot protocol");
    assert!(
        failure.message.contains("duplicate enumeration"),
        "unexpected failure: {}",
        failure.message
    );
}

/// Writer/loader race over one shared snapshot device: a loader running
/// concurrently with the atomic publish protocol (writer lock → temp file →
/// rename → unlock) must either replay the complete artifact or miss and
/// fall back to an in-memory rebuild — at no explored interleaving may it
/// observe a torn file (which would surface as a quarantine) or a wrong
/// artifact. After the publish completes, the snapshot must always replay.
#[test]
fn snapshot_loads_never_observe_torn_writes() {
    let outcome = check(&Config::exhaustive(2, 30_000), || {
        let device: Arc<MemIo> = Arc::new(MemIo::new());
        let list = FaultList::new("race");
        let writer_store = SnapshotStore::with_io(device.clone(), "snaps");
        let loader_store = SnapshotStore::with_io(device.clone(), "snaps");
        let writer = {
            let writer_store = Arc::clone(&writer_store);
            thread::spawn(move || {
                writer_store.store_lanes(&key("race"), &Vec::new());
            })
        };
        if let Some(lanes) = loader_store.load_lanes(&key("race"), &list) {
            assert!(lanes.is_empty(), "the loader observed a wrong artifact");
        }
        assert_eq!(
            loader_store.stats().quarantined,
            0,
            "the loader observed a torn snapshot file"
        );
        writer.join().expect("snapshot writer panicked");
        assert!(
            loader_store.load_lanes(&key("race"), &list).is_some(),
            "a completed publish must be replayable"
        );
    });
    assert!(outcome.schedules > 1, "no schedule diversity explored");
}

/// Pool lifecycle at clients > workers: two client threads funnel jobs
/// through a pool with a single resident worker. Every schedule must
/// complete — a lost `work_ready` wakeup or a completion-rendezvous deadlock
/// would surface as a deadlock failure — and both jobs must return in-order
/// results.
#[test]
fn pool_survives_more_clients_than_workers() {
    let outcome = check(&Config::exhaustive(1, 30_000), || {
        let pool = Arc::new(WorkerPool::new(2));
        let client = {
            let pool = Arc::clone(&pool);
            thread::spawn(move || {
                let items = Arc::new(vec![10u64, 20]);
                let doubled = pool.map(items, |value| value * 2);
                assert_eq!(doubled, vec![20, 40]);
            })
        };
        let items = Arc::new(vec![1u64, 2]);
        let incremented = pool.map(items, |value| value + 1);
        assert_eq!(incremented, vec![2, 3]);
        client.join().expect("client panicked");
        // Dropping the pool inside the model run also exercises the shutdown
        // handshake: a lost shutdown wakeup would deadlock the join.
        drop(pool);
    });
    assert!(
        outcome.failure.is_none(),
        "pool lifecycle failed under exploration"
    );
    assert!(outcome.schedules > 1, "no schedule diversity explored");
}
