//! Deterministic thread fan-out for embarrassingly parallel simulation work.
//!
//! Coverage measurement evaluates every fault target independently — a perfect
//! fan-out. [`WorkerPool`] is the one fan-out mechanism: a **resident** set of
//! self-scheduling workers pulling item indices from an atomic counter, with
//! results merged back **in item order**, so parallel runs are byte-identical
//! to serial ones. It is the engine behind
//! [`Session::execute`](crate::Session::execute), so repeated pipeline queries
//! never pay per-call thread spawn and join.

use crate::sync::atomic::{AtomicUsize, Ordering};
use crate::sync::thread::{self, JoinHandle};
use crate::sync::{Arc, Condvar, Mutex, PoisonError};

/// Resolves a thread-count knob: `0` means "use the available parallelism",
/// and the result is clamped to the number of work items.
#[must_use]
pub fn effective_threads(requested: usize, items: usize) -> usize {
    let threads = if requested == 0 {
        thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
    } else {
        requested
    };
    threads.clamp(1, items.max(1))
}

/// One fan-out job: a type-erased "run item `index`" closure plus the shared
/// scheduling state. Workers clone the job (a handful of `Arc` bumps) and
/// self-schedule over the index range.
#[derive(Clone)]
struct Job {
    run: Arc<dyn Fn(usize) + Send + Sync>,
    next: Arc<AtomicUsize>,
    len: usize,
    done: Arc<Completion>,
}

/// Completion rendezvous of one job: how many items have finished.
#[derive(Default)]
struct Completion {
    finished: Mutex<usize>,
    all_done: Condvar,
}

impl Completion {
    // Poison recovery, not propagation: `add` runs from `ItemGuard::drop`
    // during a worker unwind, which poisons `finished` in std builds. The
    // counter itself is always left consistent (no user code runs under the
    // lock), so recovering keeps the pool serviceable after a panicked job
    // instead of wedging every later `wait` in the resident service.
    fn add(&self, count: usize, len: usize) {
        if count == 0 {
            return;
        }
        let mut finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        *finished += count;
        if *finished >= len {
            self.all_done.notify_all();
        }
    }

    fn wait(&self, len: usize) {
        let mut finished = self.finished.lock().unwrap_or_else(PoisonError::into_inner);
        while *finished < len {
            finished = self
                .all_done
                .wait(finished)
                .unwrap_or_else(PoisonError::into_inner);
        }
    }
}

/// Counts one item as finished even if the map closure unwinds, so a panic on
/// a pool worker turns into a fail-fast "missing result" panic on the calling
/// thread instead of a permanent deadlock in [`Completion::wait`].
struct ItemGuard<'a> {
    done: &'a Completion,
    len: usize,
}

impl Drop for ItemGuard<'_> {
    fn drop(&mut self) {
        self.done.add(1, self.len);
    }
}

/// Drains the job's index queue, completing each claimed item (normally or on
/// unwind) — shared by the calling thread and the resident workers.
fn drain_job(job: &Job) {
    loop {
        let index = job.next.fetch_add(1, Ordering::Relaxed);
        if index >= job.len {
            break;
        }
        let _guard = ItemGuard {
            done: &job.done,
            len: job.len,
        };
        (job.run)(index);
    }
}

/// The state workers wait on: the current job and a generation counter bumped
/// once per [`WorkerPool::map`] call so sleeping workers know fresh work
/// arrived.
struct PoolState {
    job: Option<Job>,
    generation: u64,
    shutdown: bool,
}

struct PoolShared {
    state: Mutex<PoolState>,
    work_ready: Condvar,
    workers_spawned: AtomicUsize,
}

/// A persistent pool of simulation workers with a deterministic in-order
/// merge.
///
/// Workers are spawned **once**, at construction, and then parked on a
/// condition variable between jobs; every [`WorkerPool::map`] call wakes them,
/// lets them self-schedule over the item indices (the calling thread joins in
/// as an extra worker) and returns the results in item order. Repeated calls
/// re-use the same OS threads — observable through
/// [`WorkerPool::workers_spawned`], which a well-behaved pool never increases
/// after construction.
///
/// Because jobs outlive the borrow of any one call, `map` requires `'static`
/// items and closures: callers hand the pool an `Arc`'d snapshot of the work.
///
/// # Examples
///
/// ```
/// use std::sync::Arc;
/// use sram_sim::WorkerPool;
///
/// let pool = WorkerPool::new(4);
/// let items = Arc::new((0u64..100).collect::<Vec<_>>());
/// let doubled = pool.map(Arc::clone(&items), |value| value * 2);
/// assert_eq!(doubled[7], 14);
/// // A second call re-uses the same workers: nothing new is spawned.
/// let spawned = pool.workers_spawned();
/// let _ = pool.map(items, |value| value + 1);
/// assert_eq!(pool.workers_spawned(), spawned);
/// ```
#[derive(Debug)]
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    handles: Vec<JoinHandle<()>>,
    /// Serialises `map` calls: the pool runs one job at a time.
    call_lock: Mutex<()>,
    generations: AtomicUsize,
}

impl std::fmt::Debug for PoolShared {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PoolShared")
            .field(
                "workers_spawned",
                &self.workers_spawned.load(Ordering::Relaxed),
            )
            .finish_non_exhaustive()
    }
}

impl WorkerPool {
    /// Spawns a pool of `threads` resident workers (`0` = available
    /// parallelism). The calling thread always participates in every job, so
    /// `threads - 1` OS threads are spawned; a pool built with `threads <= 1`
    /// spawns none and runs every job serially on the caller.
    #[must_use]
    pub fn new(threads: usize) -> WorkerPool {
        let threads = effective_threads(threads, usize::MAX);
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolState {
                job: None,
                generation: 0,
                shutdown: false,
            }),
            work_ready: Condvar::new(),
            workers_spawned: AtomicUsize::new(0),
        });
        let handles = (1..threads)
            .map(|worker| {
                let shared = Arc::clone(&shared);
                shared.workers_spawned.fetch_add(1, Ordering::Relaxed);
                thread::Builder::new()
                    .name(format!("sram-sim-worker-{worker}"))
                    .spawn(move || worker_loop(&shared))
                    // lint: allow(unwrap) — OS-level spawn failure at pool
                    // construction is unrecoverable and happens before any
                    // request is in flight.
                    .expect("spawn simulation worker")
            })
            .collect();
        WorkerPool {
            shared,
            handles,
            call_lock: Mutex::new(()),
            generations: AtomicUsize::new(0),
        }
    }

    /// Number of workers a job runs on, counting the calling thread.
    #[must_use]
    pub fn threads(&self) -> usize {
        self.handles.len() + 1
    }

    /// Total worker threads spawned since construction. Constant for the
    /// lifetime of the pool — the observable guarantee that repeated `map`
    /// calls do not respawn workers.
    #[must_use]
    pub fn workers_spawned(&self) -> usize {
        self.shared.workers_spawned.load(Ordering::Relaxed)
    }

    /// Number of jobs the pool has executed (one per `map` call that actually
    /// fanned out).
    #[must_use]
    pub fn generation(&self) -> usize {
        self.generations.load(Ordering::Relaxed)
    }

    /// Applies `map` to every item on the resident workers, returning results
    /// in item order — byte-identical to a serial loop.
    ///
    /// Runs serially on the calling thread when the pool has no spawned
    /// workers or there is at most one item.
    ///
    /// # Panics
    ///
    /// Panics in `map` executed on the calling thread propagate directly. A
    /// panic on a pool worker kills that worker but still counts its claimed
    /// item as finished, so the call unblocks and fails fast with a
    /// missing-result panic on the calling thread (and again when the pool is
    /// dropped and the dead worker is joined) instead of deadlocking.
    pub fn map<T, R, F>(&self, items: Arc<Vec<T>>, map: F) -> Vec<R>
    where
        T: Send + Sync + 'static,
        R: Send + 'static,
        F: Fn(&T) -> R + Send + Sync + 'static,
    {
        let len = items.len();
        if len <= 1 || self.handles.is_empty() {
            return items.iter().map(map).collect();
        }
        let _call = self
            .call_lock
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        self.generations.fetch_add(1, Ordering::Relaxed);

        let results: Arc<Vec<Mutex<Option<R>>>> =
            Arc::new((0..len).map(|_| Mutex::new(None)).collect());
        let job = Job {
            run: {
                let items = Arc::clone(&items);
                let results = Arc::clone(&results);
                Arc::new(move |index| {
                    let value = map(&items[index]);
                    *results[index]
                        .lock()
                        .unwrap_or_else(PoisonError::into_inner) = Some(value);
                })
            },
            next: Arc::new(AtomicUsize::new(0)),
            len,
            done: Arc::new(Completion::default()),
        };

        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.generation += 1;
            state.job = Some(job.clone());
        }
        self.shared.work_ready.notify_all();

        // The calling thread works the same queue as the residents.
        drain_job(&job);
        job.done.wait(len);

        // Unpublish the job so worker-held clones are the only references left
        // and the captured Arcs drop promptly.
        self.shared
            .state
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .job = None;

        results
            .iter()
            .map(|slot| {
                slot.lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .take()
                    // lint: allow(unwrap) — a missing result means a worker
                    // died mid-item; failing fast here is the documented
                    // contract (see the `map` panics section).
                    .expect("every work item is scheduled exactly once")
            })
            .collect()
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        {
            let mut state = self
                .shared
                .state
                .lock()
                .unwrap_or_else(PoisonError::into_inner);
            state.shutdown = true;
        }
        self.shared.work_ready.notify_all();
        for handle in self.handles.drain(..) {
            // A worker that panicked mid-job already surfaced as a
            // missing-result panic in `map`; don't double-panic during drop.
            drop(handle.join());
        }
    }
}

/// The resident worker loop: wait for a fresh generation, drain the job's
/// index queue, report completion, go back to sleep.
fn worker_loop(shared: &PoolShared) {
    let mut seen = 0u64;
    loop {
        let job = {
            let mut state = shared.state.lock().unwrap_or_else(PoisonError::into_inner);
            loop {
                if state.shutdown {
                    return;
                }
                if state.generation != seen {
                    if let Some(job) = state.job.clone() {
                        seen = state.generation;
                        break job;
                    }
                }
                state = shared
                    .work_ready
                    .wait(state)
                    .unwrap_or_else(PoisonError::into_inner);
            }
        };
        drain_job(&job);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_keep_item_order() {
        let items: Arc<Vec<usize>> = Arc::new((0..257).collect());
        let serial: Vec<usize> = items.iter().map(|value| value * 3).collect();
        for threads in [2, 4, 7] {
            let parallel = WorkerPool::new(threads).map(Arc::clone(&items), |value| value * 3);
            assert_eq!(parallel, serial, "threads = {threads}");
        }
    }

    #[test]
    fn zero_threads_means_auto() {
        assert!(effective_threads(0, 100) >= 1);
        assert_eq!(effective_threads(8, 3), 3);
        assert_eq!(effective_threads(2, 100), 2);
        assert_eq!(effective_threads(0, 0), 1);
        let pool = WorkerPool::new(0);
        assert!(pool.threads() >= 1);
        assert!(pool
            .map(Arc::new(Vec::<u32>::new()), |value| *value)
            .is_empty());
    }

    #[test]
    fn handles_more_threads_than_items() {
        let pool = WorkerPool::new(8);
        let items = Arc::new(vec![1u64, 2, 3]);
        assert_eq!(pool.map(items, |value| value + 1), vec![2, 3, 4]);
    }

    #[test]
    fn pool_matches_serial_results_in_order() {
        let pool = WorkerPool::new(4);
        let items: Arc<Vec<usize>> = Arc::new((0..257).collect());
        let serial: Vec<usize> = items.iter().map(|value| value * 3).collect();
        for _ in 0..3 {
            assert_eq!(pool.map(Arc::clone(&items), |value| value * 3), serial);
        }
    }

    #[test]
    fn pool_never_respawns_workers_across_jobs() {
        let pool = WorkerPool::new(3);
        assert_eq!(pool.threads(), 3);
        let spawned = pool.workers_spawned();
        assert_eq!(spawned, 2, "caller participates, so threads - 1 spawned");
        let items: Arc<Vec<u64>> = Arc::new((0..1000).collect());
        for round in 1..=5 {
            let sums = pool.map(Arc::clone(&items), |value| value + 1);
            assert_eq!(sums.len(), 1000);
            assert_eq!(pool.workers_spawned(), spawned, "round {round} respawned");
            assert_eq!(pool.generation(), round);
        }
    }

    #[test]
    #[should_panic]
    fn map_panics_fail_fast_instead_of_deadlocking() {
        // Whether the poisoned item lands on the caller (panic propagates
        // directly) or on a resident worker (missing-result panic), the call
        // must panic rather than block forever.
        let pool = WorkerPool::new(2);
        let items: Arc<Vec<usize>> = Arc::new((0..64).collect());
        let _ = pool.map(items, |value| {
            assert_ne!(*value, 13, "poisoned item");
            *value
        });
    }

    #[test]
    fn single_thread_pool_runs_serially() {
        let pool = WorkerPool::new(1);
        assert_eq!(pool.threads(), 1);
        assert_eq!(pool.workers_spawned(), 0);
        let items = Arc::new(vec![5u32, 6, 7]);
        assert_eq!(pool.map(items, |value| value * value), vec![25, 36, 49]);
        assert_eq!(pool.generation(), 0, "serial jobs do not wake the pool");
    }

    #[test]
    fn empty_and_singleton_inputs_short_circuit() {
        let pool = WorkerPool::new(4);
        assert!(pool
            .map(Arc::new(Vec::<u8>::new()), |value| *value)
            .is_empty());
        assert_eq!(pool.map(Arc::new(vec![9u8]), |value| value + 1), vec![10]);
        assert_eq!(pool.generation(), 0);
    }
}
