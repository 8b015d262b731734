//! A small, offline executor for coarse-grained fan-out: one persistent
//! worker pool.
//!
//! The build environment has no crates.io access, so rayon is unavailable;
//! before this crate the workspace fanned work out with ad-hoc
//! `std::thread::scope` chunking (one contiguous chunk per worker), which
//! load-balances badly when per-item cost is skewed — exactly the busy-beaver
//! situation, where a segment full of symbolically-rejected candidates is two
//! orders of magnitude cheaper than one full of profiled candidates.
//!
//! [`Pool`] spawns its workers once and reuses them for every
//! [`Pool::map`]:
//!
//! * a call enqueues one job per item on a **shared FIFO queue**, so items
//!   start in submission order and an idle worker takes the next one —
//!   skewed items cannot strand a pre-dealt chunk behind a slow one;
//! * the submitting thread **helps** while it waits, running queued jobs
//!   itself, so nested `map` calls from inside jobs cannot deadlock;
//! * results carry their submission index and come back **in submission
//!   order**, so the output of [`Pool::map`] is independent of scheduling:
//!   the same `Vec` for any worker count.
//!
//! Everything is `std`: one `Mutex<VecDeque>` queue and a condvar (tasks
//! here are coarse — microseconds to seconds each — so lock traffic is
//! noise).  A process-wide default pool lives behind [`global`].  See
//! `crates/exec/README.md` for the determinism argument this executor
//! underwrites in the segmented busy-beaver search.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::Instant;

use popproto_obs as obs;

/// Scheduling counters of one [`Pool`]'s lifetime (diagnostic only — the
/// *results* never depend on them).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Worker threads (excluding helping submitters).
    pub workers: usize,
    /// Jobs executed by a submitting thread in the helping wait.
    pub helped: u64,
    /// Jobs executed by each worker, indexed by worker.
    pub per_worker_tasks: Vec<u64>,
    /// Wall-clock nanoseconds each worker spent parked on the queue
    /// condvar, indexed by worker.
    pub per_worker_idle_ns: Vec<u64>,
}

impl PoolStats {
    /// Total jobs executed by workers (excluding helping submitters).
    pub fn total_tasks(&self) -> u64 {
        self.per_worker_tasks.iter().sum()
    }

    /// Publishes the counters into the global metrics registry: gauges
    /// `{prefix}.workers` / `{prefix}.helped`, and histograms
    /// `{prefix}.worker_tasks` / `{prefix}.worker_idle_ns` with one
    /// observation per worker.
    pub fn publish(&self, prefix: &str) {
        let reg = obs::registry();
        reg.set_gauge(&format!("{prefix}.workers"), self.workers as i64);
        reg.set_gauge(&format!("{prefix}.helped"), self.helped as i64);
        let tasks = reg.histogram(&format!("{prefix}.worker_tasks"));
        for &n in &self.per_worker_tasks {
            tasks.observe(n);
        }
        let idle = reg.histogram(&format!("{prefix}.worker_idle_ns"));
        for &ns in &self.per_worker_idle_ns {
            idle.observe(ns);
        }
    }
}

/// The worker count [`Pool::new`] uses when the caller passes `0`: the
/// machine's available parallelism.
fn default_workers() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// A boxed unit of pool work.  Jobs never unwind: panics are caught inside
/// the job and re-raised on the submitting thread.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// The queue shared between a pool's submitters and its workers.
struct PoolShared {
    state: Mutex<PoolQueue>,
    /// Signalled when jobs are enqueued (and at shutdown).
    available: Condvar,
    /// Jobs executed by each worker over the pool's lifetime.
    worker_tasks: Vec<AtomicU64>,
    /// Nanoseconds each worker spent parked on the queue condvar.
    worker_idle_ns: Vec<AtomicU64>,
    /// Jobs executed by submitting threads inside a helping wait.
    helped: AtomicU64,
}

struct PoolQueue {
    jobs: VecDeque<Job>,
    shutdown: bool,
}

/// Bookkeeping of one in-flight [`Pool::map`] call.
struct MapCall<T> {
    /// Items not yet finished; guarded by the same mutex the completion
    /// condvar uses, so the final notification cannot be lost.
    remaining: Mutex<usize>,
    done: Condvar,
    results: Mutex<Vec<Option<T>>>,
    /// First panic payload raised by a job of this call.
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

/// A persistent worker pool: threads are spawned once in [`Pool::new`] and
/// reused by every subsequent [`Pool::map`], so wave-structured drivers
/// (many fan-outs over the life of one computation) stop paying a
/// spawn/join per wave.
///
/// Jobs must be `'static` — callers share borrowed state via `Arc` instead
/// of references.  Submission is scope-style in the sense that
/// [`Pool::map`] only returns once every one of its items has completed
/// (and while waiting it *helps*, executing queued jobs itself, which also
/// makes nested `map` calls from inside jobs deadlock-free).  Results come
/// back in submission order and panics in jobs propagate to the submitting
/// thread.
pub struct Pool {
    shared: Arc<PoolShared>,
    handles: Vec<std::thread::JoinHandle<()>>,
    workers: usize,
}

impl Pool {
    /// Spawns a pool of `workers` threads (`0` = the machine's available
    /// parallelism).
    pub fn new(workers: usize) -> Self {
        let workers = if workers == 0 {
            default_workers()
        } else {
            workers
        };
        let shared = Arc::new(PoolShared {
            state: Mutex::new(PoolQueue {
                jobs: VecDeque::new(),
                shutdown: false,
            }),
            available: Condvar::new(),
            worker_tasks: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            worker_idle_ns: (0..workers).map(|_| AtomicU64::new(0)).collect(),
            helped: AtomicU64::new(0),
        });
        let handles = (0..workers)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("popproto-pool-{i}"))
                    .spawn(move || worker_loop(&shared, i))
                    .expect("failed to spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            handles,
            workers,
        }
    }

    /// The number of worker threads (excluding helping submitters).
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Cumulative scheduling counters since the pool was created: jobs
    /// per worker, condvar-parked nanoseconds per worker, and jobs run
    /// by helping submitters.
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            workers: self.workers,
            helped: self.shared.helped.load(Ordering::Relaxed),
            per_worker_tasks: self
                .shared
                .worker_tasks
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            per_worker_idle_ns: self
                .shared
                .worker_idle_ns
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
        }
    }

    /// Maps `f` over `items` on the pool, returning results in submission
    /// order.  Blocks until every item is done; while blocked, the calling
    /// thread executes queued jobs itself (its own or other calls'), so the
    /// pool is work-conserving and nested calls cannot deadlock.
    pub fn map<I, T, F>(&self, items: Vec<I>, f: F) -> Vec<T>
    where
        I: Send + 'static,
        T: Send + 'static,
        F: Fn(usize, I) -> T + Send + Sync + 'static,
    {
        let total = items.len();
        if total == 0 {
            return Vec::new();
        }
        let f = Arc::new(f);
        let call: Arc<MapCall<T>> = Arc::new(MapCall {
            remaining: Mutex::new(total),
            done: Condvar::new(),
            results: Mutex::new((0..total).map(|_| None).collect()),
            panic: Mutex::new(None),
        });

        let jobs: Vec<Job> = items
            .into_iter()
            .enumerate()
            .map(|(i, item)| {
                let f = Arc::clone(&f);
                let call = Arc::clone(&call);
                let job: Job = Box::new(move || {
                    match catch_unwind(AssertUnwindSafe(|| f(i, item))) {
                        Ok(value) => {
                            call.results.lock().expect("pool results poisoned")[i] = Some(value);
                        }
                        Err(payload) => {
                            let mut slot = call.panic.lock().expect("pool panic slot poisoned");
                            if slot.is_none() {
                                *slot = Some(payload);
                            }
                        }
                    }
                    let mut remaining = call.remaining.lock().expect("pool remaining poisoned");
                    *remaining -= 1;
                    if *remaining == 0 {
                        call.done.notify_all();
                    }
                });
                job
            })
            .collect();
        {
            let mut state = self.shared.state.lock().expect("pool queue poisoned");
            assert!(!state.shutdown, "map on a shut-down pool");
            state.jobs.extend(jobs);
        }
        self.shared.available.notify_all();

        // Helping wait: prefer running a queued job over sleeping.  We only
        // sleep after observing an empty queue, and completion notifications
        // happen under the `remaining` lock we hold across the check, so the
        // last wakeup cannot be lost.
        loop {
            if *call.remaining.lock().expect("pool remaining poisoned") == 0 {
                break;
            }
            let job = self
                .shared
                .state
                .lock()
                .expect("pool queue poisoned")
                .jobs
                .pop_front();
            match job {
                Some(job) => {
                    self.shared.helped.fetch_add(1, Ordering::Relaxed);
                    let _help = obs::span("help");
                    job();
                }
                None => {
                    let remaining = call.remaining.lock().expect("pool remaining poisoned");
                    if *remaining > 0 {
                        drop(
                            call.done
                                .wait(remaining)
                                .expect("pool completion wait poisoned"),
                        );
                    }
                }
            }
        }

        if let Some(payload) = call.panic.lock().expect("pool panic slot poisoned").take() {
            resume_unwind(payload);
        }
        let mut results = call.results.lock().expect("pool results poisoned");
        std::mem::take(&mut *results)
            .into_iter()
            .map(|slot| slot.expect("pool lost an item"))
            .collect()
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        self.shared
            .state
            .lock()
            .expect("pool queue poisoned")
            .shutdown = true;
        self.shared.available.notify_all();
        for handle in self.handles.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &PoolShared, me: usize) {
    loop {
        let job = {
            let mut state = shared.state.lock().expect("pool queue poisoned");
            loop {
                if let Some(job) = state.jobs.pop_front() {
                    break Some(job);
                }
                if state.shutdown {
                    break None;
                }
                let idle_span = if obs::enabled() {
                    Some(obs::span("idle"))
                } else {
                    None
                };
                let parked = Instant::now();
                state = shared
                    .available
                    .wait(state)
                    .expect("pool idle wait poisoned");
                shared.worker_idle_ns[me]
                    .fetch_add(parked.elapsed().as_nanos() as u64, Ordering::Relaxed);
                drop(idle_span);
            }
        };
        match job {
            Some(job) => {
                shared.worker_tasks[me].fetch_add(1, Ordering::Relaxed);
                let _job_span = obs::span("job");
                job();
            }
            None => return,
        }
    }
}

/// The process-wide default pool, sized to the machine's available
/// parallelism, created on first use and never torn down.  Library
/// fan-outs that run many times per process (experiment runs, search
/// waves) go through this pool so the whole process shares one set of
/// threads.
pub fn global() -> &'static Pool {
    static GLOBAL: OnceLock<Pool> = OnceLock::new();
    GLOBAL.get_or_init(|| Pool::new(0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn results_come_back_in_submission_order() {
        for workers in [0, 1, 2, 3, 7, 16] {
            let pool = Pool::new(workers);
            let items: Vec<u64> = (0..257).collect();
            let out = pool.map(items.clone(), |i, x| {
                assert_eq!(i as u64, x);
                x * 3 + 1
            });
            let expected: Vec<u64> = items.iter().map(|x| x * 3 + 1).collect();
            assert_eq!(out, expected, "workers = {workers}");
        }
    }

    #[test]
    fn zero_workers_means_available_parallelism() {
        let pool = Pool::new(0);
        assert_eq!(pool.workers(), default_workers());
        assert!(pool.workers() >= 1);
        assert_eq!(pool.map(vec![5u32; 9], |_, x| x), vec![5u32; 9]);
    }

    #[test]
    fn pool_map_matches_scoped_map_across_reuse() {
        let pool = Pool::new(3);
        for round in 0..5u64 {
            let items: Vec<u64> = (0..97).collect();
            let expected: Vec<u64> = items.iter().map(|x| x * 7 + round).collect();
            let got = pool.map(items, move |i, x| {
                assert_eq!(i as u64, x);
                x * 7 + round
            });
            assert_eq!(got, expected, "round {round}");
        }
    }

    #[test]
    fn pool_shares_state_through_arcs() {
        let pool = Pool::new(2);
        let base = Arc::new(vec![10u64, 20, 30]);
        let captured = Arc::clone(&base);
        let out = pool.map(vec![0usize, 1, 2], move |_, i| captured[i] + 1);
        assert_eq!(out, vec![11, 21, 31]);
    }

    #[test]
    fn pool_with_one_worker_still_completes_via_helping() {
        let pool = Pool::new(1);
        let out = pool.map((0..64u64).collect(), |_, x| x + 1);
        assert_eq!(out, (1..=64).collect::<Vec<_>>());
    }

    #[test]
    fn nested_pool_maps_do_not_deadlock() {
        let pool = Arc::new(Pool::new(2));
        let inner_pool = Arc::clone(&pool);
        let out = pool.map((0..8u64).collect(), move |_, x| {
            // Every job fans out again on the same (fully busy) pool; the
            // helping wait must pick up the sub-jobs.
            inner_pool.map((0..4u64).collect(), move |_, y| x * 10 + y)
        });
        for (x, sub) in out.iter().enumerate() {
            let expected: Vec<u64> = (0..4).map(|y| x as u64 * 10 + y).collect();
            assert_eq!(*sub, expected);
        }
    }

    #[test]
    #[should_panic(expected = "pool boom")]
    fn pool_job_panics_propagate_to_the_submitter() {
        let pool = Pool::new(2);
        pool.map(vec![0u32, 1, 2, 3], |_, x| {
            if x == 3 {
                panic!("pool boom");
            }
            x
        });
    }

    #[test]
    #[should_panic(expected = "boom")]
    fn job_panics_propagate() {
        // A single worker that panics on the first job still hands the panic
        // back to the submitter instead of hanging the map.
        let pool = Pool::new(1);
        pool.map(vec![0u32, 1, 2, 3], |_, x| {
            if x == 0 {
                panic!("boom");
            }
            x
        });
    }

    #[test]
    fn pool_survives_a_panicked_map() {
        let pool = Pool::new(2);
        let poisoned = std::panic::catch_unwind(AssertUnwindSafe(|| {
            pool.map(vec![0u32, 1], |_, _| -> u32 { panic!("first call dies") });
        }));
        assert!(poisoned.is_err());
        // The workers caught the panic inside the job; the pool still runs.
        let out = pool.map(vec![1u32, 2, 3], |_, x| x * 2);
        assert_eq!(out, vec![2, 4, 6]);
    }

    #[test]
    fn global_pool_is_shared_and_usable() {
        let a = global().map(vec![1u32, 2], |_, x| x);
        assert_eq!(a, vec![1, 2]);
        assert!(global().workers() >= 1);
    }

    #[test]
    fn empty_pool_map_returns_immediately() {
        let pool = Pool::new(2);
        let out: Vec<u32> = pool.map(Vec::<u32>::new(), |_, x| x);
        assert!(out.is_empty());
    }

    #[test]
    fn empty_input_yields_empty_output() {
        for workers in [0, 1, 4] {
            let pool = Pool::new(workers);
            let out: Vec<u32> = pool.map(Vec::<u32>::new(), |_, x| x);
            assert!(out.is_empty());
            assert_eq!(pool.stats().total_tasks(), 0);
        }
    }

    #[test]
    fn pool_stats_account_for_every_job() {
        let pool = Pool::new(2);
        for _ in 0..3 {
            let _ = pool.map((0..32u64).collect(), |_, x| x + 1);
        }
        let stats = pool.stats();
        assert_eq!(stats.workers, 2);
        assert_eq!(stats.per_worker_tasks.len(), 2);
        assert_eq!(stats.per_worker_idle_ns.len(), 2);
        assert_eq!(
            stats.total_tasks() + stats.helped,
            96,
            "workers + helping submitter must cover all jobs: {stats:?}"
        );
    }

    #[test]
    fn pool_stats_publish_lands_in_the_metrics_registry() {
        let stats = PoolStats {
            workers: 3,
            helped: 2,
            per_worker_tasks: vec![10, 11, 12],
            per_worker_idle_ns: vec![0, 1_000, 2_000],
        };
        stats.publish("exec.test.pool");
        let snap = obs::registry().snapshot();
        let gauge = |name: &str| {
            snap.gauges
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| *v)
                .unwrap_or_else(|| panic!("gauge {name} missing"))
        };
        assert_eq!(gauge("exec.test.pool.workers"), 3);
        assert_eq!(gauge("exec.test.pool.helped"), 2);
        let tasks = snap
            .histograms
            .iter()
            .find(|h| h.name == "exec.test.pool.worker_tasks")
            .expect("worker_tasks histogram missing");
        assert_eq!(tasks.count, 3);
        assert_eq!(tasks.sum, 33);
    }
}
