//! The work-stealing fleet stepper: parallel node advancement between
//! routing instants.
//!
//! Between two consecutive routing/admission instants the member nodes of
//! a [`Fleet`](crate::Fleet) are *independent* simulations — no query
//! moves between them, and no node reads another's state — so
//! `Fleet::advance_nodes_to(t)` can farm each node's
//! [`Driver::run_until`] out to a pool of worker threads while every
//! routing and admission decision stays on the coordinator thread. The
//! result is bit-identical to the sequential stepper: each driver runs
//! the exact same event loop over the exact same inputs, only on a
//! different OS thread, and the coordinator blocks until every node has
//! reached `t` before it makes the next routing decision.
//!
//! The pool is deliberately self-contained (std only, no external crate):
//! persistent workers parked on a condvar, one double-ended work queue
//! per worker, and FIFO stealing from the far end of a victim's queue
//! when a worker's own queue runs dry — the classic deque/stealer shape,
//! with plain mutexed `VecDeque`s instead of lock-free Chase-Lev deques
//! (node advancement is millisecond-scale work; queue overhead is noise).

use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::JoinHandle;

use veltair_sched::runtime::Driver;
use veltair_sim::SimTime;

use crate::fleet::FINITE_INSTANTS;

/// How a fleet advances its member nodes to the next routing instant.
///
/// Both modes produce **bit-identical** results — same
/// [`FleetReport`](crate::FleetReport), same pooled percentiles, same
/// per-node snapshots — because nodes are independent between routing
/// instants and every routing/admission decision happens on the
/// coordinator thread in submission order. Parallel mode only changes
/// *which OS thread* runs each node's event loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StepMode {
    /// Advance nodes one after another on the coordinator thread.
    #[default]
    Sequential,
    /// Farm node advancement out to a work-stealing pool of worker
    /// threads. `threads` is clamped to at least 1; `Parallel { threads:
    /// 1 }` is useful in tests (it exercises the pool machinery while
    /// trivially matching sequential scheduling).
    Parallel {
        /// Worker threads in the stepper pool.
        threads: usize,
    },
}

impl StepMode {
    /// The worker count this mode would run with: `None` for sequential,
    /// the clamped thread count for parallel.
    #[must_use]
    pub fn worker_threads(self) -> Option<usize> {
        match self {
            StepMode::Sequential => None,
            StepMode::Parallel { threads } => Some(threads.max(1)),
        }
    }

    /// Display name used in tables and snapshots.
    #[must_use]
    pub fn name(self) -> &'static str {
        match self {
            StepMode::Sequential => "sequential",
            StepMode::Parallel { .. } => "parallel",
        }
    }
}

// `Driver` must be `Send` for the pool to farm `&mut Driver` references
// out to worker threads; assert it at compile time so a future non-Send
// field inside the scheduler runtime fails here, with this explanation,
// rather than deep inside a trait bound.
const fn assert_send<T: Send>() {}
const _: () = assert_send::<Driver<'static>>();

/// A lifetime-erased pointer to one node's driver. Exactly one worker
/// dereferences each pointer per job (node indices are enqueued once and
/// popped once), and the coordinator blocks until the job completes, so
/// the pointee is never aliased and never outlived.
struct NodePtr(*mut Driver<'static>);

// SAFETY: the pointer is only dereferenced by the single worker that
// popped its index (disjoint &mut access), while the coordinator — the
// thread that owns the `&mut [Driver]` — is blocked in
// `StepperPool::advance` keeping the borrow alive.
unsafe impl Send for NodePtr {}
unsafe impl Sync for NodePtr {}

/// Locks a mutex, ignoring poisoning: every structure the pool guards
/// (index deques, the pool state machine) stays valid across a panic at
/// any point, and the panic itself is captured and re-raised on the
/// coordinator — so a poisoned lock must not cascade into secondary
/// panics that would hide the original.
fn lock_ignore_poison<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// One advancement job: every node must reach `t` — or, when `t` is
/// `None`, run its event loop to exhaustion (the final fleet drain).
struct Job {
    /// One work queue per worker; node indices, round-robin distributed.
    queues: Vec<Mutex<VecDeque<usize>>>,
    /// Lifetime-erased per-node driver pointers, indexed by node.
    nodes: Vec<NodePtr>,
    /// The routing instant every node advances to; `None` drains.
    t: Option<SimTime>,
    /// Workers that have not yet drained every queue.
    remaining: AtomicUsize,
    /// The first panic payload captured from a worker, re-raised on the
    /// coordinator once the job settles — parallel mode must surface a
    /// node's panic exactly like sequential mode would, not hang.
    panic: Mutex<Option<Box<dyn std::any::Any + Send>>>,
}

impl Job {
    /// Worker `id`'s share of the job: drain its own queue from the back
    /// (LIFO — cache-warm for the worker), then steal from the *front* of
    /// other workers' queues (FIFO — the end the owner touches last).
    fn run_worker(&self, id: usize) {
        loop {
            let idx = self.claim(id);
            match idx {
                Some(i) => {
                    // SAFETY: see `NodePtr` — `i` was popped exactly once
                    // across all queues, so this is the only live access,
                    // and the coordinator keeps the slice borrow alive
                    // until `remaining` hits zero.
                    let ptr = self.nodes[i].0;
                    let driver = unsafe { &mut *ptr };
                    match self.t {
                        Some(t) => driver.run_until(t).expect(FINITE_INSTANTS),
                        None => driver.run_to_completion(),
                    }
                }
                None => return,
            }
        }
    }

    /// Pops the next node index for worker `id`: own queue first, then a
    /// steal sweep over the other queues.
    fn claim(&self, id: usize) -> Option<usize> {
        if let Some(i) = lock_ignore_poison(&self.queues[id]).pop_back() {
            return Some(i);
        }
        let n = self.queues.len();
        for k in 1..n {
            let victim = (id + k) % n;
            if let Some(i) = lock_ignore_poison(&self.queues[victim]).pop_front() {
                return Some(i);
            }
        }
        None
    }
}

/// What the coordinator and the workers share.
struct Shared {
    state: Mutex<PoolState>,
    /// Workers park here waiting for the next job (or shutdown).
    work: Condvar,
    /// The coordinator parks here waiting for job completion.
    done: Condvar,
}

struct PoolState {
    /// Bumped once per job so a worker never re-runs a job it finished.
    epoch: u64,
    /// The in-flight job, if any.
    job: Option<Arc<Job>>,
    /// Set once, on pool drop.
    shutdown: bool,
}

/// A persistent pool of worker threads advancing fleet nodes. Created
/// when a fleet switches to [`StepMode::Parallel`]; workers park between
/// jobs, so per-routing-instant overhead is a mutex/condvar round trip
/// rather than thread spawns.
pub(crate) struct StepperPool {
    shared: Arc<Shared>,
    workers: Vec<JoinHandle<()>>,
}

impl std::fmt::Debug for StepperPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("StepperPool")
            .field("threads", &self.workers.len())
            .finish()
    }
}

impl StepperPool {
    /// Spawns a pool with `threads` workers (clamped to at least 1).
    pub(crate) fn new(threads: usize) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            state: Mutex::new(PoolState {
                epoch: 0,
                job: None,
                shutdown: false,
            }),
            work: Condvar::new(),
            done: Condvar::new(),
        });
        let workers = (0..threads)
            .map(|id| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("veltair-stepper-{id}"))
                    .spawn(move || worker_loop(&shared, id))
                    .expect("spawn stepper worker")
            })
            .collect();
        Self { shared, workers }
    }

    /// Number of worker threads.
    pub(crate) fn threads(&self) -> usize {
        self.workers.len()
    }

    /// Advances every driver to `t`, farming the per-node event loops out
    /// to the workers, and blocks until all of them get there. On return
    /// every driver has run `run_until(t)` exactly once.
    pub(crate) fn advance(&self, drivers: &mut [Driver<'_>], t: SimTime) {
        self.submit(drivers, Some(t));
    }

    /// Runs every driver's event loop to exhaustion in parallel — the
    /// fleet's final drain, once no arrivals remain to route.
    pub(crate) fn drain(&self, drivers: &mut [Driver<'_>]) {
        self.submit(drivers, None);
    }

    fn submit(&self, drivers: &mut [Driver<'_>], t: Option<SimTime>) {
        if drivers.is_empty() {
            return;
        }
        let threads = self.workers.len();
        // Round-robin the node indices across the worker queues: adjacent
        // (often similarly loaded) nodes land on different workers, and
        // stealing rebalances whatever skew remains.
        let mut queues: Vec<VecDeque<usize>> = (0..threads).map(|_| VecDeque::new()).collect();
        for i in 0..drivers.len() {
            queues[i % threads].push_back(i);
        }
        let job = Arc::new(Job {
            queues: queues.into_iter().map(Mutex::new).collect(),
            nodes: drivers
                .iter_mut()
                .map(|d| NodePtr((d as *mut Driver<'_>).cast::<Driver<'static>>()))
                .collect(),
            t,
            remaining: AtomicUsize::new(threads),
            panic: Mutex::new(None),
        });
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            state.epoch += 1;
            state.job = Some(Arc::clone(&job));
            self.shared.work.notify_all();
            // Block until every worker has drained every queue: the `&mut
            // [Driver]` borrow must stay alive for as long as any worker
            // may touch a node pointer. Workers decrement `remaining` even
            // when their share of the job panics (the payload is parked in
            // `job.panic`), so this wait cannot hang on a worker panic.
            while job.remaining.load(Ordering::Acquire) != 0 {
                state = self
                    .shared
                    .done
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
            state.job = None;
        }
        // Re-raise a captured worker panic here, on the thread that owns
        // the fleet — the same unwind a sequential `run_until` would have
        // produced, just relayed across the pool boundary.
        let payload = lock_ignore_poison(&job.panic).take();
        if let Some(payload) = payload {
            std::panic::resume_unwind(payload);
        }
    }
}

impl Drop for StepperPool {
    fn drop(&mut self) {
        {
            let mut state = lock_ignore_poison(&self.shared.state);
            state.shutdown = true;
            self.shared.work.notify_all();
        }
        for handle in self.workers.drain(..) {
            let _ = handle.join();
        }
    }
}

fn worker_loop(shared: &Shared, id: usize) {
    let mut seen_epoch = 0u64;
    loop {
        // Park until a job with a fresh epoch appears (or shutdown).
        let job = {
            let mut state = lock_ignore_poison(&shared.state);
            loop {
                if state.shutdown {
                    return;
                }
                if state.epoch != seen_epoch {
                    if let Some(job) = state.job.as_ref() {
                        seen_epoch = state.epoch;
                        break Arc::clone(job);
                    }
                }
                state = shared
                    .work
                    .wait(state)
                    .unwrap_or_else(std::sync::PoisonError::into_inner);
            }
        };
        // A panic inside a node's event loop must not strand the job: the
        // coordinator is blocked until `remaining` reaches zero, so catch
        // the unwind, park the first payload for the coordinator to
        // re-raise, and fall through to the decrement below.
        if let Err(payload) =
            std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| job.run_worker(id)))
        {
            lock_ignore_poison(&job.panic).get_or_insert(payload);
        }
        // Completion is signalled under the state lock so the coordinator
        // cannot check `remaining` between our decrement and our notify
        // and miss the wakeup.
        let _state = lock_ignore_poison(&shared.state);
        if job.remaining.fetch_sub(1, Ordering::AcqRel) == 1 {
            shared.done.notify_all();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use veltair_compiler::{compile_model, CompiledModel, CompilerOptions};
    use veltair_sched::{Policy, SimConfig, WorkloadSpec};
    use veltair_sim::MachineConfig;

    fn models() -> Vec<CompiledModel> {
        let machine = MachineConfig::threadripper_3990x();
        vec![compile_model(
            &veltair_models::mobilenet_v2(),
            &machine,
            &CompilerOptions::fast(),
        )]
    }

    fn loaded_drivers(models: &[CompiledModel], nodes: usize) -> Vec<Driver<'_>> {
        let machine = MachineConfig::desktop_8core();
        let queries = WorkloadSpec::single("mobilenet_v2", 120.0, 12).generate(3);
        (0..nodes)
            .map(|_| {
                Driver::new(
                    models,
                    &queries,
                    SimConfig::new(machine.clone(), Policy::VeltairFull),
                )
                .expect("valid workload")
            })
            .collect()
    }

    #[test]
    fn step_mode_accessors() {
        assert_eq!(StepMode::default(), StepMode::Sequential);
        assert_eq!(StepMode::Sequential.worker_threads(), None);
        assert_eq!(
            StepMode::Parallel { threads: 0 }.worker_threads(),
            Some(1),
            "zero threads clamps to one worker"
        );
        assert_eq!(StepMode::Parallel { threads: 8 }.worker_threads(), Some(8));
        assert_eq!(StepMode::Sequential.name(), "sequential");
        assert_eq!(StepMode::Parallel { threads: 2 }.name(), "parallel");
    }

    #[test]
    fn pool_advances_every_node_exactly_like_the_coordinator_would() {
        let models = models();
        for threads in [1, 2, 5, 8] {
            let mut seq = loaded_drivers(&models, 7);
            let mut par = loaded_drivers(&models, 7);
            let pool = StepperPool::new(threads);
            assert_eq!(pool.threads(), threads);
            // Advance in several strides, as the fleet would between
            // routing instants.
            for t in [0.01, 0.02, 0.05, 0.2, 1.0, 5.0] {
                let t = SimTime(t);
                for d in &mut seq {
                    d.run_until(t).expect("finite target");
                }
                pool.advance(&mut par, t);
                for (a, b) in seq.iter().zip(&par) {
                    assert_eq!(a.now(), b.now());
                    assert_eq!(a.outstanding(), b.outstanding());
                    assert_eq!(a.completions(), b.completions());
                }
            }
            // Drain the tails in parallel too, as the fleet's
            // run_to_completion does.
            for d in &mut seq {
                d.run_to_completion();
            }
            pool.drain(&mut par);
            let seq_reports: Vec<_> = seq.into_iter().map(|d| d.finish().0).collect();
            let par_reports: Vec<_> = par.into_iter().map(|d| d.finish().0).collect();
            assert_eq!(seq_reports, par_reports, "threads={threads}");
        }
    }

    #[test]
    fn pool_survives_empty_and_single_node_jobs() {
        let models = models();
        let pool = StepperPool::new(4);
        let mut none: Vec<Driver<'_>> = Vec::new();
        pool.advance(&mut none, SimTime(1.0));
        let mut one = loaded_drivers(&models, 1);
        pool.advance(&mut one, SimTime(10.0));
        pool.advance(&mut one, SimTime(10.0)); // idempotent re-advance
        assert!(one[0].now() >= SimTime(10.0));
    }

    #[test]
    fn pool_shutdown_is_clean_with_a_job_history() {
        let models = models();
        let mut drivers = loaded_drivers(&models, 3);
        {
            let pool = StepperPool::new(2);
            pool.advance(&mut drivers, SimTime(0.5));
        } // drop joins the workers
        assert!(drivers.iter().all(|d| d.now() >= SimTime(0.5)));
    }
}
