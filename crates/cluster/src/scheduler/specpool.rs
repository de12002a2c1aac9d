//! The lookahead worker pool: Real-mode task logic recorded ahead of
//! simulated time, keyed by lease so concurrent runs can share workers.

use std::collections::HashMap;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

use parking_lot::{Condvar, Mutex};

use cumulon_dfs::TileStore;

use crate::job::{ExecMode, TaskCtx, TaskFn, TaskOp};

/// One unit of lookahead work: everything a worker needs to run a task's
/// logic against a recording context, detached from any node or slot.
/// Keyed by `(lease, job, task)` so concurrent runs sharing one pool
/// never collide.
struct SpecJob {
    lease: u64,
    job: usize,
    task: usize,
    priority: u8,
    seq: u64,
    run: TaskFn,
    store: TileStore,
}

/// Result slot for one speculated task. `Running` means a worker has
/// claimed it; `take` waits on the condvar until it flips to `Done`: the
/// operation log to replay at canonical finalize time, or `None` when the
/// logic failed while recording (an errored recording may have stopped
/// mid-logic, so it is discarded and the task re-runs inline).
enum SpecSlot {
    Running,
    Done(std::thread::Result<Option<Vec<TaskOp>>>),
}

struct SpecState {
    queue: Vec<SpecJob>,
    results: HashMap<(u64, usize, usize), SpecSlot>,
    next_seq: u64,
    shutdown: bool,
}

impl SpecState {
    /// Index of the next job a worker should claim: highest priority lane
    /// first, FIFO (enqueue order) within a lane.
    fn best(&self) -> Option<usize> {
        self.queue
            .iter()
            .enumerate()
            .max_by_key(|(_, j)| (j.priority, std::cmp::Reverse(j.seq)))
            .map(|(i, _)| i)
    }
}

/// Persistent worker pool for lookahead speculation.
///
/// A run leases the pool (crate-internal `lease`); every speculated task is
/// keyed by the lease id, so many concurrent runs (e.g. a multi-tenant
/// service, see `cumulon-serve`) can share one pool without their results
/// colliding. The queue is priority-ordered: higher
/// [`SchedulerConfig::lane_priority`](super::SchedulerConfig::lane_priority)
/// lanes are claimed first, FIFO within a lane. Workers park on a condvar
/// between jobs, so feeding a task costs a queue push, not a thread spawn.
///
/// Sharing never affects results: speculation is a cache the canonical
/// DES-loop replay validates read-for-read, so a starved lane merely falls
/// back to inline execution, which is bitwise-equivalent by construction.
pub struct SpecPool {
    state: Arc<(Mutex<SpecState>, Condvar)>,
    workers: Vec<std::thread::JoinHandle<()>>,
    next_lease: AtomicU64,
}

/// One run's lease on a [`SpecPool`]. Dropping the lease withdraws any of
/// the run's still-queued work and discards its unclaimed results.
pub(super) struct SpecLease {
    pool: Arc<SpecPool>,
    lease: u64,
    priority: u8,
}

impl Drop for SpecLease {
    fn drop(&mut self) {
        self.pool.retire(self.lease);
    }
}

impl SpecPool {
    /// Creates a pool with `threads` worker threads.
    pub(crate) fn new(threads: usize) -> Self {
        let state = Arc::new((
            Mutex::new(SpecState {
                queue: Vec::new(),
                results: HashMap::new(),
                next_seq: 0,
                shutdown: false,
            }),
            Condvar::new(),
        ));
        let workers = (0..threads)
            .map(|_| {
                let state = Arc::clone(&state);
                std::thread::spawn(move || Self::worker(state))
            })
            .collect();
        SpecPool {
            state,
            workers,
            next_lease: AtomicU64::new(0),
        }
    }

    pub(super) fn lease(self: &Arc<Self>, priority: u8) -> SpecLease {
        SpecLease {
            pool: Arc::clone(self),
            lease: self.next_lease.fetch_add(1, Ordering::Relaxed),
            priority,
        }
    }

    fn worker(state: Arc<(Mutex<SpecState>, Condvar)>) {
        let (lock, cvar) = &*state;
        loop {
            let job = {
                let mut st = lock.lock();
                loop {
                    if let Some(i) = st.best() {
                        let job = st.queue.swap_remove(i);
                        // Marked Running under the same lock as the pop, so
                        // `take` always sees a job as queued or slotted,
                        // never in between.
                        st.results
                            .insert((job.lease, job.job, job.task), SpecSlot::Running);
                        break job;
                    }
                    if st.shutdown {
                        return;
                    }
                    st = cvar.wait(st);
                }
            };
            let recorded = catch_unwind(AssertUnwindSafe(|| {
                // Only Real-mode runs lease a pool: phantom tasks compute
                // nothing worth running ahead.
                let mut ctx = TaskCtx::new_recording(job.store.clone(), ExecMode::Real);
                (job.run)(&mut ctx).is_ok().then(|| ctx.into_ops())
            }));
            let mut st = lock.lock();
            st.results
                .insert((job.lease, job.job, job.task), SpecSlot::Done(recorded));
            cvar.notify_all();
        }
    }

    /// Withdraws a finished run's queued work and unclaimed results.
    /// In-flight recordings are left to complete (workers hold no lock
    /// while executing); their slots are reaped here or on the next
    /// retire, so a crashed run can never wedge the pool.
    fn retire(&self, lease: u64) {
        let (lock, _) = &*self.state;
        let mut st = lock.lock();
        st.queue.retain(|q| q.lease != lease);
        st.results
            .retain(|&(l, _, _), slot| l != lease || matches!(slot, SpecSlot::Running));
    }
}

impl SpecLease {
    /// Enqueues `(job, task, logic)` triples, stamping lane priority and
    /// FIFO sequence numbers.
    pub(super) fn enqueue(&self, tasks: Vec<(usize, usize, TaskFn)>, store: &TileStore) {
        let (lock, cvar) = &*self.pool.state;
        let mut st = lock.lock();
        for (job, task, run) in tasks {
            let seq = st.next_seq;
            st.next_seq += 1;
            st.queue.push(SpecJob {
                lease: self.lease,
                job,
                task,
                priority: self.priority,
                seq,
                run,
                store: store.clone(),
            });
        }
        cvar.notify_all();
    }

    /// Claims the recorded operation log for `(job, task)`. A finished
    /// recording is returned; a running one is waited for; a still-queued
    /// one is withdrawn and `None` returned (the caller executes inline).
    /// Each recording is consumed at most once — retries and backup copies
    /// find nothing and fall back to inline execution, which must re-run
    /// the logic anyway for side effects a new attempt would redo.
    pub(super) fn take(&self, job: usize, task: usize) -> Option<Vec<TaskOp>> {
        let key = (self.lease, job, task);
        let (lock, cvar) = &*self.pool.state;
        let mut st = lock.lock();
        loop {
            match st.results.get(&key) {
                Some(SpecSlot::Done(_)) => {
                    let Some(SpecSlot::Done(recorded)) = st.results.remove(&key) else {
                        unreachable!("matched Done above");
                    };
                    drop(st);
                    match recorded {
                        Ok(ops) => return ops,
                        Err(panic) => resume_unwind(panic),
                    }
                }
                Some(SpecSlot::Running) => st = cvar.wait(st),
                None => {
                    if let Some(pos) = st
                        .queue
                        .iter()
                        .position(|q| (q.lease, q.job, q.task) == key)
                    {
                        st.queue.swap_remove(pos);
                    }
                    return None;
                }
            }
        }
    }
}

impl Drop for SpecPool {
    fn drop(&mut self) {
        {
            let (lock, cvar) = &*self.state;
            let mut st = lock.lock();
            st.shutdown = true;
            st.queue.clear();
            cvar.notify_all();
        }
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

/// The process-wide shared speculation pool
/// ([`SchedulerConfig::shared_pool`](super::SchedulerConfig::shared_pool)).
/// Created on first use with `threads` workers (`0`: one per available
/// core, as [`SchedulerConfig::threads`](super::SchedulerConfig::threads));
/// later calls return the same pool regardless of the requested size
/// (worker count is a process-level resource, fixed once). A multi-tenant service creates it
/// at startup so every admitted run competes for the same workers under
/// lane priorities instead of spawning a private pool per request.
pub fn shared_spec_pool(threads: usize) -> Arc<SpecPool> {
    static SHARED: OnceLock<Arc<SpecPool>> = OnceLock::new();
    Arc::clone(SHARED.get_or_init(|| Arc::new(SpecPool::new(super::resolve_threads(threads)))))
}
