//! Slot-wave scheduling of job DAGs over `nodes × slots`, with locality
//! preference, retry on task failure, and node-failure handling.
//!
//! The scheduler is a discrete-event simulation. When a task is assigned to
//! a slot its logic is resolved *immediately* (real or phantom math against
//! the shared tile store), producing a receipt; the hardware model turns
//! the receipt into a simulated duration and a completion event is
//! scheduled. Simulated time therefore advances only through the event
//! queue and is fully deterministic for a given seed.
//!
//! One run is an `Exec`: this file holds its configuration, state and the
//! event loop; the `impl Exec` blocks of the submodules hold the rest —
//! `fill` (the wave that fills free slots), `prefetch` (spill-plane
//! residency and readmission), `faults` (node failures and revocations)
//! and `specpool` (the lookahead worker pool).
//!
//! ## Lookahead speculation (host parallelism)
//!
//! With `threads > 1`, Real-mode task *compute* runs ahead of simulated
//! time on a persistent worker pool (`SpecPool`, created once per run).
//! The moment a job's dependencies complete, all its tasks are enqueued;
//! workers execute each one against a recording [`TaskCtx`] that logs every
//! context interaction (`crate::job::TaskOp`) without touching the DFS.
//! When the DES loop later assigns the task to a slot, the recorded log is
//! *replayed* against a fresh context bound to the real node: replayed
//! reads recompute canonical receipts and are validated against the
//! recorded tiles (`Arc` identity or deep equality); any mismatch or error
//! discards the speculation and the task runs inline at canonical time,
//! which is always sound. Replay preserves the exact operation order —
//! including f64 accumulation order — so results, receipts, reports, and
//! placement RNG draws are bitwise-identical at any thread count.
//!
//! [`TaskCtx`]: crate::job::TaskCtx

mod faults;
mod fill;
mod prefetch;
mod specpool;

use std::collections::{HashMap, VecDeque};
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use cumulon_dfs::dfs::NodeId;
use cumulon_dfs::TileStore;
use cumulon_trace::{JobSpan, PhaseBreakdown, TaskSpan, Trace, TraceEvent};

use crate::billing::{billed_hours, cluster_cost, BillingPolicy};
use crate::cluster::ClusterSpec;
use crate::des::{EventQueue, SimTime};
use crate::error::{ClusterError, Result};
use crate::hw::HardwareModel;
use crate::job::{ExecMode, JobDag};
use crate::metrics::{FaultStats, JobStats, RunReport, TaskStat};

use fill::Homes;
use specpool::SpecLease;
pub use specpool::{shared_spec_pool, SpecPool};

/// The worker-thread count `threads` stands for: itself, or the host's
/// available parallelism when it is `0`.
pub(crate) fn resolve_threads(threads: usize) -> usize {
    match threads {
        0 => std::thread::available_parallelism().map_or(1, |p| p.get()),
        n => n,
    }
}

/// Scheduler knobs.
#[derive(Debug, Clone, Copy)]
pub struct SchedulerConfig {
    /// Maximum attempts per task before the run fails (Hadoop default: 4).
    pub max_attempts: u32,
    /// Hadoop-style speculative execution: when slots would otherwise idle,
    /// launch a backup copy of a straggling task; the first copy to finish
    /// wins and the other is killed.
    pub speculative: bool,
    /// A task is a straggler candidate once it has run longer than this
    /// factor times the mean duration of its job's completed tasks.
    pub speculation_factor: f64,
    /// Worker threads for task compute. `1` resolves every task's logic
    /// inline in the DES loop; `N > 1` also runs Real-mode logic ahead of
    /// simulated time on a persistent pool of `N` workers, replaying each
    /// recording at canonical assignment time, which keeps the run
    /// bitwise-identical to a single-threaded one; `0` means the host's
    /// available parallelism. The default is `1`.
    pub threads: usize,
    /// Run lookahead speculation on the process-wide *shared* worker pool
    /// ([`shared_spec_pool`]) instead of a private per-run pool. Multiple
    /// concurrent runs then compete for the same workers, scheduled by
    /// [`SchedulerConfig::lane_priority`]. Results stay bitwise-identical
    /// either way: speculation is a cache of work the canonical replay
    /// validates, so pool contention only shifts *when* lookahead happens,
    /// never what the run computes.
    pub shared_pool: bool,
    /// Priority lane on the shared pool (higher runs first; FIFO within a
    /// lane). Ignored for private pools. A multi-tenant service maps
    /// tenant priorities here.
    pub lane_priority: u8,
    /// Demoted tiles of the wave frontier (the wave's own spilled inputs,
    /// then the next wave's) to readmit from the spill plane ahead of the
    /// demand reads, as one batch before the wave's spilled-input tasks
    /// resolve (0 disables prefetch; so does running without a memory
    /// budget, when nothing is ever demoted). Assignment order, commit
    /// order, simulated time, receipts, placement RNG draws and
    /// fingerprints are bitwise-identical at any depth (the
    /// `spill-schedule-transparency` invariant); only spill-plane traffic
    /// changes.
    pub prefetch_depth: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            max_attempts: 4,
            speculative: false,
            speculation_factor: 1.5,
            threads: 1,
            shared_pool: false,
            lane_priority: 0,
            prefetch_depth: 0,
        }
    }
}

impl SchedulerConfig {
    /// Default config with speculative execution enabled.
    pub fn with_speculation() -> Self {
        SchedulerConfig {
            speculative: true,
            ..Default::default()
        }
    }

    /// Returns the config with an explicit worker-thread count.
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads;
        self
    }

    /// Returns the config with the given prefetch depth
    /// (`cumulon run --prefetch-depth N`).
    pub fn with_prefetch(mut self, depth: usize) -> Self {
        self.prefetch_depth = depth;
        self
    }
}

/// A correlated bulk revocation: the spot market reclaims a set of nodes
/// at once, optionally after a warning. During the warning window the
/// scheduler stops assigning new tasks to the doomed nodes (in-flight
/// attempts drain normally) and the DFS proactively copies blocks that
/// live *only* on doomed nodes to survivors, within the byte budget the
/// lead window allows. Whatever cannot be drained is lost at `at_s` and
/// recovered via lineage.
#[derive(Debug, Clone, PartialEq)]
pub struct Revocation {
    /// Simulated time the nodes are reclaimed.
    pub at_s: f64,
    /// Node ids reclaimed together. Out-of-range or already-dead ids are
    /// skipped (a market model may name nodes a shrunken cluster no
    /// longer has).
    pub nodes: Vec<u32>,
    /// Seconds of warning before `at_s` (0 = no warning, no drain).
    pub warning_lead_s: f64,
}

/// Failure injection plan.
#[derive(Debug, Clone, Default)]
pub struct FailurePlan {
    /// Independent probability that any task attempt fails.
    pub task_failure_prob: f64,
    /// `(time_s, node)` pairs: the node dies at that simulated time.
    pub node_failures: Vec<(f64, u32)>,
    /// Correlated bulk spot revocations (see [`Revocation`]).
    pub revocations: Vec<Revocation>,
    /// Seed for the failure coin flips.
    pub seed: u64,
}

impl FailurePlan {
    fn attempt_fails(&self, job: usize, task: usize, attempt: u32) -> bool {
        if self.task_failure_prob <= 0.0 {
            return false;
        }
        let key = self
            .seed
            .wrapping_mul(0x2545_f491_4f6c_dd1d)
            .wrapping_add((job as u64) << 32)
            .wrapping_add((task as u64) << 4)
            .wrapping_add(attempt as u64);
        let mut rng = StdRng::seed_from_u64(key);
        rng.random_range(0.0f64..1.0) < self.task_failure_prob
    }
}

/// Structured description of a failed run: what broke, what was lost, and
/// what still completed — enough for a lineage-based recovery driver to
/// decide which producer jobs to re-execute instead of giving up.
#[derive(Debug, Clone)]
pub struct RunFailure {
    /// The terminal error that stopped the run.
    pub error: ClusterError,
    /// `(job name, task index)` of the task that exhausted its attempts,
    /// when the failure was task-level.
    pub failed: Option<(String, usize)>,
    /// Distinct DFS paths whose blocks were observed lost by task attempts.
    pub lost_blocks: Vec<String>,
    /// Nodes that died during this run.
    pub dead_nodes: Vec<u32>,
    /// Jobs that fully completed before the failure (their outputs exist).
    pub completed_jobs: Vec<JobStats>,
    /// Simulated time consumed before the run aborted.
    pub makespan_s: f64,
    /// Fault counters accumulated up to the failure.
    pub faults: FaultStats,
}

impl std::fmt::Display for RunFailure {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{} ({} jobs completed, {} blocks lost, {} nodes dead)",
            self.error,
            self.completed_jobs.len(),
            self.lost_blocks.len(),
            self.dead_nodes.len()
        )
    }
}

#[derive(Debug, Clone, Copy)]
enum Event {
    /// `(job, task, attempt, epoch, node, slot, ok)`
    TaskFinish {
        job: usize,
        task: usize,
        attempt: u32,
        epoch: u64,
        node: u32,
        slot: u32,
        ok: bool,
    },
    NodeFailure {
        node: u32,
    },
    /// Warning lead of `failures.revocations[idx]`: stop assigning to the
    /// doomed nodes and drain their sole-replica blocks.
    RevocationWarning {
        idx: usize,
    },
    /// `failures.revocations[idx]` takes effect: the nodes are reclaimed.
    Revocation {
        idx: usize,
    },
}

#[derive(Clone, Copy)]
struct Running {
    job: usize,
    task: usize,
    epoch: u64,
    started: SimTime,
    input_local: bool,
}

struct JobState {
    pending: VecDeque<usize>,
    attempts: Vec<u32>,
    task_done: Vec<bool>,
    /// Whether a backup copy has already been launched for the task.
    speculated: Vec<bool>,
    remaining_deps: usize,
    unfinished_tasks: usize,
    stats: JobStats,
    done: bool,
}

impl JobState {
    /// Whether the job's tasks may be picked: not done, every dependency
    /// complete.
    fn ready(&self) -> bool {
        !self.done && self.remaining_deps == 0
    }

    /// Mean duration of this job's completed tasks (None before the first
    /// completion — speculation needs a baseline).
    fn mean_completed_s(&self) -> Option<f64> {
        if self.stats.tasks.is_empty() {
            return None;
        }
        Some(
            self.stats
                .tasks
                .iter()
                .map(TaskStat::duration_s)
                .sum::<f64>()
                / self.stats.tasks.len() as f64,
        )
    }
}

/// The DAG scheduler. One-shot: build, then [`Scheduler::run`].
pub struct Scheduler {
    spec: ClusterSpec,
    store: TileStore,
    hw: HardwareModel,
    billing: BillingPolicy,
}

impl Scheduler {
    /// Creates a scheduler bound to a cluster.
    pub fn new(
        spec: ClusterSpec,
        store: TileStore,
        hw: HardwareModel,
        billing: BillingPolicy,
    ) -> Self {
        Scheduler {
            spec,
            store,
            hw,
            billing,
        }
    }

    /// Executes the DAG, returning the run report. Failures are collapsed
    /// to their terminal [`ClusterError`]; use `Scheduler::try_run` when
    /// the caller wants the structured failure for recovery.
    pub fn run(
        &self,
        dag: &JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
    ) -> Result<RunReport> {
        self.try_run(dag, mode, config, failures)
            .map_err(|f| f.error)
    }

    /// Executes the DAG. On failure, returns a [`RunFailure`] describing
    /// which task broke, which DFS blocks were observed lost, which nodes
    /// died, and which jobs still completed — the inputs a lineage-based
    /// recovery driver needs.
    // The fat Err is the point: RunFailure carries the whole diagnostic
    // payload lineage recovery needs, and failures are rare.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_run(
        &self,
        dag: &JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
    ) -> std::result::Result<RunReport, RunFailure> {
        self.try_run_traced(dag, mode, config, failures, &Trace::disabled())
    }

    /// [`Scheduler::try_run`] with span recording: every task attempt,
    /// job, node failure and speculation outcome is recorded into
    /// `trace` (a [`Trace::disabled`] handle records nothing and costs
    /// one branch per site). Recording is strictly observational — it
    /// never reads results back into scheduling decisions — so a traced
    /// run is bitwise-identical to an untraced one.
    #[allow(clippy::result_large_err)]
    pub(crate) fn try_run_traced(
        &self,
        dag: &JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &FailurePlan,
        trace: &Trace,
    ) -> std::result::Result<RunReport, RunFailure> {
        let threads = resolve_threads(config.threads);
        trace.set_run_meta(
            self.spec.instance.name,
            self.spec.nodes as usize,
            self.spec.slots_per_node as usize,
        );
        let mut exec = Exec::new(self, dag, mode, config, failures, threads, trace.clone());
        let mut queue: EventQueue<Event> = EventQueue::new();
        for &(t, node) in &failures.node_failures {
            queue.schedule(SimTime(t), Event::NodeFailure { node });
        }
        for (idx, rev) in failures.revocations.iter().enumerate() {
            if rev.warning_lead_s > 0.0 {
                let warn_at = (rev.at_s - rev.warning_lead_s).max(0.0);
                queue.schedule(SimTime(warn_at), Event::RevocationWarning { idx });
            }
            queue.schedule(SimTime(rev.at_s.max(0.0)), Event::Revocation { idx });
        }
        match exec.drive(&mut queue) {
            Ok(()) => Ok(exec.report()),
            Err(error) => Err(exec.into_failure(error)),
        }
    }
}

/// One in-flight DAG execution: all mutable scheduler state, so the run
/// loop, slot fill, worker pool, and commit logic can share it through
/// methods instead of a macro over locals.
struct Exec<'a> {
    sched: &'a Scheduler,
    dag: &'a JobDag,
    mode: ExecMode,
    config: SchedulerConfig,
    failures: &'a FailurePlan,
    /// This run's lease on a lookahead worker pool (private or shared);
    /// `None` when every task resolves inline: one thread, or phantom
    /// (`Simulated`) tasks, which compute nothing worth running ahead.
    pool: Option<SpecLease>,
    /// The store's resident-byte budget at run start. When set, tiles can
    /// be demoted to the spill plane, so each wave resolves
    /// resident-input tasks first and may prefetch.
    memory_budget: Option<u64>,
    /// `readback_bytes_avoided` baseline at run start, so the trace credit
    /// at run end covers only this run's prefetch wins (recovery re-runs
    /// share one spill plane).
    spill_avoided_at_start: u64,
    /// Per-job flag: its tasks were handed to the pool (set once, the
    /// first `fill_slots` after the job's dependencies complete).
    spec_enqueued: Vec<bool>,
    jobs: Vec<JobState>,
    /// `dependents[j]`: jobs whose deps include `j`.
    dependents: Vec<Vec<usize>>,
    slot_state: Vec<Option<Running>>,
    node_alive: Vec<bool>,
    /// Nodes under a revocation warning: alive, in-flight attempts drain
    /// to completion, but no new work is assigned to them.
    doomed: Vec<bool>,
    next_epoch: u64,
    completed_jobs: usize,
    faults: FaultStats,
    lost_blocks: Vec<String>,
    dead_nodes: Vec<u32>,
    finished: Vec<JobStats>,
    makespan: SimTime,
    /// Span recorder (disabled = no-op). Purely observational.
    trace: Trace,
    /// Per-epoch span metadata stashed at finalize time (phases, byte
    /// counts, wave) and consumed when the matching completion event
    /// fires or the attempt is killed. Empty when tracing is disabled.
    epoch_meta: HashMap<u64, SpanMeta>,
    /// Monotone `fill_slots` pass counter; attempts assigned in the same
    /// pass share a wave number in the trace.
    wave: u64,
    /// This pass's locality snapshot, stamped with `wave`.
    homes: Homes,
}

/// Trace metadata for one in-flight attempt, keyed by its epoch.
struct SpanMeta {
    attempt: u32,
    is_backup: bool,
    wave: u64,
    phases: PhaseBreakdown,
    read_bytes: u64,
    read_local_bytes: u64,
    write_bytes: u64,
    io_ops: u64,
}

impl<'a> Exec<'a> {
    fn new(
        sched: &'a Scheduler,
        dag: &'a JobDag,
        mode: ExecMode,
        config: SchedulerConfig,
        failures: &'a FailurePlan,
        threads: usize,
        trace: Trace,
    ) -> Self {
        let n_jobs = dag.jobs.len();
        let jobs: Vec<JobState> = dag
            .jobs
            .iter()
            .enumerate()
            .map(|(j, job)| JobState {
                pending: (0..job.tasks.len()).collect(),
                attempts: vec![0; job.tasks.len()],
                task_done: vec![false; job.tasks.len()],
                speculated: vec![false; job.tasks.len()],
                remaining_deps: dag.deps[j].len(),
                unfinished_tasks: job.tasks.len(),
                stats: JobStats {
                    name: job.name.clone(),
                    op_label: job.op_label.clone(),
                    start_s: f64::INFINITY,
                    end_s: 0.0,
                    tasks: Vec::with_capacity(job.tasks.len()),
                    receipt: Default::default(),
                },
                done: false,
            })
            .collect();
        // Dependents index for completion propagation.
        let mut dependents: Vec<Vec<usize>> = vec![Vec::new(); n_jobs];
        for (j, deps) in dag.deps.iter().enumerate() {
            for &d in deps {
                dependents[d].push(j);
            }
        }
        let nodes = sched.spec.nodes;
        let slots = sched.spec.slots_per_node;
        // Nodes share ids with DFS datanodes; a node killed by an earlier
        // run on the same cluster stays dead for recovery re-runs.
        let node_alive: Vec<bool> = (0..nodes)
            .map(|n| sched.store.dfs().is_node_live(NodeId(n)))
            .collect();
        let pool = (mode == ExecMode::Real && (threads > 1 || config.shared_pool)).then(|| {
            let pool = if config.shared_pool {
                shared_spec_pool(threads)
            } else {
                Arc::new(SpecPool::new(threads))
            };
            pool.lease(config.lane_priority)
        });
        let spill_avoided_at_start = sched
            .store
            .dfs()
            .spill_stats()
            .map(|s| s.readback_bytes_avoided)
            .unwrap_or(0);
        Exec {
            sched,
            dag,
            mode,
            config,
            failures,
            pool,
            memory_budget: sched.store.memory_budget(),
            spill_avoided_at_start,
            spec_enqueued: vec![false; n_jobs],
            jobs,
            dependents,
            slot_state: vec![None; (nodes * slots) as usize],
            node_alive,
            doomed: vec![false; nodes as usize],
            next_epoch: 0,
            completed_jobs: 0,
            faults: FaultStats::default(),
            lost_blocks: Vec::new(),
            dead_nodes: Vec::new(),
            finished: Vec::new(),
            makespan: SimTime::ZERO,
            trace,
            epoch_meta: HashMap::new(),
            wave: 0,
            homes: Homes::new(dag),
        }
    }

    /// The main DES loop. Any `Err` is the terminal error of the run; the
    /// caller wraps it into a [`RunFailure`] with the accumulated state.
    fn drive(&mut self, queue: &mut EventQueue<Event>) -> Result<()> {
        self.dag.validate()?;
        self.zero_task_scan(SimTime::ZERO);
        self.fill_slots(queue)?;
        while self.completed_jobs < self.dag.jobs.len() {
            let Some((now, event)) = queue.pop() else {
                // No events but jobs remain: the cluster has no live nodes
                // or a dependency can never complete.
                return Err(ClusterError::InvalidDag(
                    "scheduler stalled: no runnable tasks but jobs remain (all nodes dead?)"
                        .to_string(),
                ));
            };
            self.makespan = now;
            match event {
                Event::TaskFinish {
                    job,
                    task,
                    attempt,
                    epoch,
                    node,
                    slot,
                    ok,
                } => self.on_task_finish(now, job, task, attempt, epoch, node, slot, ok, queue)?,
                Event::NodeFailure { node } => self.on_node_failure(node, queue)?,
                Event::RevocationWarning { idx } => self.on_revocation_warning(idx, queue)?,
                Event::Revocation { idx } => self.on_revocation(idx, queue)?,
            }
        }
        // Phase attribution for prefetch wins: credit the run's delta of
        // readback bytes that were readmitted ahead of demand. Purely
        // observational (SpillStats and the trace are outside the
        // fingerprint), and host-timing sensitive at `threads > 1`.
        if self.trace.is_enabled() {
            let avoided = self
                .sched
                .store
                .dfs()
                .spill_stats()
                .map(|s| s.readback_bytes_avoided)
                .unwrap_or(0)
                .saturating_sub(self.spill_avoided_at_start);
            if avoided > 0 {
                self.trace.spill_readback_avoided(avoided);
            }
        }
        Ok(())
    }

    /// Marks job `j` complete at `at`: closes its stats and span and
    /// releases its dependents.
    fn complete_job(&mut self, j: usize, at: SimTime) {
        let state = &mut self.jobs[j];
        state.done = true;
        state.stats.end_s = at.secs();
        if self.trace.is_enabled() {
            self.trace.record_job(JobSpan {
                index: j,
                name: state.stats.name.clone(),
                op_label: state.stats.op_label.clone(),
                start_s: state.stats.start_s,
                end_s: at.secs(),
                round: 0,
            });
        }
        self.finished.push(state.stats.clone());
        self.completed_jobs += 1;
        for &dep in &self.dependents[j] {
            self.jobs[dep].remaining_deps -= 1;
        }
    }

    /// Jobs with zero tasks complete the moment they become ready.
    fn zero_task_scan(&mut self, at: SimTime) {
        loop {
            let mut progressed = false;
            for j in 0..self.dag.jobs.len() {
                let state = &mut self.jobs[j];
                if !state.done && state.remaining_deps == 0 && state.unfinished_tasks == 0 {
                    state.stats.start_s = at.secs();
                    self.complete_job(j, at);
                    progressed = true;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Records the span of the attempt that just left slot `idx` —
    /// completed, failed, or killed at `end` — consuming the metadata
    /// stashed at finalize. A killed attempt's phases are rescaled to the
    /// time it actually ran.
    fn record_span(&mut self, idx: usize, r: &Running, end: SimTime, ok: bool, killed: bool) {
        if !self.trace.is_enabled() {
            return;
        }
        let Some(m) = self.epoch_meta.remove(&r.epoch) else {
            return;
        };
        let slots = self.sched.spec.slots_per_node as usize;
        let phases = if killed {
            m.phases.scaled_to(end.secs() - r.started.secs())
        } else {
            m.phases
        };
        self.trace.record_task(TaskSpan {
            job: r.job,
            task: r.task,
            attempt: m.attempt,
            node: idx / slots,
            slot: idx % slots,
            start_s: r.started.secs(),
            end_s: end.secs(),
            ok,
            backup: m.is_backup,
            killed,
            wave: m.wave,
            round: 0,
            phases,
            read_bytes: m.read_bytes,
            read_local_bytes: m.read_local_bytes,
            write_bytes: m.write_bytes,
            io_ops: m.io_ops,
        });
    }

    #[allow(clippy::too_many_arguments)]
    fn on_task_finish(
        &mut self,
        now: SimTime,
        job: usize,
        task: usize,
        attempt: u32,
        epoch: u64,
        node: u32,
        slot: u32,
        ok: bool,
        queue: &mut EventQueue<Event>,
    ) -> Result<()> {
        let idx = (node * self.sched.spec.slots_per_node + slot) as usize;
        let valid = matches!(self.slot_state[idx], Some(r) if r.epoch == epoch);
        if !valid {
            return Ok(()); // superseded by a node failure
        }
        let running = self.slot_state[idx].take().expect("checked above");
        if self.jobs[job].task_done[task] {
            // A speculative twin already completed this task; just free
            // the slot.
            return self.fill_slots(queue);
        }
        if ok {
            self.jobs[job].task_done[task] = true;
            if self.doomed[node as usize] {
                // The attempt beat the revocation deadline: gracefully
                // drained rather than lost.
                self.faults.drained_tasks += 1;
            }
            // Kill any still-running copies of this task (only a speculated
            // task can have one, see `twin_running`). If a killed twin
            // started earlier, the completing copy is the backup — a
            // speculative win.
            let scanned = if self.jobs[job].speculated[task] {
                self.slot_state.len()
            } else {
                0
            };
            for twin_idx in 0..scanned {
                if !matches!(self.slot_state[twin_idx], Some(r) if r.job == job && r.task == task) {
                    continue;
                }
                let twin = self.slot_state[twin_idx]
                    .take()
                    .expect("matched Some above");
                if twin.started < running.started {
                    self.faults.speculative_wins += 1;
                    self.trace.record_event(TraceEvent::SpeculativeWin {
                        t_s: now.secs(),
                        job,
                        task,
                    });
                }
                self.record_span(twin_idx, &twin, now, false, true);
            }
            self.record_span(idx, &running, now, true, false);
            self.jobs[job].stats.tasks.push(TaskStat {
                task,
                node,
                start_s: running.started.secs(),
                end_s: now.secs(),
                attempts: attempt,
                input_local: running.input_local,
            });
            self.jobs[job].unfinished_tasks -= 1;
            if self.jobs[job].unfinished_tasks == 0 && !self.jobs[job].done {
                self.complete_job(job, now);
                self.zero_task_scan(now);
            }
        } else {
            self.record_span(idx, &running, now, false, false);
            if attempt >= self.config.max_attempts {
                return Err(ClusterError::TaskFailed {
                    job: self.dag.jobs[job].name.clone(),
                    task,
                    attempts: attempt,
                    last_error: "injected task failure".to_string(),
                });
            }
            // Requeue unless a twin copy is still in flight.
            if !self.twin_running(job, task) {
                self.jobs[job].pending.push_front(task);
            }
        }
        self.fill_slots(queue)
    }

    /// Whether some slot still runs a copy of `(job, task)`. Only a
    /// speculative backup makes a second copy — a task is requeued only
    /// once no copy of it runs — so for a task that never had one there
    /// is nothing to scan for.
    fn twin_running(&self, job: usize, task: usize) -> bool {
        self.jobs[job].speculated[task]
            && self
                .slot_state
                .iter()
                .flatten()
                .any(|r| r.job == job && r.task == task)
    }

    /// The run report of a completed execution.
    fn report(self) -> RunReport {
        let makespan_s = self.makespan.secs();
        // Round-local makespan: the trace shifts it by the active round
        // offset onto the global timeline.
        self.trace.set_makespan(makespan_s);
        let spec = self.sched.spec;
        RunReport {
            instance: spec.instance.name.to_string(),
            nodes: spec.nodes,
            slots: spec.slots_per_node,
            jobs: self.finished,
            makespan_s,
            billed_hours: billed_hours(self.sched.billing, makespan_s),
            cost_dollars: cluster_cost(
                self.sched.billing,
                spec.nodes,
                spec.instance.price_per_hour,
                makespan_s,
            ),
            faults: self.faults,
        }
    }

    /// Wraps a terminal error with the state accumulated up to it.
    fn into_failure(self, error: ClusterError) -> RunFailure {
        self.trace.set_makespan(self.makespan.secs());
        let failed = match &error {
            ClusterError::TaskFailed { job, task, .. } => Some((job.clone(), *task)),
            _ => None,
        };
        RunFailure {
            error,
            failed,
            lost_blocks: self.lost_blocks,
            dead_nodes: self.dead_nodes,
            completed_jobs: self.finished,
            makespan_s: self.makespan.secs(),
            faults: self.faults,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::Cluster;
    use crate::job::{Job, Task};
    use cumulon_matrix::ops::Work;
    use cumulon_matrix::{MatrixMeta, Tile};

    fn cluster(nodes: u32, slots: u32) -> Cluster {
        let mut c =
            Cluster::provision(ClusterSpec::named("m1.large", nodes, slots).unwrap()).unwrap();
        c.set_billing(BillingPolicy::HourlyCeil);
        c
    }

    /// A job of `n` cpu-burning tasks, each charging `flops`.
    fn burn_job(name: &str, n: usize, flops: f64) -> Job {
        let tasks = (0..n)
            .map(|_| {
                Task::new(move |ctx| {
                    ctx.charge(Work {
                        flops,
                        bytes_in: 0.0,
                        bytes_out: 0.0,
                    });
                    Ok(())
                })
            })
            .collect();
        Job::new(name, "burn", tasks)
    }

    #[test]
    fn single_job_runs_in_waves() {
        let c = cluster(2, 2); // 4 slots
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 8, 1e9), vec![]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        assert_eq!(r.total_tasks(), 8);
        let job = &r.jobs[0];
        assert_eq!(job.tasks.len(), 8);
        // 8 tasks over 4 slots = 2 waves; makespan ≈ 2 × task time.
        let mean = job.mean_task_s();
        assert!(
            r.makespan_s > 1.5 * mean && r.makespan_s < 3.0 * mean,
            "makespan {} vs mean task {mean}",
            r.makespan_s
        );
    }

    #[test]
    fn dependencies_serialize_jobs() {
        let c = cluster(2, 2);
        let mut dag = JobDag::new();
        let a = dag.push(burn_job("a", 4, 1e9), vec![]);
        dag.push(burn_job("b", 4, 1e9), vec![a]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        let ja = r.job("a").unwrap();
        let jb = r.job("b").unwrap();
        assert!(jb.start_s >= ja.end_s, "dependent job must wait");
    }

    #[test]
    fn independent_jobs_share_slots() {
        let c = cluster(4, 2);
        let mut dag = JobDag::new();
        dag.push(burn_job("a", 4, 1e9), vec![]);
        dag.push(burn_job("b", 4, 1e9), vec![]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        let ja = r.job("a").unwrap();
        let jb = r.job("b").unwrap();
        // 8 slots, 8 tasks total: both jobs run in the first wave.
        assert!(jb.start_s < ja.end_s);
    }

    #[test]
    fn more_nodes_shorter_makespan() {
        let mut times = Vec::new();
        for nodes in [1, 2, 4] {
            let c = cluster(nodes, 2);
            let mut dag = JobDag::new();
            dag.push(burn_job("b", 16, 2e9), vec![]);
            times.push(c.run(&dag, ExecMode::Real).unwrap().makespan_s);
        }
        assert!(times[0] > times[1] && times[1] > times[2], "{times:?}");
    }

    #[test]
    fn zero_task_jobs_complete() {
        let c = cluster(1, 1);
        let mut dag = JobDag::new();
        let a = dag.push(Job::new("empty", "nop", vec![]), vec![]);
        let b = dag.push(burn_job("b", 1, 1e8), vec![a]);
        let c2 = dag.push(Job::new("tail", "nop", vec![]), vec![b]);
        assert_eq!(c2, 2);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        assert_eq!(r.jobs.len(), 3);
    }

    #[test]
    fn task_error_retries_then_fails_run() {
        let c = cluster(1, 1);
        let mut dag = JobDag::new();
        let tasks = vec![Task::new(|_| {
            Err(ClusterError::Kernel("always broken".into()))
        })];
        dag.push(Job::new("bad", "x", tasks), vec![]);
        let err = c.run(&dag, ExecMode::Real).unwrap_err();
        assert!(
            matches!(err, ClusterError::TaskFailed { attempts: 4, .. }),
            "{err}"
        );
    }

    #[test]
    fn injected_failures_retry_and_succeed() {
        let c = cluster(2, 2);
        let mut dag = JobDag::new();
        dag.push(burn_job("flaky", 12, 1e9), vec![]);
        let failures = FailurePlan {
            task_failure_prob: 0.3,
            seed: 5,
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        let job = &r.jobs[0];
        assert_eq!(job.tasks.len(), 12, "every task eventually succeeds");
        assert!(
            job.retries() > 0,
            "with p=0.3 over 12 tasks some retries are expected"
        );
    }

    #[test]
    fn certain_failure_exhausts_attempts() {
        let c = cluster(1, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("doomed", 1, 1e8), vec![]);
        let failures = FailurePlan {
            task_failure_prob: 1.0,
            seed: 1,
            ..Default::default()
        };
        let err = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap_err();
        assert!(matches!(err, ClusterError::TaskFailed { .. }));
    }

    #[test]
    fn node_failure_requeues_and_completes() {
        let c = cluster(3, 1);
        // Long tasks so the failure lands mid-flight.
        let mut dag = JobDag::new();
        dag.push(burn_job("long", 6, 5e10), vec![]);
        let probe = c.run(&dag, ExecMode::Real).unwrap();
        let mid = probe.makespan_s / 3.0;
        let failures = FailurePlan {
            node_failures: vec![(mid, 2)],
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert_eq!(r.jobs[0].tasks.len(), 6);
        assert!(
            r.jobs[0]
                .tasks
                .iter()
                .all(|t| t.node != 2 || t.end_s <= mid),
            "no task may finish on the dead node after the failure"
        );
        assert!(
            r.makespan_s > probe.makespan_s,
            "losing a node must cost time"
        );
    }

    #[test]
    fn all_nodes_dead_errors() {
        let c = cluster(1, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 4, 1e11), vec![]);
        let failures = FailurePlan {
            node_failures: vec![(1.0, 0)],
            ..Default::default()
        };
        let err = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidDag(_)), "{err}");
    }

    #[test]
    fn bulk_revocation_drains_and_completes() {
        let c = cluster(4, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("long", 8, 5e10), vec![]);
        let probe = c.run(&dag, ExecMode::Real).unwrap();
        let mid = probe.makespan_s / 2.0;
        let failures = FailurePlan {
            revocations: vec![Revocation {
                at_s: mid,
                nodes: vec![2, 3],
                warning_lead_s: mid / 2.0,
            }],
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert_eq!(r.faults.revocations, 1);
        assert_eq!(r.faults.revoked_nodes, 2);
        assert_eq!(r.jobs[0].tasks.len(), 8);
        assert!(
            r.jobs[0]
                .tasks
                .iter()
                .all(|t| (t.node != 2 && t.node != 3) || t.end_s <= mid),
            "no task may finish on a revoked node after the revocation"
        );
        assert!(
            r.makespan_s > probe.makespan_s,
            "losing half the fleet must cost time"
        );
        // The warning stopped new assignments to doomed nodes, so any task
        // still running there at revocation counts as lost, and work that
        // beat the deadline counts as drained.
        assert!(r.faults.drained_tasks + r.faults.lost_tasks > 0);
    }

    #[test]
    fn revocation_without_warning_still_completes() {
        let c = cluster(3, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("long", 6, 5e10), vec![]);
        let probe = c.run(&dag, ExecMode::Real).unwrap();
        let failures = FailurePlan {
            revocations: vec![Revocation {
                at_s: probe.makespan_s / 3.0,
                nodes: vec![0],
                warning_lead_s: 0.0,
            }],
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert_eq!(r.faults.revocations, 1);
        assert_eq!(r.faults.revoked_nodes, 1);
        // No lead window: nothing was drained ahead of the kill.
        assert_eq!(r.faults.drained_bytes, 0);
        assert_eq!(r.jobs[0].tasks.len(), 6);
    }

    #[test]
    fn out_of_range_revocation_and_failure_nodes_are_ignored() {
        let c = cluster(2, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 4, 1e10), vec![]);
        let failures = FailurePlan {
            node_failures: vec![(1.0, 99)],
            revocations: vec![Revocation {
                at_s: 2.0,
                nodes: vec![7, 99],
                warning_lead_s: 1.0,
            }],
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        // The revocation reclaimed nothing real, so it does not count (the
        // same rule keeps re-fired revocations from double-counting in
        // recovery rounds).
        assert_eq!(r.faults.revocations, 0);
        assert_eq!(r.faults.revoked_nodes, 0);
        assert_eq!(r.faults.node_deaths, 0);
        assert_eq!(r.jobs[0].tasks.len(), 4);
    }

    #[test]
    fn revoking_every_node_errors() {
        let c = cluster(2, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 4, 1e11), vec![]);
        let failures = FailurePlan {
            revocations: vec![Revocation {
                at_s: 1.0,
                nodes: vec![0, 1],
                warning_lead_s: 0.5,
            }],
            ..Default::default()
        };
        let err = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap_err();
        assert!(matches!(err, ClusterError::InvalidDag(_)), "{err}");
    }

    #[test]
    fn revocation_is_deterministic_across_threads() {
        let mk = || {
            let c = cluster(4, 2);
            let mut dag = JobDag::new();
            dag.push(burn_job("a", 10, 2e10), vec![]);
            dag.push(burn_job("b", 6, 1e10), vec![0]);
            (c, dag)
        };
        let failures = FailurePlan {
            revocations: vec![Revocation {
                at_s: 30.0,
                nodes: vec![1, 2],
                warning_lead_s: 10.0,
            }],
            ..Default::default()
        };
        let (c1, dag1) = mk();
        let r1 = c1
            .run_with(
                &dag1,
                ExecMode::Real,
                SchedulerConfig {
                    threads: 1,
                    ..Default::default()
                },
                &failures,
            )
            .unwrap();
        let (cn, dagn) = mk();
        let rn = cn
            .run_with(
                &dagn,
                ExecMode::Real,
                SchedulerConfig {
                    threads: 4,
                    ..Default::default()
                },
                &failures,
            )
            .unwrap();
        assert_eq!(r1.fingerprint(), rn.fingerprint());
    }

    #[test]
    fn billing_in_report() {
        let c = cluster(2, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("b", 2, 1e9), vec![]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        assert_eq!(r.billed_hours, 1.0);
        let price = crate::instances::by_name("m1.large")
            .unwrap()
            .price_per_hour;
        assert!((r.cost_dollars - 2.0 * price).abs() < 1e-9);
    }

    #[test]
    fn tile_tasks_move_real_data() {
        let c = cluster(2, 2);
        let meta = MatrixMeta::new(4, 4, 4);
        c.store().register("in", meta).unwrap();
        c.store()
            .write_tile(
                "in",
                0,
                0,
                &Tile::dense(cumulon_matrix::DenseTile::identity(4)),
                None,
            )
            .unwrap();
        c.store().register("out", meta).unwrap();
        let mut dag = JobDag::new();
        let task = Task::new(|ctx| {
            let t = ctx.read_tile("in", 0, 0)?;
            let doubled = t.elementwise(&t, cumulon_matrix::tile::ElemOp::Add)?;
            ctx.write_tile("out", 0, 0, &doubled)?;
            Ok(())
        })
        .with_locality("in", 0, 0);
        dag.push(Job::new("double", "elem", vec![task]), vec![]);
        let r = c.run(&dag, ExecMode::Real).unwrap();
        assert_eq!(r.jobs[0].tasks.len(), 1);
        let out = c.store().get_local("out").unwrap();
        assert_eq!(out.sum(), 8.0);
        assert!(r.jobs[0].receipt.read.bytes > 0);
        assert!(r.jobs[0].receipt.write.bytes > 0);
    }

    /// Spill equivalence at the executor level: the same faulty tile
    /// workload unbounded and under a memory budget tight enough to force
    /// constant eviction must produce the same report fingerprint and the
    /// same output bits, at one worker thread and at several. Only the
    /// budgeted arms may touch the spill path.
    #[test]
    fn spill_pressure_and_threads_share_one_fingerprint() {
        use cumulon_matrix::tile::ElemOp;

        // (threads, budget bytes) -> (fingerprint+output, evictions)
        let run = |threads: usize, budget: u64| {
            let c = cluster(3, 2);
            if budget > 0 {
                c.store()
                    .set_memory_budget(&cumulon_dfs::SpillConfig::budgeted(budget))
                    .unwrap();
            }
            let meta = MatrixMeta::new(16, 16, 4);
            c.store().register("A", meta).unwrap();
            for ti in 0..4 {
                for tj in 0..4 {
                    let t = cumulon_matrix::DenseTile::from_fn(4, 4, |i, j| {
                        (ti * 64 + tj * 16 + i * 4 + j) as f64 * 0.25 - 3.0
                    });
                    c.store()
                        .write_tile("A", ti, tj, &Tile::dense(t), None)
                        .unwrap();
                }
            }
            c.store().register("B", meta).unwrap();
            c.store().register("C", MatrixMeta::new(4, 16, 4)).unwrap();
            let mut dag = JobDag::new();
            let doubles = (0..16usize)
                .map(|i| {
                    let (ti, tj) = (i / 4, i % 4);
                    Task::new(move |ctx| {
                        ctx.charge(Work {
                            flops: 2e10,
                            bytes_in: 0.0,
                            bytes_out: 0.0,
                        });
                        let t = ctx.read_tile("A", ti, tj)?;
                        let d = t.elementwise(&t, ElemOp::Add)?;
                        ctx.write_tile("B", ti, tj, &d)?;
                        Ok(())
                    })
                    .with_locality("A", ti, tj)
                })
                .collect();
            dag.push(Job::new("double", "elem", doubles), vec![]);
            let folds = (0..4usize)
                .map(|tj| {
                    Task::new(move |ctx| {
                        ctx.charge(Work {
                            flops: 1e10,
                            bytes_in: 0.0,
                            bytes_out: 0.0,
                        });
                        let mut acc = Tile::dense(cumulon_matrix::DenseTile::zeros(4, 4));
                        for ti in 0..4 {
                            let t = ctx.read_tile("B", ti, tj)?;
                            acc = t.elementwise(&acc, ElemOp::Add)?;
                        }
                        ctx.write_tile("C", 0, tj, &acc)?;
                        Ok(())
                    })
                })
                .collect();
            dag.push(Job::new("fold", "elem", folds), vec![0]);
            let failures = FailurePlan {
                revocations: vec![Revocation {
                    at_s: 25.0,
                    nodes: vec![2],
                    warning_lead_s: 5.0,
                }],
                ..Default::default()
            };
            let r = c
                .run_with(
                    &dag,
                    ExecMode::Real,
                    SchedulerConfig {
                        threads,
                        ..Default::default()
                    },
                    &failures,
                )
                .unwrap();
            let out = c.store().get_local("C").unwrap();
            let evictions = c.store().dfs().spill_stats().map_or(0, |s| s.evictions);
            (
                format!("{} out={:016x}", r.fingerprint(), out.sum().to_bits()),
                evictions,
            )
        };

        // ~150 wire bytes per 4x4 dense tile, 36 tiles in flight: a 600 B
        // budget keeps only a handful resident and evicts continuously.
        let (base, ev) = run(1, 0);
        assert_eq!(ev, 0, "no budget, no spill plane");
        for (threads, budget) in [(4, 0), (1, 600), (4, 600)] {
            let (fp, ev) = run(threads, budget);
            assert_eq!(fp, base, "divergence at threads={threads} budget={budget}");
            if budget > 0 {
                assert!(
                    ev > 0,
                    "tight budget must actually evict (threads={threads})"
                );
            } else {
                assert_eq!(ev, 0);
            }
        }
    }

    /// Spill-aware resolution + frontier prefetch must be invisible in the
    /// fingerprint (assignment, receipts, placement, simulated time all
    /// unchanged) while strictly reducing the synchronous readback volume
    /// — the bytes a task's own read had to pull back from the spill
    /// plane's blob store on demand.
    #[test]
    fn spill_aware_prefetch_cuts_readbacks_without_moving_the_fingerprint() {
        use cumulon_matrix::tile::ElemOp;

        let run = |config: SchedulerConfig| {
            let c = cluster(3, 2);
            c.store()
                .set_memory_budget(&cumulon_dfs::SpillConfig::budgeted(1200))
                .unwrap();
            let meta = MatrixMeta::new(16, 16, 4);
            c.store().register("A", meta).unwrap();
            for ti in 0..4 {
                for tj in 0..4 {
                    let t = cumulon_matrix::DenseTile::from_fn(4, 4, |i, j| {
                        (ti * 64 + tj * 16 + i * 4 + j) as f64 * 0.25 - 3.0
                    });
                    c.store()
                        .write_tile("A", ti, tj, &Tile::dense(t), None)
                        .unwrap();
                }
            }
            c.store().register("B", meta).unwrap();
            c.store().register("C", MatrixMeta::new(4, 16, 4)).unwrap();
            let mut dag = JobDag::new();
            let doubles = (0..16usize)
                .map(|i| {
                    let (ti, tj) = (i / 4, i % 4);
                    Task::new(move |ctx| {
                        ctx.charge(Work {
                            flops: 2e10,
                            bytes_in: 0.0,
                            bytes_out: 0.0,
                        });
                        let t = ctx.read_tile("A", ti, tj)?;
                        let d = t.elementwise(&t, ElemOp::Add)?;
                        ctx.write_tile("B", ti, tj, &d)?;
                        Ok(())
                    })
                    .with_locality("A", ti, tj)
                })
                .collect();
            dag.push(Job::new("double", "elem", doubles), vec![]);
            let folds = (0..4usize)
                .map(|tj| {
                    Task::new(move |ctx| {
                        let mut acc = Tile::dense(cumulon_matrix::DenseTile::zeros(4, 4));
                        for ti in 0..4 {
                            let t = ctx.read_tile("B", ti, tj)?;
                            acc = t.elementwise(&acc, ElemOp::Add)?;
                        }
                        ctx.write_tile("C", 0, tj, &acc)?;
                        Ok(())
                    })
                })
                .collect();
            dag.push(Job::new("fold", "elem", folds), vec![0]);
            let r = c
                .run_with(&dag, ExecMode::Real, config, &FailurePlan::default())
                .unwrap();
            let out = c.store().get_local("C").unwrap();
            let stats = c.store().dfs().spill_stats().expect("budget is set");
            (
                format!("{} out={:016x}", r.fingerprint(), out.sum().to_bits()),
                stats,
            )
        };

        let base = SchedulerConfig {
            threads: 1,
            ..Default::default()
        };
        let (fp_off, off) = run(base);
        assert_eq!(off.readback_bytes_avoided, 0, "nothing prefetched when off");
        assert!(off.readback_bytes_total > 0, "budget must force readbacks");

        let (fp_on, on) = run(base.with_prefetch(3));
        assert_eq!(
            fp_on, fp_off,
            "spill-awareness must not move the fingerprint"
        );
        assert!(on.prefetched_files > 0, "frontier prefetch must fire");
        assert!(
            on.readback_bytes_avoided > 0,
            "prefetched tiles must be read"
        );
        let sync_on = on.readback_bytes_total - on.readback_bytes_avoided;
        assert!(
            sync_on < off.readback_bytes_total,
            "on-demand readback bytes must strictly drop: {sync_on} vs {}",
            off.readback_bytes_total
        );

        // Worker threads race the prefetch against the wave, so counters
        // may differ run to run — but the fingerprint may not.
        let (fp_threaded, _) = run(base.with_prefetch(3).with_threads(4));
        assert_eq!(
            fp_threaded, fp_off,
            "threaded prefetch must stay transparent"
        );
    }

    #[test]
    fn try_run_reports_lost_blocks() {
        use cumulon_dfs::DfsConfig;
        // Replication 1: killing the tile's only holder loses the block.
        let c = Cluster::provision_with(
            ClusterSpec::named("m1.large", 3, 1).unwrap(),
            HardwareModel::default(),
            DfsConfig {
                replication: 1,
                ..Default::default()
            },
        )
        .unwrap();
        let meta = MatrixMeta::new(2, 2, 2);
        c.store().register("A", meta).unwrap();
        c.store()
            .write_tile("A", 0, 0, &Tile::zeros(2, 2), Some(NodeId(2)))
            .unwrap();
        c.store().dfs().kill_node(NodeId(2)).unwrap();
        let mut dag = JobDag::new();
        let task = Task::new(|ctx| {
            ctx.read_tile("A", 0, 0)?;
            Ok(())
        });
        dag.push(Job::new("r#0", "read", vec![task]), vec![]);
        let failure = c
            .try_run_with(
                &dag,
                ExecMode::Real,
                SchedulerConfig::default(),
                &FailurePlan::default(),
            )
            .unwrap_err();
        assert!(
            matches!(failure.error, ClusterError::TaskFailed { .. }),
            "{failure}"
        );
        assert_eq!(failure.failed, Some(("r#0".to_string(), 0)));
        assert_eq!(failure.lost_blocks, vec!["/matrix/A/0_0".to_string()]);
        assert_eq!(failure.faults.lost_block_events, 1);
        assert!(failure.completed_jobs.is_empty());
    }

    #[test]
    fn fault_counters_in_report() {
        let c = cluster(2, 2);
        let mut dag = JobDag::new();
        dag.push(burn_job("flaky", 12, 1e9), vec![]);
        let failures = FailurePlan {
            task_failure_prob: 0.3,
            seed: 5,
            ..Default::default()
        };
        let r = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert!(r.faults.retries > 0);
        assert_eq!(r.faults.retries, r.jobs[0].retries() as u64);
        assert_eq!(
            r.faults.task_attempts,
            12 + r.faults.retries,
            "attempts = tasks + retries with no speculation"
        );
        assert!(r.summary().contains("retries"));
    }

    #[test]
    fn dead_node_stays_dead_across_runs() {
        let c = cluster(3, 1);
        let mut dag = JobDag::new();
        dag.push(burn_job("long", 6, 5e10), vec![]);
        let failures = FailurePlan {
            node_failures: vec![(1.0, 2)],
            ..Default::default()
        };
        let r1 = c
            .run_with(&dag, ExecMode::Real, SchedulerConfig::default(), &failures)
            .unwrap();
        assert_eq!(r1.faults.node_deaths, 1);
        // A second run on the same cluster must not place work on node 2.
        let r2 = c.run(&dag, ExecMode::Real).unwrap();
        assert!(
            r2.jobs[0].tasks.iter().all(|t| t.node != 2),
            "node 2 is dead; nothing may run there"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let c = cluster(3, 2);
            let mut dag = JobDag::new();
            dag.push(burn_job("b", 10, 3e9), vec![]);
            c.run(&dag, ExecMode::Real).unwrap().makespan_s
        };
        assert_eq!(run(), run());
    }
}

#[cfg(test)]
mod speculation_tests {
    use super::*;
    use crate::cluster::{Cluster, ClusterSpec};
    use crate::hw::{HardwareModel, NoiseModel};
    use crate::job::{ExecMode, Job, JobDag, Task};
    use cumulon_dfs::DfsConfig;
    use cumulon_matrix::ops::Work;

    fn noisy_cluster(nodes: u32, slots: u32, sigma: f64, seed: u64) -> Cluster {
        let hw = HardwareModel {
            noise: NoiseModel { sigma, seed },
            ..HardwareModel::default()
        };
        Cluster::provision_with(
            ClusterSpec::named("m1.large", nodes, slots).unwrap(),
            hw,
            DfsConfig::default(),
        )
        .unwrap()
    }

    fn burn_dag(tasks: usize, flops: f64) -> JobDag {
        let mut dag = JobDag::new();
        let tasks = (0..tasks)
            .map(|_| {
                Task::new(move |ctx| {
                    ctx.charge(Work {
                        flops,
                        bytes_in: 0.0,
                        bytes_out: 0.0,
                    });
                    Ok(())
                })
            })
            .collect();
        dag.push(Job::new("burn", "burn", tasks), vec![]);
        dag
    }

    #[test]
    fn speculation_cuts_the_straggler_tail() {
        // Heavy-tailed task noise, single wave: the slowest draw dominates
        // the makespan unless a backup with a fresh draw overtakes it.
        let mut improved = 0;
        let mut regressed = 0;
        for seed in 0..8u64 {
            let dag = burn_dag(8, 2e10);
            let base = noisy_cluster(4, 2, 0.8, seed)
                .run_with(
                    &dag,
                    ExecMode::Real,
                    SchedulerConfig::default(),
                    &FailurePlan::default(),
                )
                .unwrap()
                .makespan_s;
            let spec = noisy_cluster(4, 2, 0.8, seed)
                .run_with(
                    &dag,
                    ExecMode::Real,
                    SchedulerConfig::with_speculation(),
                    &FailurePlan::default(),
                )
                .unwrap()
                .makespan_s;
            if spec < base * 0.999 {
                improved += 1;
            }
            if spec > base * 1.001 {
                regressed += 1;
            }
        }
        assert!(
            improved >= 4,
            "speculation should usually help: improved {improved}/8"
        );
        assert_eq!(
            regressed, 0,
            "first-copy-wins means speculation never hurts"
        );
    }

    #[test]
    fn speculation_preserves_task_accounting() {
        let dag = burn_dag(6, 1e10);
        let report = noisy_cluster(3, 2, 1.0, 42)
            .run_with(
                &dag,
                ExecMode::Real,
                SchedulerConfig::with_speculation(),
                &FailurePlan::default(),
            )
            .unwrap();
        // Exactly one completion per task, even when twins were launched.
        let mut seen: Vec<usize> = report.jobs[0].tasks.iter().map(|t| t.task).collect();
        seen.sort_unstable();
        assert_eq!(seen, vec![0, 1, 2, 3, 4, 5]);
    }

    #[test]
    fn speculation_off_by_default() {
        let config = SchedulerConfig::default();
        assert!(!config.speculative);
        assert_eq!(config.speculation_factor, 1.5);
    }

    /// The locality pass of task picking, measured against what a
    /// placement-blind scheduler would get: with one replica per tile a
    /// task lands on its tile's holder with probability `replication /
    /// nodes`.
    #[test]
    fn locality_pass_beats_placement_blind_share() {
        use cumulon_dfs::dfs::NodeId;
        use cumulon_matrix::{MatrixMeta, Tile};

        const NODES: u32 = 4;
        const REPLICATION: usize = 1;
        let c = Cluster::provision_with(
            ClusterSpec::named("m1.large", NODES, 1).unwrap(),
            HardwareModel::default(),
            DfsConfig {
                replication: REPLICATION,
                ..Default::default()
            },
        )
        .unwrap();
        // Four tiles per node, single replica, so locality is scarce.
        let meta = MatrixMeta::new(8, 8, 2); // 4x4 grid = 16 tiles
        let store = c.store();
        store.register("A", meta).unwrap();
        for (i, (ti, tj)) in meta.grid().iter().enumerate() {
            let writer = NodeId(i as u32 % NODES);
            store
                .write_tile("A", ti, tj, &Tile::zeros(2, 2), Some(writer))
                .unwrap();
        }
        let mut dag = JobDag::new();
        let tasks = meta
            .grid()
            .iter()
            .map(|(ti, tj)| {
                Task::new(move |ctx| {
                    ctx.read_tile("A", ti, tj)?;
                    Ok(())
                })
                .with_locality("A", ti, tj)
            })
            .collect();
        dag.push(Job::new("readers", "read", tasks), vec![]);
        let report = c.run(&dag, ExecMode::Real).unwrap();
        let rate = report.jobs[0].locality_rate();
        let blind = REPLICATION as f64 / NODES as f64;
        assert!(
            rate > 0.9 && rate > 2.0 * blind,
            "locality scheduling should place most tasks locally: \
             {rate} vs placement-blind {blind}"
        );
    }
}
