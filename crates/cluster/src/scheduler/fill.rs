//! Slot filling: the one wave loop. Every free slot is assigned a task,
//! the wave's tasks are resolved (replayed from a lookahead recording or
//! run inline), and their effects are applied in assignment order.

use std::sync::Arc;

use cumulon_dfs::dfs::NodeId;
use cumulon_dfs::TileStore;

use crate::des::{EventQueue, SimTime};
use crate::error::{ClusterError, Result};
use crate::job::{JobDag, StagedWrite, TaskCtx, TaskOp, TaskReceipt, TileRef};

use super::{Event, Exec, Running, SpanMeta};

/// The per-pass locality snapshot: for each hinted task, its *home* —
/// the nodes holding every block of its hint tile — asked of the DFS at
/// most once per `fill_slots` pass, on first use. Exact, not a cache:
/// the assign phase never mutates the DFS (writes commit in `finalize`,
/// after every pick), and everything that moves a replica — commits,
/// node kills, revocation drains — happens between passes, so a home
/// stamped with an older pass is stale by construction and is asked
/// again.
pub(super) struct Homes {
    /// Index in `slots` of each job's first task.
    offsets: Vec<usize>,
    /// One per task of the DAG.
    slots: Vec<HomeSlot>,
    /// The homes resolved in pass `pass`, back to back.
    nodes: Vec<NodeId>,
    pass: u64,
}

/// Where one task's home sits in [`Homes::nodes`], and the pass it was
/// resolved in (0: never — passes count from 1).
#[derive(Clone, Copy, Default)]
struct HomeSlot {
    pass: u64,
    start: u32,
    len: u32,
}

impl Homes {
    pub(super) fn new(dag: &JobDag) -> Self {
        let offsets = dag
            .jobs
            .iter()
            .scan(0, |next, job| {
                let first = *next;
                *next += job.tasks.len();
                Some(first)
            })
            .collect();
        Homes {
            offsets,
            slots: vec![HomeSlot::default(); dag.total_tasks()],
            nodes: Vec::new(),
            pass: 0,
        }
    }

    /// Whether `node` is home to task `(job, task)`, whose hint is
    /// `hint`, as of pass `pass`.
    fn contains(
        &mut self,
        store: &TileStore,
        pass: u64,
        (job, task): (usize, usize),
        hint: &TileRef,
        node: NodeId,
    ) -> bool {
        if self.pass != pass {
            self.pass = pass;
            self.nodes.clear();
        }
        let slot = &mut self.slots[self.offsets[job] + task];
        if slot.pass != pass {
            let start = self.nodes.len();
            store.tile_home(&hint.0, hint.1, hint.2, |n| self.nodes.push(n));
            *slot = HomeSlot {
                pass,
                start: start as u32,
                len: (self.nodes.len() - start) as u32,
            };
        }
        self.nodes[slot.start as usize..][..slot.len as usize].contains(&node)
    }
}

/// A task assignment made at slot-fill time. Carries everything the
/// executor and finalizer need so task *compute* can run off-thread while
/// all bookkeeping stays with the DES loop, applied in canonical
/// (assignment) order.
pub(super) struct WaveEntry {
    pub(super) job: usize,
    pub(super) task: usize,
    /// Attempt number this assignment will become. Written back to
    /// `JobState::attempts` only at finalize, so the entries behind the
    /// one that aborts a wave leave no trace.
    attempt: u32,
    epoch: u64,
    node: u32,
    slot: u32,
    is_backup: bool,
}

/// What one task attempt produced: its receipt (sans tile write I/O),
/// staged tile writes, and the logic error if any.
struct ExecOutcome {
    receipt: TaskReceipt,
    staged: Vec<StagedWrite>,
    error: Option<ClusterError>,
}

impl ExecOutcome {
    fn new(ctx: TaskCtx, error: Option<ClusterError>) -> Self {
        let (receipt, staged) = ctx.into_parts();
        ExecOutcome {
            receipt,
            staged,
            error,
        }
    }
}

impl Exec<'_> {
    /// Picks the next task for a node: scan ready jobs in index order; within
    /// a job prefer a pending task whose dominant input is local to `node`.
    fn pick_task(&mut self, node: NodeId) -> Option<(usize, usize)> {
        let Exec {
            jobs,
            dag,
            homes,
            sched,
            wave,
            ..
        } = self;
        for (j, state) in jobs.iter().enumerate() {
            if !state.ready() || state.pending.is_empty() {
                continue;
            }
            // Locality pass.
            for &t in &state.pending {
                match &dag.jobs[j].tasks[t].locality_hint {
                    Some(hint) => {
                        if homes.contains(&sched.store, *wave, (j, t), hint, node) {
                            return Some((j, t));
                        }
                    }
                    // No hint: any slot is as good as any other.
                    None => return Some((j, t)),
                }
            }
            // No local task: take the oldest pending one.
            return state.pending.front().map(|&t| (j, t));
        }
        None
    }

    /// Whether `node` holds every block of task `(j, t)`'s hint tile,
    /// from this pass's snapshot (a task without a hint is local
    /// anywhere).
    fn input_local(&mut self, j: usize, t: usize, node: NodeId) -> bool {
        let hint = self.dag.jobs[j].tasks[t].locality_hint.as_ref();
        hint.is_none_or(|hint| {
            self.homes
                .contains(&self.sched.store, self.wave, (j, t), hint, node)
        })
    }

    /// [`Exec::pick_task`] asking the DFS afresh for every pending task it
    /// weighs: the per-slot probe debug builds check every snapshot pick
    /// against.
    #[cfg(debug_assertions)]
    fn probe_pick(&self, node: NodeId) -> Option<(usize, usize)> {
        for (j, state) in self.jobs.iter().enumerate() {
            if !state.ready() || state.pending.is_empty() {
                continue;
            }
            for &t in &state.pending {
                if self.probe_local(j, t, node) {
                    return Some((j, t));
                }
            }
            return state.pending.front().map(|&t| (j, t));
        }
        None
    }

    /// [`Exec::input_local`] asked of the DFS now, not of the snapshot.
    #[cfg(debug_assertions)]
    fn probe_local(&self, j: usize, t: usize, node: NodeId) -> bool {
        let hint = self.dag.jobs[j].tasks[t].locality_hint.as_ref();
        hint.is_none_or(|(m, ti, tj)| {
            let mut local = false;
            self.sched
                .store
                .tile_home(m, *ti, *tj, |n| local |= n == node);
            local
        })
    }

    /// Task choice for one free slot: a pending task, or — when slots would
    /// otherwise idle — a speculative backup of a straggler.
    fn pick_for_slot(&mut self, node: u32, now: SimTime) -> Option<(usize, usize, bool)> {
        let pick = self.pick_task(NodeId(node));
        #[cfg(debug_assertions)]
        assert_eq!(
            pick,
            self.probe_pick(NodeId(node)),
            "pass {}: the locality snapshot and a fresh DFS probe pick differently for node {node}",
            self.wave
        );
        if let Some((j, t)) = pick {
            return Some((j, t, false));
        }
        if !self.config.speculative {
            return None;
        }
        self.slot_state
            .iter()
            .flatten()
            .filter(|r| {
                let js = &self.jobs[r.job];
                !js.task_done[r.task]
                    && !js.speculated[r.task]
                    && js.pending.is_empty()
                    && js.mean_completed_s().is_some_and(|mean| {
                        now.secs() - r.started.secs() > self.config.speculation_factor * mean
                    })
            })
            .max_by(|a, b| {
                let ea = now.secs() - a.started.secs();
                let eb = now.secs() - b.started.secs();
                ea.partial_cmp(&eb).expect("finite elapsed")
            })
            .map(|r| (r.job, r.task, true))
    }

    /// Assigns a task to a free slot: pending-queue/speculation bookkeeping,
    /// epoch allocation, and slot occupation. Attempt numbers and fault
    /// counters are only *computed* here — they are written back at
    /// finalize, so a wave aborted mid-commit leaves no counters from the
    /// entries behind the abort.
    fn assign(&mut self, node: u32, slot: u32, now: SimTime) -> Option<WaveEntry> {
        let (j, t, is_backup) = self.pick_for_slot(node, now)?;
        if is_backup {
            self.jobs[j].speculated[t] = true;
        } else {
            // Remove t from job j's pending queue.
            let pos = self.jobs[j]
                .pending
                .iter()
                .position(|&x| x == t)
                .expect("picked task is pending");
            self.jobs[j].pending.remove(pos);
        }
        let attempt = self.jobs[j].attempts[t] + 1;
        let epoch = self.next_epoch;
        self.next_epoch += 1;
        let input_local = self.input_local(j, t, NodeId(node));
        #[cfg(debug_assertions)]
        assert_eq!(
            input_local,
            self.probe_local(j, t, NodeId(node)),
            "pass {}: the locality snapshot is stale for task ({j}, {t})",
            self.wave
        );
        let idx = (node * self.sched.spec.slots_per_node + slot) as usize;
        self.slot_state[idx] = Some(Running {
            job: j,
            task: t,
            epoch,
            started: now,
            input_local,
        });
        Some(WaveEntry {
            job: j,
            task: t,
            attempt,
            epoch,
            node,
            slot,
            is_backup,
        })
    }

    /// Hands every task of every newly-ready job to the lookahead pool.
    /// A job is enqueued exactly once, the first `fill_slots` after its
    /// dependencies complete — at which point all its inputs are durable
    /// in the DFS, so workers can read them ahead of simulated time.
    fn spec_enqueue_ready(&mut self) {
        let Some(lease) = &self.pool else { return };
        let mut batch = Vec::new();
        for j in 0..self.dag.jobs.len() {
            if self.spec_enqueued[j] || self.jobs[j].done || self.jobs[j].remaining_deps > 0 {
                continue;
            }
            self.spec_enqueued[j] = true;
            for (t, task) in self.dag.jobs[j].tasks.iter().enumerate() {
                batch.push((j, t, Arc::clone(&task.run)));
            }
        }
        if !batch.is_empty() {
            lease.enqueue(batch, &self.sched.store);
        }
    }

    /// A fresh context bound to the assignment's real node.
    fn ctx_for(&self, e: &WaveEntry) -> TaskCtx {
        TaskCtx::new(self.sched.store.clone(), NodeId(e.node), self.mode)
    }

    /// Runs one task attempt's logic inline, at canonical time. This is
    /// the reference semantics: what resolves every task of a
    /// single-threaded or phantom run, and the fallback whenever a
    /// lookahead recording is missing, errored, or fails replay validation.
    fn execute(&self, e: &WaveEntry) -> ExecOutcome {
        let mut ctx = self.ctx_for(e);
        let result = (self.dag.jobs[e.job].tasks[e.task].run)(&mut ctx);
        ExecOutcome::new(ctx, result.err())
    }

    /// Replays a recorded operation log against a fresh context bound to
    /// the assignment's real node, reproducing the exact receipts and
    /// accumulation order an inline run would produce. Reads are
    /// re-performed (recomputing canonical read receipts) and validated
    /// against the recorded tiles; any divergence or error returns `None`
    /// and the caller falls back to inline execution.
    fn try_replay(&self, e: &WaveEntry, ops: Vec<TaskOp>) -> Option<ExecOutcome> {
        let mut ctx = self.ctx_for(e);
        for op in ops {
            match op {
                TaskOp::Read {
                    matrix,
                    ti,
                    tj,
                    tile,
                } => {
                    let got = ctx.read_tile(&matrix, ti, tj).ok()?;
                    if !(Arc::ptr_eq(&got, &tile) || *got == *tile) {
                        return None;
                    }
                }
                TaskOp::Write {
                    matrix,
                    ti,
                    tj,
                    tile,
                } => ctx.write_tile(&matrix, ti, tj, tile).ok()?,
                TaskOp::Charge(w) => ctx.charge(w),
                TaskOp::ChargeMem(mb) => ctx.charge_mem_mb(mb),
                TaskOp::ChargeReadIo(io) => ctx.charge_read_io(io),
                TaskOp::ChargeWriteIo(io) => ctx.charge_write_io(io),
                TaskOp::ChargeSeconds(s) => ctx.charge_seconds(s),
                TaskOp::ChargeIoOps(n) => ctx.charge_io_ops(n),
            }
        }
        Some(ExecOutcome::new(ctx, None))
    }

    /// The outcome for one assignment: a validated replay of its lookahead
    /// recording when available, else an inline run. Both paths produce
    /// bitwise-identical outcomes, so which one is taken — a host-timing
    /// artifact — is unobservable in the simulation. Either way the
    /// task's writes are staged, not committed, which is what leaves the
    /// wave free to resolve its entries in any order.
    fn obtain_outcome(&self, e: &WaveEntry) -> ExecOutcome {
        self.pool
            .as_ref()
            .and_then(|lease| lease.take(e.job, e.task))
            .and_then(|ops| self.try_replay(e, ops))
            .unwrap_or_else(|| self.execute(e))
    }

    /// Applies one resolved entry's effects, in canonical order: commit
    /// staged writes (making the DFS placement RNG draws in assignment
    /// order), book attempts and fault counters, resolve injected
    /// failures, charge stats, and schedule the completion event.
    fn finalize(
        &mut self,
        e: &WaveEntry,
        outcome: ExecOutcome,
        queue: &mut EventQueue<Event>,
    ) -> Result<()> {
        let ExecOutcome {
            mut receipt,
            staged,
            mut error,
        } = outcome;
        for w in staged {
            // A task that errored mid-logic still commits everything it
            // wrote before the error point.
            match self.sched.store.write_tile_arc(
                &w.matrix,
                w.ti,
                w.tj,
                w.tile,
                Some(NodeId(e.node)),
            ) {
                Ok(io) => receipt.write = receipt.write.add(io),
                Err(commit_err) => {
                    if error.is_none() {
                        error = Some(commit_err.into());
                    }
                    break;
                }
            }
        }
        self.jobs[e.job].attempts[e.task] = e.attempt;
        self.faults.task_attempts += 1;
        if e.is_backup {
            self.faults.speculative_launches += 1;
        } else if e.attempt > 1 {
            self.faults.retries += 1;
        }
        let injected_failure = self.failures.attempt_fails(e.job, e.task, e.attempt);
        let ok = error.is_none() && !injected_failure;
        if let Some(err) = &error {
            if let ClusterError::BlockLost { path, .. } = err {
                if !self.lost_blocks.contains(path) {
                    self.lost_blocks.push(path.clone());
                    self.faults.lost_block_events += 1;
                }
            }
            if e.attempt >= self.config.max_attempts {
                return Err(ClusterError::TaskFailed {
                    job: self.dag.jobs[e.job].name.clone(),
                    task: e.task,
                    attempts: e.attempt,
                    last_error: err.to_string(),
                });
            }
        }
        let duration = self
            .sched
            .hw
            .task_seconds(
                &self.sched.spec.instance,
                self.sched.spec.slots_per_node,
                &receipt,
                e.job,
                e.task,
                e.attempt - 1,
            )
            .max(1e-9);
        // Rework accounting: retries and backup copies re-execute work the
        // first attempt already did (DES-ordered accumulation, so the f64
        // sums are identical at any thread count).
        self.faults.total_task_s += duration;
        if e.attempt > 1 || e.is_backup {
            self.faults.rework_task_s += duration;
        }
        if self.trace.is_enabled() {
            // Phase fractions come from the noise-free model split and are
            // rescaled to the attempt's actual (noisy) duration, so phase
            // sums reproduce span durations — and hence the makespan —
            // exactly.
            let phases = self
                .sched
                .hw
                .task_phases(
                    &self.sched.spec.instance,
                    self.sched.spec.slots_per_node,
                    &receipt,
                )
                .scaled_to(duration);
            self.epoch_meta.insert(
                e.epoch,
                SpanMeta {
                    attempt: e.attempt,
                    is_backup: e.is_backup,
                    wave: self.wave,
                    phases,
                    read_bytes: receipt.read.bytes,
                    read_local_bytes: receipt.read.local_bytes,
                    write_bytes: receipt.write.bytes,
                    io_ops: receipt.io_ops,
                },
            );
        }
        self.jobs[e.job].stats.start_s = self.jobs[e.job].stats.start_s.min(queue.now().secs());
        self.jobs[e.job].stats.receipt = self.jobs[e.job].stats.receipt.add(receipt);
        queue.schedule_in(
            duration,
            Event::TaskFinish {
                job: e.job,
                task: e.task,
                attempt: e.attempt,
                epoch: e.epoch,
                node: e.node,
                slot: e.slot,
                ok,
            },
        );
        Ok(())
    }

    /// Fills every free slot with the best pending task, as one wave in
    /// four phases:
    ///
    /// 1. *Assign* every free slot in canonical node/slot order, stopping
    ///    once no ready task is pending (unless speculation may still
    ///    launch backups). Nothing here mutates the DFS — commits wait
    ///    for phase 4 — so the locality lookups ([`Homes`]) see one
    ///    placement for the whole phase.
    /// 2. *Resolve* the entries whose hinted input is RAM-resident. Under
    ///    a memory budget the others — input demoted to the spill plane —
    ///    wait, so their on-demand readbacks cannot evict tiles the rest
    ///    of the wave still needs (without a budget nothing is ever
    ///    demoted and this is the whole wave, in assignment order). Reads
    ///    are order-insensitive: block service is stateless
    ///    locality-ordered replica selection, read receipts do not depend
    ///    on cache or spill state, and same-wave tasks never read each
    ///    other's outputs. Writes are staged, not committed.
    /// 3. *Prefetch* the frontier — the spilled-input entries' reads, or
    ///    the next wave's when there are none — then resolve those
    ///    entries. Staging here, after phase 2, means readmissions cannot
    ///    evict tiles the resident-input entries needed.
    /// 4. *Finalize* in canonical assignment order: staged writes commit
    ///    here, so the placement RNG draw sequence, receipt accumulation
    ///    order, fault bookkeeping and event schedule depend on nothing
    ///    but the assignment sequence. An error stops the wave; entries
    ///    after it leave no trace.
    ///
    /// Thread count, budget and prefetch depth therefore move only
    /// host-side resolve order, spill-plane traffic and the
    /// (fingerprint-excluded) cache/spill counters.
    pub(super) fn fill_slots(&mut self, queue: &mut EventQueue<Event>) -> Result<()> {
        self.spec_enqueue_ready();
        self.wave += 1;
        let nodes = self.sched.spec.nodes;
        let slots = self.sched.spec.slots_per_node;
        let now = queue.now();
        let mut entries: Vec<WaveEntry> = Vec::new();
        // Tasks a slot can still pick: with none left and no backups to
        // launch, every remaining slot would pick nothing.
        let mut pickable: usize = self
            .jobs
            .iter()
            .filter(|s| s.ready())
            .map(|s| s.pending.len())
            .sum();
        'nodes: for node in 0..nodes {
            if !self.node_alive[node as usize] || self.doomed[node as usize] {
                continue;
            }
            for slot in 0..slots {
                if pickable == 0 && !self.config.speculative {
                    break 'nodes;
                }
                let idx = (node * slots + slot) as usize;
                if self.slot_state[idx].is_some() {
                    continue;
                }
                if let Some(entry) = self.assign(node, slot, now) {
                    if !entry.is_backup {
                        pickable -= 1;
                    }
                    entries.push(entry);
                }
            }
        }
        // Residency snapshot before any resolution runs: spilled-input
        // entries resolve last from one consistent view.
        let (spilled, resident): (Vec<usize>, Vec<usize>) =
            (0..entries.len()).partition(|&i| self.entry_input_spilled(&entries[i]));
        let mut outcomes: Vec<Option<ExecOutcome>> = Vec::new();
        outcomes.resize_with(entries.len(), || None);
        for &i in &resident {
            outcomes[i] = Some(self.obtain_outcome(&entries[i]));
        }
        let pending: Vec<(usize, usize)> = spilled
            .iter()
            .map(|&i| (entries[i].job, entries[i].task))
            .collect();
        self.stage_prefetch(&pending);
        for &i in &spilled {
            outcomes[i] = Some(self.obtain_outcome(&entries[i]));
        }
        for (entry, outcome) in entries.iter().zip(outcomes) {
            self.finalize(entry, outcome.expect("every entry resolved above"), queue)?;
        }
        Ok(())
    }
}
