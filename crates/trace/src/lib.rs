//! Span-level tracing for the Cumulon simulated cluster.
//!
//! The cluster's discrete-event scheduler emits one [`TaskSpan`] per task
//! attempt, one [`JobSpan`] per DAG job, and instant [`TraceEvent`]s for
//! faults, speculation outcomes and recovery rounds. They accumulate in a
//! [`Trace`] handle — a cheap clonable recorder that is a no-op when
//! disabled — and a finished run snapshots them into a [`TraceLog`], which
//! renders as Chrome/Perfetto `trace_event` JSON
//! ([`TraceLog::to_chrome_json`]), a slot-occupancy timeline
//! ([`TraceLog::utilization`]) and a critical-path report
//! ([`TraceLog::critical_path`]).
//!
//! # Determinism contract
//!
//! Recording never reads the clock, allocates task state, or otherwise
//! feeds back into the simulation: enabling a trace leaves run results
//! bitwise-identical at any worker thread count (property-tested in
//! `cumulon-cluster`). Span *content* is deterministic for a fixed seed,
//! and so is the exported JSON at any thread count, with one documented
//! exception: `spill_readback_avoided_bytes`, which speculative workers
//! can move by readmitting spilled tiles ahead of simulated time. It is
//! exported only when nonzero, so runs without a prefetching spill plane
//! export byte-identical JSON at every thread count.
//!
//! # Schema
//!
//! Exported JSON is versioned via `TRACE_SCHEMA_VERSION` and documented
//! in DESIGN.md ("Observability"). A minimal dependency-free JSON parser
//! ([`json`]) backs the golden-file schema tests.

#![deny(missing_docs)]
#![warn(unreachable_pub)]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

mod export;
pub mod json;
mod report;

pub use report::{
    CriticalPathReport, CriticalStep, EstimateDiff, UtilizationReport, UtilizationRow,
};

/// Version stamp written into every exported trace (`schema_version`).
/// Bump on any breaking change to span fields or JSON layout.
/// v2: task launch cost moved out of `overhead_s` into `startup_s`.
/// v3: the tile-cache hit and miss counters left the run metadata.
pub(crate) const TRACE_SCHEMA_VERSION: u32 = 3;

/// Simulated seconds attributed to each execution phase of a task (or a
/// whole run). Produced by the hardware model's noise-free cost split and
/// rescaled span-by-span so phase sums reproduce actual span durations
/// exactly (see [`PhaseBreakdown::scaled_to`]).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PhaseBreakdown {
    /// Kernel FLOP time.
    pub compute_s: f64,
    /// DFS read time (local + remote), including memory-pressure penalty.
    pub read_s: f64,
    /// DFS write time (local + remote), including memory-pressure penalty.
    pub write_s: f64,
    /// Fixed task launch cost (framework spin-up), paid once per attempt
    /// regardless of work volume. Kept apart from [`Self::overhead_s`]:
    /// on a one-wave plan a single launch can dominate the critical path,
    /// and folding it into "overhead" misreads a constant as executor
    /// inefficiency.
    pub startup_s: f64,
    /// Per-operation overhead: op-fixed seconds and IO-op latency
    /// (namenode round trips). Scales with the work, unlike startup.
    pub overhead_s: f64,
}

impl PhaseBreakdown {
    /// Sum of all five phases.
    pub fn total_s(&self) -> f64 {
        self.compute_s + self.read_s + self.write_s + self.startup_s + self.overhead_s
    }

    /// Accumulates `other` into `self`.
    pub fn add(&mut self, other: &PhaseBreakdown) {
        self.compute_s += other.compute_s;
        self.read_s += other.read_s;
        self.write_s += other.write_s;
        self.startup_s += other.startup_s;
        self.overhead_s += other.overhead_s;
    }

    /// Rescales the breakdown so its phases sum to exactly `duration_s`,
    /// preserving relative proportions. A zero/degenerate breakdown books
    /// the whole duration as overhead. This is how model-derived phase
    /// *fractions* are applied to an *actual* (noise-bearing) span
    /// duration without ever mismatching the observed total.
    pub fn scaled_to(&self, duration_s: f64) -> PhaseBreakdown {
        let total = self.total_s();
        if !total.is_finite() || total <= 0.0 || !duration_s.is_finite() {
            return PhaseBreakdown {
                overhead_s: duration_s.max(0.0),
                ..PhaseBreakdown::default()
            };
        }
        let k = duration_s / total;
        PhaseBreakdown {
            compute_s: self.compute_s * k,
            read_s: self.read_s * k,
            write_s: self.write_s * k,
            startup_s: self.startup_s * k,
            overhead_s: self.overhead_s * k,
        }
    }
}

/// One task attempt executed (or killed) on a cluster slot.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskSpan {
    /// Job index within the run's DAG.
    pub job: usize,
    /// Task index within the job.
    pub task: usize,
    /// 1-based attempt number.
    pub attempt: u32,
    /// Node the attempt ran on.
    pub node: usize,
    /// Slot index on that node (`0..slots_per_node`).
    pub slot: usize,
    /// Simulated start time (global timeline; recovery rounds offset).
    pub start_s: f64,
    /// Simulated end time.
    pub end_s: f64,
    /// Whether the attempt finished successfully.
    pub ok: bool,
    /// Whether this was a speculative backup attempt.
    pub backup: bool,
    /// Whether the attempt was killed (twin won, or its node died).
    pub killed: bool,
    /// Scheduling wave in which the attempt was assigned.
    pub wave: u64,
    /// Recovery round (0 = the initial run).
    pub round: u32,
    /// Model-derived phase split, rescaled to this span's duration.
    pub phases: PhaseBreakdown,
    /// Total bytes read from the DFS.
    pub read_bytes: u64,
    /// Bytes read from a replica on the executing node.
    pub read_local_bytes: u64,
    /// Total bytes written to the DFS.
    pub write_bytes: u64,
    /// Number of distinct tile IO operations.
    pub io_ops: u64,
}

impl TaskSpan {
    /// Span duration in simulated seconds.
    pub fn duration_s(&self) -> f64 {
        self.end_s - self.start_s
    }
}

/// One DAG job from first task launch to completion.
#[derive(Clone, Debug, PartialEq)]
pub struct JobSpan {
    /// Job index within the run's DAG.
    pub index: usize,
    /// Job name (e.g. `"mul C"`).
    pub name: String,
    /// Physical operator label (e.g. `"MUL"`).
    pub op_label: String,
    /// Simulated start time.
    pub start_s: f64,
    /// Simulated completion time.
    pub end_s: f64,
    /// Recovery round (0 = the initial run).
    pub round: u32,
}

/// An instantaneous event on the run timeline.
#[derive(Clone, Debug, PartialEq)]
pub enum TraceEvent {
    /// A node died; its blocks were re-replicated where possible.
    NodeFailure {
        /// Simulated time of death.
        t_s: f64,
        /// The failed node.
        node: usize,
        /// Bytes re-replicated from surviving replicas.
        rereplicated_bytes: u64,
    },
    /// A speculative backup finished before (and killed) the original.
    SpeculativeWin {
        /// Simulated time of the win.
        t_s: f64,
        /// Winning job index.
        job: usize,
        /// Winning task index.
        task: usize,
    },
    /// A lineage-recovery round began after lost blocks aborted a run.
    RecoveryRound {
        /// Global simulated time at which the round starts.
        t_s: f64,
        /// 1-based recovery round number.
        round: u32,
        /// Number of lost blocks that triggered the round.
        lost_blocks: usize,
    },
    /// A spot revocation warning: the named nodes are doomed and the DFS
    /// drained what the lead window's bandwidth budget allowed.
    RevocationWarning {
        /// Simulated time of the warning.
        t_s: f64,
        /// Nodes under the warning.
        nodes: Vec<usize>,
        /// Sole-replica bytes proactively copied to survivors.
        drained_bytes: u64,
    },
    /// A correlated bulk spot revocation took effect.
    Revocation {
        /// Simulated time the nodes were reclaimed.
        t_s: f64,
        /// Nodes reclaimed together.
        nodes: Vec<usize>,
        /// Bytes re-replicated from surviving replicas afterwards.
        rereplicated_bytes: u64,
    },
}

impl TraceEvent {
    /// The event's time on the global simulated timeline.
    #[cfg(test)]
    pub(crate) fn t_s(&self) -> f64 {
        match self {
            TraceEvent::NodeFailure { t_s, .. }
            | TraceEvent::SpeculativeWin { t_s, .. }
            | TraceEvent::RecoveryRound { t_s, .. }
            | TraceEvent::RevocationWarning { t_s, .. }
            | TraceEvent::Revocation { t_s, .. } => *t_s,
        }
    }

    fn offset_by(&mut self, dt: f64) {
        match self {
            TraceEvent::NodeFailure { t_s, .. }
            | TraceEvent::SpeculativeWin { t_s, .. }
            | TraceEvent::RecoveryRound { t_s, .. }
            | TraceEvent::RevocationWarning { t_s, .. }
            | TraceEvent::Revocation { t_s, .. } => *t_s += dt,
        }
    }
}

/// A completed run's full span record, snapshotted from a [`Trace`].
#[derive(Clone, Debug, Default)]
pub struct TraceLog {
    /// Schema version of this log (see `TRACE_SCHEMA_VERSION`).
    pub schema_version: u32,
    /// Instance type name (e.g. `"m1.large"`).
    pub instance: String,
    /// Number of provisioned nodes.
    pub nodes: usize,
    /// Slots per node.
    pub slots: usize,
    /// End-to-end simulated makespan across all recovery rounds.
    pub makespan_s: f64,
    /// Every task attempt, in completion order.
    pub tasks: Vec<TaskSpan>,
    /// Every DAG job, in completion order.
    pub jobs: Vec<JobSpan>,
    /// Instant events, in emission order.
    pub events: Vec<TraceEvent>,
    /// Service request id this run was executed for (`cumulon serve`
    /// threads it through via [`Trace::set_request_id`]); `None` for
    /// direct CLI runs. Exported in the Chrome JSON only when set, so
    /// standalone traces are byte-identical with or without this field.
    pub request_id: Option<String>,
    /// Spill-plane wire bytes whose synchronous readback was avoided by
    /// scheduler prefetch (tiles readmitted ahead of demand and claimed
    /// by a later read). Parallelism-sensitive: see the crate-level
    /// determinism contract.
    pub spill_readback_avoided_bytes: u64,
}

impl TraceLog {
    /// Name of job `index` in recovery round `round`, if recorded.
    pub fn job_name(&self, index: usize, round: u32) -> Option<&str> {
        self.jobs
            .iter()
            .find(|j| j.index == index && j.round == round)
            .map(|j| j.name.as_str())
    }

    /// Sum of per-span phase attributions over all successful attempts.
    pub fn phase_totals(&self) -> PhaseBreakdown {
        let mut total = PhaseBreakdown::default();
        for t in self.tasks.iter().filter(|t| t.ok) {
            total.add(&t.phases);
        }
        total
    }
}

struct Buf {
    instance: String,
    nodes: usize,
    slots: usize,
    makespan_s: f64,
    round: u32,
    offset_s: f64,
    tasks: Vec<TaskSpan>,
    jobs: Vec<JobSpan>,
    events: Vec<TraceEvent>,
    request_id: Option<String>,
}

struct TraceInner {
    buf: Mutex<Buf>,
    spill_readback_avoided_bytes: AtomicU64,
}

/// A clonable handle for recording spans during one run.
///
/// [`Trace::disabled`] is the zero-overhead default: every recording
/// method early-returns on a `None` inner pointer. [`Trace::enabled`]
/// allocates a shared buffer; clones share it, so the scheduler, DFS and
/// recovery driver can all record into one log. Call [`Trace::snapshot`]
/// after the run to obtain the [`TraceLog`].
#[derive(Clone, Default)]
pub struct Trace {
    inner: Option<Arc<TraceInner>>,
}

impl std::fmt::Debug for Trace {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Trace")
            .field("enabled", &self.is_enabled())
            .finish()
    }
}

impl Trace {
    /// A no-op handle: recording costs one branch, nothing is stored.
    pub fn disabled() -> Self {
        Trace { inner: None }
    }

    /// A live handle with a fresh, empty span buffer.
    pub fn enabled() -> Self {
        Trace {
            inner: Some(Arc::new(TraceInner {
                buf: Mutex::new(Buf {
                    instance: String::new(),
                    nodes: 0,
                    slots: 0,
                    makespan_s: 0.0,
                    round: 0,
                    offset_s: 0.0,
                    tasks: Vec::new(),
                    jobs: Vec::new(),
                    events: Vec::new(),
                    request_id: None,
                }),
                spill_readback_avoided_bytes: AtomicU64::new(0),
            })),
        }
    }

    /// Whether this handle records anything at all.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// Records the cluster shape the run executes on.
    pub fn set_run_meta(&self, instance: &str, nodes: usize, slots: usize) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.buf.lock().unwrap();
            buf.instance = instance.to_string();
            buf.nodes = nodes;
            buf.slots = slots;
        }
    }

    /// Tags the trace with the service request id that initiated the run,
    /// so an audited trace can be matched back to the `cumulon serve`
    /// request (and its response fingerprint) that produced it. Purely
    /// observational, like all recording: it never feeds back into the
    /// simulation.
    pub fn set_request_id(&self, request_id: &str) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.buf.lock().unwrap();
            buf.request_id = Some(request_id.to_string());
        }
    }

    /// Enters recovery round `round`, whose local time 0 sits at global
    /// time `offset_s`. Subsequently recorded spans and events are shifted
    /// onto the global timeline automatically.
    pub fn set_round(&self, round: u32, offset_s: f64) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.buf.lock().unwrap();
            buf.round = round;
            buf.offset_s = offset_s;
        }
    }

    /// Records the simulated makespan of the current round (round-local,
    /// like spans); the stored run makespan becomes `offset + makespan`,
    /// so the last round's stamp yields the global end-to-end makespan.
    pub fn set_makespan(&self, makespan_s: f64) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.buf.lock().unwrap();
            buf.makespan_s = buf.offset_s + makespan_s;
        }
    }

    /// Records one task attempt. `span.start_s`/`end_s` are round-local;
    /// the current round and offset are applied here.
    pub fn record_task(&self, mut span: TaskSpan) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.buf.lock().unwrap();
            span.round = buf.round;
            span.start_s += buf.offset_s;
            span.end_s += buf.offset_s;
            buf.tasks.push(span);
        }
    }

    /// Records one job span (round-local times, shifted like tasks).
    pub fn record_job(&self, mut span: JobSpan) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.buf.lock().unwrap();
            span.round = buf.round;
            span.start_s += buf.offset_s;
            span.end_s += buf.offset_s;
            buf.jobs.push(span);
        }
    }

    /// Records one instant event (round-local time, shifted like tasks).
    pub fn record_event(&self, mut event: TraceEvent) {
        if let Some(inner) = &self.inner {
            let mut buf = inner.buf.lock().unwrap();
            let dt = buf.offset_s;
            event.offset_by(dt);
            buf.events.push(event);
        }
    }

    /// Credits `bytes` of spill readback avoided by prefetch (no-op when
    /// disabled). Attributed run-wide: the saving shows up
    /// in the phase report's read lane, not per span.
    pub fn spill_readback_avoided(&self, bytes: u64) {
        if let Some(inner) = &self.inner {
            inner
                .spill_readback_avoided_bytes
                .fetch_add(bytes, Ordering::Relaxed);
        }
    }

    /// Snapshots the recorded spans into a [`TraceLog`]. Returns `None`
    /// for a disabled handle. The buffer is cloned, not drained, so the
    /// handle stays usable (e.g. for further recovery rounds).
    pub fn snapshot(&self) -> Option<TraceLog> {
        let inner = self.inner.as_ref()?;
        let buf = inner.buf.lock().unwrap();
        Some(TraceLog {
            schema_version: TRACE_SCHEMA_VERSION,
            instance: buf.instance.clone(),
            nodes: buf.nodes,
            slots: buf.slots,
            makespan_s: buf.makespan_s,
            tasks: buf.tasks.clone(),
            jobs: buf.jobs.clone(),
            events: buf.events.clone(),
            request_id: buf.request_id.clone(),
            spill_readback_avoided_bytes: inner
                .spill_readback_avoided_bytes
                .load(Ordering::Relaxed),
        })
    }
}

#[cfg(test)]
pub(crate) fn sample_span(job: usize, task: usize, start_s: f64, end_s: f64) -> TaskSpan {
    TaskSpan {
        job,
        task,
        attempt: 1,
        node: 0,
        slot: 0,
        start_s,
        end_s,
        ok: true,
        backup: false,
        killed: false,
        wave: 0,
        round: 0,
        phases: PhaseBreakdown {
            compute_s: 1.0,
            read_s: 1.0,
            write_s: 1.0,
            startup_s: 0.0,
            overhead_s: 1.0,
        }
        .scaled_to(end_s - start_s),
        read_bytes: 1024,
        read_local_bytes: 512,
        write_bytes: 256,
        io_ops: 3,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_trace_records_nothing() {
        let t = Trace::disabled();
        assert!(!t.is_enabled());
        t.record_task(sample_span(0, 0, 0.0, 1.0));
        t.spill_readback_avoided(64);
        assert!(t.snapshot().is_none());
    }

    #[test]
    fn enabled_trace_round_trips_spans() {
        let t = Trace::enabled();
        t.set_run_meta("m1.large", 4, 2);
        t.record_task(sample_span(0, 1, 0.0, 2.0));
        t.record_job(JobSpan {
            index: 0,
            name: "mul C".into(),
            op_label: "MUL".into(),
            start_s: 0.0,
            end_s: 2.0,
            round: 0,
        });
        t.record_event(TraceEvent::SpeculativeWin {
            t_s: 1.5,
            job: 0,
            task: 1,
        });
        t.set_makespan(2.0);
        let log = t.snapshot().unwrap();
        assert_eq!(log.schema_version, TRACE_SCHEMA_VERSION);
        assert_eq!(log.instance, "m1.large");
        assert_eq!((log.nodes, log.slots), (4, 2));
        assert_eq!(log.tasks.len(), 1);
        assert_eq!(log.jobs.len(), 1);
        assert_eq!(log.events.len(), 1);
        assert_eq!(log.job_name(0, 0), Some("mul C"));
        assert_eq!(log.job_name(0, 1), None);
    }

    #[test]
    fn round_offset_shifts_spans_onto_global_timeline() {
        let t = Trace::enabled();
        t.record_task(sample_span(0, 0, 0.0, 5.0));
        t.set_round(1, 100.0);
        t.record_task(sample_span(0, 1, 0.0, 5.0));
        t.record_event(TraceEvent::RecoveryRound {
            t_s: 0.0,
            round: 1,
            lost_blocks: 2,
        });
        let log = t.snapshot().unwrap();
        assert_eq!(log.tasks[0].round, 0);
        assert_eq!(log.tasks[0].start_s, 0.0);
        assert_eq!(log.tasks[1].round, 1);
        assert_eq!(log.tasks[1].start_s, 100.0);
        assert_eq!(log.tasks[1].end_s, 105.0);
        assert_eq!(log.events[0].t_s(), 100.0);
    }

    #[test]
    fn phase_breakdown_scales_exactly() {
        let p = PhaseBreakdown {
            compute_s: 3.0,
            read_s: 1.0,
            write_s: 0.5,
            startup_s: 2.5,
            overhead_s: 0.5,
        };
        let scaled = p.scaled_to(15.0);
        assert!((scaled.total_s() - 15.0).abs() < 1e-12);
        assert!((scaled.compute_s - 6.0).abs() < 1e-12);
        assert!((scaled.startup_s - 5.0).abs() < 1e-12);
        let degenerate = PhaseBreakdown::default().scaled_to(4.0);
        assert_eq!(degenerate.overhead_s, 4.0);
        assert_eq!(degenerate.total_s(), 4.0);
    }

    #[test]
    fn phase_totals_skip_failed_attempts() {
        let t = Trace::enabled();
        t.record_task(sample_span(0, 0, 0.0, 4.0));
        let mut failed = sample_span(0, 1, 0.0, 4.0);
        failed.ok = false;
        t.record_task(failed);
        let log = t.snapshot().unwrap();
        assert!((log.phase_totals().total_s() - 4.0).abs() < 1e-9);
    }
}
