//! The in-process service: admission control, quotas, the job table and
//! the run-worker pool, behind a single [`Service::handle`] entry point.
//!
//! [`Service::handle`] is the whole protocol — the TCP server
//! ([`crate::server`]) is a thin line-framing shell around it, and tests
//! drive the service in-process through the same method, so wire behavior
//! and tested behavior cannot drift.
//!
//! Request lifecycle (documented in DESIGN.md, "Service layer"):
//! accept → admit (schema, quota) → fast lane (`plan`/`optimize`,
//! executed synchronously on the calling thread) or queue (`run`,
//! bounded + priority-ordered) → execute (worker pool, shared
//! speculation pool) → audit (request-id-tagged trace, fingerprint in
//! the response, receipt retained in the job table).

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::Instant;

use cumulon_cluster::shared_spec_pool;

use crate::engine;
use crate::protocol::{Action, ErrorCode, Reply, Request};
use crate::queue::JobQueue;
use crate::quota::{QuotaConfig, TokenBucket};

/// Tuning knobs for a [`Service`].
#[derive(Clone, Copy, Debug)]
pub struct ServiceConfig {
    /// Maximum queued (not yet executing) `run` jobs before admission
    /// rejects with `queue-full`.
    pub queue_depth: usize,
    /// Worker threads executing queued runs.
    pub run_workers: usize,
    /// Scheduler threads per run. Every run uses the process-wide shared
    /// speculation pool ([`shared_spec_pool`]), sized to this on first
    /// use, so concurrent runs compete for the same workers under their
    /// priority lanes instead of oversubscribing the host.
    pub threads: usize,
    /// Per-tenant token-bucket policy.
    pub quota: QuotaConfig,
    /// Nominal seconds one queued run takes — seeds the observed-run-time
    /// EWMA that scales `retry_after_s` on `queue-full` rejections. Once
    /// runs complete, the hint tracks what runs *actually* take on this
    /// host, not this configured guess.
    pub nominal_run_s: f64,
}

/// EWMA smoothing factor for observed run wall times: new observations
/// carry 30% weight, so the `retry_after_s` hint adapts within a few runs
/// without one outlier whipsawing it.
const RUN_WALL_EWMA_ALPHA: f64 = 0.3;

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            queue_depth: 8,
            run_workers: 2,
            threads: 2,
            quota: QuotaConfig::default(),
            nominal_run_s: 0.5,
        }
    }
}

/// Lifecycle state of a `run` job.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum JobState {
    /// Admitted, waiting for a worker.
    Queued,
    /// A worker is executing it.
    Running,
    /// Finished; fingerprint and receipt retained.
    Done,
    /// Failed; message retained.
    Failed,
}

impl JobState {
    fn as_str(self) -> &'static str {
        match self {
            JobState::Queued => "queued",
            JobState::Running => "running",
            JobState::Done => "done",
            JobState::Failed => "failed",
        }
    }
}

/// The retained record of one `run` job — the audit trail `check-status`
/// reads. Never dropped while the service lives, so receipts survive
/// graceful shutdown.
#[derive(Clone, Debug)]
pub struct JobRecord {
    /// Current lifecycle state.
    pub state: JobState,
    /// Tenant that submitted the run.
    pub tenant: String,
    /// Request id the run executed under (tagged into its trace).
    pub request_id: String,
    /// Run fingerprint, set when `Done`.
    pub fingerprint: Option<String>,
    /// Simulated makespan, set when `Done`.
    pub makespan_s: f64,
    /// Dollar cost, set when `Done`.
    pub cost_dollars: f64,
    /// One-line report summary, set when `Done`.
    pub summary: String,
    /// Trace spans recorded, set when `Done`.
    pub spans: u64,
    /// Error message, set when `Failed`.
    pub error: String,
    /// Wire code of the error, set when `Failed`.
    pub error_code: ErrorCode,
}

struct QueuedRun {
    job_id: String,
    request: Request,
}

struct ServiceInner {
    config: ServiceConfig,
    queue: JobQueue<QueuedRun>,
    buckets: Mutex<HashMap<String, TokenBucket>>,
    jobs: Mutex<HashMap<String, JobRecord>>,
    jobs_cv: Condvar,
    next_job: AtomicU64,
    draining: AtomicBool,
    started: Instant,
    /// EWMA of completed-run wall seconds, seeded from
    /// [`ServiceConfig::nominal_run_s`]. Drives the `queue-full`
    /// `retry_after_s` hint: a service whose runs take 10x the nominal
    /// knob must not tell rejected clients to come back 10x too soon.
    run_wall_ewma_s: Mutex<f64>,
}

impl ServiceInner {
    fn now_s(&self) -> f64 {
        self.started.elapsed().as_secs_f64()
    }

    /// Charges `cost` against the tenant's bucket; `Err(retry_after_s)`
    /// throttles.
    fn admit_quota(&self, tenant: &str, cost: f64) -> Result<(), f64> {
        let now = self.now_s();
        let mut buckets = self.buckets.lock().unwrap();
        let bucket = buckets.entry(tenant.to_string()).or_insert_with(|| {
            TokenBucket::new(self.config.quota.capacity, self.config.quota.refill_per_s)
        });
        bucket.try_take(cost, now)
    }

    fn update_job(&self, job_id: &str, f: impl FnOnce(&mut JobRecord)) {
        let mut jobs = self.jobs.lock().unwrap();
        if let Some(rec) = jobs.get_mut(job_id) {
            f(rec);
        }
        drop(jobs);
        self.jobs_cv.notify_all();
    }

    /// Folds one completed run's wall time into the EWMA.
    fn record_run_wall_s(&self, wall_s: f64) {
        let mut ewma = self.run_wall_ewma_s.lock().unwrap();
        *ewma = (1.0 - RUN_WALL_EWMA_ALPHA) * *ewma + RUN_WALL_EWMA_ALPHA * wall_s;
    }

    /// Backpressure hint for a `queue-full` rejection: how long until a
    /// worker likely frees a slot, assuming observed run time and a full
    /// pipeline.
    fn retry_after_hint(&self) -> f64 {
        let observed = *self.run_wall_ewma_s.lock().unwrap();
        observed * (1.0 + self.queue.depth() as f64 / self.config.run_workers as f64)
    }

    /// Executes one queued run on a worker thread and books the outcome.
    fn execute(&self, run: QueuedRun) {
        self.update_job(&run.job_id, |r| r.state = JobState::Running);
        let started = Instant::now();
        let result = engine::run(&run.request, self.config.threads, true);
        // Failed runs held a worker just as long as successful ones, so
        // both feed the backpressure estimate. Recorded before the
        // outcome is booked: a `wait`ing client that sees `Done` must
        // also see the hint its run produced.
        self.record_run_wall_s(started.elapsed().as_secs_f64());
        match result {
            Ok(outcome) => self.update_job(&run.job_id, |r| {
                r.state = JobState::Done;
                r.fingerprint = Some(outcome.report.fingerprint());
                r.makespan_s = outcome.report.makespan_s;
                r.cost_dollars = outcome.report.cost_dollars;
                r.summary = outcome.report.summary();
                r.spans = outcome.spans as u64;
            }),
            Err(e) => self.update_job(&run.job_id, |r| {
                r.state = JobState::Failed;
                r.error = e.to_string();
                r.error_code = e.code;
            }),
        }
    }
}

/// A running optimization service (the engine behind `cumulon serve`).
///
/// Start one, feed it protocol lines, shut it down:
///
/// ```
/// use cumulon_serve::{Service, ServiceConfig};
/// let mut svc = Service::start(ServiceConfig { run_workers: 1, ..Default::default() });
/// let response = svc.handle(
///     r#"{"schema":"cumulon-serve-v1","id":"r1","tenant":"alice","action":"plan",
///         "script":"G = A' * A;","inputs":["A=2000x1000"],"nodes":4}"#,
/// );
/// assert!(response.contains("\"ok\":true"), "{response}");
/// svc.shutdown();
/// ```
pub struct Service {
    inner: Arc<ServiceInner>,
    workers: Vec<std::thread::JoinHandle<()>>,
}

impl Service {
    /// Starts the service: spawns `run_workers` executors and pins the
    /// process-wide speculation pool to `config.threads` workers.
    pub fn start(config: ServiceConfig) -> Service {
        // Create (or adopt) the shared pool up front so its size is set
        // by service config, not by whichever run happens first.
        let _ = shared_spec_pool(config.threads);
        let inner = Arc::new(ServiceInner {
            config,
            queue: JobQueue::new(config.queue_depth),
            buckets: Mutex::new(HashMap::new()),
            jobs: Mutex::new(HashMap::new()),
            jobs_cv: Condvar::new(),
            next_job: AtomicU64::new(1),
            draining: AtomicBool::new(false),
            started: Instant::now(),
            run_wall_ewma_s: Mutex::new(config.nominal_run_s),
        });
        let workers = (0..config.run_workers.max(1))
            .map(|_| {
                let inner = Arc::clone(&inner);
                std::thread::spawn(move || {
                    while let Some(run) = inner.queue.pop() {
                        inner.execute(run);
                    }
                })
            })
            .collect();
        Service { inner, workers }
    }

    /// Handles one request line, returning the full response line
    /// (newline-terminated). Never panics on bad input — malformed lines
    /// produce `bad-request` responses.
    pub fn handle(&self, line: &str) -> String {
        let req = match Request::parse(line) {
            Ok(req) => req,
            Err(msg) => {
                // Echo the id if one survived parsing, so clients can
                // correlate even malformed-request rejections.
                let id = cumulon_trace::json::parse(line)
                    .ok()
                    .and_then(|v| v.get("id").and_then(|x| x.as_str()).map(str::to_string))
                    .unwrap_or_default();
                return Reply::err(&id, "", ErrorCode::BadRequest, &msg, None);
            }
        };
        if self.inner.draining.load(Ordering::SeqCst) && req.action != Action::CheckStatus {
            return Reply::err(
                &req.id,
                req.action.as_str(),
                ErrorCode::ShuttingDown,
                "service is draining; no new work admitted",
                None,
            );
        }
        let quota_cost = match req.action {
            Action::Run => self.inner.config.quota.run_cost,
            _ => self.inner.config.quota.cheap_cost,
        };
        if let Err(retry_after) = self.inner.admit_quota(&req.tenant, quota_cost) {
            return Reply::err(
                &req.id,
                req.action.as_str(),
                ErrorCode::QuotaExhausted,
                &format!("tenant '{}' is out of quota", req.tenant),
                Some(retry_after),
            );
        }
        match req.action {
            // The fast lane: estimate-only work runs synchronously on
            // the connection thread and never queues behind runs.
            Action::Plan => match engine::plan(&req) {
                Ok(est) => Reply::ok(&req.id, "plan")
                    .str("instance", &req.run.instance)
                    .int("nodes", req.run.nodes as u64)
                    .num("estimate_s", est.makespan_s)
                    .num("est_cost_dollars", est.cost_dollars)
                    .int("plan_jobs", est.jobs as u64)
                    .finish(),
                Err(e) => Reply::err(&req.id, "plan", e.code, &e.to_string(), None),
            },
            Action::Optimize => match engine::optimize(&req) {
                Ok(best) => Reply::ok(&req.id, "optimize")
                    .str("instance", &best.instance)
                    .int("nodes", best.nodes as u64)
                    .int("slots", best.slots as u64)
                    .num("estimate_s", best.est_makespan_s)
                    .num("est_cost_dollars", best.est_cost_dollars)
                    .str("summary", &best.summary)
                    .finish(),
                Err(e) => Reply::err(&req.id, "optimize", e.code, &e.to_string(), None),
            },
            Action::Run => self.handle_run(req),
            Action::CheckStatus => self.handle_status(&req),
        }
    }

    fn handle_run(&self, req: Request) -> String {
        let job_id = format!(
            "job-{}",
            self.inner.next_job.fetch_add(1, Ordering::Relaxed)
        );
        {
            let mut jobs = self.inner.jobs.lock().unwrap();
            jobs.insert(
                job_id.clone(),
                JobRecord {
                    state: JobState::Queued,
                    tenant: req.tenant.clone(),
                    request_id: req.id.clone(),
                    fingerprint: None,
                    makespan_s: 0.0,
                    cost_dollars: 0.0,
                    summary: String::new(),
                    spans: 0,
                    error: String::new(),
                    error_code: ErrorCode::Internal,
                },
            );
        }
        let id = req.id.clone();
        let wait = req.wait;
        let priority = req.priority;
        let queued = QueuedRun {
            job_id: job_id.clone(),
            request: req,
        };
        if self.inner.queue.push(priority, queued).is_err() {
            self.inner.jobs.lock().unwrap().remove(&job_id);
            let retry = self.inner.retry_after_hint();
            return Reply::err(
                &id,
                "run",
                ErrorCode::QueueFull,
                &format!("run queue is at capacity ({})", self.inner.queue.depth()),
                Some(retry),
            );
        }
        if !wait {
            return Reply::ok(&id, "run")
                .str("job", &job_id)
                .str("state", JobState::Queued.as_str())
                .finish();
        }
        // Synchronous run: wait for the worker to finish this job. The
        // wait sits on the connection thread, so it holds no service
        // locks while the run executes.
        let mut jobs = self.inner.jobs.lock().unwrap();
        loop {
            match jobs.get(&job_id) {
                Some(rec) if rec.state == JobState::Done || rec.state == JobState::Failed => {
                    let rec = rec.clone();
                    drop(jobs);
                    return render_finished(&id, &job_id, &rec);
                }
                Some(_) => jobs = self.inner.jobs_cv.wait(jobs).unwrap(),
                None => {
                    drop(jobs);
                    return Reply::err(
                        &id,
                        "run",
                        ErrorCode::Internal,
                        "job record vanished mid-run",
                        None,
                    );
                }
            }
        }
    }

    fn handle_status(&self, req: &Request) -> String {
        let Some(job_id) = req.job.as_deref() else {
            return Reply::err(
                &req.id,
                "check-status",
                ErrorCode::BadRequest,
                "check-status needs 'job'",
                None,
            );
        };
        let jobs = self.inner.jobs.lock().unwrap();
        match jobs.get(job_id) {
            None => Reply::err(
                &req.id,
                "check-status",
                ErrorCode::UnknownJob,
                &format!("no job '{job_id}'"),
                None,
            ),
            Some(rec) => {
                let rec = rec.clone();
                drop(jobs);
                match rec.state {
                    JobState::Done | JobState::Failed => render_finished(&req.id, job_id, &rec),
                    state => Reply::ok(&req.id, "check-status")
                        .str("job", job_id)
                        .str("state", state.as_str())
                        .finish(),
                }
            }
        }
    }

    /// Jobs table snapshot (for tests and reporting).
    pub fn job(&self, job_id: &str) -> Option<JobRecord> {
        self.inner.jobs.lock().unwrap().get(job_id).cloned()
    }

    /// Graceful shutdown: stop admitting, drain every queued and
    /// in-flight run to completion, join the workers. Receipts for all
    /// admitted jobs remain in the table (verified by the shutdown-drain
    /// test) — no admitted run is ever dropped, and [`Service::job`] /
    /// `check-status` keep answering after the drain.
    pub fn shutdown(&mut self) {
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

impl Drop for Service {
    fn drop(&mut self) {
        // A dropped (not shut down) service still drains rather than
        // detaching threads.
        self.inner.draining.store(true, Ordering::SeqCst);
        self.inner.queue.close();
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
    }
}

fn render_finished(id: &str, job_id: &str, rec: &JobRecord) -> String {
    match rec.state {
        JobState::Done => Reply::ok(id, "run")
            .str("job", job_id)
            .str("state", "done")
            .str("fingerprint", rec.fingerprint.as_deref().unwrap_or(""))
            .num("makespan_s", rec.makespan_s)
            .num("cost_dollars", rec.cost_dollars)
            .int("spans", rec.spans)
            .str("summary", &rec.summary)
            .finish(),
        JobState::Failed => Reply::err(id, "run", rec.error_code, &rec.error, None),
        _ => unreachable!("render_finished called on unfinished job"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The `queue-full` backpressure hint must follow *observed* run wall
    /// times, not the configured nominal knob: a service whose runs take
    /// 10x `nominal_run_s` would otherwise tell rejected clients to retry
    /// 10x too soon, turning every rejection into an immediate second
    /// rejection.
    #[test]
    fn retry_after_tracks_observed_run_times() {
        let mut svc = Service::start(ServiceConfig {
            run_workers: 2,
            ..Default::default()
        });
        let nominal = svc.inner.config.nominal_run_s;
        // Full-pipeline factor: queue capacity over workers (`depth()` is
        // the configured capacity, the worst-case backlog a rejected
        // client waits behind).
        let pipeline = 1.0 + svc.inner.queue.depth() as f64 / 2.0;
        // Before any run completes, the hint falls back to the nominal
        // knob.
        assert!((svc.inner.retry_after_hint() - nominal * pipeline).abs() < 1e-12);

        // A slow synthetic run: 5 s of wall time against a 0.5 s knob.
        svc.inner.record_run_wall_s(5.0);
        let after_one = svc.inner.retry_after_hint();
        let expected = (1.0 - RUN_WALL_EWMA_ALPHA) * nominal + RUN_WALL_EWMA_ALPHA * 5.0;
        assert!(
            (after_one - expected * pipeline).abs() < 1e-12,
            "{after_one}"
        );
        assert!(
            after_one > 2.0 * nominal * pipeline,
            "hint must grow past the nominal-derived value: {after_one}"
        );

        // More slow runs push the EWMA toward the observed time, never
        // past it.
        svc.inner.record_run_wall_s(5.0);
        svc.inner.record_run_wall_s(5.0);
        let converged = svc.inner.retry_after_hint();
        assert!(converged > after_one, "monotone toward the observed time");
        assert!(
            converged < 5.0 * pipeline,
            "EWMA never overshoots its inputs"
        );

        // Fast runs pull it back down below the nominal seed.
        for _ in 0..24 {
            svc.inner.record_run_wall_s(0.01);
        }
        assert!(svc.inner.retry_after_hint() < nominal * pipeline);
        svc.shutdown();
    }

    /// A real completed run must feed the EWMA without any synthetic
    /// recording: in-process runs finish in well under a second, so the
    /// estimate drops below the 0.5 s nominal seed.
    #[test]
    fn completed_runs_feed_the_backpressure_estimate() {
        let mut svc = Service::start(ServiceConfig {
            run_workers: 1,
            threads: 1,
            ..Default::default()
        });
        let resp = svc.handle(
            r#"{"schema":"cumulon-serve-v1","id":"r1","tenant":"t","action":"run",
                "script":"G = A' * A;","inputs":["A=64x32"],"nodes":2,"wait":true}"#,
        );
        assert!(resp.contains("\"ok\":true"), "{resp}");
        let observed = *svc.inner.run_wall_ewma_s.lock().unwrap();
        assert!(
            observed != svc.inner.config.nominal_run_s,
            "a completed run must move the EWMA off its seed"
        );
        svc.shutdown();
    }
}
