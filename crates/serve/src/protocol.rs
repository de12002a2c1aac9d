//! The `cumulon-serve-v1` wire protocol: newline-delimited JSON over TCP.
//!
//! One request per line, one response per line, in order. Requests and
//! responses are flat JSON objects; parsing reuses the dependency-free
//! [`cumulon_trace::json`] parser and emission is hand-ordered so a given
//! request always produces byte-identical response text (golden-file
//! tested). The full field tables live in README.md ("Protocol
//! reference").

use cumulon_lang::InputSpec;
use cumulon_trace::json::{escape, parse, JsonValue};

use crate::engine::RunSpec;

/// Schema tag carried by every request and response.
pub const SCHEMA: &str = "cumulon-serve-v1";

/// What a request asks the service to do.
///
/// `Plan` and `Optimize` are estimate-only — served synchronously on the
/// connection thread (the fast lane). `Run` executes the program and goes
/// through the admission-controlled job queue; `CheckStatus` polls an
/// asynchronous run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Action {
    /// Estimate makespan/cost of the script on a *given* cluster shape.
    Plan,
    /// Search deployments for the cheapest plan under a constraint.
    Optimize,
    /// Execute the script on the simulated cluster; returns the run's
    /// [`fingerprint`](cumulon_cluster::RunReport::fingerprint).
    Run,
    /// Poll the state of an asynchronous `run` job.
    CheckStatus,
}

impl Action {
    /// The wire name of the action.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            Action::Plan => "plan",
            Action::Optimize => "optimize",
            Action::Run => "run",
            Action::CheckStatus => "check-status",
        }
    }

    fn from_str(s: &str) -> Option<Action> {
        match s {
            "plan" => Some(Action::Plan),
            "optimize" => Some(Action::Optimize),
            "run" => Some(Action::Run),
            "check-status" => Some(Action::CheckStatus),
            _ => None,
        }
    }
}

/// Machine-readable error code in a failed response (`"error"` field).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ErrorCode {
    /// The request line was not valid `cumulon-serve-v1` JSON, or a field
    /// failed validation (bad script, bad input spec, unknown instance).
    BadRequest,
    /// The run queue is at capacity; retry after `retry_after_s`.
    QueueFull,
    /// The tenant's token bucket is empty; retry after `retry_after_s`.
    QuotaExhausted,
    /// `check-status` named a job id the service has no record of.
    UnknownJob,
    /// The service is draining for shutdown and admits no new work.
    ShuttingDown,
    /// The program itself failed to compile, provision or execute.
    Internal,
}

impl ErrorCode {
    /// The wire name of the code.
    pub(crate) fn as_str(self) -> &'static str {
        match self {
            ErrorCode::BadRequest => "bad-request",
            ErrorCode::QueueFull => "queue-full",
            ErrorCode::QuotaExhausted => "quota-exhausted",
            ErrorCode::UnknownJob => "unknown-job",
            ErrorCode::ShuttingDown => "shutting-down",
            ErrorCode::Internal => "internal",
        }
    }
}

/// A parsed, validated `cumulon-serve-v1` request.
///
/// ```
/// use cumulon_serve::protocol::{Action, Request};
/// let req = Request::parse(
///     r#"{"schema":"cumulon-serve-v1","id":"r1","tenant":"alice",
///         "action":"run","script":"G = A' * A;","inputs":["A=40x20:10"],
///         "instance":"m1.large","nodes":2}"#,
/// )
/// .unwrap();
/// assert_eq!(req.action, Action::Run);
/// assert_eq!(req.run.inputs[0].name, "A");
/// ```
#[derive(Clone, Debug)]
pub struct Request {
    /// Client-chosen request id, echoed in the response and threaded
    /// through the run's trace ([`cumulon_trace::Trace::set_request_id`]).
    pub id: String,
    /// Tenant the request bills against (quota + priority lane).
    pub tenant: String,
    /// What to do.
    pub action: Action,
    /// DSL source text (required for plan/optimize/run).
    pub script: String,
    /// What plan and run execute on: `inputs`, `instance` (default
    /// `m1.large`), `nodes` (default 4), `slots`, and for run `spot`,
    /// `bid`, `elastic` and `memory_budget`, with the same meaning as
    /// the `cumulon run` flags. Optimize reads only its inputs.
    pub run: RunSpec,
    /// Optimize: deadline constraint, seconds.
    pub deadline_s: Option<f64>,
    /// Optimize: budget constraint, dollars.
    pub budget_dollars: Option<f64>,
    /// Optimize: largest cluster to consider (default 64).
    pub max_nodes: u32,
    /// Priority lane, 0-255 (higher preempts lower in the run queue and
    /// on the shared speculation pool).
    pub priority: u8,
    /// Run: block until the run completes (default). `false` returns a
    /// job id immediately; poll it with `check-status`.
    pub wait: bool,
    /// CheckStatus: the job id to poll.
    pub job: Option<String>,
}

fn str_field(v: &JsonValue, key: &str) -> Option<String> {
    v.get(key).and_then(|x| x.as_str()).map(str::to_string)
}

fn num_field(v: &JsonValue, key: &str) -> Option<f64> {
    v.get(key).and_then(|x| x.as_f64())
}

impl Request {
    /// Parses and validates one request line. Errors are human-readable
    /// messages the service wraps in a `bad-request` response.
    pub fn parse(line: &str) -> Result<Request, String> {
        let v = parse(line).map_err(|e| format!("malformed JSON: {e}"))?;
        match str_field(&v, "schema") {
            Some(s) if s == SCHEMA => {}
            Some(s) => return Err(format!("unsupported schema '{s}' (want {SCHEMA})")),
            None => return Err(format!("missing 'schema' (want {SCHEMA})")),
        }
        let id = str_field(&v, "id").ok_or("missing 'id'")?;
        let tenant = str_field(&v, "tenant").ok_or("missing 'tenant'")?;
        let action_name = str_field(&v, "action").ok_or("missing 'action'")?;
        let action = Action::from_str(&action_name)
            .ok_or_else(|| format!("unknown action '{action_name}'"))?;
        let script = str_field(&v, "script").unwrap_or_default();
        let mut inputs = Vec::new();
        if let Some(arr) = v.get("inputs").and_then(|x| x.as_arr()) {
            for item in arr {
                let spec = item.as_str().ok_or("'inputs' entries must be strings")?;
                inputs.push(InputSpec::parse(spec).map_err(|e| e.to_string())?);
            }
        }
        if action != Action::CheckStatus {
            if script.is_empty() {
                return Err(format!("action '{action_name}' needs 'script'"));
            }
            if inputs.is_empty() {
                return Err(format!("action '{action_name}' needs 'inputs'"));
            }
        }
        let uint = |key: &str, default: f64| -> Result<f64, String> {
            match num_field(&v, key) {
                None => Ok(default),
                Some(n) if n.is_finite() && n >= 0.0 && n.fract() == 0.0 => Ok(n),
                Some(n) => Err(format!("'{key}' must be a non-negative integer, got {n}")),
            }
        };
        let nodes = uint("nodes", 4.0)? as u32;
        let slots = uint("slots", 0.0)? as u32;
        let max_nodes = uint("max_nodes", 64.0)? as u32;
        let priority = uint("priority", 0.0)?;
        if priority > 255.0 {
            return Err("'priority' must be 0-255".into());
        }
        let flag = |key: &str| v.get(key).and_then(|x| x.as_bool()).unwrap_or(false);
        let mut run = RunSpec {
            inputs,
            nodes,
            slots,
            spot: flag("spot"),
            bid: num_field(&v, "bid"),
            elastic: flag("elastic"),
            memory_budget: uint("memory_budget", 0.0)? as u64,
            ..RunSpec::default()
        };
        if let Some(instance) = str_field(&v, "instance") {
            run.instance = instance;
        }
        run.validate().map_err(|e| e.to_string())?;
        let deadline_s = num_field(&v, "deadline_s");
        let budget_dollars = num_field(&v, "budget_dollars");
        if deadline_s.is_some() && budget_dollars.is_some() {
            return Err("pick one of 'deadline_s' and 'budget_dollars'".into());
        }
        Ok(Request {
            id,
            tenant,
            action,
            script,
            run,
            deadline_s,
            budget_dollars,
            max_nodes,
            priority: priority as u8,
            wait: v.get("wait").and_then(|x| x.as_bool()).unwrap_or(true),
            job: str_field(&v, "job"),
        })
    }
}

/// An ordered JSON object writer for responses: fields are emitted in
/// insertion order, so a given logical response always serializes to the
/// same bytes.
///
/// ```
/// use cumulon_serve::protocol::Reply;
/// let line = Reply::ok("r1", "plan").num("estimate_s", 12.5).finish();
/// assert!(line.starts_with(r#"{"schema":"cumulon-serve-v1","id":"r1","ok":true"#));
/// assert!(line.ends_with('\n'));
/// ```
#[derive(Debug)]
pub struct Reply {
    buf: String,
}

impl Reply {
    fn new(id: &str, ok: bool, action: &str) -> Reply {
        Reply {
            buf: format!(
                "{{\"schema\":\"{SCHEMA}\",\"id\":\"{}\",\"ok\":{ok},\"action\":\"{}\"",
                escape(id),
                escape(action)
            ),
        }
    }

    /// Starts a success response for request `id`.
    pub fn ok(id: &str, action: &str) -> Reply {
        Reply::new(id, true, action)
    }

    /// Builds a complete error response line.
    pub(crate) fn err(
        id: &str,
        action: &str,
        code: ErrorCode,
        message: &str,
        retry_after_s: Option<f64>,
    ) -> String {
        let mut r = Reply::new(id, false, action)
            .str("error", code.as_str())
            .str("message", message);
        if let Some(s) = retry_after_s {
            r = r.num("retry_after_s", s);
        }
        r.finish()
    }

    /// Appends a string field.
    pub(crate) fn str(mut self, key: &str, value: &str) -> Reply {
        self.buf
            .push_str(&format!(",\"{}\":\"{}\"", escape(key), escape(value)));
        self
    }

    /// Appends a numeric field (non-finite values become 0, which no
    /// valid run produces).
    pub fn num(mut self, key: &str, value: f64) -> Reply {
        let value = if value.is_finite() { value } else { 0.0 };
        self.buf.push_str(&format!(",\"{}\":{value}", escape(key)));
        self
    }

    /// Appends an integer field.
    pub(crate) fn int(mut self, key: &str, value: u64) -> Reply {
        self.buf.push_str(&format!(",\"{}\":{value}", escape(key)));
        self
    }

    /// Closes the object and appends the protocol's line terminator.
    pub fn finish(mut self) -> String {
        self.buf.push_str("}\n");
        self.buf
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_run_request() {
        let req = Request::parse(
            r#"{"schema":"cumulon-serve-v1","id":"r1","tenant":"t","action":"run",
                "script":"G = A' * A;","inputs":["A=40x20:10"]}"#,
        )
        .unwrap();
        assert_eq!(req.action, Action::Run);
        assert_eq!(req.run.instance, "m1.large");
        assert_eq!(req.run.nodes, 4);
        assert!(req.wait);
        assert_eq!(req.priority, 0);
    }

    #[test]
    fn rejects_bad_requests() {
        for (line, needle) in [
            ("{", "malformed"),
            (r#"{"id":"x"}"#, "schema"),
            (
                r#"{"schema":"cumulon-serve-v0","id":"x","tenant":"t","action":"run"}"#,
                "unsupported schema",
            ),
            (
                r#"{"schema":"cumulon-serve-v1","tenant":"t","action":"run"}"#,
                "missing 'id'",
            ),
            (
                r#"{"schema":"cumulon-serve-v1","id":"x","tenant":"t","action":"frob"}"#,
                "unknown action",
            ),
            (
                r#"{"schema":"cumulon-serve-v1","id":"x","tenant":"t","action":"run"}"#,
                "'script'",
            ),
            (
                r#"{"schema":"cumulon-serve-v1","id":"x","tenant":"t","action":"run",
                    "script":"G=A;","inputs":["A=0x1"]}"#,
                "positive",
            ),
            (
                r#"{"schema":"cumulon-serve-v1","id":"x","tenant":"t","action":"run",
                    "script":"G=A;","inputs":["A=1x1"],"priority":900}"#,
                "0-255",
            ),
            (
                r#"{"schema":"cumulon-serve-v1","id":"x","tenant":"t","action":"optimize",
                    "script":"G=A;","inputs":["A=1x1"],"deadline_s":60,"budget_dollars":5}"#,
                "pick one",
            ),
            (
                r#"{"schema":"cumulon-serve-v1","id":"x","tenant":"t","action":"run",
                    "script":"G=A;","inputs":["A=1x1"],"nodes":0}"#,
                "nodes must be positive",
            ),
            (
                r#"{"schema":"cumulon-serve-v1","id":"x","tenant":"t","action":"run",
                    "script":"G=A;","inputs":["A=1x1"],"spot":true,"bid":-0.2}"#,
                "bid must be a positive fraction",
            ),
            (
                r#"{"schema":"cumulon-serve-v1","id":"x","tenant":"t","action":"run",
                    "script":"G=A;","inputs":["A=1x1"],"bid":0.4}"#,
                "bid requires spot",
            ),
        ] {
            let err = Request::parse(line).unwrap_err();
            assert!(err.contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn reply_is_deterministic_and_parseable() {
        let line = Reply::ok("r1", "run")
            .str("job", "job-1")
            .str("fingerprint", "mk0\nline2")
            .num("makespan_s", 1.5)
            .int("spans", 7)
            .finish();
        assert!(line.ends_with('\n'));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(
            v.get("fingerprint").unwrap().as_str(),
            Some("mk0\nline2"),
            "newlines survive the round trip"
        );
        assert_eq!(v.get("spans").unwrap().as_f64(), Some(7.0));
    }

    #[test]
    fn error_reply_carries_code_and_retry() {
        let line = Reply::err("r9", "run", ErrorCode::QueueFull, "queue at 8/8", Some(2.5));
        let v = parse(&line).unwrap();
        assert_eq!(v.get("ok").unwrap().as_bool(), Some(false));
        assert_eq!(v.get("error").unwrap().as_str(), Some("queue-full"));
        assert_eq!(v.get("retry_after_s").unwrap().as_f64(), Some(2.5));
    }
}
