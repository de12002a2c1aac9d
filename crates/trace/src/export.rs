//! Chrome/Perfetto `trace_event` JSON export.
//!
//! Emits the *object* form of the Trace Event Format — an object with a
//! `traceEvents` array plus extra top-level keys, which Perfetto and
//! `chrome://tracing` both accept and ignore. Each (node, slot) pair maps
//! to a (pid, tid): nodes become processes, slots become threads, so the
//! timeline renders one swimlane per slot. Everything is hand-emitted
//! (the workspace vendors no JSON serializer); the companion [`crate::json`]
//! parser validates the output in tests.

use std::fmt::Write as _;

use crate::json::escape;
use crate::{PhaseBreakdown, TraceEvent, TraceLog};

/// Formats an `f64` as a JSON number (non-finite values become `0`,
/// which the simulator never produces in a valid run).
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// Simulated seconds → integer-friendly microseconds for `ts`/`dur`.
fn us(s: f64) -> String {
    num(s * 1e6)
}

fn phase_args(out: &mut String, p: &PhaseBreakdown) {
    let _ = write!(
        out,
        "\"compute_s\":{},\"read_s\":{},\"write_s\":{},\"startup_s\":{},\"overhead_s\":{}",
        num(p.compute_s),
        num(p.read_s),
        num(p.write_s),
        num(p.startup_s),
        num(p.overhead_s)
    );
}

impl TraceLog {
    /// Renders the log as Chrome `trace_event` JSON (object form).
    ///
    /// Layout (schema version `crate::TRACE_SCHEMA_VERSION`):
    ///
    /// * `schema_version` — integer version stamp;
    /// * `cumulon` — run metadata: `instance`, `nodes`, `slots`,
    ///   `makespan_s`, an optional
    ///   `request_id` (present only for `cumulon serve` runs, see
    ///   [`crate::Trace::set_request_id`]), an optional
    ///   `spill_readback_avoided_bytes` (present only when scheduler
    ///   prefetch avoided readbacks, see
    ///   [`crate::Trace::spill_readback_avoided`]), and the aggregated
    ///   `phases` object
    ///   (`compute_s`/`read_s`/`write_s`/`startup_s`/`overhead_s`);
    /// * `traceEvents` — `"M"` process/thread-name metadata, one `"X"`
    ///   complete event per task attempt (`pid` = node, `tid` = slot,
    ///   `ts`/`dur` in simulated microseconds, span details under
    ///   `args`), and `"i"` instant events for node failures,
    ///   speculative wins and recovery rounds.
    pub fn to_chrome_json(&self) -> String {
        let mut out = String::with_capacity(4096 + self.tasks.len() * 256);
        let _ = write!(
            out,
            "{{\"schema_version\":{},\"cumulon\":{{\"instance\":\"{}\",\"nodes\":{},\
             \"slots\":{},\"makespan_s\":{},",
            self.schema_version,
            escape(&self.instance),
            self.nodes,
            self.slots,
            num(self.makespan_s),
        );
        // Emitted only when set so standalone (non-service) traces stay
        // byte-identical to pre-service golden files.
        if let Some(rid) = &self.request_id {
            let _ = write!(out, "\"request_id\":\"{}\",", escape(rid));
        }
        // Emitted only when nonzero so runs without prefetch stay
        // byte-identical to earlier golden files.
        if self.spill_readback_avoided_bytes > 0 {
            let _ = write!(
                out,
                "\"spill_readback_avoided_bytes\":{},",
                self.spill_readback_avoided_bytes
            );
        }
        out.push_str("\"phases\":{");
        phase_args(&mut out, &self.phase_totals());
        out.push_str("}},\"traceEvents\":[");
        let mut first = true;
        let mut push = |out: &mut String| {
            if first {
                first = false;
            } else {
                out.push(',');
            }
        };
        for node in 0..self.nodes {
            push(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":{node},\
                 \"args\":{{\"name\":\"node{node}\"}}}}"
            );
            for slot in 0..self.slots {
                push(&mut out);
                let _ = write!(
                    out,
                    "{{\"name\":\"thread_name\",\"ph\":\"M\",\"pid\":{node},\
                     \"tid\":{slot},\"args\":{{\"name\":\"slot{slot}\"}}}}"
                );
            }
        }
        for t in &self.tasks {
            push(&mut out);
            let job_name = self.job_name(t.job, t.round).unwrap_or("job");
            let _ = write!(
                out,
                "{{\"name\":\"{}/t{}#{}\",\"cat\":\"task\",\"ph\":\"X\",\
                 \"pid\":{},\"tid\":{},\"ts\":{},\"dur\":{},\"args\":{{\
                 \"job\":{},\"task\":{},\"attempt\":{},\"ok\":{},\"backup\":{},\
                 \"killed\":{},\"wave\":{},\"round\":{},\"read_bytes\":{},\
                 \"read_local_bytes\":{},\"write_bytes\":{},\"io_ops\":{},",
                escape(job_name),
                t.task,
                t.attempt,
                t.node,
                t.slot,
                us(t.start_s),
                us(t.duration_s()),
                t.job,
                t.task,
                t.attempt,
                t.ok,
                t.backup,
                t.killed,
                t.wave,
                t.round,
                t.read_bytes,
                t.read_local_bytes,
                t.write_bytes,
                t.io_ops,
            );
            phase_args(&mut out, &t.phases);
            out.push_str("}}");
        }
        for j in &self.jobs {
            push(&mut out);
            let _ = write!(
                out,
                "{{\"name\":\"{}\",\"cat\":\"job\",\"ph\":\"X\",\"pid\":{},\
                 \"tid\":0,\"ts\":{},\"dur\":{},\"args\":{{\"job\":{},\
                 \"op\":\"{}\",\"round\":{}}}}}",
                escape(&j.name),
                self.nodes.max(1),
                us(j.start_s),
                us(j.end_s - j.start_s),
                j.index,
                escape(&j.op_label),
                j.round,
            );
        }
        for e in &self.events {
            push(&mut out);
            match e {
                TraceEvent::NodeFailure {
                    t_s,
                    node,
                    rereplicated_bytes,
                } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"node_failure\",\"cat\":\"fault\",\"ph\":\"i\",\
                         \"s\":\"g\",\"pid\":{node},\"tid\":0,\"ts\":{},\"args\":{{\
                         \"node\":{node},\"rereplicated_bytes\":{rereplicated_bytes}}}}}",
                        us(*t_s),
                    );
                }
                TraceEvent::SpeculativeWin { t_s, job, task } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"speculative_win\",\"cat\":\"spec\",\"ph\":\"i\",\
                         \"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{},\"args\":{{\
                         \"job\":{job},\"task\":{task}}}}}",
                        us(*t_s),
                    );
                }
                TraceEvent::RecoveryRound {
                    t_s,
                    round,
                    lost_blocks,
                } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"recovery_round\",\"cat\":\"recovery\",\"ph\":\"i\",\
                         \"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{},\"args\":{{\
                         \"round\":{round},\"lost_blocks\":{lost_blocks}}}}}",
                        us(*t_s),
                    );
                }
                TraceEvent::RevocationWarning {
                    t_s,
                    nodes,
                    drained_bytes,
                } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"revocation_warning\",\"cat\":\"fault\",\"ph\":\"i\",\
                         \"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{},\"args\":{{\
                         \"nodes\":{},\"drained_bytes\":{drained_bytes}}}}}",
                        us(*t_s),
                        nodes.len(),
                    );
                }
                TraceEvent::Revocation {
                    t_s,
                    nodes,
                    rereplicated_bytes,
                } => {
                    let _ = write!(
                        out,
                        "{{\"name\":\"revocation\",\"cat\":\"fault\",\"ph\":\"i\",\
                         \"s\":\"g\",\"pid\":0,\"tid\":0,\"ts\":{},\"args\":{{\
                         \"nodes\":{},\"rereplicated_bytes\":{rereplicated_bytes}}}}}",
                        us(*t_s),
                        nodes.len(),
                    );
                }
            }
        }
        out.push_str("]}");
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::parse;
    use crate::{sample_span, JobSpan, Trace};

    fn sample_log() -> TraceLog {
        let t = Trace::enabled();
        t.set_run_meta("m1.large", 2, 2);
        t.record_task(sample_span(0, 0, 0.0, 3.0));
        let mut backup = sample_span(0, 1, 1.0, 2.0);
        backup.backup = true;
        backup.node = 1;
        backup.slot = 1;
        t.record_task(backup);
        t.record_job(JobSpan {
            index: 0,
            name: "mul \"C\"".into(),
            op_label: "MUL".into(),
            start_s: 0.0,
            end_s: 3.0,
            round: 0,
        });
        t.record_event(TraceEvent::NodeFailure {
            t_s: 2.5,
            node: 1,
            rereplicated_bytes: 4096,
        });
        t.record_event(TraceEvent::SpeculativeWin {
            t_s: 2.0,
            job: 0,
            task: 1,
        });
        t.record_event(TraceEvent::RecoveryRound {
            t_s: 3.0,
            round: 1,
            lost_blocks: 1,
        });
        t.set_makespan(3.0);
        t.snapshot().unwrap()
    }

    #[test]
    fn chrome_json_parses_and_carries_schema() {
        let log = sample_log();
        let doc = parse(&log.to_chrome_json()).expect("valid JSON");
        assert_eq!(
            doc.get("schema_version").unwrap().as_f64(),
            Some(crate::TRACE_SCHEMA_VERSION as f64)
        );
        let meta = doc.get("cumulon").unwrap();
        assert_eq!(meta.get("instance").unwrap().as_str(), Some("m1.large"));
        assert_eq!(meta.get("makespan_s").unwrap().as_f64(), Some(3.0));
        assert!(meta.get("phases").unwrap().get("compute_s").is_some());
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        // 2 nodes x (1 process_name + 2 thread_name) + 2 tasks + 1 job + 3 instants.
        assert_eq!(events.len(), 6 + 2 + 1 + 3);
        let x: Vec<_> = events
            .iter()
            .filter(|e| e.get("ph").and_then(|p| p.as_str()) == Some("X"))
            .collect();
        assert_eq!(x.len(), 3);
        let task0 = x
            .iter()
            .find(|e| e.get("cat").and_then(|c| c.as_str()) == Some("task"))
            .unwrap();
        assert_eq!(task0.get("ts").unwrap().as_f64(), Some(0.0));
        assert_eq!(task0.get("dur").unwrap().as_f64(), Some(3e6));
        let args = task0.get("args").unwrap();
        assert_eq!(args.get("ok").unwrap().as_bool(), Some(true));
        assert_eq!(args.get("read_bytes").unwrap().as_f64(), Some(1024.0));
    }

    #[test]
    fn quotes_in_job_names_are_escaped() {
        let log = sample_log();
        let doc = parse(&log.to_chrome_json()).unwrap();
        let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
        assert!(events
            .iter()
            .any(|e| e.get("name").and_then(|n| n.as_str()) == Some("mul \"C\"")));
    }

    #[test]
    fn request_id_exported_only_when_set() {
        let plain = sample_log();
        let doc = parse(&plain.to_chrome_json()).unwrap();
        assert!(doc.get("cumulon").unwrap().get("request_id").is_none());
        assert!(!plain.to_chrome_json().contains("request_id"));

        let t = Trace::enabled();
        t.set_run_meta("m1.large", 1, 1);
        t.set_request_id("req-42");
        let tagged = t.snapshot().unwrap();
        let doc = parse(&tagged.to_chrome_json()).unwrap();
        assert_eq!(
            doc.get("cumulon")
                .unwrap()
                .get("request_id")
                .and_then(|v| v.as_str()),
            Some("req-42")
        );
    }

    #[test]
    fn empty_log_is_still_valid_json() {
        let log = Trace::enabled().snapshot().unwrap();
        let doc = parse(&log.to_chrome_json()).expect("valid JSON");
        assert_eq!(
            doc.get("traceEvents").unwrap().as_arr().map(<[_]>::len),
            Some(0)
        );
    }
}
