//! The checker's structured result: every invariant evaluation (pass or
//! fail) plus a machine-readable JSON rendering built on the
//! `cumulon-trace` JSON emitter (the workspace vendors no `serde_json`).

use std::fmt::Write as _;

use cumulon_trace::json::escape;

/// One invariant evaluated against one configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckOutcome {
    /// Invariant identifier (stable, kebab-case — see DESIGN.md).
    pub invariant: &'static str,
    /// The configuration lattice point, e.g. `gram/t4/tiles/trace`.
    pub config: String,
    /// Whether the invariant held.
    pub passed: bool,
    /// Human-readable evidence: what was compared and what was seen.
    pub detail: String,
}

/// The full result of one `cumulon check` sweep.
#[derive(Debug, Clone, Default)]
pub struct CheckReport {
    /// Whether the sweep ran the reduced (`--quick`) lattice.
    pub quick: bool,
    /// Every invariant evaluation, in execution order.
    pub outcomes: Vec<CheckOutcome>,
}

impl CheckReport {
    /// Records a check result.
    pub(crate) fn record(
        &mut self,
        invariant: &'static str,
        config: impl Into<String>,
        passed: bool,
        detail: impl Into<String>,
    ) {
        self.outcomes.push(CheckOutcome {
            invariant,
            config: config.into(),
            passed,
            detail: detail.into(),
        });
    }

    /// The failed outcomes.
    pub fn violations(&self) -> Vec<&CheckOutcome> {
        self.outcomes.iter().filter(|o| !o.passed).collect()
    }

    /// True when every invariant held.
    pub fn passed(&self) -> bool {
        self.outcomes.iter().all(|o| o.passed)
    }

    /// Machine-readable JSON document (schema `cumulon-check-v1`):
    /// every outcome under `"checks"`, the failures repeated under
    /// `"violations"` so CI tooling can show just the broken ones.
    pub fn to_json(&self) -> String {
        let mut s = String::from("{\"schema\":\"cumulon-check-v1\",");
        let _ = write!(
            s,
            "\"quick\":{},\"passed\":{},\"checks\":[",
            self.quick,
            self.passed()
        );
        for (i, o) in self.outcomes.iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_outcome(&mut s, o);
        }
        s.push_str("],\"violations\":[");
        for (i, o) in self.violations().iter().enumerate() {
            if i > 0 {
                s.push(',');
            }
            push_outcome(&mut s, o);
        }
        s.push_str("]}");
        s
    }

    /// Human-readable summary: one line per invariant×config, violations
    /// expanded with their evidence.
    pub fn render(&self) -> String {
        let mut s = String::new();
        let total = self.outcomes.len();
        let failed = self.violations().len();
        for o in &self.outcomes {
            let mark = if o.passed { "ok  " } else { "FAIL" };
            let _ = writeln!(s, "{mark} {:<22} {}", o.invariant, o.config);
            if !o.passed {
                let _ = writeln!(s, "     {}", o.detail);
            }
        }
        if failed == 0 {
            let _ = write!(s, "cumulon check: {total} checks, all invariants hold");
        } else {
            let _ = write!(s, "cumulon check: {failed} of {total} checks VIOLATED");
        }
        s
    }
}

fn push_outcome(s: &mut String, o: &CheckOutcome) {
    let _ = write!(
        s,
        "{{\"invariant\":\"{}\",\"config\":\"{}\",\"passed\":{},\"detail\":\"{}\"}}",
        escape(o.invariant),
        escape(&o.config),
        o.passed,
        escape(&o.detail)
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use cumulon_trace::json::parse;

    fn sample() -> CheckReport {
        let mut r = CheckReport {
            quick: true,
            ..Default::default()
        };
        r.record("billing-identity", "gram/t1", true, "bitwise equal");
        r.record(
            "result-identity",
            "gram/t4/\"bytes\"",
            false,
            "fingerprint diverged\nat job mul#0",
        );
        r
    }

    #[test]
    fn pass_fail_accounting() {
        let r = sample();
        assert!(!r.passed());
        assert_eq!(r.violations().len(), 1);
        assert_eq!(r.violations()[0].invariant, "result-identity");
        let mut clean = CheckReport::default();
        clean.record("x", "c", true, "");
        assert!(clean.passed());
        assert!(clean.violations().is_empty());
    }

    #[test]
    fn json_is_parseable_and_complete() {
        let r = sample();
        let v = parse(&r.to_json()).expect("emitted JSON must parse");
        assert_eq!(v.get("schema").unwrap().as_str(), Some("cumulon-check-v1"));
        assert_eq!(v.get("quick").unwrap().as_bool(), Some(true));
        assert_eq!(v.get("passed").unwrap().as_bool(), Some(false));
        let checks = v.get("checks").unwrap().as_arr().unwrap();
        assert_eq!(checks.len(), 2);
        let violations = v.get("violations").unwrap().as_arr().unwrap();
        assert_eq!(violations.len(), 1);
        // Escaping round-trips the hostile config/detail strings.
        assert_eq!(
            violations[0].get("config").unwrap().as_str(),
            Some("gram/t4/\"bytes\"")
        );
        assert_eq!(
            violations[0].get("detail").unwrap().as_str(),
            Some("fingerprint diverged\nat job mul#0")
        );
    }

    #[test]
    fn render_flags_violations() {
        let r = sample();
        let text = r.render();
        assert!(text.contains("FAIL result-identity"), "{text}");
        assert!(text.contains("1 of 2 checks VIOLATED"), "{text}");
        let mut clean = CheckReport::default();
        clean.record("x", "c", true, "");
        assert!(clean.render().contains("all invariants hold"));
    }
}
