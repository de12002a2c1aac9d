//! Golden-file test for the exported trace JSON: a fixed traced run must
//! emit *byte-identical* Chrome `trace_event` JSON at any worker thread
//! count (the run is fully deterministic, and `f64` formatting is the
//! platform-independent shortest round-trip form), and the document must
//! satisfy the schema contracted in `DESIGN.md` ("Observability") and
//! [`cumulon::trace::TraceLog::to_chrome_json`].
//!
//! Regenerate the golden after an intentional schema change with:
//!
//! ```sh
//! BLESS_TRACE_GOLDEN=1 cargo test -p cumulon --test trace_golden
//! ```

use std::collections::BTreeMap;

use cumulon::cluster::instances::catalog;
use cumulon::cluster::{Cluster, ClusterSpec, ExecMode, FailurePlan, SchedulerConfig, Trace};
use cumulon::core::calibrate::{CostModel, OpCoefficients};
use cumulon::core::{InputDesc, Optimizer, ProgramBuilder, RecoveryConfig};
use cumulon::dfs::DfsConfig;
use cumulon::matrix::gen::Generator;
use cumulon::matrix::MatrixMeta;
use cumulon::trace::json::{parse, JsonValue};

/// One fixed traced run: H = AᵀA + AᵀA (a fused gram job feeding an
/// element-wise add, so the trace carries at least two job spans) on
/// m1.large x2, Real mode, `threads` worker threads.
fn traced_run_json(threads: usize) -> String {
    let meta = MatrixMeta::new(64, 32, 8);
    let cluster = Cluster::provision_with(
        ClusterSpec::named("m1.large", 2, 2).unwrap(),
        Default::default(),
        DfsConfig::default(),
    )
    .unwrap();
    cluster
        .store()
        .register_generated("A", meta, Generator::DenseGaussian { seed: 5 })
        .unwrap();
    let mut b = ProgramBuilder::new();
    let a = b.input("A");
    let at = b.transpose(a);
    let g = b.mul(at, a);
    let h = b.add(g, g);
    b.output("H", h);
    let program = b.build();
    let mut inputs = BTreeMap::new();
    inputs.insert(
        "A".to_string(),
        InputDesc {
            meta,
            density: 1.0,
            sparse: false,
            generated: true,
        },
    );
    let mut model = CostModel::default();
    for i in catalog() {
        model.insert(i.name, OpCoefficients::idealized(i, 2.0, 0.85));
    }
    let trace = Trace::enabled();
    Optimizer::new(model)
        .execute_on_traced(
            &cluster,
            &program,
            &inputs,
            "golden",
            ExecMode::Real,
            SchedulerConfig::default().with_threads(threads),
            &FailurePlan::default(),
            RecoveryConfig::default(),
            &trace,
        )
        .unwrap();
    trace.snapshot().unwrap().to_chrome_json()
}

fn f64_of(v: &JsonValue, key: &str) -> f64 {
    v.get(key)
        .and_then(JsonValue::as_f64)
        .unwrap_or_else(|| panic!("missing number '{key}' in {v:?}"))
}

const GOLDEN: &str = include_str!("golden/trace_small.json");

#[test]
fn trace_json_matches_golden_and_schema() {
    let json = traced_run_json(1);
    if std::env::var_os("BLESS_TRACE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/trace_small.json"
        );
        std::fs::write(path, &json).expect("bless golden");
    }
    assert_eq!(
        json, GOLDEN,
        "trace JSON diverged from the golden file; if the schema change is \
         intentional, bump TRACE_SCHEMA_VERSION, update DESIGN.md, and run \
         BLESS_TRACE_GOLDEN=1 cargo test -p cumulon --test trace_golden"
    );

    // Schema validation, independent of the byte comparison: every field
    // documented in DESIGN.md must be present and well-typed.
    let doc = parse(&json).expect("exported trace is valid JSON");
    assert_eq!(f64_of(&doc, "schema_version"), 3.0);
    let meta = doc.get("cumulon").expect("cumulon metadata object");
    assert_eq!(meta.get("instance").unwrap().as_str(), Some("m1.large"));
    assert_eq!(f64_of(meta, "nodes"), 2.0);
    assert_eq!(f64_of(meta, "slots"), 2.0);
    let makespan_us = f64_of(meta, "makespan_s") * 1e6;
    assert!(makespan_us > 0.0);
    let phases = meta.get("phases").expect("aggregated phases object");
    for key in ["compute_s", "read_s", "write_s", "startup_s", "overhead_s"] {
        assert!(f64_of(phases, key) >= 0.0, "phase {key} must be >= 0");
    }

    let events = doc.get("traceEvents").unwrap().as_arr().unwrap();
    assert!(!events.is_empty());
    let (mut tasks, mut jobs) = (0usize, 0usize);
    for e in events {
        let ph = e.get("ph").and_then(JsonValue::as_str).expect("ph");
        assert!(matches!(ph, "M" | "X" | "i"), "unknown phase type {ph}");
        assert!(e.get("name").and_then(JsonValue::as_str).is_some());
        assert!(f64_of(e, "pid") >= 0.0);
        if ph == "X" {
            let ts = f64_of(e, "ts");
            let dur = f64_of(e, "dur");
            assert!(ts >= 0.0 && dur >= 0.0);
            assert!(
                ts + dur <= makespan_us * (1.0 + 1e-9),
                "span ends after the makespan"
            );
            let args = e.get("args").expect("X events carry args");
            match e.get("cat").and_then(JsonValue::as_str) {
                Some("task") => {
                    tasks += 1;
                    for key in [
                        "job",
                        "task",
                        "attempt",
                        "wave",
                        "round",
                        "read_bytes",
                        "read_local_bytes",
                        "write_bytes",
                        "io_ops",
                        "compute_s",
                        "read_s",
                        "write_s",
                        "startup_s",
                        "overhead_s",
                    ] {
                        assert!(f64_of(args, key) >= 0.0, "task arg {key}");
                    }
                    for key in ["ok", "backup", "killed"] {
                        assert!(args.get(key).and_then(JsonValue::as_bool).is_some());
                    }
                }
                Some("job") => {
                    jobs += 1;
                    assert!(f64_of(args, "job") >= 0.0);
                    assert!(args.get("op").and_then(JsonValue::as_str).is_some());
                }
                cat => panic!("X event with unexpected cat {cat:?}"),
            }
        }
    }
    // The plan lowers to at least the fused gram job plus the add job.
    assert!(jobs >= 2, "expected >= 2 job spans, got {jobs}");
    assert!(tasks >= jobs, "expected >= 1 task span per job");
}

/// Speculative workers run tasks ahead of simulated time, but nothing they
/// do reaches the export: the golden holds at every thread count.
#[test]
fn trace_json_is_identical_at_any_thread_count() {
    for threads in [2, 4] {
        assert_eq!(
            traced_run_json(threads),
            GOLDEN,
            "trace JSON at {threads} threads diverged from the golden file"
        );
    }
}
