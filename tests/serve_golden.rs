//! Golden-file test for the `cumulon-serve-v1` wire protocol: a fixed,
//! in-process client session (plan, optimize, a synchronous run, a status
//! poll, and two canonical rejections) must produce a *byte-identical*
//! transcript. Runs are fully deterministic — the run response embeds the
//! report fingerprint, makespan and cost, and `f64` formatting is the
//! platform-independent shortest round-trip form — so the golden pins the
//! response schema documented in README.md ("Protocol reference") and
//! DESIGN.md ("Service layer").
//!
//! `run_paths_match_golden` pins the run pipeline's output the same way,
//! through `cumulon run`/`trace`/`plan` and the service's `run`, in
//! `tests/golden/run_paths.txt`.
//!
//! Regenerate both after an intentional change with:
//!
//! ```sh
//! BLESS_SERVE_GOLDEN=1 cargo test -p cumulon --test serve_golden
//! ```

use cumulon::serve::quota::QuotaConfig;
use cumulon::serve::{Service, ServiceConfig, SCHEMA};
use cumulon::trace::json::parse;

/// The scripted session: every request the README's protocol reference
/// documents, in one pipelined exchange.
const SESSION: &[&str] = &[
    // Estimate on a given cluster shape (fast lane).
    r#"{"schema":"cumulon-serve-v1","id":"r1","tenant":"alice","action":"plan","script":"G = A' * A;","inputs":["A=2000x1000:200"],"instance":"m1.large","nodes":4,"slots":2}"#,
    // Deployment search under a deadline (fast lane).
    r#"{"schema":"cumulon-serve-v1","id":"r2","tenant":"alice","action":"optimize","script":"G = A' * A;","inputs":["A=2000x1000:200"],"deadline_s":7200,"max_nodes":8}"#,
    // Synchronous run: response carries the audit fingerprint.
    r#"{"schema":"cumulon-serve-v1","id":"r3","tenant":"bob","action":"run","script":"G = A' * A;","inputs":["A=40x20:10"],"instance":"m1.large","nodes":2,"slots":2}"#,
    // Poll the finished job by id.
    r#"{"schema":"cumulon-serve-v1","id":"r4","tenant":"bob","action":"check-status","job":"job-1"}"#,
    // Canonical rejections: schema violation and an unknown job.
    r#"{"schema":"cumulon-serve-v1","id":"r5","tenant":"mallory","action":"frobnicate"}"#,
    r#"{"schema":"cumulon-serve-v1","id":"r6","tenant":"bob","action":"check-status","job":"job-99"}"#,
];

fn session_transcript() -> String {
    let mut svc = Service::start(ServiceConfig {
        run_workers: 1,
        threads: 1,
        quota: QuotaConfig {
            capacity: 1e6,
            refill_per_s: 1e3,
            ..QuotaConfig::default()
        },
        ..Default::default()
    });
    let mut transcript = String::new();
    for request in SESSION {
        transcript.push_str("C: ");
        transcript.push_str(request);
        transcript.push('\n');
        transcript.push_str("S: ");
        transcript.push_str(&svc.handle(request));
    }
    svc.shutdown();
    transcript
}

#[test]
fn serve_session_matches_golden_and_schema() {
    let transcript = session_transcript();
    if std::env::var_os("BLESS_SERVE_GOLDEN").is_some() {
        let path = concat!(
            env!("CARGO_MANIFEST_DIR"),
            "/../../tests/golden/serve_session.txt"
        );
        std::fs::write(path, &transcript).expect("bless golden");
    }
    let golden = include_str!("golden/serve_session.txt");
    assert_eq!(
        transcript, golden,
        "serve transcript diverged from the golden file; if the protocol \
         change is intentional, update README.md's protocol reference and \
         DESIGN.md, and run BLESS_SERVE_GOLDEN=1 cargo test -p cumulon \
         --test serve_golden"
    );

    // Schema validation, independent of the byte comparison: every
    // response is one line of valid JSON carrying the documented
    // envelope fields.
    for pair in transcript.split("C: ").skip(1) {
        let response = pair
            .split("S: ")
            .nth(1)
            .expect("every request has a response")
            .trim_end();
        assert!(!response.contains('\n'), "one response per line");
        let v = parse(response).expect("response is valid JSON");
        assert_eq!(v.get("schema").and_then(|x| x.as_str()), Some(SCHEMA));
        assert!(v.get("id").and_then(|x| x.as_str()).is_some());
        assert!(v.get("action").and_then(|x| x.as_str()).is_some());
        match v.get("ok").and_then(|x| x.as_bool()) {
            Some(true) => {}
            Some(false) => {
                let code = v
                    .get("error")
                    .and_then(|x| x.as_str())
                    .expect("failed responses carry an error code");
                assert!(
                    [
                        "bad-request",
                        "queue-full",
                        "quota-exhausted",
                        "unknown-job",
                        "shutting-down",
                        "internal"
                    ]
                    .contains(&code),
                    "undocumented error code {code}"
                );
                assert!(v.get("message").and_then(|x| x.as_str()).is_some());
            }
            None => panic!("response without 'ok': {response}"),
        }
    }

    // The run response and the status poll agree on the fingerprint —
    // the audit receipt outlives the synchronous reply.
    let lines: Vec<&str> = transcript.lines().collect();
    let fp_of = |line: &str| {
        parse(line.trim_start_matches("S: ")).ok().and_then(|v| {
            v.get("fingerprint")
                .and_then(|x| x.as_str())
                .map(String::from)
        })
    };
    let run_fp = fp_of(lines[5]).expect("run response carries a fingerprint");
    let poll_fp = fp_of(lines[7]).expect("status poll carries a fingerprint");
    assert_eq!(run_fp, poll_fp);
    assert!(
        run_fp.starts_with("mk"),
        "fingerprint is the canonical form"
    );
}

/// Every way a run leaves the pipeline, pinned byte for byte: `cumulon
/// run` in each of its modes, `cumulon trace`, `cumulon plan`, and the
/// service's `run` with the spot, elastic and memory-budget fields the
/// session above does not exercise. The CLI and the service reach the
/// same run pipeline, so a change to it shows up here on both sides.
const CLI_RUNS: &[&str] = &[
    "run chain.cm --input A=4000x2000:200 --instance m1.large --nodes 4 --slots 2 --threads 1",
    "run chain.cm --input A=120x60:20 --instance m1.large --nodes 2 --slots 2 --threads 1 --real",
    "run chain.cm --input A=4000x2000:200 --instance m1.large --nodes 4 --slots 2 --threads 1 \
     --spot --bid 0.4",
    "run chain.cm --input A=4000x2000:200 --instance m1.large --nodes 4 --slots 2 --threads 1 \
     --spot --bid 0.4 --elastic",
    "run chain.cm --input A=120x60:20 --instance m1.large --nodes 2 --slots 2 --threads 1 \
     --real --memory-budget 8192 --prefetch-depth 2",
    "trace chain.cm --input A=120x60:20 --instance m1.large --nodes 2 --slots 2 --threads 1 --real",
    "plan mul.cm --input A=8000x8000 --input B=8000x8000 --deadline 120 --max-nodes 8",
    "plan mul.cm --input A=8000x8000 --input B=8000x8000 --deadline 120 --max-nodes 8 --spot",
];

const SERVE_RUNS: &[&str] = &[
    r#"{"schema":"cumulon-serve-v1","id":"p1","tenant":"t","action":"run","script":"G = A' * A; H = G * G;","inputs":["A=4000x2000:200"],"instance":"m1.large","nodes":4,"slots":2,"spot":true,"bid":0.4}"#,
    r#"{"schema":"cumulon-serve-v1","id":"p2","tenant":"t","action":"run","script":"G = A' * A; H = G * G;","inputs":["A=4000x2000:200"],"instance":"m1.large","nodes":4,"slots":2,"spot":true,"bid":0.4,"elastic":true}"#,
    r#"{"schema":"cumulon-serve-v1","id":"p3","tenant":"t","action":"run","script":"G = A' * A; H = G * G;","inputs":["A=120x60:20"],"instance":"m1.large","nodes":2,"slots":2,"memory_budget":8192}"#,
];

fn run_paths_transcript() -> String {
    let dir = std::env::temp_dir().join(format!("cumulon_run_paths_{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("scratch dir");
    let chain = dir.join("chain.cm");
    let mul = dir.join("mul.cm");
    std::fs::write(&chain, "G = A' * A; H = G * G;").expect("write script");
    std::fs::write(&mul, "C = A * B;").expect("write script");
    let mut transcript = String::new();
    for line in CLI_RUNS {
        let args: Vec<String> = line
            .split_whitespace()
            .map(|a| match a {
                "chain.cm" => chain.to_str().unwrap().to_string(),
                "mul.cm" => mul.to_str().unwrap().to_string(),
                other => other.to_string(),
            })
            .collect();
        let cmd = cumulon::cli::parse_args(&args).expect("golden command line parses");
        let mut out = Vec::new();
        cumulon::cli::execute(&cmd, &mut out).expect("golden command runs");
        transcript.push_str("$ cumulon ");
        transcript.push_str(&line.split_whitespace().collect::<Vec<_>>().join(" "));
        transcript.push('\n');
        transcript.push_str(&String::from_utf8(out).expect("utf-8 output"));
    }
    std::fs::remove_dir_all(&dir).ok();

    let mut svc = Service::start(ServiceConfig {
        run_workers: 1,
        threads: 1,
        quota: QuotaConfig {
            capacity: 1e6,
            refill_per_s: 1e3,
            ..QuotaConfig::default()
        },
        ..Default::default()
    });
    for request in SERVE_RUNS {
        transcript.push_str("C: ");
        transcript.push_str(request);
        transcript.push('\n');
        transcript.push_str("S: ");
        transcript.push_str(&svc.handle(request));
    }
    svc.shutdown();
    transcript
}

#[test]
fn run_paths_match_golden() {
    let transcript = run_paths_transcript();
    let path = concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../tests/golden/run_paths.txt"
    );
    if std::env::var_os("BLESS_SERVE_GOLDEN").is_some() {
        std::fs::write(path, &transcript).expect("bless golden");
    }
    let golden = std::fs::read_to_string(path).expect("golden file exists");
    assert_eq!(
        transcript, golden,
        "run output diverged from tests/golden/run_paths.txt; if the change \
         is intentional, run BLESS_SERVE_GOLDEN=1 cargo test -p cumulon \
         --test serve_golden"
    );
}
