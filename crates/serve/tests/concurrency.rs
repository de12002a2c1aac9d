//! The service's determinism contract, property-tested: N concurrent
//! tenant clients racing randomly shaped programs through the admission
//! path (quota, bounded priority queue, shared speculation pool) each
//! receive a fingerprint bitwise-identical to a serial, private-pool
//! replay of the same request through the engine pipeline — at scheduler
//! threads 1 and N, in process and over loopback TCP. Contention may
//! reorder speculative work; it must never change what a run computes.

use proptest::prelude::*;

use cumulon_serve::engine;
use cumulon_serve::protocol::Request;
use cumulon_serve::quota::QuotaConfig;
use cumulon_serve::{Client, Server, Service, ServiceConfig};
use cumulon_trace::json::{parse, JsonValue};

/// `optimize` queries each client sends before its run.
const OPTIMIZES_PER_CLIENT: usize = 2;

fn request_line(
    id: &str,
    tenant: &str,
    priority: usize,
    rows: usize,
    cols: usize,
    tile: usize,
) -> String {
    format!(
        "{{\"schema\":\"cumulon-serve-v1\",\"id\":\"{id}\",\"tenant\":\"{tenant}\",\
         \"action\":\"run\",\"script\":\"G = A' * A;\",\"inputs\":[\"A={rows}x{cols}:{tile}\"],\
         \"instance\":\"m1.large\",\"nodes\":3,\"slots\":2,\"priority\":{priority}}}"
    )
}

fn optimize_line(id: &str, tenant: &str) -> String {
    format!(
        "{{\"schema\":\"cumulon-serve-v1\",\"id\":\"{id}\",\"tenant\":\"{tenant}\",\
         \"action\":\"optimize\",\"script\":\"G = A' * A;\",\
         \"inputs\":[\"A=2000x1000:200\"],\"deadline_s\":7200,\"max_nodes\":8}}"
    )
}

fn threads_n() -> usize {
    std::thread::available_parallelism().map_or(2, |n| n.get().clamp(2, 4))
}

/// How the clients reach the service.
#[derive(Debug, Clone, Copy)]
enum Transport {
    /// [`Service::handle`] called directly from each client thread.
    InProcess,
    /// A [`Server`] on a loopback port, one [`Client`] connection each.
    Tcp,
}

/// Runs every client's script of request lines concurrently, one thread
/// per client, then `replay` alone; returns every reply.
fn exchange(
    transport: Transport,
    config: ServiceConfig,
    scripts: &[Vec<String>],
    replay: &str,
) -> Vec<JsonValue> {
    match transport {
        Transport::InProcess => {
            let service = Service::start(config);
            let send = |line: &str| parse(&service.handle(line)).expect("reply is valid JSON");
            let mut replies = concurrently(scripts, |script| {
                script.iter().map(|line| send(line)).collect()
            });
            replies.push(send(replay));
            replies
        }
        Transport::Tcp => {
            let server = Server::start("127.0.0.1:0", config).expect("bind loopback");
            let addr = server.addr();
            let send = |client: &mut Client, line: &str| client.request(line).expect("reply");
            let mut replies = concurrently(scripts, |script| {
                let mut client = Client::connect(addr).expect("connect");
                script.iter().map(|line| send(&mut client, line)).collect()
            });
            let mut client = Client::connect(addr).expect("connect for replay");
            replies.push(send(&mut client, replay));
            server.stop();
            replies
        }
    }
}

fn concurrently(
    scripts: &[Vec<String>],
    client: impl Fn(&[String]) -> Vec<JsonValue> + Sync,
) -> Vec<JsonValue> {
    std::thread::scope(|s| {
        let handles: Vec<_> = scripts
            .iter()
            .map(|script| s.spawn(|| client(script)))
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("client thread panicked"))
            .collect()
    })
}

proptest! {
    // Each case spins up four services and 2×tenants full runs; a handful
    // of cases keeps the property meaningful inside the CI budget.
    #![proptest_config(ProptestConfig { cases: 4, ..ProptestConfig::default() })]

    #[test]
    fn concurrent_clients_match_serial_replay(
        rows in 16usize..64,
        cols in 8usize..32,
        tile in 4usize..16,
        tenants in 2usize..5,
    ) {
        // Serial ground truth: the same request, engine-direct, one
        // scheduler thread, private speculation pool.
        let baseline_req =
            Request::parse(&request_line("base", "base", 0, rows, cols, tile)).unwrap();
        let baseline = engine::run(&baseline_req, 1, false)
            .expect("serial replay runs")
            .report
            .fingerprint();

        // Each tenant asks the fast lane twice, then runs; distinct
        // priority lanes exercise the priority-ordered shared pool.
        let scripts: Vec<Vec<String>> = (0..tenants)
            .map(|i| {
                let tenant = format!("tenant-{i}");
                (0..OPTIMIZES_PER_CLIENT)
                    .map(|q| optimize_line(&format!("opt-{i}-{q}"), &tenant))
                    .chain([request_line(&format!("req-{i}"), &tenant, i, rows, cols, tile)])
                    .collect()
            })
            .collect();
        let replay = request_line("replay", "replay", 0, rows, cols, tile);

        for transport in [Transport::InProcess, Transport::Tcp] {
            for threads in [1usize, threads_n()] {
                let config = ServiceConfig {
                    threads,
                    run_workers: tenants,
                    queue_depth: tenants,
                    quota: QuotaConfig { capacity: 1e6, refill_per_s: 1e3, ..Default::default() },
                    ..Default::default()
                };
                let replies = exchange(transport, config, &scripts, &replay);
                prop_assert_eq!(replies.len(), tenants * (OPTIMIZES_PER_CLIENT + 1) + 1);
                let mut runs = 0;
                for v in &replies {
                    prop_assert_eq!(
                        v.get("ok").and_then(|x| x.as_bool()),
                        Some(true),
                        "rejected over {:?} at threads {}: {:?}", transport, threads, v
                    );
                    if v.get("action").and_then(|x| x.as_str()) != Some("run") {
                        continue;
                    }
                    runs += 1;
                    let fp = v
                        .get("fingerprint")
                        .and_then(|x| x.as_str())
                        .expect("run reply carries a fingerprint");
                    prop_assert_eq!(
                        fp, &baseline,
                        "{:?} diverged from the serial replay over {:?} at threads {}",
                        v.get("id"), transport, threads
                    );
                }
                prop_assert_eq!(runs, tenants + 1);
            }
        }
    }
}
