//! # cumulon-serve
//!
//! Cumulon's optimization-as-a-service layer: a long-running, multi-tenant
//! daemon answering concurrent *what-if* queries (`plan`, `optimize`) and
//! executing full simulated runs (`run`) over a newline-delimited JSON
//! protocol ([`protocol::SCHEMA`] = `cumulon-serve-v1`). This is the
//! product shape the paper's "millions of users hammering what-if
//! queries" motivation implies — the CLI's one-shot run pipeline, made
//! resident and admission-controlled.
//!
//! Layers, inside out:
//!
//! * [`engine`] — the one run pipeline ([`engine::RunSpec`] executed by
//!   [`engine::execute`]: compile → provision → estimate/optimize/
//!   execute), which `cumulon run` and `cumulon trace` call too, plus the
//!   per-action `plan`/`optimize`/`run` answers;
//! * [`quota`] — per-tenant token buckets with exact `retry_after_s`;
//! * [`queue`] — the bounded, priority-ordered run queue (backpressure
//!   rejects rather than blocks);
//! * [`service`] — admission, the fast lane, the worker pool and the
//!   job/receipt table, behind one [`Service::handle`] string→string
//!   entry point;
//! * [`server`]/[`client`] — the TCP shell and a blocking client.
//!
//! # Determinism under concurrency
//!
//! Every admitted `run` executes with lookahead speculation on the
//! process-wide shared worker pool
//! ([`cumulon_cluster::shared_spec_pool`]), scheduled by tenant priority.
//! Results are bitwise-identical to a serial, single-client run of the
//! same program: speculation is a cache the canonical discrete-event
//! replay validates read-for-read, so pool contention between tenants
//! shifts *when* lookahead work happens but never what a run computes.
//! Each response carries the run's
//! [`fingerprint`](cumulon_cluster::RunReport::fingerprint) so clients
//! can audit this (`cumulon check` pins it as the `serve-isolation`
//! invariant, and a proptest races N clients against a serial replay).

#![deny(missing_docs)]
#![warn(unreachable_pub)]

pub mod client;
pub mod engine;
pub mod protocol;
pub mod queue;
pub mod quota;
pub mod server;
pub mod service;

pub use client::Client;
pub use protocol::{Action, ErrorCode, Reply, Request, SCHEMA};
pub use quota::{QuotaConfig, TokenBucket};
pub use server::Server;
pub use service::{JobRecord, JobState, Service, ServiceConfig};
