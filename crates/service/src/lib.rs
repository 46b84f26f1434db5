//! # qp-service — concurrent query sessions with live progress
//!
//! The paper's opening scenario (Section 1, Figure 1) is an *online* one:
//! long-running queries tie up a server, a DBA watches their progress
//! bars, and decides which to kill. Everything below this crate executes
//! and estimates; this crate is the part that *serves*:
//!
//! * [`service::QueryService`] — a session manager over a frozen
//!   [`qp_storage::Database`]: SQL in via `qp-sql`, execution on a fixed
//!   worker pool with bounded-queue admission control, one
//!   [`session::Session`] per query.
//! * Live progress: each worker attaches a
//!   [`qp_progress::ProgressMonitor`] whose snapshots — `(Curr, LB, UB,
//!   dne/pmax/safe)` — are published into a lock-free
//!   [`qp_progress::shared::ProgressCell`] that any thread polls without
//!   perturbing the query (the paper's estimators, finally driving real
//!   progress bars).
//! * Cooperative cancellation: a [`qp_exec::CancelToken`] per session,
//!   checked by the executor between getnext calls — the "kill the
//!   hopeless query" half of the DBA loop.
//! * [`server::ProgressServer`] — a crate-free nonblocking TCP server
//!   speaking the line protocol of [`protocol`] (`SUBMIT` / `STATUS` /
//!   `LIST` / `CANCEL` / `METRICS` / `TRACE` / `SHUTDOWN`): one
//!   acceptor plus N event-loop threads, each blocked in the
//!   [`reactor`]'s `poll(2)` until a socket needs it, multiplex
//!   thousands of connections, with [`client::ServiceClient`] as the matching
//!   blocking client and [`client::ClientRequest`] /
//!   [`client::ClientResponse`] as its typed (protocol v3) API.
//! * Observability ([`telemetry`], built on `qp-obs`): a service-wide
//!   flight recorder of structured events, per-operator getnext counters
//!   on every session, Prometheus-style exposition over `METRICS`, and a
//!   per-session JSONL trajectory dump over `TRACE <id>` — all served
//!   from lock-free state, never blocking the getnext hot path.
//!
//! Concurrency never touches the model of work: each query is still a
//! strictly serial getnext sequence (Section 2.2), so results, traces,
//! and `total(Q)` are identical to single-threaded runs — a property the
//! integration tests pin down.

pub mod client;
pub mod protocol;
pub mod reactor;
pub mod server;
pub mod service;
pub mod session;
mod sync;
pub mod telemetry;

pub use client::{
    AuditLine, ClientRequest, ClientResponse, HelloInfo, ListRow, MetricsSnapshot, RetryPolicy,
    ServiceClient, SubmitRequest, WireError,
};
pub use protocol::{
    err_line, hello_line, help_text, ErrCode, ParsedStatus, Request, StatusLine, CAPABILITIES,
    PROTOCOL_VERSION, SUBMIT_FIELDS, VERBS,
};
pub use server::{ProgressServer, ServerConfig};
pub use service::{
    QueryService, ServiceConfig, StatusReport, SubmitError, SubmitOptions, ESTIMATORS,
};
pub use session::{QueryId, QueryResult, QueryState, Session};
