//! The query service: admission control, a fixed worker pool, and the
//! session registry.
//!
//! This is the concurrency layer the paper's Figure 1 takes for granted: a
//! DBA console polling progress for *many* in-flight queries and killing
//! the hopeless ones. `QueryService` owns a frozen [`Database`] plus its
//! [`DbStats`], plans submitted SQL through `qp-sql`, and executes each
//! query on one of `workers` threads with a [`ProgressMonitor`] publishing
//! live `(curr, LB, UB, dne/pmax/safe)` readings into the session's
//! lock-free [`ProgressCell`]. With
//! [`ServiceConfig::default_parallelism`] (or a per-query
//! `PARALLELISM=` field) above 1, eligible scan subtrees are fanned
//! across partitions via [`qp_exec::parallelize`] — by construction the
//! result rows, per-node getnext counters, and `total(Q)` stay
//! byte-identical to the serial run (the GetNext model of Section 2.2),
//! so every estimator reading is unchanged; parallelism only compresses
//! wall-clock time.
//!
//! Admission control is two-tier: at most `workers` queries run at once,
//! at most `queue_depth` more wait in a bounded queue, and past that
//! `SUBMIT` is rejected immediately with [`SubmitError::Saturated`] — the
//! service sheds load rather than queueing unboundedly.
//!
//! ## Resilience
//!
//! The service is built to keep serving through misbehaving queries:
//!
//! * **Panic isolation** — each worker wraps query execution in
//!   [`std::panic::catch_unwind`]; a panicking plan (injected via
//!   [`qp_exec::FaultPlan`] or real) becomes `FAILED` with the panic
//!   message retained, and the worker lives on to serve the next query.
//! * **Deadlines** — a per-session execution-time budget (from
//!   [`SubmitOptions::timeout`] or [`ServiceConfig::default_timeout`]) is
//!   checked by the executor at the same instrumented getnext call as
//!   cancellation; expiry lands the session in `TIMEDOUT`.
//! * **Poison recovery** — every mutex acquisition recovers from
//!   poisoning, so a panic mid-query never cascades into pollers.
//! * **Chaos mode** — [`ServiceConfig::fault_seed`] derives one
//!   deterministic [`qp_exec::FaultPlan`] per query (seed ⊕ query id),
//!   replayable by seed; see `repro -- chaos`.

use crate::session::{QueryId, QueryResult, QueryState, Session, SessionTelemetry};
use crate::sync::lock_or_recover;
use crate::telemetry::ReactorStats;
use qp_exec::executor::QueryRun;
use qp_exec::{ExecError, FaultConfig, FaultPlan, Plan, RunControls, SpanAttach};
use qp_obs::{
    EstimatorScore, EventKind, FlightRecorder, LatencyHistogram, Postmortem, QueryObs, SpanSink,
    TraceBuffer,
};
use qp_progress::estimators::{Dne, EnsembleStats, Pmax, ProgressEstimator, Safe};
use qp_progress::monitor::{ProgressMonitor, SharedMonitor};
use qp_progress::shared::{ProgressCell, ProgressReading, RegimeFlags};
use qp_progress::{score_checkpoints, BoundsTracker, PlanMeta};
use qp_stats::DbStats;
use qp_storage::Database;
use std::collections::{BTreeMap, VecDeque};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{Receiver, SyncSender, TrySendError};
use std::sync::{mpsc, Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Default estimator names a session's progress cell reports, in order.
/// A `SUBMIT ESTIMATORS=<csv>` field (or [`SubmitOptions::estimators`])
/// overrides the suite per session, resolved through the
/// [`qp_progress::estimators`] name registry.
pub const ESTIMATORS: [&str; 3] = ["dne", "pmax", "safe"];

fn estimator_suite() -> Vec<Box<dyn ProgressEstimator>> {
    vec![Box::new(Dne), Box::new(Pmax), Box::new(Safe)]
}

/// Resolves a session's estimator suite: the validated CSV from submit
/// time, or the service default. `Box<dyn ProgressEstimator>` is not
/// `Send`, so the job carries the (already-validated) names and the
/// worker re-resolves them here.
fn session_suite(estimators: Option<&str>) -> Vec<Box<dyn ProgressEstimator>> {
    match estimators {
        Some(csv) => qp_progress::parse_suite(csv).unwrap_or_else(|_| estimator_suite()),
        None => estimator_suite(),
    }
}

/// Sizing knobs for a [`QueryService`].
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Worker threads = maximum concurrently-running queries.
    pub workers: usize,
    /// Admitted-but-not-yet-running queries the service will hold.
    pub queue_depth: usize,
    /// Snapshot stride override (getnext calls between progress
    /// publications). `None` picks ~200 points per query from the plan's
    /// scanned-leaf cardinalities, like `run_with_progress`.
    pub stride: Option<u64>,
    /// Execution-time budget applied to every session that does not
    /// carry its own `TIMEOUT_MS`. `None` = no default deadline.
    pub default_timeout: Option<Duration>,
    /// How long [`shutdown`](QueryService::shutdown) waits for in-flight
    /// sessions to drain before cancelling the stragglers.
    pub shutdown_grace: Duration,
    /// Chaos mode: when set, every submitted query gets a deterministic
    /// [`FaultPlan`] seeded with `fault_seed ^ query_id` (so one service
    /// seed reproduces the whole run, yet each query draws distinct fault
    /// positions). [`SubmitOptions::faults`] overrides per query.
    pub fault_seed: Option<u64>,
    /// Fault mix used with [`fault_seed`](ServiceConfig::fault_seed).
    pub fault_config: FaultConfig,
    /// Capacity of the service-wide flight recorder (newest events
    /// retained across all sessions).
    pub recorder_capacity: usize,
    /// Per-session capacity of the live `TRACE` checkpoint ring.
    pub trace_capacity: usize,
    /// Record per-getnext wall-clock time into the per-operator counters.
    /// Off by default: timing costs two `Instant::now()` calls per
    /// getnext, which the counters-only path avoids (see the
    /// `obs_overhead` bench).
    pub timed_obs: bool,
    /// Intra-query parallelism applied to every submission that does not
    /// carry its own `PARALLELISM=` field: eligible scan subtrees are
    /// fanned across this many partitions via [`qp_exec::parallelize`].
    /// `1` (the default) leaves plans serial.
    pub default_parallelism: usize,
    /// Sessions whose *run* latency (queue time excluded) exceeds this
    /// threshold leave a `SlowQuery` event in the flight recorder,
    /// carrying the final trust flag and the worst estimator ratio error
    /// from the postmortem. `None` (the default) disables the log.
    pub slow_query_threshold: Option<Duration>,
    /// How many finished sessions' estimator-accuracy postmortems the
    /// `AUDIT` verb can look back over.
    pub audit_retain: usize,
    /// Capacity of the service-wide hierarchical span sink (newest span
    /// marks retained across all sessions).
    pub span_capacity: usize,
    /// Shared-scan reuse: serial full-table scans from concurrent
    /// sessions attach to one in-flight producer per table (N identical
    /// scans ≈ 1 physical pass). Results-neutral — every session still
    /// observes its exact solo row sequence and counters (pinned by the
    /// shared-scan equivalence suite). Fault-injected sessions always
    /// scan directly regardless of this flag, because fault schedules
    /// key on which session performs each physical read.
    pub shared_scan: bool,
}

impl Default for ServiceConfig {
    fn default() -> ServiceConfig {
        ServiceConfig {
            workers: 4,
            queue_depth: 16,
            stride: None,
            default_timeout: None,
            shutdown_grace: Duration::from_secs(5),
            fault_seed: None,
            fault_config: FaultConfig::default(),
            recorder_capacity: 1024,
            trace_capacity: 4096,
            timed_obs: false,
            default_parallelism: 1,
            slow_query_threshold: None,
            audit_retain: 32,
            span_capacity: 4096,
            shared_scan: true,
        }
    }
}

/// Per-submission knobs for [`QueryService::submit_with`].
#[derive(Debug, Clone, Default)]
pub struct SubmitOptions {
    /// Execution-time budget; falls back to
    /// [`ServiceConfig::default_timeout`] when `None`.
    pub timeout: Option<Duration>,
    /// Deterministic fault plan for this query; falls back to the plan
    /// derived from [`ServiceConfig::fault_seed`] when `None`.
    pub faults: Option<FaultPlan>,
    /// Intra-query parallelism for this query; falls back to
    /// [`ServiceConfig::default_parallelism`] when `None`. Rejected at
    /// submit time if zero.
    pub parallelism: Option<usize>,
    /// Comma-separated estimator names for this session (validated at
    /// submit time against the [`qp_progress::estimators`] registry);
    /// falls back to [`ESTIMATORS`] when `None`.
    pub estimators: Option<String>,
    /// Rows per work-stealing morsel for this query's parallel scans
    /// (`qp_exec::ExecTuning::morsel_rows`); falls back to the executor
    /// default when `None`. Results-neutral by construction — the knob
    /// only changes how work is scheduled. Rejected at submit time if
    /// zero.
    pub morsel_size: Option<usize>,
    /// Buffer-pool frame count to resize the paged backend's cache to
    /// before this query runs. The pool is shared database-wide, so the
    /// new capacity persists for later queries (it is a service-level
    /// knob exposed per-submission for experiment scripting). Rejected
    /// at submit time if zero or if no table here is paged. Caching
    /// only — results are backend-identical by construction.
    pub page_cache_frames: Option<usize>,
}

/// Why a `SUBMIT` was rejected.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// The SQL failed to parse or plan.
    Plan(String),
    /// An option carried an invalid value (e.g. an unknown estimator
    /// name or a zero parallelism degree).
    BadRequest(String),
    /// Both the worker pool and the wait queue are full.
    Saturated {
        /// Configured maximum of queued sessions.
        queue_depth: usize,
    },
    /// The service has been shut down.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Plan(m) => write!(f, "planning failed: {m}"),
            SubmitError::BadRequest(m) => write!(f, "bad request: {m}"),
            SubmitError::Saturated { queue_depth } => write!(
                f,
                "service saturated (all workers busy, {queue_depth} queued); retry later"
            ),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A point-in-time answer to `STATUS <id>`.
#[derive(Debug, Clone)]
pub struct StatusReport {
    pub id: QueryId,
    pub state: QueryState,
    /// Trustworthiness of the progress stream — meaningful even before
    /// the first published reading (a query can fail before its first
    /// snapshot).
    pub health: qp_progress::shared::Health,
    /// Whether the estimates are still operating in their assumed
    /// regime (`ok`), the estimators disagree or the regime shifted
    /// (`degraded`), or the ensemble has delegated to `safe`
    /// (`fallback`). Monotone within a session, like health.
    pub trust: qp_progress::shared::Trust,
    /// This session's estimator names, index-aligned with
    /// [`ProgressReading::estimates`].
    pub estimators: Vec<&'static str>,
    /// Latest published progress, if the query has produced any.
    pub progress: Option<ProgressReading>,
    /// Result row count, once finished.
    pub rows: Option<u64>,
    /// Final `total(Q)`, once finished.
    pub total_getnext: Option<u64>,
    /// Failure message, once failed.
    pub error: Option<String>,
}

struct Job {
    session: Arc<Session>,
    plan: Plan,
    faults: Option<FaultPlan>,
    /// Validated estimator CSV (`None` = service default suite).
    estimators: Option<String>,
    /// Per-query morsel size override (`None` = executor default).
    morsel_size: Option<usize>,
}

struct ServiceInner {
    db: Arc<Database>,
    stats: Arc<DbStats>,
    sessions: Mutex<BTreeMap<QueryId, Arc<Session>>>,
    next_id: AtomicU64,
    stride: Option<u64>,
    /// Service-wide flight recorder: session lifecycles, snapshot
    /// publishes, fault injections — all sessions, one bounded ring.
    recorder: Arc<FlightRecorder>,
    /// Service-wide span sink: session → query → pipeline → exchange →
    /// worker → operator begin/end marks, all sessions, one bounded ring.
    spans: Arc<SpanSink>,
    /// End-to-end latency histograms: admission → worker pickup, and
    /// worker pickup → terminal state.
    queue_hist: LatencyHistogram,
    run_hist: LatencyHistogram,
    /// Per-verb server request latency, index-aligned with
    /// [`crate::protocol::VERBS`].
    verb_hists: Box<[LatencyHistogram]>,
    /// Wakeup counters of the front end's event loops, in registration
    /// order (the `loop` label of `qp_reactor_*`).
    reactor_loops: Mutex<Vec<Arc<ReactorStats>>>,
    /// Shared-scan registry handed to every non-fault session's
    /// executor; `None` when [`ServiceConfig::shared_scan`] is off.
    scan_share: Option<Arc<qp_storage::ScanShare>>,
    /// Most recent finished sessions' estimator postmortems, oldest
    /// first, bounded by `audit_retain`.
    postmortems: Mutex<VecDeque<Postmortem>>,
    audit_retain: usize,
    slow_query_threshold: Option<Duration>,
    started: Instant,
}

/// The concurrent query service. See the module docs for the design.
pub struct QueryService {
    inner: Arc<ServiceInner>,
    tx: Mutex<Option<SyncSender<Job>>>,
    workers: Mutex<Vec<JoinHandle<()>>>,
    queue_depth: usize,
    default_timeout: Option<Duration>,
    shutdown_grace: Duration,
    fault_seed: Option<u64>,
    fault_config: FaultConfig,
    trace_capacity: usize,
    timed_obs: bool,
    default_parallelism: usize,
}

impl QueryService {
    /// Builds statistics and starts the worker pool over a frozen database.
    pub fn new(db: Arc<Database>, config: ServiceConfig) -> QueryService {
        let stats = Arc::new(DbStats::build(&db));
        QueryService::with_stats(db, stats, config)
    }

    /// Opens a paged database directory (as written by
    /// `qp_storage::paged::save_database` or `TpchDb::save_paged`) and
    /// starts a service over it: replays every table's WAL before first
    /// read, shares one `frames`-frame buffer pool across all tables,
    /// and rebuilds the MANIFEST's indexes. Pool counters surface in
    /// `METRICS`; evictions land in the flight recorder.
    pub fn open_paged(
        dir: &std::path::Path,
        frames: usize,
        config: ServiceConfig,
    ) -> Result<QueryService, qp_storage::StorageError> {
        let db = qp_storage::paged::open_database(dir, frames)?;
        Ok(QueryService::new(Arc::new(db), config))
    }

    /// Like [`QueryService::new`] with caller-provided statistics (e.g. to
    /// share one `DbStats` across services, or to test stale stats).
    pub fn with_stats(
        db: Arc<Database>,
        stats: Arc<DbStats>,
        config: ServiceConfig,
    ) -> QueryService {
        assert!(config.workers > 0, "need at least one worker");
        let inner = Arc::new(ServiceInner {
            db,
            stats,
            sessions: Mutex::new(BTreeMap::new()),
            next_id: AtomicU64::new(1),
            stride: config.stride,
            recorder: Arc::new(FlightRecorder::new(config.recorder_capacity)),
            spans: Arc::new(SpanSink::new(config.span_capacity)),
            queue_hist: LatencyHistogram::new(),
            run_hist: LatencyHistogram::new(),
            verb_hists: (0..crate::protocol::VERBS.len())
                .map(|_| LatencyHistogram::new())
                .collect(),
            reactor_loops: Mutex::new(Vec::new()),
            scan_share: config
                .shared_scan
                .then(|| Arc::new(qp_storage::ScanShare::new())),
            postmortems: Mutex::new(VecDeque::new()),
            audit_retain: config.audit_retain.max(1),
            slow_query_threshold: config.slow_query_threshold,
            started: Instant::now(),
        });
        // Paged databases report evictions into the service-wide flight
        // recorder (query 0 = not attributable to one session: the pool
        // is shared).
        if let Some(pool) = inner.db.buffer_pool() {
            let recorder = Arc::clone(&inner.recorder);
            pool.set_on_evict(Some(Arc::new(move |tag, page| {
                recorder.record(0, EventKind::PageEvicted, tag, page);
            })));
        }
        // Rendezvous + queue_depth: the channel itself is the wait queue.
        let (tx, rx) = mpsc::sync_channel::<Job>(config.queue_depth);
        let rx = Arc::new(Mutex::new(rx));
        let workers = (0..config.workers)
            .map(|i| {
                let rx = Arc::clone(&rx);
                let inner = Arc::clone(&inner);
                std::thread::Builder::new()
                    .name(format!("qp-worker-{i}"))
                    .spawn(move || worker_loop(&inner, &rx))
                    .expect("spawn worker")
            })
            .collect();
        QueryService {
            inner,
            tx: Mutex::new(Some(tx)),
            workers: Mutex::new(workers),
            queue_depth: config.queue_depth,
            default_timeout: config.default_timeout,
            shutdown_grace: config.shutdown_grace,
            fault_seed: config.fault_seed,
            fault_config: config.fault_config,
            trace_capacity: config.trace_capacity,
            timed_obs: config.timed_obs,
            default_parallelism: config.default_parallelism,
        }
    }

    /// The database this service executes against.
    pub fn database(&self) -> &Arc<Database> {
        &self.inner.db
    }

    /// The statistics the planner and the estimators see.
    pub fn stats(&self) -> &Arc<DbStats> {
        &self.inner.stats
    }

    /// Parses, plans, and enqueues `sql` with the service's default
    /// timeout and fault plan. Returns the session id the caller polls
    /// with [`status`](QueryService::status). Planning errors and
    /// saturation are reported synchronously; nothing is registered for a
    /// rejected submission.
    pub fn submit(&self, sql: &str) -> Result<QueryId, SubmitError> {
        self.submit_with(sql, SubmitOptions::default())
    }

    /// [`submit`](QueryService::submit) with per-query overrides for the
    /// execution deadline and the injected fault plan.
    pub fn submit_with(&self, sql: &str, opts: SubmitOptions) -> Result<QueryId, SubmitError> {
        // Validate options before doing any planning work.
        let parallelism = opts.parallelism.unwrap_or(self.default_parallelism);
        if parallelism == 0 {
            return Err(SubmitError::BadRequest(
                "parallelism must be at least 1".into(),
            ));
        }
        if opts.morsel_size == Some(0) {
            return Err(SubmitError::BadRequest(
                "morsel size must be at least 1".into(),
            ));
        }
        if let Some(frames) = opts.page_cache_frames {
            if frames == 0 {
                return Err(SubmitError::BadRequest(
                    "page cache frames must be at least 1".into(),
                ));
            }
            let Some(pool) = self.inner.db.buffer_pool() else {
                return Err(SubmitError::BadRequest(
                    "PAGE_CACHE_FRAMES needs a paged database (this one is all in-memory)".into(),
                ));
            };
            pool.set_capacity(frames);
        }
        let estimator_names: Vec<&'static str> = match &opts.estimators {
            Some(csv) => qp_progress::parse_suite(csv)
                .map_err(SubmitError::BadRequest)?
                .iter()
                .map(|e| e.name())
                .collect(),
            None => ESTIMATORS.to_vec(),
        };

        let mut plan = qp_sql::sql_to_plan(sql, &self.inner.db, &self.inner.stats)
            .map_err(|e| SubmitError::Plan(e.to_string()))?;
        qp_exec::estimate::annotate(&mut plan, &self.inner.stats);
        // Parallelize *after* annotation: the appended Exchange nodes copy
        // their child's estimate, and runtime node ids stay identical to
        // the serial plan so every downstream consumer (bounds, monitor,
        // per-operator counters) is unaffected.
        let plan = qp_exec::parallelize(&plan, parallelism);

        let id = QueryId(self.inner.next_id.fetch_add(1, Ordering::Relaxed));
        let cell = Arc::new(ProgressCell::new(estimator_names.clone()));
        let timeout = opts.timeout.or(self.default_timeout);
        let telemetry = SessionTelemetry {
            obs: Some(QueryObs::new(
                id.0,
                plan.op_labels(),
                self.timed_obs,
                Some(Arc::clone(&self.inner.recorder)),
            )),
            trace: Some(Arc::new(TraceBuffer::new(
                self.trace_capacity,
                estimator_names.len(),
            ))),
            recorder: Some(Arc::clone(&self.inner.recorder)),
            spans: Some(Arc::clone(&self.inner.spans)),
        };
        let session = Arc::new(Session::with_telemetry(
            id,
            sql.to_string(),
            cell,
            timeout,
            telemetry,
        ));
        let faults = opts.faults.or_else(|| {
            self.fault_seed
                .map(|seed| FaultPlan::seeded(seed ^ id.0, &self.fault_config))
        });

        let tx = lock_or_recover(&self.tx);
        let Some(tx) = tx.as_ref() else {
            return Err(SubmitError::ShuttingDown);
        };
        // Register before sending: a worker may pick the job up (and
        // finish it) before try_send even returns.
        lock_or_recover(&self.inner.sessions).insert(id, Arc::clone(&session));
        match tx.try_send(Job {
            session: Arc::clone(&session),
            plan,
            faults,
            estimators: opts.estimators,
            morsel_size: opts.morsel_size,
        }) {
            Ok(()) => {
                self.inner
                    .recorder
                    .record(id.0, EventKind::SessionSubmitted, 0, 0);
                Ok(id)
            }
            Err(TrySendError::Full(_)) => {
                session.end_session_span();
                lock_or_recover(&self.inner.sessions).remove(&id);
                Err(SubmitError::Saturated {
                    queue_depth: self.queue_depth,
                })
            }
            Err(TrySendError::Disconnected(_)) => {
                session.end_session_span();
                lock_or_recover(&self.inner.sessions).remove(&id);
                Err(SubmitError::ShuttingDown)
            }
        }
    }

    /// Looks a session up.
    pub fn session(&self, id: QueryId) -> Option<Arc<Session>> {
        lock_or_recover(&self.inner.sessions).get(&id).cloned()
    }

    /// A point-in-time status report, or `None` for an unknown id.
    pub fn status(&self, id: QueryId) -> Option<StatusReport> {
        let session = self.session(id)?;
        // State first: a transition publishes state, result and error
        // under one lock, so whatever a terminal state promises is there
        // to read afterwards. Read the other way round, a finish landing
        // in between yields FINISHED without rows or total(Q).
        let state = session.state();
        let result = session.result();
        Some(StatusReport {
            id,
            state,
            health: session.progress_cell().health(),
            trust: session.progress_cell().trust(),
            estimators: session.progress_cell().names().to_vec(),
            progress: session.progress(),
            rows: result.as_ref().map(|r| r.rows.len() as u64),
            total_getnext: result.as_ref().map(|r| r.total_getnext),
            error: session.error(),
        })
    }

    /// All sessions (newest last), as `(id, state, health)` — one call
    /// carries everything a dashboard poll needs.
    pub fn list(&self) -> Vec<(QueryId, QueryState, qp_progress::shared::Health)> {
        lock_or_recover(&self.inner.sessions)
            .values()
            .map(|s| (s.id(), s.state(), s.progress_cell().health()))
            .collect()
    }

    /// The service-wide flight recorder (postmortems, `METRICS`, `TRACE`).
    pub fn recorder(&self) -> &Arc<FlightRecorder> {
        &self.inner.recorder
    }

    /// The service-wide hierarchical span sink.
    pub fn span_sink(&self) -> &Arc<SpanSink> {
        &self.inner.spans
    }

    /// Queue latency histogram (admission → worker pickup), nanoseconds.
    pub fn queue_hist(&self) -> &LatencyHistogram {
        &self.inner.queue_hist
    }

    /// Run latency histogram (worker pickup → terminal), nanoseconds.
    pub fn run_hist(&self) -> &LatencyHistogram {
        &self.inner.run_hist
    }

    /// Per-verb server request latency histograms, index-aligned with
    /// [`crate::protocol::VERBS`].
    pub fn verb_hists(&self) -> &[LatencyHistogram] {
        &self.inner.verb_hists
    }

    /// The shared-scan registry sessions attach through (`None` when
    /// [`ServiceConfig::shared_scan`] is disabled).
    pub fn scan_share(&self) -> Option<&Arc<qp_storage::ScanShare>> {
        self.inner.scan_share.as_ref()
    }

    /// Records one served request's latency against its verb.
    pub fn record_verb_latency(&self, verb_index: usize, ns: u64) {
        if let Some(hist) = self.inner.verb_hists.get(verb_index) {
            hist.record(ns);
        }
    }

    /// Adds one front-end event loop's counters to what `METRICS`
    /// exports; the loop keeps the handle and bumps it.
    pub fn register_reactor_loop(&self) -> Arc<ReactorStats> {
        let stats = Arc::new(ReactorStats::default());
        lock_or_recover(&self.inner.reactor_loops).push(Arc::clone(&stats));
        stats
    }

    /// Every registered event loop's counters, index = `loop` label.
    pub fn reactor_loops(&self) -> Vec<Arc<ReactorStats>> {
        lock_or_recover(&self.inner.reactor_loops).clone()
    }

    /// The retained estimator-accuracy postmortems, oldest first.
    pub fn postmortems(&self) -> Vec<Postmortem> {
        lock_or_recover(&self.inner.postmortems)
            .iter()
            .cloned()
            .collect()
    }

    /// The retained postmortem of one finished session, if still within
    /// the `audit_retain` window.
    pub fn postmortem(&self, id: QueryId) -> Option<Postmortem> {
        lock_or_recover(&self.inner.postmortems)
            .iter()
            .find(|p| p.query == id.0)
            .cloned()
    }

    /// Seconds since the service started (the `METRICS` uptime gauge).
    pub fn uptime(&self) -> Duration {
        self.inner.started.elapsed()
    }

    /// Total sessions ever admitted (monotone).
    pub fn submitted_total(&self) -> u64 {
        self.inner.recorder.recorded_of(EventKind::SessionSubmitted)
    }

    /// Snapshot of every retained session handle, id order (telemetry
    /// aggregation).
    pub(crate) fn sessions_snapshot(&self) -> Vec<Arc<Session>> {
        lock_or_recover(&self.inner.sessions)
            .values()
            .cloned()
            .collect()
    }

    /// Requests cancellation. Returns the state the request found the
    /// session in, or `None` for an unknown id. Queued sessions die
    /// immediately; running ones abort at their next getnext call.
    pub fn cancel(&self, id: QueryId) -> Option<QueryState> {
        Some(self.session(id)?.request_cancel())
    }

    /// Blocks until `id` reaches a terminal state. `None` for unknown ids.
    pub fn wait(&self, id: QueryId) -> Option<QueryState> {
        Some(self.session(id)?.wait())
    }

    /// The retained result of a finished query.
    pub fn result(&self, id: QueryId) -> Option<QueryResult> {
        self.session(id)?.result()
    }

    /// Stops accepting submissions, drains in-flight and queued work for
    /// up to [`ServiceConfig::shutdown_grace`], then cancels whatever is
    /// still not terminal and joins the workers. Idempotent.
    pub fn shutdown(&self) {
        drop(lock_or_recover(&self.tx).take());
        // Grace period: give RUNNING (and still-queued) sessions a chance
        // to finish on their own before pulling the plug.
        let deadline = Instant::now() + self.shutdown_grace;
        loop {
            let all_terminal = lock_or_recover(&self.inner.sessions)
                .values()
                .all(|s| s.state().is_terminal());
            if all_terminal {
                break;
            }
            if Instant::now() >= deadline {
                // Grace expired: cancel the stragglers. Queued sessions
                // die immediately; running ones abort at their next
                // getnext call, so the join below is bounded.
                let sessions: Vec<_> = lock_or_recover(&self.inner.sessions)
                    .values()
                    .cloned()
                    .collect();
                for s in sessions {
                    if !s.state().is_terminal() {
                        s.request_cancel();
                    }
                }
                break;
            }
            std::thread::sleep(Duration::from_millis(2));
        }
        let workers: Vec<_> = lock_or_recover(&self.workers).drain(..).collect();
        for w in workers {
            let _ = w.join();
        }
    }
}

impl Drop for QueryService {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(inner: &ServiceInner, rx: &Arc<Mutex<Receiver<Job>>>) {
    loop {
        // Hold the receiver lock only while waiting, never while running.
        let job = match lock_or_recover(rx).recv() {
            Ok(job) => job,
            Err(_) => return, // all senders gone: shutdown
        };
        run_job(inner, job);
    }
}

/// Renders a `catch_unwind` payload as the failure message.
fn panic_message(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

fn run_job(inner: &ServiceInner, job: Job) {
    let Job {
        session,
        plan,
        faults,
        estimators,
        morsel_size,
    } = job;
    if !session.begin_running() {
        // Cancelled while queued: the session is already terminal.
        return;
    }
    inner
        .queue_hist
        .record(duration_ns(session.submitted_at().elapsed()));

    let meta = PlanMeta::from_plan(&plan);
    let bounds = BoundsTracker::new(&plan, Some(&inner.stats));
    let stride = inner.stride.unwrap_or_else(|| {
        let hint: u64 = meta
            .scanned_leaves
            .iter()
            .filter_map(|&(_, c)| c)
            .sum::<u64>()
            .max(200);
        (hint / 200).max(1)
    });
    let mut monitor =
        ProgressMonitor::new(meta, bounds, session_suite(estimators.as_deref()), stride);
    monitor.set_publisher(Arc::clone(session.progress_cell()));
    if let Some(obs) = session.obs() {
        monitor.set_recorder(Arc::clone(&inner.recorder), obs.query());
    }
    if let Some(trace) = session.trace_buffer() {
        monitor.set_trace_sink(Arc::clone(trace));
    }
    // Regime probe: polled by the monitor before every snapshot. Fired
    // faults (this query's own, via its QueryObs counters) and buffer-
    // pool thrash (more evictions since this query started than the pool
    // holds frames — the working set is churning) raise the shared
    // regime flags, degrading published trust and telling the ensemble
    // to fall back to `safe`.
    {
        let obs = session.obs().cloned();
        let pool = inner.db.buffer_pool().cloned();
        let baseline_evictions = pool.as_ref().map(|p| p.stats().evictions);
        monitor.set_regime_probe(Box::new(move || {
            let mut bits = 0u8;
            if let Some(obs) = &obs {
                if obs.snapshot().iter().any(|n| n.faults > 0) {
                    bits |= RegimeFlags::FAULT;
                }
            }
            if let (Some(pool), Some(base)) = (&pool, baseline_evictions) {
                let stats = pool.stats();
                if stats.evictions.saturating_sub(base) > stats.capacity as u64 {
                    bits |= RegimeFlags::THRASH;
                }
            }
            bits
        }));
    }
    let monitor = Arc::new(Mutex::new(monitor));

    // The deadline starts ticking now, not at submission: the budget is
    // execution time, checked at the executor's instrumented getnext
    // point — the same place cancellation is honoured.
    let mut tuning = qp_exec::ExecTuning::default();
    if let Some(morsel_rows) = morsel_size {
        tuning.morsel_rows = morsel_rows;
    }
    let controls = RunControls {
        cancel: session.cancel_token().clone(),
        deadline: session.timeout().map(|t| Instant::now() + t),
        obs: session.obs().cloned(),
        spans: Some(SpanAttach {
            sink: Arc::clone(&inner.spans),
            query: session.id().0,
            parent: session.session_span(),
        }),
        // Fault-free sessions share scans; fault plans key on physical
        // read order, so those sessions always scan directly.
        scan_share: match &faults {
            None => inner.scan_share.clone(),
            Some(_) => None,
        },
        faults,
        tuning,
    };

    // Panic isolation: a panicking plan (injected or real) must kill its
    // query, not its worker. Unwind safety: the closure's shared state is
    // the monitor mutex (poison-recovered everywhere) and the session
    // (only transitioned below, after the catch).
    let run_started = Instant::now();
    let outcome = catch_unwind(AssertUnwindSafe(|| {
        QueryRun::with_controls(&plan, &inner.db, controls).and_then(|mut run| {
            run.set_observer(Box::new(SharedMonitor(Arc::clone(&monitor))));
            let rows = run.run()?;
            Ok((rows, run.context().counters().total()))
        })
    }));
    let run_elapsed = run_started.elapsed();
    inner.run_hist.record(duration_ns(run_elapsed));

    // The worst estimator ratio error this session exhibited, known only
    // when a postmortem could be scored (the query finished).
    let mut worst_ratio = 1.0f64;
    let terminal: Box<dyn FnOnce()> = match outcome {
        Ok(Ok((rows, total_getnext))) => {
            // Final snapshot: the published trace ends exactly at 100%.
            let mut trust_transitions = 0u64;
            if let Ok(monitor) = Arc::try_unwrap(monitor) {
                let trace = monitor
                    .into_inner()
                    .unwrap_or_else(|poisoned| poisoned.into_inner())
                    .into_trace_with_final();
                // Session-history feed: now that total(Q) is known, score
                // every ensemble member's checkpoint error and fold it
                // into the process-wide statistics — this run's outcome
                // re-weights the *next* query's ensemble.
                EnsembleStats::global().record_trace(&trace);
                trust_transitions = trace
                    .snapshots()
                    .windows(2)
                    .filter(|w| w[0].trust != w[1].trust)
                    .count() as u64;
            }
            // Postmortem: replay the session's checkpoint ring against the
            // now-known total(Q). This runs *after* into_trace_with_final
            // pushed the final 100% checkpoint, so the buffer scored here
            // is exactly what a later `TRACE` serves.
            if let Some(pm) = build_postmortem(
                &session,
                total_getnext,
                run_elapsed.as_millis().min(u64::MAX as u128) as u64,
                trust_transitions,
            ) {
                worst_ratio = pm.worst_ratio();
                let mut retained = lock_or_recover(&inner.postmortems);
                retained.push_back(pm);
                while retained.len() > inner.audit_retain {
                    retained.pop_front();
                }
            }
            let session = Arc::clone(&session);
            Box::new(move || {
                session.finish(QueryResult {
                    rows: Arc::new(rows),
                    total_getnext,
                })
            })
        }
        Ok(Err(ExecError::Cancelled)) => {
            let session = Arc::clone(&session);
            Box::new(move || session.mark_cancelled())
        }
        Ok(Err(ExecError::DeadlineExceeded)) => {
            let session = Arc::clone(&session);
            Box::new(move || session.mark_timed_out())
        }
        Ok(Err(e)) => {
            let session = Arc::clone(&session);
            Box::new(move || session.fail(e.to_string()))
        }
        Err(payload) => {
            let session = Arc::clone(&session);
            Box::new(move || session.fail(format!("panicked: {}", panic_message(&*payload))))
        }
    };

    // Slow-query log: a run-latency outlier leaves a flight-recorder
    // event carrying the headline accuracy number (worst ratio error,
    // milli-units) and the final trust flag. Recorded *before* the
    // terminal transition below, so anyone woken by the state change
    // already sees the event in the session's tail.
    if let Some(threshold) = inner.slow_query_threshold {
        if run_elapsed > threshold {
            inner.recorder.record(
                session.id().0,
                EventKind::SlowQuery,
                (worst_ratio * 1000.0) as u64,
                session.progress_cell().trust() as u64,
            );
        }
    }
    terminal();
}

/// Saturating nanoseconds of a `Duration` (histogram input domain).
fn duration_ns(d: Duration) -> u64 {
    d.as_nanos().min(u64::MAX as u128) as u64
}

/// Scores a finished session's checkpoint ring against the final
/// `total(Q)`. Returns `None` when the session recorded no scorable
/// checkpoint (e.g. an empty query) — there is nothing to audit then.
fn build_postmortem(
    session: &Session,
    total_getnext: u64,
    wall_ms: u64,
    trust_transitions: u64,
) -> Option<Postmortem> {
    let buffer = session.trace_buffer()?;
    let names = session.progress_cell().names().to_vec();
    let tail = buffer.tail();
    let scores: Vec<EstimatorScore> = names
        .iter()
        .enumerate()
        .filter_map(|(i, name)| {
            let points: Vec<(u64, f64)> = tail
                .iter()
                .map(|p| (p.curr, p.estimates.get(i).copied().unwrap_or(f64::NAN)))
                .collect();
            score_checkpoints(&points, total_getnext).map(|s| EstimatorScore {
                name: (*name).to_string(),
                points: s.points,
                max_ratio: s.max_ratio,
                avg_ratio: s.avg_ratio,
                p4_violations: s.p4_violations,
            })
        })
        .collect();
    if scores.is_empty() {
        return None;
    }
    Some(Postmortem {
        query: session.id().0,
        total: total_getnext,
        wall_ms,
        final_trust: session.progress_cell().trust().as_str().to_string(),
        trust_transitions,
        scores,
    })
}
