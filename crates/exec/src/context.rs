//! Execution context: per-node getnext counters and the observer hook.
//!
//! This is the paper's Figure 1 made concrete. The executor drives the
//! operator tree; every operator is wrapped in a [`Counted`] adapter that
//! increments a per-node counter on each row produced (one *getnext* call
//! under the model of Section 2.2) and reports [`ExecEvent`]s to an
//! [`Observer`]. A progress estimator is exactly such an observer: it sees
//! the plan (ahead of time), the stream of getnext events, and the database
//! statistics — and nothing else. In particular it cannot peek at
//! un-retrieved base data, which is what makes the lower bound of Section 3
//! bite.
//!
//! ## Thread safety
//!
//! Counters are atomics and the context is held in an [`Arc`], so while a
//! query thread drives the operator tree, *other* threads (a session
//! manager, a status endpoint) can read the counters live and request
//! cooperative cancellation.
//!
//! Execution itself may also be parallel: an `Exchange` operator runs
//! partition copies of a subtree on worker threads, each under a *forked*
//! context that shares the same [`Counters`] atomics and observer as the
//! root context. Because every partition's [`Counted`] wrappers bump the
//! same per-node counters, the final per-node counts and `total(Q)` are
//! byte-identical to a serial run — the paper's GetNext accounting is
//! preserved; only wall-clock changes. Exhaustion is producer-counted: a
//! node wrapped by `n` partitions is only marked exhausted (and its
//! [`ExecEvent::Exhausted`] emitted) when *all* `n` wrappers have seen
//! their final row, so bound finalization never fires early.

use crate::error::{ExecError, ExecResult};
use qp_obs::{QueryObs, SpanKind, SpanSink};
use qp_storage::{Row, Schema, StorageError};
use qp_testkit::fault::{FaultKind, FaultPlan};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Stable wire code for a fault kind, used in flight-recorder event
/// payloads (`EventKind::FaultInjected.b`) and decoded by
/// [`fault_kind_name`].
pub fn fault_kind_code(kind: &FaultKind) -> u64 {
    match kind {
        FaultKind::StorageRead => 0,
        FaultKind::ExecError => 1,
        FaultKind::Panic => 2,
        FaultKind::Delay(_) => 3,
    }
}

/// Human-readable token for a [`fault_kind_code`] value (trace dumps).
pub fn fault_kind_name(code: u64) -> &'static str {
    match code {
        0 => "storage_read",
        1 => "exec_error",
        2 => "panic",
        3 => "delay",
        _ => "unknown",
    }
}

/// Identifier of a plan node (index into the plan's node table).
pub type NodeId = usize;

/// Events surfaced to observers, in execution order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExecEvent {
    /// `open()` was called on the node (pipelines: marks phase starts).
    Open(NodeId),
    /// The node produced one row — one getnext call under the model.
    RowProduced(NodeId),
    /// The node returned `None` for the first time (its output is final).
    Exhausted(NodeId),
}

/// A consumer of execution feedback. Implemented by the progress monitor
/// in `qp-progress`; also by test probes.
///
/// Observers are `Send` because a query (and the observer riding on it)
/// may run on a worker thread other than the one that built it.
pub trait Observer: Send {
    /// Called after the context state reflects the event (i.e. counters are
    /// already incremented for a `RowProduced`).
    fn on_event(&mut self, event: ExecEvent, counters: &Counters);
}

/// Per-node and total getnext counters, readable at any instant — from any
/// thread. All counters are monotone, so relaxed atomics suffice: a reader
/// may see a value that is a handful of getnext calls stale, never one that
/// is wrong.
#[derive(Debug)]
pub struct Counters {
    per_node: Vec<AtomicU64>,
    total: AtomicU64,
    exhausted: Vec<AtomicBool>,
    /// How many [`Counted`] instances produce into each node. 1 in a
    /// serial plan; an `Exchange` running `n` partition copies of a
    /// subtree registers `n - 1` extra producers for every subtree node.
    /// A node is exhausted only when the count reaches zero.
    producers: Vec<AtomicU64>,
}

impl Counters {
    fn new(n_nodes: usize) -> Counters {
        Counters {
            per_node: (0..n_nodes).map(|_| AtomicU64::new(0)).collect(),
            total: AtomicU64::new(0),
            exhausted: (0..n_nodes).map(|_| AtomicBool::new(false)).collect(),
            producers: (0..n_nodes).map(|_| AtomicU64::new(1)).collect(),
        }
    }

    /// Registers `extra` additional producers for `node` (called while the
    /// operator tree is being built, before any row flows).
    pub(crate) fn add_producers(&self, node: NodeId, extra: u64) {
        self.producers[node].fetch_add(extra, Ordering::Relaxed);
    }

    /// getnext calls (rows produced) by `node` so far.
    #[inline]
    pub fn node(&self, node: NodeId) -> u64 {
        self.per_node[node].load(Ordering::Relaxed)
    }

    /// Total getnext calls across all nodes — `Curr` in the paper's
    /// estimator definitions.
    #[inline]
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Whether `node` has produced its final row.
    #[inline]
    pub fn is_exhausted(&self, node: NodeId) -> bool {
        self.exhausted[node].load(Ordering::Relaxed)
    }

    /// Number of nodes.
    #[inline]
    pub fn len(&self) -> usize {
        self.per_node.len()
    }

    /// True when the plan has no nodes (degenerate).
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.per_node.is_empty()
    }

    /// Snapshot of all per-node counts.
    pub fn snapshot(&self) -> Vec<u64> {
        self.per_node
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .collect()
    }
}

/// A shared cancellation flag. Cloning is cheap; setting it from any thread
/// makes the running query abort at its next getnext call with
/// [`ExecError::Cancelled`].
#[derive(Debug, Clone, Default)]
pub struct CancelToken(Arc<AtomicBool>);

impl CancelToken {
    /// A fresh, un-cancelled token.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// Requests cancellation. Idempotent; callable from any thread.
    pub fn cancel(&self) {
        self.0.store(true, Ordering::Relaxed);
    }

    /// Whether cancellation has been requested.
    #[inline]
    pub fn is_cancelled(&self) -> bool {
        self.0.load(Ordering::Relaxed)
    }
}

/// Where this query's hierarchical spans go: the sink, the session id
/// they are tagged with, and the span the query nests under (a session
/// span begun by the service, or 0 for a root query). Span recording is
/// cold-path only — marks land at open/close and fork boundaries, never
/// per row — so it stays on even in `--no-default-features` builds.
#[derive(Debug, Clone)]
pub struct SpanAttach {
    /// The shared span sink.
    pub sink: Arc<SpanSink>,
    /// Session id spans are tagged with (`QueryId::0`, or 0 standalone).
    pub query: u64,
    /// Parent span id the query span nests under (0 = root).
    pub parent: u64,
}

/// External controls a query runs under: the kill switch, an optional
/// wall-clock deadline, and an optional deterministic fault schedule.
///
/// All three are checked at the same instrumented point — the top of every
/// `Counted::open`/`next` — so a cancel, a timeout, and an injected fault
/// each land within one tuple's worth of work, at a reproducible getnext
/// index.
#[derive(Debug, Default)]
pub struct RunControls {
    /// Cooperative cancellation flag (shared with the session manager).
    pub cancel: CancelToken,
    /// Hard wall-clock deadline: the query aborts with
    /// [`ExecError::DeadlineExceeded`] at its first getnext past this
    /// instant.
    pub deadline: Option<Instant>,
    /// Deterministic fault schedule (chaos testing); `None` and
    /// `Some(FaultPlan::none())` are both the zero-fault fast path.
    pub faults: Option<FaultPlan>,
    /// Hot-path observability sink: per-node counters plus (optionally)
    /// flight-recorder events for interrupts. `None` is the zero-cost
    /// path; recording statements also compile out entirely without the
    /// `obs` cargo feature.
    pub obs: Option<Arc<QueryObs>>,
    /// Hierarchical span recording (query → pipeline → exchange →
    /// worker → operator); `None` records nothing.
    pub spans: Option<SpanAttach>,
    /// Shared-scan registry: when set, serial full-table scans attach
    /// to the table's in-flight [`qp_storage::ScanShare`] epoch instead
    /// of reading the base data themselves. Results-neutral by
    /// construction — every attacher replays the exact solo row
    /// sequence — so counters and `total(Q)` are unchanged; only the
    /// number of physical passes drops. `None` (the default) scans
    /// directly. Callers running fault schedules should leave this
    /// unset: sharing changes *which* session performs each physical
    /// read, which is exactly what read-fault plans key on.
    pub scan_share: Option<Arc<qp_storage::ScanShare>>,
    /// Morsel / batch sizing (results-neutral; see [`ExecTuning`]).
    pub tuning: ExecTuning,
}

/// Performance knobs for one query run. Neither knob may change results,
/// counters, or estimator readings — the parallel-equivalence suite runs
/// the whole matrix of sizes against the serial row-at-a-time run and
/// asserts byte-identical output, so these are *schedule* parameters, not
/// semantics parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecTuning {
    /// Rows per work-stealing morsel for parallel scans (`0` = one
    /// whole-input morsel, i.e. static single-chunk dispatch). Smaller
    /// morsels adapt better to skewed per-row cost; larger ones amortize
    /// the claim. See `qp_storage::MorselDispenser`.
    pub morsel_rows: usize,
    /// Rows moved per `next_batch` call on the hot producing path
    /// (clamped to ≥ 1). Batch boundaries are where counters flush and
    /// interrupts are checked, so a cancel/deadline lands within one
    /// batch's worth of work instead of one tuple's.
    pub batch_rows: usize,
}

impl Default for ExecTuning {
    fn default() -> ExecTuning {
        ExecTuning {
            morsel_rows: 1024,
            batch_rows: 256,
        }
    }
}

/// Shared execution state: counters, the registered observer, the
/// cancellation flag, and the fault/deadline controls.
///
/// A context is either the *root* of a query or a *fork* created for one
/// `Exchange` worker: forks share the root's counters, observer, cancel
/// token, deadline, and observability sink, but carry their own fault
/// schedule keyed to a morsel-local getnext clock (shared-total keys would
/// make fault positions depend on thread interleaving, and worker-local
/// keys would make them depend on which worker steals which morsel).
pub struct ExecContext {
    counters: Arc<Counters>,
    observer: Arc<Mutex<Option<Box<dyn Observer>>>>,
    /// Mirror of `observer.is_some()`, shared root↔forks — the hot-path
    /// emit check, so unobserved runs never touch the observer mutex.
    has_observer: Arc<AtomicBool>,
    cancel: CancelToken,
    deadline: Option<Instant>,
    /// `true` iff this context can ever fire a fault — a live plan in
    /// `faults`, or (for forks) a non-empty morsel prototype that claims
    /// will derive per-morsel plans from. Read on the hot path so the
    /// zero-fault case never touches the mutex.
    has_faults: bool,
    faults: Mutex<Option<FaultPlan>>,
    /// Pristine copy of the fault schedule this query was started with
    /// (root contexts only) — the source `Exchange` derives per-exchange
    /// schedules from.
    fault_proto: Option<FaultPlan>,
    /// This worker fork's share source (forks only): the *exchange-level*
    /// schedule, from which [`ExecContext::install_morsel_faults`] derives
    /// a per-morsel schedule at every claim. Shared by all workers of one
    /// exchange — which worker claims a morsel must not matter.
    morsel_proto: Option<Arc<FaultPlan>>,
    /// Morsel-local getnext clock (forks only): counts rows produced
    /// under *this* context since the last morsel claim, and keys the
    /// fork's fault schedule so a seed pins fault positions independent
    /// of thread scheduling *and* of work stealing.
    fault_clock: Option<AtomicU64>,
    obs: Option<Arc<QueryObs>>,
    /// Span sink shared by the root and every fork (`None` = no spans).
    spans: Option<Arc<SpanSink>>,
    /// Session id spans are tagged with.
    span_query: u64,
    /// The span id newly opened operators nest under. The root query
    /// sets it to the pipeline span; each Exchange worker re-points its
    /// fork's copy at the worker's own span before building the
    /// partition chain — which is exactly what makes operator spans
    /// nest under the worker that ran them. Atomic because the fork is
    /// created on the coordinating thread but re-pointed on the worker
    /// thread.
    span_parent: AtomicU64,
    /// Shared-scan registry (`None` = scan base data directly).
    scan_share: Option<Arc<qp_storage::ScanShare>>,
    /// Morsel / batch sizing, inherited by forks.
    tuning: ExecTuning,
}

impl ExecContext {
    /// Creates a context for a plan with `n_nodes` nodes.
    pub fn new(n_nodes: usize) -> Arc<ExecContext> {
        ExecContext::with_controls(n_nodes, RunControls::default())
    }

    /// Creates a context under full [`RunControls`].
    pub fn with_controls(n_nodes: usize, controls: RunControls) -> Arc<ExecContext> {
        ExecContext::build(n_nodes, controls, true)
    }

    /// Like [`ExecContext::with_controls`], but with the root-keyed live
    /// fault schedule retired: only [`ExecContext::fault_proto`] is kept,
    /// for `Exchange` builds to derive per-fork schedules from. Used for
    /// plans containing `Exchange` nodes — every fault point is handed to
    /// exactly one partition fork there, so letting the root context fire
    /// the same points again (keyed to the interleaving-dependent shared
    /// total) would double-inject them.
    pub(crate) fn with_controls_faults_forked(
        n_nodes: usize,
        controls: RunControls,
    ) -> Arc<ExecContext> {
        ExecContext::build(n_nodes, controls, false)
    }

    fn build(n_nodes: usize, controls: RunControls, root_faults_live: bool) -> Arc<ExecContext> {
        let live = if root_faults_live {
            controls.faults.clone()
        } else {
            None
        };
        let has_faults = live.as_ref().is_some_and(|f| !f.is_empty());
        if let Some(obs) = &controls.obs {
            debug_assert_eq!(obs.len(), n_nodes, "QueryObs arity must match the plan");
        }
        let (spans, span_query, span_parent) = match controls.spans {
            Some(attach) => (Some(attach.sink), attach.query, attach.parent),
            None => (None, 0, 0),
        };
        Arc::new(ExecContext {
            counters: Arc::new(Counters::new(n_nodes)),
            observer: Arc::new(Mutex::new(None)),
            has_observer: Arc::new(AtomicBool::new(false)),
            cancel: controls.cancel,
            deadline: controls.deadline,
            has_faults,
            fault_proto: controls.faults,
            faults: Mutex::new(live),
            morsel_proto: None,
            fault_clock: None,
            obs: controls.obs,
            spans,
            span_query,
            span_parent: AtomicU64::new(span_parent),
            scan_share: controls.scan_share,
            tuning: controls.tuning,
        })
    }

    /// Creates a worker fork of `parent` for one `Exchange` worker:
    /// counters, observer, cancel token, deadline, tuning, and
    /// observability sink are shared (so every worker bumps the same
    /// per-node atomics); the fork fires faults from per-morsel schedules
    /// derived from `morsel_proto` (the exchange-level share of the
    /// query's plan) at every morsel claim, keyed to a fresh morsel-local
    /// getnext clock — see [`ExecContext::install_morsel_faults`].
    pub(crate) fn fork(
        parent: &ExecContext,
        morsel_proto: Option<Arc<FaultPlan>>,
    ) -> Arc<ExecContext> {
        let has_faults = morsel_proto.as_ref().is_some_and(|f| !f.is_empty());
        Arc::new(ExecContext {
            counters: Arc::clone(&parent.counters),
            observer: Arc::clone(&parent.observer),
            has_observer: Arc::clone(&parent.has_observer),
            cancel: parent.cancel.clone(),
            deadline: parent.deadline,
            has_faults,
            fault_proto: None,
            faults: Mutex::new(None),
            morsel_proto,
            fault_clock: Some(AtomicU64::new(0)),
            obs: parent.obs.clone(),
            spans: parent.spans.clone(),
            span_query: parent.span_query,
            // Inherit the parent's current span; the Exchange worker
            // re-points this at its own worker span before any operator
            // in the partition chain opens.
            span_parent: AtomicU64::new(parent.span_parent.load(Ordering::Relaxed)),
            scan_share: parent.scan_share.clone(),
            tuning: parent.tuning,
        })
    }

    /// The shared-scan registry this query attaches scans to, if any.
    pub fn scan_share(&self) -> Option<&Arc<qp_storage::ScanShare>> {
        self.scan_share.as_ref()
    }

    /// The pristine fault schedule this (root) context was created with,
    /// from which `Exchange` derives per-exchange schedules.
    pub(crate) fn fault_proto(&self) -> Option<&FaultPlan> {
        self.fault_proto.as_ref()
    }

    /// Installs the fault schedule for a freshly claimed morsel: derives
    /// the morsel's share of this fork's exchange-level schedule (point
    /// `at_getnext` goes to morsel `at_getnext % of`, remapped to the
    /// morsel-local index `at_getnext / of`) and resets the fork's getnext
    /// clock to zero.
    ///
    /// Called by an exchange worker's scan leaf at every [`claim`].
    /// Because the derivation depends only on `(morsel, of)` — never on
    /// *which* worker claimed — and each morsel is claimed exactly once,
    /// every fault point fires in exactly one morsel at a replayable
    /// morsel-local index, no matter how stealing interleaves.
    ///
    /// [`claim`]: qp_storage::MorselDispenser::claim
    pub(crate) fn install_morsel_faults(&self, morsel: usize, of: usize) {
        let Some(proto) = &self.morsel_proto else {
            return;
        };
        let derived = proto.for_partition(morsel, of);
        let mut faults = match self.faults.lock() {
            Ok(g) => g,
            // Same recovery as `check_faults`: an injected panic unwound
            // through the mutex, but the plan state is still coherent.
            Err(poisoned) => poisoned.into_inner(),
        };
        *faults = if derived.is_empty() {
            None
        } else {
            Some(derived)
        };
        if let Some(clock) = &self.fault_clock {
            clock.store(0, Ordering::Relaxed);
        }
    }

    /// The morsel / batch sizing this query runs under.
    #[inline]
    pub fn tuning(&self) -> ExecTuning {
        self.tuning
    }

    /// Registers the observer (at most one; the progress monitor multiplexes
    /// multiple estimators internally).
    pub fn set_observer(&self, obs: Box<dyn Observer>) {
        *self.observer.lock().expect("observer lock") = Some(obs);
        self.has_observer.store(true, Ordering::Release);
    }

    /// Removes and returns the observer (to inspect its findings after the
    /// run).
    pub fn take_observer(&self) -> Option<Box<dyn Observer>> {
        let taken = self.observer.lock().expect("observer lock").take();
        self.has_observer.store(false, Ordering::Release);
        taken
    }

    /// Whether an observer is currently registered (hot-path check for
    /// both the per-row emit and the batch-path degrade decision).
    #[inline]
    fn observed(&self) -> bool {
        self.has_observer.load(Ordering::Acquire)
    }

    /// Counter access.
    #[inline]
    pub fn counters(&self) -> &Counters {
        &self.counters
    }

    /// The cancellation token this query checks between getnext calls.
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// The observability sink this query reports into, if any.
    pub fn obs(&self) -> Option<&Arc<QueryObs>> {
        self.obs.as_ref()
    }

    /// The span sink this query records into, if any.
    pub fn span_sink(&self) -> Option<&Arc<SpanSink>> {
        self.spans.as_ref()
    }

    /// The session id spans are tagged with.
    pub fn span_query(&self) -> u64 {
        self.span_query
    }

    /// The span id newly opened operators currently nest under.
    pub fn span_parent(&self) -> u64 {
        self.span_parent.load(Ordering::Relaxed)
    }

    /// Re-points the operator-parent span (the executor sets the
    /// pipeline span here; each Exchange worker sets its worker span on
    /// its own fork before building the partition chain).
    pub fn set_span_parent(&self, span: u64) {
        self.span_parent.store(span, Ordering::Relaxed);
    }

    /// The single interrupt point of the execution model: cancellation,
    /// deadline, and fault injection are all evaluated here, at the top of
    /// every `Counted::open`/`next`. Keyed by the current total getnext
    /// count, so a fault plan replays at the identical tuple every run.
    /// `node` attributes interrupt events to the operator that observed
    /// them.
    #[inline]
    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn check_interrupts(&self, node: NodeId) -> ExecResult<()> {
        if self.cancel.is_cancelled() {
            #[cfg(feature = "obs")]
            if let Some(obs) = &self.obs {
                obs.on_cancel(node, self.counters.total());
                self.obs_interrupt_error(obs, node);
            }
            return Err(ExecError::Cancelled);
        }
        if let Some(deadline) = self.deadline {
            if Instant::now() >= deadline {
                #[cfg(feature = "obs")]
                if let Some(obs) = &self.obs {
                    obs.on_deadline(node, self.counters.total());
                    self.obs_interrupt_error(obs, node);
                }
                return Err(ExecError::DeadlineExceeded);
            }
        }
        if self.has_faults {
            self.check_faults(node)?;
        }
        Ok(())
    }

    /// Cold path: consult the fault plan at the current getnext index —
    /// the shared total for a root context, the partition-local clock for
    /// a fork (the shared total is interleaving-dependent mid-exchange).
    #[cold]
    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn check_faults(&self, node: NodeId) -> ExecResult<()> {
        let curr = match &self.fault_clock {
            Some(clock) => clock.load(Ordering::Relaxed),
            None => self.counters.total(),
        };
        let fired = {
            let mut faults = match self.faults.lock() {
                Ok(g) => g,
                // A previously injected panic unwound through this mutex;
                // the plan itself is still coherent (it only moves a
                // cursor forward), so recover and keep injecting.
                Err(poisoned) => poisoned.into_inner(),
            };
            faults.as_mut().and_then(|plan| plan.fire_at(curr))
        };
        let Some(point) = fired else { return Ok(()) };
        // Record before acting so even an injected panic leaves its event
        // in the flight recorder. Faults that surface as errors also count
        // on the node's error counter (a panic unwinds instead of
        // returning an error, and a delay succeeds, so neither does).
        #[cfg(feature = "obs")]
        if let Some(obs) = &self.obs {
            obs.on_fault(node, curr, fault_kind_code(&point.kind));
            if matches!(point.kind, FaultKind::StorageRead | FaultKind::ExecError) {
                self.obs_interrupt_error(obs, node);
            }
        }
        match point.kind {
            FaultKind::StorageRead => Err(ExecError::Storage(StorageError::ReadFailed(format!(
                "injected at getnext {curr}"
            )))),
            FaultKind::ExecError => Err(ExecError::Injected(format!(
                "operator fault at getnext {curr}"
            ))),
            FaultKind::Panic => panic!("injected panic at getnext {curr}"),
            FaultKind::Delay(d) => {
                std::thread::sleep(d);
                Ok(())
            }
        }
    }

    /// Cold path: an interrupt surfaced as an error on `node`. Counts it
    /// and syncs the node's producing-call mirror, so the observability
    /// counters are exact at the failure point. This is the *only* place
    /// hot-path errors are counted — they all originate here at the
    /// interrupt point (operator bodies can only fail during `open`),
    /// which is what keeps the untimed counters off the getnext fast
    /// path entirely.
    #[cfg(feature = "obs")]
    #[cold]
    fn obs_interrupt_error(&self, obs: &Arc<QueryObs>, node: NodeId) {
        obs.on_error(node);
        obs.set_rows(node, self.counters.node(node));
    }

    #[inline]
    fn emit(&self, ev: ExecEvent) {
        // Flag check first: the common unobserved run (benchmarks, the
        // serial side of equivalence tests) never touches the mutex.
        if !self.observed() {
            return;
        }
        if let Some(obs) = self.observer.lock().expect("observer lock").as_mut() {
            obs.on_event(ev, &self.counters);
        }
    }

    /// How many producing calls between observability mirror syncs
    /// (power of two: the cadence check is a single mask test on the
    /// count `record_row` just computed anyway).
    #[cfg(feature = "obs")]
    const OBS_SYNC_EVERY: u64 = 64;

    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn record_row(&self, node: NodeId) {
        let n = self.counters.per_node[node].fetch_add(1, Ordering::Relaxed) + 1;
        self.counters.total.fetch_add(1, Ordering::Relaxed);
        if let Some(clock) = &self.fault_clock {
            clock.fetch_add(1, Ordering::Relaxed);
        }
        // Observability rides on the count this method already maintains:
        // no extra per-call work, just a periodic mirror sync so METRICS
        // readers see live movement.
        #[cfg(feature = "obs")]
        if n & (ExecContext::OBS_SYNC_EVERY - 1) == 0 {
            if let Some(obs) = &self.obs {
                obs.set_rows(node, n);
            }
        }
        self.emit(ExecEvent::RowProduced(node));
    }

    /// Batched form of [`ExecContext::record_row`]: accounts `k` rows
    /// produced by `node` with one atomic add per counter, then syncs the
    /// observability mirror once at the batch boundary. The final values
    /// of every counter are identical to `k` calls of `record_row`; only
    /// the granularity at which a concurrent reader can observe them
    /// changes (and the obs mirror flushes *more* often — every batch vs
    /// every [`ExecContext::OBS_SYNC_EVERY`] rows).
    ///
    /// Callers guarantee no observer is registered — per-row
    /// [`ExecEvent`]s are not emitted here ([`Counted::next_batch`]
    /// degrades to the row path when one is).
    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn record_rows(&self, node: NodeId, k: u64) {
        let n = self.counters.per_node[node].fetch_add(k, Ordering::Relaxed) + k;
        self.counters.total.fetch_add(k, Ordering::Relaxed);
        if let Some(clock) = &self.fault_clock {
            clock.fetch_add(k, Ordering::Relaxed);
        }
        #[cfg(feature = "obs")]
        if let Some(obs) = &self.obs {
            obs.set_rows(node, n);
        }
    }

    /// Every `None` return (first exhaustion or a parent's re-poll) is a
    /// non-producing getnext call; it is also a quiescent point, so sync
    /// the observability mirror to the exact count.
    #[cfg_attr(not(feature = "obs"), allow(unused_variables))]
    fn record_none(&self, node: NodeId) {
        #[cfg(feature = "obs")]
        if let Some(obs) = &self.obs {
            obs.on_none(node);
            obs.set_rows(node, self.counters.node(node));
        }
    }

    /// One producer of `node` saw its final row. The node is exhausted —
    /// and [`ExecEvent::Exhausted`] emitted — only when the last producer
    /// reports in, so a partitioned subtree never finalizes a node's
    /// bounds while sibling partitions are still producing into it.
    fn record_producer_done(&self, node: NodeId) {
        if self.counters.producers[node].fetch_sub(1, Ordering::AcqRel) == 1 {
            self.counters.exhausted[node].store(true, Ordering::Relaxed);
            self.emit(ExecEvent::Exhausted(node));
        }
    }
}

/// The iterator-model operator interface (`open` / `next` / `close`).
///
/// Operators are `Send` so an `Exchange` can move partition subtrees onto
/// worker threads.
pub trait Operator: Send {
    /// Prepares the operator. Blocking operators (sort, hash-join build,
    /// hash aggregation) consume their inputs here.
    fn open(&mut self) -> ExecResult<()>;
    /// Produces the next row, or `None` when exhausted.
    fn next(&mut self) -> ExecResult<Option<Row>>;
    /// Produces up to `max` rows into `out`, returning `false` only
    /// when the operator is exhausted (no row will ever follow). A `true`
    /// return with a short batch — even *zero* rows — is legal and means
    /// "call again": scans end a batch at a morsel boundary so one batch
    /// never spans two morsels (which would smear fault/steal
    /// attribution).
    ///
    /// The default implementation loops [`Operator::next`], so every
    /// operator is batch-drivable; hot paths (scans, filter, project)
    /// override it to amortize per-row call overhead. Overrides must
    /// produce the exact row sequence `next` would — batching is a
    /// calling convention, not a semantics change.
    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        for _ in 0..max {
            match self.next()? {
                Some(row) => out.push(row),
                None => return Ok(false),
            }
        }
        Ok(true)
    }
    /// Releases resources.
    fn close(&mut self);
    /// Output schema.
    fn schema(&self) -> &Schema;
}

/// A boxed, counted operator — the only kind that appears in a runtime
/// tree. Parent operators hold `Counted` children, so *every* row crossing
/// an operator boundary is counted exactly once at the producing node.
///
/// `Counted` is also where cooperative cancellation bites: each `open` and
/// `next` first checks the context's [`CancelToken`]. Because every leaf of
/// the runtime tree is `Counted` and every blocking phase (sort buffering,
/// hash build) pumps a `Counted` child row by row, a cancelled query stops
/// within one tuple's worth of work no matter which pipeline is running.
pub struct Counted {
    inner: Box<dyn Operator>,
    node: NodeId,
    ctx: Arc<ExecContext>,
    /// Whether this instance has reported its exhaustion to the producer
    /// count (each `Counted` decrements exactly once, on its first
    /// `None`).
    done: bool,
    /// `false` for the transparent wrapper around an `Exchange`: it still
    /// checks interrupts, but records nothing — the exchange is pure
    /// plumbing, not a getnext producer, so the paper's accounting stays
    /// byte-identical to the serial plan.
    counting: bool,
    /// This wrapper's open operator span (0 = none). Begun at the
    /// *first* open only — re-opened operators (a nested-loop inner per
    /// outer row) must not mint a span per rescan — and ended exactly
    /// once, at close or drop, whichever comes first.
    span: u64,
    /// Whether the operator span was ever begun (sticky across close,
    /// so a reopened operator doesn't begin a second span).
    span_begun: bool,
    /// Whether this query runs with opt-in per-call timing — the *only*
    /// observability state `next` consults. `false` both when
    /// observability is absent and when it is untimed, so the untimed
    /// counters execute the exact same instruction stream as a bare run.
    #[cfg(feature = "obs")]
    obs_timed: bool,
    #[cfg(feature = "obs")]
    obs: Option<ObsBuffer>,
}

/// Per-operator observability handle. The producing hot path needs
/// *nothing* from it — producing calls are mirrored into [`QueryObs`]
/// straight from the executor's own per-node counter (see
/// [`ExecContext::record_row`]), exhaustion is counted in
/// `record_exhausted`, and errors at the interrupt point that raised
/// them. This handle only serves the cold flush points (close, drop)
/// and opt-in timing, which stages nanoseconds locally and flushes
/// every [`ObsBuffer::FLUSH_EVERY`] calls and at every quiescent point.
/// Terminal counters are exact; a concurrent reader lags by at most
/// one sync batch per still-producing node. This design is what keeps
/// the counters inside the < 5 % budget the `obs_overhead` bench
/// enforces: on the bench machine not even a plain per-call increment
/// in the wrapper fits that budget, so the untimed path carries zero
/// added instructions.
#[cfg(feature = "obs")]
struct ObsBuffer {
    sink: Arc<QueryObs>,
    /// Calls since the last timed flush (timed runs only).
    calls: u64,
    /// Staged wall-clock nanoseconds (timed runs only).
    ns: u64,
}

#[cfg(feature = "obs")]
impl ObsBuffer {
    const FLUSH_EVERY: u64 = 64;
}

impl Counted {
    pub fn new(inner: Box<dyn Operator>, node: NodeId, ctx: Arc<ExecContext>) -> Counted {
        Counted::wrap(inner, node, ctx, true)
    }

    /// A transparent wrapper: checks interrupts like any other node but
    /// records no getnext calls and never exhausts. Used for `Exchange`,
    /// which merely forwards its child's rows.
    pub(crate) fn transparent(
        inner: Box<dyn Operator>,
        node: NodeId,
        ctx: Arc<ExecContext>,
    ) -> Counted {
        Counted::wrap(inner, node, ctx, false)
    }

    fn wrap(
        inner: Box<dyn Operator>,
        node: NodeId,
        ctx: Arc<ExecContext>,
        counting: bool,
    ) -> Counted {
        #[cfg(feature = "obs")]
        let obs = ctx.obs.as_ref().map(|sink| ObsBuffer {
            sink: Arc::clone(sink),
            calls: 0,
            ns: 0,
        });
        Counted {
            inner,
            node,
            done: false,
            counting,
            span: 0,
            span_begun: false,
            #[cfg(feature = "obs")]
            obs_timed: ctx.obs.as_ref().is_some_and(|o| o.timed()),
            ctx,
            #[cfg(feature = "obs")]
            obs,
        }
    }

    /// The execution context this wrapper runs under (an `Exchange`
    /// reads its workers' forked contexts through this).
    pub(crate) fn ctx(&self) -> &Arc<ExecContext> {
        &self.ctx
    }

    /// Begins this wrapper's operator span on the first open. The
    /// parent is read from the context *at open time*: on a worker fork
    /// that is the worker span the Exchange pointed the fork at.
    fn begin_span(&mut self) {
        if self.span_begun || !self.counting {
            return;
        }
        if let Some(sink) = &self.ctx.spans {
            self.span = sink.begin(
                self.ctx.span_query,
                self.ctx.span_parent(),
                SpanKind::Operator,
                self.node as u64,
            );
            self.span_begun = true;
        }
    }

    /// Ends the operator span exactly once (close or drop).
    fn end_span(&mut self) {
        if self.span == 0 {
            return;
        }
        if let Some(sink) = &self.ctx.spans {
            sink.end(
                self.ctx.span_query,
                self.span,
                self.ctx.span_parent(),
                SpanKind::Operator,
                self.node as u64,
            );
        }
        self.span = 0;
    }

    /// The uninstrumented getnext body (also the timed region of the
    /// observed path — the duration is inclusive of child calls).
    #[inline]
    fn next_inner(&mut self) -> ExecResult<Option<Row>> {
        self.ctx.check_interrupts(self.node)?;
        match self.inner.next()? {
            Some(row) => {
                if self.counting {
                    self.ctx.record_row(self.node);
                }
                Ok(Some(row))
            }
            None => {
                if self.counting {
                    self.ctx.record_none(self.node);
                    if !self.done {
                        self.done = true;
                        self.ctx.record_producer_done(self.node);
                    }
                }
                Ok(None)
            }
        }
    }

    /// The timed getnext path (opt-in): brackets the call with two
    /// `Instant::now()` reads, staging the nanoseconds locally and
    /// flushing every [`ObsBuffer::FLUSH_EVERY`] calls. Errors and
    /// exhaustion flush immediately so the shared counters are exact
    /// the moment a node stops producing.
    #[cfg(feature = "obs")]
    fn next_timed(&mut self) -> ExecResult<Option<Row>> {
        let started = Instant::now();
        let result = self.next_inner();
        let d = started.elapsed().as_nanos().min(u64::MAX as u128) as u64;
        let buf = self.obs.as_mut().expect("timed implies obs");
        // Per-call latency lands in the node's histogram immediately
        // (atomic buckets — no staging needed); cum_ns stays batched.
        buf.sink.record_latency(self.node, d);
        buf.ns += d;
        buf.calls += 1;
        if buf.calls >= ObsBuffer::FLUSH_EVERY || !matches!(&result, Ok(Some(_))) {
            self.flush_obs();
        }
        result
    }

    /// True when any per-call instrumentation is live for this query —
    /// observer events, opt-in timing, or a fault schedule keyed to exact
    /// getnext indices. Batch driving degrades to the row-at-a-time path
    /// then, so every instrument sees the identical per-row stream it
    /// would see in a serial run (a fault scheduled at getnext `i` fires
    /// after exactly `i` rows, not at the next batch boundary).
    #[inline]
    fn row_exact(&self) -> bool {
        #[cfg(feature = "obs")]
        if self.obs_timed {
            return true;
        }
        self.ctx.has_faults || self.ctx.observed()
    }

    /// Quiescent-point sync: mirrors the executor's producing count for
    /// this node into the shared [`QueryObs`] and flushes staged time.
    #[cfg(feature = "obs")]
    fn flush_obs(&mut self) {
        if let Some(buf) = &mut self.obs {
            buf.sink
                .set_rows(self.node, self.ctx.counters.node(self.node));
            if buf.ns > 0 {
                buf.sink.add_time(self.node, buf.ns);
                buf.ns = 0;
            }
            buf.calls = 0;
        }
    }
}

impl Drop for Counted {
    /// Errors and panics unwind without `close`; dropping the operator
    /// tree is the last flush point, so even fault-killed queries leave
    /// exact counters — and closed spans — behind.
    fn drop(&mut self) {
        #[cfg(feature = "obs")]
        self.flush_obs();
        self.end_span();
    }
}

impl Operator for Counted {
    fn open(&mut self) -> ExecResult<()> {
        // The span begins before the interrupt check, so an operator
        // whose open a cancel or deadline cut short still leaves its
        // (immediately closed) span in the trace.
        self.begin_span();
        self.ctx.check_interrupts(self.node)?;
        if self.counting {
            self.ctx.emit(ExecEvent::Open(self.node));
        }
        let result = self.inner.open();
        #[cfg(feature = "obs")]
        if result.is_err() {
            if let Some(buf) = &self.obs {
                buf.sink.on_error(self.node);
            }
        }
        result
    }

    fn next(&mut self) -> ExecResult<Option<Row>> {
        // Untimed counters ride for free: rows are mirrored from
        // `record_row`, exhaustion is counted in `record_exhausted`, and
        // errors at the interrupt point that raised them — so bare and
        // untimed-observed runs execute the same instructions here, both
        // paying only this one predictable branch.
        #[cfg(feature = "obs")]
        if self.obs_timed {
            return self.next_timed();
        }
        self.next_inner()
    }

    fn next_batch(&mut self, max: usize, out: &mut Vec<Row>) -> ExecResult<bool> {
        // Any live per-call instrumentation ⇒ take the exact row path,
        // one row per call (the batch driver handles short batches).
        if self.row_exact() {
            return match self.next()? {
                Some(row) => {
                    out.push(row);
                    Ok(true)
                }
                None => Ok(false),
            };
        }
        // One interrupt check per batch: a cancel or deadline lands
        // within one batch's worth of work (`ExecTuning::batch_rows`).
        self.ctx.check_interrupts(self.node)?;
        let before = out.len();
        let more = self.inner.next_batch(max.max(1), out)?;
        if self.counting {
            let produced = (out.len() - before) as u64;
            if produced > 0 {
                self.ctx.record_rows(self.node, produced);
            }
            if !more {
                self.ctx.record_none(self.node);
                if !self.done {
                    self.done = true;
                    self.ctx.record_producer_done(self.node);
                }
            }
        }
        Ok(more)
    }

    fn close(&mut self) {
        #[cfg(feature = "obs")]
        self.flush_obs();
        self.end_span();
        self.inner.close();
    }

    fn schema(&self) -> &Schema {
        self.inner.schema()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use qp_storage::{ColumnType, Value};

    /// A source producing `n` constant rows.
    struct Emit {
        n: u64,
        produced: u64,
        schema: Schema,
    }

    impl Operator for Emit {
        fn open(&mut self) -> ExecResult<()> {
            self.produced = 0;
            Ok(())
        }
        fn next(&mut self) -> ExecResult<Option<Row>> {
            if self.produced < self.n {
                self.produced += 1;
                Ok(Some(Row::new(vec![Value::Int(self.produced as i64)])))
            } else {
                Ok(None)
            }
        }
        fn close(&mut self) {}
        fn schema(&self) -> &Schema {
            &self.schema
        }
    }

    fn emit(n: u64) -> Box<Emit> {
        Box::new(Emit {
            n,
            produced: 0,
            schema: Schema::of(&[("x", ColumnType::Int)]),
        })
    }

    struct Probe {
        events: Arc<Mutex<Vec<ExecEvent>>>,
    }

    impl Observer for Probe {
        fn on_event(&mut self, event: ExecEvent, _counters: &Counters) {
            self.events.lock().unwrap().push(event);
        }
    }

    #[test]
    fn counted_counts_rows_and_reports_events() {
        let ctx = ExecContext::new(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        ctx.set_observer(Box::new(Probe {
            events: Arc::clone(&events),
        }));
        let mut op = Counted::new(emit(3), 0, Arc::clone(&ctx));
        op.open().unwrap();
        while op.next().unwrap().is_some() {}
        // One extra next to check Exhausted fires once.
        assert!(op.next().unwrap().is_none());
        assert_eq!(ctx.counters().node(0), 3);
        assert_eq!(ctx.counters().total(), 3);
        assert!(ctx.counters().is_exhausted(0));
        assert_eq!(
            *events.lock().unwrap(),
            vec![
                ExecEvent::Open(0),
                ExecEvent::RowProduced(0),
                ExecEvent::RowProduced(0),
                ExecEvent::RowProduced(0),
                ExecEvent::Exhausted(0),
            ]
        );
    }

    #[test]
    fn batch_path_counts_exactly_like_the_row_path() {
        // Uninstrumented: next_batch takes the true batch path (the Emit
        // source only implements next(), so the default adapter loops it)
        // and must land the identical per-node count and total(Q),
        // including the exhaustion bookkeeping.
        let row_ctx = ExecContext::new(1);
        let mut row_op = Counted::new(emit(10), 0, Arc::clone(&row_ctx));
        row_op.open().unwrap();
        while row_op.next().unwrap().is_some() {}

        let batch_ctx = ExecContext::new(1);
        let mut batch_op = Counted::new(emit(10), 0, Arc::clone(&batch_ctx));
        batch_op.open().unwrap();
        let mut rows = Vec::new();
        while batch_op.next_batch(3, &mut rows).unwrap() {}
        assert_eq!(rows.len(), 10);
        assert_eq!(batch_ctx.counters().node(0), row_ctx.counters().node(0));
        assert_eq!(batch_ctx.counters().total(), row_ctx.counters().total());
        assert!(batch_ctx.counters().is_exhausted(0));
    }

    #[test]
    fn batch_path_degrades_to_single_rows_under_an_observer() {
        // With an observer registered, `row_exact()` forces one row per
        // next_batch pull so the per-row event stream is byte-identical
        // to a plain next() loop — same events, same order.
        let ctx = ExecContext::new(1);
        let events = Arc::new(Mutex::new(Vec::new()));
        ctx.set_observer(Box::new(Probe {
            events: Arc::clone(&events),
        }));
        let mut op = Counted::new(emit(3), 0, Arc::clone(&ctx));
        op.open().unwrap();
        let mut rows = Vec::new();
        let mut pulls = 0;
        while op.next_batch(64, &mut rows).unwrap() {
            pulls += 1;
        }
        assert_eq!(rows.len(), 3);
        assert_eq!(pulls, 3, "observer must force one row per pull");
        assert_eq!(
            *events.lock().unwrap(),
            vec![
                ExecEvent::Open(0),
                ExecEvent::RowProduced(0),
                ExecEvent::RowProduced(0),
                ExecEvent::RowProduced(0),
                ExecEvent::Exhausted(0),
            ]
        );
    }

    #[test]
    fn counters_are_readable_from_another_thread() {
        let ctx = ExecContext::new(1);
        let mut op = Counted::new(emit(1000), 0, Arc::clone(&ctx));
        op.open().unwrap();
        for _ in 0..600 {
            op.next().unwrap();
        }
        let observer_side = Arc::clone(&ctx);
        let seen = std::thread::spawn(move || observer_side.counters().total())
            .join()
            .unwrap();
        assert_eq!(seen, 600);
    }

    #[test]
    fn cancellation_aborts_mid_stream() {
        let ctx = ExecContext::new(1);
        let mut op = Counted::new(emit(1000), 0, Arc::clone(&ctx));
        op.open().unwrap();
        for _ in 0..10 {
            op.next().unwrap();
        }
        ctx.cancel_token().cancel();
        assert_eq!(op.next(), Err(ExecError::Cancelled));
        // The counters stop exactly where the query did.
        assert_eq!(ctx.counters().total(), 10);
        assert!(!ctx.counters().is_exhausted(0));
    }

    #[test]
    fn cancellation_before_open_blocks_the_query() {
        let token = CancelToken::new();
        token.cancel();
        let ctx = ExecContext::with_controls(
            1,
            RunControls {
                cancel: token,
                ..RunControls::default()
            },
        );
        let mut op = Counted::new(emit(3), 0, Arc::clone(&ctx));
        assert_eq!(op.open(), Err(ExecError::Cancelled));
    }

    #[test]
    fn expired_deadline_aborts_at_the_next_getnext() {
        let controls = RunControls {
            deadline: Some(Instant::now() - std::time::Duration::from_millis(1)),
            ..RunControls::default()
        };
        let ctx = ExecContext::with_controls(1, controls);
        let mut op = Counted::new(emit(3), 0, Arc::clone(&ctx));
        assert_eq!(op.open(), Err(ExecError::DeadlineExceeded));
    }

    #[test]
    fn injected_faults_fire_at_their_exact_getnext_index() {
        use qp_testkit::fault::FaultPoint;
        let plan = FaultPlan::from_points(vec![
            FaultPoint {
                at_getnext: 5,
                kind: FaultKind::ExecError,
            },
            FaultPoint {
                at_getnext: 7,
                kind: FaultKind::StorageRead,
            },
        ]);
        let controls = RunControls {
            faults: Some(plan),
            ..RunControls::default()
        };
        let ctx = ExecContext::with_controls(1, controls);
        let mut op = Counted::new(emit(100), 0, Arc::clone(&ctx));
        op.open().unwrap();
        for _ in 0..5 {
            op.next().unwrap();
        }
        // total() is now 5: the next call trips the first fault.
        assert!(matches!(op.next(), Err(ExecError::Injected(_))));
        // The counters did not advance past the fault.
        assert_eq!(ctx.counters().total(), 5);
        // Execution after an error is undefined for real operators, but
        // the interrupt layer itself keeps going: pumping to index 7
        // trips the storage fault.
        op.next().unwrap();
        op.next().unwrap();
        match op.next() {
            Err(ExecError::Storage(StorageError::ReadFailed(m))) => {
                assert!(m.contains("getnext 7"), "{m}")
            }
            other => panic!("expected injected storage error, got {other:?}"),
        }
    }

    #[test]
    fn empty_fault_plan_is_invisible() {
        let controls = RunControls {
            faults: Some(FaultPlan::none()),
            ..RunControls::default()
        };
        let ctx = ExecContext::with_controls(1, controls);
        let mut op = Counted::new(emit(50), 0, Arc::clone(&ctx));
        op.open().unwrap();
        let mut n = 0;
        while op.next().unwrap().is_some() {
            n += 1;
        }
        assert_eq!(n, 50);
        assert_eq!(ctx.counters().total(), 50);
    }

    #[cfg(feature = "obs")]
    #[test]
    fn observed_run_counts_calls_rows_and_faults() {
        use qp_obs::{EventKind, FlightRecorder, QueryObs};
        let recorder = Arc::new(FlightRecorder::new(64));
        let obs = QueryObs::new(7, vec!["Emit"], false, Some(Arc::clone(&recorder)));
        let controls = RunControls {
            faults: Some(FaultPlan::single(4, FaultKind::ExecError)),
            obs: Some(Arc::clone(&obs)),
            ..RunControls::default()
        };
        let ctx = ExecContext::with_controls(1, controls);
        assert!(ctx.obs().is_some());
        let mut op = Counted::new(emit(100), 0, Arc::clone(&ctx));
        op.open().unwrap();
        for _ in 0..4 {
            op.next().unwrap();
        }
        assert!(matches!(op.next(), Err(ExecError::Injected(_))));
        let stats = obs.node(0);
        // 5 next() calls: 4 produced rows, 1 tripped the fault.
        assert_eq!((stats.calls, stats.rows), (5, 4));
        assert_eq!((stats.errors, stats.faults), (1, 1));
        assert_eq!(stats.cum_ns, 0, "untimed run must not accumulate ns");
        let events = recorder.tail_for(7);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::FaultInjected);
        assert_eq!(
            (events[0].a, events[0].b),
            (4, fault_kind_code(&FaultKind::ExecError))
        );
    }

    #[cfg(feature = "obs")]
    #[test]
    fn timed_runs_accumulate_wall_clock() {
        use qp_obs::QueryObs;
        let obs = QueryObs::new(0, vec!["Emit"], true, None);
        let controls = RunControls {
            obs: Some(Arc::clone(&obs)),
            ..RunControls::default()
        };
        let ctx = ExecContext::with_controls(1, controls);
        let mut op = Counted::new(emit(50), 0, Arc::clone(&ctx));
        op.open().unwrap();
        while op.next().unwrap().is_some() {}
        let stats = obs.node(0);
        assert_eq!(stats.calls, 51);
        assert!(stats.cum_ns > 0, "timed run must accumulate ns");
    }

    #[cfg(feature = "obs")]
    #[test]
    fn cancel_and_deadline_are_attributed_to_the_recorder() {
        use qp_obs::{EventKind, FlightRecorder, QueryObs};
        let recorder = Arc::new(FlightRecorder::new(16));
        let obs = QueryObs::new(1, vec!["Emit"], false, Some(Arc::clone(&recorder)));
        let controls = RunControls {
            obs: Some(obs),
            ..RunControls::default()
        };
        let ctx = ExecContext::with_controls(1, controls);
        let mut op = Counted::new(emit(100), 0, Arc::clone(&ctx));
        op.open().unwrap();
        for _ in 0..3 {
            op.next().unwrap();
        }
        ctx.cancel_token().cancel();
        assert_eq!(op.next(), Err(ExecError::Cancelled));
        let events = recorder.tail_for(1);
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].kind, EventKind::CancelObserved);
        assert_eq!(events[0].a, 3, "cancel observed at getnext index 3");
    }

    #[test]
    fn fault_kind_codes_round_trip_to_names() {
        use std::time::Duration;
        for (kind, name) in [
            (FaultKind::StorageRead, "storage_read"),
            (FaultKind::ExecError, "exec_error"),
            (FaultKind::Panic, "panic"),
            (FaultKind::Delay(Duration::from_millis(1)), "delay"),
        ] {
            assert_eq!(fault_kind_name(fault_kind_code(&kind)), name);
        }
        assert_eq!(fault_kind_name(99), "unknown");
    }

    #[test]
    fn injected_panic_unwinds_out_of_getnext() {
        let controls = RunControls {
            faults: Some(FaultPlan::single(2, FaultKind::Panic)),
            ..RunControls::default()
        };
        let ctx = ExecContext::with_controls(1, controls);
        let op = std::sync::Mutex::new(Counted::new(emit(10), 0, Arc::clone(&ctx)));
        let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut op = op.lock().unwrap();
            op.open().unwrap();
            while op.next().unwrap().is_some() {}
        }));
        let err = caught.expect_err("the injected panic must unwind");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "?".into());
        assert!(msg.contains("injected panic at getnext 2"), "{msg}");
        assert_eq!(ctx.counters().total(), 2);
    }
}
