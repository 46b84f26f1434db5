//! Rendering the service's observability state for the wire.
//!
//! Two read-only views over the `qp-obs` state every session carries:
//!
//! * [`metrics_text`] — the `METRICS` verb's payload: Prometheus
//!   text-exposition of service gauges (uptime, sessions by state) and
//!   monotone counters (submissions, flight-recorder events, and the
//!   per-operator getnext/row/time/error/fault totals aggregated across
//!   every retained session).
//! * [`trace_jsonl`] — the `TRACE <id>` verb's payload: one JSON object
//!   per line describing a single session — a `meta` header, one
//!   `operator` line per plan node, the surviving `checkpoint` tail of
//!   the progress trajectory (`curr`/`lb`/`ub` plus every estimator), and
//!   the session's surviving flight-recorder `event`s.
//!
//! Both functions only read lock-free state (atomic counters and
//! seqlock-protected rings) plus the session registry's own mutex — they
//! never take a session's core lock, so a wedged or panicking query can
//! not block a scrape, and a scrape never perturbs the getnext hot path.

use crate::service::QueryService;
use crate::session::{QueryId, QueryState};
use qp_exec::fault_kind_name;
use qp_obs::json::Obj;
use qp_obs::prom::PromText;
use qp_obs::{Event, EventKind, NodeStatsSnapshot};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};

/// Every flight-recorder event kind, in discriminant order (the `METRICS`
/// exposition emits one `qp_recorder_events_total` sample per kind).
const EVENT_KINDS: [EventKind; 9] = [
    EventKind::SessionSubmitted,
    EventKind::StateChanged,
    EventKind::SnapshotPublished,
    EventKind::SnapshotClamped,
    EventKind::FaultInjected,
    EventKind::DeadlineExceeded,
    EventKind::CancelObserved,
    EventKind::PageEvicted,
    EventKind::SlowQuery,
];

/// Every lifecycle state, for the by-state session gauge (all states are
/// emitted, including zero-valued ones, so dashboards see stable series).
const STATES: [QueryState; 6] = [
    QueryState::Queued,
    QueryState::Running,
    QueryState::Finished,
    QueryState::Failed,
    QueryState::Cancelled,
    QueryState::TimedOut,
];

/// What one front-end event loop has done so far — counts only, bumped
/// with relaxed atomics (no clock is read), exported by [`metrics_text`]
/// as `qp_reactor_*{loop="i"}`.
#[derive(Debug, Default)]
pub struct ReactorStats {
    /// Returns from [`reactor::poll`](crate::reactor::poll).
    pub wakeups: AtomicU64,
    /// Ready entries those returns reported.
    pub ready_events: AtomicU64,
    /// Returns that reported nothing: the idle-reap tick.
    pub timeouts: AtomicU64,
    /// Sockets this loop adopted from the acceptor.
    pub accepted: AtomicU64,
    /// Largest response backlog any one connection has held, in bytes.
    pub outbuf_high_water: AtomicU64,
}

impl ReactorStats {
    /// Accounts one return from [`reactor::poll`](crate::reactor::poll) that reported `events` entries.
    pub fn woke(&self, events: usize) {
        self.wakeups.fetch_add(1, Ordering::Relaxed);
        self.ready_events
            .fetch_add(events as u64, Ordering::Relaxed);
        self.timeouts
            .fetch_add(u64::from(events == 0), Ordering::Relaxed);
    }
}

/// Renders the full Prometheus text-exposition payload for `METRICS`.
///
/// All `_total` series are monotone: sessions are retained after
/// completion, per-operator counters only ever `fetch_add`, and the
/// flight recorder's per-kind counts never reset — so two scrapes are
/// always ordered, which the observability integration test pins down.
pub fn metrics_text(service: &QueryService) -> String {
    let mut p = PromText::new();

    p.family(
        "qp_uptime_seconds",
        "gauge",
        "Seconds since the service started.",
    )
    .sample("qp_uptime_seconds", &[], service.uptime().as_secs_f64());

    p.family(
        "qp_sessions_submitted_total",
        "counter",
        "Sessions ever admitted (rejected submissions are not counted).",
    )
    .sample(
        "qp_sessions_submitted_total",
        &[],
        service.submitted_total() as f64,
    );

    let mut by_state: BTreeMap<&'static str, u64> =
        STATES.iter().map(|s| (s.as_str(), 0)).collect();
    for (_, state, _) in service.list() {
        *by_state.entry(state.as_str()).or_insert(0) += 1;
    }
    p.family(
        "qp_sessions",
        "gauge",
        "Retained sessions by lifecycle state.",
    );
    for state in STATES {
        p.sample(
            "qp_sessions",
            &[("state", state.as_str())],
            by_state[state.as_str()] as f64,
        );
    }

    let recorder = service.recorder();
    p.family(
        "qp_recorder_events_total",
        "counter",
        "Flight-recorder events recorded, by kind.",
    );
    for kind in EVENT_KINDS {
        p.sample(
            "qp_recorder_events_total",
            &[("kind", kind.as_str())],
            recorder.recorded_of(kind) as f64,
        );
    }
    p.family(
        "qp_recorder_dropped_total",
        "counter",
        "Flight-recorder events lost to ring wraparound.",
    )
    .sample("qp_recorder_dropped_total", &[], recorder.dropped() as f64);

    // Buffer-pool telemetry for paged databases. The pool is
    // shared database-wide, so these are service-level series (they are
    // what the pagecache experiment's per-hit-rate table comes from).
    if let Some(pool) = service.database().buffer_pool() {
        let s = pool.stats();
        let pool_counters: [(&str, &str, u64); 3] = [
            (
                "qp_pagecache_hits_total",
                "Buffer-pool page requests served from a resident frame.",
                s.hits,
            ),
            (
                "qp_pagecache_misses_total",
                "Buffer-pool page requests that had to read the page file.",
                s.misses,
            ),
            (
                "qp_pagecache_evictions_total",
                "Pages evicted to make room for a miss.",
                s.evictions,
            ),
        ];
        for (name, help, v) in pool_counters {
            p.family(name, "counter", help).sample(name, &[], v as f64);
        }
        p.family(
            "qp_pagecache_frames",
            "gauge",
            "Buffer-pool capacity in frames (SUBMIT PAGE_CACHE_FRAMES= resizes it).",
        )
        .sample("qp_pagecache_frames", &[], s.capacity as f64);
        p.family(
            "qp_pagecache_resident",
            "gauge",
            "Frames currently holding a page.",
        )
        .sample("qp_pagecache_resident", &[], s.resident as f64);
    }
    // Shared-scan effectiveness: how often concurrent sessions rode one
    // physical table pass instead of paying their own.
    if let Some(share) = service.scan_share() {
        use std::sync::atomic::Ordering::Relaxed;
        let s = share.stats();
        let scan_counters: [(&str, &str, u64); 5] = [
            (
                "qp_sharedscan_attaches_total",
                "Scans attached through the shared-scan registry.",
                s.attaches.load(Relaxed),
            ),
            (
                "qp_sharedscan_shared_attaches_total",
                "Attaches that joined an epoch already in flight (table passes avoided).",
                s.shared_attaches.load(Relaxed),
            ),
            (
                "qp_sharedscan_groups_total",
                "Shared-scan epochs started (one per physical pass).",
                s.groups.load(Relaxed),
            ),
            (
                "qp_sharedscan_rows_produced_total",
                "Rows physically read from tables by shared-scan producers.",
                s.rows_produced.load(Relaxed),
            ),
            (
                "qp_sharedscan_rows_served_total",
                "Rows replayed to attached scans (>= produced when sharing pays off).",
                s.rows_served.load(Relaxed),
            ),
        ];
        for (name, help, v) in scan_counters {
            p.family(name, "counter", help).sample(name, &[], v as f64);
        }
    }
    // Per-operator counters, aggregated across every retained session's
    // QueryObs by operator kind. Sessions are never evicted, so these
    // aggregates are monotone too.
    let mut ops: BTreeMap<&'static str, NodeStatsSnapshot> = BTreeMap::new();
    for session in service.sessions_snapshot() {
        let Some(obs) = session.obs() else { continue };
        for (&label, s) in obs.labels().iter().zip(obs.snapshot()) {
            let agg = ops.entry(label).or_default();
            agg.calls += s.calls;
            agg.rows += s.rows;
            agg.cum_ns += s.cum_ns;
            agg.errors += s.errors;
            agg.faults += s.faults;
        }
    }
    type Field = fn(&NodeStatsSnapshot) -> u64;
    let op_families: [(&str, &str, Field); 5] = [
        (
            "qp_getnext_calls_total",
            "GetNext calls per operator kind (the paper's unit of work).",
            |s| s.calls,
        ),
        (
            "qp_rows_total",
            "Rows produced per operator kind.",
            |s| s.rows,
        ),
        (
            "qp_exec_ns_total",
            "Wall-clock nanoseconds inside next() per operator kind (0 unless timed observation is on).",
            |s| s.cum_ns,
        ),
        (
            "qp_exec_errors_total",
            "GetNext calls that returned an error, per operator kind.",
            |s| s.errors,
        ),
        (
            "qp_faults_injected_total",
            "Injected faults that fired, per operator kind.",
            |s| s.faults,
        ),
    ];
    for (name, help, field) in op_families {
        p.family(name, "counter", help);
        for (op, agg) in &ops {
            p.sample(name, &[("op", op)], field(agg) as f64);
        }
    }

    // Span-sink health: recorded/dropped marks across all sessions.
    let spans = service.span_sink();
    p.family(
        "qp_span_marks_total",
        "counter",
        "Span begin/end marks recorded across all sessions.",
    )
    .sample("qp_span_marks_total", &[], spans.recorded() as f64);
    p.family(
        "qp_span_marks_dropped_total",
        "counter",
        "Span marks lost to ring wraparound.",
    )
    .sample("qp_span_marks_dropped_total", &[], spans.dropped() as f64);

    // End-to-end latency histograms (exact cumulative buckets; edges are
    // the histogram's own power-of-two boundaries).
    let queue = service.queue_hist().snapshot();
    p.family(
        "qp_queue_latency_ns",
        "histogram",
        "Admission-to-worker-pickup latency per session, nanoseconds.",
    )
    .histogram(
        "qp_queue_latency_ns",
        &[],
        &queue.le_buckets(),
        queue.sum,
        queue.count,
    );
    let run = service.run_hist().snapshot();
    p.family(
        "qp_run_latency_ns",
        "histogram",
        "Worker-pickup-to-terminal latency per session, nanoseconds.",
    )
    .histogram(
        "qp_run_latency_ns",
        &[],
        &run.le_buckets(),
        run.sum,
        run.count,
    );

    // Per-verb server request latency (populated once the TCP front-end
    // has served requests; zero-count series are elided).
    p.family(
        "qp_request_latency_ns",
        "histogram",
        "Server request handling latency by verb, nanoseconds.",
    );
    for (verb, hist) in crate::protocol::VERBS.iter().zip(service.verb_hists()) {
        let snap = hist.snapshot();
        if snap.count == 0 {
            continue;
        }
        p.histogram(
            "qp_request_latency_ns",
            &[("verb", verb)],
            &snap.le_buckets(),
            snap.sum,
            snap.count,
        );
    }

    // The front end's event loops: how often each woke and why.
    let loops = service.reactor_loops();
    type Count = fn(&ReactorStats) -> &AtomicU64;
    let reactor_families: [(&str, &str, &str, Count); 5] = [
        (
            "qp_reactor_wakeups_total",
            "counter",
            "Returns from poll(2), per event loop.",
            |s| &s.wakeups,
        ),
        (
            "qp_reactor_ready_events_total",
            "counter",
            "Ready descriptors those returns reported, per event loop.",
            |s| &s.ready_events,
        ),
        (
            "qp_reactor_timeouts_total",
            "counter",
            "Returns from poll(2) with nothing ready (the idle-reap tick), per event loop.",
            |s| &s.timeouts,
        ),
        (
            "qp_reactor_accepted_total",
            "counter",
            "Connections adopted from the acceptor, per event loop.",
            |s| &s.accepted,
        ),
        (
            "qp_reactor_outbuf_high_water_bytes",
            "gauge",
            "Largest response backlog one connection has held, per event loop.",
            |s| &s.outbuf_high_water,
        ),
    ];
    for (name, kind, help, count) in reactor_families {
        p.family(name, kind, help);
        for (i, stats) in loops.iter().enumerate() {
            let v = count(stats).load(Ordering::Relaxed);
            p.sample(name, &[("loop", &i.to_string())], v as f64);
        }
    }

    // Per-operator getnext latency, merged across every *timed* session
    // (opt-in via ServiceConfig::timed_obs, like qp_exec_ns_total).
    let mut op_hists: BTreeMap<&'static str, qp_obs::LatencyHistogram> = BTreeMap::new();
    for session in service.sessions_snapshot() {
        let Some(obs) = session.obs() else { continue };
        for (node, &label) in obs.labels().iter().enumerate() {
            if let Some(h) = obs.node_hist(node) {
                op_hists.entry(label).or_default().merge_from(h);
            }
        }
    }
    if !op_hists.is_empty() {
        p.family(
            "qp_getnext_latency_ns",
            "histogram",
            "Per-getnext latency by operator kind (timed sessions only), nanoseconds.",
        );
        for (op, hist) in &op_hists {
            let snap = hist.snapshot();
            p.histogram(
                "qp_getnext_latency_ns",
                &[("op", op)],
                &snap.le_buckets(),
                snap.sum,
                snap.count,
            );
        }
    }

    // Postmortem headline numbers for the retained audit window.
    let postmortems = service.postmortems();
    p.family(
        "qp_audit_retained",
        "gauge",
        "Finished sessions with a retained estimator postmortem.",
    )
    .sample("qp_audit_retained", &[], postmortems.len() as f64);
    if !postmortems.is_empty() {
        p.family(
            "qp_audit_max_ratio",
            "gauge",
            "Maximum estimator ratio error per retained session postmortem.",
        );
        for pm in &postmortems {
            let query = format!("q{}", pm.query);
            for score in &pm.scores {
                p.sample(
                    "qp_audit_max_ratio",
                    &[("query", &query), ("estimator", &score.name)],
                    score.max_ratio,
                );
            }
        }
    }

    p.finish()
}

/// Renders the `AUDIT [<id>]` JSONL payload: one flat object per
/// (session, estimator), newest session last. With an id, only that
/// session's postmortem — `None` when it is unknown or fell out of the
/// retention window. Without an id, every retained postmortem (an empty
/// vec is a legal answer: nothing has finished yet).
pub fn audit_jsonl(service: &QueryService, id: Option<QueryId>) -> Option<Vec<String>> {
    match id {
        Some(id) => service.postmortem(id).map(|pm| pm.to_jsonl()),
        None => Some(
            service
                .postmortems()
                .iter()
                .flat_map(|pm| pm.to_jsonl())
                .collect(),
        ),
    }
}

/// Renders the `TRACE <id>` JSONL payload: `meta`, `operator`,
/// `checkpoint`, and `event` lines (in that order), or `None` for an
/// unknown id. Works on live and dead sessions alike — the whole point of
/// the flight recorder is that a `FAILED` session's tail is still here.
pub fn trace_jsonl(service: &QueryService, id: QueryId) -> Option<Vec<String>> {
    let session = service.session(id)?;
    let mut lines = Vec::new();

    let mut meta = Obj::new()
        .str("type", "meta")
        .str("id", &id.to_string())
        .str("state", session.state().as_str())
        .str("health", &session.progress_cell().health().to_string())
        .str("trust", session.progress_cell().trust().as_str())
        .str("sql", session.sql());
    if let Some(result) = session.result() {
        meta = meta
            .u64("rows", result.rows.len() as u64)
            .u64("total_getnext", result.total_getnext);
    }
    if let Some(error) = session.error() {
        meta = meta.str("error", &error);
    }
    if let Some(trace) = session.trace_buffer() {
        meta = meta
            .u64("checkpoints", trace.pushed())
            .u64("checkpoints_dropped", trace.dropped());
    }
    lines.push(meta.finish());

    if let Some(obs) = session.obs() {
        for (node, (&label, s)) in obs.labels().iter().zip(obs.snapshot()).enumerate() {
            lines.push(
                Obj::new()
                    .str("type", "operator")
                    .u64("node", node as u64)
                    .str("op", label)
                    .u64("calls", s.calls)
                    .u64("rows", s.rows)
                    .u64("cum_ns", s.cum_ns)
                    .u64("errors", s.errors)
                    .u64("faults", s.faults)
                    .finish(),
            );
        }
    }

    if let Some(trace) = session.trace_buffer() {
        for pt in trace.tail() {
            let mut o = Obj::new()
                .str("type", "checkpoint")
                .u64("seq", pt.seq)
                .u64("curr", pt.curr)
                .u64("lb", pt.lb);
            // An unknown upper bound travels as u64::MAX in the ring and
            // renders as null (JSON has no infinity).
            o = if pt.ub == u64::MAX {
                o.f64("ub", f64::INFINITY)
            } else {
                o.u64("ub", pt.ub)
            };
            for (name, est) in session.progress_cell().names().iter().zip(&pt.estimates) {
                o = o.f64(name, *est);
            }
            lines.push(o.finish());
        }
    }

    for e in service.recorder().tail_for(id.0) {
        lines.push(event_line(&e).finish());
    }

    Some(lines)
}

/// One flight-recorder event as a JSONL object, with the kind-specific
/// payload words decoded into named fields.
fn event_line(e: &Event) -> Obj {
    let o = Obj::new()
        .str("type", "event")
        .u64("seq", e.seq)
        .u64("t_micros", e.t_micros)
        .str("kind", e.kind.as_str());
    let state_name = |code: u64| QueryState::from_code(code).map_or("unknown", QueryState::as_str);
    match e.kind {
        EventKind::SessionSubmitted => o,
        EventKind::StateChanged => o.str("to", state_name(e.a)).str("from", state_name(e.b)),
        EventKind::SnapshotPublished => o.u64("curr", e.a).u64("lb", e.b),
        EventKind::SnapshotClamped => o.u64("curr", e.a),
        EventKind::FaultInjected => o.u64("getnext", e.a).str("fault", fault_kind_name(e.b)),
        EventKind::DeadlineExceeded | EventKind::CancelObserved => {
            o.u64("getnext", e.a).u64("node", e.b)
        }
        EventKind::PageEvicted => o.u64("pager", e.a).u64("page", e.b),
        EventKind::SlowQuery => o
            .u64("worst_ratio_milli", e.a)
            .str("trust", trust_name(e.b)),
    }
}

/// Decodes the trust code a `SlowQuery` event carries (the discriminants
/// of [`qp_progress::shared::Trust`]).
fn trust_name(code: u64) -> &'static str {
    match code {
        0 => "ok",
        1 => "degraded",
        2 => "fallback",
        _ => "unknown",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::service::{ServiceConfig, ESTIMATORS};
    use qp_datagen::{TpchConfig, TpchDb};
    use std::sync::Arc;

    fn tiny_service() -> QueryService {
        let t = TpchDb::generate(TpchConfig {
            scale: 0.002,
            z: 1.0,
            seed: 7,
        });
        QueryService::new(
            Arc::new(t.db),
            ServiceConfig {
                workers: 1,
                stride: Some(10),
                ..ServiceConfig::default()
            },
        )
    }

    #[test]
    fn metrics_cover_sessions_recorder_and_operators() {
        let service = tiny_service();
        let id = service.submit("SELECT COUNT(*) AS n FROM nation").unwrap();
        assert_eq!(service.wait(id), Some(QueryState::Finished));

        let text = metrics_text(&service);
        assert!(text.contains("# TYPE qp_uptime_seconds gauge"), "{text}");
        assert!(text.contains("qp_sessions_submitted_total 1"), "{text}");
        assert!(text.contains("qp_sessions{state=\"FINISHED\"} 1"), "{text}");
        assert!(
            text.contains("qp_recorder_events_total{kind=\"session_submitted\"} 1"),
            "{text}"
        );
        // The scan over `nation` must show up as operator work.
        let calls_line = text
            .lines()
            .find(|l| l.starts_with("qp_getnext_calls_total{op=\"SeqScan\"}"))
            .unwrap_or_else(|| panic!("no SeqScan sample in:\n{text}"));
        let calls: f64 = calls_line.rsplit(' ').next().unwrap().parse().unwrap();
        assert!(calls > 0.0, "{calls_line}");
    }

    #[test]
    fn trace_lines_parse_and_carry_the_trajectory() {
        let service = tiny_service();
        let id = service
            .submit("SELECT COUNT(*) AS n FROM lineitem")
            .unwrap();
        assert_eq!(service.wait(id), Some(QueryState::Finished));

        let lines = trace_jsonl(&service, id).expect("known session");
        assert!(lines.len() > 3, "{lines:?}");
        let values: Vec<_> = lines
            .iter()
            .map(|l| qp_obs::json::parse(l).expect("valid JSONL"))
            .collect();
        assert_eq!(values[0].get("type").and_then(|v| v.as_str()), Some("meta"));
        assert_eq!(
            values[0].get("state").and_then(|v| v.as_str()),
            Some("FINISHED")
        );
        assert_eq!(values[0].get("trust").and_then(|v| v.as_str()), Some("ok"));
        let kinds: Vec<_> = values
            .iter()
            .filter_map(|v| v.get("type").and_then(|t| t.as_str()))
            .collect();
        assert!(kinds.contains(&"operator"), "{kinds:?}");
        assert!(kinds.contains(&"checkpoint"), "{kinds:?}");
        assert!(kinds.contains(&"event"), "{kinds:?}");
        // Checkpoints carry every estimator and a non-decreasing curr.
        let currs: Vec<u64> = values
            .iter()
            .filter(|v| v.get("type").and_then(|t| t.as_str()) == Some("checkpoint"))
            .map(|v| {
                for name in ESTIMATORS {
                    assert!(v.get(name).is_some(), "missing {name}: {v:?}");
                }
                v.get("curr").and_then(|c| c.as_u64()).unwrap()
            })
            .collect();
        assert!(!currs.is_empty());
        assert!(currs.windows(2).all(|w| w[0] <= w[1]), "{currs:?}");

        assert!(trace_jsonl(&service, QueryId(999)).is_none());
    }
}
