//! Per-layer probes for the traced run: each crate is timed from outside
//! through its public functions, counters and hooks — nothing here
//! reaches into a crate's internals, and nothing here runs during an
//! untraced (end-to-end) measurement.

use crate::report::Metric;
use crate::setup::Env;
use crate::stats::{median, median_f64};
use crate::tracer::Tracer;
use qp_datagen::{RowOrder, SyntheticConfig, SyntheticDb};
use qp_exec::executor::QueryRun;
use qp_exec::expr::{AggExpr, CmpOp, Expr};
use qp_exec::plan::{JoinType, Plan, PlanBuilder};
use qp_exec::{Counters, ExecEvent, Observer, RunControls, SpanAttach};
use qp_obs::{FlightRecorder, LatencyHistogram, QueryObs, SpanKind, SpanSink, TraceBuffer};
use qp_progress::{BoundsTracker, PlanMeta, ProgressCell, ProgressMonitor};
use qp_service::protocol::{status_line, Request};
use qp_service::reactor::LineFramer;
use qp_service::{ServiceConfig, StatusLine, SubmitOptions, ESTIMATORS};
use qp_stats::DbStats;
use qp_storage::{Database, Value};
use qp_testkit::rng::TestRng;
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Numbers the caller needs to close the layer rows on the end-to-end ones.
#[derive(Debug, Default)]
pub struct Closure {
    /// Σ over the suite of one run with a no-op observer, at the
    /// workload's own parallelism, ns.
    pub exec_pass_ns: f64,
    /// Σ over the suite of the time spent inside the progress monitor, ns.
    pub observer_pass_ns: f64,
}

struct NoOp;

impl Observer for NoOp {
    fn on_event(&mut self, _event: ExecEvent, _counters: &Counters) {}
}

/// What [`TimedMonitor`] measured, handed back through a shared slot when
/// the executor drops its observer.
#[derive(Debug, Default)]
struct ObserverStats {
    calls: u64,
    total_ns: u64,
    /// Calls that took a checkpoint (a stride multiple or an exhaustion).
    snapshot_ns: Vec<u64>,
}

/// The hook the layer is timed through: an `Observer` that clocks every
/// `on_event` before delegating to the real `ProgressMonitor`.
struct TimedMonitor {
    inner: ProgressMonitor,
    stride: u64,
    rows: u64,
    stats: ObserverStats,
    sink: Arc<Mutex<ObserverStats>>,
}

impl Observer for TimedMonitor {
    fn on_event(&mut self, event: ExecEvent, counters: &Counters) {
        let snapshots = match event {
            ExecEvent::RowProduced(_) => {
                self.rows += 1;
                self.rows.is_multiple_of(self.stride)
            }
            ExecEvent::Exhausted(_) => true,
            ExecEvent::Open(_) => false,
        };
        let t = Instant::now();
        self.inner.on_event(event, counters);
        let ns = t.elapsed().as_nanos() as u64;
        self.stats.calls += 1;
        self.stats.total_ns += ns;
        if snapshots {
            self.stats.snapshot_ns.push(ns);
        }
    }
}

impl Drop for TimedMonitor {
    fn drop(&mut self) {
        if let Ok(mut sink) = self.sink.lock() {
            *sink = std::mem::take(&mut self.stats);
        }
    }
}

/// Batches every loop probe is timed in; the median batch is reported.
const BATCHES: u64 = 5;

/// Median ns per iteration of `f` over [`BATCHES`] batches of `iters`,
/// as a metric carrying the iteration count behind it.
fn loop_ns(name: &str, iters: u64, mut f: impl FnMut()) -> Metric {
    let samples: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t = Instant::now();
            for _ in 0..iters {
                f();
            }
            t.elapsed().as_nanos() as f64 / iters as f64
        })
        .collect();
    Metric::new(name, median_f64(&samples), "ns").n(BATCHES * iters)
}

/// What an empty timed interval reads: the clock's own share of every
/// interval [`TimedMonitor`] measures.
fn clock_ns() -> f64 {
    const N: u64 = 100_000;
    let mut total = 0u64;
    for _ in 0..N {
        let t = Instant::now();
        total += black_box(t.elapsed()).as_nanos() as u64;
    }
    total as f64 / N as f64
}

fn suite_plans(env: &Env, db: &Database, stats: &DbStats) -> Result<Vec<Plan>, String> {
    env.oracle
        .iter()
        .map(|o| {
            let mut plan = qp_sql::sql_to_plan(o.sql, db, stats).map_err(|e| e.to_string())?;
            qp_exec::estimate::annotate(&mut plan, stats);
            Ok(plan)
        })
        .collect()
}

/// The controls a service worker runs a session under (`run_job`):
/// per-operator counters, default-on spans and the shared-scan registry.
fn session_controls(plan: &Plan, config: &ServiceConfig) -> RunControls {
    let recorder = Arc::new(FlightRecorder::new(config.recorder_capacity));
    RunControls {
        obs: Some(QueryObs::new(
            1,
            plan.op_labels(),
            config.timed_obs,
            Some(recorder),
        )),
        spans: Some(SpanAttach {
            sink: Arc::new(SpanSink::new(config.span_capacity)),
            query: 1,
            parent: 0,
        }),
        scan_share: config
            .shared_scan
            .then(|| Arc::new(qp_storage::ScanShare::new())),
        ..RunControls::default()
    }
}

/// Runs `plan` the way a session runs it — session controls, an observer
/// attached (so the row path) — and returns `(ns, total getnext)`.
fn run_observed(
    plan: &Plan,
    db: &Database,
    config: &ServiceConfig,
    obs: Box<dyn Observer>,
) -> Result<(u64, u64), String> {
    let t = Instant::now();
    let mut run = QueryRun::with_controls(plan, db, session_controls(plan, config))
        .map_err(|e| e.to_string())?;
    run.set_observer(obs);
    let rows = run.run().map_err(|e| e.to_string())?;
    let ns = t.elapsed().as_nanos() as u64;
    black_box(rows.len());
    let total = run.context().counters().total();
    drop(run.take_observer());
    Ok((ns, total))
}

/// The monitor a service worker builds for a session (`run_job`), from
/// the same public pieces.
fn session_monitor(plan: &Plan, stats: &DbStats, config: &ServiceConfig) -> (ProgressMonitor, u64) {
    let meta = PlanMeta::from_plan(plan);
    let bounds = BoundsTracker::new(plan, Some(stats));
    let stride = config.stride.unwrap_or_else(|| {
        let hint: u64 = meta
            .scanned_leaves
            .iter()
            .filter_map(|&(_, c)| c)
            .sum::<u64>()
            .max(200);
        (hint / 200).max(1)
    });
    let suite = qp_progress::parse_suite(&ESTIMATORS.join(",")).expect("default estimator suite");
    let names: Vec<&'static str> = suite.iter().map(|e| e.name()).collect();
    let mut monitor = ProgressMonitor::new(meta, bounds, suite, stride);
    monitor.set_publisher(Arc::new(ProgressCell::new(names.clone())));
    monitor.set_recorder(Arc::new(FlightRecorder::new(config.recorder_capacity)), 1);
    monitor.set_trace_sink(Arc::new(TraceBuffer::new(
        config.trace_capacity,
        names.len(),
    )));
    (monitor, stride)
}

fn op_plans(s: &SyntheticDb) -> Result<Vec<(&'static str, Plan)>, String> {
    let e = |e: qp_exec::ExecError| e.to_string();
    let scan = |t: &str| PlanBuilder::scan(&s.db, t).map_err(e);
    let lt = Expr::cmp(CmpOp::Lt, Expr::Col(0), Expr::Lit(Value::Int(5_000)));
    Ok(vec![
        ("exec.op.scan_ns", scan("r2")?.build()),
        ("exec.op.filter_ns", scan("r2")?.filter(lt).build()),
        (
            "exec.op.hash_join_ns",
            scan("r1")?
                .hash_join(scan("r2")?, vec![0], vec![0], JoinType::Inner, true)
                .map_err(e)?
                .build(),
        ),
        (
            "exec.op.inl_join_ns",
            scan("r1")?
                .inl_join(&s.db, "r2", "r2_b", vec![0], JoinType::Inner, true, None)
                .map_err(e)?
                .build(),
        ),
        (
            "exec.op.merge_join_ns",
            scan("r1")?
                .sort(vec![(0, true)])
                .merge_join(
                    scan("r2")?.sort(vec![(0, true)]),
                    vec![0],
                    vec![0],
                    JoinType::Inner,
                    true,
                )
                .map_err(e)?
                .build(),
        ),
        ("exec.op.sort_ns", scan("r2")?.sort(vec![(0, true)]).build()),
        (
            "exec.op.agg_ns",
            scan("r2")?
                .hash_aggregate(vec![0], vec![(AggExpr::count_star(), "n")])
                .build(),
        ),
    ])
}

/// The in-process probes of one traced run, layer by layer.
pub struct Probe<'a> {
    env: &'a Env,
    /// The database the server runs on, and its statistics.
    served: &'a Database,
    stats: &'a DbStats,
    /// The in-memory copy (the same database on the heap workloads).
    heap: &'a Database,
    config: ServiceConfig,
    small: bool,
    parallelism: Option<usize>,
    tracer: &'a mut Tracer,
    out: &'a mut Vec<Metric>,
    /// The suite's plans over `served`, and one row-path pass over them.
    plans: Vec<Plan>,
    row_pass_ns: u64,
    /// Checkpoints the replica monitor took on each suite query.
    replica_checkpoints: Vec<u64>,
    closure: Closure,
}

impl<'a> Probe<'a> {
    /// Runs every probe. `small` shrinks the synthetic operator inputs
    /// for `--smoke`; `parallelism` is the workload's, for the closure.
    pub fn run(
        env: &'a Env,
        small: bool,
        parallelism: Option<usize>,
        tracer: &'a mut Tracer,
        out: &'a mut Vec<Metric>,
    ) -> Result<Closure, String> {
        let service = env.server.service();
        let served: &Database = service.database();
        let stats: &DbStats = service.stats();
        let mut probe = Probe {
            env,
            served,
            stats,
            heap: env.heap.as_deref().unwrap_or(served),
            config: ServiceConfig::default(),
            small,
            parallelism,
            tracer,
            out,
            plans: suite_plans(env, served, stats)?,
            row_pass_ns: 0,
            replica_checkpoints: Vec::new(),
            closure: Closure::default(),
        };
        probe.layer("layer.sql", Probe::sql)?;
        probe.layer("layer.exec.suite", Probe::exec_suite)?;
        probe.layer("layer.exec.op", Probe::exec_ops)?;
        probe.layer("layer.storage", Probe::storage)?;
        probe.layer("layer.pager", Probe::pager)?;
        probe.layer("layer.core", Probe::core)?;
        probe.layer("layer.obs", Probe::obs)?;
        probe.layer("layer.service_protocol_reactor", Probe::front_end)?;
        Ok(probe.closure)
    }

    /// Runs one layer's probes under a span of that name.
    fn layer(
        &mut self,
        name: &'static str,
        probes: fn(&mut Self) -> Result<(), String>,
    ) -> Result<(), String> {
        let from = Instant::now();
        probes(self)?;
        self.tracer.add(name, from, Instant::now(), 0, 0);
        Ok(())
    }

    /// sql: parse / plan / annotate, median per suite query.
    fn sql(&mut self) -> Result<(), String> {
        let (mut parse, mut plan, mut annotate) = (Vec::new(), Vec::new(), Vec::new());
        for o in &self.env.oracle {
            let ast = qp_sql::parse(o.sql).map_err(|e| e.to_string())?;
            let planned =
                qp_sql::plan_query(&ast, self.served, self.stats).map_err(|e| e.to_string())?;
            parse.push(loop_ns("", 20, || {
                black_box(qp_sql::parse(black_box(o.sql)).is_ok());
            }));
            plan.push(loop_ns("", 5, || {
                black_box(qp_sql::plan_query(&ast, self.served, self.stats).is_ok());
            }));
            annotate.push(loop_ns("", 5, || {
                let mut p = planned.clone();
                qp_exec::estimate::annotate(&mut p, self.stats);
                black_box(p.len());
            }));
        }
        for (name, per_query) in [
            ("sql.parse_us", parse),
            ("sql.plan_us", plan),
            ("exec.annotate_us", annotate),
        ] {
            let ns: Vec<f64> = per_query.iter().map(|m| m.value).collect();
            self.out
                .push(Metric::new(name, median_f64(&ns) / 1e3, "us").n(ns.len() as u64));
        }
        Ok(())
    }

    /// One pass of `plans` over `db` through `run`, as ns per getnext.
    fn pass(
        name: &str,
        plans: &[Plan],
        mut run: impl FnMut(&Plan) -> Result<(u64, u64), String>,
    ) -> Result<(Metric, u64), String> {
        let (mut ns, mut calls) = (0u64, 0u64);
        for plan in plans {
            let (t, total) = run(plan)?;
            ns += t;
            calls += total;
        }
        Ok((
            Metric::new(name, ns as f64 / calls.max(1) as f64, "ns").n(calls),
            ns,
        ))
    }

    /// exec: the suite on the row path (served backend), the batch path
    /// and the parallel path (heap backend).
    fn exec_suite(&mut self) -> Result<(), String> {
        let (served, heap, config) = (self.served, self.heap, &self.config);
        let (row, row_ns) = Probe::pass("exec.row_ns_per_getnext", &self.plans, |plan| {
            run_observed(plan, served, config, Box::new(NoOp))
        })?;
        self.row_pass_ns = row_ns;
        self.out.push(Metric::new(
            "exec.getnext_total",
            row.n.unwrap_or(0) as f64,
            "count",
        ));
        self.out.push(row);

        // Same data, same statistics: the served backend's stats plan the
        // heap copy too, so the three exec rows run identical plans.
        let heap_plans = suite_plans(self.env, heap, self.stats)?;
        let (batch, _) = Probe::pass("exec.batch_ns_per_getnext", &heap_plans, |plan| {
            let t = Instant::now();
            let (res, _) = qp_exec::run_query(plan, heap, None).map_err(|e| e.to_string())?;
            Ok((t.elapsed().as_nanos() as u64, res.total_getnext))
        })?;
        self.out.push(batch);
        let (par2, par2_ns) = Probe::pass("exec.par2_ns_per_getnext", &heap_plans, |plan| {
            run_observed(&qp_exec::parallelize(plan, 2), heap, config, Box::new(NoOp))
        })?;
        self.out.push(par2);
        self.closure.exec_pass_ns = if self.parallelism == Some(2) {
            par2_ns as f64
        } else {
            row_ns as f64
        };
        Ok(())
    }

    /// exec.op: ns/getnext per operator shape, row path, median of 3.
    fn exec_ops(&mut self) -> Result<(), String> {
        let synth = SyntheticDb::generate(SyntheticConfig {
            r1_rows: if self.small { 1_000 } else { 10_000 },
            r2_rows: if self.small { 10_000 } else { 100_000 },
            z: 1.0,
            r1_order: RowOrder::AsGenerated,
            seed: 2,
        });
        for (name, plan) in op_plans(&synth)? {
            let mut per_call = Vec::new();
            let mut calls = 0;
            for _ in 0..3 {
                let (ns, total) = run_observed(&plan, &synth.db, &self.config, Box::new(NoOp))?;
                per_call.push(ns as f64 / total as f64);
                calls = total;
            }
            self.out
                .push(Metric::new(name, median_f64(&per_call), "ns").n(calls));
        }
        Ok(())
    }

    /// storage: full scans and index probes.
    fn storage(&mut self) -> Result<(), String> {
        let scan_rate = |name: &str, db: &Database| -> Result<Metric, String> {
            let table = db.table("lineitem").map_err(|e| e.to_string())?;
            let t = Instant::now();
            let mut rows = 0u64;
            for scanned in table.scan() {
                black_box(&scanned);
                rows += 1;
            }
            Ok(Metric::new(name, rows as f64 / t.elapsed().as_secs_f64(), "1/s").n(rows))
        };
        self.out
            .push(scan_rate("storage.heap_scan_rows_per_s", self.heap)?);
        self.out.push(if self.served.buffer_pool().is_some() {
            scan_rate("storage.paged_scan_rows_per_s", self.served)?
        } else {
            Metric::new("storage.paged_scan_rows_per_s", 0.0, "1/s").n(0)
        });
        let orders = self.heap.cardinality("orders").map_err(|e| e.to_string())? as u64;
        let index = self.heap.index("orders_pk").map_err(|e| e.to_string())?;
        let mut rng = TestRng::seed_from_u64(11);
        let keys: Vec<[Value; 1]> = (0..4096)
            .map(|_| [Value::Int(1 + rng.u64_below(orders.max(1)) as i64)])
            .collect();
        let mut k = 0;
        self.out.push(loop_ns("storage.btree_probe_ns", 20_000, || {
            k = (k + 1) % keys.len();
            black_box(index.tree.lookup(&keys[k]).count());
        }));
        Ok(())
    }

    /// pager: `BufferPool::get` resident vs through the small pool (0
    /// without page files).
    fn pager(&mut self) -> Result<(), String> {
        let Some(dir) = self.env.paged_dir() else {
            self.out
                .push(Metric::new("pager.get_hit_ns", 0.0, "ns").n(0));
            self.out
                .push(Metric::new("pager.get_miss_ns", 0.0, "ns").n(0));
            return Ok(());
        };
        let pager =
            Arc::new(qp_pager::Pager::open(&dir.join("lineitem.qpt")).map_err(|e| e.to_string())?);
        let pages = pager.page_count().saturating_sub(1).max(1);
        let mut rng = TestRng::seed_from_u64(13);
        let resident = pages.min(2048);
        let pool = qp_pager::BufferPool::new(resident as usize + 1);
        for id in 1..=resident {
            pool.get(&pager, id).map_err(|e| e.to_string())?;
        }
        let ids: Vec<u64> = (0..8192).map(|_| 1 + rng.u64_below(resident)).collect();
        let mut i = 0;
        self.out.push(loop_ns("pager.get_hit_ns", 50_000, || {
            i = (i + 1) % ids.len();
            black_box(pool.get(&pager, ids[i]).is_ok());
        }));
        let small_pool = qp_pager::BufferPool::new(crate::setup::PAGED_FRAMES);
        let ids: Vec<u64> = (0..8192).map(|_| 1 + rng.u64_below(pages)).collect();
        self.out.push(loop_ns("pager.get_miss_ns", 4_000, || {
            i = (i + 1) % ids.len();
            black_box(small_pool.get(&pager, ids[i]).is_ok());
        }));
        Ok(())
    }

    /// core: the monitor as an observer, then its parts.
    fn core(&mut self) -> Result<(), String> {
        let clock = clock_ns();
        let mut obs = ObserverStats::default();
        for plan in &self.plans {
            let (monitor, stride) = session_monitor(plan, self.stats, &self.config);
            let sink = Arc::new(Mutex::new(ObserverStats::default()));
            let timed = TimedMonitor {
                inner: monitor,
                stride,
                rows: 0,
                stats: ObserverStats::default(),
                sink: Arc::clone(&sink),
            };
            run_observed(plan, self.served, &self.config, Box::new(timed))?;
            let got = std::mem::take(&mut *sink.lock().map_err(|_| "observer stats poisoned")?);
            obs.calls += got.calls;
            obs.total_ns += got.total_ns;
            self.replica_checkpoints.push(got.snapshot_ns.len() as u64);
            obs.snapshot_ns.extend(got.snapshot_ns);
        }
        let inside = (obs.total_ns as f64 - clock * obs.calls as f64).max(0.0);
        self.closure.observer_pass_ns = inside;
        let snapshots = obs.snapshot_ns.len() as u64;
        self.out.extend([
            Metric::new("core.observer_calls", obs.calls as f64, "count"),
            Metric::new(
                "core.observer_ns_per_call",
                inside / obs.calls.max(1) as f64,
                "ns",
            )
            .n(obs.calls),
            Metric::new(
                "core.observer_share_pct",
                100.0 * inside / (inside + self.row_pass_ns as f64),
                "%",
            ),
            Metric::new("core.snapshot_ns", median(&obs.snapshot_ns), "ns").n(snapshots),
            Metric::new(
                "core.snapshots_per_query",
                snapshots as f64 / self.plans.len() as f64,
                "count",
            ),
        ]);

        // Q3's plan (a three-way join) after a finished run: every node
        // has counts, so the refresh walks real numbers.
        let plan = &self.plans[1.min(self.plans.len() - 1)];
        let mut run = QueryRun::new(plan, self.served).map_err(|e| e.to_string())?;
        run.run().map_err(|e| e.to_string())?;
        let mut bounds = BoundsTracker::new(plan, Some(self.stats));
        self.out.push(loop_ns("core.bounds_refresh_ns", 2_000, || {
            bounds.update_from_counters(run.context().counters());
            black_box(bounds.total_ub());
        }));
        let cell = ProgressCell::new(ESTIMATORS.to_vec());
        let ests = vec![0.5; ESTIMATORS.len()];
        let mut curr = 0;
        self.out.push(loop_ns("core.cell_publish_ns", 100_000, || {
            curr += 1;
            cell.publish(curr, curr, curr * 2, &ests);
        }));
        self.out.push(loop_ns("core.cell_read_ns", 100_000, || {
            black_box(cell.read());
        }));
        Ok(())
    }

    /// obs: the default-on span sink and the latency histogram.
    fn obs(&mut self) -> Result<(), String> {
        let sink = SpanSink::new(self.config.span_capacity);
        self.out.push(loop_ns("obs.span_pair_ns", 100_000, || {
            let id = sink.begin(1, 0, SpanKind::Operator, 0);
            sink.end(1, id, 0, SpanKind::Operator, 0);
        }));
        let hist = LatencyHistogram::new();
        let mut v = 1u64;
        self.out.push(loop_ns("obs.hist_record_ns", 200_000, || {
            v = v
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            hist.record(v >> 40);
        }));
        Ok(())
    }

    /// service, protocol, reactor: SUBMIT and STATUS without the wire,
    /// then the pieces of a STATUS exchange on their own.
    fn front_end(&mut self) -> Result<(), String> {
        let service = self.env.server.service();
        let mut submit_us = Vec::new();
        let mut last = None;
        for (o, replica) in self.env.oracle.iter().zip(&self.replica_checkpoints) {
            let t = Instant::now();
            let id = service
                .submit_with(o.sql, SubmitOptions::default())
                .map_err(|e| e.to_string())?;
            submit_us.push(t.elapsed().as_nanos() as f64 / 1e3);
            service.wait(id);
            last = Some(id);
            // `session_monitor` and `session_controls` rebuild what the
            // service's `run_job` builds, from the same public pieces. If
            // the two drift apart, `core.*`, `exec.row_*` and
            // `bench.closure_run_pct` describe a replica, not the server:
            // the session's own checkpoint count (what `TRACE` reports,
            // one more than the monitor took because the service adds the
            // final 100 % point) must match the replica's.
            let served = service
                .session(id)
                .and_then(|s| s.trace_buffer().map(|t| t.pushed()));
            if served != Some(replica + 1) {
                return Err(format!(
                    "Q{}: the session took {served:?} checkpoints, the replica monitor {replica} + 1: \
                     layers.rs no longer builds what run_job builds",
                    o.q
                ));
            }
        }
        let id = last.ok_or("empty suite")?;
        self.out.push(
            Metric::new("service.submit_us", median_f64(&submit_us), "us")
                .n(submit_us.len() as u64),
        );
        let status = loop_ns("", 5_000, || {
            let report = service.status(id).expect("session registered");
            black_box(status_line(&report));
        });
        self.out.push(
            Metric::new("service.status_us", status.value / 1e3, "us").n(status.n.unwrap_or(0)),
        );

        let request = format!("STATUS {id}");
        let report = service.status(id).ok_or("session vanished")?;
        let line = status_line(&report);
        self.out
            .push(loop_ns("protocol.request_parse_ns", 50_000, || {
                black_box(Request::parse(black_box(&request)).is_ok());
            }));
        self.out
            .push(loop_ns("protocol.status_render_ns", 20_000, || {
                black_box(status_line(black_box(&report)));
            }));
        self.out
            .push(loop_ns("protocol.status_parse_ns", 20_000, || {
                black_box(StatusLine::parse(black_box(&line)).is_ok());
            }));

        let chunk: Vec<u8> = format!("{request}\n").repeat(4096).into_bytes();
        let mut framer = LineFramer::new(qp_service::ServerConfig::default().max_line_bytes);
        let per_chunk = loop_ns("", 20, || {
            framer.push(&chunk);
            while let Some(frame) = framer.pop() {
                black_box(frame);
            }
        });
        self.out.push(Metric::new(
            "reactor.framer_mb_per_s",
            chunk.len() as f64 / 1e6 / (per_chunk.value / 1e9),
            "MB/s",
        ));
        Ok(())
    }
}
