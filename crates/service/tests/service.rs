//! Integration tests for the concurrent query service: determinism under
//! concurrency, cooperative cancellation, admission control, and the full
//! TCP loop the paper's Figure 1 scenario needs (submit → poll progress →
//! kill the hopeless one).

use qp_datagen::{TpchConfig, TpchDb};
use qp_service::{ProgressServer, QueryId, QueryService, QueryState, ServiceClient, ServiceConfig};
use qp_stats::DbStats;
use qp_storage::Database;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A deliberately heavy query: a cross join (no equi edge → naive nested
/// loops) whose output cardinality dwarfs every real workload query, so it
/// is reliably still running when the test cancels it.
const HEAVY_SQL: &str =
    "SELECT COUNT(*) AS n FROM supplier, lineitem WHERE s_acctbal > l_extendedprice";

/// STATUS renders every estimate as `{est:.6}` (`protocol.rs`), so a wire
/// estimate sits within half a unit of the sixth decimal of the value the
/// server computed. A correct `pmax` equal to true progress can read this
/// much below it.
const WIRE_ROUNDING: f64 = 0.5e-6;

/// The TPC-H queries with a SQL rendering in the dialect (see
/// `qp_workloads::sql_text`).
fn workload_sql() -> Vec<&'static str> {
    qp_workloads::sql_text::SQL_QUERIES
        .iter()
        .map(|&q| qp_workloads::sql_text::tpch_sql(q).expect("sql text"))
        .collect()
}

fn tpch(scale: f64) -> Arc<Database> {
    let t = TpchDb::generate(TpchConfig {
        scale,
        z: 1.0,
        seed: 42,
    });
    Arc::new(t.db)
}

/// Serial reference run: same SQL, same database, same statistics path the
/// service uses — single-threaded `run_query`.
fn run_serial(sql: &str, db: &Database, stats: &DbStats) -> (Vec<qp_storage::Row>, u64) {
    let mut plan = qp_sql::sql_to_plan(sql, db, stats).expect("plans");
    qp_exec::estimate::annotate(&mut plan, stats);
    let (out, _) = qp_exec::run_query(&plan, db, None).expect("runs");
    (out.rows, out.total_getnext)
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    cond()
}

#[test]
fn concurrent_sessions_match_serial_execution() {
    let db = tpch(0.005);
    let stats = Arc::new(DbStats::build(&db));
    let service = QueryService::with_stats(
        Arc::clone(&db),
        Arc::clone(&stats),
        ServiceConfig {
            workers: 4,
            queue_depth: 8,
            stride: None,
            ..ServiceConfig::default()
        },
    );

    // Serial ground truth first, then everything at once through the pool.
    let serial: Vec<_> = workload_sql()
        .iter()
        .map(|sql| run_serial(sql, &db, &stats))
        .collect();

    let ids: Vec<QueryId> = workload_sql()
        .iter()
        .map(|sql| service.submit(sql).expect("admitted"))
        .collect();
    for (&id, (sql, (rows, total))) in ids.iter().zip(workload_sql().iter().zip(&serial)) {
        assert_eq!(
            service.wait(id),
            Some(QueryState::Finished),
            "{sql} failed: {:?}",
            service.status(id).and_then(|s| s.error)
        );
        let result = service.result(id).expect("retained");
        // Determinism under concurrency: byte-identical rows and the exact
        // same getnext accounting as the single-threaded run.
        assert_eq!(result.rows.as_slice(), rows.as_slice(), "{sql} rows differ");
        assert_eq!(
            format!("{:?}", result.rows),
            format!("{rows:?}"),
            "{sql} row bytes differ"
        );
        assert_eq!(result.total_getnext, *total, "{sql} total(Q) differs");
    }
    service.shutdown();
}

#[test]
fn cancellation_mid_query_releases_the_worker() {
    let db = tpch(0.01);
    // One worker: if cancellation leaked it, the follow-up query would
    // never run.
    let service = QueryService::new(
        Arc::clone(&db),
        ServiceConfig {
            workers: 1,
            queue_depth: 4,
            stride: Some(200),
            ..ServiceConfig::default()
        },
    );

    let heavy = service.submit(HEAVY_SQL).expect("admitted");
    assert!(
        wait_until(Duration::from_secs(20), || {
            service.status(heavy).unwrap().state == QueryState::Running
                && service
                    .status(heavy)
                    .unwrap()
                    .progress
                    .is_some_and(|p| p.curr > 0)
        }),
        "heavy query never got going"
    );
    assert_eq!(service.cancel(heavy), Some(QueryState::Running));
    assert_eq!(service.wait(heavy), Some(QueryState::Cancelled));
    let frozen = service.status(heavy).unwrap();
    assert!(frozen.rows.is_none(), "cancelled query must retain no rows");
    // The progress cell keeps its last reading: a post-mortem poll still
    // renders where the query died.
    assert!(frozen.progress.is_some_and(|p| p.curr > 0));

    // Worker released: a small query completes afterwards.
    let next = service
        .submit("SELECT COUNT(*) AS n FROM nation")
        .expect("admitted");
    assert_eq!(service.wait(next), Some(QueryState::Finished));
    assert_eq!(service.result(next).unwrap().rows.len(), 1);
    service.shutdown();
}

#[test]
fn cancelling_a_queued_query_never_runs_it() {
    let db = tpch(0.01);
    let service = QueryService::new(
        Arc::clone(&db),
        ServiceConfig {
            workers: 1,
            queue_depth: 4,
            stride: Some(200),
            ..ServiceConfig::default()
        },
    );
    let heavy = service.submit(HEAVY_SQL).expect("admitted");
    let queued = service.submit(HEAVY_SQL).expect("admitted");
    // The second heavy query is stuck behind the first on the only worker.
    assert_eq!(service.status(queued).unwrap().state, QueryState::Queued);
    assert_eq!(service.cancel(queued), Some(QueryState::Queued));
    assert_eq!(service.status(queued).unwrap().state, QueryState::Cancelled);
    assert!(
        service.status(queued).unwrap().progress.is_none(),
        "a never-started query must publish no progress"
    );
    service.cancel(heavy);
    assert_eq!(service.wait(heavy), Some(QueryState::Cancelled));
    service.shutdown();
}

#[test]
fn admission_control_sheds_load() {
    let db = tpch(0.01);
    let service = QueryService::new(
        Arc::clone(&db),
        ServiceConfig {
            workers: 1,
            queue_depth: 1,
            stride: Some(200),
            ..ServiceConfig::default()
        },
    );
    let first = service.submit(HEAVY_SQL).expect("admitted");
    // Make sure the worker has picked the first one up, so the queue slot
    // is genuinely free for the second.
    assert!(wait_until(Duration::from_secs(20), || {
        service.status(first).unwrap().state == QueryState::Running
    }));
    let second = service.submit(HEAVY_SQL).expect("queued");
    let third = service.submit(HEAVY_SQL);
    match third {
        Err(qp_service::SubmitError::Saturated { queue_depth }) => assert_eq!(queue_depth, 1),
        other => panic!("expected saturation, got {other:?}"),
    }
    // The rejected submission left no trace in the registry.
    assert_eq!(service.list().len(), 2);

    service.cancel(first);
    service.cancel(second);
    assert_eq!(service.wait(first), Some(QueryState::Cancelled));
    assert_eq!(service.wait(second), Some(QueryState::Cancelled));
    service.shutdown();
}

#[test]
fn bad_sql_is_rejected_synchronously() {
    let db = tpch(0.005);
    let service = QueryService::new(Arc::clone(&db), ServiceConfig::default());
    match service.submit("SELECT frobnicate FROM nowhere") {
        Err(qp_service::SubmitError::Plan(msg)) => {
            assert!(!msg.is_empty());
        }
        other => panic!("expected a planning error, got {other:?}"),
    }
    assert!(service.list().is_empty());
    service.shutdown();
}

/// The acceptance scenario, end to end over TCP: ≥4 TPC-H queries running
/// concurrently, STATUS polled from a separate thread while they run, one
/// query killed mid-flight, and every surviving result checked against
/// serial execution.
#[test]
fn tcp_concurrent_tpch_with_live_polling_and_cancel() {
    let db = tpch(0.01);
    let stats = Arc::new(DbStats::build(&db));
    let service = Arc::new(QueryService::with_stats(
        Arc::clone(&db),
        Arc::clone(&stats),
        ServiceConfig {
            workers: 5,
            queue_depth: 8,
            stride: Some(500),
            ..ServiceConfig::default()
        },
    ));
    let mut server = ProgressServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let addr = server.local_addr();

    // 5 TPC-H queries (Q1, Q3, Q5, Q6, Q10) + the heavy cancel target.
    let mut client = ServiceClient::connect(addr).expect("connects");
    let tpch_ids: Vec<QueryId> = workload_sql()
        .iter()
        .map(|sql| client.submit(sql).unwrap().expect("admitted"))
        .collect();
    assert!(tpch_ids.len() >= 4, "need ≥4 concurrent TPC-H queries");
    let victim = client.submit(HEAVY_SQL).unwrap().expect("admitted");

    // Poller thread: its own connection, hammering STATUS until every
    // session is terminal. Records every reading for post-hoc checks.
    let poll_ids: Vec<QueryId> = tpch_ids.iter().copied().chain([victim]).collect();
    let poller = std::thread::spawn({
        let poll_ids = poll_ids.clone();
        move || {
            let mut client = ServiceClient::connect(addr).expect("poller connects");
            let mut readings: Vec<Vec<qp_service::ParsedStatus>> =
                poll_ids.iter().map(|_| Vec::new()).collect();
            loop {
                let mut all_done = true;
                for (i, &id) in poll_ids.iter().enumerate() {
                    let status = client.status(id).unwrap().expect("known id");
                    all_done &= status.state.is_terminal();
                    readings[i].push(status);
                }
                if all_done {
                    return readings;
                }
            }
        }
    });

    // Cancel the victim once it is demonstrably mid-flight. Waiting for
    // substantial progress (not merely the first published snapshot)
    // keeps the live-progress window wide enough that the TCP poller is
    // guaranteed to observe the victim RUNNING with estimates — cancelling
    // at the first snapshot raced the poller's round-trip latency.
    let svc = Arc::clone(&service);
    assert!(
        wait_until(Duration::from_secs(30), || {
            svc.status(victim).unwrap().state == QueryState::Running
                && svc
                    .status(victim)
                    .unwrap()
                    .progress
                    .is_some_and(|p| p.curr > 25_000)
        }),
        "victim never got going"
    );
    assert_eq!(
        client.cancel(victim).unwrap().expect("cancel accepted"),
        QueryState::Running
    );

    let readings = poller.join().expect("poller thread");
    for (&id, series) in poll_ids.iter().zip(&readings) {
        // Progress observed from outside the query thread is monotone:
        // `curr` never moves backwards across successive polls.
        let currs: Vec<u64> = series.iter().filter_map(|s| s.curr).collect();
        assert!(
            currs.windows(2).all(|w| w[0] <= w[1]),
            "{id}: curr went backwards: {currs:?}"
        );
        // So is the lower bound (bounds only ever tighten).
        let lbs: Vec<u64> = series.iter().filter_map(|s| s.lb).collect();
        assert!(
            lbs.windows(2).all(|w| w[0] <= w[1]),
            "{id}: LB went backwards"
        );
        for s in series {
            for (name, est) in &s.estimates {
                assert!(
                    (0.0..=1.0 + 1e-9).contains(est),
                    "{id}: {name}={est} outside [0,1]"
                );
            }
        }
    }

    // At least one *live* (still-running) reading with a published pmax
    // must have been observed for the victim — the whole point of the
    // polling path is seeing progress before the query ends.
    let victim_series = &readings[readings.len() - 1];
    assert!(
        victim_series
            .iter()
            .any(|s| s.state == QueryState::Running && s.estimate("pmax").is_some()),
        "no live progress observed for the in-flight victim: {:?}",
        victim_series
            .iter()
            .map(|s| (s.state, s.curr, s.estimates.len()))
            .collect::<Vec<_>>()
    );
    assert_eq!(
        victim_series.last().unwrap().state,
        QueryState::Cancelled,
        "victim must end Cancelled"
    );

    // Surviving queries: pmax never underestimated true progress at any
    // polled instant (Proposition 4, observed live through a socket), and
    // results are identical to serial execution.
    let serial: Vec<_> = workload_sql()
        .iter()
        .map(|sql| run_serial(sql, &db, &stats))
        .collect();
    for ((&id, series), (sql, (rows, total))) in tpch_ids
        .iter()
        .zip(&readings)
        .zip(workload_sql().iter().zip(&serial))
    {
        let finished = series.last().unwrap();
        assert_eq!(finished.state, QueryState::Finished, "{sql} did not finish");
        assert_eq!(finished.total_getnext, Some(*total), "{sql} total differs");
        assert_eq!(finished.rows, Some(rows.len() as u64), "{sql} row count");
        for s in series {
            if let (Some(curr), Some(pmax)) = (s.curr, s.estimate("pmax")) {
                let true_progress = curr as f64 / *total as f64;
                assert!(
                    pmax >= true_progress - WIRE_ROUNDING,
                    "{id}: pmax {pmax} underestimates live progress {true_progress}"
                );
            }
        }
        let result = service.result(id).expect("retained");
        assert_eq!(result.rows.as_slice(), rows.as_slice(), "{sql} rows differ");
    }

    // LIST sees every session; the victim is the only cancelled one.
    let listed = client.list().unwrap().expect("list");
    assert_eq!(listed.len(), 6);
    let cancelled: Vec<QueryId> = listed
        .iter()
        .filter(|(_, s, _)| *s == QueryState::Cancelled)
        .map(|(id, _, _)| *id)
        .collect();
    assert_eq!(cancelled, vec![victim]);

    client.shutdown().expect("shutdown");
    server.shutdown();
}

#[test]
fn tcp_protocol_error_paths() {
    let db = tpch(0.002);
    let service = Arc::new(QueryService::new(Arc::clone(&db), ServiceConfig::default()));
    let mut server = ProgressServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connects");

    // Unknown id and bad SQL travel back as ERR lines.
    assert!(client.status(QueryId(999)).unwrap().is_err());
    assert!(client.cancel(QueryId(999)).unwrap().is_err());
    let err = client.submit("SELECT x FROM not_a_table").unwrap();
    assert!(err.is_err(), "bad SQL must be rejected at SUBMIT");

    // A good query still works on the same connection afterwards.
    let id = client
        .submit("SELECT COUNT(*) AS n FROM region")
        .unwrap()
        .expect("admitted");
    assert!(wait_until(Duration::from_secs(10), || {
        service.status(id).unwrap().state == QueryState::Finished
    }));
    let status = client.status(id).unwrap().expect("status");
    assert_eq!(status.state, QueryState::Finished);
    assert_eq!(status.rows, Some(1));

    server.shutdown();
}

#[test]
fn parallel_sessions_match_serial_and_pick_their_estimators() {
    use qp_service::{SubmitError, SubmitOptions};

    let db = tpch(0.005);
    let stats = Arc::new(DbStats::build(&db));
    let service = Arc::new(QueryService::with_stats(
        Arc::clone(&db),
        Arc::clone(&stats),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));

    // In-process: PARALLELISM=4 sessions with a custom estimator suite
    // return byte-identical rows and the exact serial total(Q).
    for sql in workload_sql().into_iter().take(3) {
        let (rows, total) = run_serial(sql, &db, &stats);
        let id = service
            .submit_with(
                sql,
                SubmitOptions {
                    parallelism: Some(4),
                    estimators: Some("pmax,dne".into()),
                    ..SubmitOptions::default()
                },
            )
            .expect("admitted");
        assert_eq!(service.wait(id), Some(QueryState::Finished), "{sql}");
        let result = service.result(id).expect("retained");
        assert_eq!(result.rows.as_slice(), rows.as_slice(), "{sql} rows differ");
        assert_eq!(result.total_getnext, total, "{sql} total(Q) differs");
        let report = service.status(id).expect("status");
        assert_eq!(report.estimators, vec!["pmax", "dne"], "{sql} suite");
    }

    // Invalid options are rejected synchronously as BadRequest — no
    // session is created, no worker is spent.
    for (sql, opts) in [
        (
            "SELECT COUNT(*) AS n FROM region",
            SubmitOptions {
                parallelism: Some(0),
                ..SubmitOptions::default()
            },
        ),
        (
            "SELECT COUNT(*) AS n FROM region",
            SubmitOptions {
                estimators: Some("pmax,nonsense".into()),
                ..SubmitOptions::default()
            },
        ),
    ] {
        assert!(matches!(
            service.submit_with(sql, opts),
            Err(SubmitError::BadRequest(_))
        ));
    }

    // Over the wire: HELLO advertises the capabilities, and a SUBMIT
    // carrying both fields round-trips to the same serial answer.
    let mut server = ProgressServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connects");
    let hello = client.hello().expect("hello");
    assert!(hello.contains("protocol=3"), "hello: {hello}");
    assert!(hello.contains("PARALLELISM"), "hello: {hello}");
    assert!(hello.contains("pmax"), "hello: {hello}");

    let sql = "SELECT COUNT(*) AS n FROM region";
    let (rows, total) = run_serial(sql, &db, &stats);
    let id = client
        .submit_with_fields("PARALLELISM=4 ESTIMATORS=safe", sql)
        .unwrap()
        .expect("admitted");
    assert_eq!(service.wait(id), Some(QueryState::Finished));
    let result = service.result(id).expect("retained");
    assert_eq!(result.rows.as_slice(), rows.as_slice());
    assert_eq!(result.total_getnext, total);
    let status = client.status(id).unwrap().expect("status");
    assert_eq!(status.state, QueryState::Finished);

    // A malformed field value is an ERR at SUBMIT time.
    let err = client.submit_with_fields("PARALLELISM=0", sql).unwrap();
    assert!(err.is_err(), "PARALLELISM=0 must be rejected");

    server.shutdown();
}

#[test]
fn morsel_size_field_round_trips_and_stays_results_neutral() {
    use qp_service::{SubmitError, SubmitOptions};

    let db = tpch(0.005);
    let stats = Arc::new(DbStats::build(&db));
    let service = Arc::new(QueryService::with_stats(
        Arc::clone(&db),
        Arc::clone(&stats),
        ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
    ));

    // In-process: the morsel size is a scheduling knob only — any value,
    // from one-row morsels to a single whole-table morsel, must leave
    // rows and total(Q) byte-identical to the serial run.
    let sql = "SELECT COUNT(*) AS n FROM lineitem WHERE l_quantity < 10";
    let (rows, total) = run_serial(sql, &db, &stats);
    for morsel_size in [1usize, 7, 1024, usize::MAX] {
        let id = service
            .submit_with(
                sql,
                SubmitOptions {
                    parallelism: Some(4),
                    morsel_size: Some(morsel_size),
                    ..SubmitOptions::default()
                },
            )
            .expect("admitted");
        assert_eq!(service.wait(id), Some(QueryState::Finished));
        let result = service.result(id).expect("retained");
        assert_eq!(
            result.rows.as_slice(),
            rows.as_slice(),
            "MORSEL_SIZE={morsel_size} rows differ"
        );
        assert_eq!(
            result.total_getnext, total,
            "MORSEL_SIZE={morsel_size} total(Q) differs"
        );
    }

    // A zero morsel size is rejected synchronously — no session spent.
    assert!(matches!(
        service.submit_with(
            sql,
            SubmitOptions {
                morsel_size: Some(0),
                ..SubmitOptions::default()
            },
        ),
        Err(SubmitError::BadRequest(_))
    ));

    // Over the wire: HELLO advertises MORSEL_SIZE so clients can gate on
    // it, and a SUBMIT carrying the field round-trips to the serial
    // answer. Bad values are an ERR at SUBMIT time.
    let mut server = ProgressServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let mut client = ServiceClient::connect(server.local_addr()).expect("connects");
    let hello = client.hello().expect("hello");
    assert!(hello.contains("MORSEL_SIZE"), "hello: {hello}");

    let id = client
        .submit_with_fields("PARALLELISM=4 MORSEL_SIZE=1", sql)
        .unwrap()
        .expect("admitted");
    assert_eq!(service.wait(id), Some(QueryState::Finished));
    let result = service.result(id).expect("retained");
    assert_eq!(result.rows.as_slice(), rows.as_slice());
    assert_eq!(result.total_getnext, total);

    let err = client.submit_with_fields("MORSEL_SIZE=0", sql).unwrap();
    assert!(err.is_err(), "MORSEL_SIZE=0 must be rejected");

    server.shutdown();
}

#[test]
fn a_finished_status_always_carries_its_result() {
    // `status` assembles its report in several reads while a worker may
    // be finishing the session. Whatever the interleaving, a report that
    // says FINISHED must come with rows and total(Q) — pollers stop at
    // the first terminal report. Polling back to back over many short
    // queries puts a read on both sides of many finishes.
    let service = QueryService::new(
        tpch(0.001),
        ServiceConfig {
            workers: 1,
            queue_depth: 2,
            ..ServiceConfig::default()
        },
    );
    for _ in 0..400 {
        let id = service
            .submit("SELECT COUNT(*) AS n FROM nation")
            .expect("admitted");
        loop {
            let st = service.status(id).expect("known id");
            if st.state == QueryState::Finished {
                assert!(
                    st.rows.is_some() && st.total_getnext.is_some(),
                    "{id}: FINISHED without its result"
                );
                break;
            }
            assert!(!st.state.is_terminal(), "{id}: ended {}", st.state);
        }
    }
    service.shutdown();
}
