//! The qp-service front door, end to end: start the TCP server, submit a
//! batch of TPC-H queries over the wire, watch their progress bars update
//! live from a polling client, cancel the most expensive one mid-flight,
//! and let a fifth query run into its `TIMEOUT_MS` deadline (TIMEDOUT).
//! Every STATUS line carries the session's health flag
//! (ok / degraded / failed), rendered alongside the bars. Afterwards the
//! observability surface gets the same over-the-wire treatment: a
//! `METRICS` scrape (Prometheus text), a `TRACE` of one finished query
//! rendered as a per-operator counter table, and the flight recorder's
//! event tail.
//!
//! ```text
//! cargo run --release --example service_progress
//! ```
//!
//! Everything here goes through the line protocol (`SUBMIT` / `STATUS` /
//! `LIST` / `CANCEL` / `SHUTDOWN`) documented in `crates/service/README.md`
//! — the same conversation any external client would have.

use qp_datagen::{TpchConfig, TpchDb};
use qp_obs::json::{parse, Value};
use qp_service::{ProgressServer, QueryService, ServiceClient, ServiceConfig};
use std::sync::Arc;
use std::time::Duration;

const QUERIES: [(&str, &str); 4] = [
    (
        "Q1 pricing summary",
        "SELECT l_returnflag, l_linestatus, COUNT(*) AS n FROM lineitem \
         WHERE l_shipdate <= DATE '1998-09-02' \
         GROUP BY l_returnflag, l_linestatus ORDER BY n DESC",
    ),
    (
        "Q3 shipping priority",
        "SELECT o_orderkey, SUM(l_extendedprice * (1 - l_discount)) AS revenue \
         FROM customer, orders, lineitem \
         WHERE c_mktsegment = 'BUILDING' AND c_custkey = o_custkey \
           AND l_orderkey = o_orderkey AND o_orderdate < DATE '1995-03-15' \
           AND l_shipdate > DATE '1995-03-15' \
         GROUP BY o_orderkey ORDER BY revenue DESC",
    ),
    (
        "Q6 forecast revenue",
        "SELECT SUM(l_extendedprice * l_discount) AS revenue FROM lineitem \
         WHERE l_shipdate >= DATE '1994-01-01' AND l_shipdate < DATE '1995-01-01' \
           AND l_discount >= 0.05 AND l_discount <= 0.07 AND l_quantity < 24",
    ),
    (
        "runaway cross join",
        "SELECT COUNT(*) AS n FROM supplier, lineitem \
         WHERE s_acctbal > l_extendedprice",
    ),
];

fn bar(fraction: f64) -> String {
    let filled = (fraction.clamp(0.0, 1.0) * 24.0).round() as usize;
    format!("|{}{}|", "#".repeat(filled), "-".repeat(24 - filled))
}

fn main() {
    println!("generating TPC-H (scale 0.01, z = 2) ...");
    let t = TpchDb::generate(TpchConfig::default());

    let service = Arc::new(QueryService::new(
        Arc::new(t.db),
        ServiceConfig {
            workers: 3,
            ..ServiceConfig::default()
        },
    ));
    let mut server = ProgressServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("bind");
    let addr = server.local_addr();
    println!("qp-service listening on {addr}\n");

    let mut client = ServiceClient::connect(addr).expect("connect");
    let mut submitted = Vec::new();
    for (label, sql) in QUERIES {
        let id = client
            .submit(sql)
            .expect("io")
            .unwrap_or_else(|e| panic!("{label}: {e}"));
        println!("SUBMIT {label:<22} -> {id}");
        submitted.push((id, label));
    }
    let (victim, victim_label) = *submitted.last().expect("submitted");

    // A fifth query carries a wire-level execution deadline: the server
    // parses `SUBMIT TIMEOUT_MS=150 <sql>` and the session lands in
    // TIMEDOUT once 150 ms of execution elapse — no client-side policing.
    let deadline_sql = "SELECT COUNT(*) AS n FROM partsupp, lineitem \
                        WHERE ps_supplycost > l_extendedprice";
    let deadline_id = client
        .submit_with_timeout(deadline_sql, Duration::from_millis(150))
        .expect("io")
        .unwrap_or_else(|e| panic!("deadline demo: {e}"));
    println!(
        "SUBMIT {:<22} -> {deadline_id} (TIMEOUT_MS=150)",
        "doomed by deadline"
    );
    submitted.push((deadline_id, "doomed by deadline"));

    // Poll STATUS over the wire until every query is terminal, printing a
    // safe-estimator progress bar per query (pmax saturates early on the
    // cross join, whose lower bound collapses to the rows already seen).
    // The runaway query is cancelled once it has burnt 100k getnext calls
    // of work — exactly the workflow the paper's progress bars exist to
    // support.
    println!("\npolling STATUS every 60 ms (safe estimator drives the bars):");
    let mut cancelled = false;
    loop {
        std::thread::sleep(Duration::from_millis(60));
        let mut all_done = true;
        let mut line = String::new();
        for &(id, _) in &submitted {
            let st = client.status(id).expect("io").expect("known id");
            if !st.state.is_terminal() {
                all_done = false;
            }
            let safe = st.estimate("safe").unwrap_or(0.0);
            let health = st.health.map(|h| h.as_str()).unwrap_or("?");
            line.push_str(&format!(
                "  {id} {} {:<10}{:<9}",
                bar(safe),
                st.state.as_str(),
                health
            ));
            let heavy = st.curr.unwrap_or(0) > 100_000;
            if id == victim && !cancelled && st.state.as_str() == "RUNNING" && heavy {
                let found = client.cancel(id).expect("io").expect("known id");
                println!("  -> CANCEL {id} ({victim_label}) while {found}");
                cancelled = true;
            }
        }
        println!("{line}");
        if all_done {
            break;
        }
    }

    // Results stay on the server; we hold the in-process handle, so print
    // a summary the way an embedding application would.
    println!("\nfinal states:");
    for &(id, label) in &submitted {
        let report = service.status(id).expect("known id");
        match service.result(id) {
            Some(r) => println!(
                "  {id} {label:<22} {:<9} health={:<9} {} rows, total(Q) = {} getnext calls",
                report.state.as_str(),
                report.health.as_str(),
                r.rows.len(),
                r.total_getnext
            ),
            None => println!(
                "  {id} {label:<22} {:<9} health={:<9} (no result retained)",
                report.state.as_str(),
                report.health.as_str()
            ),
        }
    }

    // The same TCP conversation serves the observability surface. First a
    // METRICS scrape — the Prometheus text any collector would ingest.
    let metrics = client.metrics().expect("io").expect("METRICS");
    println!("\nMETRICS (per-operator families, summed over all sessions):");
    for line in metrics
        .lines()
        .filter(|l| l.starts_with("qp_getnext_calls_total") || l.starts_with("qp_rows_total"))
    {
        println!("  {line}");
    }

    // Then a TRACE of the first query: the JSONL post-mortem, rendered
    // here as the per-operator counter table an operator would read.
    let (traced, traced_label) = submitted[0];
    let lines = client.trace(traced).expect("io").expect("TRACE");
    println!("\nTRACE {traced} ({traced_label}) — per-operator counters:");
    println!(
        "  {:<4} {:<12} {:>9} {:>9} {:>7} {:>6}",
        "node", "op", "calls", "rows", "errors", "faults"
    );
    for line in &lines {
        let v = parse(line).expect("trace lines are JSONL");
        if v.get("type").and_then(Value::as_str) == Some("operator") {
            println!(
                "  {:<4} {:<12} {:>9} {:>9} {:>7} {:>6}",
                v.get("node").and_then(Value::as_u64).unwrap_or(0),
                v.get("op").and_then(Value::as_str).unwrap_or("?"),
                v.get("calls").and_then(Value::as_u64).unwrap_or(0),
                v.get("rows").and_then(Value::as_u64).unwrap_or(0),
                v.get("errors").and_then(Value::as_u64).unwrap_or(0),
                v.get("faults").and_then(Value::as_u64).unwrap_or(0),
            );
        }
    }

    // And the point of the flight recorder: the TIMEDOUT session's event
    // tail is still in the ring, ending at its death.
    let events: Vec<String> = client
        .trace(deadline_id)
        .expect("io")
        .expect("TRACE")
        .into_iter()
        .filter(|l| {
            parse(l)
                .expect("trace lines are JSONL")
                .get("type")
                .and_then(Value::as_str)
                == Some("event")
        })
        .collect();
    println!("\nflight-recorder tail for {deadline_id} (died by deadline):");
    for e in events.iter().rev().take(5).rev() {
        println!("  {e}");
    }

    client.shutdown().expect("io");
    server.shutdown();
    println!("\nserver stopped cleanly.");
}
