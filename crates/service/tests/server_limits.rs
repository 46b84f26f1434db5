//! Server resource limits: the connection cap, idle-connection reaping
//! (on the loop's timeout tick, with no traffic to piggyback on), the
//! slow-consumer cap, and bounded-grace shutdown with a query still
//! running.

use qp_datagen::{TpchConfig, TpchDb};
use qp_service::{
    ProgressServer, QueryService, QueryState, RetryPolicy, ServerConfig, ServiceClient,
    ServiceConfig,
};
use qp_storage::Database;
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{Shutdown, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tiny_db() -> Arc<Database> {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.002,
        z: 1.0,
        seed: 42,
    });
    Arc::new(t.db)
}

fn wait_until(timeout: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

/// Fill the server with idle sockets past its cap; the idle reaper must
/// close them, and a real client arriving afterwards must be served.
#[test]
fn idle_connections_are_reaped_and_later_clients_served() {
    let service = Arc::new(QueryService::new(tiny_db(), ServiceConfig::default()));
    let mut server = ProgressServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            max_connections: 2,
            idle_timeout: Duration::from_millis(250),
            ..ServerConfig::default()
        },
    )
    .expect("binds");
    let addr = server.local_addr();

    // Two idle sockets occupy every handler slot (a third would sit in
    // the OS backlog unserved).
    let idle: Vec<TcpStream> = (0..2)
        .map(|_| TcpStream::connect(addr).expect("connects"))
        .collect();

    // The reaper closes them after the idle timeout: reads observe EOF.
    for mut s in idle {
        s.set_read_timeout(Some(Duration::from_secs(5))).ok();
        let mut buf = [0u8; 1];
        let eof = wait_until(Duration::from_secs(5), || matches!(s.read(&mut buf), Ok(0)));
        assert!(eof, "idle connection was never reaped");
    }

    // With the slots freed, a real client gets in and is served — using
    // the retry policy a client behind a briefly-full server would use.
    let mut client = ServiceClient::connect_with_retry(
        addr,
        &RetryPolicy {
            attempts: 8,
            base: Duration::from_millis(10),
            cap: Duration::from_millis(200),
            seed: 7,
        },
    )
    .expect("connects after reaping");
    let id = client
        .submit("SELECT COUNT(*) AS n FROM region")
        .unwrap()
        .expect("admitted");
    assert!(wait_until(Duration::from_secs(10), || {
        service.status(id).unwrap().state == QueryState::Finished
    }));
    let status = client.status(id).unwrap().expect("status");
    assert_eq!(status.state, QueryState::Finished);

    server.shutdown();
}

/// `true` once the server has closed `s`: EOF, or a reset when it closed
/// with our bytes still unread. Waits at most the socket's read timeout.
fn closed_by_server(s: &mut TcpStream) -> bool {
    match s.read(&mut [0u8; 1]) {
        Ok(0) => true,
        Ok(_) => false,
        Err(e) => matches!(
            e.kind(),
            ErrorKind::ConnectionReset | ErrorKind::ConnectionAborted | ErrorKind::BrokenPipe
        ),
    }
}

/// Reaping rides the event loop's timeout tick (a quarter of
/// `idle_timeout`), so one silent connection on an otherwise idle server
/// — nothing else ever wakes the loop — is closed no earlier than
/// `idle_timeout` and no later than 25 % past it.
#[test]
fn a_lone_idle_connection_is_reaped_on_the_timeout_tick() {
    let idle_timeout = Duration::from_millis(800);
    let service = Arc::new(QueryService::new(tiny_db(), ServiceConfig::default()));
    let mut server = ProgressServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            idle_timeout,
            ..ServerConfig::default()
        },
    )
    .expect("binds");

    let connected = Instant::now();
    let mut s = TcpStream::connect(server.local_addr()).expect("connects");
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    assert!(closed_by_server(&mut s), "idle connection was never reaped");
    let lived = connected.elapsed();
    assert!(lived >= idle_timeout, "reaped early, after {lived:?}");
    let slack = Duration::from_millis(100); // scheduling, not policy
    assert!(
        lived <= idle_timeout + idle_timeout / 4 + slack,
        "reaped late, after {lived:?}"
    );
    let timeouts: u64 = service
        .reactor_loops()
        .iter()
        .map(|l| l.timeouts.load(Relaxed))
        .sum();
    assert!(timeouts > 0, "nothing but the timeout tick could have run");
    server.shutdown();
}

/// Slow loris: a peer dribbling bytes that never complete a request is
/// idle — only a framed request resets the idle clock.
#[test]
fn dribbled_bytes_do_not_postpone_the_idle_reaper() {
    let service = Arc::new(QueryService::new(tiny_db(), ServiceConfig::default()));
    let mut server = ProgressServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            idle_timeout: Duration::from_millis(400),
            ..ServerConfig::default()
        },
    )
    .expect("binds");
    let mut s = TcpStream::connect(server.local_addr()).expect("connects");
    // One byte every 100 ms: never silent for anywhere near 400 ms.
    s.set_read_timeout(Some(Duration::from_millis(100)))
        .unwrap();
    let started = Instant::now();
    let mut closed = false;
    while !closed && started.elapsed() < Duration::from_secs(3) {
        let _ = s.write_all(b"x");
        closed = closed_by_server(&mut s);
    }
    assert!(closed, "a byte every 100 ms kept the connection alive");

    // A complete request, by contrast, does reset the clock.
    let mut client = ServiceClient::connect(server.local_addr()).expect("connects");
    for _ in 0..8 {
        std::thread::sleep(Duration::from_millis(100));
        client
            .hello()
            .expect("still connected: requests are activity");
    }
    server.shutdown();
}

/// Sends `requests` METRICS lines without reading a byte, so the replies
/// (a few KiB each) back up first in the kernel's buffers and then in
/// the connection's output buffer.
fn flood_metrics(s: &mut TcpStream, requests: usize) {
    s.write_all("METRICS\n".repeat(requests).as_bytes())
        .expect("requests fit the socket buffers");
}

/// The largest post-flush response backlog any connection has held.
fn outbuf_high_water(service: &QueryService) -> u64 {
    let loops = service.reactor_loops();
    let per_loop = loops.iter().map(|l| l.outbuf_high_water.load(Relaxed));
    per_loop.max().expect("the server registered its loops")
}

/// A peer that stops reading is cut off once `max_outbuf_bytes` of
/// replies are queued for it, and takes nobody else down with it.
#[test]
fn a_peer_that_stops_reading_is_disconnected_at_the_outbuf_cap() {
    let service = Arc::new(QueryService::new(tiny_db(), ServiceConfig::default()));
    let mut server = ProgressServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            max_outbuf_bytes: 64 * 1024,
            ..ServerConfig::default()
        },
    )
    .expect("binds");
    let addr = server.local_addr();

    let requests = 8_000;
    let mut stalled = TcpStream::connect(addr).expect("connects");
    flood_metrics(&mut stalled, requests);
    assert!(
        wait_until(Duration::from_secs(20), || outbuf_high_water(&service)
            > 64 * 1024),
        "the kernel buffered every reply; raise `requests`"
    );
    // Only now start reading: whatever was buffered arrives, then the
    // stream ends — well short of one reply per request.
    stalled
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut heads = 0usize;
    let mut lines = BufReader::new(stalled).lines();
    while let Some(Ok(line)) = lines.next() {
        heads += usize::from(line.starts_with("OK "));
    }
    assert!(heads > 0, "the first replies were sent");
    assert!(
        heads < requests,
        "all {requests} replies arrived: the slow consumer was never cut off"
    );
    // Past the cap, but by no more than the reply that crossed it —
    // however many requests one read carried.
    assert!(
        outbuf_high_water(&service) < 1024 * 1024,
        "high water {}",
        outbuf_high_water(&service)
    );

    let mut client = ServiceClient::connect(addr).expect("connects");
    client.hello().expect("other clients are still served");
    server.shutdown();
}

/// Below the cap nothing is lost: a backlog the socket would not take is
/// kept, write interest goes on, and every reply arrives once the peer
/// reads again.
#[test]
fn a_backlog_below_the_cap_drains_when_the_peer_reads_again() {
    let service = Arc::new(QueryService::new(tiny_db(), ServiceConfig::default()));
    let mut server = ProgressServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            max_outbuf_bytes: 256 * 1024 * 1024,
            ..ServerConfig::default()
        },
    )
    .expect("binds");

    let requests = 8_000;
    let mut slow = TcpStream::connect(server.local_addr()).expect("connects");
    flood_metrics(&mut slow, requests);
    // Wait until replies are backed up in the output buffer itself.
    let backed_up = wait_until(Duration::from_secs(20), || {
        outbuf_high_water(&service) > 1024 * 1024
    });
    assert!(
        backed_up,
        "the kernel buffered every reply; raise `requests`"
    );

    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut lines = BufReader::new(slow).lines();
    for i in 0..requests {
        let head = lines.next().expect("reply head").expect("io");
        let body: usize = head
            .strip_prefix("OK ")
            .and_then(|n| n.parse().ok())
            .unwrap_or_else(|| panic!("reply {i}: bad head {head:?}"));
        for _ in 0..body {
            lines.next().expect("reply body").expect("io");
        }
    }
    server.shutdown();
}

/// A client that sends its requests and half-closes (`printf … | nc`, or
/// `shutdown(SHUT_WR)` then read) is still answered in full — also when
/// the replies are backed up behind its FIN — and only then closed; while
/// it stalls, its EOF does not keep the loop spinning.
#[test]
fn a_half_closed_peer_still_gets_every_reply() {
    let service = Arc::new(QueryService::new(tiny_db(), ServiceConfig::default()));
    let mut server = ProgressServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            max_outbuf_bytes: 256 * 1024 * 1024,
            ..ServerConfig::default()
        },
    )
    .expect("binds");

    let mut quick = TcpStream::connect(server.local_addr()).expect("connects");
    quick.write_all(b"HELLO\nSTATUS q999\n").unwrap();
    quick.shutdown(Shutdown::Write).unwrap();
    quick
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut replies = String::new();
    quick
        .read_to_string(&mut replies)
        .expect("replies, then EOF");
    let heads: Vec<&str> = replies.lines().map(|l| &l[..l.len().min(11)]).collect();
    assert_eq!(heads, ["OK protocol", "ERR UNKNOWN"], "{replies:?}");

    let requests = 8_000;
    let mut slow = TcpStream::connect(server.local_addr()).expect("connects");
    flood_metrics(&mut slow, requests);
    slow.shutdown(Shutdown::Write).unwrap();
    // Every request served, replies backed up in the output buffer, and
    // the FIN seen: all that is left to wait for is the stalled socket's
    // write readiness.
    let metrics = qp_service::VERBS
        .iter()
        .position(|v| *v == "METRICS")
        .expect("a verb");
    let served = || service.verb_hists()[metrics].snapshot().count;
    assert!(wait_until(Duration::from_secs(30), || served() == requests as u64));
    assert!(
        outbuf_high_water(&service) > 1024 * 1024,
        "the kernel buffered every reply; raise `requests`"
    );
    let wakeups = || -> u64 {
        let loops = service.reactor_loops();
        loops.iter().map(|l| l.wakeups.load(Relaxed)).sum()
    };
    std::thread::sleep(Duration::from_millis(100));
    let before = wakeups();
    std::thread::sleep(Duration::from_millis(300));
    let spun = wakeups() - before;
    assert!(spun < 20, "{spun} wakeups while the peer read nothing");

    slow.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let lines = BufReader::new(slow).lines().map(|l| l.expect("io"));
    let heads = lines.filter(|l| l.starts_with("OK ")).count();
    assert_eq!(heads, requests, "every reply, then EOF");
    server.shutdown();
}

/// `connect_with_retry` against a dead port exhausts its attempts and
/// reports the last error instead of hanging or panicking.
#[test]
fn connect_with_retry_gives_up_cleanly() {
    // Port 1 on loopback: refused (or at worst filtered) — never a
    // ProgressServer.
    let start = Instant::now();
    let result = ServiceClient::connect_with_retry(
        "127.0.0.1:1",
        &RetryPolicy {
            attempts: 3,
            base: Duration::from_millis(5),
            cap: Duration::from_millis(20),
            seed: 1,
        },
    );
    assert!(result.is_err(), "connecting to port 1 should fail");
    // 3 attempts with ≤20ms caps: the whole thing is bounded.
    assert!(start.elapsed() < Duration::from_secs(10));
}

/// `shutdown()` with a RUNNING query: the grace period elapses, the
/// straggler is cancelled, and the call returns promptly — it must not
/// wait for the cross join to finish naturally.
#[test]
fn shutdown_cancels_running_queries_after_grace() {
    let service = QueryService::new(
        tiny_db(),
        ServiceConfig {
            workers: 1,
            stride: Some(100),
            shutdown_grace: Duration::from_millis(200),
            ..ServiceConfig::default()
        },
    );
    // Four-way cross product (~30M tuples at this scale): far too much
    // work to finish inside the grace window even on a fast machine, so
    // the straggler is genuinely still RUNNING when the grace expires.
    let heavy = service
        .submit(
            "SELECT COUNT(*) AS n FROM supplier, nation, region, lineitem \
             WHERE s_acctbal > l_extendedprice",
        )
        .expect("admitted");
    assert!(wait_until(Duration::from_secs(20), || {
        service.status(heavy).unwrap().state == QueryState::Running
    }));

    let start = Instant::now();
    service.shutdown();
    // Grace (200ms) + one cooperative cancellation: well under 10s.
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "shutdown took {:?}",
        start.elapsed()
    );
    assert_eq!(
        service.status(heavy).unwrap().state,
        QueryState::Cancelled,
        "the straggler must be cancelled, not left running"
    );
}

/// A dropped-then-restored connection: with reconnect armed (as
/// `connect_with_retry` clients are), idempotent STATUS/METRICS/TRACE
/// requests resend over a fresh connection and yield the same answer.
/// A plain `connect` client just surfaces the transport error.
#[test]
fn idempotent_requests_survive_a_dropped_connection() {
    let service = Arc::new(QueryService::new(tiny_db(), ServiceConfig::default()));
    let mut server = ProgressServer::bind("127.0.0.1:0", Arc::clone(&service)).expect("binds");
    let addr = server.local_addr();

    let mut client =
        ServiceClient::connect_with_retry(addr, &RetryPolicy::default()).expect("connects");
    let id = client
        .submit("SELECT COUNT(*) AS n FROM region")
        .unwrap()
        .expect("admitted");
    assert_eq!(service.wait(id), Some(QueryState::Finished));
    let before = client.status(id).unwrap().expect("status");
    assert_eq!(before.state, QueryState::Finished);

    // Kill the TCP connection out from under the client. The next
    // STATUS reconnects, resends once, and reports the same terminal
    // answer — one consistent result, not a duplicate side effect.
    client.sever();
    let after = client.status(id).unwrap().expect("status after reconnect");
    assert_eq!(after.state, before.state);
    assert_eq!(after.rows, before.rows);
    assert_eq!(after.curr, before.curr);

    // Block-framed reads ride the same path, even severed mid-session.
    client.sever();
    let metrics = client.metrics().unwrap().expect("metrics after reconnect");
    assert!(metrics.contains("qp_sessions_submitted_total"));
    client.sever();
    let trace = client.trace(id).unwrap().expect("trace after reconnect");
    assert!(!trace.is_empty());

    // Without reconnect armed, the same drop is a hard transport error.
    let mut plain = ServiceClient::connect(addr).expect("connects");
    plain.sever();
    assert!(plain.status(id).is_err(), "plain client must not retry");

    server.shutdown();
}

/// `shutdown()` with everything already terminal returns without waiting
/// out the grace period.
#[test]
fn shutdown_with_drained_sessions_is_prompt() {
    let service = QueryService::new(
        tiny_db(),
        ServiceConfig {
            shutdown_grace: Duration::from_secs(30),
            ..ServiceConfig::default()
        },
    );
    let id = service
        .submit("SELECT COUNT(*) AS n FROM region")
        .expect("admitted");
    assert_eq!(service.wait(id), Some(QueryState::Finished));
    let start = Instant::now();
    service.shutdown();
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "an idle service must not wait out its 30s grace"
    );
}
