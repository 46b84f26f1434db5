//! The readiness layer blocks in the kernel: `reactor::poll` waits out
//! its timeout and no longer, a `Waker` cuts it short, write readiness
//! is opt-in, a peer's FIN is a readable EOF and only a dead socket a
//! hang-up — and a server built on it
//! makes no wakeups while its connections are silent, yet stops at once
//! when told to.

use qp_datagen::{TpchConfig, TpchDb};
use qp_service::reactor::{self, Event, PollFd, Waker};
use qp_service::{ProgressServer, QueryService, ServiceClient, ServiceConfig};
use std::io::Read;
use std::net::{Shutdown, TcpListener, TcpStream};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A connected loopback pair: `(client end, server end)`.
fn socket_pair() -> (TcpStream, TcpStream) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("binds");
    let client = TcpStream::connect(listener.local_addr().unwrap()).expect("connects");
    let (server, _) = listener.accept().expect("accepts");
    (client, server)
}

fn poll_once(fds: &mut [PollFd], timeout: Duration) -> (Vec<Event>, Duration) {
    let mut events = Vec::new();
    let started = Instant::now();
    reactor::poll(fds, Some(timeout), &mut events).expect("poll");
    (events, started.elapsed())
}

fn idle_server() -> ProgressServer {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.002,
        z: 1.0,
        seed: 42,
    });
    let service = Arc::new(QueryService::new(Arc::new(t.db), ServiceConfig::default()));
    ProgressServer::bind("127.0.0.1:0", service).expect("binds")
}

#[test]
fn poll_without_readiness_waits_out_the_timeout_and_no_less() {
    let (_client, server) = socket_pair();
    let timeout = Duration::from_millis(120);
    let (events, waited) = poll_once(&mut [PollFd::new(&server, false)], timeout);
    assert_eq!(events, vec![], "nothing was sent, nothing is ready");
    assert!(
        waited >= timeout,
        "returned after {waited:?}, before the timeout"
    );
    assert!(waited < Duration::from_secs(5), "overslept: {waited:?}");
}

#[test]
fn a_waker_cuts_a_long_poll_short() {
    let waker = Arc::new(Waker::new().expect("socketpair"));
    let long = Duration::from_secs(10);
    let woken = |events: &[Event]| events.len() == 1 && events[0].token == 0 && events[0].readable;

    // A wake-up that lands before the poll is not lost …
    waker.wake();
    let (events, waited) = poll_once(&mut [PollFd::new(&*waker, false)], long);
    assert!(woken(&events), "{events:?}");
    assert!(waited < Duration::from_millis(50), "took {waited:?}");
    waker.drain();

    // … and one from another thread ends a poll that is (most likely:
    // the assertion holds for either order) already blocked.
    let remote = Arc::clone(&waker);
    let waking = std::thread::spawn(move || {
        std::thread::sleep(Duration::from_millis(20));
        let at = Instant::now();
        remote.wake();
        at
    });
    let mut events = Vec::new();
    reactor::poll(&mut [PollFd::new(&*waker, false)], Some(long), &mut events).expect("poll");
    let returned = Instant::now();
    let woke_at = waking.join().expect("waking thread");
    assert!(woken(&events), "{events:?}");
    let lag = returned.saturating_duration_since(woke_at);
    assert!(
        lag < Duration::from_millis(50),
        "woke {lag:?} after the byte"
    );

    // Drained, the waker is quiet again.
    waker.drain();
    let (events, _) = poll_once(
        &mut [PollFd::new(&*waker, false)],
        Duration::from_millis(10),
    );
    assert_eq!(events, vec![]);
}

#[test]
fn writable_is_reported_only_on_request() {
    let (_client, server) = socket_pair();
    // An empty send buffer is always writable — but nobody asked.
    let (events, _) = poll_once(
        &mut [PollFd::new(&server, false)],
        Duration::from_millis(30),
    );
    assert_eq!(events, vec![]);
    let (events, waited) = poll_once(&mut [PollFd::new(&server, true)], Duration::from_secs(10));
    assert_eq!(
        events,
        vec![Event {
            token: 0,
            readable: false,
            writable: true,
            hup: false
        }]
    );
    assert!(waited < Duration::from_millis(50), "took {waited:?}");
}

#[test]
fn a_peer_that_finished_sending_is_readable_eof_not_a_hangup() {
    let (client, server) = socket_pair();
    let (_quiet_client, quiet) = socket_pair();
    // Half-close: the client sends nothing more but still reads.
    client.shutdown(Shutdown::Write).expect("shutdown");
    // Entry 0 is a placeholder, entry 1 stays silent, entry 2 is at EOF:
    // tokens are slice indices.
    let mut fds = [
        PollFd::none(),
        PollFd::new(&quiet, false),
        PollFd::new(&server, false),
    ];
    let (events, waited) = poll_once(&mut fds, Duration::from_secs(10));
    assert_eq!(
        events,
        vec![Event {
            token: 2,
            readable: true,
            writable: false,
            hup: false
        }]
    );
    assert!(waited < Duration::from_millis(50), "took {waited:?}");
    assert_eq!((&server).read(&mut [0u8; 8]).expect("read"), 0, "EOF");
    // A full close looks the same from here: the FIN is all that arrives.
    drop(client);
    let (events, _) = poll_once(&mut fds, Duration::from_secs(10));
    assert!(events[0].readable && !events[0].hup, "{events:?}");
}

#[test]
fn a_socket_dead_in_both_directions_is_a_hangup() {
    let (client, server) = socket_pair();
    server.shutdown(Shutdown::Both).expect("shutdown");
    let (events, waited) = poll_once(&mut [PollFd::new(&server, false)], Duration::from_secs(10));
    assert_eq!(events.len(), 1, "{events:?}");
    assert!(events[0].hup, "{events:?}");
    assert!(waited < Duration::from_millis(50), "took {waited:?}");
    drop(client);
}

/// Sum of one `qp_reactor_*` family over the event loops, scraped over
/// the wire like any monitoring client would.
fn reactor_total(client: &mut ServiceClient, family: &str) -> f64 {
    let snapshot = client
        .metrics_snapshot()
        .expect("io")
        .expect("METRICS served");
    let per_loop: Vec<f64> = snapshot.with_prefix(family).map(|(_, v)| v).collect();
    assert_eq!(per_loop.len(), 2, "one {family} sample per event loop");
    per_loop.iter().sum()
}

#[test]
fn a_server_with_silent_connections_makes_no_wakeups() {
    let mut server = idle_server();
    let addr = server.local_addr();
    let idle: Vec<TcpStream> = (0..64)
        .map(|_| TcpStream::connect(addr).expect("connects"))
        .collect();
    let mut monitor = ServiceClient::connect(addr).expect("connects");
    // HELLO round-trips once every earlier socket has been dealt.
    monitor.hello().expect("hello");

    let before = reactor_total(&mut monitor, "qp_reactor_wakeups_total");
    std::thread::sleep(Duration::from_secs(1));
    let after = reactor_total(&mut monitor, "qp_reactor_wakeups_total");
    // The second scrape itself costs a wakeup or two; a timer-driven
    // loop would have made a thousand per loop.
    assert!(
        after - before < 20.0,
        "{} wakeups in an idle second",
        after - before
    );
    assert_eq!(
        reactor_total(&mut monitor, "qp_reactor_accepted_total"),
        65.0
    );
    let snapshot = monitor.metrics_snapshot().unwrap().unwrap();
    assert!(snapshot
        .value("qp_reactor_ready_events_total{loop=\"0\"}")
        .is_some());

    drop(idle);
    server.shutdown();
}

#[test]
fn shutdown_does_not_wait_for_a_timer() {
    // From outside: every thread is blocked in poll with seconds to go.
    let mut server = idle_server();
    let _idle = TcpStream::connect(server.local_addr()).expect("connects");
    let started = Instant::now();
    server.shutdown();
    let took = started.elapsed();
    assert!(took < Duration::from_millis(200), "shutdown took {took:?}");

    // From inside: sockets are dealt round-robin, so the first lands on
    // loop 0 and the second on loop 1. SHUTDOWN served by loop 0 must
    // reach loop 1, whose only other deadline is seconds away.
    let mut server = idle_server();
    let addr = server.local_addr();
    let mut on_loop_0 = ServiceClient::connect(addr).expect("connects");
    on_loop_0.hello().expect("hello");
    let mut on_loop_1 = TcpStream::connect(addr).expect("connects");
    on_loop_1
        .set_read_timeout(Some(Duration::from_secs(5)))
        .unwrap();
    let mut probe = ServiceClient::connect(addr).expect("connects");
    probe.hello().expect("hello");
    for i in 0..2 {
        let accepted = probe
            .metrics_snapshot()
            .unwrap()
            .unwrap()
            .value(&format!("qp_reactor_accepted_total{{loop=\"{i}\"}}"));
        assert!(accepted >= Some(1.0), "loop {i} adopted {accepted:?}");
    }

    let started = Instant::now();
    on_loop_0.shutdown().expect("SHUTDOWN answered");
    let mut byte = [0u8; 1];
    let eof = on_loop_1.read(&mut byte);
    let took = started.elapsed();
    assert!(matches!(eof, Ok(0)), "loop 1 kept its connection: {eof:?}");
    assert!(
        took < Duration::from_millis(200),
        "loop 1 stopped after {took:?}"
    );
    server.shutdown();
}
