//! The nonblocking TCP front door for [`QueryService`].
//!
//! Architecture: one acceptor thread plus `event_loops` event-loop
//! threads, every one of them blocked in [`reactor::poll`] — `poll(2)` —
//! until there is something to do. The acceptor waits on the listener
//! and deals accepted sockets round-robin to the loops (so a `SUBMIT`
//! planning on one loop never stalls the pollers on the other); each
//! loop waits on its shard of connections — read readiness always, write
//! readiness only while responses are queued — and on its
//! [`Waker`], which the acceptor writes after dealing it a socket and
//! which `SHUTDOWN`/[`ProgressServer::shutdown`] write to stop it. The
//! only timer is the idle-reap tick (a quarter of `idle_timeout`), so an
//! idle server makes a handful of wakeups a minute and a request is
//! served when its bytes arrive, not at the next tick.
//!
//! Request handling itself never blocks the loop: every verb is either
//! a registry/telemetry read or (`SUBMIT`) a bounded `try_send` into
//! the service's worker queue — query execution happens on the worker
//! pool, never on an event-loop thread. Responses are queued into the
//! connection's write buffer and drained as the socket accepts them.
//!
//! Resource limits ([`ServerConfig`]): at most `max_connections` live
//! connections — excess stays in the OS accept backlog; a connection
//! idle longer than `idle_timeout` is closed; a request line longer
//! than `max_line_bytes` is answered with `ERR TOO_LARGE` (the framer
//! resynchronises at the next newline — malformed input never costs a
//! silent disconnect); a peer that stops reading past
//! `max_outbuf_bytes` of queued responses is a slow consumer and is
//! disconnected. A peer that has finished *sending* (`shutdown(SHUT_WR)`,
//! `nc` at the end of its stdin) is not gone: its requests are served
//! and the replies flushed before the connection is closed.
//!
//! Every served request is timed into the service's per-verb latency
//! histograms (`METRICS` exposes them as `qp_request_latency_ns`), and
//! each loop counts its wakeups into a [`ReactorStats`]
//! (`qp_reactor_*{loop="i"}`).

use crate::protocol::{err_line, hello_line, status_line, ErrCode, Request};
use crate::reactor::{self, Conn, Frame, PollFd, Waker};
use crate::service::{QueryService, SubmitError, SubmitOptions};
use crate::telemetry::ReactorStats;
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::mpsc::{Receiver, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Resource limits for a [`ProgressServer`].
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Maximum simultaneous live connections across all event loops.
    /// Excess clients are left in the OS accept backlog until a slot
    /// frees up.
    pub max_connections: usize,
    /// A connection with no complete request for this long (and nothing
    /// left to write) is closed — checked every quarter of it, so within
    /// 25 % of it.
    pub idle_timeout: Duration,
    /// Event-loop threads multiplexing the connections.
    pub event_loops: usize,
    /// Longest accepted request line; longer lines answer
    /// `ERR TOO_LARGE` and are discarded to the next newline.
    pub max_line_bytes: usize,
    /// Queued-response cap per connection; a peer that stops reading
    /// past it is disconnected (slow consumer), not waited on.
    pub max_outbuf_bytes: usize,
}

impl Default for ServerConfig {
    fn default() -> ServerConfig {
        ServerConfig {
            max_connections: 4096,
            idle_timeout: Duration::from_secs(30),
            event_loops: 2,
            max_line_bytes: 16 * 1024,
            max_outbuf_bytes: 4 * 1024 * 1024,
        }
    }
}

/// What the acceptor and the event loops share.
struct Shared {
    service: Arc<QueryService>,
    config: ServerConfig,
    stop: AtomicBool,
    /// Live connections, dealt or in a loop's intake queue.
    live: AtomicUsize,
    /// `wakers[0]` is the acceptor's, `wakers[1 + i]` event loop `i`'s.
    wakers: Vec<Waker>,
}

impl Shared {
    /// Tells every thread to wind down and wakes each out of its `poll`.
    fn stop(&self) {
        self.stop.store(true, Ordering::SeqCst);
        self.wakers.iter().for_each(Waker::wake);
    }

    fn stopping(&self) -> bool {
        self.stop.load(Ordering::SeqCst)
    }

    /// One connection fewer. An acceptor parked at the cap is waiting
    /// for exactly this.
    fn release_slot(&self) {
        if self.live.fetch_sub(1, Ordering::SeqCst) == self.config.max_connections {
            self.wakers[0].wake();
        }
    }
}

/// The TCP server. Bind with port 0 to let the OS pick a free port (the
/// chosen address is available from [`local_addr`](ProgressServer::local_addr)).
pub struct ProgressServer {
    shared: Arc<Shared>,
    addr: SocketAddr,
    threads: Vec<JoinHandle<()>>,
}

impl ProgressServer {
    /// Binds `addr` with default [`ServerConfig`] limits.
    pub fn bind(
        addr: impl ToSocketAddrs,
        service: Arc<QueryService>,
    ) -> std::io::Result<ProgressServer> {
        ProgressServer::bind_with(addr, service, ServerConfig::default())
    }

    /// Binds `addr` and starts accepting connections against `service`,
    /// with explicit limits.
    pub fn bind_with(
        addr: impl ToSocketAddrs,
        service: Arc<QueryService>,
        config: ServerConfig,
    ) -> std::io::Result<ProgressServer> {
        assert!(config.max_connections > 0, "need at least one connection");
        assert!(config.event_loops > 0, "need at least one event loop");
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        // `accept` must not block: readiness comes from `poll`, and a
        // connection reset while still in the backlog would otherwise
        // park the acceptor where no waker reaches it.
        listener.set_nonblocking(true)?;
        let wakers = (0..=config.event_loops)
            .map(|_| Waker::new())
            .collect::<std::io::Result<Vec<Waker>>>()?;
        let shared = Arc::new(Shared {
            service,
            config,
            stop: AtomicBool::new(false),
            live: AtomicUsize::new(0),
            wakers,
        });
        let mut intakes = Vec::new();
        let mut threads = Vec::new();
        for i in 0..shared.config.event_loops {
            let (tx, rx) = std::sync::mpsc::channel::<TcpStream>();
            intakes.push(tx);
            let shared = Arc::clone(&shared);
            let stats = shared.service.register_reactor_loop();
            threads.push(
                std::thread::Builder::new()
                    .name(format!("qp-loop-{i}"))
                    .spawn(move || event_loop(&shared, i, &rx, &stats))?,
            );
        }
        let acceptor = Arc::clone(&shared);
        threads.push(
            std::thread::Builder::new()
                .name("qp-accept".into())
                .spawn(move || accept_loop(&listener, &acceptor, &intakes))?,
        );
        Ok(ProgressServer {
            shared,
            addr,
            threads,
        })
    }

    /// The bound address (useful with port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The service behind this server.
    pub fn service(&self) -> &Arc<QueryService> {
        &self.shared.service
    }

    /// Stops accepting, flushes and closes every connection, shuts the
    /// service down, and joins all threads. Idempotent; also invoked by
    /// `Drop`.
    pub fn shutdown(&mut self) {
        self.shared.stop();
        for t in self.threads.drain(..) {
            let _ = t.join();
        }
        self.shared.service.shutdown();
    }
}

impl Drop for ProgressServer {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(listener: &TcpListener, shared: &Shared, intakes: &[Sender<TcpStream>]) {
    let waker = &shared.wakers[0];
    let mut events = Vec::new();
    let mut next_loop = 0usize;
    while !shared.stopping() {
        // At the cap the listener leaves the poll set: new connections
        // stay in the OS backlog until `release_slot` wakes this thread.
        let at_cap = shared.live.load(Ordering::SeqCst) >= shared.config.max_connections;
        let mut fds = [
            PollFd::new(waker, false),
            if at_cap {
                PollFd::none()
            } else {
                PollFd::new(listener, false)
            },
        ];
        reactor::poll(&mut fds, None, &mut events).expect("poll(2) on the acceptor's own fds");
        let mut pending = false;
        for ev in &events {
            match ev.token {
                0 => waker.drain(),
                _ => pending = true,
            }
        }
        if !pending {
            continue;
        }
        match listener.accept() {
            Ok((stream, _peer)) => {
                shared.live.fetch_add(1, Ordering::SeqCst);
                let to = next_loop % intakes.len();
                next_loop = next_loop.wrapping_add(1);
                match intakes[to].send(stream) {
                    Ok(()) => shared.wakers[1 + to].wake(),
                    Err(_) => shared.release_slot(),
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {}
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

/// How long a stopping loop keeps trying to flush farewell bytes before
/// force-closing connections whose peers have stopped reading.
const STOP_FLUSH_GRACE: Duration = Duration::from_millis(500);

fn event_loop(shared: &Shared, index: usize, intake: &Receiver<TcpStream>, stats: &ReactorStats) {
    let (service, config) = (&shared.service, &shared.config);
    let waker = &shared.wakers[1 + index];
    let tick = (config.idle_timeout / 4).max(Duration::from_millis(1));
    let mut next_reap = Instant::now() + tick;
    // Set once the loop is stopping: when to give up on unflushed peers.
    let mut stop_by: Option<Instant> = None;
    let mut conns: Vec<Option<Conn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut fds: Vec<PollFd> = Vec::new();
    let mut events: Vec<reactor::Event> = Vec::new();
    let close = |conns: &mut [Option<Conn>], free: &mut Vec<usize>, slot: usize| {
        if conns[slot].take().is_some() {
            free.push(slot);
            shared.release_slot();
        }
    };
    type Doomed<'a> = &'a mut dyn FnMut(&mut Conn) -> bool;
    let close_where = |conns: &mut [Option<Conn>], free: &mut Vec<usize>, doomed: Doomed| {
        for slot in 0..conns.len() {
            if conns[slot].as_mut().is_some_and(&mut *doomed) {
                close(conns, free, slot);
            }
        }
    };
    loop {
        // Entry 0 is the waker, entry 1 + slot a connection; an empty
        // slot keeps its place so tokens map straight back to slots.
        fds.clear();
        fds.push(PollFd::new(waker, false));
        fds.extend(conns.iter().map(|c| match c {
            Some(c) => c.poll_fd(),
            None => PollFd::none(),
        }));
        let wait = stop_by
            .unwrap_or(next_reap)
            .saturating_duration_since(Instant::now());
        reactor::poll(&mut fds, Some(wait), &mut events).expect("poll(2) on the loop's own fds");
        stats.woke(events.len());

        for &ev in &events {
            if ev.token == 0 {
                // Intake: adopt freshly-dealt sockets (not while
                // stopping — those are closed unserved).
                waker.drain();
                while let Ok(stream) = intake.try_recv() {
                    match Conn::new(stream, config.max_line_bytes) {
                        Ok(conn) if !shared.stopping() => {
                            let slot = free.pop().unwrap_or_else(|| {
                                conns.push(None);
                                conns.len() - 1
                            });
                            conns[slot] = Some(conn);
                            stats.accepted.fetch_add(1, Ordering::Relaxed);
                        }
                        _ => shared.release_slot(),
                    }
                }
                continue;
            }
            let slot = ev.token - 1;
            let Some(conn) = conns[slot].as_mut() else {
                continue;
            };
            let mut alive = !ev.hup;
            if alive && ev.readable {
                match conn.fill() {
                    Ok(true) => {}
                    // The peer has finished sending but may still be
                    // reading (`shutdown(SHUT_WR)`, `nc` at the end of
                    // its stdin): its replies are flushed before the close.
                    Ok(false) => conn.closing = true,
                    Err(_) => alive = false,
                }
                while alive && !conn.closing {
                    let Some(frame) = conn.framer.pop() else {
                        break;
                    };
                    let served_at = Instant::now();
                    conn.last_activity = served_at;
                    let reply = respond(service, config, &frame);
                    conn.queue(&reply.text);
                    if let Some(i) = reply.verb {
                        service.record_verb_latency(
                            i,
                            served_at.elapsed().as_nanos().min(u64::MAX as u128) as u64,
                        );
                    }
                    if reply.shutdown {
                        // Farewell queued; close once it drains and
                        // tell every loop to wind down.
                        conn.closing = true;
                        shared.stop();
                    }
                    // One read can carry thousands of requests: the cap
                    // bounds the backlog mid-batch too, after the socket
                    // has had its chance to take it.
                    if conn.out_len() > config.max_outbuf_bytes {
                        alive = conn.flush().is_ok() && conn.out_len() <= config.max_outbuf_bytes;
                    }
                }
            }
            // Flush what was just queued, or what a `writable` report
            // says the socket now takes; the rest keeps write interest on.
            alive = alive && conn.flush().is_ok();
            stats
                .outbuf_high_water
                .fetch_max(conn.out_len() as u64, Ordering::Relaxed);
            if !alive
                || conn.out_len() > config.max_outbuf_bytes
                || (conn.flushed() && (conn.closing || stop_by.is_some()))
            {
                close(&mut conns, &mut free, slot);
            }
        }

        let now = Instant::now();
        if stop_by.is_none() && shared.stopping() {
            // Everything already flushed closes now; the rest is polled
            // for `writable` until the grace runs out.
            stop_by = Some(now + STOP_FLUSH_GRACE);
            close_where(&mut conns, &mut free, &mut |c| {
                c.flush().is_err() || c.flushed()
            });
        }
        if let Some(by) = stop_by {
            if now >= by || conns.iter().all(Option::is_none) {
                // Force-close the stragglers and the sockets still
                // queued, so the live count stays honest, then exit.
                close_where(&mut conns, &mut free, &mut |_| true);
                intake.try_iter().for_each(|_| shared.release_slot());
                return;
            }
        } else if now >= next_reap {
            next_reap = now + tick;
            close_where(&mut conns, &mut free, &mut |c| {
                c.flushed() && c.last_activity + config.idle_timeout <= now
            });
        }
    }
}

/// Maps a [`SubmitError`] onto its wire error code.
fn submit_err_code(e: &SubmitError) -> ErrCode {
    match e {
        SubmitError::Plan(_) => ErrCode::Plan,
        SubmitError::BadRequest(_) => ErrCode::BadRequest,
        SubmitError::Saturated { .. } => ErrCode::Saturated,
        SubmitError::ShuttingDown => ErrCode::ShuttingDown,
    }
}

/// Position of a parsed request's verb in [`crate::protocol::VERBS`]
/// (the per-verb latency histogram index).
fn verb_index(req: &Request) -> usize {
    let verb = match req {
        Request::Hello => "HELLO",
        Request::Submit { .. } => "SUBMIT",
        Request::Status(_) => "STATUS",
        Request::List => "LIST",
        Request::Cancel(_) => "CANCEL",
        Request::Metrics => "METRICS",
        Request::Trace(_) => "TRACE",
        Request::Audit(_) => "AUDIT",
        Request::Shutdown => "SHUTDOWN",
    };
    crate::protocol::VERBS
        .iter()
        .position(|v| *v == verb)
        .expect("every request variant has a VERBS entry")
}

/// One computed reply: the text to queue (possibly multi-line,
/// `OK <n>`-framed), the verb's histogram index when the request parsed,
/// and whether this was `SHUTDOWN`.
struct Reply {
    text: String,
    verb: Option<usize>,
    shutdown: bool,
}

impl Reply {
    fn err(code: ErrCode, msg: &str) -> Reply {
        Reply {
            text: err_line(code, msg),
            verb: None,
            shutdown: false,
        }
    }
}

/// An `OK <n>`-framed block reply: the count, then the `n` lines.
fn block(lines: &[impl AsRef<str>]) -> String {
    let mut out = format!("OK {}", lines.len());
    for l in lines {
        out.push('\n');
        out.push_str(l.as_ref());
    }
    out
}

/// Serves one framed event. Every branch answers with exactly one
/// `OK …` / `ERR <CODE> …` head line (block verbs append their body) —
/// the audit invariant that malformed input never goes unanswered.
fn respond(service: &Arc<QueryService>, config: &ServerConfig, frame: &Frame) -> Reply {
    let line = match frame {
        Frame::Line(line) => line,
        Frame::TooLong => {
            return Reply::err(
                ErrCode::TooLarge,
                &format!("request line exceeds {} bytes", config.max_line_bytes),
            )
        }
        Frame::Nul => return Reply::err(ErrCode::BadRequest, "request line contains NUL"),
    };
    let parsed = Request::parse(line);
    let verb = parsed.as_ref().ok().map(verb_index);
    let mut shutdown = false;
    let text = match parsed {
        Err(msg) => err_line(ErrCode::BadRequest, &msg),
        Ok(Request::Hello) => hello_line(),
        Ok(Request::Submit {
            sql,
            timeout_ms,
            parallelism,
            estimators,
            morsel_size,
            page_cache_frames,
        }) => {
            let opts = SubmitOptions {
                timeout: timeout_ms.map(Duration::from_millis),
                faults: None,
                parallelism,
                estimators,
                morsel_size,
                page_cache_frames,
            };
            match service.submit_with(&sql, opts) {
                Ok(id) => format!("OK {id}"),
                Err(e) => err_line(submit_err_code(&e), &e.to_string()),
            }
        }
        Ok(Request::Status(id)) => match service.status(id) {
            Some(report) => status_line(&report),
            None => err_line(ErrCode::UnknownQuery, &format!("unknown query {id}")),
        },
        Ok(Request::List) => block(
            &service
                .list()
                .iter()
                .map(|(id, state, health)| format!("{id} {state} health={health}"))
                .collect::<Vec<_>>(),
        ),
        Ok(Request::Metrics) => {
            let text = crate::telemetry::metrics_text(service);
            block(&text.lines().collect::<Vec<_>>())
        }
        Ok(Request::Trace(id)) => match crate::telemetry::trace_jsonl(service, id) {
            Some(lines) => block(&lines),
            None => err_line(ErrCode::UnknownQuery, &format!("unknown query {id}")),
        },
        Ok(Request::Audit(id)) => match crate::telemetry::audit_jsonl(service, id) {
            // Bare AUDIT with nothing finished yet legally answers
            // `OK 0`; only an unknown/expired id errors.
            Some(lines) => block(&lines),
            None => {
                let id = id.expect("bare AUDIT always renders");
                err_line(
                    ErrCode::UnknownQuery,
                    &format!("no retained postmortem for {id}"),
                )
            }
        },
        Ok(Request::Cancel(id)) => match service.cancel(id) {
            Some(found) => format!("OK {id} {found}"),
            None => err_line(ErrCode::UnknownQuery, &format!("unknown query {id}")),
        },
        Ok(Request::Shutdown) => {
            shutdown = true;
            "OK bye".to_string()
        }
    };
    Reply {
        text,
        verb,
        shutdown,
    }
}
