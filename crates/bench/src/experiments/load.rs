//! Service load matrix (`repro -- load`): a deterministic multi-
//! connection load generator against the event-loop front end.
//!
//! The point of PR 10's reactor is that one box can hold thousands of
//! idle-ish monitoring sessions while a handful of queries run — the
//! progress protocol is only trustworthy *operationally* if `STATUS`
//! stays cheap under that fan-in. This experiment opens every
//! connection the server will take (full mode: 5 000 concurrent
//! sockets, small mode: a CI-sized slice), drives tens of thousands of
//! mixed `SUBMIT`/`STATUS`/`LIST`/`METRICS`/`AUDIT` requests from a
//! seeded schedule, and self-gates on:
//!
//! * **zero protocol errors** — every request gets a well-formed reply,
//!   no unsolicited lines, no server-side disconnects;
//! * **monotone session states** — no `STATUS` reply ever reports a
//!   state earlier in the lifecycle (Queued → Running → terminal) than a
//!   reply for the same query that had arrived before its request left;
//! * **bounded `STATUS` latency** — client-observed round-trip p99 and
//!   mean under load stay within an explicit budget, with the idle
//!   baseline recorded alongside so the overhead of live progress
//!   tracking is visible;
//! * **bounded queue latency** — the server's admission→worker
//!   histogram (PR 9) stays within budget.
//!
//! The generator reuses the server's own [`qp_service::reactor`]
//! machinery client-side: nonblocking sockets, the same blocking
//! `poll(2)` call, and the same [`LineFramer`] — so one driver thread
//! multiplexes all connections without threads-per-connection on either
//! end, and waits for replies in the kernel rather than in a sleep.
//! Results land in `BENCH_service.json` at the workspace root.
//!
//! [`LineFramer`]: qp_service::reactor::LineFramer

use crate::render::render_table;
use crate::Scale;
use qp_datagen::{TpchConfig, TpchDb};
use qp_obs::json::Obj;
use qp_obs::LatencyHistogram;
use qp_service::reactor::{self, Conn, Frame, PollFd};
use qp_service::{
    ProgressServer, QueryService, QueryState, RetryPolicy, ServerConfig, ServiceClient,
    ServiceConfig, StatusLine,
};
use qp_stats::DbStats;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::Path;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// `STATUS`'s index in [`qp_service::VERBS`] (pinned by a test below),
/// used to read the server-side per-verb latency histogram.
const STATUS_VERB_INDEX: usize = 2;

/// Client-side line cap; must exceed the longest `STATUS`/metrics line.
const MAX_LINE: usize = 64 * 1024;

/// Sizes, mixes, and latency budgets for one load run.
#[derive(Debug, Clone, Copy)]
struct Params {
    mode: &'static str,
    /// Concurrent client connections held through the whole run.
    conns: usize,
    /// Baseline `STATUS` sweeps with nothing running.
    idle_rounds: usize,
    /// Mixed-verb sweeps with background queries executing.
    busy_rounds: usize,
    /// Long-running queries submitted for the busy phase.
    heavy: usize,
    /// Finished queries seeded up front as `STATUS` targets.
    pool: usize,
    /// Cap on `SUBMIT`s issued from load connections.
    max_submits: usize,
    /// Per-round reply deadline.
    round_timeout: Duration,
    /// How long the open connections are left silent to count the event
    /// loops' idle wakeups.
    quiet: Duration,
    /// Gate: client-observed `STATUS` p50 with nothing running, in ms.
    idle_p50_ms: f64,
    /// Gate: client-observed `STATUS` p99 under load, in ms.
    status_p99_ms: f64,
    /// Gate: client-observed `STATUS` mean under load, in ms.
    status_mean_ms: f64,
    /// Gate: server admission→worker p99, in ms.
    queue_p99_ms: f64,
}

/// The ROADMAP's targets for the front end at 5,000 connections, in ms.
/// Not gates: a round is one burst of a request per connection from one
/// thread, so a reply's latency is mostly its place in that burst, and
/// both modes measure well above them (EXPERIMENTS.md). Each run reports
/// whether it met them.
const TARGET_IDLE_P50_MS: f64 = 1.0;
const TARGET_BUSY_P99_MS: f64 = 10.0;

impl Params {
    /// Full mode: every budget is twice the median of 14 runs on the
    /// 2-vCPU reference box, put on the histogram bucket edge below
    /// (idle p50 9.4 ms, busy p99 67 ms, busy mean 22 ms, queue p99
    /// 18.9 ms). Small mode is CI's: twice the *worst* of 28 runs (4.2,
    /// 25.2, 8.9 and 12.6 ms) — the box itself moves by 2× between quiet
    /// and busy hours, and a gate one bucket above its median flakes.
    fn new(small: bool) -> Params {
        if small {
            Params {
                mode: "small",
                conns: 256,
                idle_rounds: 2,
                busy_rounds: 4,
                heavy: 1,
                pool: 8,
                max_submits: 64,
                round_timeout: Duration::from_secs(30),
                quiet: Duration::from_millis(250),
                idle_p50_ms: 8.4,
                status_p99_ms: 50.4,
                status_mean_ms: 18.0,
                queue_p99_ms: 25.2,
            }
        } else {
            Params {
                mode: "full",
                conns: 5_000,
                idle_rounds: 3,
                busy_rounds: 6,
                heavy: 2,
                pool: 16,
                max_submits: 256,
                round_timeout: Duration::from_secs(120),
                quiet: Duration::from_secs(1),
                idle_p50_ms: 16.8,
                status_p99_ms: 134.3,
                status_mean_ms: 43.0,
                queue_p99_ms: 33.6,
            }
        }
    }
}

/// Outcome of one load run; `violations` empty = all gates held.
#[derive(Debug)]
pub struct LoadResult {
    pub mode: &'static str,
    /// Connections that completed `HELLO` and stayed up to the end.
    pub conns: usize,
    /// Requests that received a complete, well-formed reply.
    pub requests: u64,
    pub protocol_errors: u64,
    pub timeouts: u64,
    pub monotone_violations: u64,
    /// `(series, count, p50 ms, p95 ms, p99 ms, mean ms)` rows.
    pub rows: Vec<Vec<String>>,
    /// Shared-scan counters observed after the run:
    /// `(attaches, shared_attaches, rows_produced, rows_served)`.
    pub sharedscan: (u64, u64, u64, u64),
    /// The two front-end latency gates and the ROADMAP-target verdict,
    /// one rendered line each (CI greps them).
    pub gates: Vec<String>,
    /// Whether the run met the ROADMAP's front-end targets — reported
    /// beside the gate verdict, not part of it.
    pub targets_met: bool,
    pub violations: Vec<String>,
    /// Flat `(key, value)` summary fields mirrored into the JSON gate.
    summary: Vec<(&'static str, f64)>,
}

impl LoadResult {
    pub fn passed(&self) -> bool {
        self.violations.is_empty()
    }

    pub fn render(&self) -> String {
        let mut out = render_table(
            &format!(
                "load ({}): {} connections, {} completed requests",
                self.mode, self.conns, self.requests
            ),
            &["series", "count", "p50 ms", "p95 ms", "p99 ms", "mean ms"],
            &self.rows,
        );
        out.push_str(&format!(
            "errors: protocol={} timeouts={} monotone={}  shared-scan: attaches={} shared={} \
             rows_produced={} rows_served={}\n",
            self.protocol_errors,
            self.timeouts,
            self.monotone_violations,
            self.sharedscan.0,
            self.sharedscan.1,
            self.sharedscan.2,
            self.sharedscan.3,
        ));
        for g in &self.gates {
            out.push_str(g);
            out.push('\n');
        }
        if self.passed() {
            out.push_str(&format!(
                "PASS: {} connections served with zero protocol errors and bounded latency\n",
                self.conns
            ));
        } else {
            for v in &self.violations {
                out.push_str(&format!("VIOLATION: {v}\n"));
            }
        }
        out
    }
}

/// Verbs the load connections issue (plus the ramp's `HELLO`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Verb {
    Hello,
    Status,
    Submit,
    List,
    Metrics,
    Audit,
}

impl Verb {
    fn expects_block(self) -> bool {
        matches!(self, Verb::List | Verb::Metrics | Verb::Audit)
    }
}

/// Client-side latency series (index = `Pending::series`).
const SERIES: [&str; 7] = [
    "HELLO (ramp)",
    "STATUS (idle)",
    "STATUS (busy)",
    "SUBMIT",
    "LIST",
    "METRICS",
    "AUDIT",
];

/// One in-flight request on one connection.
#[derive(Debug)]
struct Pending {
    verb: Verb,
    series: usize,
    sent: Instant,
    /// `STATUS`: the highest lifecycle rank already seen for the query
    /// when this request was sent — what its reply must not fall below.
    /// (Replies to requests in flight together carry no order: two loops
    /// serve them and the generator reads them in connection order.)
    floor: u8,
    /// Lines left in an `OK <n>` block reply; `None` = header not seen.
    block_left: Option<usize>,
}

/// One load connection: reactor conn + at most one outstanding request.
struct Client {
    conn: Conn,
    pending: Option<Pending>,
    dead: bool,
}

/// Mutable run state shared by the pump/drain helpers.
struct Run {
    hists: Vec<LatencyHistogram>,
    /// Highest lifecycle rank seen per query id token.
    states: HashMap<String, u8>,
    /// Query id tokens `STATUS` picks from (fixed after setup).
    status_pool: Vec<String>,
    requests: u64,
    protocol_errors: u64,
    timeouts: u64,
    monotone_violations: u64,
    violations: Vec<String>,
    submits_left: usize,
}

/// Queued → Running → terminal; a `STATUS` reply must never rank lower
/// than a reply for the same query seen before its request was sent.
fn rank(state: QueryState) -> u8 {
    match state {
        QueryState::Queued => 0,
        QueryState::Running => 1,
        _ => 2,
    }
}

/// splitmix64 — the schedule's only entropy source, so one seed
/// reproduces the whole verb mix.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

impl Run {
    fn new() -> Run {
        Run {
            hists: (0..SERIES.len()).map(|_| LatencyHistogram::new()).collect(),
            states: HashMap::new(),
            status_pool: Vec::new(),
            requests: 0,
            protocol_errors: 0,
            timeouts: 0,
            monotone_violations: 0,
            violations: Vec::new(),
            submits_left: 0,
        }
    }

    /// Caps the violation list so an error storm renders as a few lines
    /// plus a count, not megabytes.
    fn note(&mut self, v: String) {
        if self.violations.len() < 16 {
            self.violations.push(v);
        }
    }

    /// Queues one request and writes it at once; whatever the socket
    /// does not take is flushed by [`pump`](Run::pump) when it reports
    /// writable.
    fn queue(&mut self, c: &mut Client, verb: Verb, series: usize, line: &str) {
        debug_assert!(c.pending.is_none(), "one outstanding request per conn");
        c.conn.queue(line);
        let floor = line
            .strip_prefix("STATUS ")
            .and_then(|id| self.states.get(id).copied())
            .unwrap_or(0);
        c.pending = Some(Pending {
            verb,
            series,
            sent: Instant::now(),
            floor,
            block_left: None,
        });
        if c.conn.flush().is_err() {
            c.dead = true;
            self.protocol_errors += 1;
            self.note(format!("{verb:?}: write failed"));
        }
    }

    /// Waits up to `timeout` for a connection that owes a reply (or has
    /// unsent output) to become ready, then reads, frames and accounts
    /// replies and flushes pending output.
    fn pump(&mut self, clients: &mut [Client], timeout: Duration) {
        let mut fds: Vec<PollFd> = clients
            .iter()
            .map(|c| {
                let unsent = !c.conn.flushed();
                if !c.dead && (c.pending.is_some() || unsent) {
                    PollFd::new(c.conn.stream(), unsent)
                } else {
                    PollFd::none()
                }
            })
            .collect();
        let mut events = Vec::new();
        reactor::poll(&mut fds, Some(timeout), &mut events).expect("poll(2) on the client sockets");
        for ev in events {
            let c = &mut clients[ev.token];
            if ev.hup {
                c.dead = true;
                self.protocol_errors += 1;
                self.note(format!("conn {}: server hung up mid-session", ev.token));
                continue;
            }
            if ev.readable {
                match c.conn.fill() {
                    Ok(true) => {}
                    Ok(false) | Err(_) => {
                        c.dead = true;
                        self.protocol_errors += 1;
                        self.note(format!("conn {}: connection dropped by server", ev.token));
                        continue;
                    }
                }
                while let Some(frame) = c.conn.framer.pop() {
                    self.on_frame(ev.token, c, frame);
                }
            }
            if ev.writable && c.conn.flush().is_err() {
                c.dead = true;
                self.protocol_errors += 1;
                self.note(format!("conn {}: write failed", ev.token));
            }
        }
    }

    fn on_frame(&mut self, token: usize, c: &mut Client, frame: Frame) {
        let line = match frame {
            Frame::Line(l) => l,
            Frame::TooLong | Frame::Nul => {
                self.protocol_errors += 1;
                self.note(format!("conn {token}: unframeable reply from server"));
                return;
            }
        };
        let Some(p) = c.pending.as_mut() else {
            self.protocol_errors += 1;
            self.note(format!("conn {token}: unsolicited reply: {line}"));
            return;
        };
        let mut complete = false;
        let mut failed: Option<String> = None;
        if p.verb.expects_block() {
            match p.block_left {
                None => match line
                    .strip_prefix("OK ")
                    .and_then(|n| n.parse::<usize>().ok())
                {
                    Some(0) => complete = true,
                    Some(n) => p.block_left = Some(n),
                    None => {
                        complete = true;
                        failed = Some(format!("conn {token}: block header was: {line}"));
                    }
                },
                Some(1) => complete = true,
                Some(k) => p.block_left = Some(k - 1),
            }
        } else {
            complete = true;
            if line.starts_with("ERR") {
                failed = Some(format!("conn {token}: {:?} refused: {line}", p.verb));
            } else {
                match p.verb {
                    Verb::Hello if !line.contains("protocol=3") => {
                        failed = Some(format!("conn {token}: hello not v3: {line}"));
                    }
                    Verb::Status => match StatusLine::parse(&line) {
                        Ok(s) => {
                            let r = rank(s.state);
                            if r < p.floor {
                                self.monotone_violations += 1;
                                if self.monotone_violations == 1 {
                                    self.violations.push(format!(
                                        "conn {token}: {} went backwards to {:?}",
                                        s.id, s.state
                                    ));
                                }
                            }
                            let seen = self.states.entry(s.id.to_string()).or_insert(r);
                            *seen = r.max(*seen);
                        }
                        Err(e) => failed = Some(format!("conn {token}: bad STATUS reply: {e}")),
                    },
                    Verb::Submit if !line.starts_with("OK q") => {
                        failed = Some(format!("conn {token}: bad SUBMIT reply: {line}"));
                    }
                    _ => {}
                }
            }
        }
        if complete {
            let p = c.pending.take().expect("pending present");
            if let Some(why) = failed {
                self.protocol_errors += 1;
                self.note(why);
            } else {
                self.hists[p.series]
                    .record(p.sent.elapsed().as_nanos().min(u64::MAX as u128) as u64);
                self.requests += 1;
            }
        }
    }

    /// Pumps until every connection is reply-free or `deadline` passes;
    /// stragglers count as timeouts and their connections are retired.
    fn drain(&mut self, clients: &mut [Client], deadline: Instant) {
        while clients.iter().any(|c| !c.dead && c.pending.is_some()) {
            let left = deadline.saturating_duration_since(Instant::now());
            if left.is_zero() {
                let mut missing = 0u64;
                for c in clients.iter_mut() {
                    if !c.dead && c.pending.is_some() {
                        missing += 1;
                        c.dead = true;
                        c.pending = None;
                    }
                }
                self.timeouts += missing;
                self.note(format!("{missing} replies missing at round deadline"));
                return;
            }
            self.pump(clients, left);
        }
    }

    /// One seeded mixed-verb sweep: every live connection issues one
    /// request, then the round drains fully.
    fn busy_round(&mut self, clients: &mut [Client], seed: u64, round: u64, timeout: Duration) {
        for i in 0..clients.len() {
            if clients[i].dead {
                continue;
            }
            let h = mix(seed ^ (round << 32) ^ i as u64);
            let pick = (mix(h) % self.status_pool.len().max(1) as u64) as usize;
            let (verb, series, line) = match h % 100 {
                0..=89 => {
                    let id = &self.status_pool[pick];
                    (Verb::Status, 2, format!("STATUS {id}"))
                }
                90..=92 if self.submits_left > 0 => {
                    self.submits_left -= 1;
                    (
                        Verb::Submit,
                        3,
                        "SUBMIT SELECT COUNT(*) AS n FROM region".to_string(),
                    )
                }
                93..=94 => (Verb::List, 4, "LIST".to_string()),
                95..=96 => (Verb::Metrics, 5, "METRICS".to_string()),
                97..=98 => (Verb::Audit, 6, "AUDIT".to_string()),
                _ => {
                    let id = &self.status_pool[pick];
                    (Verb::Status, 2, format!("STATUS {id}"))
                }
            };
            let c = &mut clients[i];
            self.queue(c, verb, series, &line);
            if i % 64 == 63 {
                // Interleave sends with reply service so neither side's
                // buffers balloon at high connection counts.
                self.pump(clients, Duration::ZERO);
            }
        }
        self.drain(clients, Instant::now() + timeout);
    }
}

/// An address that refuses connections: bind an ephemeral port, then
/// free it. Exercises the client's deterministic address rotation.
fn dead_addr() -> SocketAddr {
    let l = TcpListener::bind("127.0.0.1:0").expect("ephemeral bind");
    let addr = l.local_addr().expect("bound addr");
    drop(l);
    addr
}

/// Runs the load matrix. `small` shrinks connection counts and rounds
/// for CI; the gates stay on in both modes.
pub fn load(scale: &Scale, small: bool, seed: u64) -> LoadResult {
    let p = Params::new(small);
    let t = TpchDb::generate(TpchConfig {
        scale: scale.tpch_scale,
        z: scale.tpch_z,
        seed,
    });
    let db = Arc::new(t.db);
    let stats = Arc::new(DbStats::build(&db));
    let service = Arc::new(QueryService::with_stats(
        Arc::clone(&db),
        Arc::clone(&stats),
        ServiceConfig {
            workers: 4,
            queue_depth: 1024,
            stride: Some(500),
            ..ServiceConfig::default()
        },
    ));
    let mut server = ProgressServer::bind_with(
        "127.0.0.1:0",
        Arc::clone(&service),
        ServerConfig {
            max_connections: p.conns + 32,
            idle_timeout: Duration::from_secs(300),
            event_loops: 2,
            ..ServerConfig::default()
        },
    )
    .expect("server binds");
    let addr = server.local_addr();

    let mut run = Run::new();
    run.submits_left = p.max_submits;

    // Address rotation: first address refuses, the client must rotate
    // to the live one and come up speaking v3 with both capabilities.
    match ServiceClient::connect_with_retry_to(&[dead_addr(), addr], &RetryPolicy::default()) {
        Ok(mut probe) => match probe.hello_info() {
            Ok(Ok(info)) => {
                if info.protocol != 3 {
                    run.note(format!("rotation probe spoke protocol {}", info.protocol));
                }
                for cap in ["ASYNC", "SHARED_SCAN"] {
                    if !info.has_cap(cap) {
                        run.note(format!("server did not advertise {cap}"));
                    }
                }
            }
            Ok(Err(e)) => run.note(format!("rotation probe HELLO refused: {e}")),
            Err(e) => run.note(format!("rotation probe HELLO failed: {e}")),
        },
        Err(e) => run.note(format!("address rotation failed to reach live server: {e}")),
    }

    // Seed the STATUS pool with finished queries so idle-phase STATUS
    // has real sessions to interrogate.
    let mut control = ServiceClient::connect(addr).expect("control client connects");
    for _ in 0..p.pool {
        let id = control
            .submit("SELECT COUNT(*) AS n FROM nation")
            .expect("io")
            .expect("pool query admitted");
        service.wait(id);
        run.status_pool.push(id.to_string());
    }

    // Ramp: open every connection; HELLO doubles as the readiness
    // barrier and the per-connection handshake latency sample.
    let mut clients: Vec<Client> = Vec::with_capacity(p.conns);
    'ramp: for i in 0..p.conns {
        let mut stream = None;
        for attempt in 0..500 {
            match TcpStream::connect(addr) {
                Ok(s) => {
                    stream = Some(s);
                    break;
                }
                Err(e) => {
                    if attempt == 499 {
                        run.note(format!("conn {i}: connect failed: {e}"));
                    }
                    std::thread::sleep(Duration::from_millis(2));
                }
            }
        }
        let Some(stream) = stream else { break 'ramp };
        let conn = Conn::new(stream, MAX_LINE).expect("nonblocking conn");
        let mut c = Client {
            conn,
            pending: None,
            dead: false,
        };
        run.queue(&mut c, Verb::Hello, 0, "HELLO");
        clients.push(c);
        if i % 64 == 63 {
            run.pump(&mut clients, Duration::ZERO);
        }
    }
    run.drain(&mut clients, Instant::now() + p.round_timeout);
    let up = clients.iter().filter(|c| !c.dead).count();

    // Quiet window: every connection open, nothing sent. Event loops
    // blocked in the kernel should not wake at all.
    let wakeups = || -> u64 {
        let loops = service.reactor_loops();
        loops.iter().map(|s| s.wakeups.load(Relaxed)).sum()
    };
    let quiet_from = wakeups();
    std::thread::sleep(p.quiet);
    let wakeups_per_s_idle = (wakeups() - quiet_from) as f64 / p.quiet.as_secs_f64();

    // Idle baseline: STATUS sweeps with no query running.
    for r in 0..p.idle_rounds {
        for i in 0..clients.len() {
            if clients[i].dead {
                continue;
            }
            let pick = (mix(seed ^ 0xD1E ^ (r as u64) << 32 ^ i as u64)
                % run.status_pool.len() as u64) as usize;
            let line = format!("STATUS {}", run.status_pool[pick]);
            let c = &mut clients[i];
            run.queue(c, Verb::Status, 1, &line);
            if i % 64 == 63 {
                run.pump(&mut clients, Duration::ZERO);
            }
        }
        run.drain(&mut clients, Instant::now() + p.round_timeout);
    }

    // Busy phase: long cross-products occupy workers (identical SQL, so
    // their lineitem passes share one scan epoch), then mixed sweeps.
    let heavy_sql =
        "SELECT COUNT(*) AS n FROM supplier, nation, lineitem WHERE s_acctbal > l_extendedprice";
    let mut heavies = Vec::new();
    for _ in 0..p.heavy {
        let id = control
            .submit(heavy_sql)
            .expect("io")
            .expect("heavy query admitted");
        run.status_pool.push(id.to_string());
        heavies.push(id);
    }
    for r in 0..p.busy_rounds {
        run.busy_round(&mut clients, seed, r as u64, p.round_timeout);
    }
    for id in heavies {
        let terminal = service
            .status(id)
            .map(|s| rank(s.state) == 2)
            .unwrap_or(true);
        if !terminal {
            control.cancel(id).expect("io").ok();
            service.wait(id);
        }
    }
    // One last sweep so every tracked query is observed terminal.
    let final_round = p.busy_rounds as u64;
    run.busy_round(&mut clients, seed, final_round, p.round_timeout);

    let survivors = clients.iter().filter(|c| !c.dead).count();
    drop(clients);

    // Server-side histograms (PR 9): admission→worker, run time, and
    // the event loops' own STATUS service time.
    let queue = service.queue_hist().snapshot();
    let runh = service.run_hist().snapshot();
    let srv_status = service.verb_hists()[STATUS_VERB_INDEX].snapshot();
    let sharedscan = service
        .scan_share()
        .map(|s| {
            let st = s.stats();
            (
                st.attaches.load(Relaxed),
                st.shared_attaches.load(Relaxed),
                st.rows_produced.load(Relaxed),
                st.rows_served.load(Relaxed),
            )
        })
        .unwrap_or((0, 0, 0, 0));
    server.shutdown();

    let ms = |ns: u64| ns as f64 / 1e6;
    let mut rows = Vec::new();
    let mut summary: Vec<(&'static str, f64)> = Vec::new();
    let push_row = |rows: &mut Vec<Vec<String>>, name: &str, s: &qp_obs::HistogramSnapshot| {
        rows.push(vec![
            name.to_string(),
            s.count.to_string(),
            format!("{:.3}", ms(s.quantile(0.50))),
            format!("{:.3}", ms(s.quantile(0.95))),
            format!("{:.3}", ms(s.quantile(0.99))),
            format!("{:.3}", ms(s.mean() as u64)),
        ]);
    };
    for (name, h) in SERIES.iter().zip(&run.hists) {
        push_row(&mut rows, name, &h.snapshot());
    }
    push_row(&mut rows, "server queue", &queue);
    push_row(&mut rows, "server run", &runh);
    push_row(&mut rows, "server STATUS", &srv_status);

    let idle = run.hists[1].snapshot();
    let busy = run.hists[2].snapshot();
    let idle_p50_ms = ms(idle.quantile(0.50));
    let busy_p99_ms = ms(busy.quantile(0.99));
    let busy_mean_ms = busy.mean() / 1e6;
    let idle_mean_ms = idle.mean() / 1e6;
    let queue_p99_ms = ms(queue.quantile(0.99));
    summary.push(("status_idle_p50_ms", idle_p50_ms));
    summary.push(("status_idle_budget_p50_ms", p.idle_p50_ms));
    summary.push(("status_idle_p99_ms", ms(idle.quantile(0.99))));
    summary.push(("status_idle_mean_ms", idle_mean_ms));
    summary.push(("status_busy_p99_ms", busy_p99_ms));
    summary.push(("status_busy_mean_ms", busy_mean_ms));
    summary.push(("status_budget_p99_ms", p.status_p99_ms));
    summary.push(("status_budget_mean_ms", p.status_mean_ms));
    summary.push(("queue_p99_ms", queue_p99_ms));
    summary.push(("queue_budget_p99_ms", p.queue_p99_ms));
    summary.push(("reactor_wakeups_per_s_idle", wakeups_per_s_idle));
    let targets_met = idle_p50_ms < TARGET_IDLE_P50_MS && busy_p99_ms < TARGET_BUSY_P99_MS;
    summary.push((
        "status_overhead_ratio",
        if idle_mean_ms > 0.0 {
            busy_mean_ms / idle_mean_ms
        } else {
            0.0
        },
    ));

    // Gates.
    if up < p.conns {
        run.violations
            .push(format!("only {up}/{} connections completed HELLO", p.conns));
    }
    if survivors < up {
        run.violations.push(format!(
            "{} connections lost before drain (started with {up})",
            up - survivors
        ));
    }
    if run.protocol_errors > 0 {
        run.violations.push(format!(
            "{} protocol errors (budget: 0)",
            run.protocol_errors
        ));
    }
    if run.timeouts > 0 {
        run.violations
            .push(format!("{} reply timeouts (budget: 0)", run.timeouts));
    }
    if run.monotone_violations > 0 {
        run.violations.push(format!(
            "{} non-monotone STATUS state transitions",
            run.monotone_violations
        ));
    }
    let idle_ok = idle.count > 0 && idle_p50_ms <= p.idle_p50_ms;
    let busy_ok = busy.count > 0 && busy_p99_ms <= p.status_p99_ms;
    let verdict = |ok: bool| if ok { "ok" } else { "FAILED" };
    let gates = vec![
        format!(
            "gate: idle STATUS p50 {idle_p50_ms:.3} ms within {:.1} ms at {up} connections: {}",
            p.idle_p50_ms,
            verdict(idle_ok)
        ),
        format!(
            "gate: busy STATUS p99 {busy_p99_ms:.3} ms within {:.1} ms at {up} connections: {}",
            p.status_p99_ms,
            verdict(busy_ok)
        ),
        format!(
            "roadmap targets (idle p50 < {TARGET_IDLE_P50_MS} ms, busy p99 < {TARGET_BUSY_P99_MS} ms): {}",
            if targets_met { "met" } else { "missed" }
        ),
    ];
    if !idle_ok {
        run.violations.push(format!(
            "idle STATUS p50 {idle_p50_ms:.3} ms exceeds budget {:.1} ms",
            p.idle_p50_ms
        ));
    }
    if !busy_ok {
        run.violations.push(format!(
            "STATUS p99 under load {busy_p99_ms:.1} ms exceeds budget {:.0} ms",
            p.status_p99_ms
        ));
    }
    if busy.count == 0 || busy_mean_ms > p.status_mean_ms {
        run.violations.push(format!(
            "STATUS mean under load {busy_mean_ms:.2} ms exceeds budget {:.0} ms",
            p.status_mean_ms
        ));
    }
    if queue_p99_ms > p.queue_p99_ms {
        run.violations.push(format!(
            "queue latency p99 {queue_p99_ms:.1} ms exceeds budget {:.0} ms",
            p.queue_p99_ms
        ));
    }

    let result = LoadResult {
        mode: p.mode,
        conns: up,
        requests: run.requests,
        protocol_errors: run.protocol_errors,
        timeouts: run.timeouts,
        monotone_violations: run.monotone_violations,
        rows,
        sharedscan,
        gates,
        targets_met,
        violations: run.violations,
        summary,
    };
    write_json(&result, seed);
    result
}

/// Writes `BENCH_service.json` at the workspace root: per-series
/// percentiles plus the gate verdict, machine-readable for CI.
fn write_json(result: &LoadResult, seed: u64) {
    let series: Vec<String> = result
        .rows
        .iter()
        .map(|r| {
            Obj::new()
                .str("series", &r[0])
                .u64("count", r[1].parse().unwrap_or(0))
                .f64("p50_ms", r[2].parse().unwrap_or(f64::NAN))
                .f64("p95_ms", r[3].parse().unwrap_or(f64::NAN))
                .f64("p99_ms", r[4].parse().unwrap_or(f64::NAN))
                .f64("mean_ms", r[5].parse().unwrap_or(f64::NAN))
                .finish()
        })
        .collect();
    let mut summary = Obj::new()
        .str("bench", "service_load")
        .str("mode", result.mode)
        .u64("seed", seed)
        .u64("conns", result.conns as u64)
        .u64("requests", result.requests)
        .u64("protocol_errors", result.protocol_errors)
        .u64("timeouts", result.timeouts)
        .u64("monotone_violations", result.monotone_violations)
        .u64("sharedscan_attaches", result.sharedscan.0)
        .u64("sharedscan_shared_attaches", result.sharedscan.1)
        .u64("sharedscan_rows_produced", result.sharedscan.2)
        .u64("sharedscan_rows_served", result.sharedscan.3);
    for (k, v) in &result.summary {
        summary = summary.f64(k, *v);
    }
    let summary = summary
        .str(
            "roadmap_targets",
            if result.targets_met { "met" } else { "missed" },
        )
        .str("gate", if result.passed() { "pass" } else { "fail" })
        .finish();
    // Splice the series array into the flat summary object by hand —
    // the JSONL writer is deliberately flat.
    let open = summary.strip_suffix('}').expect("summary is an object");
    let json = format!("{open},\"series\":[{}]}}\n", series.join(","));
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../BENCH_service.json");
    match std::fs::write(&path, &json) {
        Ok(()) => println!("[wrote {}]", path.display()),
        Err(e) => eprintln!("[could not write {}: {e}]", path.display()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// `STATUS_VERB_INDEX` must track the wire verb table.
    #[test]
    fn status_verb_index_matches_the_protocol_table() {
        assert_eq!(qp_service::VERBS[STATUS_VERB_INDEX], "STATUS");
    }

    /// The verb mix is a pure function of (seed, round, conn).
    #[test]
    fn schedule_is_deterministic() {
        let a: Vec<u64> = (0..64).map(|i| mix(7 ^ (3 << 32) ^ i)).collect();
        let b: Vec<u64> = (0..64).map(|i| mix(7 ^ (3 << 32) ^ i)).collect();
        assert_eq!(a, b);
    }

    /// Lifecycle ranks are monotone along the real state machine.
    #[test]
    fn ranks_follow_the_session_lifecycle() {
        assert!(rank(QueryState::Queued) < rank(QueryState::Running));
        assert!(rank(QueryState::Running) < rank(QueryState::Finished));
        assert_eq!(rank(QueryState::Cancelled), rank(QueryState::TimedOut));
    }
}
