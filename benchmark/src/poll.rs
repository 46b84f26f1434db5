//! The open-loop STATUS workload. Connection A keeps exactly one suite
//! query running (the next one is submitted when the poller sees
//! `FINISHED`); connection B sends `STATUS <running id>` on a seeded
//! schedule that never waits for replies, stepping through the fixed
//! rates. Latency is timed from the instant each request was *due*, so a
//! stall charges every request it delayed, and how late the generator
//! itself ran is reported next to it.
//!
//! Two threads, two connections: the generator (this thread) writes both
//! connections and never blocks on a reply; the reader thread blocks on
//! connection B, timestamps and checks each reply. Requests on B are
//! pipelined — the one-connection stand-in for many independent pollers.
//! B is a raw socket because `ServiceClient` is one-request-at-a-time;
//! replies still go through `StatusLine::parse`, the client's own parser.

use crate::check::{Ops, QueryCheck};
use crate::schedule::due_times;
use crate::setup::Oracle;
use crate::tracer::Tracer;
use qp_service::{QueryId, StatusLine, SubmitRequest};
use std::io::{BufRead, BufReader, ErrorKind, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// The fixed request rates (per second), one step each.
pub const RATES: [u32; 3] = [250, 1000, 4000];
/// The fixed latency limit a rate must meet at p90 to count as sustained.
pub const LATENCY_LIMIT: Duration = Duration::from_millis(5);

/// Below this much time to the next due instant the generator spins
/// instead of sleeping: `thread::sleep` overshoots by roughly the kernel's
/// 50 µs timer slack plus a wake-up.
const SPIN_BELOW: Duration = Duration::from_micros(150);
const SLEEP_MARGIN: Duration = Duration::from_micros(80);
/// A reply later than this is a transport failure, not a slow reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(10);

/// One rate step's samples.
#[derive(Debug, Default)]
pub struct Step {
    pub rate: u32,
    /// Due → parsed reply.
    pub latency_ns: Vec<u64>,
    /// Due → actually written to the socket.
    pub gen_late_ns: Vec<u64>,
    /// Requests sent but unanswered at the step's midpoint / end.
    pub backlog_mid: u64,
    pub backlog_end: u64,
    pub backlog_max: u64,
    pub failed: u64,
}

impl Step {
    /// The rate is sustained: p90 within the limit, nothing failed, and
    /// the backlog did not grow over the second half of the step. A
    /// backlog no larger than what the rate keeps in flight within the
    /// latency limit is not growth.
    pub fn ok(&self, p90_ns: u64) -> bool {
        let in_flight = (f64::from(self.rate) * LATENCY_LIMIT.as_secs_f64()).ceil() as u64;
        p90_ns <= LATENCY_LIMIT.as_nanos() as u64
            && self.failed == 0
            && self.backlog_end <= self.backlog_mid.max(in_flight)
    }
}

/// Everything the open-loop run measured.
#[derive(Debug, Default)]
pub struct PollRun {
    pub steps: Vec<Step>,
    pub pass_ns: Vec<u64>,
    pub query_ns: Vec<Vec<u64>>,
    pub submit_rtt_ns: Vec<u64>,
    pub getnext: u64,
    pub wall_ns: u64,
}

/// What the generator tells the reader about each request it sends,
/// queued *before* the bytes are written so no reply can overtake it.
struct Sent {
    due: Instant,
    sent: Instant,
    request: u64,
    step: usize,
    query: QueryRef,
}

#[derive(Clone, Copy)]
struct QueryRef {
    id: QueryId,
    index: usize,
    submitted: Instant,
    accepted: Instant,
    request: u64,
}

/// Connection A: SUBMIT is written without waiting; the reply is picked
/// up later with a nonblocking read, so the generator never stalls on the
/// ≈3 ms a SUBMIT spends planning on the server's event loop.
struct Submitter {
    stream: TcpStream,
    buf: Vec<u8>,
    pending: Option<(usize, Instant, u64)>,
}

impl Submitter {
    fn connect(addr: SocketAddr) -> std::io::Result<Submitter> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        stream.set_nonblocking(true)?;
        Ok(Submitter {
            stream,
            buf: Vec::new(),
            pending: None,
        })
    }

    fn send(&mut self, oracle: &Oracle, index: usize, request: u64) -> std::io::Result<()> {
        let line = format!("{}\n", SubmitRequest::new(oracle.sql).render());
        let now = Instant::now();
        (&self.stream).write_all(line.as_bytes())?;
        self.pending = Some((index, now, request));
        Ok(())
    }

    /// The accepted query, once its `OK <id>` line has fully arrived.
    fn poll(&mut self) -> Result<Option<QueryRef>, String> {
        let Some((index, submitted, request)) = self.pending else {
            return Ok(None);
        };
        let mut chunk = [0u8; 256];
        match (&self.stream).read(&mut chunk) {
            Ok(0) => return Err("SUBMIT: server closed the connection".into()),
            Ok(n) => self.buf.extend_from_slice(&chunk[..n]),
            Err(e) if e.kind() == ErrorKind::WouldBlock => return Ok(None),
            Err(e) => return Err(format!("SUBMIT: transport: {e}")),
        }
        let Some(end) = self.buf.iter().position(|&b| b == b'\n') else {
            return Ok(None);
        };
        let line = String::from_utf8_lossy(&self.buf[..end]).trim().to_string();
        self.buf.drain(..=end);
        self.pending = None;
        let id: QueryId = line
            .strip_prefix("OK ")
            .ok_or_else(|| format!("SUBMIT: {line}"))?
            .parse()?;
        Ok(Some(QueryRef {
            id,
            index,
            submitted,
            accepted: Instant::now(),
            request,
        }))
    }

    fn wait(&mut self) -> Result<QueryRef, String> {
        let deadline = Instant::now() + REPLY_TIMEOUT;
        loop {
            if let Some(q) = self.poll()? {
                return Ok(q);
            }
            if Instant::now() > deadline {
                return Err("SUBMIT: no reply".into());
            }
            std::thread::sleep(Duration::from_micros(200));
        }
    }
}

/// State shared between the generator and the reader.
#[derive(Default)]
struct Shared {
    /// Replies parsed so far (the generator's backlog = sent − received).
    received: AtomicU64,
    /// The reader saw the current query finish: submit the next one.
    finished: AtomicBool,
    /// The reader hit a transport failure: stop generating.
    dead: AtomicBool,
}

/// Runs the three rate steps of `step_seconds` each.
pub fn run(
    addr: SocketAddr,
    oracle: &[Oracle],
    seed: u64,
    step_seconds: f64,
    ops: &mut Ops,
    tracer: Option<&mut Tracer>,
) -> Result<PollRun, String> {
    let io = |e: std::io::Error| format!("status-poll connection: {e}");
    let mut submitter = Submitter::connect(addr).map_err(io)?;
    let poller = TcpStream::connect(addr).map_err(io)?;
    poller.set_nodelay(true).map_err(io)?;
    poller.set_read_timeout(Some(REPLY_TIMEOUT)).map_err(io)?;
    let replies = BufReader::new(poller.try_clone().map_err(io)?);

    let shared = Shared::default();
    let (tx, rx) = mpsc::channel::<Sent>();
    let started = Instant::now();
    let mut request = 1u64;
    submitter.send(&oracle[0], 0, request).map_err(io)?;
    ops.attempt(Ok(()));
    let first = submitter.wait()?;

    let (generated, read) = std::thread::scope(|scope| {
        let reader = scope.spawn(|| read_replies(replies, rx, oracle, &shared, tracer));
        let mut gen = Generator {
            submitter,
            poller: &poller,
            tx,
            shared: &shared,
            oracle,
            current: first,
            request: &mut request,
            sent: 0,
            ops: Ops::default(),
            submit_rtt_ns: vec![(first.accepted - first.submitted).as_nanos() as u64],
        };
        let steps: Result<Vec<Step>, String> = RATES
            .iter()
            .enumerate()
            .map(|(i, &rate)| gen.step(i, rate, seed, step_seconds))
            .collect();
        let Generator {
            tx,
            ops,
            submit_rtt_ns,
            ..
        } = gen;
        drop(tx); // closes the channel: the reader drains and returns
        let read = reader.join().expect("reader thread panicked");
        ((steps, ops, submit_rtt_ns), read)
    });
    let (steps, gen_ops, submit_rtt_ns) = generated;
    let mut steps = steps?;
    for (step, got) in steps.iter_mut().zip(read.steps) {
        step.latency_ns = got.latency_ns;
        step.failed += got.failed;
    }
    ops.merge(gen_ops);
    ops.merge(read.ops);
    Ok(PollRun {
        steps,
        pass_ns: read.pass_ns,
        query_ns: read.query_ns,
        submit_rtt_ns,
        getnext: read.getnext,
        wall_ns: started.elapsed().as_nanos() as u64,
    })
}

struct Generator<'a> {
    submitter: Submitter,
    poller: &'a TcpStream,
    tx: mpsc::Sender<Sent>,
    shared: &'a Shared,
    oracle: &'a [Oracle],
    current: QueryRef,
    request: &'a mut u64,
    sent: u64,
    ops: Ops,
    submit_rtt_ns: Vec<u64>,
}

impl Generator<'_> {
    /// Keeps one query running: submits the next when the reader flagged
    /// the current one finished, and adopts the new id when it arrives.
    fn keep_one_running(&mut self) -> Result<(), String> {
        if self.shared.finished.load(Ordering::Acquire)
            && self.shared.finished.swap(false, Ordering::AcqRel)
        {
            let next = (self.current.index + 1) % self.oracle.len();
            *self.request += 1;
            let sent = self.submitter.send(&self.oracle[next], next, *self.request);
            self.ops
                .attempt(sent.map_err(|e| format!("SUBMIT: transport: {e}")));
        }
        match self.submitter.poll() {
            Ok(Some(q)) => {
                self.submit_rtt_ns
                    .push((q.accepted - q.submitted).as_nanos() as u64);
                self.current = q;
                Ok(())
            }
            Ok(None) => Ok(()),
            Err(e) => {
                self.ops.attempt(Err(e.clone()));
                Err(e)
            }
        }
    }

    fn backlog(&self) -> u64 {
        self.sent
            .saturating_sub(self.shared.received.load(Ordering::Acquire))
    }

    fn step(&mut self, index: usize, rate: u32, seed: u64, seconds: f64) -> Result<Step, String> {
        let step_ns = (seconds * 1e9) as u64;
        let due = due_times(seed, rate, step_ns);
        let mut step = Step {
            rate,
            gen_late_ns: Vec::with_capacity(due.len()),
            ..Step::default()
        };
        let started = Instant::now();
        let mut mid_sampled = false;
        for due_ns in due {
            let due_at = started + Duration::from_nanos(due_ns);
            loop {
                self.keep_one_running()?;
                if self.shared.dead.load(Ordering::Acquire) {
                    return Err("status-poll: reader lost the connection".into());
                }
                let now = Instant::now();
                if now >= due_at {
                    break;
                }
                let left = due_at - now;
                if left > SPIN_BELOW {
                    // While a SUBMIT reply is outstanding, wake often
                    // enough to adopt the new id promptly.
                    let nap = left - SLEEP_MARGIN;
                    std::thread::sleep(if self.submitter.pending.is_some() {
                        nap.min(Duration::from_micros(200))
                    } else {
                        nap
                    });
                } else {
                    std::hint::spin_loop();
                }
            }
            if !mid_sampled && due_ns >= step_ns / 2 {
                step.backlog_mid = self.backlog();
                mid_sampled = true;
            }
            *self.request += 1;
            let line = format!("STATUS {}\n", self.current.id);
            let sent_at = Instant::now();
            let record = Sent {
                due: due_at,
                sent: sent_at,
                request: *self.request,
                step: index,
                query: self.current,
            };
            if self.tx.send(record).is_err() {
                return Err("status-poll: reader exited early".into());
            }
            if let Err(e) = self.poller.write_all(line.as_bytes()) {
                self.ops.attempt(Err(format!("STATUS: transport: {e}")));
                return Err(format!("status-poll: write failed: {e}"));
            }
            self.sent += 1;
            step.gen_late_ns.push((sent_at - due_at).as_nanos() as u64);
            step.backlog_max = step.backlog_max.max(self.backlog());
        }
        step.backlog_end = self.backlog();
        // Let the tail drain so one step's queue is not charged to the next.
        let drain_by = Instant::now() + Duration::from_secs(1);
        while self.backlog() > 0 && Instant::now() < drain_by {
            self.keep_one_running()?;
            std::thread::sleep(Duration::from_micros(200));
        }
        Ok(step)
    }
}

#[derive(Default)]
struct ReadSide {
    steps: Vec<Step>,
    pass_ns: Vec<u64>,
    query_ns: Vec<Vec<u64>>,
    getnext: u64,
    ops: Ops,
}

fn read_replies(
    mut replies: BufReader<TcpStream>,
    rx: mpsc::Receiver<Sent>,
    oracle: &[Oracle],
    shared: &Shared,
    mut tracer: Option<&mut Tracer>,
) -> ReadSide {
    let mut out = ReadSide {
        steps: RATES.iter().map(|_| Step::default()).collect(),
        query_ns: vec![Vec::new(); oracle.len()],
        ..ReadSide::default()
    };
    let mut check: Option<(QueryId, QueryCheck)> = None;
    let mut done: Option<QueryId> = None;
    let mut pass_started: Option<Instant> = None;
    let mut line = String::new();
    // Ends when the generator drops its sender and the queue is empty.
    for sent in rx {
        line.clear();
        let read = replies.read_line(&mut line);
        let got = Instant::now();
        shared.received.fetch_add(1, Ordering::AcqRel);
        let step = &mut out.steps[sent.step];
        match read {
            Ok(n) if n > 0 => {}
            Ok(_) | Err(_) => {
                step.failed += 1;
                out.ops
                    .attempt(Err(format!("{}: STATUS: no reply", sent.query.id)));
                shared.dead.store(true, Ordering::Release);
                break;
            }
        }
        if let Some(t) = tracer.as_deref_mut() {
            let root = t.add("status", sent.due, got, 0, sent.request);
            t.add("client.gen_late", sent.due, sent.sent, root, sent.request);
            t.add("wire.status", sent.sent, got, root, sent.request);
        }
        let st = match StatusLine::parse(line.trim_end()) {
            Ok(st) => st,
            Err(e) => {
                step.failed += 1;
                out.ops
                    .attempt(Err(format!("{}: STATUS: {e}", sent.query.id)));
                continue;
            }
        };
        step.latency_ns.push((got - sent.due).as_nanos() as u64);
        let q = sent.query;
        if check.as_ref().map(|c| c.0) != Some(q.id) {
            check = Some((q.id, QueryCheck::new(q.id)));
        }
        let checker = &mut check.as_mut().expect("just set").1;
        let observed = checker.observe(&st);
        if observed.is_err() {
            step.failed += 1;
        }
        out.ops.attempt(observed);
        if st.state.is_terminal() && done != Some(q.id) {
            done = Some(q.id);
            let outcome = checker.finish(&st, &oracle[q.index]);
            if outcome.is_ok() {
                out.query_ns[q.index].push((got - q.submitted).as_nanos() as u64);
                out.getnext += oracle[q.index].total_getnext;
                if q.index == 0 {
                    pass_started = Some(q.submitted);
                } else if q.index + 1 == oracle.len() {
                    if let Some(from) = pass_started.take() {
                        out.pass_ns.push((got - from).as_nanos() as u64);
                    }
                }
            }
            out.ops.attempt(outcome);
            if let Some(t) = tracer.as_deref_mut() {
                let root = t.add("query", q.submitted, got, 0, q.request);
                t.add("client.submit", q.submitted, q.accepted, root, q.request);
            }
            shared.finished.store(true, Ordering::Release);
        }
    }
    out
}
