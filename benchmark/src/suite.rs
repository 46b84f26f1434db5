//! The closed-loop suite driver: one connection submits each suite query
//! in order and polls `STATUS` about every [`POLL_GAP`] until `FINISHED`,
//! like a console user who waits for one query before starting the next.
//! A slow server therefore receives less load — that is the point of a
//! closed loop, and why the open-loop STATUS workload exists next to it.
//!
//! The gap between polls is jittered (seeded, uniform in the mean ± 75 %)
//! for the same reason the open-loop schedule is: a fixed 2 ms sleep
//! phase-locks with the server's 1 ms sweep sleep — the request then
//! always lands just before the server wakes, and the measured round trip
//! says more about the two timers than about the server.

use crate::check::{Ops, QueryCheck};
use crate::schedule::JITTER;
use crate::setup::Oracle;
use crate::tracer::Tracer;
use qp_service::{ServiceClient, SubmitRequest};
use qp_testkit::rng::TestRng;
use std::time::{Duration, Instant};

/// Mean sleep between a STATUS reply and the next STATUS request.
pub const POLL_GAP: Duration = Duration::from_millis(2);

/// Raw samples of one timed suite run.
#[derive(Debug, Default)]
pub struct SuiteRun {
    /// Wall ns of each whole pass (5 × SUBMIT→FINISHED).
    pub pass_ns: Vec<u64>,
    /// SUBMIT→FINISHED ns per query, indexed like the oracle.
    pub query_ns: Vec<Vec<u64>>,
    pub submit_rtt_ns: Vec<u64>,
    pub status_rtt_ns: Vec<u64>,
    /// Ns from one STATUS send to the next (sleep + round trip).
    pub poll_period_ns: Vec<u64>,
    pub polls_per_query: Vec<u64>,
    /// Σ total(Q) over every finished query of the run.
    pub getnext: u64,
    pub wall_ns: u64,
}

/// One closed-loop client: its connection, what it checks replies
/// against, and what it has measured so far.
pub struct Driver<'a> {
    client: &'a mut ServiceClient,
    oracle: &'a [Oracle],
    parallelism: Option<usize>,
    rng: TestRng,
    ops: &'a mut Ops,
    tracer: Option<&'a mut Tracer>,
    request: u64,
    out: SuiteRun,
}

impl<'a> Driver<'a> {
    pub fn new(
        client: &'a mut ServiceClient,
        oracle: &'a [Oracle],
        parallelism: Option<usize>,
        seed: u64,
        ops: &'a mut Ops,
        tracer: Option<&'a mut Tracer>,
    ) -> Driver<'a> {
        Driver {
            client,
            oracle,
            parallelism,
            rng: TestRng::seed_from_u64(seed),
            ops,
            tracer,
            request: 0,
            out: SuiteRun {
                query_ns: vec![Vec::new(); oracle.len()],
                ..SuiteRun::default()
            },
        }
    }

    /// Runs whole passes until `seconds` have elapsed (at least
    /// `min_passes`).
    pub fn run(mut self, seconds: f64, min_passes: usize) -> SuiteRun {
        let started = Instant::now();
        while self.out.pass_ns.len() < min_passes || started.elapsed().as_secs_f64() < seconds {
            let pass_started = Instant::now();
            for index in 0..self.oracle.len() {
                self.query(index);
            }
            self.out
                .pass_ns
                .push(pass_started.elapsed().as_nanos() as u64);
        }
        self.out.wall_ns = started.elapsed().as_nanos() as u64;
        self.out
    }

    /// SUBMIT one suite query, poll it to its end, check every reply.
    fn query(&mut self, index: usize) {
        let oracle = &self.oracle[index];
        self.request += 1;
        let request = self.request;
        let mut req = SubmitRequest::new(oracle.sql);
        if let Some(degree) = self.parallelism {
            req = req.parallelism(degree);
        }
        let t0 = Instant::now();
        let root = self
            .tracer
            .as_deref_mut()
            .map(|t| t.begin("query", t0, request));
        let reply = self.client.submit_req(&req);
        let submitted = Instant::now();
        if let (Some(t), Some(root)) = (self.tracer.as_deref_mut(), root) {
            t.add("client.submit", t0, submitted, root, request);
        }
        let id = match reply {
            Ok(Ok(id)) => {
                self.ops.attempt(Ok(()));
                id
            }
            Ok(Err(e)) => {
                return self
                    .ops
                    .attempt(Err(format!("SUBMIT Q{}: ERR {e}", oracle.q)))
            }
            Err(e) => {
                return self
                    .ops
                    .attempt(Err(format!("SUBMIT Q{}: transport: {e}", oracle.q)))
            }
        };
        self.out
            .submit_rtt_ns
            .push((submitted - t0).as_nanos() as u64);

        let mut check = QueryCheck::new(id);
        let (mut polls, mut last_send) = (0u64, None::<Instant>);
        let outcome = loop {
            let slept_from = Instant::now();
            let jitter = 1.0 - JITTER + 2.0 * JITTER * self.rng.unit_f64();
            std::thread::sleep(POLL_GAP.mul_f64(jitter));
            let sent = Instant::now();
            let reply = self.client.status(id);
            let got = Instant::now();
            if let (Some(t), Some(root)) = (self.tracer.as_deref_mut(), root) {
                t.add("client.poll_sleep", slept_from, sent, root, request);
                t.add("client.status", sent, got, root, request);
            }
            polls += 1;
            if let Some(prev) = last_send.replace(sent) {
                self.out
                    .poll_period_ns
                    .push((sent - prev).as_nanos() as u64);
            }
            match reply {
                Ok(Ok(st)) => {
                    self.out.status_rtt_ns.push((got - sent).as_nanos() as u64);
                    let observed = check.observe(&st);
                    let broken = observed.is_err();
                    self.ops.attempt(observed);
                    if st.state.is_terminal() || broken {
                        break check.finish(&st, oracle).map(|()| got);
                    }
                }
                Ok(Err(e)) => {
                    self.ops.attempt(Err(format!("{id}: STATUS: ERR {e}")));
                    break Err(format!(
                        "{id} (Q{}): abandoned after STATUS error",
                        oracle.q
                    ));
                }
                Err(e) => {
                    self.ops
                        .attempt(Err(format!("{id}: STATUS: transport: {e}")));
                    break Err(format!(
                        "{id} (Q{}): abandoned after transport error",
                        oracle.q
                    ));
                }
            }
        };
        if let (Some(t), Some(root)) = (self.tracer.as_deref_mut(), root) {
            t.end(root, Instant::now());
        }
        self.out.polls_per_query.push(polls);
        match outcome {
            Ok(finished_at) => {
                self.out.query_ns[index].push((finished_at - t0).as_nanos() as u64);
                self.out.getnext += oracle.total_getnext;
                self.ops.attempt(Ok(()));
            }
            Err(why) => self.ops.attempt(Err(why)),
        }
    }
}
