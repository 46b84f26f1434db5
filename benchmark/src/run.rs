//! One run of one workload: the untraced run that yields the end-to-end
//! metrics, and the traced run that yields the per-layer ones.

use crate::check::Ops;
use crate::report::{Metric, RunResult};
use crate::setup::{self, Env};
use crate::stats::{self, median, percentile};
use crate::tracer::Tracer;
use crate::{layers, poll, suite, Workload};
use std::path::PathBuf;
use std::time::Instant;

/// Server instances an untraced run builds, warms up and measures, one
/// after the other, each over its own data; every end-to-end metric is
/// the median over the instances of the instance's own value.
const INSTANCES: u64 = 3;

/// The data seed of instance `instance` of the run `--seed` names. Runs
/// of consecutive seeds share no data.
fn data_seed(seed: u64, instance: u64) -> u64 {
    seed.wrapping_mul(INSTANCES).wrapping_add(instance)
}

/// The data seeds of an untraced run of `seed`; the traced run uses the
/// first.
pub fn data_seeds(seed: u64) -> Vec<u64> {
    (0..INSTANCES).map(|i| data_seed(seed, i)).collect()
}

/// The traced run spends this share of `--seconds` on each of its two
/// wire slices (untraced reference, then traced); the rest of its time
/// goes to the in-process layer probes.
const TRACED_SLICE: f64 = 0.2;

pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: f64,
    pub smoke: bool,
    pub trace: bool,
    pub out: PathBuf,
}

/// `VmHWM` of this process so far, in MB (the server runs in-process).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

fn sorted(mut v: Vec<u64>) -> Vec<u64> {
    v.sort_unstable();
    v
}

fn mean(v: &[u64]) -> f64 {
    v.iter().sum::<u64>() as f64 / v.len().max(1) as f64
}

/// What either wire driver measured, in one shape.
#[derive(Default)]
struct Wire {
    pass_ns: Vec<u64>,
    query_ns: Vec<u64>,
    submit_rtt_ns: Vec<u64>,
    /// Closed-loop STATUS round trips (suite workloads only).
    status_rtt_ns: Vec<u64>,
    polls_per_query: f64,
    /// Mean ns between two polls of the running query.
    poll_period_ns: f64,
    getnext: u64,
    wall_ns: u64,
    steps: Vec<poll::Step>,
}

impl Wire {
    /// Σ `total(Q)` of every finished query ÷ measured wall seconds.
    fn getnext_per_s(&self) -> f64 {
        self.getnext as f64 / (self.wall_ns as f64 / 1e9)
    }

    /// STATUS latency at quantile `q`, ns, and the samples behind it: the
    /// closed-loop round trip on the suite workloads; on `status-poll`
    /// the median over the three rate steps of each step's own percentile
    /// — every rate weighs the same however many samples it produced, and
    /// one step hit by a machine hiccup (a 0.4 s stall is 30 % of a step)
    /// does not decide the run.
    fn status_ns(&self, q: f64) -> (f64, u64) {
        if self.steps.is_empty() {
            let v = sorted(self.status_rtt_ns.clone());
            return (percentile(&v, q) as f64, v.len() as u64);
        }
        let per_step: Vec<f64> = self
            .steps
            .iter()
            .map(|s| percentile(&sorted(s.latency_ns.clone()), q) as f64)
            .collect();
        let n: usize = self.steps.iter().map(|s| s.latency_ns.len()).sum();
        (stats::median_f64(&per_step), n as u64)
    }
}

/// Whole passes a closed-loop instance or slice measures at the least,
/// however short its share of `--seconds`. It binds on `paged-small`
/// only (≈ 2.6 s per pass against a 4 s share), where the first pass
/// after the warm-up pass is still 5–20 % slower than the later ones: the
/// median of three passes leaves it out, the mean of two did not.
const MIN_PASSES: usize = 3;

/// Runs the workload on the wire for `seconds` (at least [`MIN_PASSES`]
/// suite passes on the closed-loop workloads).
fn drive(
    cfg: &RunConfig,
    env: &Env,
    seed: u64,
    seconds: f64,
    ops: &mut Ops,
    tracer: Option<&mut Tracer>,
) -> Result<Wire, String> {
    let addr = env.server.local_addr();
    if cfg.workload == Workload::StatusPoll {
        let step_seconds = seconds / poll::RATES.len() as f64;
        let run = poll::run(addr, &env.oracle, seed, step_seconds, ops, tracer)?;
        let sent: usize = run.steps.iter().map(|s| s.gen_late_ns.len()).sum();
        let queries: usize = run.query_ns.iter().map(Vec::len).sum();
        return Ok(Wire {
            pass_ns: run.pass_ns,
            query_ns: run.query_ns.concat(),
            submit_rtt_ns: run.submit_rtt_ns,
            status_rtt_ns: Vec::new(),
            polls_per_query: sent as f64 / queries.max(1) as f64,
            poll_period_ns: mean(
                &poll::RATES
                    .iter()
                    .map(|&r| 1_000_000_000 / u64::from(r))
                    .collect::<Vec<_>>(),
            ),
            getnext: run.getnext,
            wall_ns: run.wall_ns,
            steps: run.steps,
        });
    }
    let mut client =
        qp_service::ServiceClient::connect(addr).map_err(|e| format!("connect: {e}"))?;
    let par = cfg.workload.parallelism();
    let run = suite::Driver::new(&mut client, &env.oracle, par, seed, ops, tracer)
        .run(seconds, MIN_PASSES);
    Ok(Wire {
        pass_ns: run.pass_ns,
        query_ns: run.query_ns.concat(),
        submit_rtt_ns: run.submit_rtt_ns,
        polls_per_query: mean(&run.polls_per_query),
        poll_period_ns: mean(&run.poll_period_ns),
        status_rtt_ns: run.status_rtt_ns,
        getnext: run.getnext,
        wall_ns: run.wall_ns,
        steps: Vec::new(),
    })
}

/// One untimed suite pass: fills caches, faults in the page files, lets
/// the first-query lazy set-up finish.
fn warm_up(cfg: &RunConfig, env: &Env, seed: u64) -> Result<(), String> {
    let mut ops = Ops::default();
    let mut client = qp_service::ServiceClient::connect(env.server.local_addr())
        .map_err(|e| format!("connect: {e}"))?;
    let par = cfg.workload.parallelism();
    suite::Driver::new(&mut client, &env.oracle, par, seed, &mut ops, None).run(0.0, 1);
    match ops.failures.first() {
        Some(why) => Err(format!("warm-up pass failed: {why}")),
        None => Ok(()),
    }
}

/// The sizes of a run: the last instance's data, the instances' counts
/// summed.
fn sizes(env: &Env, wires: &[Wire]) -> Vec<(String, u64)> {
    let mut out: Vec<(String, u64)> = env
        .table_rows
        .iter()
        .map(|(t, n)| (format!("rows.{t}"), *n as u64))
        .collect();
    if env.paged_bytes > 0 {
        out.push(("paged.bytes".into(), env.paged_bytes));
        out.push(("paged.pages".into(), env.paged_bytes / 4096));
        out.push(("paged.frames".into(), setup::PAGED_FRAMES as u64));
    }
    let total = |f: fn(&Wire) -> usize| wires.iter().map(f).sum::<usize>() as u64;
    out.push(("passes".into(), total(|w| w.pass_ns.len())));
    out.push(("queries".into(), total(|w| w.query_ns.len())));
    for (i, rate) in poll::RATES.iter().enumerate() {
        let sent: usize = wires
            .iter()
            .filter_map(|w| w.steps.get(i))
            .map(|s| s.gen_late_ns.len())
            .sum();
        if sent > 0 {
            out.push((format!("status.sent.r{rate}"), sent as u64));
        }
    }
    out
}

/// The untraced run: the only source of end-to-end numbers.
pub fn untraced(cfg: &RunConfig) -> Result<(RunResult, Vec<String>), String> {
    // Two things make one instance a poor sample. Which keys the z = 2
    // skew makes hot is decided by the data seed, and a suite pass takes
    // 600 to 880 ms by that alone (one seed in thirty: 2,000 ms). And one
    // instance's pass times sit up to ±10 % off another's over the same
    // data for the instance's whole life (where its rows landed in
    // memory). Measuring one instance longer steadies neither; each of
    // the INSTANCES therefore gets its own data, its own warm-up and its
    // share of `--seconds`, and the run reports the median instance.
    let mut setups = Vec::new();
    let mut ops = Ops::default();
    let mut wires = Vec::new();
    let mut sizes = Vec::new();
    for instance in 0..INSTANCES {
        let seed = data_seed(cfg.seed, instance);
        let env = setup::setup(cfg.workload, cfg.scale, seed, &cfg.out, false)?;
        setups.push(env.times.total());
        warm_up(cfg, &env, seed)?;
        let seconds = cfg.seconds / INSTANCES as f64;
        let wire = drive(cfg, &env, seed, seconds, &mut ops, None)?;
        eprintln!(
            "instance {instance} (data seed {seed}): set-up {:.3} s, pass p50 {:.1} ms (n={}), {:.0} getnext/s",
            env.times.total(),
            median(&wire.pass_ns) / 1e6,
            wire.pass_ns.len(),
            wire.getnext_per_s(),
        );
        wires.push(wire);
        sizes = self::sizes(&env, &wires);
        env.shutdown();
    }
    let over =
        |f: &dyn Fn(&Wire) -> f64| stats::median_f64(&wires.iter().map(f).collect::<Vec<_>>());
    let total = |f: &dyn Fn(&Wire) -> u64| wires.iter().map(f).sum::<u64>();
    let metrics = vec![
        Metric::new("setup_s", stats::median_f64(&setups), "s").n(INSTANCES),
        Metric::new(
            "suite_pass_p50_ms",
            over(&|w| median(&w.pass_ns) / 1e6),
            "ms",
        )
        .n(total(&|w| w.pass_ns.len() as u64)),
        Metric::new("getnext_per_s", over(&Wire::getnext_per_s), "1/s").n(total(&|w| w.getnext)),
        Metric::new("status_p50_us", over(&|w| w.status_ns(0.5).0 / 1e3), "us")
            .n(total(&|w| w.status_ns(0.5).1)),
        Metric::new("status_p90_us", over(&|w| w.status_ns(0.9).0 / 1e3), "us")
            .n(total(&|w| w.status_ns(0.9).1)),
    ];
    let result = RunResult {
        workload: cfg.workload.name().into(),
        seed: cfg.seed,
        traced: false,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics,
        sizes,
    };
    Ok((result, ops.failures))
}

/// A histogram's records since `before`.
fn hist_delta(
    hist: &qp_obs::LatencyHistogram,
    before: &qp_obs::HistogramSnapshot,
) -> qp_obs::HistogramSnapshot {
    let now = hist.snapshot();
    let buckets: Vec<u64> = now
        .buckets
        .iter()
        .zip(&before.buckets)
        .map(|(a, b)| a.saturating_sub(*b))
        .collect();
    qp_obs::HistogramSnapshot {
        count: buckets.iter().sum(),
        sum: now.sum.saturating_sub(before.sum),
        buckets,
    }
}

fn verb(name: &str) -> usize {
    qp_service::VERBS
        .iter()
        .position(|v| *v == name)
        .expect("protocol verb")
}

/// The traced run: the only source of per-layer numbers.
pub fn traced(cfg: &RunConfig) -> Result<(RunResult, Vec<String>), String> {
    let seed = data_seed(cfg.seed, 0);
    let env = setup::setup(cfg.workload, cfg.scale, seed, &cfg.out, true)?;
    warm_up(cfg, &env, seed)?;
    // Read here, after a fixed amount of work: the server never prunes
    // its session registry, so a peak read at the end of the run would
    // grow with the number of passes a faster build completes.
    let peak_rss = peak_rss_mb();
    let service = env.server.service();
    let slice = cfg.seconds * TRACED_SLICE;
    let mut ops = Ops::default();
    // Set-up layers, from this run's one set-up.
    let mut m = vec![
        Metric::new("datagen.tpch_gen_s", env.times.datagen_s, "s"),
        Metric::new("stats.build_s", env.times.stats_s, "s"),
        Metric::new("storage.save_paged_s", env.times.save_paged_s, "s"),
        Metric::new("storage.open_paged_s", env.times.open_paged_s, "s"),
        Metric::new("service.bind_s", env.times.bind_s, "s"),
    ];

    // Untraced reference slice, then the traced slice. Server-side
    // histograms and pool counters are read as deltas over the latter.
    let reference = drive(cfg, &env, seed, slice, &mut ops, None)?;
    let queue0 = service.queue_hist().snapshot();
    let run0 = service.run_hist().snapshot();
    let verbs0: Vec<_> = service.verb_hists().iter().map(|h| h.snapshot()).collect();
    let pool0 = service.database().buffer_pool().map(|p| p.stats());
    let mut tracer = Tracer::new();
    let wire = drive(cfg, &env, seed, slice, &mut ops, Some(&mut tracer))?;
    let queue = hist_delta(service.queue_hist(), &queue0);
    let run = hist_delta(service.run_hist(), &run0);
    let handler = |name: &str| {
        let i = verb(name);
        hist_delta(&service.verb_hists()[i], &verbs0[i])
    };
    let (h_submit, h_status) = (handler("SUBMIT"), handler("STATUS"));
    let pool = service.database().buffer_pool().map(|p| p.stats());

    // client: the generator itself, so the load can be audited.
    let (submit_rtt, queries) = (&wire.submit_rtt_ns, wire.query_ns.len() as u64);
    let passes = sorted(wire.pass_ns.clone());
    let (status_p50, status_n) = wire.status_ns(0.5);
    m.push(
        Metric::new("client.submit_rtt_p50_us", median(submit_rtt) / 1e3, "us")
            .n(submit_rtt.len() as u64),
    );
    m.push(Metric::new("client.polls_per_query", wire.polls_per_query, "count").n(queries));
    m.push(Metric::new("client.status_p99_us", wire.status_ns(0.99).0 / 1e3, "us").n(status_n));
    m.push(
        Metric::new(
            "client.suite_pass_p80_ms",
            percentile(&passes, 0.8) as f64 / 1e6,
            "ms",
        )
        .n(passes.len() as u64),
    );
    let finish_lag_ns = wire.poll_period_ns / 2.0;
    m.push(Metric::new(
        "client.finish_lag_p50_ms",
        finish_lag_ns / 1e6,
        "ms",
    ));
    let by_name = tracer.self_by_name();
    let (n_query_spans, query_self) = by_name.get("query").copied().unwrap_or((0, 0));
    m.push(
        Metric::new(
            "client.self_us_per_query",
            query_self as f64 / 1e3 / n_query_spans.max(1) as f64,
            "us",
        )
        .n(n_query_spans),
    );
    {
        // Closed loop, back to back, on a finished query: the floor of a
        // STATUS round trip when the client never pauses.
        let mut client = qp_service::ServiceClient::connect(env.server.local_addr())
            .map_err(|e| format!("connect: {e}"))?;
        let id = client
            .submit(env.oracle[3.min(env.oracle.len() - 1)].sql)
            .map_err(|e| e.to_string())??;
        service.wait(id);
        let mut hot = Vec::new();
        for _ in 0..if cfg.smoke { 200 } else { 1000 } {
            let t = Instant::now();
            ops.attempt(match client.status(id) {
                Ok(Ok(_)) => Ok(()),
                Ok(Err(e)) => Err(format!("{id}: hot STATUS: ERR {e}")),
                Err(e) => Err(format!("{id}: hot STATUS: transport: {e}")),
            });
            hot.push(t.elapsed().as_nanos() as u64);
        }
        m.push(
            Metric::new("client.status_rtt_hot_p50_us", median(&hot) / 1e3, "us")
                .n(hot.len() as u64),
        );
    }

    // Per-rate rows of the open loop (0 on the closed-loop workloads,
    // which have no rate steps).
    let handler_status_p50 = h_status.quantile(0.5) as f64;
    let mut max_rate_ok = 0u32;
    for &rate in &poll::RATES {
        let step = wire.steps.iter().find(|s| s.rate == rate);
        let lat = step
            .map(|s| sorted(s.latency_ns.clone()))
            .unwrap_or_default();
        let late = step
            .map(|s| sorted(s.gen_late_ns.clone()))
            .unwrap_or_default();
        let n = lat.len() as u64;
        let p = |q: f64| percentile(&lat, q) as f64 / 1e3;
        let ok = step.is_some_and(|s| s.ok(percentile(&lat, 0.9)));
        if ok {
            max_rate_ok = max_rate_ok.max(rate);
        }
        m.push(Metric::new(format!("client.status_p50_us.r{rate}"), p(0.5), "us").n(n));
        m.push(Metric::new(format!("client.status_p90_us.r{rate}"), p(0.9), "us").n(n));
        m.push(Metric::new(format!("client.status_p99_us.r{rate}"), p(0.99), "us").n(n));
        m.push(
            Metric::new(
                format!("client.gen_late_p99_us.r{rate}"),
                percentile(&late, 0.99) as f64 / 1e3,
                "us",
            )
            .n(n),
        );
        m.push(Metric::new(
            format!("client.rate_ok.r{rate}"),
            f64::from(u8::from(ok)),
            "count",
        ));
        let wait = if lat.is_empty() {
            0.0
        } else {
            p(0.5) - handler_status_p50 / 1e3
        };
        m.push(Metric::new(format!("reactor.wait_p50_us.r{rate}"), wait, "us").n(n));
    }
    m.push(Metric::new(
        "client.status_max_rate_ok",
        f64::from(max_rate_ok),
        "1/s",
    ));
    m.push(Metric::new(
        "client.backlog_max",
        wire.steps.iter().map(|s| s.backlog_max).max().unwrap_or(0) as f64,
        "count",
    ));

    // service: the server's own histograms over the traced slice.
    m.push(
        Metric::new(
            "service.queue_p50_us",
            queue.quantile(0.5) as f64 / 1e3,
            "us",
        )
        .n(queue.count),
    );
    m.push(Metric::new("service.run_p50_ms", run.quantile(0.5) as f64 / 1e6, "ms").n(run.count));
    m.push(
        Metric::new(
            "service.handler_submit_p50_us",
            h_submit.quantile(0.5) as f64 / 1e3,
            "us",
        )
        .n(h_submit.count),
    );
    m.push(
        Metric::new(
            "service.handler_status_p50_us",
            handler_status_p50 / 1e3,
            "us",
        )
        .n(h_status.count),
    );
    m.push(
        Metric::new(
            "reactor.wait_p50_us",
            (status_p50 - handler_status_p50) / 1e3,
            "us",
        )
        .n(status_n),
    );

    // pager: counter deltas over the traced slice (0 without a pool).
    let (hits, misses, evictions) = match (pool0, pool) {
        (Some(a), Some(b)) => (
            b.hits - a.hits,
            b.misses - a.misses,
            b.evictions - a.evictions,
        ),
        _ => (0, 0, 0),
    };
    m.push(Metric::new("pager.hits", hits as f64, "count"));
    m.push(Metric::new("pager.misses", misses as f64, "count"));
    m.push(Metric::new("pager.evictions", evictions as f64, "count"));
    m.push(Metric::new(
        "pager.hit_rate",
        hits as f64 / ((hits + misses).max(1)) as f64,
        "ratio",
    ));
    m.push(Metric::new(
        "pager.misses_per_kgetnext",
        1e3 * misses as f64 / wire.getnext.max(1) as f64,
        "count",
    ));

    // In-process probes of every layer (after the deltas above: they run
    // queries through the same service).
    let closure = layers::Probe::run(
        &env,
        cfg.smoke,
        cfg.workload.parallelism(),
        &mut tracer,
        &mut m,
    )?;

    // bench: what tracing cost, and whether the layer rows add up.
    let overhead = |traced: &[u64], plain: &[u64]| {
        let (t, p) = (median(traced), median(plain));
        if p > 0.0 {
            100.0 * (t - p) / p
        } else {
            0.0
        }
    };
    m.push(
        Metric::new(
            "bench.trace_overhead_pct",
            overhead(&wire.pass_ns, &reference.pass_ns),
            "%",
        )
        .n(passes.len() as u64),
    );
    // Client-observed SUBMIT→FINISHED against its parts (means, so the
    // five unlike queries add up): submit round trip + server queue +
    // server run + the wait for the poll that sees FINISHED.
    let parts = mean(&wire.submit_rtt_ns) + queue.mean() + run.mean() + finish_lag_ns;
    let observed = mean(&wire.query_ns);
    m.push(
        Metric::new(
            "bench.closure_pct",
            100.0 * (observed - parts).abs() / observed.max(1.0),
            "%",
        )
        .n(queries),
    );
    // The server's run time per pass against the in-process replica:
    // executor alone + time inside the progress monitor.
    let run_pass = run.mean() * env.oracle.len() as f64;
    let replica = closure.exec_pass_ns + closure.observer_pass_ns;
    m.push(Metric::new(
        "bench.closure_run_pct",
        100.0 * (run_pass - replica).abs() / run_pass.max(1.0),
        "%",
    ));

    let trace_file = cfg.out.join(format!("trace-{}.jsonl", cfg.workload.name()));
    tracer
        .write_jsonl(&trace_file)
        .map_err(|e| format!("{}: {e}", trace_file.display()))?;
    m.push(Metric::new("bench.peak_rss_mb", peak_rss, "MB"));
    let mut sizes = sizes(&env, std::slice::from_ref(&wire));
    sizes.push(("trace.spans".into(), tracer.len() as u64));
    let result = RunResult {
        workload: cfg.workload.name().into(),
        seed: cfg.seed,
        traced: true,
        attempted: ops.attempted,
        failed: ops.failed,
        metrics: m,
        sizes,
    };
    env.shutdown();
    Ok((result, ops.failures))
}
