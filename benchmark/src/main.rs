//! `qp-benchmark` — one benchmark for the whole stack.
//!
//! Drives a real `ProgressServer` over loopback exactly as its users do
//! (SQL text in, `STATUS` polling, `ServiceConfig::default()` /
//! `ServerConfig::default()`), on four workloads, and reports a small set
//! of end-to-end metrics (untraced run) plus per-layer metrics timed from
//! outside each crate (traced run). See `benchmark/README.md`.
//!
//! ```text
//! qp-benchmark --workload W --seed N --seconds S --trace 0|1   one run; last stdout line is JSON
//! qp-benchmark [--seed N] [--workload W] [--smoke]              every workload, untraced then traced
//! qp-benchmark [--seed N] [--workload W] --runs K               a repeatability set: seeds N..N+K-1, untraced only
//! qp-benchmark compare <a.json> <b.json>                       judge two result files
//! ```

mod check;
mod compare;
mod layers;
mod poll;
mod report;
mod run;
mod schedule;
mod setup;
mod stats;
mod suite;
mod tracer;

use report::Envelope;
use run::RunConfig;
use std::path::{Path, PathBuf};
use std::process::ExitCode;

/// TPC-H scale factor of a full run (≈300k lineitems, ≈50 MB paged).
const SCALE: f64 = 0.05;
const SMOKE_SCALE: f64 = 0.005;
const DEFAULT_SEED: u64 = 7;
const SMOKE_SECONDS: f64 = 1.5;
/// The declared metrics, bounds and run length; `run.sh` starts the
/// program in the repository root.
const SPEC: &str = "BENCHMARK.json";

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    HeapSuite,
    PagedSmall,
    HeapPar2,
    StatusPoll,
}

impl Workload {
    const ALL: [Workload; 4] = [
        Workload::HeapSuite,
        Workload::PagedSmall,
        Workload::HeapPar2,
        Workload::StatusPoll,
    ];

    fn name(self) -> &'static str {
        match self {
            Workload::HeapSuite => "heap-suite",
            Workload::PagedSmall => "paged-small",
            Workload::HeapPar2 => "heap-par2",
            Workload::StatusPoll => "status-poll",
        }
    }

    fn parse(name: &str) -> Result<Workload, String> {
        Workload::ALL
            .into_iter()
            .find(|w| w.name() == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))
    }

    fn parallelism(self) -> Option<usize> {
        (self == Workload::HeapPar2).then_some(2)
    }
}

/// Where one run's result file goes.
fn run_file(out: &Path, workload: Workload, seed: u64, trace: bool) -> PathBuf {
    out.join(format!(
        "run-{}-seed{seed}-trace{}.json",
        workload.name(),
        u8::from(trace)
    ))
}

/// One contract run. Diagnostics go to stderr; the last line of stdout is
/// the result object.
fn run_one(cfg: &RunConfig) -> Result<ExitCode, String> {
    std::fs::create_dir_all(&cfg.out).map_err(|e| format!("{}: {e}", cfg.out.display()))?;
    let (result, failures) = if cfg.trace {
        run::traced(cfg)?
    } else {
        run::untraced(cfg)?
    };
    for why in &failures {
        eprintln!("FAILED operation: {why}");
    }
    let envelope = Envelope::collect(cfg.scale, cfg.seed, cfg.seconds, cfg.smoke);
    let file = run_file(&cfg.out, cfg.workload, cfg.seed, cfg.trace);
    report::write_results(&file, &envelope, std::slice::from_ref(&result))
        .map_err(|e| format!("{}: {e}", file.display()))?;
    println!("{}", result.driver_line());
    Ok(if result.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(2)
    })
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: Option<f64>,
    trace: Option<bool>,
    smoke: bool,
    /// More than one: a repeatability set over seeds N..N+K-1, which
    /// compares end-to-end numbers only and so skips the traced runs.
    runs: u64,
    out: PathBuf,
    compare: Option<(PathBuf, PathBuf)>,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: None,
        smoke: false,
        runs: 1,
        out: PathBuf::from("target/qp-benchmark"),
        compare: None,
    };
    let mut it = argv.iter();
    let mut files = Vec::new();
    let mut comparing = false;
    while let Some(arg) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{arg} needs a value"));
        let number = |s: &String| {
            s.parse::<f64>()
                .map_err(|_| format!("{arg}: bad number {s:?}"))
        };
        match arg.as_str() {
            "compare" => comparing = true,
            "--workload" => args.workload = Some(Workload::parse(value()?)?),
            "--seed" => args.seed = number(value()?)? as u64,
            "--seconds" => args.seconds = Some(number(value()?)?),
            "--runs" => args.runs = (number(value()?)? as u64).max(1),
            "--trace" => args.trace = Some(number(value()?)? != 0.0),
            "--smoke" => args.smoke = true,
            "--out" => args.out = PathBuf::from(value()?),
            file if comparing && !file.starts_with('-') => files.push(PathBuf::from(file)),
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if comparing {
        let [a, b] = <[PathBuf; 2]>::try_from(files)
            .map_err(|_| "compare takes exactly two result files".to_string())?;
        args.compare = Some((a, b));
    }
    Ok(args)
}

/// Every workload, untraced then traced, each as a child process running
/// one contract run — so a run, and the peak memory a traced one reports,
/// is here exactly what it is for the driver — gathered into one result
/// file.
fn run_all(args: &Args, seconds: f64) -> Result<ExitCode, String> {
    let spec = compare::Spec::load(Path::new(SPEC))?;
    let exe = std::env::current_exe().map_err(|e| format!("current_exe: {e}"))?;
    let workloads: Vec<Workload> = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let scale = if args.smoke { SMOKE_SCALE } else { SCALE };
    let mut results = Vec::new();
    let mut failed = false;
    for seed in args.seed..args.seed + args.runs {
        for &w in &workloads {
            for trace in [false, true] {
                if trace && args.runs > 1 {
                    continue;
                }
                let mut child = std::process::Command::new(&exe);
                child
                    .args(["--workload", w.name(), "--seed", &seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .args(["--trace", if trace { "1" } else { "0" }])
                    .arg("--out")
                    .arg(&args.out)
                    .stdout(std::process::Stdio::null());
                if args.smoke {
                    child.arg("--smoke");
                }
                let status = child
                    .status()
                    .map_err(|e| format!("{}: {e}", exe.display()))?;
                let file = run_file(&args.out, w, seed, trace);
                if !status.success() {
                    failed = true;
                    eprintln!(
                        "{} (seed {seed}, trace {}): {status}",
                        w.name(),
                        u8::from(trace)
                    );
                    if status.code() != Some(2) {
                        continue; // crashed before writing a result
                    }
                }
                for run in report::read_results(&file)? {
                    run.print();
                    results.push(run);
                }
            }
        }
    }
    // The names are the interface later PRs are judged through: none
    // missing, none extra.
    for line in spec.name_mismatches(&results) {
        failed = true;
        eprintln!("metric names: {line}");
    }
    let envelope = Envelope::collect(scale, args.seed, seconds, args.smoke);
    let file = args.out.join(format!(
        "results-seed{}{}.json",
        args.seed,
        if args.smoke { "-smoke" } else { "" }
    ));
    report::write_results(&file, &envelope, &results)
        .map_err(|e| format!("{}: {e}", file.display()))?;
    let attempted: u64 = results.iter().map(|r| r.attempted).sum();
    let failures: u64 = results.iter().map(|r| r.failed).sum();
    println!(
        "failed_pct = {:.6} % ({failures} of {attempted} operations); results in {}",
        100.0 * failures as f64 / attempted.max(1) as f64,
        file.display()
    );
    Ok(if failed || failures > 0 {
        ExitCode::from(2)
    } else {
        ExitCode::SUCCESS
    })
}

fn real_main() -> Result<ExitCode, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = parse_args(&argv)?;
    if let Some((a, b)) = &args.compare {
        let spec = compare::Spec::load(Path::new(SPEC))?;
        let flagged = compare::run(&spec, a, b)?;
        return Ok(if flagged == 0 {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        });
    }
    let seconds = match (args.seconds, args.smoke) {
        (Some(s), _) => s,
        (None, true) => SMOKE_SECONDS,
        (None, false) => compare::Spec::load(Path::new(SPEC))?.run_seconds,
    };
    let Some(trace) = args.trace else {
        return run_all(&args, seconds);
    };
    run_one(&RunConfig {
        workload: args.workload.ok_or("--trace needs --workload")?,
        seed: args.seed,
        seconds,
        scale: if args.smoke { SMOKE_SCALE } else { SCALE },
        smoke: args.smoke,
        trace,
        out: args.out,
    })
}

fn main() -> ExitCode {
    match real_main() {
        Ok(code) => code,
        Err(why) => {
            eprintln!("qp-benchmark: {why}");
            ExitCode::from(3)
        }
    }
}
