//! Metrics, the result line the driver reads, and the result file with
//! its environment envelope.

use qp_obs::json::{escape, parse, Value};
use std::fmt::Write as _;
use std::path::Path;

/// One named measurement. `n` is the sample count behind a percentile or
/// a per-call average, printed next to it.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: String,
    pub n: Option<u64>,
}

impl Metric {
    pub fn new(name: impl Into<String>, value: f64, unit: &str) -> Metric {
        Metric {
            name: name.into(),
            value,
            unit: unit.to_string(),
            n: None,
        }
    }

    pub fn n(mut self, n: u64) -> Metric {
        self.n = Some(n);
        self
    }
}

/// JSON has no NaN or infinity; a metric that could not be computed
/// reads 0.
fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

fn metrics_object(metrics: &[Metric], with_n: bool) -> String {
    let mut out = String::from("{");
    for (i, m) in metrics.iter().enumerate() {
        if i > 0 {
            out.push_str(", ");
        }
        let _ = write!(
            out,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
            escape(&m.name),
            num(m.value),
            m.unit
        );
        if let (true, Some(n)) = (with_n, m.n) {
            let _ = write!(out, ", \"n\": {n}");
        }
        out.push('}');
    }
    out.push('}');
    out
}

/// One run of one workload, traced or not.
#[derive(Debug, Clone)]
pub struct RunResult {
    pub workload: String,
    pub seed: u64,
    pub traced: bool,
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// `(what, how many)` sizes of this run: rows, pages, passes, steps.
    pub sizes: Vec<(String, u64)>,
}

impl RunResult {
    /// The one-line JSON object the driver reads from the last line of
    /// standard output.
    pub fn driver_line(&self) -> String {
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed,
            metrics_object(&self.metrics, false)
        )
    }

    fn file_object(&self) -> String {
        let sizes: Vec<String> = self
            .sizes
            .iter()
            .map(|(k, v)| format!("\"{}\": {v}", escape(k)))
            .collect();
        format!(
            "{{\"seed\": {}, \"attempted\": {}, \"failed\": {}, \"sizes\": {{{}}}, \"{}\": {}}}",
            self.seed,
            self.attempted,
            self.failed,
            sizes.join(", "),
            if self.traced {
                "per_layer"
            } else {
                "end_to_end"
            },
            metrics_object(&self.metrics, true)
        )
    }

    /// Prints every metric by name with unit and sample count.
    pub fn print(&self) {
        println!(
            "--- {} (seed {}, {}) : attempted {} failed {} ({:.4} %)",
            self.workload,
            self.seed,
            if self.traced { "traced" } else { "untraced" },
            self.attempted,
            self.failed,
            100.0 * self.failed as f64 / self.attempted.max(1) as f64
        );
        for m in &self.metrics {
            let n = m.n.map(|n| format!("  n={n}")).unwrap_or_default();
            // The stated-n rule: a percentile needs ten samples beyond it.
            let thin = match (m.n, crate::stats::quantile_in_name(&m.name)) {
                (Some(n), Some(q))
                    if n > 0 && q > 0.5 && !crate::stats::supported(n as usize, q) =>
                {
                    "  (fewer than 10 samples beyond this percentile)"
                }
                _ => "",
            };
            println!("  {:<34} {:>16.4} {}{n}{thin}", m.name, m.value, m.unit);
        }
    }
}

/// Where and how a result was taken; written into every result file.
#[derive(Debug, Clone)]
pub struct Envelope {
    pub fields: Vec<(&'static str, String)>,
}

fn command_line(program: &str, args: &[&str]) -> String {
    std::process::Command::new(program)
        .args(args)
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

impl Envelope {
    pub fn collect(scale: f64, seed: u64, seconds: f64, smoke: bool) -> Envelope {
        let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
        Envelope {
            fields: vec![
                ("commit", command_line("git", &["rev-parse", "HEAD"])),
                ("rustc", command_line("rustc", &["--version"])),
                ("nproc", nproc.to_string()),
                ("scale", scale.to_string()),
                ("z", crate::setup::Z.to_string()),
                ("seed", seed.to_string()),
                ("data_seeds", format!("{:?}", crate::run::data_seeds(seed))),
                ("run_seconds", seconds.to_string()),
                ("smoke", smoke.to_string()),
                ("paged_frames", crate::setup::PAGED_FRAMES.to_string()),
                (
                    "poll_gap_ms",
                    crate::suite::POLL_GAP.as_millis().to_string(),
                ),
                ("status_rates", format!("{:?}", crate::poll::RATES)),
                (
                    "status_latency_limit_ms",
                    crate::poll::LATENCY_LIMIT.as_millis().to_string(),
                ),
                (
                    "service_config",
                    format!("{:?}", qp_service::ServiceConfig::default()),
                ),
                (
                    "server_config",
                    format!("{:?}", qp_service::ServerConfig::default()),
                ),
            ],
        }
    }
}

/// Writes `{envelope, workloads: {name: {runs: [...]}}}`; a workload's
/// runs keep their order, untraced and traced runs side by side.
pub fn write_results(path: &Path, envelope: &Envelope, runs: &[RunResult]) -> std::io::Result<()> {
    let env: Vec<String> = envelope
        .fields
        .iter()
        .map(|(k, v)| format!("    \"{k}\": \"{}\"", escape(v)))
        .collect();
    let mut names: Vec<&str> = Vec::new();
    for r in runs {
        if !names.contains(&r.workload.as_str()) {
            names.push(&r.workload);
        }
    }
    let workloads: Vec<String> = names
        .iter()
        .map(|name| {
            let rows: Vec<String> = runs
                .iter()
                .filter(|r| r.workload == *name)
                .map(|r| format!("      {}", r.file_object()))
                .collect();
            format!(
                "    \"{name}\": {{\"runs\": [\n{}\n    ]}}",
                rows.join(",\n")
            )
        })
        .collect();
    let text = format!(
        "{{\n  \"envelope\": {{\n{}\n  }},\n  \"workloads\": {{\n{}\n  }}\n}}\n",
        env.join(",\n"),
        workloads.join(",\n")
    );
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    std::fs::write(path, text)
}

/// Reads a result file back: every run of every workload.
pub fn read_results(path: &Path) -> Result<Vec<RunResult>, String> {
    let what = path.display().to_string();
    let text = std::fs::read_to_string(path).map_err(|e| format!("{what}: {e}"))?;
    let v = parse(&text).map_err(|e| format!("{what}: {e}"))?;
    let Some(Value::Object(workloads)) = v.get("workloads") else {
        return Err(format!("{what}: no workloads object"));
    };
    let mut out = Vec::new();
    for (workload, w) in workloads {
        let Some(Value::Array(runs)) = w.get("runs") else {
            return Err(format!("{what}: {workload}: no runs array"));
        };
        for run in runs {
            let count = |key: &str| run.get(key).and_then(Value::as_u64).unwrap_or(0);
            let (traced, metrics) = match (run.get("end_to_end"), run.get("per_layer")) {
                (Some(Value::Object(m)), _) => (false, m),
                (_, Some(Value::Object(m))) => (true, m),
                _ => return Err(format!("{what}: {workload}: run without metrics")),
            };
            let sizes = match run.get("sizes") {
                Some(Value::Object(s)) => s
                    .iter()
                    .filter_map(|(k, v)| Some((k.clone(), v.as_u64()?)))
                    .collect(),
                _ => Vec::new(),
            };
            out.push(RunResult {
                workload: workload.clone(),
                seed: count("seed"),
                traced,
                attempted: count("attempted"),
                failed: count("failed"),
                metrics: metrics
                    .iter()
                    .filter_map(|(name, m)| {
                        Some(Metric {
                            name: name.clone(),
                            value: m.get("value")?.as_f64()?,
                            unit: m.get("unit")?.as_str()?.to_string(),
                            n: m.get("n").and_then(Value::as_u64),
                        })
                    })
                    .collect(),
                sizes,
            });
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let r = RunResult {
            workload: "heap-suite".into(),
            seed: 7,
            traced: false,
            attempted: 10,
            failed: 0,
            metrics: vec![
                Metric::new("setup_s", 1.25, "s"),
                Metric::new("bad", f64::NAN, "ms").n(3),
            ],
            sizes: vec![("passes".into(), 4)],
        };
        let v = parse(&r.driver_line()).unwrap();
        let Value::Object(map) = &v else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(v.get("correct"), Some(&Value::Bool(true)));
        let m = v.get("metrics").unwrap();
        assert_eq!(
            m.get("setup_s").unwrap().get("value").unwrap().as_f64(),
            Some(1.25)
        );
        assert_eq!(
            m.get("bad").unwrap().get("value").unwrap().as_f64(),
            Some(0.0)
        );
        assert!(m.get("bad").unwrap().get("n").is_none());
        // The file form keeps the sample count.
        let f = parse(&r.file_object()).unwrap();
        let n = f.get("end_to_end").unwrap().get("bad").unwrap().get("n");
        assert_eq!(n.and_then(|n| n.as_u64()), Some(3));
    }

    #[test]
    fn result_files_round_trip() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("../target/qp-benchmark")
            .join(format!("test-{}", std::process::id()));
        let path = dir.join("r.json");
        let run = |traced: bool, seed: u64| RunResult {
            workload: "status-poll".into(),
            seed,
            traced,
            attempted: 5,
            failed: 1,
            metrics: vec![Metric::new("x.y_us", 2.5, "us").n(9)],
            sizes: vec![("passes".into(), 4)],
        };
        let envelope = Envelope {
            fields: vec![("commit", "abc \"quoted\"".into())],
        };
        write_results(
            &path,
            &envelope,
            &[run(false, 7), run(true, 7), run(false, 8)],
        )
        .unwrap();
        let back = read_results(&path).unwrap();
        std::fs::remove_dir_all(&dir).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!((back[1].traced, back[2].seed, back[0].failed), (true, 8, 1));
        assert_eq!(back[0].metrics[0].name, "x.y_us");
        assert_eq!(back[0].metrics[0].n, Some(9));
        assert_eq!(back[0].sizes, vec![("passes".to_string(), 4)]);
    }
}
