//! `qp-benchmark compare <a.json> <b.json>`: per workload × end-to-end
//! metric, how B moved against A, judged by the bound `BENCHMARK.json`
//! fixes for that metric.
//!
//! Runs are paired by seed (`--runs K` gives both sides seeds N..N+K−1)
//! and the move is the median of the per-seed ratios B ÷ A, so whatever
//! the seed alone decides — which keys the skew makes hot moves a suite
//! pass by ±15 % between data sets — cancels instead of widening the
//! spread. A run without a partner of the same seed is left out.
//!
//! * `ok` — B is not worse than A by more than the bound.
//! * `worse` — it is.
//! * `unresolved` — the per-seed ratios themselves spread (inter-quartile
//!   distance ÷ median) wider than the bound, so the comparison cannot
//!   tell a change from noise and must not be read as "unchanged".
//!   `setup_s` is judged on its median ratio alone, as the driver judges
//!   it: a first set-up faults its memory in and later ones may not, so
//!   its spread is wide by nature.

use crate::stats::{median_f64, spread};
use qp_obs::json::{parse, Value};
use std::collections::BTreeMap;
use std::path::Path;

/// The one metric whose spread does not make a comparison unresolved.
const SETUP: &str = "setup_s";

/// The declared end-to-end metrics: name → (lower is better, bound).
pub struct Spec {
    pub end_to_end: Vec<(String, bool, f64)>,
    pub per_layer: Vec<String>,
    pub workloads: Vec<String>,
    pub run_seconds: f64,
}

fn field<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a Value, String> {
    v.get(key).ok_or_else(|| format!("{what}: missing {key:?}"))
}

fn array<'a>(v: &'a Value, key: &str, what: &str) -> Result<&'a [Value], String> {
    match field(v, key, what)? {
        Value::Array(items) => Ok(items),
        _ => Err(format!("{what}: {key:?} is not an array")),
    }
}

fn name_of(v: &Value, what: &str) -> Result<String, String> {
    Ok(field(v, "name", what)?
        .as_str()
        .ok_or_else(|| format!("{what}: name is not a string"))?
        .to_string())
}

impl Spec {
    pub fn load(path: &Path) -> Result<Spec, String> {
        let what = path.display().to_string();
        let text = std::fs::read_to_string(path).map_err(|e| format!("{what}: {e}"))?;
        let v = parse(&text).map_err(|e| format!("{what}: {e}"))?;
        let end_to_end = array(&v, "end_to_end", &what)?
            .iter()
            .map(|m| {
                let better = field(m, "better", &what)?.as_str().unwrap_or("");
                let bound = field(m, "bound", &what)?
                    .as_f64()
                    .ok_or_else(|| format!("{what}: bound is not a number"))?;
                Ok((name_of(m, &what)?, better == "lower", bound))
            })
            .collect::<Result<_, String>>()?;
        let names = |key: &str| -> Result<Vec<String>, String> {
            array(&v, key, &what)?
                .iter()
                .map(|m| name_of(m, &what))
                .collect()
        };
        Ok(Spec {
            end_to_end,
            per_layer: names("per_layer")?,
            workloads: names("workloads")?,
            run_seconds: field(&v, "run_seconds", &what)?
                .as_f64()
                .ok_or_else(|| format!("{what}: run_seconds is not a number"))?,
        })
    }
}

impl Spec {
    /// Every run must emit exactly the declared names: the end-to-end
    /// ones untraced, the per-layer ones traced. Returns one line per
    /// missing or undeclared name.
    pub fn name_mismatches(&self, runs: &[crate::report::RunResult]) -> Vec<String> {
        let e2e: Vec<&str> = self.end_to_end.iter().map(|m| m.0.as_str()).collect();
        let layers: Vec<&str> = self.per_layer.iter().map(String::as_str).collect();
        let mut out = Vec::new();
        for run in runs {
            let declared = if run.traced { &layers } else { &e2e };
            let emitted: Vec<&str> = run.metrics.iter().map(|m| m.name.as_str()).collect();
            let what = format!("{} (trace {})", run.workload, u8::from(run.traced));
            for name in declared.iter().filter(|n| !emitted.contains(n)) {
                out.push(format!("{what}: declared but not emitted: {name}"));
            }
            for name in emitted.iter().filter(|n| !declared.contains(n)) {
                out.push(format!("{what}: emitted but not declared: {name}"));
            }
        }
        out
    }
}

/// workload → metric → `(seed, value)` of every untraced run in the file.
type Values = BTreeMap<String, BTreeMap<String, Vec<(u64, f64)>>>;

fn load_values(path: &Path) -> Result<Values, String> {
    let mut out = Values::new();
    for run in crate::report::read_results(path)? {
        if run.traced {
            continue;
        }
        let metrics = out.entry(run.workload.clone()).or_default();
        for m in run.metrics {
            metrics.entry(m.name).or_default().push((run.seed, m.value));
        }
    }
    Ok(out)
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Worse,
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One comparison row. `a` and `b` are the medians of the paired runs;
/// `delta` is the median per-seed ratio minus one, signed so that
/// positive means B is worse; `spread` is that of the ratios.
#[derive(Debug, Clone, Copy)]
pub struct Judged {
    pub a: f64,
    pub b: f64,
    pub pairs: usize,
    pub delta: f64,
    pub spread: f64,
    pub verdict: Verdict,
}

/// Pairs the runs of two sides by seed, in file order within a seed.
fn pair_by_seed(a: &[(u64, f64)], b: &[(u64, f64)]) -> Vec<(f64, f64)> {
    let mut left = b.to_vec();
    a.iter()
        .filter_map(|&(seed, va)| {
            let at = left.iter().position(|&(s, _)| s == seed)?;
            Some((va, left.remove(at).1))
        })
        .collect()
}

/// `None` when no seed occurs on both sides.
pub fn judge(
    a: &[(u64, f64)],
    b: &[(u64, f64)],
    lower_is_better: bool,
    bound: f64,
) -> Option<Judged> {
    let pairs = pair_by_seed(a, b);
    if pairs.is_empty() {
        return None;
    }
    let ratios: Vec<f64> = pairs
        .iter()
        .map(|&(va, vb)| if va == 0.0 { 1.0 } else { vb / va })
        .collect();
    let raw = median_f64(&ratios) - 1.0;
    let delta = if lower_is_better { raw } else { -raw };
    let spread = spread(&ratios);
    let verdict = if spread > bound {
        Verdict::Unresolved
    } else if delta > bound {
        Verdict::Worse
    } else {
        Verdict::Ok
    };
    let side =
        |pick: fn(&(f64, f64)) -> f64| median_f64(&pairs.iter().map(pick).collect::<Vec<_>>());
    Some(Judged {
        a: side(|p| p.0),
        b: side(|p| p.1),
        pairs: pairs.len(),
        delta,
        spread,
        verdict,
    })
}

/// Prints the table; returns how many rows were `worse` or `unresolved`.
pub fn run(spec: &Spec, a: &Path, b: &Path) -> Result<usize, String> {
    let (va, vb) = (load_values(a)?, load_values(b)?);
    let mut flagged = 0;
    println!(
        "{:<12} {:<20} {:>14} {:>14} {:>8} {:>8} {:>7}  verdict",
        "workload", "metric", "A median", "B median", "ratio-1%", "spread%", "bound%"
    );
    for workload in &spec.workloads {
        for (metric, lower, bound) in &spec.end_to_end {
            let pick = |v: &Values| v.get(workload).and_then(|w| w.get(metric)).cloned();
            let (Some(xa), Some(xb)) = (pick(&va), pick(&vb)) else {
                println!("{workload:<12} {metric:<20} missing from one side");
                flagged += 1;
                continue;
            };
            let Some(mut j) = judge(&xa, &xb, *lower, *bound) else {
                println!("{workload:<12} {metric:<20} no two runs share a seed");
                flagged += 1;
                continue;
            };
            if metric == SETUP && j.verdict == Verdict::Unresolved {
                j.verdict = if j.delta > *bound {
                    Verdict::Worse
                } else {
                    Verdict::Ok
                };
            }
            if j.verdict != Verdict::Ok {
                flagged += 1;
            }
            println!(
                "{workload:<12} {metric:<20} {:>14.4} {:>14.4} {:>+8.2} {:>8.2} {:>7.1}  {} (pairs={} of {}/{})",
                j.a,
                j.b,
                100.0 * j.delta,
                100.0 * j.spread,
                100.0 * bound,
                j.verdict.as_str(),
                j.pairs,
                xa.len(),
                xb.len()
            );
        }
    }
    Ok(flagged)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Runs of seeds 1, 2, 3, …
    fn seeded(values: &[f64]) -> Vec<(u64, f64)> {
        (1..).zip(values.iter().copied()).collect()
    }

    fn verdict(a: &[f64], b: &[f64], lower: bool) -> Verdict {
        judge(&seeded(a), &seeded(b), lower, 0.08).unwrap().verdict
    }

    #[test]
    fn verdicts_on_hand_made_inputs() {
        // Lower is better, bound 8 %: +5 % is ok, +10 % is worse.
        assert_eq!(verdict(&[100.0], &[105.0], true), Verdict::Ok);
        assert_eq!(verdict(&[100.0], &[110.0], true), Verdict::Worse);
        // Getting better never flags, however far.
        assert_eq!(verdict(&[100.0], &[50.0], true), Verdict::Ok);
        // Higher is better: a 10 % drop is worse, a 10 % rise is fine.
        let drop = judge(&seeded(&[1000.0]), &seeded(&[900.0]), false, 0.08).unwrap();
        assert_eq!(drop.verdict, Verdict::Worse);
        assert!((drop.delta - 0.10).abs() < 1e-12);
        assert_eq!(verdict(&[1000.0], &[1100.0], false), Verdict::Ok);
    }

    #[test]
    fn what_the_seed_decides_cancels_in_the_pairing() {
        // Each seed's data is a different size; B is 2 % above A on every
        // seed. Unpaired, either side spreads over ±50 %.
        let a = seeded(&[100.0, 150.0, 200.0, 250.0, 300.0]);
        let b: Vec<(u64, f64)> = a.iter().rev().map(|&(s, v)| (s, v * 1.02)).collect();
        let j = judge(&a, &b, true, 0.08).unwrap();
        assert_eq!((j.verdict, j.pairs), (Verdict::Ok, 5));
        assert!((j.delta - 0.02).abs() < 1e-12 && j.spread < 1e-12);
        // Runs without a partner are left out; no partner at all is no verdict.
        let other = [(3, 210.0), (9, 1.0)];
        assert_eq!(judge(&a, &other, true, 0.08).unwrap().pairs, 1);
        assert!(judge(&a, &[(9, 1.0)], true, 0.08).is_none());
    }

    #[test]
    fn undeclared_and_missing_names_are_both_reported() {
        use crate::report::{Metric, RunResult};
        let spec = Spec {
            end_to_end: vec![("setup_s".into(), true, 0.25), ("x_ms".into(), true, 0.1)],
            per_layer: vec!["a.b_ns".into()],
            workloads: vec!["w".into()],
            run_seconds: 1.0,
        };
        let run = |traced, names: &[&str]| RunResult {
            workload: "w".into(),
            seed: 1,
            traced,
            attempted: 1,
            failed: 0,
            metrics: names.iter().map(|n| Metric::new(*n, 1.0, "s")).collect(),
            sizes: Vec::new(),
        };
        assert!(spec
            .name_mismatches(&[run(false, &["setup_s", "x_ms"]), run(true, &["a.b_ns"])])
            .is_empty());
        let bad = spec.name_mismatches(&[run(false, &["setup_s", "y_ms"]), run(true, &[])]);
        assert_eq!(bad.len(), 3, "{bad:?}");
        assert!(bad[0].contains("not emitted: x_ms"));
        assert!(bad[1].contains("not declared: y_ms"));
        assert!(bad[2].contains("not emitted: a.b_ns"));
    }

    #[test]
    fn wide_spread_is_unresolved_not_unchanged() {
        // Same medians, but the per-seed ratios spread over ±20 %.
        let a = [80.0, 90.0, 100.0, 110.0, 120.0];
        let b = [100.0; 5];
        let j = judge(&seeded(&a), &seeded(&b), true, 0.08).unwrap();
        assert_eq!(j.verdict, Verdict::Unresolved);
        assert!(j.spread > 0.08);
        // Tight sets with the same shift resolve.
        let a = [99.0, 100.0, 100.0, 100.0, 101.0];
        assert_eq!(verdict(&a, &b, true), Verdict::Ok);
        assert_eq!(verdict(&a, &[120.0; 5], true), Verdict::Worse);
    }
}
