//! Order statistics with the stated-n rule: a percentile is only
//! *supported* when at least ten samples lie beyond it, so every reported
//! percentile carries its sample count and the caller can tell a p90 over
//! 5,000 samples from one over 12.

/// Minimum number of samples that must lie beyond a reported percentile.
pub const MIN_BEYOND: f64 = 10.0;

/// Nearest-rank percentile of an ascending slice: the smallest element
/// with at least `q·n` elements at or below it. `q` is clamped to
/// `(0, 1]`; an empty slice yields 0.
pub fn percentile(sorted: &[u64], q: f64) -> u64 {
    if sorted.is_empty() {
        return 0;
    }
    let rank = (q.clamp(0.0, 1.0) * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Median of unordered samples, averaging the two middle elements of an
/// even-length sample (so medians over few passes do not snap to one of
/// them).
pub fn median(values: &[u64]) -> f64 {
    let v: Vec<f64> = values.iter().map(|&x| x as f64).collect();
    median_f64(&v)
}

/// Median of unordered floats (same even-length rule; 0 when empty).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Whether `n` samples leave at least [`MIN_BEYOND`] beyond quantile `q`.
pub fn supported(n: usize, q: f64) -> bool {
    // `1.0 - 0.9` is a hair under 0.1; the slack keeps n=100 supporting p90.
    n as f64 * (1.0 - q) + 1e-9 >= MIN_BEYOND
}

/// The quantile a metric name declares (`status_p90_us.r250` → 0.9), if
/// it declares one.
pub fn quantile_in_name(name: &str) -> Option<f64> {
    let digits = name
        .split(['_', '.'])
        .filter_map(|part| part.strip_prefix('p'))
        .find(|d| !d.is_empty() && d.bytes().all(|b| b.is_ascii_digit()))?;
    format!("0.{digits}")
        .parse::<f64>()
        .ok()
        .filter(|q| *q > 0.0)
}

/// First and third quartile exactly as Python's
/// `statistics.quantiles(values, n=4)` (the default exclusive method)
/// computes them — the rule the benchmark's acceptance spread is defined
/// with. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let m = v.len();
    if m < 2 {
        return None;
    }
    let cut = |i: usize| {
        let j = (i * (m + 1) / 4).clamp(1, m - 1);
        let delta = (i * (m + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    Some((cut(1), cut(3)))
}

/// Inter-quartile distance as a share of the median (0 for fewer than two
/// values or a zero median).
pub fn spread(values: &[f64]) -> f64 {
    let med = median_f64(values);
    match quartiles(values) {
        Some((q1, q3)) if med != 0.0 => (q3 - q1) / med.abs(),
        _ => 0.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile(&v, 0.5), 50);
        assert_eq!(percentile(&v, 0.9), 90);
        assert_eq!(percentile(&v, 0.99), 99);
        assert_eq!(percentile(&v, 1.0), 100);
        assert_eq!(percentile(&v, 0.0), 1);
        assert_eq!(percentile(&[], 0.5), 0);
        assert_eq!(percentile(&[7], 0.9), 7);
    }

    #[test]
    fn median_averages_even_samples() {
        assert_eq!(median(&[1, 3]), 2.0);
        assert_eq!(median(&[10, 1, 3]), 3.0);
        assert_eq!(median(&[]), 0.0);
        assert_eq!(median_f64(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn stated_n_rule() {
        // p80 needs 50 samples for ten beyond it; p90 needs 100; p99 1000.
        assert!(!supported(49, 0.8));
        assert!(supported(50, 0.8));
        assert!(!supported(99, 0.9));
        assert!(supported(100, 0.9));
        assert!(supported(1000, 0.99));
        assert_eq!(quantile_in_name("status_p90_us.r250"), Some(0.9));
        assert_eq!(quantile_in_name("client.suite_pass_p80_ms"), Some(0.8));
        assert_eq!(quantile_in_name("client.status_p99_us"), Some(0.99));
        assert_eq!(quantile_in_name("suite_pass_p50_ms"), Some(0.5));
        assert_eq!(quantile_in_name("protocol.status_p999_ns"), Some(0.999));
        assert_eq!(quantile_in_name("sql.parse_us"), None);
        assert_eq!(quantile_in_name("exec.par2_ns_per_getnext"), None);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
        assert!((spread(&v) - 1.0).abs() < 1e-12);
        assert_eq!(spread(&[3.0]), 0.0);
    }
}
