//! The open-loop arrival schedule: when each STATUS request is *due*,
//! fixed before the run from the seed alone, so a stalled server cannot
//! slow the load down and every latency can be timed from the due instant.

use qp_testkit::rng::TestRng;

/// Gaps are uniform in `mean · (1 ± JITTER)`. Wide on purpose: a fixed
/// period would phase-lock with the server's own 1 ms sweep timer and the
/// measured latency would depend on the phase the run happened to start in.
pub const JITTER: f64 = 0.75;

/// Due times (ns from the step start, ascending) of an open-loop step
/// sending `rate` requests per second for `duration_ns`.
pub fn due_times(seed: u64, rate: u32, duration_ns: u64) -> Vec<u64> {
    let mut rng = TestRng::seed_from_u64(seed ^ (u64::from(rate) << 32));
    let mean_gap = 1e9 / f64::from(rate);
    let mut due = Vec::with_capacity((duration_ns as f64 / mean_gap) as usize + 1);
    let mut at = 0.0f64;
    loop {
        at += mean_gap * (1.0 - JITTER + 2.0 * JITTER * rng.unit_f64());
        if at >= duration_ns as f64 {
            return due;
        }
        due.push(at as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule_other_seed_other_schedule() {
        let a = due_times(7, 1000, 1_000_000_000);
        assert_eq!(a, due_times(7, 1000, 1_000_000_000));
        assert_ne!(a, due_times(8, 1000, 1_000_000_000));
        // The rate is part of the stream: steps do not replay each other.
        assert_ne!(a[..100], due_times(7, 250, 1_000_000_000)[..100]);
    }

    #[test]
    fn schedule_holds_its_rate_and_jitter_bounds() {
        let due = due_times(3, 4000, 2_000_000_000);
        // Mean gap 250 µs → about 8,000 arrivals in 2 s.
        assert!((7_800..=8_200).contains(&due.len()), "{}", due.len());
        assert!(*due.last().unwrap() < 2_000_000_000);
        let mut prev = 0;
        for &d in &due {
            let gap = d - prev;
            assert!((62_000..=438_000).contains(&gap), "gap {gap}");
            prev = d;
        }
    }
}
