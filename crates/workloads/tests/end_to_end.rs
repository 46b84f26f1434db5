//! End-to-end integration across all crates: generated data → statistics
//! → physical plan → instrumented execution → bounds → estimators, with
//! the formal invariants checked at every snapshot.

use qp_datagen::{RowOrder, SyntheticConfig, SyntheticDb, TpchConfig, TpchDb};
use qp_exec::estimate::annotate;
use qp_exec::plan::{JoinType, PlanBuilder};
use qp_progress::bounds::BoundsTracker;
use qp_progress::estimators::standard_suite;
use qp_progress::metrics::safe_guarantee;
use qp_progress::monitor::run_with_progress;
use qp_stats::DbStats;

/// Every snapshot of every estimator must be a valid probability, pmax
/// must never underestimate, and safe must respect its per-instant
/// √(UB/LB) ratio guarantee.
#[test]
fn formal_guarantees_hold_on_synthetic_worst_case() {
    let s = SyntheticDb::generate(SyntheticConfig {
        r1_rows: 2_000,
        r2_rows: 20_000,
        z: 2.0,
        r1_order: RowOrder::SkewLast,
        seed: 9,
    });
    let stats = DbStats::build(&s.db);
    let mut plan = PlanBuilder::scan(&s.db, "r1")
        .unwrap()
        .inl_join(&s.db, "r2", "r2_b", vec![0], JoinType::Inner, true, None)
        .unwrap()
        .build();
    annotate(&mut plan, &stats);
    let (out, trace) =
        run_with_progress(&plan, &s.db, Some(&stats), standard_suite(), Some(13)).unwrap();

    let pmax_idx = trace.estimator_index("pmax").unwrap();
    let safe_idx = trace.estimator_index("safe").unwrap();
    for snap in trace.snapshots() {
        let prog = snap.curr as f64 / out.total_getnext as f64;
        for &e in &snap.estimates {
            assert!((0.0..=1.0).contains(&e));
        }
        // Property 4.
        assert!(
            snap.estimates[pmax_idx] + 1e-9 >= prog.min(1.0),
            "pmax {} < progress {prog}",
            snap.estimates[pmax_idx]
        );
        // Bounds bracket the truth at every instant.
        assert!(snap.lb as f64 <= out.total_getnext as f64 + 1e-9);
        assert!(snap.ub >= out.total_getnext);
        // safe's instantaneous guarantee.
        if prog > 0.0 {
            let g = safe_guarantee(snap.lb, snap.ub);
            let e = snap.estimates[safe_idx].max(1e-12);
            let ratio = (e / prog).max(prog / e);
            assert!(
                ratio <= g + 1e-6,
                "safe ratio {ratio} exceeds guarantee {g}"
            );
        }
    }
}

/// The bounds tracker, driven by a real execution's final counters, must
/// collapse to the exact totals.
#[test]
fn bounds_collapse_to_truth_at_completion() {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.002,
        z: 2.0,
        seed: 4,
    });
    let stats = DbStats::build(&t.db);
    for q in [1usize, 4, 6, 12, 14] {
        let mut plan = qp_workloads::tpch_query(q, &t);
        annotate(&mut plan, &stats);
        let (out, _) = qp_exec::run_query(&plan, &t.db, None).unwrap();
        let mut tracker = BoundsTracker::new(&plan, Some(&stats));
        let done = vec![true; plan.len()];
        tracker.recompute(&out.node_counts, &done);
        assert_eq!(tracker.total_lb(), out.total_getnext.max(1), "Q{q}");
        assert_eq!(tracker.total_ub(), out.total_getnext.max(1), "Q{q}");
        tracker.check_final(&out.node_counts);
    }
}

/// Determinism: the same seed yields byte-identical traces across runs —
/// a requirement for reproducible experiments.
#[test]
fn whole_pipeline_is_deterministic() {
    let run = || {
        let s = SyntheticDb::generate(SyntheticConfig {
            r1_rows: 1_000,
            r2_rows: 10_000,
            z: 2.0,
            r1_order: RowOrder::Random,
            seed: 123,
        });
        let stats = DbStats::build(&s.db);
        let mut plan = PlanBuilder::scan(&s.db, "r1")
            .unwrap()
            .inl_join(&s.db, "r2", "r2_b", vec![0], JoinType::Inner, true, None)
            .unwrap()
            .build();
        annotate(&mut plan, &stats);
        let (out, trace) =
            run_with_progress(&plan, &s.db, Some(&stats), standard_suite(), Some(10)).unwrap();
        (
            out.total_getnext,
            trace
                .snapshots()
                .iter()
                .map(|s| s.estimates.clone())
                .collect::<Vec<_>>(),
        )
    };
    assert_eq!(run(), run());
}

/// The executor's accounting identity: total(Q) is the sum over nodes of
/// rows produced, on every workload query.
#[test]
fn accounting_identity_across_workloads() {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.002,
        z: 1.0,
        seed: 8,
    });
    for (q, plan) in qp_workloads::tpch_queries(&t) {
        let (out, _) = qp_exec::run_query(&plan, &t.db, None).unwrap();
        assert_eq!(
            out.total_getnext,
            out.node_counts.iter().sum::<u64>(),
            "Q{q}"
        );
    }
}
