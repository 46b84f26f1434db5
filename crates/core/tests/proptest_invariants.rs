//! Property-based tests over randomly generated data and plan shapes:
//! the paper's formal guarantees must hold for *arbitrary* instances, not
//! just the curated experiment datasets.
//!
//! Ported from `proptest` to the in-tree `qp_testkit::prop` harness; the
//! invariants and case counts are unchanged.

use qp_exec::expr::{CmpOp, Expr};
use qp_exec::plan::{JoinType, Plan, PlanBuilder};
use qp_progress::bounds::BoundsTracker;
use qp_progress::estimators::{standard_suite, Pmax};
use qp_progress::monitor::run_with_progress;
use qp_progress::{mu_from_counts, PlanMeta};
use qp_stats::DbStats;
use qp_storage::{ColumnType, Database, Schema, Value};
use qp_testkit::prop::collection;
use qp_testkit::{prop_assert, prop_check};

/// Builds a two-table database from arbitrary row contents.
fn build_db(t_vals: &[(i64, i64)], u_vals: &[i64]) -> Database {
    let mut db = Database::new();
    db.create_table_with_rows(
        "t",
        Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Int)]),
        t_vals
            .iter()
            .map(|&(a, b)| vec![Value::Int(a), Value::Int(b)]),
    )
    .unwrap();
    db.create_table_with_rows(
        "u",
        Schema::of(&[("x", ColumnType::Int)]),
        u_vals.iter().map(|&x| vec![Value::Int(x)]),
    )
    .unwrap();
    db.create_index("u_x", "u", &["x"], false).unwrap();
    db
}

/// A small menu of plan shapes over the generated tables.
fn build_plan(db: &Database, shape: u8, threshold: i64) -> Plan {
    match shape % 5 {
        0 => PlanBuilder::scan(db, "t")
            .unwrap()
            .filter(Expr::cmp(
                CmpOp::Lt,
                Expr::Col(0),
                Expr::Lit(Value::Int(threshold)),
            ))
            .build(),
        1 => PlanBuilder::scan(db, "t")
            .unwrap()
            .inl_join(db, "u", "u_x", vec![1], JoinType::Inner, false, None)
            .unwrap()
            .build(),
        2 => PlanBuilder::scan(db, "t")
            .unwrap()
            .hash_join(
                PlanBuilder::scan(db, "u").unwrap(),
                vec![1],
                vec![0],
                JoinType::Inner,
                false,
            )
            .unwrap()
            .build(),
        3 => PlanBuilder::scan(db, "t")
            .unwrap()
            .sort(vec![(1, true)])
            .stream_aggregate(vec![1], vec![(qp_exec::AggExpr::count_star(), "n")])
            .build(),
        _ => PlanBuilder::scan(db, "t")
            .unwrap()
            .hash_join(
                PlanBuilder::scan(db, "u").unwrap(),
                vec![0],
                vec![0],
                JoinType::LeftSemi,
                true,
            )
            .unwrap()
            .filter(Expr::cmp(
                CmpOp::Ge,
                Expr::Col(0),
                Expr::Lit(Value::Int(threshold)),
            ))
            .build(),
    }
}

prop_check! {
    cases = 48,

    /// Property 4 (pmax never underestimates), the bounds bracketing, and
    /// Theorem 5 (pmax ≤ μ·prog) hold on arbitrary data and plan shapes.
    fn pmax_and_bounds_invariants(
        t_vals in collection::vec((0i64..40, 0i64..12), 1..120),
        u_vals in collection::vec(0i64..12, 0..150),
        shape in 0u8..5,
        threshold in 0i64..40,
    ) {
        let db = build_db(&t_vals, &u_vals);
        let mut plan = build_plan(&db, shape, threshold);
        let stats = DbStats::build(&db);
        qp_exec::estimate::annotate(&mut plan, &stats);
        let meta = PlanMeta::from_plan(&plan);
        let (out, trace) = run_with_progress(
            db_plan_ref(&plan),
            &db,
            Some(&stats),
            vec![Box::new(Pmax)],
            Some(3),
        )
        .unwrap();
        let total = out.total_getnext;
        let mu = mu_from_counts(&meta, &out.node_counts);
        for snap in trace.snapshots() {
            let prog = snap.curr as f64 / total.max(1) as f64;
            // Bounds bracket the final total at every instant.
            prop_assert!(snap.lb <= total.max(1), "lb {} > total {}", snap.lb, total);
            prop_assert!(snap.ub >= total, "ub {} < total {}", snap.ub, total);
            // Property 4.
            let pmax = snap.estimates[0];
            prop_assert!(pmax + 1e-9 >= prog.min(1.0), "pmax {} < prog {}", pmax, prog);
            // Theorem 5.
            if mu.is_finite() {
                prop_assert!(
                    pmax <= (mu * prog).min(1.0) + 1e-9,
                    "pmax {} > mu*prog {}",
                    pmax,
                    mu * prog
                );
            }
        }
    }

    /// All estimators stay within [0, 1] and reach ~1 at completion, for
    /// arbitrary instances.
    fn estimators_are_well_formed(
        t_vals in collection::vec((0i64..30, 0i64..8), 1..80),
        u_vals in collection::vec(0i64..8, 1..100),
        shape in 0u8..5,
    ) {
        let db = build_db(&t_vals, &u_vals);
        let mut plan = build_plan(&db, shape, 15);
        let stats = DbStats::build(&db);
        qp_exec::estimate::annotate(&mut plan, &stats);
        let (_, trace) = run_with_progress(
            &plan, &db, Some(&stats), standard_suite(), Some(2),
        ).unwrap();
        for snap in trace.snapshots() {
            for &e in &snap.estimates {
                prop_assert!((0.0..=1.0).contains(&e), "estimate {}", e);
            }
        }
        let last = trace.snapshots().last().unwrap();
        // At completion the bound-based estimators are exact (LB = UB =
        // total), and dne is exact because every node is exhausted.
        // `esttotal` need NOT end at 100% — the optimizer's estimate of
        // total(Q) can overshoot and the estimator has no way to know the
        // query is done. That gap is precisely the paper's argument for
        // maintaining bounds instead of trusting estimates (Section 5.1).
        for (&name, &e) in trace.names().iter().zip(&last.estimates) {
            if name != "trivial" && name != "esttotal" {
                prop_assert!((e - 1.0).abs() < 1e-6, "{} ends at {}", name, e);
            }
        }
    }

    /// The bounds tracker never produces lb > ub and collapses exactly at
    /// completion.
    fn bounds_tracker_is_consistent(
        t_vals in collection::vec((0i64..20, 0i64..6), 1..60),
        u_vals in collection::vec(0i64..6, 0..60),
        shape in 0u8..5,
    ) {
        let db = build_db(&t_vals, &u_vals);
        let plan = build_plan(&db, shape, 10);
        let (out, _) = qp_exec::run_query(&plan, &db, None).unwrap();
        let mut tracker = BoundsTracker::new(&plan, None);
        tracker.check_invariants();
        let done = vec![true; plan.len()];
        tracker.recompute(&out.node_counts, &done);
        tracker.check_invariants();
        prop_assert!(tracker.total_lb() == out.total_getnext.max(1));
        prop_assert!(tracker.total_ub() == out.total_getnext.max(1));
    }
}

/// Identity helper keeping borrowck happy in the macro body.
fn db_plan_ref(p: &Plan) -> &Plan {
    p
}
