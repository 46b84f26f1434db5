//! The estimator trade-off matrix (Section 6 of the paper): no single
//! estimator wins everywhere.
//!
//! Runs the same join query under three input orders (random, skew-first,
//! skew-last) and two physical operators (INL join, hash join), scoring
//! dne / pmax / safe / hybrid on each. The output reproduces the paper's
//! qualitative findings:
//!
//! * dne wins under random or low-variance orders (Theorem 3),
//! * pmax wins when μ is small but variance is high (Theorem 5),
//! * safe wins in the adversarial worst case (Theorem 6),
//! * the hash join makes everyone better (Section 5.4 / Table 1).
//!
//! ```text
//! cargo run --release --example estimator_tradeoffs
//! ```

use qp_datagen::{RowOrder, SyntheticConfig, SyntheticDb};
use qp_exec::estimate::annotate;
use qp_exec::plan::{JoinType, Plan, PlanBuilder};
use qp_progress::estimators::{Dne, Hybrid, Pmax, ProgressEstimator, Safe};
use qp_progress::metrics::error_stats;
use qp_progress::monitor::run_with_progress;
use qp_stats::DbStats;

fn inl_plan(s: &SyntheticDb) -> Plan {
    PlanBuilder::scan(&s.db, "r1")
        .unwrap()
        .inl_join(&s.db, "r2", "r2_b", vec![0], JoinType::Inner, true, None)
        .unwrap()
        .build()
}

fn hash_plan(s: &SyntheticDb) -> Plan {
    PlanBuilder::scan(&s.db, "r1")
        .unwrap()
        .hash_join(
            PlanBuilder::scan(&s.db, "r2").unwrap(),
            vec![0],
            vec![0],
            JoinType::Inner,
            true,
        )
        .unwrap()
        .build()
}

fn suite() -> Vec<Box<dyn ProgressEstimator>> {
    vec![
        Box::new(Dne),
        Box::new(Pmax),
        Box::new(Safe),
        Box::new(Hybrid::default()),
    ]
}

fn main() {
    println!(
        "{:<22}{:<10}{:>10}{:>10}{:>10}{:>10}",
        "scenario", "operator", "dne", "pmax", "safe", "hybrid"
    );
    for (order, label) in [
        (RowOrder::Random, "random order"),
        (RowOrder::SkewFirst, "skew first"),
        (RowOrder::SkewLast, "skew last (worst)"),
    ] {
        let s = SyntheticDb::generate(SyntheticConfig {
            r1_rows: 5_000,
            r2_rows: 50_000,
            z: 2.0,
            r1_order: order,
            seed: 7,
        });
        let stats = DbStats::build(&s.db);
        type PlanFn = fn(&SyntheticDb) -> Plan;
        let plans: [(PlanFn, &str); 2] = [(inl_plan, "INL"), (hash_plan, "hash")];
        for (mk, op) in plans {
            let mut plan = mk(&s);
            annotate(&mut plan, &stats);
            let (_, trace) =
                run_with_progress(&plan, &s.db, Some(&stats), suite(), None).expect("runs");
            print!("{label:<22}{op:<10}");
            for name in ["dne", "pmax", "safe", "hybrid"] {
                let e = error_stats(&trace, name).expect("traced");
                print!("{:>9.1}%", e.avg_abs * 100.0);
            }
            println!();
        }
    }
    println!("\n(average absolute progress error; lower is better per row)");
    println!("Notice: no column dominates — exactly the paper's Section 6 conclusion.");
}
