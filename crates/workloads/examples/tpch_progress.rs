//! Progress estimation across the TPC-H suite (the paper's Table 2
//! setting): generates the skewed benchmark database, runs every query
//! with the full estimator tool-kit, and prints per-query μ plus each
//! estimator's average error.
//!
//! ```text
//! cargo run --release --example tpch_progress            # default scale
//! cargo run --release --example tpch_progress -- 0.05    # bigger DB
//! ```

use qp_datagen::{TpchConfig, TpchDb};
use qp_exec::estimate::annotate;
use qp_progress::estimators::standard_suite;
use qp_progress::metrics::error_stats;
use qp_progress::monitor::run_with_progress;
use qp_progress::{mu_from_counts, PlanMeta};
use qp_stats::DbStats;
use qp_workloads::tpch_queries;

fn main() {
    let scale: f64 = std::env::args()
        .nth(1)
        .and_then(|a| a.parse().ok())
        .unwrap_or(0.01);
    println!("generating TPC-H at scale {scale} with skew z = 2 ...");
    let t = TpchDb::generate(TpchConfig {
        scale,
        z: 2.0,
        seed: 42,
    });
    for name in t.db.table_names() {
        println!("  {name:<10} {:>8} rows", t.db.cardinality(name).unwrap());
    }
    let stats = DbStats::build(&t.db);

    let names: Vec<&str> = standard_suite().iter().map(|e| e.name()).collect();
    print!("\n{:<6}{:>8}{:>8}", "query", "mu", "total");
    for n in &names {
        print!("{n:>13}");
    }
    println!();

    for (q, mut plan) in tpch_queries(&t) {
        annotate(&mut plan, &stats);
        let meta = PlanMeta::from_plan(&plan);
        let (out, trace) = run_with_progress(&plan, &t.db, Some(&stats), standard_suite(), None)
            .unwrap_or_else(|e| panic!("Q{q} failed: {e}"));
        let mu = mu_from_counts(&meta, &out.node_counts);
        print!("Q{q:<5}{mu:>8.3}{:>8}", out.total_getnext);
        for n in &names {
            let e = error_stats(&trace, n).expect("traced");
            print!("{:>12.2}%", e.avg_abs * 100.0);
        }
        println!();
    }
    println!("\n(columns are average absolute progress error per estimator)");
}
