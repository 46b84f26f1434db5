//! Run arbitrary SQL against the skewed TPC-H database with the full
//! progress-estimator tool-kit attached — the closed loop the paper's
//! Figure 1 describes, end to end.
//!
//! ```text
//! cargo run --release --example sql_progress
//! cargo run --release --example sql_progress -- \
//!   "SELECT o_orderpriority, COUNT(*) FROM orders, lineitem \
//!     WHERE o_orderkey = l_orderkey AND l_shipdate >= DATE '1995-01-01' \
//!     GROUP BY o_orderpriority ORDER BY 2 DESC"
//! ```

use qp_datagen::{TpchConfig, TpchDb};
use qp_exec::estimate::annotate;
use qp_progress::estimators::standard_suite;
use qp_progress::metrics::error_stats;
use qp_progress::monitor::run_with_progress;
use qp_sql::sql_to_plan;
use qp_stats::DbStats;

const DEFAULT_SQL: &str = "SELECT l_returnflag, l_linestatus, COUNT(*) AS n, \
    SUM(l_extendedprice * (1 - l_discount)) AS revenue \
    FROM lineitem WHERE l_shipdate <= DATE '1998-09-02' \
    GROUP BY l_returnflag, l_linestatus ORDER BY revenue DESC";

fn main() {
    let sql = std::env::args()
        .nth(1)
        .unwrap_or_else(|| DEFAULT_SQL.to_string());

    println!("generating TPC-H (scale 0.01, z = 2) ...");
    let t = TpchDb::generate(TpchConfig::default());
    let stats = DbStats::build(&t.db);

    println!("\nsql> {sql}\n");
    let mut plan = match sql_to_plan(&sql, &t.db, &stats) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("error: {e}");
            std::process::exit(1);
        }
    };
    annotate(&mut plan, &stats);
    println!("plan:\n{}", plan.display());

    let (out, trace) =
        run_with_progress(&plan, &t.db, Some(&stats), standard_suite(), None).expect("query runs");

    // Progress bars per estimator, sampled at ~quarter points.
    println!("progress traces (|####----| per estimator):");
    let prog = trace.true_progress();
    let step = (trace.snapshots().len() / 8).max(1);
    for (i, snap) in trace.snapshots().iter().enumerate() {
        if i % step != 0 && i + 1 != trace.snapshots().len() {
            continue;
        }
        print!("actual {:>5.1}% |", prog[i] * 100.0);
        for (&name, &e) in trace.names().iter().zip(&snap.estimates) {
            let filled = (e * 8.0).round() as usize;
            print!(
                " {}:{}{}",
                &name[..name.len().min(4)],
                "#".repeat(filled),
                "-".repeat(8 - filled.min(8))
            );
        }
        println!();
    }

    println!(
        "\nresults ({} rows, total(Q) = {} getnext calls):",
        out.rows.len(),
        out.total_getnext
    );
    for row in out.rows.iter().take(10) {
        println!("  {row:?}");
    }
    if out.rows.len() > 10 {
        println!("  ... {} more", out.rows.len() - 10);
    }

    println!("\nestimator scorecard:");
    for name in trace.names() {
        let e = error_stats(&trace, name).expect("traced");
        println!(
            "  {name:<12} avg abs err {:>6.2}%   worst ratio {:>7.2}",
            e.avg_abs * 100.0,
            e.max_ratio
        );
    }
}
