//! Quickstart: build a tiny database, run a query, and watch every
//! progress estimator live.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use qp_datagen::{SyntheticConfig, SyntheticDb};
use qp_exec::estimate::annotate;
use qp_exec::plan::{JoinType, PlanBuilder};
use qp_progress::estimators::standard_suite;
use qp_progress::metrics::error_stats;
use qp_progress::monitor::run_with_progress;
use qp_stats::DbStats;

fn main() {
    // 1. Generate data: r1(a) with unique keys, r2(b) zipfian (z = 2) —
    //    the paper's synthetic join-skew setup at a small scale.
    let synth = SyntheticDb::generate(SyntheticConfig {
        r1_rows: 5_000,
        r2_rows: 50_000,
        z: 2.0,
        ..SyntheticConfig::default()
    });
    let db = &synth.db;

    // 2. Collect single-relation statistics (histograms per column) —
    //    everything a progress estimator is allowed to know about the data.
    let stats = DbStats::build(db);

    // 3. Build a physical plan: scan r1, index-nested-loops join into r2.
    let mut plan = PlanBuilder::scan(db, "r1")
        .expect("r1 exists")
        .inl_join(db, "r2", "r2_b", vec![0], JoinType::Inner, true, None)
        .expect("r2_b index exists")
        .build();
    annotate(&mut plan, &stats); // optimizer estimates (used by dne)
    println!("plan:\n{}", plan.display());

    // 4. Run with the full estimator tool-kit attached as an observer.
    let (out, trace) =
        run_with_progress(&plan, db, Some(&stats), standard_suite(), None).expect("query runs");

    println!(
        "query finished: {} result rows, total(Q) = {} getnext calls\n",
        out.rows.len(),
        out.total_getnext
    );

    // 5. Print the progress trace: actual vs each estimator.
    println!(
        "{:>8} {}",
        "actual",
        trace
            .names()
            .iter()
            .map(|n| format!("{n:>12}"))
            .collect::<String>()
    );
    let prog = trace.true_progress();
    let step = (trace.snapshots().len() / 15).max(1);
    for (i, snap) in trace.snapshots().iter().enumerate() {
        if i % step != 0 && i + 1 != trace.snapshots().len() {
            continue;
        }
        print!("{:>7.1}%", prog[i] * 100.0);
        for e in &snap.estimates {
            print!("{:>11.1}%", e * 100.0);
        }
        println!();
    }

    // 6. Summarize errors.
    println!("\nerror summary (absolute error in progress points):");
    for name in trace.names() {
        let e = error_stats(&trace, name).expect("estimator traced");
        println!(
            "  {name:<12} max {:>6.2}%  avg {:>6.2}%  worst ratio {:>6.2}",
            e.max_abs * 100.0,
            e.avg_abs * 100.0,
            e.max_ratio
        );
    }
}
