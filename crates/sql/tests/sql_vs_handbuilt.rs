//! Cross-validation: the SQL texts in `qp_workloads::sql_text`, planned
//! by `qp-sql`, must produce exactly the same result multisets as the
//! hand-built physical plans for the same TPC-H queries — parser, binder,
//! planner, and executor all checked against an independent construction
//! of the same logical query.

use qp_datagen::{TpchConfig, TpchDb};
use qp_exec::run_query;
use qp_sql::sql_to_plan;
use qp_stats::DbStats;
use qp_storage::{Row, Value};

fn db() -> (TpchDb, DbStats) {
    let t = TpchDb::generate(TpchConfig {
        scale: 0.002,
        z: 1.5,
        seed: 21,
    });
    let stats = DbStats::build(&t.db);
    (t, stats)
}

/// Normalizes rows for comparison: floats rounded to 1e-6 so that
/// different (but algebraically equal) aggregation orders agree.
fn normalize(mut rows: Vec<Row>) -> Vec<Vec<String>> {
    rows.sort();
    rows.iter()
        .map(|r| {
            r.values()
                .iter()
                .map(|v| match v {
                    Value::Float(f) => format!("{:.6}", f),
                    other => other.to_string(),
                })
                .collect()
        })
        .collect()
}

#[test]
fn sql_and_handbuilt_plans_agree_on_results() {
    let (t, stats) = db();
    for q in qp_workloads::SQL_QUERIES {
        let sql = qp_workloads::tpch_sql(q).expect("listed query has SQL");
        let sql_plan =
            sql_to_plan(sql, &t.db, &stats).unwrap_or_else(|e| panic!("Q{q} failed to plan: {e}"));
        let hand_plan = qp_workloads::tpch_query(q, &t);

        let sql_rows = run_query(&sql_plan, &t.db, None)
            .unwrap_or_else(|e| panic!("Q{q} SQL plan failed: {e}"))
            .0
            .rows;
        let hand_rows = run_query(&hand_plan, &t.db, None).unwrap().0.rows;

        assert_eq!(
            normalize(sql_rows),
            normalize(hand_rows),
            "Q{q}: SQL and hand-built plans disagree\nSQL plan:\n{}\nhand plan:\n{}",
            sql_plan.display(),
            hand_plan.display()
        );
    }
}

/// Both paths must also agree on μ being in the same small band — the
/// planner may pick a different join order, but the paper's "μ is small
/// for decision-support queries" property is plan-shape-robust.
#[test]
fn sql_plans_have_small_mu_too() {
    let (t, stats) = db();
    for q in qp_workloads::SQL_QUERIES {
        let sql = qp_workloads::tpch_sql(q).expect("listed");
        let plan = sql_to_plan(sql, &t.db, &stats).unwrap();
        let meta = qp_progress::PlanMeta::from_plan(&plan);
        let (out, _) = run_query(&plan, &t.db, None).unwrap();
        let mu = qp_progress::mu_from_counts(&meta, &out.node_counts);
        assert!(
            mu.is_finite() && mu < 4.0,
            "Q{q} via SQL: mu {mu} out of the small-mu band\n{}",
            plan.display()
        );
    }
}
