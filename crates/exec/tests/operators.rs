//! End-to-end operator tests: result correctness plus getnext accounting
//! under the paper's model of work (each node's count = rows it produced;
//! `total(Q)` = sum over nodes).

use qp_exec::executor::QueryRun;
use qp_exec::expr::{AggExpr, ArithOp, CmpOp, Expr};
use qp_exec::plan::{JoinType, PlanBuilder};
use qp_exec::{run_query, QueryOutput, RunControls};
use qp_storage::{ColumnType, Database, Row, ScanShare, Schema, Value};
use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::Arc;

fn run(plan: &qp_exec::Plan, db: &Database) -> QueryOutput {
    run_query(plan, db, None).expect("query runs").0
}

/// t(a, b): a = 0..n unique; b = a % 10.
/// u(x, y): x = 0..m unique; y = x % 5. Index on u.x (unique) and u_y.
fn test_db(n: i64, m: i64) -> Database {
    let mut db = Database::new();
    db.create_table_with_rows(
        "t",
        Schema::of(&[("a", ColumnType::Int), ("b", ColumnType::Int)]),
        (0..n).map(|i| vec![Value::Int(i), Value::Int(i % 10)]),
    )
    .unwrap();
    db.create_table_with_rows(
        "u",
        Schema::of(&[("x", ColumnType::Int), ("y", ColumnType::Int)]),
        (0..m).map(|i| vec![Value::Int(i), Value::Int(i % 5)]),
    )
    .unwrap();
    db.create_index("u_x", "u", &["x"], true).unwrap();
    db.create_index("u_y", "u", &["y"], false).unwrap();
    db
}

fn ints(rows: &[Row], col: usize) -> Vec<i64> {
    rows.iter().map(|r| r.get(col).as_i64().unwrap()).collect()
}

#[test]
fn seq_scan_counts_equal_cardinality() {
    let db = test_db(100, 10);
    let plan = PlanBuilder::scan(&db, "t").unwrap().build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 100);
    assert_eq!(out.node_counts, vec![100]);
    assert_eq!(out.total_getnext, 100);
}

#[test]
fn filter_counts_match_selectivity() {
    let db = test_db(100, 10);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .filter(Expr::col_eq(1, 3i64))
        .build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 10);
    // scan produced 100, filter produced 10: total 110.
    assert_eq!(out.node_counts, vec![100, 10]);
    assert_eq!(out.total_getnext, 110);
}

#[test]
fn index_range_scan_returns_sorted_range() {
    let db = test_db(10, 100);
    let plan = PlanBuilder::index_range_scan(
        &db,
        "u",
        "u_x",
        Bound::Included(vec![Value::Int(10)]),
        Bound::Excluded(vec![Value::Int(20)]),
    )
    .unwrap()
    .build();
    let out = run(&plan, &db);
    assert_eq!(ints(&out.rows, 0), (10..20).collect::<Vec<_>>());
    assert_eq!(out.total_getnext, 10);
}

#[test]
fn project_computes_expressions() {
    let db = test_db(5, 10);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .project(vec![(
            Expr::arith(ArithOp::Mul, Expr::Col(0), Expr::Lit(Value::Int(2))),
            "twice",
        )])
        .build();
    let out = run(&plan, &db);
    assert_eq!(ints(&out.rows, 0), vec![0, 2, 4, 6, 8]);
    assert_eq!(out.node_counts, vec![5, 5]);
}

#[test]
fn sort_orders_rows() {
    let db = test_db(50, 10);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .sort(vec![(1, true), (0, false)])
        .build();
    let out = run(&plan, &db);
    // Sorted by b asc, a desc within b.
    let bs = ints(&out.rows, 1);
    assert!(bs.windows(2).all(|w| w[0] <= w[1]));
    let first_group: Vec<i64> = out
        .rows
        .iter()
        .filter(|r| r.get(1) == &Value::Int(0))
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    assert!(first_group.windows(2).all(|w| w[0] > w[1]));
    assert_eq!(out.total_getnext, 100); // 50 scan + 50 sort
}

#[test]
fn limit_stops_early_and_counts_reflect_it() {
    let db = test_db(1000, 10);
    let plan = PlanBuilder::scan(&db, "t").unwrap().limit(7).build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 7);
    // The scan is only pulled 7 times.
    assert_eq!(out.node_counts, vec![7, 7]);
}

#[test]
fn hash_join_inner_matches_nested_loops_reference() {
    let db = test_db(40, 20);
    // t.a == u.x for a in 0..20 → 20 matches.
    let probe = PlanBuilder::scan(&db, "u").unwrap();
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .hash_join(probe, vec![0], vec![0], JoinType::Inner, true)
        .unwrap()
        .build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 20);
    assert_eq!(out.rows[0].arity(), 4);
    // scan t 40 + scan u 20 + join 20.
    assert_eq!(out.total_getnext, 80);
}

#[test]
fn shared_scan_source_is_identical_to_direct() {
    // t spans several shared-scan chunks, so the replay crosses chunk
    // boundaries; a in {3, 13, 23, 33, 43} survives the filter and joins.
    let db = test_db(3000, 50);
    let probe = PlanBuilder::scan(&db, "u").unwrap();
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .filter(Expr::col_eq(1, 3i64))
        .hash_join(probe, vec![0], vec![0], JoinType::Inner, true)
        .unwrap()
        .build();
    let direct = run(&plan, &db);
    assert_eq!(direct.rows.len(), 5);

    let share = Arc::new(ScanShare::new());
    let controls = RunControls {
        scan_share: Some(Arc::clone(&share)),
        ..RunControls::default()
    };
    let mut shared = QueryRun::with_controls(&plan, &db, controls).unwrap();
    assert_eq!(shared.run().unwrap(), direct.rows);
    let counters = shared.context().counters();
    assert_eq!(counters.snapshot(), direct.node_counts);
    assert_eq!(counters.total(), direct.total_getnext);
    // Both leaves really went through the registry.
    assert_eq!(share.stats().attaches.load(Ordering::Relaxed), 2);
}

#[test]
fn hash_join_left_outer_pads_unmatched_build_rows() {
    let db = test_db(30, 10);
    let probe = PlanBuilder::scan(&db, "u").unwrap();
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .hash_join(probe, vec![0], vec![0], JoinType::LeftOuter, true)
        .unwrap()
        .build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 30);
    let padded = out.rows.iter().filter(|r| r.get(2).is_null()).count();
    assert_eq!(padded, 20);
}

#[test]
fn hash_join_semi_and_anti_partition_build_side() {
    let db = test_db(30, 10);
    for (jt, expected) in [(JoinType::LeftSemi, 10), (JoinType::LeftAnti, 20)] {
        let probe = PlanBuilder::scan(&db, "u").unwrap();
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .hash_join(probe, vec![0], vec![0], jt, true)
            .unwrap()
            .build();
        let out = run(&plan, &db);
        assert_eq!(out.rows.len(), expected, "{jt:?}");
        assert_eq!(out.rows[0].arity(), 2, "{jt:?} keeps left schema");
    }
}

#[test]
fn hash_join_duplicate_keys_cross_product() {
    // t.b has each value 0..10 repeated 4 times (n=40); u.y has each value
    // 0..5 repeated 4 times (m=20). Join on b=y: values 0..5 match,
    // 4 t-rows × 4 u-rows each → 5 * 16 = 80 output rows.
    let db = test_db(40, 20);
    let probe = PlanBuilder::scan(&db, "u").unwrap();
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .hash_join(probe, vec![1], vec![1], JoinType::Inner, false)
        .unwrap()
        .build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 80);
}

#[test]
fn merge_join_matches_hash_join() {
    let db = test_db(40, 20);
    // Sort both sides on the key, then merge.
    let left = PlanBuilder::scan(&db, "t").unwrap().sort(vec![(1, true)]);
    let right = PlanBuilder::scan(&db, "u").unwrap().sort(vec![(1, true)]);
    let plan = left
        .merge_join(right, vec![1], vec![1], JoinType::Inner, false)
        .unwrap()
        .build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 80, "same as hash join on b=y");
}

#[test]
fn merge_join_semi_anti_outer() {
    let db = test_db(30, 10);
    for (jt, expected) in [
        (JoinType::LeftSemi, 10),
        (JoinType::LeftAnti, 20),
        (JoinType::LeftOuter, 30),
    ] {
        let left = PlanBuilder::scan(&db, "t").unwrap().sort(vec![(0, true)]);
        let right = PlanBuilder::scan(&db, "u").unwrap().sort(vec![(0, true)]);
        let plan = left
            .merge_join(right, vec![0], vec![0], jt, true)
            .unwrap()
            .build();
        let out = run(&plan, &db);
        assert_eq!(out.rows.len(), expected, "{jt:?}");
    }
}

#[test]
fn merge_join_detects_unsorted_input() {
    let db = test_db(30, 10);
    // No sort: t.b is not sorted (0,1,...,9,0,1,...).
    let left = PlanBuilder::scan(&db, "t").unwrap();
    let right = PlanBuilder::scan(&db, "u").unwrap().sort(vec![(0, true)]);
    let plan = left
        .merge_join(right, vec![1], vec![0], JoinType::Inner, false)
        .unwrap()
        .build();
    let err = match run_query(&plan, &db, None) {
        Err(e) => e,
        Ok(_) => panic!("expected a sortedness error"),
    };
    assert!(matches!(err, qp_exec::ExecError::BadPlan(_)));
}

#[test]
fn nested_loops_join_arbitrary_predicate() {
    let db = test_db(10, 5);
    // Band join: t.a between u.x and u.x + 1 → for each u.x: t.a = x, x+1.
    let inner = PlanBuilder::scan(&db, "u").unwrap();
    let pred = Expr::And(vec![
        Expr::cmp(CmpOp::Ge, Expr::Col(0), Expr::Col(2)),
        Expr::cmp(
            CmpOp::Le,
            Expr::Col(0),
            Expr::arith(ArithOp::Add, Expr::Col(2), Expr::Lit(Value::Int(1))),
        ),
    ]);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .nl_join(inner, pred, JoinType::Inner, false)
        .build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 10); // 5 u-rows × 2 matching t-rows
}

#[test]
fn inl_join_reproduces_paper_accounting() {
    // Example 2 shape: scan(t) → σ → ⋈INL u. Unique inner index.
    let db = test_db(100, 50);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .filter(Expr::cmp(
            CmpOp::Lt,
            Expr::Col(0),
            Expr::Lit(Value::Int(30)),
        ))
        .inl_join(&db, "u", "u_x", vec![0], JoinType::Inner, true, None)
        .unwrap()
        .build();
    let out = run(&plan, &db);
    // 30 rows pass σ, each matches exactly one u row (a < 30 < 50).
    assert_eq!(out.rows.len(), 30);
    // Counts: scan 100, σ 30, join 30 — the INL index seeks are fused.
    assert_eq!(out.node_counts, vec![100, 30, 30]);
    assert_eq!(out.total_getnext, 160);
}

#[test]
fn inl_join_fanout_counts() {
    // Join t.b (0..10) against non-unique index u_y (y in 0..5, 20 rows,
    // 4 per y). t has 20 rows: b values 0..10 twice. b<5 rows match 4 each.
    let db = test_db(20, 20);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .inl_join(&db, "u", "u_y", vec![1], JoinType::Inner, false, None)
        .unwrap()
        .build();
    let out = run(&plan, &db);
    // 10 t-rows with b in 0..5, each matching 4 u-rows.
    assert_eq!(out.rows.len(), 40);
    assert_eq!(out.node_counts, vec![20, 40]);
}

#[test]
fn inl_join_semi_anti() {
    let db = test_db(30, 10);
    for (jt, expected) in [(JoinType::LeftSemi, 10), (JoinType::LeftAnti, 20)] {
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .inl_join(&db, "u", "u_x", vec![0], jt, true, None)
            .unwrap()
            .build();
        let out = run(&plan, &db);
        assert_eq!(out.rows.len(), expected, "{jt:?}");
    }
}

#[test]
fn inl_join_residual_predicate() {
    let db = test_db(30, 30);
    // Residual: u.y (col 3 of concat) must be 0.
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .inl_join(
            &db,
            "u",
            "u_x",
            vec![0],
            JoinType::Inner,
            true,
            Some(Expr::col_eq(3, 0i64)),
        )
        .unwrap()
        .build();
    let out = run(&plan, &db);
    // x % 5 == 0 for x in 0..30 → 6 rows.
    assert_eq!(out.rows.len(), 6);
}

#[test]
fn hash_aggregate_groups_and_aggregates() {
    let db = test_db(100, 10);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .hash_aggregate(
            vec![1],
            vec![
                (AggExpr::count_star(), "cnt"),
                (AggExpr::sum(Expr::Col(0)), "sum_a"),
                (AggExpr::min(Expr::Col(0)), "min_a"),
                (AggExpr::max(Expr::Col(0)), "max_a"),
            ],
        )
        .build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 10);
    // Group b=0: a in {0,10,...,90}: cnt 10, sum 450, min 0, max 90.
    let g0 = &out.rows[0];
    assert_eq!(g0.get(0), &Value::Int(0));
    assert_eq!(g0.get(1), &Value::Int(10));
    assert_eq!(g0.get(2), &Value::Int(450));
    assert_eq!(g0.get(3), &Value::Int(0));
    assert_eq!(g0.get(4), &Value::Int(90));
}

#[test]
fn stream_aggregate_equals_hash_aggregate_on_sorted_input() {
    let db = test_db(100, 10);
    let hash = PlanBuilder::scan(&db, "t")
        .unwrap()
        .hash_aggregate(vec![1], vec![(AggExpr::avg(Expr::Col(0)), "avg_a")])
        .build();
    let stream = PlanBuilder::scan(&db, "t")
        .unwrap()
        .sort(vec![(1, true)])
        .stream_aggregate(vec![1], vec![(AggExpr::avg(Expr::Col(0)), "avg_a")])
        .build();
    let h = run(&hash, &db);
    let s = run(&stream, &db);
    assert_eq!(h.rows, s.rows);
}

#[test]
fn scalar_aggregate_over_empty_input_yields_one_row() {
    let db = test_db(10, 10);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .filter(Expr::col_eq(0, -1i64))
        .hash_aggregate(vec![], vec![(AggExpr::count_star(), "cnt")])
        .build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].get(0), &Value::Int(0));
}

#[test]
fn grouped_aggregate_over_empty_input_yields_no_rows() {
    let db = test_db(10, 10);
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .filter(Expr::col_eq(0, -1i64))
        .hash_aggregate(vec![1], vec![(AggExpr::count_star(), "cnt")])
        .build();
    let out = run(&plan, &db);
    assert_eq!(out.rows.len(), 0);
}

#[test]
fn example2_total_getnext_arithmetic() {
    // The paper's Example 2, scaled down 100×: |R1| = |R2| = 1000; exactly
    // one R1 tuple passes the selection and joins with 100 R2 tuples.
    let mut db = Database::new();
    db.create_table_with_rows(
        "r1",
        Schema::of(&[("a", ColumnType::Int)]),
        (0..1000).map(|i| vec![Value::Int(i)]),
    )
    .unwrap();
    // R2.b: 100 rows with value 42, the rest unmatched values >= 1000.
    db.create_table_with_rows(
        "r2",
        Schema::of(&[("b", ColumnType::Int)]),
        (0..1000).map(|i| vec![Value::Int(if i < 100 { 42 } else { 1000 + i })]),
    )
    .unwrap();
    db.create_index("r2_b", "r2", &["b"], false).unwrap();
    let plan = PlanBuilder::scan(&db, "r1")
        .unwrap()
        .filter(Expr::col_eq(0, 42i64))
        .inl_join(&db, "r2", "r2_b", vec![0], JoinType::Inner, false, None)
        .unwrap()
        .build();
    let out = run(&plan, &db);
    // total(Q) = 1000 (scan) + 1 (σ) + 100 (join) = 1101 — the paper's
    // 100,000 + 1 + 10,000 = 110,001 at 1/100 scale.
    assert_eq!(out.total_getnext, 1101);
}

#[test]
fn three_way_join_with_aggregation() {
    let db = test_db(60, 30);
    // (t ⋈hash u on a=x) ⋈INL u on b=y, then group by b.
    let probe = PlanBuilder::scan(&db, "u").unwrap();
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .hash_join(probe, vec![0], vec![0], JoinType::Inner, true)
        .unwrap()
        .inl_join(&db, "u", "u_y", vec![1], JoinType::Inner, false, None)
        .unwrap()
        .hash_aggregate(vec![1], vec![(AggExpr::count_star(), "cnt")])
        .build();
    let out = run_query(&plan, &db, None).unwrap().0;
    assert!(!out.rows.is_empty());
    // Sanity: total is the sum of node counts.
    assert_eq!(
        out.total_getnext,
        out.node_counts.iter().sum::<u64>(),
        "total(Q) must be the sum over nodes"
    );
}
