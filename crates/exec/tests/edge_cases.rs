//! Operator edge cases: empty inputs, zero limits, single rows, all-equal
//! keys, NULL-only columns — the corners a progress estimator's bound
//! refinements must survive without ever observing a malformed count.

use qp_exec::executor::QueryRun;
use qp_exec::expr::{AggExpr, CmpOp, Expr};
use qp_exec::plan::{JoinType, Plan, PlanBuilder};
use qp_exec::{run_query, RunControls};
use qp_storage::{ColumnType, Database, ScanShare, Schema, Value};
use std::ops::Bound;
use std::sync::Arc;

fn empty_db() -> Database {
    let mut db = Database::new();
    db.create_table_with_rows(
        "e",
        Schema::of(&[("a", ColumnType::Int)]),
        std::iter::empty(),
    )
    .unwrap();
    db.create_table_with_rows(
        "t",
        Schema::of(&[("a", ColumnType::Int)]),
        (0..10).map(|i| vec![Value::Int(i)]),
    )
    .unwrap();
    db.create_index("e_a", "e", &["a"], false).unwrap();
    db.create_index("t_a", "t", &["a"], true).unwrap();
    db
}

fn counts(plan: &Plan, db: &Database) -> (usize, Vec<u64>) {
    let (out, _) = run_query(plan, db, None).unwrap();
    assert_eq!(out.total_getnext, out.node_counts.iter().sum::<u64>());
    (out.rows.len(), out.node_counts)
}

#[test]
fn empty_scan_produces_nothing() {
    let db = empty_db();
    let plan = PlanBuilder::scan(&db, "e").unwrap().build();
    assert_eq!(counts(&plan, &db), (0, vec![0]));
}

#[test]
fn operators_over_empty_input() {
    let db = empty_db();
    // Filter, project, sort, limit over the empty scan.
    let plan = PlanBuilder::scan(&db, "e")
        .unwrap()
        .filter(Expr::col_eq(0, 1i64))
        .project(vec![(Expr::Col(0), "a")])
        .sort(vec![(0, true)])
        .limit(5)
        .build();
    let (rows, node_counts) = counts(&plan, &db);
    assert_eq!(rows, 0);
    assert!(node_counts.iter().all(|&c| c == 0));
}

#[test]
fn joins_with_one_empty_side() {
    let db = empty_db();
    // Empty build side.
    let plan = PlanBuilder::scan(&db, "e")
        .unwrap()
        .hash_join(
            PlanBuilder::scan(&db, "t").unwrap(),
            vec![0],
            vec![0],
            JoinType::Inner,
            true,
        )
        .unwrap()
        .build();
    assert_eq!(counts(&plan, &db).0, 0);
    // Empty probe side.
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .hash_join(
            PlanBuilder::scan(&db, "e").unwrap(),
            vec![0],
            vec![0],
            JoinType::Inner,
            true,
        )
        .unwrap()
        .build();
    assert_eq!(counts(&plan, &db).0, 0);
    // Anti join with empty probe keeps every build row.
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .hash_join(
            PlanBuilder::scan(&db, "e").unwrap(),
            vec![0],
            vec![0],
            JoinType::LeftAnti,
            true,
        )
        .unwrap()
        .build();
    assert_eq!(counts(&plan, &db).0, 10);
    // Outer join with empty probe pads every build row.
    let plan = PlanBuilder::scan(&db, "t")
        .unwrap()
        .hash_join(
            PlanBuilder::scan(&db, "e").unwrap(),
            vec![0],
            vec![0],
            JoinType::LeftOuter,
            true,
        )
        .unwrap()
        .build();
    let (out, _) = run_query(&plan, &db, None).unwrap();
    assert_eq!(out.rows.len(), 10);
    assert!(out.rows.iter().all(|r| r.get(1).is_null()));
}

#[test]
fn inl_join_against_empty_index() {
    let db = empty_db();
    for (jt, expected) in [
        (JoinType::Inner, 0),
        (JoinType::LeftSemi, 0),
        (JoinType::LeftAnti, 10),
        (JoinType::LeftOuter, 10),
    ] {
        let plan = PlanBuilder::scan(&db, "t")
            .unwrap()
            .inl_join(&db, "e", "e_a", vec![0], jt, true, None)
            .unwrap()
            .build();
        assert_eq!(counts(&plan, &db).0, expected, "{jt:?}");
    }
}

#[test]
fn limit_zero_produces_nothing_and_pulls_nothing() {
    let db = empty_db();
    let plan = PlanBuilder::scan(&db, "t").unwrap().limit(0).build();
    let (rows, node_counts) = counts(&plan, &db);
    assert_eq!(rows, 0);
    assert_eq!(node_counts, vec![0, 0], "limit 0 must not pull the scan");
}

#[test]
fn limit_larger_than_input_is_harmless() {
    let db = empty_db();
    let plan = PlanBuilder::scan(&db, "t").unwrap().limit(1_000).build();
    assert_eq!(counts(&plan, &db), (10, vec![10, 10]));
}

#[test]
fn merge_join_all_duplicate_keys_is_full_cross_product() {
    let mut db = Database::new();
    db.create_table_with_rows(
        "l",
        Schema::of(&[("k", ColumnType::Int)]),
        (0..7).map(|_| vec![Value::Int(1)]),
    )
    .unwrap();
    db.create_table_with_rows(
        "r",
        Schema::of(&[("k", ColumnType::Int)]),
        (0..5).map(|_| vec![Value::Int(1)]),
    )
    .unwrap();
    let plan = PlanBuilder::scan(&db, "l")
        .unwrap()
        .merge_join(
            PlanBuilder::scan(&db, "r").unwrap(),
            vec![0],
            vec![0],
            JoinType::Inner,
            false,
        )
        .unwrap()
        .build();
    assert_eq!(counts(&plan, &db).0, 35);
}

#[test]
fn aggregate_over_null_only_column() {
    let mut db = Database::new();
    db.create_table_with_rows(
        "n",
        Schema::of(&[("a", ColumnType::Int)]),
        (0..5).map(|_| vec![Value::Null]),
    )
    .unwrap();
    let plan = PlanBuilder::scan(&db, "n")
        .unwrap()
        .hash_aggregate(
            vec![],
            vec![
                (AggExpr::count_star(), "n"),
                (AggExpr::count(Expr::Col(0)), "nn"),
                (AggExpr::sum(Expr::Col(0)), "s"),
                (AggExpr::min(Expr::Col(0)), "mn"),
                (AggExpr::avg(Expr::Col(0)), "av"),
            ],
        )
        .build();
    let (out, _) = run_query(&plan, &db, None).unwrap();
    let r = &out.rows[0];
    assert_eq!(r.get(0), &Value::Int(5)); // COUNT(*) counts NULL rows
    assert_eq!(r.get(1), &Value::Int(0)); // COUNT(a) does not
    assert!(r.get(2).is_null()); // SUM of nothing is NULL
    assert!(r.get(3).is_null()); // MIN of nothing is NULL
    assert!(r.get(4).is_null()); // AVG of nothing is NULL
}

#[test]
fn group_by_null_key_forms_its_own_group() {
    let mut db = Database::new();
    db.create_table_with_rows(
        "g",
        Schema::of(&[("k", ColumnType::Int), ("v", ColumnType::Int)]),
        vec![
            vec![Value::Null, Value::Int(1)],
            vec![Value::Null, Value::Int(2)],
            vec![Value::Int(7), Value::Int(3)],
        ],
    )
    .unwrap();
    let plan = PlanBuilder::scan(&db, "g")
        .unwrap()
        .hash_aggregate(vec![0], vec![(AggExpr::count_star(), "n")])
        .build();
    let (out, _) = run_query(&plan, &db, None).unwrap();
    // Two groups: NULL (2 rows) and 7 (1 row) — SQL GROUP BY semantics.
    assert_eq!(out.rows.len(), 2);
    let null_group = out.rows.iter().find(|r| r.get(0).is_null()).unwrap();
    assert_eq!(null_group.get(1), &Value::Int(2));
}

#[test]
fn single_row_table_through_every_unary_operator() {
    let mut db = Database::new();
    db.create_table_with_rows(
        "one",
        Schema::of(&[("a", ColumnType::Int)]),
        vec![vec![Value::Int(42)]],
    )
    .unwrap();
    let plan = PlanBuilder::scan(&db, "one")
        .unwrap()
        .filter(Expr::cmp(CmpOp::Ge, Expr::Col(0), Expr::Lit(Value::Int(0))))
        .project(vec![(Expr::Col(0), "a")])
        .sort(vec![(0, false)])
        .stream_aggregate(vec![0], vec![(AggExpr::count_star(), "n")])
        .build();
    let (out, _) = run_query(&plan, &db, None).unwrap();
    assert_eq!(out.rows.len(), 1);
    assert_eq!(out.rows[0].get(0), &Value::Int(42));
    assert_eq!(out.rows[0].get(1), &Value::Int(1));
}

#[test]
fn rerunning_the_same_query_run_is_idempotent() {
    // open() must fully reset operator state — whichever row source the
    // leaf reads: the heap directly, a shared-scan cursor, an index's rids.
    let db = empty_db();
    let top3 = |b: PlanBuilder| b.sort(vec![(0, false)]).limit(3).build();
    let heap = top3(PlanBuilder::scan(&db, "t").unwrap());
    let index = top3(
        PlanBuilder::index_range_scan(
            &db,
            "t",
            "t_a",
            Bound::Included(vec![Value::Int(2)]),
            Bound::Unbounded,
        )
        .unwrap(),
    );
    let shared = RunControls {
        scan_share: Some(Arc::new(ScanShare::new())),
        ..RunControls::default()
    };
    for (plan, controls) in [
        (&heap, RunControls::default()),
        (&heap, shared),
        (&index, RunControls::default()),
    ] {
        let mut run = QueryRun::with_controls(plan, &db, controls).unwrap();
        let first = run.run().unwrap();
        let counters = run.context().counters();
        let (node_counts, total) = (counters.snapshot(), counters.total());
        let second = run.run().unwrap();
        assert_eq!(first, second);
        assert_eq!(first.len(), 3);
        // Counters accumulate over a QueryRun's lifetime, so an identical
        // second pass lands every one of them at exactly double.
        let counters = run.context().counters();
        let doubled: Vec<u64> = node_counts.iter().map(|c| c * 2).collect();
        assert_eq!(counters.snapshot(), doubled);
        assert_eq!(counters.total(), total * 2);
    }
}
