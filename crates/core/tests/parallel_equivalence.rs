//! Parallel-vs-serial equivalence: the whole point of the `Exchange`
//! design is that parallelism compresses wall-clock time *without
//! touching the model of work*. These properties pin that down on
//! arbitrary data and plan shapes, at parallelism 1, 2, and 4:
//!
//! * result rows are identical — same multiset, same order, since the
//!   partition merge concatenates in partition order;
//! * per-node getnext counters are identical index-for-index on the
//!   original nodes, the appended `Exchange` nodes count zero, and
//!   `total(Q)` is unchanged;
//! * Proposition 4 (`pmax` never underestimates true progress) holds at
//!   every checkpoint of a parallel run, against the *same* `total(Q)`;
//! * seeded fault injection replays the same outcome for the same seed
//!   and degree, and a mid-flight cancel lands in `Cancelled` — never a
//!   panic, never a wrong answer.
//!
//! Morsel-driven work stealing widens the matrix: every property above
//! must also hold at every **morsel size** (one-row morsels, small, large,
//! and one whole-table morsel) and under batched `next_batch` driving,
//! over uniform *and* Zipf-skewed data (z ∈ {0, 1, 2} — skew is what makes
//! morsel runtimes uneven and forces actual stealing). The checkpoint
//! stance matches PR 5: at parallelism 1 every estimator reading is
//! byte-identical snapshot-for-snapshot regardless of morsel/batch sizing;
//! at higher degrees checkpoint *interleaving* may differ (workers race to
//! the stride boundary) but Proposition 4, the `[lb, ub]` bracket, and all
//! final counts remain exact.

use qp_datagen::Zipf;
use qp_exec::executor::QueryRun;
use qp_exec::expr::{CmpOp, Expr};
use qp_exec::plan::{JoinType, Plan, PlanBuilder};
use qp_exec::{
    parallelize, run_query, CancelToken, Counters, ExecError, ExecEvent, ExecTuning, FaultConfig,
    FaultPlan, Observer, RunControls,
};
use qp_progress::estimators::{Dne, Pmax, Safe};
use qp_progress::monitor::{run_with_progress, run_with_progress_controls};
use qp_stats::DbStats;
use qp_storage::{ColumnType, Database, Row, Schema, Value};
use qp_testkit::prop::collection;
use qp_testkit::{prop_assert, prop_check, TestRng};
use std::time::Duration;

/// The morsel-size axis of the matrix: one-row morsels (maximum stealing),
/// a small and a large power of two, and a single whole-table morsel
/// (degenerates to static assignment of the entire input to one worker).
const MORSEL_SIZES: [usize; 4] = [1, 64, 1024, usize::MAX];

/// Results-neutral tuning for one matrix cell: morsel size plus a
/// deliberately odd batch size so batch boundaries never align with
/// morsel boundaries.
fn tuning(morsel_rows: usize) -> ExecTuning {
    ExecTuning {
        morsel_rows,
        batch_rows: 7,
    }
}

/// Zipf-skewed table contents: `len` rows of `t(a, b)` and `u(x)` drawn
/// from Zipf(z) over small domains. `z = 0` is uniform; `z = 2` puts most
/// of the mass on a handful of values, which concentrates filter/join
/// work in a few morsels and forces the other workers to steal.
fn skewed_vals(seed: u64, z: f64, len: usize) -> (Vec<(i64, i64)>, Vec<i64>) {
    let mut rng = TestRng::seed_from_u64(seed);
    let za = Zipf::new(40, z);
    let zb = Zipf::new(12, z);
    let t_vals = (0..len)
        .map(|_| (za.sample(&mut rng) as i64, zb.sample(&mut rng) as i64))
        .collect();
    let u_vals = (0..len / 2).map(|_| zb.sample(&mut rng) as i64).collect();
    (t_vals, u_vals)
}

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
    db.create_index("t_a", "t", &["a"], false).unwrap();
    db
}

/// Plan shapes that exercise the parallelizer's eligibility analysis:
/// bare filter-scan, index-nested-loops probe, hash join (both sides
/// eligible), sort + aggregate over a scan, a semi-join under a filter —
/// plus the early-terminating ancestors that must *block* fan-out: a
/// `Limit` over a filtered scan (the serial run stops pulling after `n`
/// rows) and a merge join over index scans (the right input is abandoned
/// the moment the left side exhausts).
fn build_plan(db: &Database, shape: u8, threshold: i64) -> Plan {
    match shape % 7 {
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
        4 => PlanBuilder::scan(db, "t")
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
        // LIMIT over a streamed chain: the serial run stops pulling the
        // scan after the limit fills, so the chain must not be fanned —
        // an eager Exchange would scan the whole table and inflate the
        // per-node getnext counters past the serial run's.
        5 => PlanBuilder::scan(db, "t")
            .unwrap()
            .filter(Expr::cmp(
                CmpOp::Lt,
                Expr::Col(0),
                Expr::Lit(Value::Int(threshold)),
            ))
            .limit((threshold as u64 / 2).max(1))
            .build(),
        // Merge join over pre-sorted index scans: the right input is
        // abandoned as soon as the left exhausts, so only the left chain
        // may be fanned; fanning the right would drain rows the serial
        // run never pulls.
        _ => {
            use std::ops::Bound;
            PlanBuilder::index_range_scan(db, "t", "t_a", Bound::Unbounded, Bound::Unbounded)
                .unwrap()
                .merge_join(
                    PlanBuilder::index_range_scan(
                        db,
                        "u",
                        "u_x",
                        Bound::Unbounded,
                        Bound::Unbounded,
                    )
                    .unwrap(),
                    vec![0],
                    vec![0],
                    JoinType::Inner,
                    false,
                )
                .unwrap()
                .build()
        }
    }
}

/// Annotated copy of `build_plan` (parallelize must run *after* annotate).
fn annotated_plan(db: &Database, stats: &DbStats, shape: u8, threshold: i64) -> Plan {
    let mut plan = build_plan(db, shape, threshold);
    qp_exec::estimate::annotate(&mut plan, stats);
    plan
}

/// A run's comparable outcome: rows, an error, or a caught panic message.
#[derive(Debug, Clone, PartialEq, Eq)]
enum Outcome {
    Rows(Vec<Row>),
    Error(ExecError),
    Panic(String),
}

/// Runs `plan` under `controls`, catching panics (injected ones resume on
/// the caller by design) so outcomes compare with `==`.
fn run_outcome(plan: &Plan, db: &Database, controls: RunControls) -> Outcome {
    let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let mut run = QueryRun::with_controls(plan, db, controls)?;
        run.run()
    }));
    match result {
        Ok(Ok(rows)) => Outcome::Rows(rows),
        Ok(Err(e)) => Outcome::Error(e),
        Err(payload) => {
            let msg = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "non-string panic".into());
            Outcome::Panic(msg)
        }
    }
}

prop_check! {
    cases = 32,

    /// Rows, per-node counters, and `total(Q)` are byte-identical to the
    /// serial run at every parallelism degree; the appended `Exchange`
    /// nodes stay at zero getnext calls (they are transparent under the
    /// model of work).
    fn parallel_run_matches_serial_exactly(
        t_vals in collection::vec((0i64..40, 0i64..12), 1..120),
        u_vals in collection::vec(0i64..12, 0..150),
        shape in 0u8..7,
        threshold in 0i64..40,
    ) {
        let db = build_db(&t_vals, &u_vals);
        let stats = DbStats::build(&db);
        let plan = annotated_plan(&db, &stats, shape, threshold);
        let (serial, _) = run_query(&plan, &db, None).unwrap();
        for degree in [1usize, 2, 4] {
            let par = parallelize(&plan, degree);
            let (out, _) = run_query(&par, &db, None).unwrap();
            prop_assert!(
                out.rows == serial.rows,
                "rows diverge at parallelism {degree} (shape {shape})"
            );
            prop_assert!(
                out.total_getnext == serial.total_getnext,
                "total(Q) {} != serial {} at parallelism {degree}",
                out.total_getnext,
                serial.total_getnext
            );
            prop_assert!(
                out.node_counts[..plan.len()] == serial.node_counts[..],
                "per-node counters diverge at parallelism {degree}"
            );
            for (id, &c) in out.node_counts.iter().enumerate().skip(plan.len()) {
                prop_assert!(c == 0, "Exchange node {id} counted {c} getnext calls");
            }
        }
    }

    /// Proposition 4 survives parallelism at every morsel size: at every
    /// checkpoint of a parallel run, `pmax >= Curr/total(Q)`, with bounds
    /// bracketing the (serial-identical) final total.
    fn pmax_never_underestimates_under_parallelism(
        t_vals in collection::vec((0i64..30, 0i64..10), 1..100),
        u_vals in collection::vec(0i64..10, 0..120),
        shape in 0u8..7,
        threshold in 0i64..30,
        degree_sel in 0usize..3,
        morsel_sel in 0usize..4,
    ) {
        let db = build_db(&t_vals, &u_vals);
        let stats = DbStats::build(&db);
        let plan = annotated_plan(&db, &stats, shape, threshold);
        let par = parallelize(&plan, [1usize, 2, 4][degree_sel]);
        let controls = RunControls {
            tuning: tuning(MORSEL_SIZES[morsel_sel]),
            ..RunControls::default()
        };
        let (out, trace) = run_with_progress_controls(
            &par,
            &db,
            Some(&stats),
            vec![Box::new(Pmax)],
            Some(3),
            controls,
        )
        .unwrap();
        let total = out.total_getnext;
        let (serial, _) = run_query(&plan, &db, None).unwrap();
        prop_assert!(out.rows == serial.rows, "rows diverge from serial");
        prop_assert!(
            total == serial.total_getnext,
            "total(Q) {} != serial {}",
            total,
            serial.total_getnext
        );
        for snap in trace.snapshots() {
            let prog = snap.curr as f64 / total.max(1) as f64;
            prop_assert!(snap.lb <= total.max(1), "lb {} > total {}", snap.lb, total);
            prop_assert!(snap.ub >= total, "ub {} < total {}", snap.ub, total);
            let pmax = snap.estimates[0];
            prop_assert!(
                pmax + 1e-9 >= prog.min(1.0),
                "pmax {} < prog {} at curr {}",
                pmax,
                prog,
                snap.curr
            );
        }
    }

    /// Seeded fault injection is deterministic under parallelism at every
    /// morsel size: the same seed, degree, and morsel size replay the
    /// exact same outcome — rows, error, or panic — because fault
    /// schedules key on the morsel-local getnext clock, not wall-clock
    /// interleaving or which worker stole the morsel.
    fn seeded_faults_replay_identically(
        t_vals in collection::vec((0i64..30, 0i64..8), 1..80),
        u_vals in collection::vec(0i64..8, 0..80),
        shape in 0u8..7,
        degree_sel in 0usize..3,
        morsel_sel in 0usize..4,
        seed in 0u64..1_000_000,
    ) {
        let db = build_db(&t_vals, &u_vals);
        let stats = DbStats::build(&db);
        let plan = annotated_plan(&db, &stats, shape, 15);
        let par = parallelize(&plan, [1usize, 2, 4][degree_sel]);
        let cfg = FaultConfig {
            horizon: 500,
            exec_errors: 1,
            storage_errors: 1,
            panics: 1,
            delays: 1,
            delay: Duration::from_micros(50),
        };
        let controls = |faults: FaultPlan| RunControls {
            faults: Some(faults),
            tuning: tuning(MORSEL_SIZES[morsel_sel]),
            ..RunControls::default()
        };
        let first = run_outcome(&par, &db, controls(FaultPlan::seeded(seed, &cfg)));
        let second = run_outcome(&par, &db, controls(FaultPlan::seeded(seed, &cfg)));
        prop_assert!(
            first == second,
            "seed {seed} diverged: {first:?} vs {second:?}"
        );
        // Whatever the faults did, a successful run is still the serial
        // answer — faults either kill the query or leave it untouched.
        if let Outcome::Rows(rows) = &first {
            let (serial, _) = run_query(&plan, &db, None).unwrap();
            prop_assert!(*rows == serial.rows, "fault survivor returned wrong rows");
        }
    }
}

prop_check! {
    cases = 12,

    /// The tentpole matrix: seeds × degrees {1, 2, 4} × skew z ∈
    /// {0, 1, 2} × morsel sizes {1, 64, 1024, whole-table}, driven through
    /// the batched `next_batch` path (odd batch size 7). Every cell must
    /// reproduce the serial run byte-for-byte: rows, per-node counters,
    /// `total(Q)`, and zero getnext calls on the `Exchange` nodes. Skewed
    /// data makes morsel runtimes uneven, so high-z cells actually steal.
    fn morsel_matrix_matches_serial_exactly(
        seed in 0u64..1_000_000,
        shape in 0u8..7,
        z_sel in 0usize..3,
        threshold in 1i64..40,
    ) {
        let z = [0.0, 1.0, 2.0][z_sel];
        let (t_vals, u_vals) = skewed_vals(seed, z, 120);
        let db = build_db(&t_vals, &u_vals);
        let stats = DbStats::build(&db);
        let plan = annotated_plan(&db, &stats, shape, threshold);
        let (serial, _) = run_query(&plan, &db, None).unwrap();
        for degree in [1usize, 2, 4] {
            let par = parallelize(&plan, degree);
            for morsel in MORSEL_SIZES {
                let controls = RunControls {
                    tuning: tuning(morsel),
                    ..RunControls::default()
                };
                let mut run = QueryRun::with_controls(&par, &db, controls).unwrap();
                let rows = run.run().unwrap();
                let counts = run.context().counters().snapshot();
                let total = run.context().counters().total();
                prop_assert!(
                    rows == serial.rows,
                    "rows diverge at degree {degree} morsel {morsel} z {z} (shape {shape})"
                );
                prop_assert!(
                    total == serial.total_getnext,
                    "total(Q) {} != serial {} at degree {degree} morsel {morsel}",
                    total,
                    serial.total_getnext
                );
                prop_assert!(
                    counts[..plan.len()] == serial.node_counts[..],
                    "per-node counters diverge at degree {degree} morsel {morsel} z {z}"
                );
                for (id, &c) in counts.iter().enumerate().skip(plan.len()) {
                    prop_assert!(c == 0, "Exchange node {id} counted {c} getnext calls");
                }
            }
        }
    }

    /// At parallelism 1 the checkpoint stream itself is deterministic, so
    /// the claim sharpens to snapshot-for-snapshot **byte equality**: for
    /// every morsel size and batch size, every `dne`/`pmax`/`safe`
    /// reading, every `Curr`, and every `[lb, ub]` bound is bit-identical
    /// to the default-tuning trace. Tuning is a schedule knob, not a
    /// semantics knob.
    fn degree_one_checkpoints_are_byte_identical_across_tuning(
        seed in 0u64..1_000_000,
        shape in 0u8..7,
        z_sel in 0usize..3,
        threshold in 1i64..40,
    ) {
        use qp_progress::ProgressEstimator;
        let z = [0.0, 1.0, 2.0][z_sel];
        let (t_vals, u_vals) = skewed_vals(seed, z, 90);
        let db = build_db(&t_vals, &u_vals);
        let stats = DbStats::build(&db);
        let plan = annotated_plan(&db, &stats, shape, threshold);
        let suite = || -> Vec<Box<dyn ProgressEstimator>> {
            vec![Box::new(Dne), Box::new(Pmax), Box::new(Safe)]
        };
        let (ref_out, ref_trace) =
            run_with_progress(&plan, &db, Some(&stats), suite(), Some(3)).unwrap();
        for morsel in MORSEL_SIZES {
            for batch in [1usize, 7, 256] {
                let controls = RunControls {
                    tuning: ExecTuning {
                        morsel_rows: morsel,
                        batch_rows: batch,
                    },
                    ..RunControls::default()
                };
                let (out, trace) = run_with_progress_controls(
                    &plan,
                    &db,
                    Some(&stats),
                    suite(),
                    Some(3),
                    controls,
                )
                .unwrap();
                prop_assert!(out.rows == ref_out.rows, "rows diverge at {morsel}/{batch}");
                prop_assert!(
                    out.total_getnext == ref_out.total_getnext,
                    "total(Q) diverges at {morsel}/{batch}"
                );
                let (a, b) = (ref_trace.snapshots(), trace.snapshots());
                prop_assert!(
                    a.len() == b.len(),
                    "checkpoint count {} != {} at {morsel}/{batch}",
                    a.len(),
                    b.len()
                );
                for (i, (sa, sb)) in a.iter().zip(b).enumerate() {
                    prop_assert!(
                        (sa.curr, sa.lb, sa.ub) == (sb.curr, sb.lb, sb.ub),
                        "checkpoint {i} (curr, lb, ub) diverges at {morsel}/{batch}"
                    );
                    let bits =
                        |e: &[f64]| e.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                    prop_assert!(
                        bits(&sa.estimates) == bits(&sb.estimates),
                        "checkpoint {i} estimator readings diverge at {morsel}/{batch}: \
                         {:?} vs {:?}",
                        sa.estimates,
                        sb.estimates
                    );
                }
            }
        }
    }
}

/// The paged-backend axis: the same matrix cells run over a database
/// that lives in page files behind the LRU buffer pool must be
/// **byte-identical** to the heap backend — same rows, same per-node
/// getnext counters, same `total(Q)` — across seeds × skew × frame
/// counts (including a 1-frame pool that thrashes on every scan) ×
/// degrees × morsel sizes. The pool moves *time*, never rows: that is
/// precisely what makes it an honest nonuniform-cost regime for the
/// estimators rather than a semantics change.
#[test]
fn paged_backend_matches_heap_backend_exactly() {
    let dir_root = std::env::temp_dir().join(format!("qp-par-paged-{}", std::process::id()));
    for (seed, z) in [(3u64, 0.0), (911u64, 2.0)] {
        let (t_vals, u_vals) = skewed_vals(seed, z, 150);
        let heap_db = build_db(&t_vals, &u_vals);
        let dir = dir_root.join(format!("s{seed}"));
        let _ = std::fs::remove_dir_all(&dir);
        qp_storage::paged::save_database(&heap_db, &dir).unwrap();
        let heap_stats = DbStats::build(&heap_db);

        for frames in [1usize, 64] {
            let paged_db = qp_storage::paged::open_database(&dir, frames).unwrap();
            let paged_stats = DbStats::build(&paged_db);
            for shape in 0u8..7 {
                let heap_plan = annotated_plan(&heap_db, &heap_stats, shape, 15);
                let (serial, _) = run_query(&heap_plan, &heap_db, None).unwrap();
                let paged_plan = annotated_plan(&paged_db, &paged_stats, shape, 15);
                for degree in [1usize, 2, 4] {
                    let par = parallelize(&paged_plan, degree);
                    for morsel in [1usize, 64, usize::MAX] {
                        let controls = RunControls {
                            tuning: tuning(morsel),
                            ..RunControls::default()
                        };
                        let mut run = QueryRun::with_controls(&par, &paged_db, controls).unwrap();
                        let rows = run.run().unwrap();
                        let counts = run.context().counters().snapshot();
                        let total = run.context().counters().total();
                        let cell = format!(
                            "seed {seed} z {z} frames {frames} shape {shape} \
                             degree {degree} morsel {morsel}"
                        );
                        assert_eq!(rows, serial.rows, "rows diverge: {cell}");
                        assert_eq!(total, serial.total_getnext, "total(Q) diverges: {cell}");
                        assert_eq!(
                            &counts[..paged_plan.len()],
                            &serial.node_counts[..],
                            "per-node counters diverge: {cell}"
                        );
                    }
                }
            }
            // The tiny pool must have actually thrashed, or the axis
            // proves nothing about nonuniform per-GetNext cost.
            if frames == 1 {
                let stats = paged_db.buffer_pool().unwrap().stats();
                assert!(
                    stats.evictions > 0,
                    "1-frame pool never evicted (seed {seed})"
                );
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
    let _ = std::fs::remove_dir_all(&dir_root);
}

/// Cancels the shared token once the query has done `at` getnext calls.
struct CancelAt {
    token: CancelToken,
    at: u64,
}

impl Observer for CancelAt {
    fn on_event(&mut self, _event: ExecEvent, counters: &Counters) {
        if counters.total() >= self.at {
            self.token.cancel();
        }
    }
}

/// A mid-flight cancel of a parallel query ends in `ExecError::Cancelled`
/// — workers notice the shared token and unwind cleanly, no panic, no
/// partial-result corruption.
#[test]
fn mid_flight_cancel_lands_in_cancelled() {
    let t_vals: Vec<(i64, i64)> = (0..400).map(|i| (i % 37, i % 11)).collect();
    let u_vals: Vec<i64> = (0..200).map(|i| i % 11).collect();
    let db = build_db(&t_vals, &u_vals);
    let stats = DbStats::build(&db);
    for shape in 0u8..7 {
        let plan = annotated_plan(&db, &stats, shape, 20);
        let par = parallelize(&plan, 4);
        for morsel in MORSEL_SIZES {
            let token = CancelToken::new();
            let controls = RunControls {
                cancel: token.clone(),
                tuning: tuning(morsel),
                ..RunControls::default()
            };
            let mut run = QueryRun::with_controls(&par, &db, controls).unwrap();
            run.set_observer(Box::new(CancelAt { token, at: 25 }));
            match run.run() {
                Err(ExecError::Cancelled) => {}
                other => {
                    panic!("shape {shape} morsel {morsel}: expected Cancelled, got {other:?}")
                }
            }
        }
    }
}

/// Parallelizing twice (or parallelizing an already-parallel plan) is a
/// no-op, so service-layer code can apply the pass unconditionally.
#[test]
fn parallelize_is_idempotent() {
    let db = build_db(&[(1, 2), (3, 4), (5, 6)], &[1, 2, 3]);
    let stats = DbStats::build(&db);
    let plan = annotated_plan(&db, &stats, 2, 10);
    let once = parallelize(&plan, 4);
    let twice = parallelize(&once, 2);
    assert_eq!(once.len(), twice.len());
    let (a, _) = run_query(&once, &db, None).unwrap();
    let (b, _) = run_query(&twice, &db, None).unwrap();
    assert_eq!(a.rows, b.rows);
    assert_eq!(a.total_getnext, b.total_getnext);
}

/// A scheduled fault point fires **exactly once** in a parallel run. The
/// whole schedule is distributed over the plan-wide fork numbering and the
/// root context's live copy is retired, so a point cannot fire both in a
/// fork (at its remapped partition-local index) and again at the root (at
/// its original index against the shared total clock). The observability
/// layer counts every firing, making the invariant directly checkable.
#[test]
fn seeded_fault_fires_exactly_once_in_a_parallel_run() {
    use qp_exec::FaultKind;
    use qp_obs::QueryObs;

    let t_vals: Vec<(i64, i64)> = (0..256).map(|i| (i % 19, i % 7)).collect();
    let db = build_db(&t_vals, &[1, 2, 3]);
    let plan = build_plan(&db, 0, 10); // filter over scan: fans out
    let par = parallelize(&plan, 4);
    assert!(par.len() > plan.len(), "shape must actually fan out");

    // Index 0 maps to fork 0 at local index 0, so it fires on the first
    // getnext of partition 0 — guaranteed reachable.
    let obs = QueryObs::new(1, par.op_labels(), false, None);
    let controls = RunControls {
        faults: Some(FaultPlan::single(
            0,
            FaultKind::Delay(Duration::from_micros(50)),
        )),
        obs: Some(std::sync::Arc::clone(&obs)),
        ..RunControls::default()
    };
    let mut run = QueryRun::with_controls(&par, &db, controls).unwrap();
    run.run().unwrap();
    let fired: u64 = (0..par.len()).map(|i| obs.node(i).faults).sum();
    assert_eq!(
        fired, 1,
        "one scheduled delay must fire exactly once (not re-fired at the root)"
    );
}

/// Work-stealing determinism regression: seeded `Delay` faults act as
/// adversarial worker-start jitter — they stall whichever worker draws
/// them, reshuffling which worker claims which morsel between runs. Two
/// runs with the same seed must nonetheless report identical rows,
/// identical per-node getnext counters, identical `total(Q)`, and an
/// identical per-node fault-fire census (via the observability counters):
/// the *schedule* is allowed to differ, the *accounting* is not.
#[test]
fn adversarial_start_jitter_cannot_change_counters_or_fault_firing() {
    use qp_obs::QueryObs;
    use std::sync::Arc;

    // High skew concentrates matching rows in few morsels, so jitter
    // actually changes the steal pattern between runs.
    let (t_vals, u_vals) = skewed_vals(7, 2.0, 400);
    let db = build_db(&t_vals, &u_vals);
    let plan = build_plan(&db, 0, 10); // filter over scan: fans out
    let par = parallelize(&plan, 4);
    assert!(par.len() > plan.len(), "shape must actually fan out");

    // Delay-only plan: jitter without changing results.
    let cfg = FaultConfig {
        horizon: 300,
        exec_errors: 0,
        storage_errors: 0,
        panics: 0,
        delays: 6,
        delay: Duration::from_micros(200),
    };
    let run_once = |seed: u64| {
        let obs = QueryObs::new(0, par.op_labels(), false, None);
        let controls = RunControls {
            faults: Some(FaultPlan::seeded(seed, &cfg)),
            obs: Some(Arc::clone(&obs)),
            tuning: tuning(16),
            ..RunControls::default()
        };
        let mut run = QueryRun::with_controls(&par, &db, controls).unwrap();
        let rows = run.run().unwrap();
        let counts = run.context().counters().snapshot();
        let total = run.context().counters().total();
        let fault_census: Vec<u64> = (0..par.len()).map(|i| obs.node(i).faults).collect();
        (rows, counts, total, fault_census)
    };

    let first = run_once(33);
    let second = run_once(33);
    assert_eq!(first, second, "same seed must replay the same accounting");

    let fired: u64 = first.3.iter().sum();
    assert!(fired > 0, "the jitter plan must actually fire delays");

    // And the jittered runs still return the serial answer exactly.
    let (serial, _) = run_query(&plan, &db, None).unwrap();
    assert_eq!(first.0, serial.rows);
    assert_eq!(first.2, serial.total_getnext);
    assert_eq!(&first.1[..plan.len()], &serial.node_counts[..]);
}
